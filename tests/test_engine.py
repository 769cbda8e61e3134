import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavee.core as core
from uavee import ScenarioConfig, make_scenario
from uavee.algorithms import (
    _face_theta,
    _start,
    _violation,
    build_jhtpa_subproblem,
    build_opa_subproblem,
    jhtpa,
    opa,
)
from uavee.engine import (
    _MODEL_TOL,
    _linearized_step_bound,
    _model_step,
    ConvexProgram,
    Functional,
    InfeasibleStartError,
    NoFeasiblePointFoundError,
    SolveStatus,
    solve,
)

from oracles import check_gradients, iterate_ee


def affine(a, b, dim):
    a = np.asarray(a, dtype=float)
    return Functional(
        value=lambda z: float(a @ z + b),
        grad=lambda z: a.copy(),
        hess=lambda z: np.zeros((dim, dim)),
    )


def affine_constraints(a, b):
    """The vectorized constraint oracles of A z + b <= 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return dict(
        constraint_values=lambda z: a @ z + b,
        constraint_jacobian=lambda z: a.copy(),
        constraint_hessian_weighted=lambda z, w: np.zeros((a.shape[1], a.shape[1])),
    )


def box_program(scale=1.0):
    # minimize (z / scale - 3)^2 on [0, 10 scale]
    return ConvexProgram(
        objective=Functional(
            value=lambda z: float((z[0] / scale - 3.0) ** 2),
            grad=lambda z: np.array([2.0 * (z[0] / scale - 3.0) / scale]),
            hess=lambda z: np.array([[2.0 / scale**2]]),
        ),
        domain_guard=lambda z: True,
        **affine_constraints([[-1.0], [1.0]], [0.0, -10.0 * scale]),
    )


def reciprocal_program():
    # minimize 1/z1 + 1/z2 s.t. z1 + z2 <= 4, z > 0  ->  (2, 2), value 1
    return ConvexProgram(
        objective=Functional(
            value=lambda z: float(1.0 / z[0] + 1.0 / z[1]),
            grad=lambda z: np.array([-1.0 / z[0] ** 2, -1.0 / z[1] ** 2]),
            hess=lambda z: np.diag([2.0 / z[0] ** 3, 2.0 / z[1] ** 3]),
        ),
        domain_guard=lambda z: bool(np.all(z > 0.0)),
        **affine_constraints([[1.0, 1.0]], [-4.0]),
    )


def jhtpa_fixture_program(n=2, seed=7):
    config = ScenarioConfig(num_pairs=n, seed=seed)
    _, ch = make_scenario(config)
    r_bar = core.qos_threshold(ch, config)
    theta, p, strict = _start(ch, config, r_bar, _face_theta(ch, config, r_bar))
    assert strict
    z = np.concatenate(([theta], 1.0 / p))
    phi = iterate_ee(z, ch, config)
    return build_jhtpa_subproblem(z, phi, ch, config, r_bar), z, ch, config, r_bar


def opa_fixture_program(n=3, seed=11):
    config = ScenarioConfig(num_pairs=n, seed=seed)
    _, ch = make_scenario(config)
    r_bar = core.qos_threshold(ch, config)
    theta_fix = config.theta_fix
    _, p, strict = _start(ch, config, r_bar, theta_fix)
    assert strict
    q = 1.0 / p
    z = np.append(theta_fix, q)
    return build_opa_subproblem(z, iterate_ee(z, ch, config), ch, config, r_bar), q


@pytest.mark.parametrize("scale", [1.0, 1e10])
def test_solve_quadratic_box(scale):
    # the answer may not depend on the coordinates' scale: at 1e10 the
    # gradient at the start is 4e-10, which an absolute gradient-norm test
    # takes for a center (q = 1/p ~ 1e9 in jhtpa and opa)
    out = solve(box_program(scale), np.array([scale]))
    assert out.status is SolveStatus.OPTIMAL
    assert out.z_star[0] == pytest.approx(3.0 * scale, abs=1e-6 * scale)


def test_solve_symmetric_reciprocal():
    out = solve(reciprocal_program(), np.array([0.5, 3.0]))
    assert out.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(out.z_star, [2.0, 2.0], atol=1e-5)
    assert reciprocal_program().objective.value(out.z_star) == pytest.approx(1.0, abs=1e-6)


def test_solve_rejects_infeasible_start():
    with pytest.raises(InfeasibleStartError):
        solve(box_program(), np.array([11.0]))
    with pytest.raises(InfeasibleStartError):
        solve(reciprocal_program(), np.array([-1.0, 1.0]))


def test_nan_hessian_ends_numerical_failure():
    # no regularization repairs a NaN Newton system: solve reports the
    # breakdown at the start instead of raising
    prog = reciprocal_program()
    objective = dataclasses.replace(prog.objective, hess=lambda z: np.full((2, 2), np.nan))
    out = solve(dataclasses.replace(prog, objective=objective), np.array([0.5, 3.0]))
    assert out.status is SolveStatus.NUMERICAL_FAILURE
    assert (out.newton_step_count, out.outer_objective_trace) == (0, [])
    np.testing.assert_array_equal(out.z_star, [0.5, 3.0])


def test_solve_deterministic():
    a = solve(reciprocal_program(), np.array([0.5, 3.0]))
    b = solve(reciprocal_program(), np.array([0.5, 3.0]))
    assert np.array_equal(a.z_star, b.z_star)
    assert a.outer_objective_trace == b.outer_objective_trace
    assert a.newton_step_count == b.newton_step_count


def test_solve_outer_trace_monotone_and_feasible():
    prog, z0, *_ = jhtpa_fixture_program()
    out = solve(prog, z0)
    trace = np.asarray(out.outer_objective_trace)
    assert trace.size >= 2
    assert np.all(np.diff(trace) <= 1e-7 * np.maximum(1.0, np.abs(trace[:-1])))
    assert np.all(prog.constraint_values(out.z_star) < 0.0)


def test_solved_jhtpa_subproblem_matches_grid():
    # independent vectorized re-derivation of the surrogate program, swept on
    # a fine local grid plus a coarse global one; convexity makes the local
    # certificate global
    prog, z0, ch, config, r_bar = jhtpa_fixture_program()
    out = solve(prog, z0)
    assert out.status is SolveStatus.OPTIMAL
    z_star = out.z_star

    theta_bar, q_bar = float(z0[0]), z0[1:]
    hd = np.diag(ch.h)
    off = ch.h - np.diag(hd)
    ep = config.eta * config.p0_watt
    coeffs = core.log_bound_coeffs(q_bar / hd, off @ (1.0 / q_bar) + ch.sigma2_watt, theta_bar)
    phi = iterate_ee(z0, ch, config)
    pw_const = (1.0 - 2.0 / theta_bar) * ep + config.p_cir_watt
    pw_lin = ep / theta_bar**2

    def negated_surplus(theta, q1, q2):
        # theta scalar; q1, q2 broadcastable arrays
        x1, x2 = q1 / hd[0], q2 / hd[1]
        y1 = off[0, 1] / q2 + ch.sigma2_watt
        y2 = off[1, 0] / q1 + ch.sigma2_watt
        psi1 = core.surrogate_psi(
            core.BoundCoeffs(coeffs.const_term[0], coeffs.cx[0], coeffs.cy[0], coeffs.ct[0]),
            x1, y1, theta,
        )
        psi2 = core.surrogate_psi(
            core.BoundCoeffs(coeffs.const_term[1], coeffs.cx[1], coeffs.cy[1], coeffs.ct[1]),
            x2, y2, theta,
        )
        power = 1.0 / (theta * q1) + 1.0 / (theta * q2) + pw_const + pw_lin * theta
        feasible = (
            (theta > 1.0)
            & (1.0 / q1 <= (theta - 1.0) * ep * ch.g[0])
            & (1.0 / q2 <= (theta - 1.0) * ep * ch.g[1])
            & (psi1 >= r_bar)
            & (psi2 >= r_bar)
        )
        return np.where(feasible, -(psi1 + psi2 - phi * power), np.inf)

    def best_on_grid(thetas, q1s, q2s):
        q1, q2 = np.meshgrid(q1s, q2s, indexing="ij")
        best = np.inf
        for theta in thetas:
            best = min(best, float(np.min(negated_surplus(theta, q1, q2))))
        return best

    # oracle value at the solver's point, in the oracle's own units
    f_star = float(negated_surplus(z_star[0], z_star[1:2], z_star[2:3])[0])
    assert np.isfinite(f_star)
    tol = 1e-5 * max(1.0, abs(f_star))

    best_local = best_on_grid(
        np.linspace(0.9 * z_star[0], 1.1 * z_star[0], 200),
        np.linspace(0.9 * z_star[1], 1.1 * z_star[1], 200),
        np.linspace(0.9 * z_star[2], 1.1 * z_star[2], 200),
    )
    assert f_star <= best_local + tol

    best_coarse = best_on_grid(
        np.linspace(1.0 + 1e-6, 50.0, 60),
        np.exp(np.linspace(np.log(z_star[1] / 30), np.log(z_star[1] * 30), 60)),
        np.exp(np.linspace(np.log(z_star[2] / 30), np.log(z_star[2] * 30), 60)),
    )
    assert f_star <= best_coarse + tol


def test_check_gradients_affine_exact():
    prog = ConvexProgram(
        objective=affine([1.0, -2.0, 0.5], 3.0, 3),
        domain_guard=lambda z: True,
        **affine_constraints([[0.0, 1.0, 1.0]], [-5.0]),
    )
    assert check_gradients(prog, np.array([1.0, 2.0, 3.0])) < 1e-9


def test_check_gradients_reciprocal_product():
    prog = ConvexProgram(
        objective=Functional(
            value=lambda z: float(1.0 / (z[0] * z[1])),
            grad=lambda z: np.array(
                [-1.0 / (z[0] ** 2 * z[1]), -1.0 / (z[0] * z[1] ** 2)]
            ),
            hess=lambda z: np.array(
                [
                    [2.0 / (z[0] ** 3 * z[1]), 1.0 / (z[0] ** 2 * z[1] ** 2)],
                    [1.0 / (z[0] ** 2 * z[1] ** 2), 2.0 / (z[0] * z[1] ** 3)],
                ]
            ),
        ),
        domain_guard=lambda z: bool(np.all(z > 0.0)),
        **affine_constraints(np.zeros((0, 2)), []),
    )
    z = np.array([1.0, 2.0])
    np.testing.assert_allclose(prog.objective.grad(z), [-0.5, -0.25], rtol=1e-12)
    assert check_gradients(prog, z) < 1e-6


def test_check_gradients_jhtpa_oracles():
    prog, z0, *_ = jhtpa_fixture_program(n=3, seed=11)
    assert check_gradients(prog, z0) < 1e-5


def test_check_gradients_opa_oracles():
    prog, q0 = opa_fixture_program()
    assert check_gradients(prog, q0) < 1e-5


def _corrupt(prog, z, oracle):
    """prog with one entry of one oracle perturbed by 1% of that oracle's
    largest entry at z."""
    if oracle == "objective_grad":
        g = np.asarray(prog.objective.grad(z))
        k = int(np.argmax(np.abs(g)))
        delta = np.zeros_like(g)
        delta[k] = 1e-2 * abs(g[k])
        grad = prog.objective.grad
        return dataclasses.replace(
            prog, objective=dataclasses.replace(prog.objective, grad=lambda x: grad(x) + delta)
        )
    if oracle == "jacobian":
        jac = prog.constraint_jacobian(z)
        j, k = np.unravel_index(np.argmax(np.abs(jac)), jac.shape)
        delta = np.zeros_like(jac)
        delta[j, k] = 1e-2 * abs(jac[j, k])
        fn = prog.constraint_jacobian
        return dataclasses.replace(prog, constraint_jacobian=lambda x: fn(x) + delta)
    # weighted Hessian: one diagonal entry of one constraint's Hessian
    m = prog.constraint_values(z).size
    hessians = [prog.constraint_hessian_weighted(z, e) for e in np.eye(m)]
    j = int(np.argmax([np.max(np.abs(hj)) for hj in hessians]))
    k = int(np.argmax(np.abs(np.diag(hessians[j]))))
    bump = 1e-2 * abs(hessians[j][k, k])
    fn = prog.constraint_hessian_weighted

    def corrupted(x, w):
        out = fn(x, w)
        out[k, k] += bump * w[j]
        return out

    return dataclasses.replace(prog, constraint_hessian_weighted=corrupted)


@pytest.mark.parametrize("oracle", ["objective_grad", "jacobian", "weighted_hessian"])
@pytest.mark.parametrize("subproblem", ["jhtpa", "opa"])
def test_check_gradients_flags_corrupted_oracle(subproblem, oracle):
    if subproblem == "jhtpa":
        prog, z0, *_ = jhtpa_fixture_program(n=3, seed=11)
    else:
        prog, z0 = opa_fixture_program()
    assert check_gradients(_corrupt(prog, z0, oracle), z0) > 1e-3


def test_find_feasible_boundary_point_weakly_feasible(channels3, config3):
    # with no QoS floor, the full-harvest point at theta = 2 meets every
    # causality row with equality and clears the theta guard and QoS rows
    p_full = (2.0 - 1.0) * config3.eta * config3.p0_watt * channels3.g
    assert _violation(2.0, p_full, channels3, config3, r_bar=0.0) <= 1e-12


def test_find_feasible_succeeds_on_fixture(channels3, config3):
    r_bar = core.qos_threshold(channels3, config3)
    theta, p, strict = _start(channels3, config3, r_bar, _face_theta(channels3, config3, r_bar))
    assert strict
    alloc = core.Allocation.from_theta(theta, p)
    report = core.check_feasible(alloc, channels3, config3, r_bar)
    assert report.is_feasible(atol=1e-18)


def test_find_feasible_impossible_qos(channels3, config3):
    with pytest.raises(NoFeasiblePointFoundError):
        _start(channels3, config3, 1e3, _face_theta(channels3, config3, 1e3))


@pytest.mark.parametrize(
    "n, seed, theta_fix", [(3, 7, 2.0), (6, 3, 2.0), (10, 5, 2.0), (5, 11, 1.01)]
)
def test_each_start_builds_and_proposes_one_candidate(monkeypatch, n, seed, theta_fix):
    # jhtpa starts from the one candidate at _face_theta and opa from the one
    # at theta_fix, each proposed once. opa's presolve reads x_min from its
    # own _interior_powers call at theta_fix before its start.
    import uavee.algorithms as alg

    tried, tries = [], []
    real_interior, real_find = alg._interior_powers, alg.find_feasible

    def recording_interior(ch, config, r_bar, theta, pinned=None):
        tried.append(theta)
        return real_interior(ch, config, r_bar, theta, pinned)

    def recording_find(constraints, sampler, rng, max_tries):
        tries.append(max_tries)
        return real_find(constraints, sampler, rng, max_tries)

    monkeypatch.setattr(alg, "_interior_powers", recording_interior)
    monkeypatch.setattr(alg, "find_feasible", recording_find)
    config = ScenarioConfig(num_pairs=n, seed=seed, theta_fix=theta_fix)
    _, ch = make_scenario(config)
    r_bar = core.qos_threshold(ch, config)
    face = _face_theta(ch, config, r_bar)
    theta, p, strict = _start(ch, config, r_bar, face)
    assert tried == [face] and tries == [1]
    assert strict and theta == face and _violation(theta, p, ch, config, r_bar) < 0.0
    assert np.array_equal(p, real_interior(ch, config, r_bar, face)[0])

    del tried[:], tries[:]
    jhtpa(ch, config)
    assert tried == [face] and tries == [1]

    del tried[:], tries[:]
    with pytest.raises(NoFeasiblePointFoundError):
        _start(ch, config, 1e3, _face_theta(ch, config, 1e3))
    assert tried == [theta_fix] and tries == [1]

    del tried[:], tries[:]
    opa(ch, config)
    assert tried == [theta_fix, theta_fix] and tries == [1]


def test_debug_dump_emits_json(caplog):
    import json
    import logging

    with caplog.at_level(logging.DEBUG, logger="uavee.engine"):
        solve(box_program(), np.array([1.0]))
    records = [r.message for r in caplog.records if r.name == "uavee.engine"]
    assert records
    payload = json.loads(records[-1])
    assert payload["dim"] == 1
    assert payload["status"] == "optimal"
    assert len(payload["constraint_values"]) == 2
    assert payload["outer_objective_trace"]
    assert 1.0 <= payload["barrier_t_start"] <= payload["barrier_t_final"]


def test_subproblem_latency_soft(monkeypatch):
    # target: under 10 ms per subproblem solve at dimension <= 11 (N=10) on
    # commodity hardware; measured on the solves real SCA runs issue. The
    # assertion carries a 2.5x allowance for this containerized CI host, the
    # printed line reports the raw measurement against the stated target.
    import uavee.algorithms as alg

    times_ms = []
    real_solve = solve

    def recording_solve(prog, z0):
        started = time.perf_counter()
        out = real_solve(prog, z0)
        times_ms.append((time.perf_counter() - started) * 1e3)
        return out

    monkeypatch.setattr(alg, "solve", recording_solve)
    for seed in (5, 23, 87):
        config = ScenarioConfig(num_pairs=10, seed=seed)
        _, ch = make_scenario(config)
        report = jhtpa(ch, config)
        assert report.subsolver_calls >= 1
    median = float(np.median(times_ms))
    print(
        f"median subproblem solve at N=10: {median:.2f} ms over {len(times_ms)} solves "
        "(stated target 10 ms, soft)"
    )
    assert median < 25.0


@pytest.mark.parametrize(
    "algorithm, max_steps, max_values_per_step",
    # ~10% above the measured 83 steps at 1.036 values per step, for jhtpa
    # and for opa alike; the values bounds stay at 1.13 and 1.16. While a
    # solve after an SCA step started its scan at a warm t_final / mu^2, its
    # stages also stopped on the gradient norm or a stall, and opa's
    # subproblem lived in power space, opa took 89 at 1.056 (jhtpa 83 at
    # 1.036 from its face start, 138 at 1.043 from the widest of ten start
    # candidates; the bounds were 152 and 98). Before each solve started at its most central stage (t0 mu^j, j <= 4) instead
    # of t0, they took 244 at 1.033 and 107 at 1.056. Before opa's presolve
    # pinned the pair its QoS floor holds at full harvest, opa took 116 at
    # 1.647. Before jhtpa started from its widest candidate
    # interior and the subproblem oracles were held as coefficient arrays
    # they took 291 at 1.031 and 122 at 1.918. Backtracking from the first
    # rung below the linearization bound took 396 and 139; the
    # full-step-first line search with exact centering at every stage took
    # 522 at 2.77 and 300 at 6.21
    [(jhtpa, 91, 1.13), (opa, 91, 1.16)],
    ids=["jhtpa", "opa"],
)
def test_subproblem_step_counts(monkeypatch, algorithm, max_steps, max_values_per_step):
    # deterministic companion of test_subproblem_latency_soft, on its seeds
    import uavee.algorithms as alg

    counts = {"steps": 0, "values": 0}

    def counting_solve(prog, z0):
        def values(z, fn=prog.constraint_values):
            counts["values"] += 1
            return fn(z)

        out = solve(dataclasses.replace(prog, constraint_values=values), z0)
        counts["steps"] += out.newton_step_count
        return out

    monkeypatch.setattr(alg, "solve", counting_solve)
    for seed in (5, 23, 87):
        config = ScenarioConfig(num_pairs=10, seed=seed)
        _, ch = make_scenario(config)
        assert algorithm(ch, config).subsolver_calls >= 1
    print(f"{algorithm.__name__}: {counts['steps']} Newton steps, {counts['values']} constraint evaluations")
    assert counts["steps"] <= max_steps
    assert counts["values"] <= max_values_per_step * counts["steps"]


@pytest.fixture(scope="module")
def captured_subproblems():
    """(program, point) pairs from jhtpa and opa SCA runs on the N=3 fixture
    scenario: every surrogate program the runs solve, at its start and at its
    solution."""
    import uavee.algorithms as alg

    captured = []

    def capturing_solve(prog, z0):
        out = solve(prog, z0)
        captured.extend([(prog, np.array(z0, dtype=float)), (prog, out.z_star)])
        return out

    config = ScenarioConfig(num_pairs=3, seed=11)
    _, ch = make_scenario(config)
    real = alg.solve
    alg.solve = capturing_solve
    try:
        jhtpa(ch, config)
        opa(ch, config)
    finally:
        alg.solve = real
    return captured


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    pick=st.integers(min_value=0),
    unit=st.lists(st.floats(-1.0, 1.0), min_size=31, max_size=31),
    beyond=st.one_of(st.just(0.0), st.floats(1e-12, 1e3)),
)
def test_linearized_step_bound_cuts_no_feasible_step(captured_subproblems, pick, unit, beyond):
    # convex rows lie above their linearizations, so every step at or past
    # the bound leaves the strictly feasible set (or the oracles' domain).
    # The rows are scaled to O(1) and round at ~1e-16 when evaluated, so a
    # point on the boundary may read a hair below zero.
    prog, z = captured_subproblems[pick % len(captured_subproblems)]
    direction = np.asarray(unit[: z.size]) * np.abs(z)
    c = prog.constraint_values(z)
    bound = _linearized_step_bound(c, prog.constraint_jacobian(z) @ direction)
    if not np.isfinite(bound):
        return
    trial = z + bound * (1.0 + beyond) * direction
    assert not prog.domain_guard(trial) or prog.constraint_values(trial).max() >= -1e-12


@pytest.mark.parametrize(
    "program, start, optimum",
    [
        (box_program, lambda share, fill: [10.0 * fill], [3.0]),
        (reciprocal_program, lambda share, fill: 4.0 * fill * np.array([share, 1.0 - share]), [2.0, 2.0]),
    ],
    ids=["box", "reciprocal"],
)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(share=st.floats(0.01, 0.99), fill=st.floats(1e-6, 1.0 - 1e-6))
def test_affine_rows_line_search_stays_feasible(program, start, optimum, share, fill):
    # affine rows only: the linearization bound is exact, so no line-search
    # trial point may leave the feasible set
    prog = program()
    infeasible = 0

    def values(z, fn=prog.constraint_values):
        nonlocal infeasible
        c = fn(z)
        infeasible += int(not (c < 0.0).all())
        return c

    out = solve(dataclasses.replace(prog, constraint_values=values), np.asarray(start(share, fill)))
    np.testing.assert_allclose(out.z_star, optimum, atol=1e-5)
    assert infeasible == 0


def _model_slope(s, a, kappa, r, inv_t):
    return a + kappa * s + inv_t * float((r / (1.0 - s * r)).sum())


_magnitude = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    r=st.lists(
        st.one_of(st.just(0.0), _magnitude, _magnitude.map(lambda v: -v)), min_size=1, max_size=8
    ),
    a=_magnitude.map(lambda v: -v),
    kappa=st.one_of(st.just(0.0), _magnitude),
    inv_t=st.floats(-9.0, 0.0).map(lambda e: 10.0**e),
    shrink=st.floats(1e-3, 1.0),
)
def test_model_step_minimizes_barrier_model(r, a, kappa, inv_t, shrink):
    # the model m(s) = s a + kappa s^2 / 2 - (1/t) sum log(1 - s r_j) is
    # convex on [1, 0.99 * limit] when no row reaches its linearized
    # boundary before limit; the model step is its minimizer there, to the
    # stop tolerance, or one end of that bracket
    r = np.asarray(r)
    growth = r.max()
    limit = shrink / growth if growth > 0.0 else 1e3 * shrink
    hi = 0.99 * limit
    if not hi > 1.0:
        return
    step = _model_step(a, kappa, r, inv_t, hi)
    assert 1.0 <= step <= hi < limit
    lo_end, hi_end = 1.0, hi
    for _ in range(200):  # bisection on the increasing m'
        mid = 0.5 * (lo_end + hi_end)
        if _model_slope(mid, a, kappa, r, inv_t) < 0.0:
            lo_end = mid
        else:
            hi_end = mid
    exact = 0.5 * (lo_end + hi_end)
    assert step in (1.0, hi) or abs(step - exact) <= _MODEL_TOL * exact
    if step == 1.0:
        assert _model_slope(1.0, a, kappa, r, inv_t) >= 0.0 or exact <= 1.0 + _MODEL_TOL
    if step == hi:
        assert _model_slope(hi, a, kappa, r, inv_t) <= 0.0 or exact >= hi * (1.0 - _MODEL_TOL)


@pytest.mark.parametrize("kappa", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("limit", [1.02, 10.0, 1e9])
def test_model_step_of_a_quadratic_is_the_newton_step(kappa, limit):
    # no barrier curvature along d (r = 0) and a = -kappa: the model is the
    # Newton quadratic, whose minimizer is the full step
    step = _model_step(-kappa, kappa, np.zeros(3), 1e-3, 0.99 * limit)
    assert abs(step - 1.0) <= _MODEL_TOL


def unit_interval_program():
    # minimize z on 0 < z < 1: the center of t z - log z - log(1 - z) solves
    # t z^2 - (t + 2) z + 1 = 0, z*(t) = 2 / (t + 2 + sqrt(t^2 + 4))
    return ConvexProgram(
        objective=affine([1.0], 0.0, 1),
        domain_guard=lambda z: True,
        **affine_constraints([[-1.0], [1.0]], [0.0, -1.0]),
    )


def central_point(t):
    return np.array([2.0 / (t + 2.0 + np.sqrt(t * t + 4.0))])


def test_first_stage_is_the_most_central_one(monkeypatch):
    # started exactly on the central path at mu^2, the scan picks that
    # stage, which then takes no Newton step
    import uavee.engine as engine

    stages = []  # (t, Newton steps) per stage
    real = engine._center

    def center(prog, point, inv_t, decrement_tol):
        out = real(prog, point, inv_t, decrement_tol)
        stages.append((1.0 / inv_t, out[1]))
        return out

    monkeypatch.setattr(engine, "_center", center)
    target = engine.BARRIER_MU * engine.BARRIER_MU
    out = solve(unit_interval_program(), central_point(target))
    assert out.barrier_t_start == target
    assert stages[0] == (target, 0)
    assert out.status is SolveStatus.OPTIMAL
    assert out.z_star[0] == pytest.approx(0.0, abs=1e-7)


def test_first_stage_stays_within_the_span(monkeypatch):
    # a start central for t = 1e7, far above mu^J: the scan may not jump
    # there (an unbounded scan would), and the solve still ends centered
    import uavee.engine as engine

    prog, z0 = unit_interval_program(), central_point(1e7)
    out = solve(prog, z0)
    assert out.barrier_t_start <= engine.BARRIER_MU**engine._FIRST_STAGE_SPAN < 1e7
    assert out.status is SolveStatus.OPTIMAL
    monkeypatch.setattr(engine, "_FIRST_STAGE_SPAN", 40)
    assert solve(prog, z0).barrier_t_start == 1e7


def test_rising_stage_keeps_the_previous_stage(monkeypatch):
    # a second stage whose objective rises past the 1e-7 slack has lost the
    # central path: solve keeps the first stage's point and reports
    # MAX_ITERATIONS, though that stage itself ended centered
    import uavee.engine as engine

    prog, stages = unit_interval_program(), []
    real = engine._center

    def center(prog, point, inv_t, decrement_tol):
        if stages:
            return engine._point_at(prog, stages[0].z + 0.1), 0, SolveStatus.OPTIMAL
        stages.append(real(prog, point, inv_t, decrement_tol)[0])
        return stages[0], 0, SolveStatus.OPTIMAL

    monkeypatch.setattr(engine, "_center", center)
    out = solve(prog, np.array([0.5]))
    assert out.status is SolveStatus.MAX_ITERATIONS
    assert out.z_star is stages[0].z
    assert out.outer_objective_trace == [stages[0].f]


def test_stage_reuse_matches_a_fresh_evaluation():
    # the derivatives at a point are combined from weight-free parts, with
    # one call of each oracle however many weights ask; at each weight they
    # equal the direct formula to rounding
    from uavee.engine import _Point

    prog, z0, *_ = jhtpa_fixture_program()
    calls = {"jacobian": 0}

    def jacobian(z, fn=prog.constraint_jacobian):
        calls["jacobian"] += 1
        return fn(z)

    counted = dataclasses.replace(prog, constraint_jacobian=jacobian)
    c = prog.constraint_values(z0)
    point = _Point(z0, c, prog.objective.value(z0))
    jac = prog.constraint_jacobian(z0)
    for t in (1.0, 10.0, 1e4, 1e9):
        w = 1.0 / (t * -c)
        grad = prog.objective.grad(z0) + jac.T @ w
        hess = (
            prog.objective.hess(z0)
            + (jac * (1.0 / (t * c * c))[:, None]).T @ jac
            + prog.constraint_hessian_weighted(z0, w)
        )
        grad_scale = np.abs(prog.objective.grad(z0)) + np.abs(jac).T @ np.abs(w)
        hess_scale = (
            np.abs(prog.objective.hess(z0))
            + (np.abs(jac) * (1.0 / (t * c * c))[:, None]).T @ np.abs(jac)
            + np.abs(prog.constraint_hessian_weighted(z0, w))
        )
        g, h, _ = point.derivatives(counted, 1.0 / t)
        assert np.all(np.abs(g - grad) <= 1e-14 * grad_scale)
        assert np.all(np.abs(h - hess) <= 1e-14 * hess_scale)
    assert calls["jacobian"] == 1
    assert point.log_slack == float(np.log(-c).sum())


def test_crawling_second_subproblem_ends_optimal(monkeypatch):
    # The subproblem at an extrapolated jhtpa iterate on an N = 2 trial (the
    # second one jhtpa solved on it when it started from a ladder of
    # harvesting times), which hugs its causality rows. An unbounded scan
    # jumps to t = 1e6 and the final stage crawls for all its Newton steps;
    # within the span the solve ends centered.
    import uavee.engine as engine

    config = ScenarioConfig(num_pairs=2, seed=13346151560455507422)
    _, ch = make_scenario(config)
    z0 = np.array([5266.229616174657, 101017.9200111014, 741884.9796771276])
    phi = 1.6250308719496592e-07
    prog = build_jhtpa_subproblem(z0, phi, ch, config, core.qos_threshold(ch, config))
    assert solve(prog, z0).status is SolveStatus.OPTIMAL
    monkeypatch.setattr(engine, "_FIRST_STAGE_SPAN", 40)
    crawled = solve(prog, z0)
    assert crawled.status is SolveStatus.MAX_ITERATIONS and crawled.barrier_t_start > 1e5
