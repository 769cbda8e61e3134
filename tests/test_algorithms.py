import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavee
import uavee.algorithms as algorithms
import uavee.core as core
from uavee import ScenarioConfig, make_scenario
from uavee.algorithms import (
    build_jhtpa_subproblem,
    build_opa_subproblem,
    jhtpa,
    oht,
    opa,
    run_algorithm,
)
from uavee.engine import SolveStatus

from oracles import (
    check_gradients,
    grid_ee_n1,
    grid_oht_theta,
    grid_opa_ee_n1,
    iterate_ee,
    min_pinned_rate,
    pinned_rates_direct,
)


def scenario(n, seed):
    config = ScenarioConfig(num_pairs=n, seed=seed)
    return config, make_scenario(config)[1]


def assert_report_sane(report, ch, config):
    trace = np.asarray(report.trace)
    assert np.all(np.diff(trace) >= -1e-9), "SCA trace must be nondecreasing"
    assert report.feasibility.tau_in_range
    budget = report.allocation.tau * config.eta * config.p0_watt * ch.g
    rel_caus = report.feasibility.causality_violation / np.maximum(budget, 1e-300)
    rel_qos = report.feasibility.qos_violation / max(report.r_bar, 1e-300)
    assert np.all(rel_caus <= 1e-8)
    assert np.all(rel_qos <= 1e-8)
    assert report.ee_bits_per_joule == pytest.approx(
        report.ee_nats_per_joule / np.log(2.0), rel=1e-12
    )


@pytest.mark.parametrize("algorithm", ["jhtpa", "opa", "oht"])
def test_algorithms_converge_and_are_feasible(algorithm):
    for seed in (7, 11, 42):
        config, ch = scenario(3, seed)
        report = run_algorithm(algorithm, ch, config)
        assert report.status == "converged"
        assert_report_sane(report, ch, config)


@pytest.mark.parametrize("algorithm", ["jhtpa", "opa", "oht"])
def test_algorithms_deterministic(algorithm):
    config, ch = scenario(3, 99)
    a = run_algorithm(algorithm, ch, config)
    b = run_algorithm(algorithm, ch, config)
    assert a.ee_nats_per_joule == b.ee_nats_per_joule
    assert a.iterations == b.iterations
    assert np.array_equal(a.allocation.p, b.allocation.p)
    assert a.trace == b.trace


def test_fixture_dominance():
    # the joint optimizer searches a superset of both baselines
    config, ch = scenario(2, 7)
    ee = {name: run_algorithm(name, ch, config).ee_nats_per_joule for name in ("jhtpa", "opa", "oht")}
    assert ee["jhtpa"] >= ee["opa"] - 1e-12
    assert ee["jhtpa"] >= ee["oht"] - 1e-12


def test_jhtpa_single_pair_matches_grid():
    for seed in (0, 1, 2):
        config, ch = scenario(1, seed)
        r_bar = core.qos_threshold(ch, config)
        best = grid_ee_n1(ch, config, r_bar)
        report = jhtpa(ch, config)
        assert report.status == "converged"
        assert report.ee_nats_per_joule >= 0.98 * best
        assert report.ee_nats_per_joule <= 1.02 * best


def test_opa_single_pair_matches_grid():
    for seed in (0, 1, 2):
        config, ch = scenario(1, seed)
        r_bar = core.qos_threshold(ch, config)
        best = grid_opa_ee_n1(ch, config, r_bar)
        report = opa(ch, config)
        assert report.status == "converged"
        assert report.ee_nats_per_joule >= 0.99 * best
        assert report.ee_nats_per_joule <= 1.01 * best


def test_oht_single_pair_theta_matches_grid():
    for seed in (0, 1, 2):
        config, ch = scenario(1, seed)
        theta_grid, _ = grid_oht_theta(ch, config, points=10**5)
        report = oht(ch, config)
        assert report.status == "converged"
        assert abs(report.allocation.theta - theta_grid) <= 1e-2 * max(1.0, theta_grid)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    num_pairs=st.integers(1, 30),
    radius=st.floats(20.0, 5000.0),
    eta=st.floats(0.01, 0.99),
    theta_fix=st.floats(1.01, 50.0),
    noise=st.floats(-170.0, -80.0),
    p_cir=st.floats(1e-6, 10.0),
    rate_cap=st.floats(0.01, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_oht_max_min_rate_beats_grid_and_theta_fix(
    num_pairs, radius, eta, theta_fix, noise, p_cir, rate_cap, seed
):
    config = ScenarioConfig(
        num_pairs=num_pairs,
        seed=seed,
        coverage_radius_m=radius,
        eta=eta,
        theta_fix=theta_fix,
        noise_density_dbm_hz=noise,
        p_cir_watt=p_cir,
        rate_cap_bpshz=rate_cap,
    )
    _, ch = make_scenario(config)
    report = oht(ch, config)
    assert report.status == "converged"
    assert_report_sane(report, ch, config)
    theta = report.allocation.theta
    assert 1.0 + core.THETA_GAP <= theta <= algorithms._OHT_THETA_MAX * (1.0 + 1e-12)
    value = float(np.min(pinned_rates_direct(theta, ch, config)))
    assert report.trace[-1] == pytest.approx(value, rel=1e-12)
    _, grid_best = grid_oht_theta(ch, config, points=10**4)
    assert value >= grid_best * (1.0 - 1e-9)
    # the bracket search's first level is log-spaced: a log grid over its
    # whole bracket resolves peaks near theta = 1 that the linear grid skips
    log_grid = 1.0 + np.geomspace(core.THETA_GAP, algorithms._OHT_THETA_MAX - 1.0, 10**4)
    assert value >= float(np.max(min_pinned_rate(log_grid, ch, config))) * (1.0 - 1e-9)
    assert value >= float(np.min(pinned_rates_direct(theta_fix, ch, config))) * (1.0 - 1e-12)


def test_oht_keeps_theta_fix_above_its_search_range():
    # theta_fix = 2000 lies past _OHT_THETA_MAX, and its max-min rate beats
    # every searched theta, so oht falls back to it
    config = ScenarioConfig(num_pairs=4, seed=3, theta_fix=2000.0)
    _, ch = make_scenario(config)
    report = oht(ch, config)
    assert report.allocation.theta == pytest.approx(2000.0, rel=1e-12)
    assert report.trace[0] == report.trace[1]
    assert_report_sane(report, ch, config)


# _golden_max's answer on scenario(2, 46), the golden-section search oht ran
# before the batched bracket search replaced it; the peak is interior (~41.6).
GOLDEN_THETA_N2_SEED46 = 41.647458432817906


def test_bracket_search_scores_at_least_the_golden_section_answer():
    config, ch = scenario(2, 46)
    report = oht(ch, config)
    theta = report.allocation.theta
    assert 1.0 + core.THETA_GAP < theta < 0.1 * algorithms._OHT_THETA_MAX
    golden = float(np.min(core.pinned_rates(GOLDEN_THETA_N2_SEED46, ch, config)))
    assert float(np.min(core.pinned_rates(theta, ch, config))) >= golden
    assert report.trace[-1] >= golden


def counted(function):
    """function, and a list that gets the size of its first argument (the
    thetas) on each call."""
    calls = []

    def wrapper(thetas, *args):
        calls.append(np.size(thetas))
        return function(thetas, *args)

    return wrapper, calls


def test_bracket_search_stops_at_a_rising_upper_end_after_one_probe():
    values, calls = counted(lambda thetas: thetas)
    theta, value = algorithms._log_bracket_max(values, 1e-3, 999.0, 33, tol=1e-10)
    assert (theta, value) == (1000.0, 1000.0)
    assert calls == [33, 1]


def test_bracket_search_refines_a_peak_next_to_the_upper_end():
    tm1 = np.geomspace(1e-3, 999.0, 33)
    # between the last two grid points and nearer the end, which so wins the
    # first level; 1e-6 below it, far more than tol, so the probe beats the end
    peak = 1.0 + 999.0 - 1e-6 * 1000.0
    assert 1.0 + (tm1[-2] + tm1[-1]) / 2 < peak
    values, calls = counted(lambda thetas: -np.abs(thetas - peak))
    theta, _ = algorithms._log_bracket_max(values, 1e-3, 999.0, 33, tol=1e-10)
    assert abs(theta - peak) <= 1e-10 * peak
    assert len(calls) > 2


def test_bracket_search_with_infinite_tol_makes_one_level_and_no_probe():
    values, calls = counted(lambda thetas: thetas)
    theta, _ = algorithms._log_bracket_max(values, 1e-3, 999.0, 33, tol=np.inf)
    assert theta == 1000.0
    assert calls == [33]


# oht's reported theta (from tau) on two scenarios: seed 3's max-min rate
# still rises at the 1e3 cap, seed 46's peaks inside the range
@pytest.mark.parametrize(
    "num_pairs, seed, rate_calls, theta",
    [(5, 3, 3, 999.9999999999991), (2, 46, 11, 41.64745935187803)],
    ids=["rising-at-cap", "interior-peak"],
)
def test_oht_rate_evaluations(monkeypatch, num_pairs, seed, rate_calls, theta):
    """One evaluation at theta_fix, then: a rate still rising at the cap
    costs one search level and one probe; an interior peak every level."""
    config, ch = scenario(num_pairs, seed)
    counting, calls = counted(core.pinned_rates)
    monkeypatch.setattr(core, "pinned_rates", counting)
    assert oht(ch, config).allocation.theta == theta
    assert len(calls) == rate_calls


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    num_pairs=st.integers(1, 30),
    radius=st.floats(20.0, 5000.0),
    eta=st.floats(0.01, 0.99),
    theta_fix=st.floats(1.01, 50.0),
    noise=st.floats(-170.0, -80.0),
    p_cir=st.floats(1e-6, 10.0),
    rate_cap=st.floats(0.01, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_subproblem_oracles_match_the_surrogate_rate_bound(
    num_pairs, radius, eta, theta_fix, noise, p_cir, rate_cap, seed
):
    # Both builders hold their rows as precomputed coefficient arrays. Their
    # QoS rows must equal (rhs - surrogate_psi) / scale, evaluated from
    # core's bound directly, up to rounding of the sum's terms, and their
    # derivative oracles must pass the finite-difference check, at points
    # anywhere in the builders' domains.
    config = ScenarioConfig(
        num_pairs=num_pairs,
        seed=seed,
        coverage_radius_m=radius,
        eta=eta,
        theta_fix=theta_fix,
        noise_density_dbm_hz=noise,
        p_cir_watt=p_cir,
        rate_cap_bpshz=rate_cap,
    )
    _, ch = make_scenario(config)
    r_bar = core.qos_threshold(ch, config)
    rng = np.random.default_rng(seed)
    hd = np.diag(ch.h)
    off = ch.h - np.diag(hd)
    cap = config.eta * config.p0_watt * ch.g

    def powers(theta):
        return rng.uniform(0.05, 1.0, num_pairs) * (theta - 1.0) * cap

    def assert_qos_rows(rows, rhs, coeffs, x, y, t):
        scale = max(rhs, 1e-12)
        expected = (rhs - core.surrogate_psi(coeffs, x, y, t)) / scale
        terms = rhs + np.abs(coeffs.const_term) + coeffs.cx * x + coeffs.cy * y + coeffs.ct * t
        terms /= scale
        assert np.all(np.abs(rows - expected) <= 1e-12 * terms)

    theta_bar, theta = 1.0 + (theta_fix - 1.0) * rng.uniform(0.2, 5.0, 2)
    z_bar = np.concatenate(([theta_bar], 1.0 / powers(theta_bar)))
    z = np.concatenate(([theta], 1.0 / powers(theta)))
    prog = build_jhtpa_subproblem(z_bar, iterate_ee(z_bar, ch, config), ch, config, r_bar)
    q_bar = z_bar[1:]
    coeffs = core.log_bound_coeffs(q_bar / hd, off @ (1.0 / q_bar) + ch.sigma2_watt, theta_bar)
    rows = prog.constraint_values(z)[num_pairs + 1 :]
    assert_qos_rows(rows, r_bar, coeffs, z[1:] / hd, off @ (1.0 / z[1:]) + ch.sigma2_watt, theta)
    assert check_gradients(prog, z) < 1e-5

    # opa's subproblem is jhtpa's at theta = theta_fix, over q = 1/p
    q_bar, q = 1.0 / powers(theta_fix), 1.0 / powers(theta_fix)
    phi = iterate_ee(np.append(theta_fix, q_bar), ch, config)
    prog = build_opa_subproblem(np.append(theta_fix, q_bar), phi, ch, config, r_bar)
    coeffs = core.log_bound_coeffs(q_bar / hd, off @ (1.0 / q_bar) + ch.sigma2_watt, theta_fix)
    rows = prog.constraint_values(q)[num_pairs:]
    assert_qos_rows(rows, r_bar, coeffs, q / hd, off @ (1.0 / q) + ch.sigma2_watt, theta_fix)
    # q can be ~1e12; check_gradients' step is relative to each coordinate,
    # so it resolves it directly.
    assert check_gradients(prog, q) < 1e-5


def test_oht_closed_form_power_identity():
    # oht's powers are the full-harvest closed form at its reported theta
    for seed in (7, 11, 42):
        config, ch = scenario(4, seed)
        report = oht(ch, config)
        closed_form = (report.allocation.theta - 1.0) * config.eta * config.p0_watt * ch.g
        np.testing.assert_allclose(report.allocation.p / closed_form, 1.0, rtol=1e-10, atol=0.0)


def test_oht_power_pinning_exact():
    config, ch = scenario(3, 7)
    report = oht(ch, config)
    pinned = (report.allocation.theta - 1.0) * config.eta * config.p0_watt * ch.g
    assert np.array_equal(report.allocation.p, pinned)
    ratio = report.allocation.p / pinned
    assert np.all(ratio == 1.0)


def test_pinned_power_endpoint():
    config, ch = scenario(3, 7)
    theta = 1.0 + 1e-12
    assert core.pinned_total_power(theta, ch, config) == pytest.approx(
        config.p_cir_watt, rel=1e-9
    )
    assert np.max(core.pinned_rates(theta, ch, config)) < 1e-12
    alloc = core.pinned_allocation(theta, ch, config)
    assert core.energy_efficiency(alloc, ch, config) < 1e-12


def test_surrogate_sandwich_at_expansion():
    # sum psi equals the true sum rate and the linearized power equals the
    # true power at the expansion point
    config, ch = scenario(3, 11)
    theta = 2.3
    cap = config.eta * config.p0_watt * ch.g
    q = 1.07 / ((theta - 1.0) * cap)
    z = np.concatenate(([theta], q))
    hd = np.diag(ch.h)
    off = ch.h - np.diag(hd)
    coeffs = core.log_bound_coeffs(q / hd, off @ (1.0 / q) + ch.sigma2_watt, theta)
    psi = core.surrogate_psi(coeffs, q / hd, off @ (1.0 / q) + ch.sigma2_watt, theta)
    true_rates = core.rates_from_inverse(theta, q, ch)
    np.testing.assert_allclose(psi, true_rates, rtol=1e-10)

    ep = config.eta * config.p0_watt
    linearized = (
        float(np.sum(1.0 / (theta * q)))
        + (1.0 - 2.0 / theta + theta / theta**2) * ep
        + config.p_cir_watt
    )
    assert linearized == pytest.approx(
        core.total_power(core.Allocation.from_theta(theta, 1.0 / q), config), rel=1e-10
    )


def test_jhtpa_subproblem_objective_zero_at_expansion():
    # surplus sum psi - phi * linearized power vanishes at the expansion when
    # phi is the current EE (tangency on both sides)
    config, ch = scenario(3, 11)
    theta = 2.3
    cap = config.eta * config.p0_watt * ch.g
    q = 1.07 / ((theta - 1.0) * cap)
    z = np.concatenate(([theta], q))
    phi = iterate_ee(z, ch, config)
    prog = build_jhtpa_subproblem(z, phi, ch, config, core.qos_threshold(ch, config))
    assert abs(prog.objective.value(z)) < 1e-9


def test_jhtpa_qos_constraint_tangent_at_expansion():
    # the surrogate QoS row evaluated at the expansion equals the true-rate
    # deficit, so it binds exactly when the true rate sits on the floor
    config, ch = scenario(3, 11)
    r_bar = core.qos_threshold(ch, config)
    theta = 2.0
    cap = config.eta * config.p0_watt * ch.g
    q = 1.01 / ((theta - 1.0) * cap)
    z = np.concatenate(([theta], q))
    prog = build_jhtpa_subproblem(z, iterate_ee(z, ch, config), ch, config, r_bar)
    qos_rows = prog.constraint_values(z)[-3:]
    true_deficit = (r_bar - core.rates_from_inverse(theta, q, ch)) / max(r_bar, 1e-300)
    np.testing.assert_allclose(qos_rows, true_deficit, atol=1e-10)


def test_opa_subproblem_objective_zero_at_expansion():
    config, ch = scenario(3, 11)
    theta_fix = config.theta_fix
    q = 1.05 / ((theta_fix - 1.0) * config.eta * config.p0_watt * ch.g)
    phi = iterate_ee(np.append(theta_fix, q), ch, config)
    prog = build_opa_subproblem(
        np.append(theta_fix, q), phi, ch, config, core.qos_threshold(ch, config)
    )
    assert abs(prog.objective.value(q)) < 1e-9


def test_opa_program_is_jhtpa_with_theta_and_pinned_pairs_held():
    # build_opa_subproblem folds theta's and the pinned pairs' columns into
    # constants and drops their rows; at every q it reads what jhtpa's program
    # reads at the same (z_bar, phi) with those entries held at z_bar's
    rng = np.random.default_rng(1301)
    worst = np.zeros(3)
    for num_pairs in range(2, 11):
        config, ch = scenario(num_pairs, 130 + num_pairs)
        r_bar = core.qos_threshold(ch, config)
        p_max = core.pinned_powers(config.theta_fix, ch, config)
        random_mask = rng.random(num_pairs) < 0.5
        random_mask[rng.integers(num_pairs)] = False
        for pinned in (None, random_mask, np.arange(num_pairs) > 0):
            held = np.zeros(num_pairs, dtype=bool) if pinned is None else pinned
            free = np.append(False, ~held)
            keep = np.concatenate(([False], ~held, ~held))
            z_bar = np.append(config.theta_fix, 1.0 / (rng.uniform(0.05, 1.0, num_pairs) * p_max))
            phi = iterate_ee(z_bar, ch, config)
            joint = build_jhtpa_subproblem(z_bar, phi, ch, config, r_bar)
            fixed = build_opa_subproblem(z_bar, phi, ch, config, r_bar, pinned)
            for _ in range(3):
                z = z_bar.copy()
                z[free] = 1.0 / (rng.uniform(0.05, 1.0, (~held).sum()) * p_max[~held])
                c = joint.constraint_values(z)[keep]
                f, g = joint.objective.value(z), joint.objective.grad(z)[free]
                errors = (
                    np.max(np.abs(fixed.constraint_values(z[free]) - c) / (1.0 + np.abs(c))),
                    abs(fixed.objective.value(z[free]) - f) / max(1.0, abs(f)),
                    np.max(np.abs(fixed.objective.grad(z[free]) - g) / np.abs(g)),
                )
                worst = np.maximum(worst, errors)
    assert np.all(worst <= 1e-12), worst


def test_report_serialization_roundtrip():
    import json

    config, ch = scenario(2, 7)
    report = oht(ch, config)
    payload = json.loads(report.to_json(include_trace=True))
    assert payload["algorithm"] == "oht"
    assert payload["status"] == "converged"
    assert payload["trace"] == report.trace
    assert payload["ee_nats_per_joule"] == report.ee_nats_per_joule
    assert "trace" not in json.loads(report.to_json())


def test_feasibility_is_checked_on_demand():
    # the report keeps the allocation's inputs and checks it when asked; its
    # JSON is byte for byte a stored one; oht's max-min rate peaks at the
    # 1e3 cap here, and the bracket search returns its last grid point,
    # tau = 1 - 1/1e3 = 0.999
    import json

    stored = {f.name for f in dataclasses.fields(algorithms.SolveReport)}
    derived = {
        "feasibility", "status", "iterations", "ee_nats_per_joule", "ee_bits_per_joule", "r_bar"
    }
    assert derived.isdisjoint(stored)
    config, ch = scenario(3, 7)
    for run in (jhtpa, opa, oht):
        report = run(ch, config)
        expected = core.check_feasible(report.allocation, ch, config, report.r_bar)
        feasibility = report.feasibility
        assert np.array_equal(feasibility.causality_violation, expected.causality_violation)
        assert np.array_equal(feasibility.qos_violation, expected.qos_violation)
        assert feasibility.tau_in_range == expected.tau_in_range
        payload = json.loads(report.to_json())
        assert payload["causality_violation"] == expected.causality_violation.tolist()
        assert payload["qos_violation"] == expected.qos_violation.tolist()
        assert payload["tau_in_range"] == expected.tau_in_range
        assert "channels" not in repr(report) and "config" not in repr(report)
    fixed = dataclasses.replace(oht(ch, config), wall_time_ms=0.0)
    assert fixed.to_json(include_trace=True) == (
        '{"algorithm": "oht", "tau": 0.999, "p_watt": [3.8396204361653644e-07, '
        '1.396549505930262e-06, 2.5409114769670276e-07], "ee_nats_per_joule": '
        '0.00010036979793032353, "ee_bits_per_joule": 0.0001448030097291051, "iterations": 1, '
        '"subsolver_calls": 1, "wall_time_ms": 0.0, "status": "converged", "stop_reason": '
        '"epsilon", "pinned": 0, "r_bar": 4.577914214582907e-09, "causality_violation": [0.0, '
        '0.0, 0.0], "qos_violation": [0.0, 0.0, 0.0], "tau_in_range": true, "trace": '
        '[4.577914214582907e-09, 9.146630726817699e-09]}'
    )


def test_stop_reason_names_the_exit():
    import json

    from uavee.algorithms import ScaSettings

    # one pair: opa's presolve pins it at full harvest, which leaves nothing
    # to iterate over, so opa returns that point without iterating
    config, ch = scenario(1, 0)
    report = opa(ch, config)
    assert (report.stop_reason, report.iterations, report.status, report.pinned) == (
        "boundary_fallback",
        0,
        "converged",
        1,
    )
    assert json.loads(report.to_json())["pinned"] == 1
    # radius 20 m: interference moves jhtpa's answer away from its start, so
    # it takes four SCA steps and a one-step cap stops it at max_iterations
    config = ScenarioConfig(num_pairs=5, seed=7, coverage_radius_m=20.0)
    _, ch = make_scenario(config)
    report = jhtpa(ch, config)
    assert report.iterations >= 2
    assert (report.stop_reason, report.status) == ("epsilon", "converged")
    assert json.loads(report.to_json())["stop_reason"] == "epsilon"
    capped = jhtpa(ch, config, ScaSettings(max_iterations=1))
    assert (capped.stop_reason, capped.status) == ("max_iterations", "max_iterations")
    assert oht(ch, config).stop_reason == "epsilon"


def test_subproblem_rejecting_the_start_stops_at_infeasible_start(monkeypatch):
    # A surrogate whose rows read >= 0 at the iterate: engine.solve rejects
    # the start and jhtpa answers with it, without iterating.
    build = algorithms.build_jhtpa_subproblem

    def rejecting(z_bar, phi, ch, config, r_bar):
        prog = build(z_bar, phi, ch, config, r_bar)
        return dataclasses.replace(
            prog, constraint_values=lambda z: np.abs(prog.constraint_values(z))
        )

    monkeypatch.setattr(algorithms, "build_jhtpa_subproblem", rejecting)
    config, ch = scenario(3, 7)
    r_bar = core.qos_threshold(ch, config)
    face = algorithms._face_theta(ch, config, r_bar)
    theta, p, strict = algorithms._start(ch, config, r_bar, face)
    assert strict
    report = jhtpa(ch, config)
    assert (report.stop_reason, report.status) == ("infeasible_start", "converged")
    assert (report.iterations, report.subsolver_calls, len(report.trace)) == (0, 0, 1)
    start = core.Allocation.from_theta(theta, 1.0 / (1.0 / p))
    assert report.ee_nats_per_joule == core.energy_efficiency(start, ch, config)


@pytest.mark.parametrize(
    ("stop_reason", "status"), [("non_improving", "converged"), ("numerical_failure", "failed")]
)
def test_rejected_second_step_counts_its_subproblem_solve(monkeypatch, stop_reason, status):
    # The second subproblem solve returns the first solve's start, which
    # scores below the accepted first step, or reports a numerical failure:
    # the loop rejects that step and keeps the first, after two solves.
    real, starts = algorithms.solve, []

    def second_rejected(prog, z0):
        starts.append(z0)
        outcome = real(prog, z0)
        if len(starts) == 1:
            return outcome
        if stop_reason == "non_improving":
            return dataclasses.replace(outcome, z_star=starts[0])
        return dataclasses.replace(outcome, status=SolveStatus.NUMERICAL_FAILURE)

    monkeypatch.setattr(algorithms, "solve", second_rejected)
    config, ch = scenario(3, 7)
    report = jhtpa(ch, config, algorithms.ScaSettings(epsilon=1e-12))
    assert (report.stop_reason, report.status) == (stop_reason, status)
    assert (report.iterations, report.subsolver_calls, len(starts)) == (1, 2, 2)
    assert report.trace[1] > report.trace[0]
    assert report.ee_nats_per_joule == report.trace[-1]


def test_extrapolation_stops_at_the_theta_cap(monkeypatch):
    # theta goes 1e5 -> 5e5, so the first candidate, near 2.5e6, lies past
    # _THETA_CAP: the ladder stops before checking or scoring it
    calls = []

    def recorded(name, value):
        return lambda *args: calls.append(name) or value

    monkeypatch.setattr(algorithms, "_violation", recorded("_violation", -1.0))
    config, ch = scenario(3, 7)
    q = np.full(3, 1e3)
    z_new = np.concatenate(([5e5], q))
    z, phi = algorithms._jhtpa_extrapolate(
        np.concatenate(([1e5], q)), z_new, 0.5, recorded("score", 1.0), ch, config,
        core.qos_threshold(ch, config),
    )
    assert 1.0 + (1e5 - 1.0) * ((5e5 - 1.0) / (1e5 - 1.0)) ** 2 > algorithms._THETA_CAP
    assert z is z_new and phi == 0.5 and calls == []


def test_run_algorithm_rejects_unknown():
    config, ch = scenario(2, 7)
    with pytest.raises(ValueError):
        run_algorithm("genie", ch, config)


_SOLVE_IN_SUBPROCESS = """
import sys
from uavee import ScenarioConfig, jhtpa, make_scenario
config = ScenarioConfig(num_pairs=5, theta_fix=1.01, seed=int(sys.argv[1]))
report = jhtpa(make_scenario(config)[1], config)
print(report.status, report.ee_nats_per_joule.hex())
"""


@pytest.mark.parametrize("seed", [0, 1])
def test_jhtpa_barrier_monotonicity_loss_regression(seed):
    # A barrier stage of these solves lets the objective rise; engine.solve
    # once asserted on it, so jhtpa raised AssertionError here and returned
    # a different result under python -O.
    config = ScenarioConfig(num_pairs=5, theta_fix=1.01, seed=seed)
    _, ch = make_scenario(config)
    report = jhtpa(ch, config)
    assert_report_sane(report, ch, config)
    assert np.all(np.diff(report.trace) >= 0.0)
    src = str(Path(uavee.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    optimized = subprocess.run(
        [sys.executable, "-O", "-c", _SOLVE_IN_SUBPROCESS, str(seed)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert optimized.stdout.split() == [report.status, report.ee_nats_per_joule.hex()]


@pytest.mark.parametrize(
    "algorithm, parent_ee",
    # the EE (nats/J) each reached when a solve after an SCA step started its
    # barrier scan at a warm t_final / mu^2 and its stages could stop on the
    # gradient norm or a stall: 3 of jhtpa's 4 solves and 4 of opa's 5 then
    # ended MAX_ITERATIONS
    [("jhtpa", 0.015303924742199038), ("opa", 0.01453621800194318)],
    ids=["jhtpa", "opa"],
)
def test_interference_limited_solves_end_centered(monkeypatch, algorithm, parent_ee):
    # radius 20 m: bench.derive_child_seed(5, 5, 11) of the N = 5 trials
    statuses = []
    real_solve = algorithms.solve

    def recording_solve(prog, z0):
        out = real_solve(prog, z0)
        statuses.append(out.status)
        return out

    monkeypatch.setattr(algorithms, "solve", recording_solve)
    config = ScenarioConfig(num_pairs=5, seed=17472280182412887441, coverage_radius_m=20.0)
    _, ch = make_scenario(config)
    report = run_algorithm(algorithm, ch, config)
    assert statuses and all(s is SolveStatus.OPTIMAL for s in statuses)
    assert report.ee_nats_per_joule >= parent_ee
    assert_report_sane(report, ch, config)
