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
import uavee.engine as engine
from uavee import ChannelRealization, ScenarioConfig, make_scenario
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
    relative_deficit,
)


def scenario(n, seed):
    config = ScenarioConfig(num_pairs=n, seed=seed)
    return config, make_scenario(config)[1]


def assert_report_sane(report):
    trace = np.asarray(report.trace)
    assert np.all(np.diff(trace) >= -1e-9), "SCA trace must be nondecreasing"
    assert relative_deficit(report) <= 1e-8
    assert report.ee_bits_per_joule == pytest.approx(
        report.ee_nats_per_joule / np.log(2.0), rel=1e-12
    )


@pytest.mark.parametrize("algorithm", ["jhtpa", "opa", "oht"])
def test_algorithms_converge_and_are_feasible(algorithm):
    for seed in (7, 11, 42):
        config, ch = scenario(3, seed)
        report = run_algorithm(algorithm, ch, config)
        assert report.status == "converged"
        assert_report_sane(report)


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
    assert_report_sane(report)
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
    assert_report_sane(report)


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


def test_bracket_search_refines_a_peak_next_to_the_upper_end():
    tm1 = np.geomspace(1e-3, 999.0, 33)
    # between the last two grid points and nearer the end, which so wins the
    # first level; 1e-6 below it, far more than _THETA_TOL, so the search
    # shrinks to the end's one neighbour and refines the peak there
    peak = 1.0 + 999.0 - 1e-6 * 1000.0
    assert 1.0 + (tm1[-2] + tm1[-1]) / 2 < peak
    values, calls = counted(lambda thetas: -np.abs(thetas - peak))
    theta, _ = algorithms._log_bracket_max(values, 1e-3, 999.0, 33)
    assert abs(theta - peak) <= 1e-10 * peak
    assert len(calls) > 2


# oht's reported theta (from tau) on two scenarios: seed 3's max-min rate
# still rises at the 1e3 cap, seed 46's peaks inside the range
@pytest.mark.parametrize(
    "num_pairs, seed, rate_calls, theta",
    [(5, 3, 1, 999.9999999999991), (2, 46, 11, 41.64745935187803)],
    ids=["rising-at-cap", "interior-peak"],
)
def test_oht_rate_evaluations(monkeypatch, num_pairs, seed, rate_calls, theta):
    """One evaluation of theta_fix, the cap and a probe below it: a rate
    still rising at the cap needs no more; an interior peak every level."""
    config, ch = scenario(num_pairs, seed)
    counting, calls = counted(core.pinned_rates)
    monkeypatch.setattr(core, "pinned_rates", counting)
    assert oht(ch, config).allocation.theta == theta
    assert len(calls) == rate_calls


def test_face_scan_is_one_rate_call_that_masks_the_floor_and_keeps_theta_fix_on_ties(
    monkeypatch,
):
    config, ch = scenario(3, 7)
    thetas = algorithms._FACE_THETAS
    rates = core.pinned_rates(thetas[:, None], ch, config)
    ee = rates.sum(axis=-1) / core.pinned_total_power(thetas, ch, config)
    best = int(np.argmax(ee))  # the face's best grid point, which beats theta_fix
    assert algorithms._face_theta(ch, config, core.qos_threshold(ch, config)) == thetas[best]
    # a floor just above its min rate masks it: the best qualifying point wins
    floor = np.nextafter(rates[best].min(), np.inf)
    qualifying = np.where((rates >= floor).all(axis=-1), ee, -np.inf)
    assert np.argmax(qualifying) != best
    counting, calls = counted(core.pinned_rates)
    monkeypatch.setattr(core, "pinned_rates", counting)
    assert algorithms._face_theta(ch, config, floor) == thetas[np.argmax(qualifying)]
    assert calls == [algorithms._FACE_GRID + 1]
    # every point meets the floor and scores the same EE: theta_fix wins the tie
    monkeypatch.setattr(core, "pinned_rates", lambda t, ch, config: np.ones((np.size(t), 3)))
    monkeypatch.setattr(core, "pinned_total_power", lambda t, ch, config: np.ones(np.size(t)))
    assert algorithms._face_theta(ch, config, 0.5) == config.theta_fix


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


def _assert_oht_powers_pinned(num_pairs, seed):
    # oht's powers are exactly the full-harvest closed form at its reported theta
    config, ch = scenario(num_pairs, seed)
    report = oht(ch, config)
    closed_form = (report.allocation.theta - 1.0) * config.eta * config.p0_watt * ch.g
    assert np.array_equal(report.allocation.p, closed_form)


def test_oht_closed_form_power_identity():
    for seed in (7, 11, 42):
        _assert_oht_powers_pinned(4, seed)


def test_oht_power_pinning_exact():
    _assert_oht_powers_pinned(3, 7)


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


@pytest.mark.parametrize(
    "fields",
    [
        {"epsilon": float("nan")},
        {"epsilon": -1e-3},
        {"epsilon": float("inf")},
        {"epsilon": "0.01"},
        {"epsilon": True},
        {"max_iterations": 0},
        {"max_iterations": -1},
        {"max_iterations": 2.5},
        {"max_iterations": True},
        {"max_iterations": "100"},
    ],
    ids=repr,
)
def test_sca_settings_reject_a_stop_rule_no_run_can_follow(fields):
    # a NaN or negative epsilon passes no step's test (a radius-20 m N = 5
    # jhtpa then ran 71 steps to non_improving and reported converged); 0
    # iterations made a stepless report and 2.5 raised TypeError mid-run
    with pytest.raises(ValueError):
        algorithms.ScaSettings(**fields)


def test_sca_settings_accept_any_finite_real_epsilon_and_integral_count():
    # numpy scalars, an int epsilon of 0 and a one-step cap are valid rules
    algorithms.ScaSettings(epsilon=np.float64(1e-3), max_iterations=np.int64(7))
    config, ch = scenario(3, 7)
    capped = jhtpa(ch, config, algorithms.ScaSettings(epsilon=0, max_iterations=1))
    assert (capped.stop_reason, capped.iterations) == ("max_iterations", 1)


def test_stop_reason_names_the_exit():
    import json

    from uavee.algorithms import ScaSettings

    # one pair: its full-harvest vertex raises the EE with its power, so opa
    # certifies it before any presolve, SCA step or pinned pair
    config, ch = scenario(1, 0)
    report = opa(ch, config)
    assert (report.stop_reason, report.iterations, report.status, report.pinned) == (
        "kkt_certified",
        0,
        "converged",
        0,
    )
    assert report.subsolver_calls == 0 and report.trace == [report.ee_nats_per_joule]
    # an interference-limited two-pair channel, symmetric, so the floor holds
    # both pairs at full harvest: lowering a power raises the EE there, so
    # the certificate rejects the vertex, and opa's presolve pins both pairs,
    # which leaves nothing to iterate over: opa returns the vertex anyway
    config = ScenarioConfig(num_pairs=2, seed=0, coverage_radius_m=20.0, p_cir_watt=1e-6)
    ch = ChannelRealization(
        g=np.full(2, 7.5e-6), h=np.array([[7e-9, 1.5e-7], [1.5e-7, 7e-9]]), sigma2_watt=1e-17
    )
    report = opa(ch, config)
    assert (report.stop_reason, report.iterations, report.status, report.pinned) == (
        "boundary_fallback",
        0,
        "converged",
        2,
    )
    assert json.loads(report.to_json())["pinned"] == 2
    vertex = core.pinned_allocation(config.theta_fix, ch, config)
    assert report.allocation.tau == vertex.tau and np.array_equal(report.allocation.p, vertex.p)
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


def sca_only(monkeypatch):
    """Switch off opa's vertex certificate: opa then runs its presolve and SCA
    on the paper-regime instances the certificate answers without a solve."""
    monkeypatch.setattr(algorithms, "_kkt_certified", lambda *args: False)


def first_solve(monkeypatch, name, ch, config):
    """(program, warm starts, iterate) of name's first subproblem solve."""
    calls, real = [], algorithms._solve_from

    def recording(prog, warm, z0):
        calls.append((prog, warm, z0))
        return real(prog, warm, z0)

    monkeypatch.setattr(algorithms, "_solve_from", recording)
    run_algorithm(name, ch, config)
    monkeypatch.setattr(algorithms, "_solve_from", real)
    return calls[0]


@pytest.mark.parametrize("name", ["jhtpa", "opa"])
@pytest.mark.parametrize("num_pairs, seed", [(3, 11), (10, 5), (10, 23), (10, 87)])
def test_warm_start_reaches_the_same_subproblem_solution_in_fewer_steps(
    monkeypatch, name, num_pairs, seed
):
    # The first solve tries two warm starts, each nearer the full-harvest
    # face than the iterate, with the surrogate still expanded at the
    # iterate: the program and its central path's end point are the same,
    # so only the route there changes. The uniform start, tried second, lies
    # one BARRIER_MU closer to the face on the segment between them; the
    # central start, tried first, puts each free pair at its estimated
    # central slack, never deeper than the uniform start. (The end points
    # agree to the final stage's duality gap, 1e-7 in the objective; along
    # a flat direction that can leave z further apart than 1e-9, as on
    # ScenarioConfig(3, 7)'s jhtpa solve, 6.6e-8. From the central start z*
    # is within 5.4e-9 relative of the iterate's solve here, worst on
    # (10, 87) jhtpa, so that start is held to the objective the duality gap
    # bounds.) The N = 3 case is test_engine's captured_subproblems
    # scenario, the N = 10 ones test_subproblem_step_counts' seeds. opa
    # certifies its vertex on all four without a solve, so its SCA runs
    # with the certificate off.
    config, ch = scenario(num_pairs, seed)
    sca_only(monkeypatch)
    prog, (central, uniform), z0 = first_solve(monkeypatch, name, ch, config)
    r_bar = core.qos_threshold(ch, config)
    if name == "jhtpa":
        assert central[0] == uniform[0] == z0[0]
        theta, free = z0[0], np.ones(num_pairs, dtype=bool)
        q_central, q_uniform, q_start = central[1:], uniform[1:], z0[1:]
    else:
        theta = config.theta_fix
        free = 1.0 - algorithms._interior_powers(ch, config, r_bar, theta)[1] > algorithms._PIN_TOL
        q_central, q_uniform, q_start = central, uniform, z0
    p_max = core.pinned_powers(theta, ch, config)[free]
    depth_central, depth_uniform, depth_start = (1.0 - 1.0 / (q * p_max) for q in (q_central, q_uniform, q_start))
    np.testing.assert_allclose(depth_uniform, depth_start / algorithms.BARRIER_MU, rtol=1e-6)
    assert np.all(depth_central > 0.0) and np.all(depth_central <= depth_uniform)
    from_central, from_uniform, from_iterate = (algorithms.solve(prog, z) for z in (central, uniform, z0))
    assert from_central.status is from_uniform.status is from_iterate.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(from_uniform.z_star, from_iterate.z_star, rtol=1e-9, atol=0.0)
    gap = prog.objective.value(from_central.z_star) - prog.objective.value(from_iterate.z_star)
    assert abs(gap) < engine._DUALITY_GAP_TOL
    assert from_uniform.newton_step_count < from_iterate.newton_step_count
    assert from_central.newton_step_count < from_uniform.newton_step_count


@pytest.mark.parametrize("name", ["jhtpa", "opa"])
@pytest.mark.parametrize("radius", [800.0, 20.0])
def test_a_surrogate_rejecting_the_warm_start_solves_from_the_iterate(monkeypatch, name, radius):
    # A program whose domain excludes exactly the two warm points: the first
    # solve tries the central start, then the uniform one, then falls back
    # to the iterate, and the run reports what it would have reported
    # starting there. Radius 20 m takes several SCA steps. At 800 m opa
    # certifies its vertex without a solve, so its SCA runs with the
    # certificate off; at 20 m the certificate rejects the vertex.
    config = ScenarioConfig(num_pairs=5, seed=7, coverage_radius_m=radius)
    _, ch = make_scenario(config)
    certified = name == "opa" and radius == 800.0
    if name == "opa":
        assert (opa(ch, config).stop_reason == "kkt_certified") == certified
    if certified:
        sca_only(monkeypatch)
    _, warm, z0 = first_solve(monkeypatch, name, ch, config)
    # every solve from the iterate, as before the warm starts
    monkeypatch.setattr(algorithms, "_solve_from", lambda prog, warm, z0: algorithms.solve(prog, z0))
    expected = run_algorithm(name, ch, config)
    monkeypatch.undo()
    if certified:
        sca_only(monkeypatch)

    builder = f"build_{name}_subproblem"
    build, solve, starts = getattr(algorithms, builder), algorithms.solve, []

    def rejecting(*args, **kwargs):
        prog = build(*args, **kwargs)
        guard = prog.domain_guard
        return dataclasses.replace(
            prog, domain_guard=lambda z: guard(z) and not any(np.array_equal(z, w) for w in warm)
        )

    def recording(prog, z0):
        starts.append(z0)
        return solve(prog, z0)

    monkeypatch.setattr(algorithms, builder, rejecting)
    monkeypatch.setattr(algorithms, "solve", recording)
    report = run_algorithm(name, ch, config)
    assert len(warm) == 2
    assert all(np.array_equal(a, b) for a, b in zip(starts, [*warm, z0]))
    assert len(starts) == report.subsolver_calls + 2
    assert report.stop_reason == expected.stop_reason != "infeasible_start"
    assert report.trace == expected.trace and report.iterations >= (1 if radius == 800.0 else 2)
    assert report.allocation.tau == expected.allocation.tau
    assert np.array_equal(report.allocation.p, expected.allocation.p)


@pytest.mark.parametrize(
    ("stop_reason", "status"), [("non_improving", "converged"), ("numerical_failure", "failed")]
)
def test_rejected_second_step_counts_its_subproblem_solve(monkeypatch, stop_reason, status):
    # The second subproblem solve returns the first solve's iterate (the
    # run's start), which scores below the accepted first step, or reports
    # a numerical failure: the loop rejects that step and keeps the first,
    # after two solves.
    real, starts = algorithms.solve, []
    config, ch = scenario(3, 7)
    r_bar = core.qos_threshold(ch, config)
    theta, p, _ = algorithms._start(ch, config, r_bar, algorithms._face_theta(ch, config, r_bar))
    iterate = np.append(theta, 1.0 / p)

    def second_rejected(prog, z0):
        starts.append(z0)
        outcome = real(prog, z0)
        if len(starts) == 1:
            return outcome
        if stop_reason == "non_improving":
            return dataclasses.replace(outcome, z_star=iterate)
        return dataclasses.replace(outcome, status=SolveStatus.NUMERICAL_FAILURE)

    monkeypatch.setattr(algorithms, "solve", second_rejected)
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
    assert_report_sane(report)
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
    assert_report_sane(report)
