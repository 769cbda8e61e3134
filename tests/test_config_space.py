"""Every algorithm across the physically valid ScenarioConfig space.

The network and power ranges are test_feasible_start's, with theta_fix also
drawn past oht's search range. The channel physics (UAV height, pair
distance, P0, path-loss exponents, beta0, LOS curve, NLOS excess loss and
bandwidth) is drawn too, over wide ranges around each default. Each drawn
config runs jhtpa, opa and oht through run_algorithm, and each report must be
a converged, feasible answer whose trace never falls and whose EE and QoS
floor are the ones its allocation and instance give. oht's answer must also
equal, bit for bit, a from-scratch bracket search over its whole range, and
jhtpa's and opa's warm-started first solve must never turn a run into an
infeasible_start that a start from the iterate would not give, nor end short
of OPTIMAL where a solve from the uniform warm start alone would not, and
the barrier's early-stopping first-stage scan must pick the t an exhaustive
scan picks. Where opa certifies its full-harvest vertex, an oracle that
differences the EE formula must find the EE rising in every power there, and
the vertex must be feasible and score at least opa's SCA run with the
certificate off; where it does not, the oracle must find a power whose cut
does not lower the EE. Scaling every power (P0, p_cir and the noise power) by
a power of two must leave every algorithm's path and answer unchanged but for
that unit. jhtpa's extrapolation ladder, which checks its rungs in one
batched _violation call, must return what the rung-by-rung reference returns
from iterates near full harvest, bit for bit.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uavee.algorithms as algorithms
import uavee.core as core
import uavee.engine as engine
from uavee import ScenarioConfig, derive_child_seed, make_scenario
from uavee.algorithms import ALGORITHM_NAMES, oht, run_algorithm
from uavee.engine import NoFeasiblePointFoundError

from oracles import ee_power_slopes, exhaustive_first_stage, iterate_ee, relative_deficit, sequential_extrapolate


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    num_pairs=st.integers(1, 30),
    radius=st.floats(20.0, 5000.0),
    eta=st.floats(0.01, 0.99),
    theta_fix=st.one_of(st.floats(1.01, 50.0), st.floats(50.0, 1e5)),
    noise=st.floats(-170.0, -80.0),
    p_cir=st.floats(1e-6, 10.0),
    rate_cap=st.floats(0.01, 5.0),
    height=st.floats(5.0, 500.0),
    pair_dist=st.floats(1.0, 200.0),
    p0=st.floats(0.1, 50.0),
    alpha_h=st.floats(2.0, 4.5),
    alpha_g=st.floats(2.0, 4.5),
    beta0=st.floats(-60.0, -20.0),
    gamma=st.floats(0.0, 40.0),
    atg_a=st.floats(0.0, 30.0),
    atg_b=st.floats(0.01, 1.0),
    bandwidth=st.floats(1e4, 1e8),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_algorithm_reports_a_consistent_feasible_answer(
    num_pairs,
    radius,
    eta,
    theta_fix,
    noise,
    p_cir,
    rate_cap,
    height,
    pair_dist,
    p0,
    alpha_h,
    alpha_g,
    beta0,
    gamma,
    atg_a,
    atg_b,
    bandwidth,
    seed,
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
        uav_height_m=height,
        max_pair_dist_m=pair_dist,
        p0_watt=p0,
        alpha_h=alpha_h,
        alpha_g=alpha_g,
        beta0_db=beta0,
        gamma_db=gamma,
        atg_a=atg_a,
        atg_b=atg_b,
        bandwidth_hz=bandwidth,
    )
    _, ch = make_scenario(config)
    r_bar = core.qos_threshold(ch, config)
    for name in ALGORITHM_NAMES:
        report = run_algorithm(name, ch, config)
        assert report.stop_reason != "numerical_failure", name
        assert report.status == "converged", name

        alloc = report.allocation
        assert relative_deficit(report) <= 1e-8, name

        assert np.all(np.diff(report.trace) >= 0.0), name
        ee = report.ee_nats_per_joule
        assert math.isfinite(ee) and ee >= 0.0, name
        assert ee == core.energy_efficiency(alloc, ch, config), name
        assert report.r_bar == r_bar, name
        if name != "oht":  # oht's trace holds its max-min rate, not its EE
            assert report.trace[-1] == ee, name


def searched_oht(ch, config):
    """(theta, trace) of oht's search run from scratch: _log_bracket_max over
    oht's whole range, with no test of the top before it, then theta_fix
    when it scores higher."""

    def min_rate(thetas):
        return core.pinned_rates(thetas[:, None], ch, config).min(axis=-1)

    obj_fix = float(min_rate(np.array([float(config.theta_fix)]))[0])
    theta, obj = algorithms._log_bracket_max(
        min_rate, core.THETA_GAP, algorithms._OHT_THETA_MAX - 1.0, algorithms._OHT_GRID
    )
    if obj < obj_fix:
        theta, obj = float(config.theta_fix), obj_fix
    return theta, [obj_fix, obj]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    num_pairs=st.integers(1, 30),
    radius=st.floats(20.0, 5000.0),
    theta_fix=st.one_of(st.floats(1.01, 50.0), st.floats(50.0, 1e5)),
    noise=st.floats(-170.0, -80.0),
    p_cir=st.floats(1e-6, 10.0),
    rate_cap=st.floats(0.01, 5.0),
    alpha_h=st.floats(2.0, 4.5),
    alpha_g=st.floats(2.0, 4.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_oht_equals_a_bracket_search_over_its_whole_range(
    num_pairs, radius, theta_fix, noise, p_cir, rate_cap, alpha_h, alpha_g, seed
):
    # oht skips the search when the max-min rate still rises at the top of
    # its range; wherever it does, the search would have ended there too
    config = ScenarioConfig(
        num_pairs=num_pairs,
        seed=seed,
        coverage_radius_m=radius,
        theta_fix=theta_fix,
        noise_density_dbm_hz=noise,
        p_cir_watt=p_cir,
        rate_cap_bpshz=rate_cap,
        alpha_h=alpha_h,
        alpha_g=alpha_g,
    )
    _, ch = make_scenario(config)
    theta, trace = searched_oht(ch, config)
    if not trace[-1] > 0.0:
        with pytest.raises(NoFeasiblePointFoundError):
            oht(ch, config)
        return
    report = oht(ch, config)
    assert report.trace == trace
    expected = core.pinned_allocation(theta, ch, config)
    assert report.allocation.tau == expected.tau
    assert np.array_equal(report.allocation.p, expected.p)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    config=st.builds(
        ScenarioConfig,
        num_pairs=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        coverage_radius_m=st.floats(20.0, 5000.0),
        eta=st.floats(0.01, 0.99),
        theta_fix=st.one_of(st.floats(1.01, 50.0), st.floats(50.0, 1e5)),
        noise_density_dbm_hz=st.floats(-170.0, -80.0),
        p_cir_watt=st.floats(1e-6, 10.0),
        rate_cap_bpshz=st.floats(0.01, 5.0),
        alpha_h=st.floats(2.0, 4.5),
        alpha_g=st.floats(2.0, 4.5),
    )
)
def test_the_warm_start_adds_no_infeasible_start(config):
    # The first subproblem solve starts nearer the face than the iterate and
    # falls back to the iterate when its surrogate rejects both warm points,
    # so a run ends at infeasible_start only where the iterate start (the
    # solve before the warm starts) ends there too.
    _, ch = make_scenario(config)
    for name in ("jhtpa", "opa"):
        if run_algorithm(name, ch, config).stop_reason != "infeasible_start":
            continue
        # every solve from the iterate, as before the warm start
        with mock.patch.object(algorithms, "_solve_from", lambda prog, warm, z0: algorithms.solve(prog, z0)):
            assert run_algorithm(name, ch, config).stop_reason == "infeasible_start", name


def first_solve_status(name, ch, config, warm_from):
    """Status of name's first subproblem solve when _solve_from is handed its
    warm starts from index warm_from on; None when the run makes no solve or
    its surrogate rejects every start."""
    real, outcomes = algorithms._solve_from, []

    def solve_from(prog, warm, z0):
        outcomes.append(real(prog, warm[warm_from:], z0))
        return outcomes[-1]

    with mock.patch.object(algorithms, "_solve_from", solve_from):
        try:
            run_algorithm(name, ch, config)
        except NoFeasiblePointFoundError:
            pass
    return outcomes[0].status if outcomes else None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    config=st.builds(
        ScenarioConfig,
        num_pairs=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        coverage_radius_m=st.one_of(st.just(20.0), st.floats(20.0, 5000.0)),
        eta=st.floats(0.01, 0.99),
        theta_fix=st.one_of(st.floats(1.01, 50.0), st.floats(50.0, 1e5)),
        noise_density_dbm_hz=st.floats(-170.0, -80.0),
        p_cir_watt=st.one_of(st.just(1e-6), st.floats(1e-6, 10.0)),
        rate_cap_bpshz=st.floats(0.01, 5.0),
        alpha_h=st.floats(2.0, 4.5),
        alpha_g=st.floats(2.0, 4.5),
    )
)
def test_the_first_stage_scan_stops_where_an_exhaustive_scan_picks(config):
    # _first_stage scans t downward from the top of its span and stops at the
    # first rise of the decrement; on every solve of jhtpa's and opa's runs
    # it picks the t the exhaustive scan picks, first solves included
    _, ch = make_scenario(config)
    real, picks = engine._first_stage, []

    def first_stage(prog, point):
        expected = exhaustive_first_stage(prog, engine._Point(point.z, point.c, point.f))
        picks.append((real(prog, point), expected))
        return picks[-1][0]

    with mock.patch.object(engine, "_first_stage", first_stage):
        for name in ("jhtpa", "opa"):
            try:
                run_algorithm(name, ch, config)
            except NoFeasiblePointFoundError:
                pass
    assert all(got == expected for got, expected in picks)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    config=st.builds(
        ScenarioConfig,
        num_pairs=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        coverage_radius_m=st.one_of(st.just(20.0), st.floats(20.0, 5000.0)),
        eta=st.floats(0.01, 0.99),
        theta_fix=st.one_of(st.floats(1.01, 50.0), st.floats(50.0, 1e5)),
        noise_density_dbm_hz=st.floats(-170.0, -80.0),
        p_cir_watt=st.one_of(st.just(1e-6), st.floats(1e-6, 10.0)),
        rate_cap_bpshz=st.floats(0.01, 5.0),
        alpha_h=st.floats(2.0, 4.5),
        alpha_g=st.floats(2.0, 4.5),
    )
)
def test_the_central_start_loses_no_optimal_first_solve(config):
    # The first solve tries the central start before the uniform one. With
    # the uniform start first, as before the central start (warm starts
    # from index 1 on), as the reference: wherever that solve ends OPTIMAL,
    # the first solve ends OPTIMAL as the run makes it.
    _, ch = make_scenario(config)
    for name in ("jhtpa", "opa"):
        if first_solve_status(name, ch, config, 1) is engine.SolveStatus.OPTIMAL:
            assert first_solve_status(name, ch, config, 0) is engine.SolveStatus.OPTIMAL, name


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    config=st.builds(
        ScenarioConfig,
        num_pairs=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        coverage_radius_m=st.one_of(st.just(20.0), st.floats(20.0, 5000.0)),
        eta=st.floats(0.01, 0.99),
        theta_fix=st.one_of(st.floats(1.01, 50.0), st.floats(50.0, 1e5)),
        noise_density_dbm_hz=st.floats(-170.0, -80.0),
        p_cir_watt=st.one_of(st.just(1e-6), st.floats(1e-6, 10.0)),
        rate_cap_bpshz=st.floats(0.01, 5.0),
        alpha_h=st.floats(2.0, 4.5),
        alpha_g=st.floats(2.0, 4.5),
    )
)
@example(config=ScenarioConfig(num_pairs=5, seed=derive_child_seed(5, 5, 0), coverage_radius_m=20.0))
@example(
    config=ScenarioConfig(
        num_pairs=2,
        seed=derive_child_seed(5, 2, 0),
        coverage_radius_m=20.0,
        p_cir_watt=1e-6,
        noise_density_dbm_hz=-170.0,
    )
)
def test_a_certified_opa_answer_is_a_kkt_point_no_worse_than_its_sca(config):
    # Whenever opa certifies its full-harvest vertex, it reports that vertex
    # with no SCA step, an oracle that differences the EE formula finds the
    # EE rising in every power there, the vertex is feasible, and it scores
    # at least what opa's presolve and SCA (the certificate off) reach on
    # the same instance. Where opa does not certify a vertex of positive EE,
    # the oracle finds a power whose cut does not lower the EE. The two
    # explicit examples (r20 N = 5 and extreme N = 2 trials of ROADMAP's
    # Baseline) each have exactly one such power.
    _, ch = make_scenario(config)
    vertex = core.pinned_allocation(config.theta_fix, ch, config)
    try:
        report = run_algorithm("opa", ch, config)
    except NoFeasiblePointFoundError:
        report = None
    if report is None or report.stop_reason != "kkt_certified":
        if core.energy_efficiency(vertex, ch, config) > 0.0:
            assert not np.all(ee_power_slopes(vertex.tau, vertex.p, ch, config) > 0.0)
        return
    alloc = report.allocation
    assert alloc.tau == vertex.tau and np.array_equal(alloc.p, vertex.p)
    assert (report.status, report.iterations, report.subsolver_calls, report.pinned) == ("converged", 0, 0, 0)
    assert report.trace == [report.ee_nats_per_joule]
    assert np.all(ee_power_slopes(alloc.tau, alloc.p, ch, config) > 0.0)
    assert relative_deficit(report) <= 1e-8
    with mock.patch.object(algorithms, "_kkt_certified", lambda *args: False):
        sca = run_algorithm("opa", ch, config)
    assert report.ee_nats_per_joule >= sca.ee_nats_per_joule * (1.0 - 1e-9)


@pytest.mark.parametrize(
    "name, config",
    [
        (
            "opa",
            ScenarioConfig(
                num_pairs=19,
                seed=12152,
                coverage_radius_m=20.0,
                eta=0.01,
                p_cir_watt=1e-6,
                alpha_h=2.0,
                alpha_g=2.0,
                noise_density_dbm_hz=-170.0,
                rate_cap_bpshz=0.01,
                theta_fix=1.01,
            ),
        ),
        (
            "jhtpa",
            ScenarioConfig(
                num_pairs=26,
                seed=26,
                coverage_radius_m=20.0,
                eta=0.36589262330781047,
                p_cir_watt=1e-6,
                alpha_h=3.1250257782382223,
                alpha_g=2.00001,
                noise_density_dbm_hz=-85.73354294146993,
                rate_cap_bpshz=3.6731383680281833,
                theta_fix=22.74897463351838,
            ),
        ),
    ],
    ids=["opa-n19", "jhtpa-n26"],
)
def test_a_first_solve_short_of_optimal_from_the_central_start_gives_way(monkeypatch, name, config):
    # A wider search of test_the_central_start_loses_no_optimal_first_solve's
    # space found these runs: from the central start alone the first solve
    # ends at MAX_ITERATIONS (opa's after 72 Newton steps from t = 1, which
    # then stopped at non_improving with 30% of the EE), where from the
    # uniform start it ends OPTIMAL. That solve gives way to the uniform
    # start, so the run is the uniform-first run bit for bit.
    _, ch = make_scenario(config)
    assert first_solve_status(name, ch, config, 0) is engine.SolveStatus.OPTIMAL
    real, statuses = algorithms._solve_from, []

    def recording(prog, warm, z0):
        if warm:  # the first solve: its status from the central start alone
            statuses.append(algorithms.solve(prog, warm[0]).status)
        return real(prog, warm, z0)

    monkeypatch.setattr(algorithms, "_solve_from", recording)
    report = run_algorithm(name, ch, config)
    assert statuses[0] is engine.SolveStatus.MAX_ITERATIONS
    monkeypatch.setattr(algorithms, "_solve_from", lambda prog, warm, z0: real(prog, warm[1:], z0))
    expected = run_algorithm(name, ch, config)
    assert (report.stop_reason, report.trace) == (expected.stop_reason, expected.trace)
    assert report.allocation.tau == expected.allocation.tau
    assert np.array_equal(report.allocation.p, expected.allocation.p)


def assert_power_unit_invariant(ch, config, k):
    """jhtpa, opa and oht on the instance with P0, p_cir and the noise power
    scaled by 2**k: the same iterations and stop_reason, the same tau, every
    power scaled by 2**k and jhtpa's and opa's EE trace by 2**-k (oht's
    max-min rate trace unchanged), bit for bit; or the same exception."""
    scaled_config = dataclasses.replace(
        config, p0_watt=math.ldexp(config.p0_watt, k), p_cir_watt=math.ldexp(config.p_cir_watt, k)
    )
    scaled_ch = dataclasses.replace(ch, sigma2_watt=math.ldexp(ch.sigma2_watt, k))
    for name in ALGORITHM_NAMES:
        try:
            report = run_algorithm(name, ch, config)
        except NoFeasiblePointFoundError:
            with pytest.raises(NoFeasiblePointFoundError):
                run_algorithm(name, scaled_ch, scaled_config)
            continue
        scaled = run_algorithm(name, scaled_ch, scaled_config)
        assert (scaled.iterations, scaled.stop_reason) == (report.iterations, report.stop_reason), name
        assert scaled.allocation.tau == report.allocation.tau, name
        assert np.array_equal(scaled.allocation.p, np.ldexp(report.allocation.p, k)), name
        trace_unit = 0 if name == "oht" else -k
        assert scaled.trace == [math.ldexp(v, trace_unit) for v in report.trace], name


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    config=st.builds(
        ScenarioConfig,
        num_pairs=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        coverage_radius_m=st.one_of(st.just(20.0), st.floats(20.0, 5000.0)),
        eta=st.floats(0.01, 0.99),
        theta_fix=st.one_of(st.floats(1.01, 50.0), st.floats(50.0, 1e5)),
        noise_density_dbm_hz=st.floats(-170.0, -80.0),
        p_cir_watt=st.one_of(st.just(1e-6), st.floats(1e-6, 10.0)),
        p0_watt=st.floats(0.1, 50.0),
        rate_cap_bpshz=st.floats(0.01, 5.0),
        alpha_h=st.floats(2.0, 4.5),
        alpha_g=st.floats(2.0, 4.5),
    ),
    k=st.sampled_from((40, -40)),
)
def test_every_algorithm_is_invariant_to_the_unit_of_power(config, k):
    # EE is rate over power, so the SCA's stop test compares EEs by their
    # ratio only; no decision on the solve path may read a power or an EE
    # against an absolute number
    _, ch = make_scenario(config)
    assert_power_unit_invariant(ch, config, k)


def test_a_run_keeps_its_last_sca_step_when_powers_are_scaled_by_2_to_the_40():
    # an absolute floor on the EE in the stop test ended this radius-20 m
    # jhtpa run one step early at 2**40 times its powers: 1 SCA step, not 2,
    # and 0.4% less EE
    config = ScenarioConfig(num_pairs=2, seed=derive_child_seed(5, 2, 2), coverage_radius_m=20.0)
    _, ch = make_scenario(config)
    assert run_algorithm("jhtpa", ch, config).iterations == 2
    assert_power_unit_invariant(ch, config, 40)


_LADDER_CONFIGS = st.builds(
    ScenarioConfig,
    num_pairs=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    coverage_radius_m=st.one_of(st.just(20.0), st.floats(20.0, 5000.0)),
    eta=st.floats(0.01, 0.99),
    theta_fix=st.one_of(st.floats(1.01, 50.0), st.floats(50.0, 1e5)),
    noise_density_dbm_hz=st.floats(-170.0, -80.0),
    p_cir_watt=st.one_of(st.just(1e-6), st.floats(1e-6, 10.0)),
    rate_cap_bpshz=st.floats(0.01, 5.0),
    alpha_h=st.floats(2.0, 4.5),
    alpha_g=st.floats(2.0, 4.5),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    config=_LADDER_CONFIGS,
    log_tm1=st.floats(-3.0, 3.0),
    log_ratio=st.floats(-1.0, 1.5),
    log_depth=st.floats(-12.0, -1.0),
    depth_seed=st.integers(0, 2**32 - 1),
    expect=st.none(),
)
@example(
    config=ScenarioConfig(num_pairs=1, seed=2848888437, coverage_radius_m=20.0),
    log_tm1=-1.7170105060393186,
    log_ratio=1.3833900259946388,
    log_depth=-2.25183135259509,
    depth_seed=3316599123,
    expect="infeasible",
)
@example(
    config=ScenarioConfig(num_pairs=1, seed=789153504, coverage_radius_m=841.9382400984589),
    log_tm1=-2.9095633288175,
    log_ratio=0.14543305135592988,
    log_depth=-10.207853050951503,
    depth_seed=2037309254,
    expect="infeasible",
)
@example(
    config=ScenarioConfig(num_pairs=1, seed=431652075, coverage_radius_m=20.0),
    log_tm1=-0.3361976484274143,
    log_ratio=0.604556022855107,
    log_depth=-10.481739046107206,
    depth_seed=750752571,
    expect="no_gain",
)
@example(
    config=ScenarioConfig(num_pairs=1, seed=1158095938, coverage_radius_m=3966.35421668678),
    log_tm1=0.7027729984137836,
    log_ratio=0.015780674728532507,
    log_depth=-7.406448738404332,
    depth_seed=790562696,
    expect="range",
)
def test_the_batched_ladder_returns_the_sequential_ladders_step(
    config, log_tm1, log_ratio, log_depth, depth_seed, expect
):
    # z_bar at theta_bar = 1 + 10^log_tm1 and the step z_new at theta_bar's
    # theta - 1 times 10^log_ratio, each pair a relative depth of about
    # 10^log_depth below its causality bound: the ladder's z must equal the
    # rung-by-rung reference's, and its EE too. Every row of the batched
    # _violation call over the in-range rungs equals that rung's call alone.
    # The explicit examples end the reference where expect says: at an
    # infeasible rung after one accepted rung and at the first rung, at a
    # rung that does not raise the EE, and at one past _THETA_CAP.
    _, ch = make_scenario(config)
    cap = config.eta * config.p0_watt * ch.g
    if not np.all(cap > 0.0):  # an underflowed UAV gain: no start exists
        return
    r_bar = core.qos_threshold(ch, config)
    rng = np.random.default_rng(depth_seed)

    def near_full_harvest(theta):
        depth = 10.0**log_depth * rng.uniform(0.5, 2.0, config.num_pairs)
        return np.append(theta, 1.0 / ((1.0 - depth) * (theta - 1.0) * cap))

    theta_bar = 1.0 + 10.0**log_tm1
    z_bar = near_full_harvest(theta_bar)
    z_new = near_full_harvest(1.0 + (theta_bar - 1.0) * 10.0**log_ratio)

    def score(z):
        return iterate_ee(z, ch, config)

    phi_new = score(z_new)
    z_ref, phi_ref, stop = sequential_extrapolate(z_bar, z_new, phi_new, score, ch, config, r_bar)
    z, phi = algorithms._jhtpa_extrapolate(z_bar, z_new, phi_new, score, ch, config, r_bar)
    assert np.array_equal(z, z_ref) and phi == phi_ref
    assert expect is None or stop == expect

    ratio, thetas = float((z_new[0] - 1.0) / (theta_bar - 1.0)), []
    for s in algorithms._EXTRAPOLATION_POWERS:  # the in-range rungs, as the ladder stops
        thetas.append(1.0 + (theta_bar - 1.0) * ratio**s)
        if not 1.0 + algorithms.THETA_GAP < thetas[-1] <= algorithms._THETA_CAP:
            thetas.pop()
            break
    slack_u = z_new[1:] * (z_new[0] - 1.0) * cap
    powers = [(t - 1.0) * cap / slack_u for t in thetas]
    if thetas:
        batch = algorithms._violation(np.array(thetas), np.array(powers), ch, config, r_bar)
        alone = [algorithms._violation(t, p, ch, config, r_bar) for t, p in zip(thetas, powers)]
        assert np.array_equal(batch, alone, equal_nan=True)
