"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measurements.
"""

import time

import numpy as np
import pytest

import uavee.core as core
from uavee import ScenarioConfig, make_scenario
from uavee.algorithms import (
    build_jhtpa_subproblem,
    build_opa_subproblem,
    jhtpa,
    oht,
    opa,
)
from uavee.bench import ExperimentSpec, run_experiment
from uavee.engine import NoFeasiblePointFoundError

from oracles import (
    check_gradients,
    grid_ee_n1,
    grid_oht_theta,
    iterate_ee,
    log_uniform_jhtpa_points,
    log_uniform_opa_points,
    relative_deficit,
)

PAIR_COUNTS = tuple(range(2, 11))
SCENARIOS_PER_N = 12  # 9 x 12 = 108 seeded scenarios >= 100


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def scenario_reports():
    """All three algorithms on 108 seeded scenarios across N = 2..10."""
    runs = []
    for n in PAIR_COUNTS:
        for k in range(SCENARIOS_PER_N):
            config = ScenarioConfig(num_pairs=n, seed=1000 * n + k)
            _, ch = make_scenario(config)
            entry = {"config": config, "ch": ch, "reports": {}}
            for name, fn in (("jhtpa", jhtpa), ("opa", opa), ("oht", oht)):
                try:
                    entry["reports"][name] = fn(ch, config)
                except NoFeasiblePointFoundError:
                    entry["reports"][name] = None  # infeasible trial
            runs.append(entry)
    return runs


@pytest.fixture(scope="module")
def paired_experiment():
    spec = ExperimentSpec(
        base_config=ScenarioConfig(num_pairs=2, seed=20260810),
        pair_counts=PAIR_COUNTS,
        trials_per_point=110,
    )
    return run_experiment(spec, jobs=2)


@pytest.fixture(scope="module")
def timing_rows():
    rows = []
    for n in (5, 10):
        spec = ExperimentSpec(
            base_config=ScenarioConfig(num_pairs=n, seed=424242),
            pair_counts=(n,),
            trials_per_point=30,
        )
        rows.extend(run_experiment(spec, jobs=1)[0])
    return rows


def test_criterion_1_surrogate_validity():
    rng = np.random.default_rng(20260810)
    started = time.perf_counter()
    size = 100_000
    lo, hi = np.log(1e-3), np.log(1e3)
    bar = [np.exp(rng.uniform(lo, hi, size)) for _ in range(3)]
    pts = [np.exp(rng.uniform(lo, hi, size)) for _ in range(3)]
    coeffs = core.log_bound_coeffs(*bar)
    psi = core.surrogate_psi(coeffs, *pts)
    truth = np.log1p(1.0 / (pts[0] * pts[1])) / pts[2]
    worst_excess = float(np.max(psi - truth))

    tangent = core.surrogate_psi(coeffs, *bar)
    truth_bar = np.log1p(1.0 / (bar[0] * bar[1])) / bar[2]
    worst_tangency = float(np.max(np.abs(tangent - truth_bar) / np.abs(truth_bar)))
    elapsed = time.perf_counter() - started

    ok = worst_excess <= 1e-12 and worst_tangency <= 1e-12 and elapsed < 5.0
    _verdict(
        1,
        "surrogate validity",
        ok,
        f"max bound excess {worst_excess:.2e} (<=1e-12), "
        f"max tangency error {worst_tangency:.2e} (<=1e-12), {elapsed:.2f}s (<5s)",
    )


def test_criterion_2_sca_ascent_and_convergence(scenario_reports):
    trace_ok = True
    per_alg = {name: {"feasible": 0, "converged": 0} for name in ("jhtpa", "opa", "oht")}
    for entry in scenario_reports:
        for name, report in entry["reports"].items():
            if report is None:
                continue
            per_alg[name]["feasible"] += 1
            if report.status == "converged" and report.iterations <= 100:
                per_alg[name]["converged"] += 1
            if np.any(np.diff(np.asarray(report.trace)) < -1e-9):
                trace_ok = False
    rates = {
        name: (c["converged"] / c["feasible"] if c["feasible"] else 1.0)
        for name, c in per_alg.items()
    }
    ok = trace_ok and all(r >= 0.95 for r in rates.values())
    _verdict(
        2,
        "SCA ascent",
        ok,
        f"trace slack 1e-9 held: {trace_ok}; convergence rates "
        + ", ".join(f"{k}={v:.1%}" for k, v in rates.items())
        + f" over {len(scenario_reports)} scenarios",
    )


def test_criterion_3_small_instance_oracles():
    jhtpa_worst = 0.0
    jhtpa_bad = []
    for seed in range(20):
        config = ScenarioConfig(num_pairs=1, seed=seed)
        _, ch = make_scenario(config)
        r_bar = core.qos_threshold(ch, config)
        best = grid_ee_n1(ch, config, r_bar)
        report = jhtpa(ch, config)
        gap = abs(report.ee_nats_per_joule - best) / best
        jhtpa_worst = max(jhtpa_worst, gap)
        if not 0.98 * best <= report.ee_nats_per_joule <= 1.02 * best:
            jhtpa_bad.append((seed, gap))

    oht_worst = 0.0
    oht_bad = []
    for seed in range(20):
        config = ScenarioConfig(num_pairs=1, seed=seed)
        _, ch = make_scenario(config)
        theta_grid, _ = grid_oht_theta(ch, config, points=10**6)
        report = oht(ch, config)
        dev = abs(report.allocation.theta - theta_grid)
        oht_worst = max(oht_worst, dev)
        if dev > 1e-3:
            oht_bad.append((seed, dev))

    ok = not jhtpa_bad and not oht_bad
    _verdict(
        3,
        "small-instance oracles",
        ok,
        f"jhtpa worst EE gap {jhtpa_worst:.2%} (<=2%), violations {jhtpa_bad}; "
        f"oht worst |theta-grid| {oht_worst:.2e} (<=1e-3), violations {oht_bad}",
    )


def test_criterion_4_oht_closed_form(scenario_reports):
    # oht's powers are the full-harvest closed form p_n = (theta - 1) eta P0 g_n
    worst = 0.0
    for entry in scenario_reports:
        report = entry["reports"]["oht"]
        if report is None:
            continue
        config, ch = entry["config"], entry["ch"]
        closed_form = (report.allocation.theta - 1.0) * config.eta * config.p0_watt * ch.g
        worst = max(worst, float(np.max(np.abs(report.allocation.p / closed_form - 1.0))))
    ok = worst <= 1e-10
    _verdict(4, "closed-form power identity", ok, f"worst |p/p_closed - 1| {worst:.2e} (<=1e-10)")


def test_criterion_5_cross_algorithm_ordering(paired_experiment):
    rows, _ = paired_experiment
    by_trial = {}
    for row in rows:
        by_trial.setdefault((row.n_pairs, row.trial), {})[row.algorithm] = row
    means = {}
    paired_counts = {}
    for n in PAIR_COUNTS:
        trials = [
            t
            for (np_, t), group in by_trial.items()
            if np_ == n and all(r.status == "converged" for r in group.values())
        ]
        paired_counts[n] = len(trials)
        for alg in ("jhtpa", "opa", "oht"):
            means[(n, alg)] = float(
                np.mean([by_trial[(n, t)][alg].ee_nats_per_joule for t in trials])
            )
    enough = all(paired_counts[n] >= 100 for n in PAIR_COUNTS)
    jhtpa_top = all(
        means[(n, "jhtpa")] >= means[(n, "opa")]
        and means[(n, "jhtpa")] >= means[(n, "oht")]
        for n in PAIR_COUNTS
    )
    opa_over_oht = all(means[(n, "opa")] >= means[(n, "oht")] for n in PAIR_COUNTS if n >= 6)
    ok = enough and jhtpa_top and opa_over_oht
    detail = "; ".join(
        f"N={n}: j={means[(n,'jhtpa')]:.3g} o={means[(n,'opa')]:.3g} h={means[(n,'oht')]:.3g}"
        f" ({paired_counts[n]} pairs)"
        for n in PAIR_COUNTS
    )
    _verdict(5, "mean EE ordering", ok, detail)


def test_criterion_6_latency(timing_rows):
    med = {}
    for n in (5, 10):
        for alg in ("jhtpa", "opa", "oht"):
            walls = [
                r.wall_time_ms
                for r in timing_rows
                if r.n_pairs == n and r.algorithm == alg and r.status == "converged"
            ]
            med[(n, alg)] = float(np.median(walls))
    ok = (
        med[(5, "jhtpa")] <= 150.0
        and med[(5, "opa")] <= 50.0
        and med[(5, "oht")] <= 50.0
        and all(med[(10, alg)] <= 1000.0 for alg in ("jhtpa", "opa", "oht"))
    )
    _verdict(
        6,
        "latency",
        ok,
        f"N=5 medians ms: jhtpa={med[(5,'jhtpa')]:.1f} (<=150), opa={med[(5,'opa')]:.1f} (<=50), "
        f"oht={med[(5,'oht')]:.1f} (<=50); N=10: jhtpa={med[(10,'jhtpa')]:.1f}, "
        f"opa={med[(10,'opa')]:.1f}, oht={med[(10,'oht')]:.1f} (<=1000)",
    )


def test_criterion_7_gradient_checks():
    rng = np.random.default_rng(77)
    worst = 0.0

    config = ScenarioConfig(num_pairs=4, seed=3)
    _, ch = make_scenario(config)
    r_bar = core.qos_threshold(ch, config)

    for z in log_uniform_jhtpa_points(rng, ch, config, r_bar, 10):
        prog = build_jhtpa_subproblem(z, iterate_ee(z, ch, config), ch, config, r_bar)
        worst = max(worst, check_gradients(prog, z))

    theta_fix = config.theta_fix
    for p in log_uniform_opa_points(rng, ch, config, r_bar, theta_fix, 10):
        q = 1.0 / p
        phi = iterate_ee(np.append(theta_fix, q), ch, config)
        prog = build_opa_subproblem(np.append(theta_fix, q), phi, ch, config, r_bar)
        worst = max(worst, check_gradients(prog, q))

    ok = worst < 1e-5
    _verdict(7, "gradient checks", ok, f"max relative oracle error {worst:.2e} (<1e-5)")


def test_criterion_8_feasibility_of_reports(scenario_reports):
    worst = 0.0
    checked = 0
    for entry in scenario_reports:
        for report in entry["reports"].values():
            if report is None or report.status != "converged":
                continue
            checked += 1
            worst = float(np.max([worst, relative_deficit(report)]))  # a NaN stays
    ok = worst <= 1e-8
    _verdict(
        8,
        "original-problem feasibility",
        ok,
        f"worst relative deficit {worst:.2e} (<=1e-8) over {checked} converged reports",
    )
