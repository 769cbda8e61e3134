"""Guard for the names perfbench/tracer.py hooks into, and the call shapes
perfbench/selftest.py and perfbench/harness.py use.

The benchmark's tracer wraps uavee.algorithms.find_feasible / solve / the
subproblem builders and rebuilds every ConvexProgram by field name. Of
find_feasible it relies on the name, on the first two positional parameters
(constraints, sampler) and on find_feasible calling sampler(rng, k) once per
proposal, which it counts. A renamed hook or field would otherwise surface
only in the benchmark's own self-test; this runs one traced paired trial
instead.
"""

import dataclasses
import os
import sys
from pathlib import Path

import pytest

import uavee.algorithms as algorithms
import uavee.engine as engine
from uavee import ScenarioConfig
from uavee.algorithms import ScaSettings

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    # harness pins BLAS threads through os.environ and prepends src/ to
    # sys.path on import; keep both out of the rest of the test run.
    saved_env, saved_path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import harness
        import tracer
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        sys.path[:] = saved_path
    return harness, tracer


def test_tracer_hooks_count_and_keep_results(perfbench):
    # opa certifies its full-harvest vertex on the paper_sweep trial and
    # calls no engine function there; at a 20 m radius the certificate
    # rejects the vertex and opa's SCA runs through every hook
    harness, tracer = perfbench
    paper = harness.WORKLOADS["paper_sweep"].trial(101, 0)
    r20 = dataclasses.replace(paper, config=ScenarioConfig(num_pairs=5, seed=7, coverage_radius_m=20.0))
    for trial, certified in ((paper, True), (r20, False)):
        plain = harness.run_paired_trial(trial)
        tr = tracer.Tracer()
        tr.install()
        try:
            traced = harness.run_paired_trial(trial)
        finally:
            tr.uninstall()
        assert algorithms.solve is engine.solve
        assert algorithms.find_feasible is engine.find_feasible
        assert harness.trial_signature(traced) == harness.trial_signature(plain)
        assert tr.counts["algorithms.build.calls"] > 0
        assert (traced.solves["opa"].report.stop_reason == "kkt_certified") == certified
        for alg in tracer.SUBSOLVED:
            solved = alg != "opa" or not certified
            assert (tr.counts[f"engine.solve.calls.{alg}"] > 0) == solved
            assert (tr.counts[f"oracle.values.calls.{alg}"] > 0) == solved
            calls = tr.counts[f"engine.find_feasible.calls.{alg}"]
            assert (calls > 0) == solved
            assert tr.counts[f"engine.find_feasible.proposals.{alg}"] == calls


def test_run_trial_takes_sca_settings_as_the_benchmark_passes_them(perfbench):
    # perfbench/selftest.py hands ScaSettings() to bench.run_trial, and the
    # harness hands None to bench.run_algorithm; both reach the same EE.
    harness, _ = perfbench
    workload = harness.WORKLOADS["paper_sweep"]
    trial = workload.trial(101, 3)
    base = dict(workload.mix)[trial.label]
    rows = harness.bench.run_trial(
        dataclasses.replace(base, seed=101), base.num_pairs, trial.index, harness.ALGORITHMS, ScaSettings()
    )
    paired = harness.run_paired_trial(trial)
    assert [row.algorithm for row in rows] == list(harness.ALGORITHMS)
    for row in rows:
        assert row.seed == trial.config.seed
        assert row.ee_nats_per_joule == paired.solves[row.algorithm].report.ee_nats_per_joule
