"""Guard for the names perfbench/tracer.py hooks into.

The benchmark's tracer wraps uavee.algorithms.find_feasible / solve / the
subproblem builders and rebuilds every ConvexProgram by field name. A
renamed hook or field would otherwise surface only in the benchmark's own
self-test; this runs one traced paired trial instead.
"""

import os
import sys
from pathlib import Path

import pytest

import uavee.algorithms as algorithms
import uavee.engine as engine

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
    harness, tracer = perfbench
    trial = harness.WORKLOADS["paper_sweep"].trial(101, 0)
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
    for alg in tracer.SUBSOLVED:
        assert tr.counts[f"engine.solve.calls.{alg}"] > 0
        assert tr.counts[f"oracle.values.calls.{alg}"] > 0
        assert tr.counts[f"engine.find_feasible.calls.{alg}"] > 0
