"""Self-test of the benchmark at a tiny size: python3 perfbench/selftest.py

For every workload it runs the untraced and the traced measurement on a few
trials and checks that
  - every metric BENCHMARK.json declares is emitted, with its unit, and
    nothing else;
  - the result record has exactly the keys the runner expects, and every
    end-to-end value is finite and above 0;
  - each trial's EE equals what uavee.bench.run_trial reports for the same
    base seed, pair count and trial index, i.e. the benchmark drives the
    same path as `uavee run`;
  - tracing left the results bit-identical and the count fingerprint
    repeats on a second traced run.
Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import harness
import run
from uavee.algorithms import ScaSettings

SEED = 20261017
TRIALS = {"paper_sweep": 9, "dense_n30": 2, "feasibility_edge": 4}


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def same_path_as_run_trial(workload, trials) -> list[str]:
    """Mismatches between the benchmark's trials and bench.run_trial's rows."""
    problems = []
    for trial in trials:
        base = dict(workload.mix)[trial.label]
        rows = harness.bench.run_trial(
            dataclasses.replace(base, seed=SEED), base.num_pairs, trial.index, harness.ALGORITHMS, ScaSettings()
        )
        ours = harness.run_paired_trial(trial)
        for row in rows:
            rep = ours.solves[row.algorithm].report
            if row.seed != trial.config.seed:
                problems.append(f"trial {trial.index}: child seed {trial.config.seed} != run_trial's {row.seed}")
            elif row.ee_nats_per_joule is None:
                if rep is not None and rep.status == "converged":
                    problems.append(f"trial {trial.index} {row.algorithm}: run_trial says {row.status}")
            elif rep is None or rep.ee_nats_per_joule != row.ee_nats_per_joule:
                got = None if rep is None else rep.ee_nats_per_joule
                problems.append(f"trial {trial.index} {row.algorithm}: EE {got!r} != {row.ee_nats_per_joule!r}")
    return problems


def main() -> int:
    ok = True

    def verdict(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}" + (f": {detail}" if detail else ""))

    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    for name, workload in harness.WORKLOADS.items():
        trials = harness.plan(workload, SEED, TRIALS[name])
        args = argparse.Namespace(workload=name, seed=SEED, seconds=0.01, trace=0)
        for trace in (0, 1):
            args.trace = trace
            with redirect_stdout(io.StringIO()):
                if trace:
                    result = run.trace(args, workload, harness)
                    again = run.trace(args, workload, harness)
                else:
                    result = run.measure(args, workload, trials, harness)
            _, attempted, failed, errors = result
            record = run.result_record(*result)
            want = per_layer if trace else end_to_end
            got = {n: m["unit"] for n, m in record["metrics"].items()}
            wrong = sorted(set(got.items()) ^ set(want.items()))
            verdict(f"{name} trace={trace} metrics", not wrong, f"not as declared: {wrong[:6]}" if wrong else f"{len(got)} with units")
            keys_ok = list(record) == ["correct", "attempted", "failed", "metrics"]
            values = [m["value"] for m in record["metrics"].values()]
            # End-to-end metrics are compared as ratios, so none may be 0.
            values_ok = all(math.isfinite(v) and (v > 0 or trace) for v in values)
            verdict(f"{name} trace={trace} record", keys_ok and values_ok and 0 <= failed <= attempted >= 1)
            verdict(f"{name} trace={trace} output checks", not errors, "; ".join(errors[:3]))
            if trace:
                verdict(f"{name} fingerprint repeats", not again[3], "; ".join(again[3][:3]))
        problems = same_path_as_run_trial(workload, trials)
        verdict(f"{name} EE equals bench.run_trial", not problems, "; ".join(problems[:3]) or f"{len(trials)} trials")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
