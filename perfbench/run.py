"""Paired-solve benchmark for uavee: latency, throughput and EE quality.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/selftest.py        # the benchmark's own tiny-size check

One process, one client in a closed loop: each paired trial (scenario
generation, then jhtpa, opa and oht on the shared realization, as
uavee.bench.run_trial does it) starts when the previous one returns. BLAS is
pinned to one thread. The program is imported from the checkout's `src/`.

--trace 0 runs trials for --seconds, and at least through the workload's
fixed quality set (harness.Workload.quality_trials), with tracing off:
  setup_s        median over SETUP_SAMPLES fresh interpreters of the time
                 from spawn to the end of set-up (imports, trial plan)
  trials_per_s   paired trials per second of trial time
  <alg>_ms_p50/p90  wall time of one run_algorithm call
  solved_frac    solves that pass every check, over the quality set
  <alg>_ee_rel   mean over the quality set of the solve's EE divided by the
                 trial's reference EE (harness.reference_ee); failed = 0
  peak_rss_mb    peak resident set of the benchmark process
Times are scaled to nominal host speed. On a shared host the wall time of
the same code swings by ~1.6x in phases lasting seconds to minutes, so a
fixed kernel (harness.calibration_ms) runs before and after every solve and
every set-up sample, and harness.at_nominal_speed scales each wall time by
the kernel's nominal time over its mean time around it. The unscaled solve
figures are printed too.

--trace 1 runs a smaller fixed trial set, each trial untraced and then
traced from outside the program (tracer.py), checks that both runs return
bit-identical results, prints the per-layer metrics and writes the spans and
the count fingerprint under perfbench/out/.

Failed solves are listed with their exception class and failing check. The
last stdout line is the JSON result; the exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
MAX_FAILURE_LINES = 12


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help="stop after set-up (used to time set-up)"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def percentile(values: list[float], q: int) -> float:
    """The 50th or 90th percentile of at least two values."""
    return statistics.median(values) if q == 50 else statistics.quantiles(values, n=10)[8]


def time_setup(argv_base: list[str], harness) -> list[float]:
    """Seconds from spawning a fresh interpreter on this script to the end of
    its set-up, SETUP_SAMPLES times, each scaled to nominal host speed by the
    calibration kernel run just before and just after it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = harness.calibration_ms()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), *argv_base, "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(harness.at_nominal_speed(elapsed, before, harness.calibration_ms()))
    return samples


def summarize_failures(results, harness) -> tuple[Counter, list[str]]:
    by_reason: Counter = Counter()
    lines = []
    for tr in results:
        for res in tr.solves.values():
            if res.failed:
                by_reason[f"{res.algorithm}:{res.reasons[0]}"] += 1
                if len(lines) < MAX_FAILURE_LINES:
                    lines.append(harness.describe_failure(tr, res))
    return by_reason, lines


def measure(args, workload, plan, harness) -> tuple[dict, int, int, list[str]]:
    """The untraced run: end-to-end metrics over a closed loop of trials."""
    setup = time_setup(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)],
        harness,
    )
    warm = harness.run_paired_trial(plan[0])  # lazy imports and caches, untimed
    results = []
    started = time.perf_counter()
    i = 0
    while i < len(plan) or time.perf_counter() - started < args.seconds:
        trial = plan[i] if i < len(plan) else workload.trial(args.seed, i)
        results.append(harness.run_paired_trial(trial, calibrate=True))
        i += 1
    elapsed = time.perf_counter() - started

    errors = []
    if harness.trial_signature(warm) != harness.trial_signature(results[0]):
        errors.append("trial 0 returned different results on its second run")
    quality = results[: len(plan)]
    ee_rel = {alg: [] for alg in harness.ALGORITHMS}
    ee_bits = {alg: [] for alg in harness.ALGORITHMS}
    for n, tr in enumerate(results):
        harness.classify(tr)
        errors.extend(harness.output_errors(tr))
        if n >= len(plan):
            continue
        ref = harness.reference_ee(tr.channels, tr.trial.config)
        for alg, res in tr.solves.items():
            ok = not res.failed
            ee_rel[alg].append(res.report.ee_nats_per_joule / ref if ok else 0.0)
            ee_bits[alg].append(res.report.ee_bits_per_joule if ok else 0.0)

    raw_lat = {alg: [] for alg in harness.ALGORITHMS}
    lat = {alg: [] for alg in harness.ALGORITHMS}
    raw_busy = busy = 0.0
    for tr in results:
        cal = tr.calibration_ms
        raw_busy += tr.scenario_ms / 1e3
        busy += harness.at_nominal_speed(tr.scenario_ms, cal[0], cal[0]) / 1e3
        for k, alg in enumerate(harness.ALGORITHMS):
            ms = tr.solves[alg].ms
            scaled = harness.at_nominal_speed(ms, cal[k], cal[k + 1])
            raw_lat[alg].append(ms)
            lat[alg].append(scaled)
            raw_busy += ms / 1e3
            busy += scaled / 1e3
    attempted = sum(len(tr.solves) for tr in results)
    failed = sum(res.failed for tr in results for res in tr.solves.values())
    quality_failed = sum(res.failed for tr in quality for res in tr.solves.values())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "trials_per_s": (len(results) / busy, "1/s"),
    }
    raw = {"trials_per_s": len(results) / raw_busy}
    for alg in harness.ALGORITHMS:
        for q in (50, 90):
            metrics[f"{alg}_ms_p{q}"] = (percentile(lat[alg], q), "ms")
            raw[f"{alg}_ms_p{q}"] = percentile(raw_lat[alg], q)
    print("unscaled wall clock: " + json.dumps(raw))
    metrics["solved_frac"] = (1.0 - quality_failed / (len(quality) * len(harness.ALGORITHMS)), "frac")
    for alg in harness.ALGORITHMS:
        metrics[f"{alg}_ee_rel"] = (statistics.fmean(ee_rel[alg]), "frac")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    by_reason, lines = summarize_failures(results, harness)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}: {len(results)} paired trials in {elapsed:.2f} s; quality set = first {len(plan)}")
    print("set-up samples (s): " + " ".join(f"{s:.4f}" for s in setup))
    print("latency samples per algorithm: " + ", ".join(f"{a}={len(v)}" for a, v in lat.items()))
    print(f"failed solves: {failed} of {attempted} attempted; quality set {quality_failed} of {3 * len(quality)}")
    for reason, count in sorted(by_reason.items()):
        print(f"  {reason}: {count}")
    for line in lines:
        print("  " + line)
    for alg in harness.ALGORITHMS:
        print(f"mean EE over the quality set, {alg}: {statistics.fmean(ee_bits[alg]):.6g} bits/J (failed = 0)")
    for name, (value, unit) in metrics.items():
        print(f"{name:>16} {value:.6g} {unit}")
    return metrics, attempted, failed, errors


def source_digest() -> str:
    digest = hashlib.sha256()
    files = sorted((HERE.parent / "src" / "uavee").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_fingerprint(key: str, fingerprint: dict) -> str | None:
    """Store the fingerprint under key; return a message if an earlier run of
    the same code, workload, seed and size counted differently."""
    path = OUT / "fingerprints.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    previous = stored.get(key)
    if previous is not None and previous != fingerprint:
        diff = sorted(k for k in set(previous) | set(fingerprint) if previous.get(k) != fingerprint.get(k))
        return f"count fingerprint differs from an earlier run of the same code: {diff[:8]}"
    stored[key] = fingerprint
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))
    return None


def trace(args, workload, harness) -> tuple[dict, int, int, list[str]]:
    """The traced run: per-layer metrics, bit-identity and count fingerprint."""
    import tracer as tracing

    trials = harness.plan(workload, args.seed, workload.trace_trials(args.seconds))
    harness.run_paired_trial(trials[0])  # warm-up, untimed
    tr = tracing.Tracer()
    plain, traced = [], []
    untraced_s = traced_s = 0.0
    origin = time.perf_counter()
    # Each trial runs untraced and then traced, back to back, so both runs
    # see the same host speed and overhead_frac compares like with like.
    for t in trials:
        started = time.perf_counter()
        plain.append(harness.run_paired_trial(t))
        untraced_s += time.perf_counter() - started
        tr.install()
        try:
            tr.trial = t.index
            started = time.perf_counter()
            span = tr.open("trial")
            try:
                traced.append(harness.run_paired_trial(t))
            finally:
                tr.close(span)
            traced_s += time.perf_counter() - started
        finally:
            tr.uninstall()

    errors = []
    for a, b in zip(plain, traced):
        if harness.trial_signature(a) != harness.trial_signature(b):
            errors.append(f"trial {a.trial.index}: tracing changed the results")
    for t in traced:
        harness.classify(t)
        errors.extend(harness.output_errors(t))
    by_reason, lines = summarize_failures(traced, harness)
    fingerprint = tr.fingerprint()
    fingerprint.update({f"failed.{k}": v for k, v in by_reason.items()})
    key = f"{workload.name}|seed={args.seed}|trials={len(trials)}|code={source_digest()}"
    mismatch = check_fingerprint(key, fingerprint)
    if mismatch:
        errors.append(mismatch)
    tr.write_spans(OUT / f"spans-{workload.name}-{args.seed}.jsonl", origin)

    values = tr.metrics(len(trials), traced_s / untraced_s - 1.0)
    metrics = {name: (values[name], unit) for name, unit in tracing.per_layer_metrics()}
    attempted = sum(len(t.solves) for t in traced)
    failed = sum(res.failed for t in traced for res in t.solves.values())
    digest = hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()[:16]
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}: {len(trials)} trials, untraced {untraced_s:.2f} s, traced {traced_s:.2f} s")
    print(f"count fingerprint {digest} ({len(fingerprint)} counters) under {key}")
    print(f"spans: {len(tr.spans)} written to {OUT.name}/spans-{workload.name}-{args.seed}.jsonl")
    print(f"failed solves: {failed} of {attempted}")
    for reason, count in sorted(by_reason.items()):
        print(f"  {reason}: {count}")
    for line in lines:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"{name:>48} {value:.6g} {unit}")
    return metrics, attempted, failed, errors


def result_record(metrics: dict, attempted: int, failed: int, errors: list[str]) -> dict:
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import harness
    except ImportError as exc:  # includes a checkout without src/uavee
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 3
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    plan = harness.plan(workload, args.seed, workload.quality_trials(args.seconds))
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if args.trace:
        metrics, attempted, failed, errors = trace(args, workload, harness)
    else:
        metrics, attempted, failed, errors = measure(args, workload, plan, harness)
    for err in errors[:MAX_FAILURE_LINES]:
        print(f"OUTPUT CHECK FAILED: {err}")
    print(json.dumps(result_record(metrics, attempted, failed, errors)))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
