"""Bit-identity check of every solve on the benchmark's 440 quality trials.

    python tests/signatures.py OUT.json           write the signatures
    python tests/signatures.py OLD.json NEW.json  compare two signature files

The trials are perfbench's paper_sweep seed 501 (360), dense_n30 seed 601
(40) and feasibility_edge seed 701 (40), run through harness.run_paired_trial.
A solve's signature is harness.solve_signature: status, EE, tau, powers,
trace, iterations and subsolver calls, or the exception it raised. Write the
file from each of two checkouts and compare them; the comparison prints, per
workload and algorithm, how many solves are identical, how many keep their
status, iterations and subsolver calls ("same path"), how many keep a
bit-identical allocation (tau, powers), how many end with a lower
trace[-1] than in OLD (jhtpa's and opa's EE, oht's max-min rate), the
largest relative EE change, and the total Newton steps of the barrier solves,
the Newton systems they solved (engine._newton_direction calls, the first
stage's scan included) and the full-harvest rate calls (core.pinned_rates,
which oht's search, jhtpa's face scan and the QoS floor call) in OLD and NEW
("n/a" when a file holds no such counts). A change that moves only the
rounding of EE or trace shows every solve on the same path with the same
allocation; step, system and rate-call counts are deterministic, so a change
to the barrier's route or work, or to oht's search, shows in the last three
columns even where every answer stays the same.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TRIAL_SETS = (("paper_sweep", 501, 360), ("dense_n30", 601, 40), ("feasibility_edge", 701, 40))

# The per-run counts a signature file holds, by key, with their column heads.
COUNTS = {"newton_steps": "Newton steps", "newton_systems": "Newton systems", "rate_calls": "rate calls"}


def _jsonable(value):
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def write(out: Path) -> None:
    """Write each solve's signature, and under "newton_steps",
    "newton_systems" and "rate_calls" each run's Newton steps, Newton systems
    and core.pinned_rates calls, counted by wrapping bench.run_algorithm,
    algorithms.solve, engine._newton_direction and core.pinned_rates while the
    trials run."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import harness
    from uavee import algorithms, bench, core, engine

    real_run, real_solve, real_direction = bench.run_algorithm, algorithms.solve, engine._newton_direction
    real_rates = core.pinned_rates
    runs = []  # [algorithm, Newton steps, Newton systems, rate calls] of each run in the current trial

    def run_algorithm(name, *args):
        runs.append([name, 0, 0, 0])
        return real_run(name, *args)

    def solve(prog, z0):
        outcome = real_solve(prog, z0)
        runs[-1][1] += outcome.newton_step_count
        return outcome

    def newton_direction(hess, grad):
        runs[-1][2] += 1
        return real_direction(hess, grad)

    def pinned_rates(*args):
        runs[-1][3] += 1
        return real_rates(*args)

    # counts[key][workload] holds, per trial, {algorithm: count} of each run
    data, counts = {}, {key: {name: [] for name, _, _ in TRIAL_SETS} for key in COUNTS}
    bench.run_algorithm, algorithms.solve, engine._newton_direction = run_algorithm, solve, newton_direction
    core.pinned_rates = pinned_rates
    try:
        for name, seed, count in TRIAL_SETS:
            data[name] = []
            for trial in harness.plan(harness.WORKLOADS[name], seed, count):
                runs.clear()
                tr = harness.run_paired_trial(trial)
                signatures = {alg: harness.solve_signature(res) for alg, res in tr.solves.items()}
                data[name].append({alg: _jsonable(sig) for alg, sig in signatures.items()})
                for column, by_workload in enumerate(counts.values(), start=1):
                    by_workload[name].append({run[0]: run[column] for run in runs})
    finally:
        bench.run_algorithm, algorithms.solve, engine._newton_direction = real_run, real_solve, real_direction
        core.pinned_rates = real_rates
    out.write_text(json.dumps({**data, **counts}))


def _ee(signature) -> float | None:
    return None if signature[0] == "raised" else float.fromhex(signature[1])


def _path(signature) -> list:
    """Status, iterations and subsolver calls, or the raised exception."""
    return signature if signature[0] == "raised" else [signature[0], *signature[5:]]


def _allocation(signature) -> list:
    """tau and the powers, or the raised exception."""
    return signature if signature[0] == "raised" else signature[2:4]


def _last(signature) -> float | None:
    """The last trace entry, or None for a raised exception."""
    return None if signature[0] == "raised" else float.fromhex(signature[4][-1])


def _old_new(before: dict, after: dict, key: str, name: str, alg: str) -> str:
    """"old → new" of the total count under key (one of COUNTS) of alg's
    runs on workload name; "n/a" when either file has none."""
    totals = []
    for data in (before, after):
        runs = data.get(key, {}).get(name)
        if runs is None:
            return "n/a"
        totals.append(sum(run.get(alg, 0) for run in runs))
    return " → ".join(map(str, totals))


def compare(old: Path, new: Path) -> bool:
    before, after = json.loads(old.read_text()), json.loads(new.read_text())
    same_everywhere = True
    print(
        f"{'workload':<18}{'algorithm':<11}{'identical':>12}{'same path':>12}"
        f"{'same alloc':>12}{'lower trace[-1]':>17}{'max rel EE drift':>18}"
        + "".join(f"  {head:<16}" for head in COUNTS.values()).rstrip()
    )
    for name, _, _ in TRIAL_SETS:
        pairs = list(zip(before[name], after[name], strict=True))
        for alg in pairs[0][0]:
            identical, path, alloc, lower, drift = 0, 0, 0, 0, 0.0
            for a, b in ((x[alg], y[alg]) for x, y in pairs):
                identical += a == b
                path += _path(a) == _path(b)
                alloc += _allocation(a) == _allocation(b)
                last_a, last_b = _last(a), _last(b)
                lower += last_a is not None and (last_b is None or last_b < last_a)
                ee_a, ee_b = _ee(a), _ee(b)
                if (ee_a is None) != (ee_b is None):
                    drift = float("inf")
                elif ee_a is not None and ee_a != ee_b:
                    drift = max(drift, abs(ee_b - ee_a) / max(abs(ee_a), 1e-300))
            same_everywhere &= identical == len(pairs)
            counts = "".join(f"{f'{k}/{len(pairs)}':>12}" for k in (identical, path, alloc))
            totals = "".join(f"  {_old_new(before, after, key, name, alg):<16}" for key in COUNTS).rstrip()
            print(f"{name:<18}{alg:<11}{counts}{f'{lower}/{len(pairs)}':>17}{drift:>18.3g}{totals}")
    return same_everywhere


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        write(Path(argv[0]))
        return 0
    if len(argv) == 2:
        return 0 if compare(Path(argv[0]), Path(argv[1])) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
