"""Bit-identity check of every solve on the benchmark's 440 quality trials
and on the five Baseline sets of ROADMAP.md.

    python tests/signatures.py OUT.json           write the signatures
    python tests/signatures.py OLD.json NEW.json  compare two signature files

The benchmark's trials are perfbench's paper_sweep seed 501 (360), dense_n30
seed 601 (40) and feasibility_edge seed 701 (40). The Baseline sets are
BASELINE_SETS: trial k at N pairs draws bench.derive_child_seed(seed, N, k)
(Sample: seed 101, N = 2-10, 12 trials each; dense: seed 601, N = 30, 30
trials, dense_n30's first 30; r20 and r100: coverage radius 20 m or 100 m,
seed 5, N = 2/5/10, 30 trials each; extreme: r20 with p_cir 1e-6 W and
noise -170 dBm/Hz, 10 trials each). Every trial runs through
harness.run_paired_trial. A solve's signature is harness.solve_signature:
status, EE, tau, powers, trace, iterations and subsolver calls, or the
exception it raised. Each trial's channel realization (g, h and σ²) is stored
as a digest. Write the file from each of two checkouts and compare them; the
comparison prints, per set, how many trials drew identical channels
("channels identical k/n", "channels n/a" when either file holds none; a
difference fails the comparison), then per set and algorithm how many solves are
identical, how many keep their status, iterations and subsolver calls ("same
path"), how many keep a bit-identical allocation (tau, powers), how many end
with a lower trace[-1] than in OLD (jhtpa's and opa's EE, oht's max-min
rate), the largest relative EE change, the totals in OLD and NEW of each
count in COUNTS ("n/a" when a file holds no such counts), and last the
tally in OLD and NEW of the runs' stop reasons (SolveReport.stop_reason,
"raised" for a run that raised), such as "epsilon:360 → kkt_certified:360".
A change that moves only the rounding of EE or trace shows every solve on
the same path with the same allocation; the counts are deterministic, so a
change to the barrier's route or work, or to oht's search, shows in the
count columns even where every answer stays the same.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

# (name, seed, count): a perfbench workload's first count trials, or a
# BASELINE_SETS set's count trials at each of its pair counts
TRIAL_SETS = (
    ("paper_sweep", 501, 360),
    ("dense_n30", 601, 40),
    ("feasibility_edge", 701, 40),
    ("Sample", 101, 12),
    ("dense", 601, 30),
    ("r20", 5, 30),
    ("r100", 5, 30),
    ("extreme", 5, 10),
)

# ROADMAP's Baseline sets by name: pair counts and ScenarioConfig fields
# other than the defaults
_R20 = {"coverage_radius_m": 20.0}
BASELINE_SETS = {
    "Sample": (tuple(range(2, 11)), {}),
    "dense": ((30,), {}),
    "r20": ((2, 5, 10), _R20),
    "r100": ((2, 5, 10), {"coverage_radius_m": 100.0}),
    "extreme": ((2, 5, 10), {**_R20, "p_cir_watt": 1e-6, "noise_density_dbm_hz": -170.0}),
}

# The per-run counts a signature file holds, by key, with their column heads.
# write's wrappers count each while bench.run_algorithm runs:
COUNTS = {
    "newton_steps": "Newton steps",  # of the barrier solves
    "newton_systems": "Newton systems",  # engine._newton_direction calls, first-stage scans included
    "rate_calls": "rate calls",  # core.pinned_rates: oht's search, jhtpa's face scan, the QoS floor
    "non_optimal": "non-OPTIMAL",  # barrier solves whose status is not OPTIMAL
    "first_solve_steps": "first-solve steps",  # of the first SCA solve, its warm starts' solves included
    "sinr_calls": "SINR calls",  # core.sinr: EE scores and the checks of a start or an extrapolation rung
}


def _jsonable(value):
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _channel_digest(ch) -> str:
    """sha256 of a ChannelRealization's g, h and sigma2_watt bytes."""
    return hashlib.sha256(ch.g.tobytes() + ch.h.tobytes() + float(ch.sigma2_watt).hex().encode()).hexdigest()


def _trials(harness, name: str, seed: int, count: int) -> list:
    """The harness.Trials of one TRIAL_SETS entry."""
    from uavee import ScenarioConfig, bench

    if name in harness.WORKLOADS:
        return harness.plan(harness.WORKLOADS[name], seed, count)
    pair_counts, fields = BASELINE_SETS[name]
    return [
        harness.Trial(k, f"n{n}", ScenarioConfig(num_pairs=n, seed=bench.derive_child_seed(seed, n, k), **fields))
        for n in pair_counts
        for k in range(count)
    ]


def write(out: Path) -> None:
    """Write each solve's signature, under each COUNTS key each run's count,
    under "stop_reasons" each run's stop reason, all read by wrapping
    bench.run_algorithm, algorithms.solve, algorithms._solve_from,
    engine._newton_direction, core.pinned_rates and core.sinr while the
    trials run, and under "channels" each trial's channel digest."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import harness
    from uavee import algorithms, bench, core, engine

    real_run, real_solve, real_direction = bench.run_algorithm, algorithms.solve, engine._newton_direction
    real_rates, real_solve_from, real_sinr = core.pinned_rates, algorithms._solve_from, core.sinr
    # the current trial's runs, each {"algorithm", *COUNTS, "stop_reason"}, and the run in progress
    runs, running = [], []

    def add(key, n=1):
        if running:
            running[-1][key] += n

    def run_algorithm(name, *args):
        run = {"algorithm": name, **dict.fromkeys(COUNTS, 0), "stop_reason": "raised"}
        runs.append(run)
        running.append(run)
        try:
            report = real_run(name, *args)
        finally:
            running.pop()
        run["stop_reason"] = report.stop_reason
        return report

    def solve(prog, z0):
        outcome = real_solve(prog, z0)
        add("newton_steps", outcome.newton_step_count)
        add("non_optimal", outcome.status is not engine.SolveStatus.OPTIMAL)
        return outcome

    def solve_from(prog, warm, z0):
        steps = running[-1]["newton_steps"]
        try:
            return real_solve_from(prog, warm, z0)
        finally:
            if warm:  # the first solve: its warm starts' solves count too
                add("first_solve_steps", running[-1]["newton_steps"] - steps)

    def newton_direction(hess, grad):
        add("newton_systems")
        return real_direction(hess, grad)

    def pinned_rates(*args):
        add("rate_calls")
        return real_rates(*args)

    def sinr(*args):
        add("sinr_calls")
        return real_sinr(*args)

    # counts[key][set] holds, per trial, {algorithm: count} of each run
    data, counts = {}, {key: {name: [] for name, _, _ in TRIAL_SETS} for key in COUNTS}
    reasons = {name: [] for name, _, _ in TRIAL_SETS}
    channels = {name: [] for name, _, _ in TRIAL_SETS}
    bench.run_algorithm, algorithms.solve, engine._newton_direction = run_algorithm, solve, newton_direction
    core.pinned_rates, algorithms._solve_from, core.sinr = pinned_rates, solve_from, sinr
    try:
        for name, seed, count in TRIAL_SETS:
            data[name] = []
            for trial in _trials(harness, name, seed, count):
                runs.clear()
                tr = harness.run_paired_trial(trial)
                signatures = {alg: harness.solve_signature(res) for alg, res in tr.solves.items()}
                data[name].append({alg: _jsonable(sig) for alg, sig in signatures.items()})
                for key, by_set in counts.items():
                    by_set[name].append({run["algorithm"]: run[key] for run in runs})
                reasons[name].append({run["algorithm"]: run["stop_reason"] for run in runs})
                channels[name].append(_channel_digest(tr.channels))
    finally:
        bench.run_algorithm, algorithms.solve, engine._newton_direction = real_run, real_solve, real_direction
        core.pinned_rates, algorithms._solve_from, core.sinr = real_rates, real_solve_from, real_sinr
    out.write_text(json.dumps({**data, **counts, "stop_reasons": reasons, "channels": channels}))


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
    runs on set name; "n/a" when either file has none."""
    totals = []
    for data in (before, after):
        runs = data.get(key, {}).get(name)
        if runs is None:
            return "n/a"
        totals.append(sum(run.get(alg, 0) for run in runs))
    return " → ".join(map(str, totals))


def _tallies(before: dict, after: dict, name: str, alg: str) -> str:
    """"old → new" of the stop-reason tallies of alg's runs on set name, each
    "reason:count" joined by commas in reason order; "n/a" when either file
    has none."""
    tallies = []
    for data in (before, after):
        runs = data.get("stop_reasons", {}).get(name)
        if runs is None:
            return "n/a"
        tally = Counter(run[alg] for run in runs if alg in run)
        tallies.append(",".join(f"{reason}:{k}" for reason, k in sorted(tally.items())))
    return " → ".join(tallies)


def compare(old: Path, new: Path) -> bool:
    before, after = json.loads(old.read_text()), json.loads(new.read_text())
    same_everywhere = True
    print(
        f"{'set':<18}{'algorithm':<11}{'identical':>12}{'same path':>12}"
        f"{'same alloc':>12}{'lower trace[-1]':>17}{'max rel EE drift':>18}"
        + "".join(f"  {head:<16}" for head in COUNTS.values())
        + "  stop reasons"
    )
    for name, _, _ in TRIAL_SETS:
        if name not in before or name not in after:  # a file written before the set was added
            print(f"{name:<18}not in both files")
            same_everywhere = False
            continue
        pairs = list(zip(before[name], after[name], strict=True))
        digests = [data.get("channels", {}).get(name) for data in (before, after)]
        if None in digests:
            print(f"{name:<18}channels n/a")
        else:
            same_channels = sum(a == b for a, b in zip(*digests, strict=True))
            same_everywhere &= same_channels == len(pairs)
            print(f"{name:<18}channels identical {same_channels}/{len(pairs)}")
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
            totals = "".join(f"  {_old_new(before, after, key, name, alg):<16}" for key in COUNTS)
            reasons = _tallies(before, after, name, alg)
            print(f"{name:<18}{alg:<11}{counts}{f'{lower}/{len(pairs)}':>17}{drift:>18.3g}{totals}  {reasons}")
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
