"""Monte Carlo benchmark harness.

Sweeps the number of D2D pairs, runs the requested algorithms on identical
channel realizations per trial (paired comparison), times each solve, and
emits per-run rows plus per-(N, algorithm) aggregates as CSV or JSON.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .algorithms import ALGORITHM_NAMES, ScaSettings, run_algorithm
from .engine import NoFeasiblePointFoundError
from .scenario import ScenarioConfig, generate_placement, realize_channels

CSV_HEADER = (
    "n_pairs,algorithm,trial,seed,ee_nats_per_joule,ee_bits_per_joule,"
    "wall_time_ms,iterations,status"
)

_ALG_ORDER = {name: i for i, name in enumerate(ALGORITHM_NAMES)}


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: which pair counts, how many trials per point, which algorithms."""

    base_config: ScenarioConfig
    pair_counts: tuple[int, ...] = tuple(range(2, 11))
    trials_per_point: int = 100
    algorithms: tuple[str, ...] = ALGORITHM_NAMES

    def __post_init__(self):
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if not self.pair_counts or any(n < 1 for n in self.pair_counts):
            raise ValueError("pair_counts must be nonempty with every entry >= 1")
        unknown = set(self.algorithms) - set(ALGORITHM_NAMES)
        if unknown or not self.algorithms:
            raise ValueError(f"algorithms must be nonempty and known, got {self.algorithms}")
        for name, entries in (("pair_counts", self.pair_counts), ("algorithms", self.algorithms)):
            repeated = sorted({e for e in entries if entries.count(e) > 1})
            if repeated:
                raise ValueError(f"{name} repeats {repeated}")


@dataclass(frozen=True)
class ResultRow:
    n_pairs: int
    algorithm: str
    trial: int
    seed: int
    ee_nats_per_joule: float | None
    ee_bits_per_joule: float | None
    wall_time_ms: float | None
    iterations: int | None
    status: str  # converged | infeasible | failed
    error: str | None = None  # "ClassName: message" of the exception behind a failed row
    stop_reason: str | None = None  # SolveReport.stop_reason; None when the run raised


def derive_child_seed(base_seed: int, n_pairs: int, trial: int) -> int:
    """Stable per-trial seed: first 64-bit word of SeedSequence([base_seed, n_pairs, trial]).

    Pure function of its arguments; the whole sweep is reproducible from the
    base seed alone and any single trial from its row's seed. SeedSequence
    takes integers of any size, so distinct base seeds give distinct sweeps.
    """
    ss = np.random.SeedSequence([base_seed, n_pairs, trial])
    return int(ss.generate_state(1, np.uint64)[0])


def run_trial(
    base_config: ScenarioConfig,
    n_pairs: int,
    trial: int,
    algorithms: tuple[str, ...],
    settings: ScaSettings | None,
) -> list[ResultRow]:
    """Run every requested algorithm on one shared channel realization."""
    seed = derive_child_seed(base_config.seed, n_pairs, trial)
    config = dataclasses.replace(base_config, num_pairs=n_pairs, seed=seed)
    rng = np.random.default_rng(seed)
    placement = generate_placement(config, rng)
    ch = realize_channels(placement, config, rng)

    rows = []
    for name in sorted(algorithms, key=_ALG_ORDER.__getitem__):
        # ResultRow's fields after seed; read in one expression, so a report
        # property that raises leaves none of them set
        try:
            report = run_algorithm(name, ch, config, settings)
            fields = (
                report.ee_nats_per_joule,
                report.ee_bits_per_joule,
                report.wall_time_ms,
                report.iterations,
                "converged" if report.status == "converged" else "failed",
                None,
                report.stop_reason,
            )
        except NoFeasiblePointFoundError:
            fields = (None,) * 4 + ("infeasible", None, None)
        except Exception as exc:
            fields = (None,) * 4 + ("failed", f"{type(exc).__name__}: {exc}", None)
        rows.append(ResultRow(n_pairs, name, trial, seed, *fields))
    return rows


def summarize(rows: list[ResultRow]) -> list[dict]:
    """Per-(n_pairs, algorithm) aggregates; non-converged rows are counted, not averaged.

    stop_reasons counts each SolveReport.stop_reason among the group's rows
    that carry one, failed ones included (a run that raised carries none),
    keyed in name order.
    """
    groups: dict[tuple[int, str], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.n_pairs, row.algorithm), []).append(row)
    out = []
    for (n, alg), members in sorted(groups.items(), key=lambda kv: (kv[0][0], _ALG_ORDER[kv[0][1]])):
        done = [r for r in members if r.status == "converged"]
        ee = [r.ee_nats_per_joule for r in done]
        wall = [r.wall_time_ms for r in done]
        out.append(
            {
                "n_pairs": n,
                "algorithm": alg,
                "n_trials": len(members),
                "n_converged": len(done),
                "n_infeasible": sum(r.status == "infeasible" for r in members),
                "n_failed": sum(r.status == "failed" for r in members),
                "mean_ee_nats_per_joule": statistics.fmean(ee) if ee else None,
                "std_ee_nats_per_joule": statistics.pstdev(ee) if len(ee) > 1 else 0.0 if ee else None,
                "mean_wall_time_ms": statistics.fmean(wall) if wall else None,
                "median_wall_time_ms": statistics.median(wall) if wall else None,
                "stop_reasons": dict(sorted(Counter(r.stop_reason for r in members if r.stop_reason).items())),
            }
        )
    return out


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> tuple[list[ResultRow], list[dict]]:
    """Execute the sweep and return (rows, summary); write_csv and write_json store them.

    Rows come back sorted by (n_pairs, trial, algorithm) regardless of worker
    scheduling. Per-trial algorithm failures become rows, never abort the sweep.
    Raises ValueError when jobs, the worker process count, is below 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [
        (spec.base_config, n, trial, tuple(spec.algorithms), ScaSettings())
        for n in spec.pair_counts
        for trial in range(spec.trials_per_point)
    ]
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing  # its only user; kept off the import path of serial runs

        with multiprocessing.Pool(processes=jobs) as pool:
            nested = pool.starmap(run_trial, tasks)
    else:
        nested = [run_trial(*task) for task in tasks]
    rows = [row for batch in nested for row in batch]
    rows.sort(key=lambda r: (r.n_pairs, r.trial, _ALG_ORDER[r.algorithm]))
    return rows, summarize(rows)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(rows: list[ResultRow], path: str) -> None:
    import csv  # its only user

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = CSV_HEADER.split(",")
        writer.writerow(names)
        for row in rows:
            writer.writerow([_cell(getattr(row, name)) for name in names])


def write_json(rows: list[ResultRow], summary: list[dict], path: str) -> None:
    payload = {
        "rows": [dataclasses.asdict(row) for row in rows],
        "summary": summary,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
