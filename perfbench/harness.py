"""Workload plans, the paired trial and its output checks.

Importing this module pins BLAS to one thread and puts the checkout's own
`src/` first on `sys.path`, so the benchmark always measures the source tree
it sits in and never an installed copy. A checkout without `src/uavee`
raises `MissingProgramError`.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINNING)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgramError(ImportError):
    """The checkout holds no `src/uavee` to measure."""


if not (SRC / "uavee" / "__init__.py").is_file():
    raise MissingProgramError(f"no uavee package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import uavee  # noqa: E402
from uavee import algorithms, bench  # noqa: E402
from uavee.scenario import ScenarioConfig  # noqa: E402

if Path(uavee.__file__).resolve().parent != SRC / "uavee":
    raise MissingProgramError(f"imported uavee from {uavee.__file__}, not {SRC}")

ALGORITHMS = algorithms.ALGORITHM_NAMES  # ("jhtpa", "opa", "oht")
LN2 = math.log(2.0)

# Criterion-8 feasibility tolerance and the criterion-2 trace slack.
FEAS_REL_TOL = 1e-8
TRACE_SLACK = 1e-9
# Allowed disagreement between the reported EE and the EE the benchmark
# recomputes from the reported allocation (oht reports a closed form).
EE_CONSISTENCY_REL = 1e-9
# Harvesting-time grid for the per-trial EE scale (see reference_ee).
_THETA_GRID = np.geomspace(1.0 + 1e-3, 1e3, 400)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trial:
    """One paired trial: the child-seeded config every algorithm solves."""

    index: int
    label: str
    config: ScenarioConfig


@dataclass(frozen=True)
class Workload:
    """A fixed round-robin mix of base configs, expanded into trials by seed.

    Trial i uses base config mix[i % len(mix)] and the child seed
    bench.derive_child_seed(seed, num_pairs, i), so trial i of a workload
    is bench.run_trial(base, num_pairs, i, ...) on the same realization.
    trials_per_s is this workload's rate on a 2-core x86 host at the
    commit that introduced the benchmark; it only sizes the trial sets.
    """

    name: str
    why: str
    mix: tuple[tuple[str, ScenarioConfig], ...]
    trials_per_s: float

    def trial(self, seed: int, index: int) -> Trial:
        label, base = self.mix[index % len(self.mix)]
        child = bench.derive_child_seed(seed, base.num_pairs, index)
        return Trial(index, label, dataclasses.replace(base, seed=child))

    def round_up(self, count: int) -> int:
        """Smallest whole number of mix rounds holding at least count trials."""
        k = len(self.mix)
        return max(k, -(-count // k) * k)

    def quality_trials(self, seconds: float, min_trials: int = 100) -> int:
        """Size of the fixed trial set behind the deterministic metrics.

        At least min_trials, so each algorithm's p90 has ten samples beyond
        it, and about 70% of what one run completes at the sizing rate.
        """
        return self.round_up(max(min_trials, math.ceil(0.7 * seconds * self.trials_per_s)))

    def trace_trials(self, seconds: float) -> int:
        """Size of the traced run's trial set: one untraced plus one traced
        pass of it take about `seconds` at the sizing rate."""
        return self.round_up(math.ceil(0.4 * seconds * self.trials_per_s))


def _base(num_pairs: int, **physics) -> ScenarioConfig:
    return ScenarioConfig(num_pairs=num_pairs, seed=0, **physics)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_sweep",
            "the paper's N=2-10 sweep as uavee run draws it; engine and oracles dominate",
            tuple((f"n{n}", _base(n)) for n in range(2, 11)),
            trials_per_s=11.0,
        ),
        Workload(
            "dense_n30",
            "N=30: 31-dim Newton systems with 61 constraints, where arithmetic growing with N shows",
            (("n30", _base(30)),),
            trials_per_s=8.0,
        ),
        Workload(
            "feasibility_edge",
            "valid edge configs where opa exhausts its random search and theta_fix=1.01 trips jhtpa",
            (
                ("one_pair", _base(1)),
                ("radius_5000", _base(5, coverage_radius_m=5000.0)),
                ("noise_-80", _base(5, noise_density_dbm_hz=-80.0)),
                ("theta_1.01", _base(5, theta_fix=1.01)),
            ),
            trials_per_s=2.7,
        ),
    )
}


def plan(workload: Workload, seed: int, count: int) -> list[Trial]:
    return [workload.trial(seed, i) for i in range(count)]


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# calibration_ms() on an otherwise idle core of a 2-core x86 host; scaled
# times read as if the host always ran at that speed.
NOMINAL_CAL_MS = 1.5
_CAL_MATRIX = np.eye(11) * 11.0 + np.outer(np.arange(1.0, 12.0), np.arange(1.0, 12.0)) / 11.0
_CAL_RHS = np.ones(11)


def calibration_ms() -> float:
    """Wall time of a fixed kernel shaped like the engine's inner loop:
    small Cholesky solves, elementwise numpy and Python float arithmetic."""
    started = time.perf_counter()
    acc = 0.0
    for _ in range(60):
        chol = np.linalg.cholesky(_CAL_MATRIX)
        y = np.linalg.solve(chol.T, np.linalg.solve(chol, _CAL_RHS))
        acc += float(np.sum(np.log1p(np.abs(y))) / np.max(y))
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel diverged")
    return (time.perf_counter() - started) * 1e3


def at_nominal_speed(wall: float, before_ms: float, after_ms: float) -> float:
    """A wall time scaled by the nominal kernel time over the mean of the
    kernel times measured just before and just after it."""
    return wall * 2.0 * NOMINAL_CAL_MS / (before_ms + after_ms)


# ---------------------------------------------------------------------------
# the paired trial
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    algorithm: str
    ms: float
    report: object | None  # uavee SolveReport, or None when the call raised
    error: BaseException | None
    reasons: tuple[str, ...] = ()  # why the solve counts as failed; empty if not

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


@dataclass
class TrialResult:
    trial: Trial
    scenario_ms: float
    channels: object  # uavee ChannelRealization
    solves: dict[str, SolveResult]
    calibration_ms: list[float]  # kernel times before each solve and after the last


def run_paired_trial(trial: Trial, calibrate: bool = False) -> TrialResult:
    """The path bench.run_trial takes, timed per call.

    Every program function is looked up on uavee.bench at call time, so a
    tracer that wraps those names sees these calls the way run_trial's do.
    With calibrate, the host-speed kernel runs (untimed by the solves)
    before each solve and after the last one.
    """
    config = trial.config
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    placement = bench.generate_placement(config, rng)
    ch = bench.realize_channels(placement, config, rng)
    scenario_ms = (time.perf_counter() - started) * 1e3
    solves = {}
    calibration = []
    for name in ALGORITHMS:
        if calibrate:
            calibration.append(calibration_ms())
        t0 = time.perf_counter()
        try:
            report, error = bench.run_algorithm(name, ch, config, None), None
        except Exception as exc:  # every raise is a failed solve, recorded below
            report, error = None, exc
        solves[name] = SolveResult(name, (time.perf_counter() - t0) * 1e3, report, error)
    if calibrate:
        calibration.append(calibration_ms())
    return TrialResult(trial, scenario_ms, ch, solves, calibration)


# ---------------------------------------------------------------------------
# checks: independent numpy formulas, not the program's own
# ---------------------------------------------------------------------------


def _sinr(p: np.ndarray, h: np.ndarray, sigma2: float) -> np.ndarray:
    desired = np.diag(h) * p
    return desired / (h @ p - desired + sigma2)


def _full_harvest_rates(theta: np.ndarray, ch, config) -> np.ndarray:
    """Rates (nats per slot) with every Tx spending its whole harvest; theta
    is a vector, the result is (len(theta), N)."""
    p = (theta[:, None] - 1.0) * config.eta * config.p0_watt * ch.g[None, :]
    desired = np.diag(ch.h)[None, :] * p
    sinr = desired / (p @ ch.h.T - desired + ch.sigma2_watt)
    return np.log1p(sinr) / theta[:, None]


def qos_floor(ch, config) -> float:
    rates = _full_harvest_rates(np.array([config.theta_fix]), ch, config)[0]
    return min(float(np.min(rates)), config.rate_cap_bpshz * LN2)


def reference_ee(ch, config) -> float:
    """Best full-harvest EE (nats/J) over a fixed harvesting-time grid.

    Absolute EE spans orders of magnitude between channel draws, so the
    quality metrics divide each solve's EE by this per-trial scale. It
    depends only on the realization, never on any algorithm's output.
    """
    theta = _THETA_GRID
    rates = _full_harvest_rates(theta, ch, config)
    power = (1.0 - 1.0 / theta) * config.eta * config.p0_watt * (np.sum(ch.g) + 1.0) + config.p_cir_watt
    return float(np.max(np.sum(rates, axis=1) / power))


def failure_reasons(res: SolveResult, ch, config, r_bar: float) -> tuple[str, ...]:
    """Why a solve counts as failed (criteria 2 and 8 of the acceptance suite)."""
    if res.error is not None:
        return (f"raised:{type(res.error).__name__}",)
    rep = res.report
    reasons = []
    if rep.status != "converged":
        reasons.append(f"status:{rep.status}")
    tau, p = rep.allocation.tau, np.asarray(rep.allocation.p, dtype=float)
    budget = tau * config.eta * config.p0_watt * ch.g
    rates = (1.0 - tau) * np.log1p(_sinr(p, ch.h, ch.sigma2_watt))
    caus = np.maximum(0.0, (1.0 - tau) * p - budget) / np.maximum(budget, 1e-300)
    qos = np.maximum(0.0, r_bar - rates) / max(r_bar, 1e-300)
    if not 0.0 <= tau <= 1.0 or not np.all(np.isfinite(p)):
        reasons.append("allocation_out_of_range")
    elif max(float(np.max(caus)), float(np.max(qos))) > FEAS_REL_TOL:
        reasons.append("infeasible")
    if np.any(np.diff(np.asarray(rep.trace, dtype=float)) < -TRACE_SLACK):
        reasons.append("trace_fell")
    if not (math.isfinite(rep.ee_nats_per_joule) and rep.ee_nats_per_joule >= 0.0):
        reasons.append("ee_invalid")
    return tuple(reasons)


def output_errors(tr: TrialResult) -> list[str]:
    """Disagreements between what a report says and what it contains.

    Unlike failure_reasons, which count against the program's success rate,
    any of these makes the benchmark's result incorrect.
    """
    config, ch = tr.trial.config, tr.channels
    errors = []
    where = f"trial {tr.trial.index} ({tr.trial.label}, seed {config.seed})"
    r_bar = qos_floor(ch, config)
    for name, res in tr.solves.items():
        rep = res.report
        if rep is None:
            continue
        p = np.asarray(rep.allocation.p, dtype=float)
        if rep.algorithm != name or p.shape != (config.num_pairs,):
            errors.append(f"{where} {name}: report is for {rep.algorithm} with p of shape {p.shape}")
            continue
        if not math.isclose(rep.r_bar, r_bar, rel_tol=1e-12, abs_tol=1e-300):
            errors.append(f"{where} {name}: r_bar {rep.r_bar!r} != recomputed {r_bar!r}")
        ee = rep.ee_nats_per_joule
        if not math.isclose(rep.ee_bits_per_joule, ee / LN2, rel_tol=1e-15):
            errors.append(f"{where} {name}: bits/J {rep.ee_bits_per_joule!r} != nats/J / ln 2")
        tau = rep.allocation.tau
        if 0.0 <= tau < 1.0 and np.all(np.isfinite(p)):
            rates = (1.0 - tau) * np.log1p(_sinr(p, ch.h, ch.sigma2_watt))
            power = (1.0 - tau) * float(np.sum(p)) + tau * config.eta * config.p0_watt + config.p_cir_watt
            direct = float(np.sum(rates)) / power
            if not math.isclose(ee, direct, rel_tol=EE_CONSISTENCY_REL, abs_tol=1e-300):
                errors.append(f"{where} {name}: EE {ee!r} != {direct!r} from its allocation")
    return errors


def classify(tr: TrialResult) -> None:
    """Fill in each solve's failure reasons."""
    r_bar = qos_floor(tr.channels, tr.trial.config)
    for res in tr.solves.values():
        res.reasons = failure_reasons(res, tr.channels, tr.trial.config, r_bar)


def solve_signature(res: SolveResult):
    """Everything a solve returned that must repeat bit for bit."""
    if res.report is None:
        return ("raised", type(res.error).__name__, str(res.error))
    rep = res.report
    return (
        rep.status,
        rep.ee_nats_per_joule.hex(),
        float(rep.allocation.tau).hex(),
        np.asarray(rep.allocation.p, dtype=float).tobytes(),
        tuple(float(v).hex() for v in rep.trace),
        rep.iterations,
        rep.subsolver_calls,
    )


def trial_signature(tr: TrialResult):
    return tuple(solve_signature(tr.solves[name]) for name in ALGORITHMS)


def describe_failure(tr: TrialResult, res: SolveResult) -> str:
    cfg = tr.trial.config
    line = (
        f"failed solve: trial={tr.trial.index} mix={tr.trial.label} n={cfg.num_pairs} "
        f"child_seed={cfg.seed} algorithm={res.algorithm} check={','.join(res.reasons)}"
    )
    if res.error is not None:
        line += f" error={type(res.error).__name__}: {res.error}"
    return line
