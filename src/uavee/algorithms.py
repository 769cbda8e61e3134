"""The three resource-allocation algorithms.

jhtpa and opa ascend a fractional objective by successive convex
approximation: the nonconcave rate terms are replaced by the affine lower
bound from `core.log_bound_coeffs` at the current iterate, and the resulting
concave subproblem is handed to the log-barrier engine. oht needs no
surrogate: its max-min rate is quasi-concave in the one harvesting-time
variable: a point just below the top of its range scoring lower proves the
top optimal (most trials), and otherwise one batched bracket search finds the
maximizer. jhtpa's start scores the full-harvest EE on a fixed grid at once.

  jhtpa  joint harvesting-time and power allocation in (theta, 1/p) space
  opa    the full-harvest point at theta_fix when a KKT test certifies it,
         else jhtpa's SCA with theta fixed there
  oht    harvesting-time-only max-min rate with full-harvest powers

Both SCA algorithms iterate the one point z = (theta, q_1..q_N), q_n = 1/p_n;
opa marks the entries it holds with a boolean mask over z.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import THETA_GAP, Allocation, FeasibilityReport
from .engine import (
    _FIRST_STAGE_SPAN,
    BARRIER_MU,
    ConvexProgram,
    Functional,
    InfeasibleStartError,
    NoFeasiblePointFoundError,
    SolveStatus,
    find_feasible,
    solve,
)
from .scenario import ChannelRealization, ScenarioConfig

ALGORITHM_NAMES = ("jhtpa", "opa", "oht")

# Constraint scale floor used when the QoS threshold is essentially zero.
_QOS_SCALE_FLOOR = 1e-12

# Initial points must clear the QoS floor by this scaled margin: the SCA
# subproblems re-evaluate the same constraint through the surrogate
# coefficients, whose rounding differs from the direct rate formula by
# ~1e-16, so hair-thin slacks would flip sign between the two forms.
_QOS_FEAS_MARGIN = 1e-13

# Where the start sits on the segment from the full-harvest point (0) to the
# center of the SINR polytope (1); see _interior_powers. Measured on 360
# paper_sweep trials (seed 501): at 0.2 jhtpa and opa both take 2.0
# subproblem solves per run instead of 1.0, and from the center jhtpa takes
# 2.02 and loses 0.13% mean EE. The first subproblem is expanded at this
# start but its barrier starts nearer the face: each free pair at its
# estimated central slack for weight _CENTRAL_T0, never deeper than
# _INTERIOR_DEPTH / BARRIER_MU (see _warm_starts). A shallower start itself
# (1e-4) cut Newton steps by 25% but moved jhtpa's EE by up to 1.4e-4 and
# cost opa up to 2.8% on radius-20 m trials.
_INTERIOR_DEPTH = 0.01

# The barrier weight whose central path the first solve's central start
# aims at (_warm_starts), for jhtpa and opa alike: one BARRIER_MU above the
# top of _first_stage's span. A point central there is nearly central at
# the span's top, 1e4, which the scan then picks on nearly every
# paper-regime solve (aiming jhtpa at 1e7 made 18 of 40 dense_n30 first
# solves end short of OPTIMAL).
_CENTRAL_T0 = BARRIER_MU ** (_FIRST_STAGE_SPAN + 1)

# A full-harvest point whose scaled QoS deficit stays below this is accepted
# as weakly feasible when no strict interior point passes the check.
_BOUNDARY_TOL = 1e-9

# SolveReport.status of the stop reasons that are not "converged". opa stops
# at kkt_certified when its full-harvest vertex passes the KKT test before
# any SCA solve (0 iterations, trace [EE]; see opa). jhtpa and opa's SCA stop
# for one of: boundary_fallback (the start is the full-harvest point,
# 0 iterations), infeasible_start (the subsolver rejected the iterate, and on
# the first step also both warm starts, as starts of its own surrogate),
# numerical_failure, non_improving (a step lowered the EE; the better iterate
# is kept), epsilon (ee_new - ee <= ScaSettings.epsilon * ee_new) or
# max_iterations. oht always stops at epsilon, its search's bracket
# tolerance.
_STOP_STATUS = {"numerical_failure": "failed", "max_iterations": "max_iterations"}

# Unless its top check ends it (see oht), oht searches the harvesting time on
# [1 + THETA_GAP, _OHT_THETA_MAX] with _log_bracket_max, _OHT_GRID points per
# level, until the bracket is _THETA_TOL wide relative to its upper end's theta.
_OHT_THETA_MAX = 1e3
_OHT_GRID = 33
_THETA_TOL = 1e-10


@dataclass(frozen=True)
class ScaSettings:
    """The SCA stopping rule jhtpa and opa share (oht does not iterate).

    epsilon is applied as a relative change test on successive objective
    values, ee_new - ee <= epsilon * ee_new. The start's EE is positive and
    an accepted step never lowers it, so the test is scale-free: the same
    run stops at the same step whatever unit the powers are given in. Trace
    monotonicity does not rest on subsolver accuracy: steps that fail to
    improve the true objective are rejected outright. epsilon must be a
    finite real >= 0 and max_iterations an int >= 1 (not a bool): a NaN or
    negative epsilon would pass no step's test, and a count of 0 or 2.5
    would run no step or raise mid-run.
    """

    epsilon: float = 1e-2
    max_iterations: int = 100

    def __post_init__(self):
        eps, count = self.epsilon, self.max_iterations
        if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not 0.0 <= eps < math.inf:
            raise ValueError(f"epsilon must be a finite real >= 0, got {eps!r}")
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(f"max_iterations must be an int >= 1, got {count!r}")


@dataclass(slots=True)
class SolveReport:
    """Outcome of one algorithm run on one channel realization. status,
    iterations, subsolver_calls, ee_nats_per_joule and r_bar derive from
    stop_reason (_STOP_STATUS), trace (the objective at the start and after
    each accepted step; two exits reject one more solved step), the
    allocation and the instance. A kkt_certified opa run made no SCA step:
    its trace is [EE], with 0 iterations and 0 subsolver calls."""

    algorithm: str
    allocation: Allocation
    wall_time_ms: float
    trace: list[float]
    stop_reason: str
    channels: ChannelRealization = field(repr=False, compare=False)
    config: ScenarioConfig = field(repr=False, compare=False)

    @property
    def status(self) -> str:
        return _STOP_STATUS.get(self.stop_reason, "converged")

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1

    @property
    def subsolver_calls(self) -> int:
        return self.iterations + (self.stop_reason in ("non_improving", "numerical_failure"))

    @property
    def ee_nats_per_joule(self) -> float:
        return core.energy_efficiency(self.allocation, self.channels, self.config)

    @property
    def r_bar(self) -> float:
        return core.qos_threshold(self.channels, self.config)

    @property
    def ee_bits_per_joule(self) -> float:
        return self.ee_nats_per_joule / core.LN2

    @property
    def feasibility(self) -> FeasibilityReport:
        """The allocation checked against the original problem, on demand."""
        return core.check_feasible(self.allocation, self.channels, self.config, self.r_bar)

    def to_json(self, include_trace: bool = False) -> str:
        feasibility = self.feasibility
        data = {
            "algorithm": self.algorithm,
            "tau": self.allocation.tau,
            "p_watt": self.allocation.p.tolist(),
            "ee_nats_per_joule": self.ee_nats_per_joule,
            "ee_bits_per_joule": self.ee_bits_per_joule,
            "iterations": self.iterations,
            "subsolver_calls": self.subsolver_calls,
            "wall_time_ms": self.wall_time_ms,
            "status": self.status,
            "stop_reason": self.stop_reason,
            "r_bar": self.r_bar,
            "causality_violation": feasibility.causality_violation.tolist(),
            "qos_violation": feasibility.qos_violation.tolist(),
            "tau_in_range": feasibility.tau_in_range,
        }
        if include_trace:
            data["trace"] = list(self.trace)
        return json.dumps(data)


# Monotone extrapolation along the SCA step: candidate amplifications tried in
# order, keeping the last one that still improves the true objective. Low-SINR
# realizations push theta toward saturation and the plain surrogate maximizer
# only multiplies (theta - 1) by ~sqrt(theta/(theta-1)) per iteration, far too
# slow for a 100-iteration budget; the safeguard climbs that ladder
# exponentially while never accepting a worse or infeasible point.
_EXTRAPOLATION_POWERS = tuple(float(2**j) for j in range(1, 11))

# jhtpa's theta stays at or below _THETA_CAP: its start scans the full-harvest
# face at theta_fix and at the _FACE_GRID thetas of _FACE_THETAS, whose
# theta - 1 is log-spaced over [1e-3, _THETA_CAP - 1] (_face_theta), and the
# extrapolation stops there.
_THETA_CAP = 1e6
_FACE_GRID = 128
_FACE_THETAS = 1.0 + np.geomspace(1e-3, _THETA_CAP - 1.0, _FACE_GRID)


# ---------------------------------------------------------------------------
# feasible start
# ---------------------------------------------------------------------------


def _violation(theta, p: np.ndarray, ch, config, r_bar: float):
    """Largest constraint value of (theta, p) in the original problem, or of
    each (theta_k, p_k) when theta is a (K,) array and p a (K, N) one.

    The rows, each scaled to O(1), are the theta guard, energy causality
    p_n / p_max_n - 1 and QoS (theta r_bar - ln(1 + SINR_n)) / (theta r_bar)
    plus _QOS_FEAS_MARGIN.
    Negative iff (theta, p) is strictly feasible with that margin; NaN
    propagates, and a zero p_max (an underflowed UAV gain) gives a NaN row.
    Each of a batch's values equals that (theta_k, p_k)'s alone, bit for
    bit: core.sinr handles each row as it handles one p, and the rest is
    elementwise or a max over the row.
    """
    theta = np.asarray(theta)
    p_max = core.pinned_powers(theta[..., None], ch, config)
    qos_rhs = theta[..., None] * r_bar
    qos = (qos_rhs - np.log1p(core.sinr(p, ch))) / np.maximum(qos_rhs, _QOS_SCALE_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        pairs = np.maximum(p / p_max - 1.0, qos + _QOS_FEAS_MARGIN)
    return np.maximum((1.0 + THETA_GAP) - theta, pairs.max(axis=-1))


def _interior_powers(ch, config, r_bar: float, theta: float) -> np.ndarray:
    """Transmit powers strictly inside the SINR polytope at harvesting time theta.

    At fixed theta the QoS rows ln(1 + SINR_n) >= theta r_bar are linear in
    p. With x = p / p_max and gamma = expm1(theta r_bar) they read
    (I - G) x >= b, where G_ni = gamma h_ni p_max_i / (h_nn p_max_n) off the
    diagonal and b = gamma sigma2 / (h_nn p_max). One solve of
    (I - G) [x_min, m1] = [b, 1] gives the minimal-power point x_min
    (Foschini & Miljanic, IEEE TVT 1993) and the direction m1 along which
    every QoS row gains slack at unit rate; m1 > 0 certifies that G's
    spectral radius is below one. With eps* = min_n (1 - x_min_n) / m1_n,
    the largest step that keeps x <= 1, the center x_c = x_min + eps*/2 m1
    clears every QoS row and every causality row. The result
    p = (1 - delta (1 - x_c)) p_max, delta = _INTERIOR_DEPTH, lies on the
    segment from x_c to full harvest x = 1, so it is strictly feasible
    whenever full harvest is weakly feasible, as it is at theta_fix by the
    definition of the QoS floor and at _face_theta by its choice.

    p is NaN when gamma overflows, x_min < 0, m1 <= 0 or delta eps*/2 <=
    _QOS_FEAS_MARGIN: at theta_fix the QoS rows' slack at p is about
    delta eps*/2 (in units of x), and a thinner interior could not clear
    the margin the start is checked against, nor be resolved in floating
    point.
    """
    p_max = core.pinned_powers(theta, ch, config)
    gamma = math.inf  # math.expm1: np.expm1 rounds differently
    with contextlib.suppress(OverflowError):
        gamma = math.expm1(theta * r_bar)
    with np.errstate(all="ignore"):
        scale = gamma / (np.diag(ch.h) * p_max)
        system = -(scale[:, None] * ch.h * p_max)
        system.flat[:: ch.num_pairs + 1] = 1.0
        rhs = np.column_stack((scale * ch.sigma2_watt, np.ones_like(scale)))
        try:
            sol = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:  # an exact zero pivot: no candidate
            sol = np.full(rhs.shape, np.nan)
        x_min, m1 = sol[:, 0], sol[:, 1]
        eps = ((1.0 - x_min) / m1).min(initial=math.inf)
        ok = (x_min >= 0.0).all() and (m1 > 0.0).all() and 0.5 * _INTERIOR_DEPTH * eps > _QOS_FEAS_MARGIN
        x_c = x_min + 0.5 * eps * m1
        p = (1.0 - _INTERIOR_DEPTH * (1.0 - x_c)) * p_max
    return p if ok else np.full_like(p, np.nan)


def _log_bracket_max(values, lo: float, hi: float, points: int):
    """(theta, value) of the best theta a batched search finds for values.

    values maps an array of theta to their objective values. Each level
    evaluates it at points thetas with theta - 1 log-spaced over [lo, hi],
    then shrinks [lo, hi] to the neighbours of the level's best point; the
    search stops once that bracket is _THETA_TOL wide relative to its upper
    end's theta. This finds the maximizer of a quasi-concave objective (Boyd
    & Vandenberghe, Convex Optimization, sec. 3.4): its superlevel sets are
    intervals, so the maximizer lies between the best grid point's
    neighbours (a best end keeps its one neighbour). oht tests the top of
    its range before it searches, so the search has no top test of its own.
    The first best point wins ties; theta is NaN and value -inf when every
    point scores -inf.
    """
    best_theta, best = math.nan, -math.inf
    while True:
        tm1 = np.geomspace(lo, hi, points)
        vals = values(1.0 + tm1)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best_theta, best = float(1.0 + tm1[i]), float(vals[i])
        lo, hi = tm1[max(i - 1, 0)], tm1[min(i + 1, points - 1)]
        if hi - lo <= _THETA_TOL * (1.0 + hi):
            return best_theta, best


def _face_theta(ch, config, r_bar: float) -> float:
    """jhtpa's start theta: of _FACE_THETAS and theta_fix, scored in one rate
    call, the one whose full-harvest point has the highest EE while every
    pair's rate meets r_bar. theta_fix, whose full-harvest rates define the
    floor, is not masked, so it always qualifies, and it wins ties."""
    thetas = np.append(_FACE_THETAS, config.theta_fix)
    rates = core.pinned_rates(thetas[:, None], ch, config)
    ee = rates.sum(axis=-1) / core.pinned_total_power(thetas, ch, config)
    ee[:-1] = np.where((rates[:-1] >= r_bar).all(axis=-1), ee[:-1], -math.inf)
    i = int(np.argmax(ee))
    return float(thetas[i]) if ee[i] > ee[-1] else config.theta_fix


def _start(ch, config, r_bar: float, theta: float) -> tuple[float, np.ndarray, bool]:
    """The starting (theta, p) of jhtpa and opa and whether it is strictly feasible.

    theta is jhtpa's _face_theta or opa's theta_fix. The one candidate is
    _interior_powers there, proposed once to find_feasible, which accepts it
    when _violation is negative (NaN is not). It is the first SCA iterate,
    where the first surrogate is expanded; that surrogate's barrier solve
    starts closer to the full-harvest face (_warm_starts).
    When it fails, the QoS floor can pin the feasible set to (a
    neighborhood of) the full-harvest point at theta; that point is
    returned, flagged not strict, when it is weakly feasible, and
    NoFeasiblePointFoundError is raised otherwise.
    """

    def violation(v):
        return _violation(v[0], v[1:], ch, config, r_bar)

    candidate = np.append(theta, _interior_powers(ch, config, r_bar, theta))
    try:
        v = find_feasible(violation, lambda rng, k: candidate)
        return float(v[0]), v[1:], True
    except NoFeasiblePointFoundError:
        p = core.pinned_powers(theta, ch, config)
        if not _violation(theta, p, ch, config, r_bar) < _BOUNDARY_TOL:
            raise
        return theta, p, False


# ---------------------------------------------------------------------------
# JHTPA: joint harvesting time and power allocation
# ---------------------------------------------------------------------------


def _jhtpa_coefficients(z_bar: np.ndarray, phi: float, ch, config, r_bar: float):
    """jhtpa's surrogate program at the iterate z_bar = (theta, q_1..q_N),
    q_n = 1/p_n, with Dinkelbach multiplier phi (the iterate's EE), as
    coefficient arrays over z = (theta, q): the rows c(z) = c0 + lin @ z +
    rec @ (1/z) and the objective f0 + f_lin @ z + (f_rec + f_cpl / theta) @
    (1/z), returned as ((c0, lin, rec), (f0, f_lin, f_rec, f_cpl)).

    The program maximizes the Dinkelbach surplus sum psi_n - phi *
    linearized-power (negated for the minimizing engine) subject to theta >
    1, per-pair energy causality 1/q_n <= (theta-1)*eta*P0*g_n, and psi_n >=
    r_bar. psi_n is the affine rate bound with x_n = q_n/h_nn, y_n =
    sum_{i!=n} h_ni/q_i + sigma2, t = theta; causality and QoS rows are
    rescaled to O(1). Every row is convex where rec >= 0 and z > 0.

    With s = max(r_bar, _QOS_SCALE_FLOOR), QoS row n is k0_n + k1_n q_n +
    sum_i W_ni / q_i + k2_n theta with k0 = (r_bar - a + cy sigma2) / s,
    k1 = cx / (h_nn s), W = cy off / s and k2 = ct / s. f_cpl carries phi on
    the q entries (the linearized power's sum(1/q) / theta). The objective's
    coefficients carry its O(1) normalization.
    """
    theta_bar, q_bar = float(z_bar[0]), z_bar[1:]
    n = q_bar.size
    diag = np.arange(n)
    hd = ch.h.diagonal()
    off = ch.h.copy()
    off[diag, diag] = 0.0
    s2 = ch.sigma2_watt
    ep = config.eta * config.p0_watt
    cap = ep * ch.g  # causality scale: p_n <= (theta-1) * cap_n

    coeffs = core.log_bound_coeffs(q_bar / hd, off @ (1.0 / q_bar) + s2, theta_bar)
    a_const, cx, cy, ct = coeffs.const_term, coeffs.cx, coeffs.cy, coeffs.ct
    qos_scale = max(r_bar, _QOS_SCALE_FLOOR)

    # rows: theta guard, causality 1 - theta + 1/(cap q), QoS
    c0 = np.concatenate(([1.0 + THETA_GAP], np.ones(n), (r_bar - a_const + cy * s2) / qos_scale))
    lin = np.zeros((2 * n + 1, n + 1))
    lin[: n + 1, 0] = -1.0
    lin[n + 1 :, 0] = ct / qos_scale
    lin[n + 1 + diag, 1 + diag] = cx / (hd * qos_scale)
    rec = np.zeros((2 * n + 1, n + 1))
    rec[1 + diag, 1 + diag] = 1.0 / cap
    rec[n + 1 :, 1:] = cy[:, None] * off / qos_scale

    # Normalize the surplus to O(1): sum rates can sit many decades below one,
    # and the engine's decrement tolerances are absolute in objective units.
    phi = float(phi)
    inv_obj = 1.0 / max(float(np.sum(core.rates_from_inverse(theta_bar, q_bar, ch))), 1e-300)
    f0 = inv_obj * (
        phi * ((1.0 - 2.0 / theta_bar) * ep + config.p_cir_watt) - float(np.sum(a_const - cy * s2))
    )
    f_lin = inv_obj * np.concatenate(([float(np.sum(ct)) + phi * ep / theta_bar**2], cx / hd))
    f_rec = inv_obj * np.concatenate(([0.0], off.T @ cy))
    f_cpl = inv_obj * np.concatenate(([0.0], np.full(n, phi)))
    return (c0, lin, rec), (f0, f_lin, f_rec, f_cpl)


def _subproblem(rows, objective: Functional) -> ConvexProgram:
    """The ConvexProgram of _jhtpa_coefficients' rows on the open domain z > 0
    (theta > 1 + THETA_GAP is the theta guard row, and the engine evaluates
    the objective only where every row is negative).

    Row j is c0_j + lin_j @ z + rec_j @ (1/z): its Jacobian is lin - rec /
    z^2 and sum_j w_j hess(c_j) is the diagonal 2 (rec^T w) / z^3.
    """
    c0, lin, rec = rows
    dim = lin.shape[1]

    def weighted_hessian(z: np.ndarray, w: np.ndarray) -> np.ndarray:
        out = np.zeros((dim, dim))
        out.flat[:: dim + 1] = 2.0 * (w @ rec) / z**3
        return out

    return ConvexProgram(
        objective=objective,
        domain_guard=lambda z: bool(0.0 < z.min() and z.max() < math.inf),
        constraint_values=lambda z: c0 + lin @ z + rec @ (1.0 / z),
        constraint_jacobian=lambda z: lin - rec / (z * z),
        constraint_hessian_weighted=weighted_hessian,
    )


def build_jhtpa_subproblem(
    z_bar: np.ndarray,
    phi: float,
    ch: ChannelRealization,
    config: ScenarioConfig,
    r_bar: float,
) -> ConvexProgram:
    """Convex program over z = (theta, q_1..q_N), q_n = 1/p_n, at the iterate
    z_bar with Dinkelbach multiplier phi, its EE (see _jhtpa_coefficients)."""
    rows, (f0, f_lin, f_rec, f_cpl) = _jhtpa_coefficients(z_bar, phi, ch, config, r_bar)
    dim = z_bar.size

    def obj_value(z: np.ndarray) -> float:
        r = 1.0 / z
        return f0 + float(f_lin @ z + (f_rec + f_cpl * float(r[0])) @ r)

    def obj_grad(z: np.ndarray) -> np.ndarray:
        r = 1.0 / z
        r0 = float(r[0])
        out = f_lin - (f_rec + f_cpl * r0) * (r * r)
        out[0] -= r0 * r0 * float(f_cpl @ r)
        return out

    def obj_hess(z: np.ndarray) -> np.ndarray:
        r = 1.0 / z
        r0 = float(r[0])
        out = np.zeros((dim, dim))
        out[0] = out[:, 0] = f_cpl * (r0 * r) ** 2
        out.flat[:: dim + 1] = 2.0 * (f_rec + f_cpl * r0) * r**3
        out[0, 0] = 2.0 * r0**3 * float(f_cpl @ r)
        return out

    return _subproblem(rows, Functional(obj_value, obj_grad, obj_hess))


def _jhtpa_extrapolate(z_bar, z_new, phi_new, score, ch, config, r_bar):
    """Geometrically extend the harvesting-time step while the true EE, score(z),
    improves.

    Candidates scale (theta - 1) by the accepted step's ratio raised to
    doubling powers while holding each pair's position relative to its
    causality bound fixed, i.e. they track the harvest-budget boundary the
    optimizer rides. The candidates up to the first theta outside (1 +
    THETA_GAP, _THETA_CAP] are checked in one batched _violation call; in
    order, each must be strictly feasible and score above the best so far,
    and the first that is not ends the ladder. So ascent and feasibility are
    preserved.
    """
    cap = config.eta * config.p0_watt * ch.g
    theta_bar = float(z_bar[0])
    theta_new = float(z_new[0])
    ratio_t = (theta_new - 1.0) / (theta_bar - 1.0)
    slack_u = z_new[1:] * (theta_new - 1.0) * cap  # >= 1, distance off the bound
    thetas = []
    for s in _EXTRAPOLATION_POWERS:
        theta_e = 1.0 + (theta_bar - 1.0) * ratio_t**s  # float **: numpy's array ** rounds differently
        if not 1.0 + THETA_GAP < theta_e <= _THETA_CAP:  # NaN and inf fail too
            break
        thetas.append(theta_e)
    best_z, best_phi = z_new, phi_new
    if not thetas:
        return best_z, best_phi
    batch = np.array(thetas)
    q_e = slack_u / ((batch[:, None] - 1.0) * cap)  # _violation rejects a non-finite or zero q_e
    feasible = _violation(batch, 1.0 / q_e, ch, config, r_bar) < 0.0
    for theta, q, ok in zip(thetas, q_e, feasible):
        if not ok:
            break
        z_e = np.concatenate(([theta], q))
        phi_e = score(z_e)
        if phi_e <= best_phi:
            break
        best_z, best_phi = z_e, phi_e
    return best_z, best_phi


def jhtpa(
    ch: ChannelRealization, config: ScenarioConfig, settings: ScaSettings | None = None
) -> SolveReport:
    """Joint harvesting-time and power allocation (Algorithm-1-style SCA loop).

    Starts from the closed-form interior point (see _start) at
    _face_theta's harvesting time, the best scanned full-harvest point, then
    alternates between building the surrogate convex program at the current
    iterate and solving it, updating the Dinkelbach multiplier with the true
    energy efficiency, until the relative change drops below epsilon. Each
    accepted step is extended by the monotone extrapolation safeguard.
    Raises NoFeasiblePointFoundError when no feasible start exists for this
    realization's QoS floor, or when the start's EE is not positive.
    """
    started = time.perf_counter()
    r_bar = core.qos_threshold(ch, config)
    return _sca_loop("jhtpa", ch, config, r_bar, settings, started, _face_theta(ch, config, r_bar))


# ---------------------------------------------------------------------------
# OPA: power allocation at fixed harvesting time
# ---------------------------------------------------------------------------


def build_opa_subproblem(
    z_bar: np.ndarray,
    phi: float,
    ch: ChannelRealization,
    config: ScenarioConfig,
    r_bar: float,
) -> ConvexProgram:
    """jhtpa's subproblem at the iterate z_bar = (theta, q) with theta fixed,
    over q = 1/p.

    phi is z_bar's EE. _jhtpa_coefficients is taken at z_bar; theta's
    column folds into the constants (its rec and f_rec entries are zero),
    and the theta guard row is dropped. Each causality row reads q_n >=
    1/p_max_n at theta = z_bar[0]. With f_cpl / theta folded into f_rec the
    objective f0 + f_lin @ q + f_rec @ (1/q) is separable.
    """
    (c0, lin, rec), (f0, f_lin, f_rec, f_cpl) = _jhtpa_coefficients(z_bar, phi, ch, config, r_bar)
    theta = z_bar[0]
    c0 = c0[1:] + lin[1:, 0] * theta
    lin, rec = lin[1:, 1:], rec[1:, 1:]
    f0 += float(f_lin[0] * theta)
    f_lin, f_rec, dim = f_lin[1:], f_rec[1:] + f_cpl[1:] / theta, z_bar.size - 1

    def obj_hess(q: np.ndarray) -> np.ndarray:
        out = np.zeros((dim, dim))
        out.flat[:: dim + 1] = 2.0 * f_rec / q**3
        return out

    objective = Functional(
        lambda q: f0 + float(f_lin @ q + f_rec @ (1.0 / q)), lambda q: f_lin - f_rec / (q * q), obj_hess
    )
    return _subproblem((c0, lin, rec), objective)


def _kkt_certified(alloc: Allocation, ee: float, ch: ChannelRealization) -> bool:
    """Whether alloc, whose EE is ee, raises its EE with every pair's power:
    ee > 0 and dR/dp_k > ee for every k (core.sum_rate_gradient), as
    dEE/dp_k = (dR/dp_k - EE) / (theta P) with R the sum of ln(1 + SINR)
    and P the total power. NaN fails."""
    return ee > 0.0 and bool((core.sum_rate_gradient(alloc.p, ch) > ee).all())


def opa(
    ch: ChannelRealization, config: ScenarioConfig, settings: ScaSettings | None = None
) -> SolveReport:
    """Power-only allocation at the fixed harvesting time config.theta_fix.

    It first tests the full-harvest vertex p = p_max(theta_fix). There
    every causality row p_k <= p_max_k is active, those rows are linearly
    independent, and every QoS row holds by the floor's definition. So if
    every dEE/dp_k is positive (_kkt_certified), the causality multipliers
    are those derivatives, all strictly positive, and the QoS multipliers
    are zero: a KKT point whose critical cone is {0}, hence a strict local
    maximizer (Nocedal & Wright, Numerical Optimization, Thm 12.6). opa
    reports it with stop_reason kkt_certified and no SCA step.

    Otherwise opa runs jhtpa's SCA on z = (theta, q) with theta fixed
    (build_opa_subproblem). Raises NoFeasiblePointFoundError as jhtpa does.
    """
    started = time.perf_counter()
    theta_fix = config.theta_fix
    vertex = core.pinned_allocation(theta_fix, ch, config)
    ee = core.energy_efficiency(vertex, ch, config)
    if _kkt_certified(vertex, ee, ch):
        return SolveReport(
            algorithm="opa",
            allocation=vertex,
            wall_time_ms=(time.perf_counter() - started) * 1e3,
            trace=[ee],
            stop_reason="kkt_certified",
            channels=ch,
            config=config,
        )
    r_bar = core.qos_threshold(ch, config)
    return _sca_loop("opa", ch, config, r_bar, settings, started, theta_fix, np.arange(ch.num_pairs + 1) > 0)


# ---------------------------------------------------------------------------
# OHT: harvesting-time-only max-min rate
# ---------------------------------------------------------------------------


def oht(ch: ChannelRealization, config: ScenarioConfig) -> SolveReport:
    """Harvesting-time-only max-min rate with powers pinned to the harvest budget.

    Each full-harvest rate ln(1 + SINR_n(theta)) / theta is a concave
    function of theta - 1 over a positive affine one, hence quasi-concave,
    and so is their minimum (Boyd & Vandenberghe, Convex Optimization,
    sec. 3.4). One rate call scores theta_fix, the top of the range
    [1 + THETA_GAP, _OHT_THETA_MAX] and a probe _THETA_TOL below it. A probe
    below the top (most trials: the rate still rises there) proves the top
    optimal; otherwise (NaN too) _log_bracket_max searches the range.
    theta_fix is kept when the answer scores lower, so the allocation never
    drops below the QoS floor derived there. The trace holds the max-min
    objective (nats per slot) at theta_fix and at the answer. Raises
    NoFeasiblePointFoundError when the answer's max-min rate is not positive.
    """
    started = time.perf_counter()

    def min_rate(thetas: np.ndarray) -> np.ndarray:
        return core.pinned_rates(thetas[:, None], ch, config).min(axis=-1)

    theta_fix, hi = float(config.theta_fix), _OHT_THETA_MAX - 1.0
    theta = 1.0 + hi
    thetas = np.array([theta_fix, theta - _THETA_TOL * theta, theta])
    obj_fix, obj_probe, obj = map(float, min_rate(thetas))
    if not obj_probe < obj:  # NaN too: only a rate rising at the top skips the search
        theta, obj = _log_bracket_max(min_rate, THETA_GAP, hi, _OHT_GRID)
    if obj < obj_fix:
        theta, obj = theta_fix, obj_fix
    if not obj > 0.0:
        raise NoFeasiblePointFoundError(f"oht's best max-min rate is {obj}, not positive")
    return SolveReport(
        algorithm="oht",
        allocation=core.pinned_allocation(theta, ch, config),
        wall_time_ms=(time.perf_counter() - started) * 1e3,
        trace=[obj_fix, obj],
        stop_reason="epsilon",
        channels=ch,
        config=config,
    )


# ---------------------------------------------------------------------------
# shared SCA loop and reporting
# ---------------------------------------------------------------------------


def _sca_loop(
    name: str,
    ch: ChannelRealization,
    config: ScenarioConfig,
    r_bar: float,
    settings: ScaSettings | None,
    started: float,
    theta: float,
    free: np.ndarray | None = None,
) -> SolveReport:
    """The SCA loop jhtpa and opa share, on the iterate z = (theta, 1/p).

    free marks the entries of z the subproblems move (all by default, all
    but theta for opa) and alone configures the run. z starts at _start's
    (theta, p, strict). z's allocation has theta z[0] and powers 1/z[1:];
    its EE scores z, and a start whose EE is not positive (every rate zero) raises
    NoFeasiblePointFoundError, as oht does. Each iteration builds the
    surrogate at z, phi being z's score (build_jhtpa_subproblem when theta
    is free, else build_opa_subproblem), solves it (each solve picks its
    own first barrier stage) and writes the solution into a copy of z,
    whose score is the next Dinkelbach multiplier; _jhtpa_extrapolate
    extends the step when theta is free.

    Later solves start from z[free]. The first tries the warm starts of
    _warm_starts in turn, then z[free] (_solve_from): each free pair at its
    estimated central slack for weight _CENTRAL_T0, read off the surrogate's
    objective gradient at the full-harvest point, then the uniform start one
    BARRIER_MU closer to the face than z on the segment the start lies on.
    The program and the end of its central path are the same, so only the
    route changes: from the central start _first_stage picks t = 1e4 on
    nearly every paper-regime solve. A solve from the central start that
    ends short of OPTIMAL gives way to the uniform start, as does a central
    start the surrogate does not hold strictly feasible.

    A start that is only weakly feasible (the full-harvest point) takes zero
    iterations, as there is no strict interior to iterate in. The report
    carries the final z's allocation, so trace[-1] is its EE. stop_reason
    names the exit taken (see _STOP_STATUS).
    """
    settings = settings or ScaSettings()
    free = np.ones(ch.num_pairs + 1, dtype=bool) if free is None else free
    theta, p_start, strict = _start(ch, config, r_bar, theta)
    z = np.append(theta, 1.0 / p_start)

    def allocation(z: np.ndarray) -> Allocation:
        return Allocation.from_theta(float(z[0]), 1.0 / z[1:])

    def score(z: np.ndarray) -> float:
        return core.energy_efficiency(allocation(z), ch, config)

    trace = [score(z)]
    if not trace[0] > 0.0:
        raise NoFeasiblePointFoundError(f"{name}'s start EE is {trace[0]}, not positive")
    stop_reason = "max_iterations" if strict else "boundary_fallback"
    for _ in range(settings.max_iterations if strict else 0):
        if free[0]:
            prog = build_jhtpa_subproblem(z, trace[-1], ch, config, r_bar)
        else:
            prog = build_opa_subproblem(z, trace[-1], ch, config, r_bar)
        # every pass that does not break appends to trace: one entry means the first solve
        warm = _warm_starts(prog, theta, p_start, free, ch, config) if len(trace) == 1 else ()
        try:
            outcome = _solve_from(prog, warm, z[free])
        except InfeasibleStartError:
            stop_reason = "infeasible_start"
            break
        if outcome.status is SolveStatus.NUMERICAL_FAILURE:
            stop_reason = "numerical_failure"
            break
        z_new = z.copy()
        z_new[free] = outcome.z_star
        ee_new = score(z_new)
        if free[0]:
            z_new, ee_new = _jhtpa_extrapolate(z, z_new, ee_new, score, ch, config, r_bar)
        if ee_new < trace[-1]:
            # Ascent is guaranteed in exact arithmetic; a non-improving step
            # means the numerical floor is reached. Keep the better iterate.
            stop_reason = "non_improving"
            break
        z = z_new
        trace.append(ee_new)
        if ee_new - trace[-2] <= settings.epsilon * ee_new:
            stop_reason = "epsilon"
            break
    return SolveReport(
        algorithm=name,
        allocation=allocation(z),
        wall_time_ms=(time.perf_counter() - started) * 1e3,
        trace=trace,
        stop_reason=stop_reason,
        channels=ch,
        config=config,
    )


def _warm_starts(prog: ConvexProgram, theta: float, p_start: np.ndarray, free: np.ndarray, ch, config):
    """The first solve's warm starts over z[free], in the order tried: the
    central start, then the uniform one. Both hold theta and move each free
    pair from the start's p_start toward its full-harvest power p_max(theta).

    The uniform start is p_max - (p_max - p_start) / BARRIER_MU, one
    BARRIER_MU closer to the face on the segment the start lies on. The
    central one puts each pair where the central path at weight t0 =
    _CENTRAL_T0 would hold it if only its causality row were active: at
    the full-harvest point, stationarity on the causality rows alone,
    whose q-derivative is -1 / (cap q^2), gives each free pair's multiplier
    lam = g cap / p_max^2 from prog's objective gradient g there, and a
    row with multiplier lam is central at slack 1 / (t0 lam), that is at
    p = p_max - cap / (t0 lam) (Boyd & Vandenberghe 11.3.1; Yildirim &
    Wright, SIAM J. Optim. 12(3), 2002). No pair goes deeper than the
    uniform start, nor moves off it where lam is not positive and finite.
    """
    cap = config.eta * config.p0_watt * ch.g
    p_max = core.pinned_powers(theta, ch, config)
    p_uniform = p_max - (p_max - p_start) / BARRIER_MU
    grad = np.zeros(free.size)
    grad[free] = prog.objective.grad(np.append(theta, 1.0 / p_max)[free])
    with np.errstate(all="ignore"):
        lam = grad[1:] * cap / p_max**2
        p_central = p_max - cap / (_CENTRAL_T0 * lam)
    usable = (lam > 0.0) & np.isfinite(lam)
    p_central = np.where(usable, np.maximum(p_central, p_uniform), p_uniform)
    return tuple(np.append(theta, 1.0 / p)[free] for p in (p_central, p_uniform))


def _solve_from(prog: ConvexProgram, warm, z0: np.ndarray):
    """engine.solve on prog from the first of the points warm that prog
    holds strictly feasible, else from z0. A solve from any warm point but
    the last that ends short of OPTIMAL gives way to the next point too."""
    for start in warm:
        with contextlib.suppress(InfeasibleStartError):
            outcome = solve(prog, start)
            if outcome.status is SolveStatus.OPTIMAL or start is warm[-1]:
                return outcome
    return solve(prog, z0)


def run_algorithm(
    name: str,
    ch: ChannelRealization,
    config: ScenarioConfig,
    settings: ScaSettings | None = None,
) -> SolveReport:
    """Dispatch one of jhtpa / opa / oht by name."""
    if name == "jhtpa":
        return jhtpa(ch, config, settings)
    if name == "opa":
        return opa(ch, config, settings)
    if name == "oht":
        return oht(ch, config)
    raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHM_NAMES}")
