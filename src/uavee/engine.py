"""Dense log-barrier solver for the per-iteration convex subproblems.

The SCA algorithms emit small (dimension N + 1 for N pairs, 31 at N = 30),
smooth, strictly feasible convex programs at every iteration and need them
solved at millisecond latency. A generic conic solver is overkill for that:
this module implements classic path-following on the log barrier with damped
Newton steps, backtracking line search, Jacobi equilibration of the Newton
system (solved by one LU factorization) and Levenberg regularization when
that solve fails or gives no descent direction.

Four choices keep each solve cheap (Boyd & Vandenberghe, Convex
Optimization, 9.3, 9.5, 11.3.1 and 11.3.3):

- The first stage is the most central one (_first_stage): of mu^j,
  j <= _FIRST_STAGE_SPAN, the t whose scale-free Newton decrement at the
  start is least, so a start near a stage's center skips the stages before
  it. The span is bounded: final stages entered from far up the path crawl.
- The line search stays below the linearization bound. Every constraint
  row is convex, so it lies above its linearization at the current point,
  and no step beyond min over (J d)_j > 0 of -c_j / (J d)_j is feasible.
  The bound uses the Jacobian the Newton step already computed; it is exact
  for affine rows and sound for the others. Each trial evaluates the
  constraints once, and each accepted point's derivative oracles run once
  (_Point): the barrier is linear in 1/t, so later stages reuse them.
- The first trial step comes from a model of the barrier along the Newton
  direction d (_model_step). The quadratic model behind the Newton step
  treats each -log slack as a parabola, so from a point whose slacks are
  ~1e-12 (where the SCA iterates start) a full step only doubles them, and
  the solve would crawl off the boundary for tens of steps (the damped
  phase). The model keeps the logarithms of the linearized slacks exactly,
  1 - s (J d)_j / -c_j, with the objective's slope and curvature along d.
  When 0.99 times the linearization bound exceeds 1, backtracking starts at
  the model's minimizer over [1, 0.99 * bound], which is never shorter than
  the Newton step, so convergence near the solution is unchanged. Otherwise
  it starts at the first rung of 1, b, b^2, ... below 0.99 times the bound.
  The Armijo test accepts or shortens the step as before.
- Centering stops on the Newton decrement alone (B&V 9.5.1), which does
  not depend on how the variables are scaled: a gradient-norm test reads
  the small gradients of large coordinates (q = 1/p ~ 1e9 gives ~1e-10)
  as centered. Centering is inexact between stages. Only the
  final barrier stage, the one whose duality gap bound m/t is below
  _DUALITY_GAP_TOL, runs until half the squared decrement is below
  _NEWTON_TOL. Earlier stages stop at _STAGE_DECREMENT_TOL: they only
  warm-start the next stage, whose Newton steps absorb the remaining
  centering error.

The barrier parameters are fixed, as is standard: the total Newton step count
varies little for mu between about 3 and 100, and the backtracking constants
are the usual ones (B&V 11.3.3 and 9.2).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

logger = logging.getLogger("uavee.engine")

# Barrier method: t grows by BARRIER_MU per stage until the duality gap bound
# m/t is below _DUALITY_GAP_TOL, each stage taking at most _MAX_NEWTON_ITERS
# Newton steps. The final stage stops once half the squared Newton decrement
# is below _NEWTON_TOL, earlier stages at _STAGE_DECREMENT_TOL.
BARRIER_MU = 10.0
_DUALITY_GAP_TOL = 1e-7
_NEWTON_TOL = 1e-13
_MAX_NEWTON_ITERS = 50

# Backtracking line search: step shrink factor and Armijo slope fraction.
_BACKTRACK = 0.5
_ARMIJO_SLOPE = 1e-4

# Levenberg schedule: start, growth factor, cap. Applied to the equilibrated
# Newton matrix, whose diagonal is ~1.
_REG_START = 1e-10
_REG_GROW = 10.0
_REG_CAP = 1e-2

_MIN_STEP = 1e-16

# Half squared Newton decrement at which barrier stages before the final one
# stop (inexact centering, see the module docstring).
_STAGE_DECREMENT_TOL = 1e-6

# Model step (see _model_step): at most this many evaluations of m', and the
# relative change of s at which the iteration stops.
_MODEL_ITERS = 12
_MODEL_TOL = 0.05

# _first_stage picks among BARRIER_MU**j, j = 0.._FIRST_STAGE_SPAN. On the
# four interference-limited sets of 300 trials (radius 20 m or 100 m, noise
# -170 dBm/Hz, and all three with p_cir 1e-6 W), 1,599 of jhtpa's and opa's
# 1,604 solves are most central at t <= 1e3 and 5 pick 1e4; at span 6 one of
# those picks 1e5. Spans 4, 5 and 6 give the same statuses and Newton steps
# there, and EE to 1e-13. A start most central far up the path can enter a
# final stage that crawls, so the span stays bounded.
_FIRST_STAGE_SPAN = 4


class InfeasibleStartError(ValueError):
    """The supplied starting point is not strictly feasible."""


class NoFeasiblePointFoundError(RuntimeError):
    """No candidate was strictly feasible: the constraint set has no usable interior."""


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class Functional:
    """A smooth scalar function of a vector with analytic gradient and Hessian oracles."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ConvexProgram:
    """Minimize `objective` over {z : c(z) < 0} intersected with an open domain.

    Callers minimizing a concave SCA surrogate negate it first. domain_guard
    marks the open set where all oracles are defined (positive coordinates,
    theta above 1, ...).

    The m inequality constraints c_1..c_m come in one vectorized form, which
    is all the barrier method needs: constraint_values(z) returns the vector
    c(z), constraint_jacobian(z) its m x dim Jacobian (row j is the gradient
    of c_j), and constraint_hessian_weighted(z, w) the dim x dim matrix
    sum_j w_j * hess(c_j)(z). tests/oracles.check_gradients verifies the
    Jacobian against differences of constraint_values and the Hessians
    against differences of its rows.
    """

    objective: Functional
    domain_guard: Callable[[np.ndarray], bool]
    constraint_values: Callable[[np.ndarray], np.ndarray]
    constraint_jacobian: Callable[[np.ndarray], np.ndarray]
    constraint_hessian_weighted: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class SolveOutcome:
    z_star: np.ndarray
    status: SolveStatus
    newton_step_count: int
    barrier_t_start: float
    outer_objective_trace: list[float]


class _Point:
    """A strictly feasible z with c(z), f(z) and log_slack = sum_j log(-c_j(z)),
    so the barrier value at weight 1/t is f - (1/t) * log_slack. With u = 1/-c
    the derivatives at any weight combine g_f, H_f, J^T u and J^T diag(u^2) J
    + sum_j u_j hess(c_j) (constraint_hessian_weighted is linear in its
    weights), which the first call to derivatives evaluates once."""

    def __init__(self, z: np.ndarray, c: np.ndarray, f: float):
        self.z, self.c, self.f, self.parts = z, c, f, None
        self.log_slack = float(np.log(-c).sum())

    def derivatives(self, prog: ConvexProgram, inv_t: float):
        """Gradient and Hessian of f + (1/t) * barrier, and the constraint Jacobian."""
        if self.parts is None:
            z, jac, u = self.z, prog.constraint_jacobian(self.z), 1.0 / -self.c
            hess_b = (jac * (u * u)[:, None]).T @ jac + prog.constraint_hessian_weighted(z, u)
            self.parts = (prog.objective.grad(z), prog.objective.hess(z), jac, jac.T @ u, hess_b)
        grad_f, hess_f, jac, grad_b, hess_b = self.parts
        return grad_f + inv_t * grad_b, hess_f + inv_t * hess_b, jac


def _point_at(prog: ConvexProgram, z: np.ndarray) -> _Point | None:
    """The _Point at z; None outside the strictly feasible set or the barrier's domain."""
    c = prog.constraint_values(z) if prog.domain_guard(z) else None
    if c is None or not (c < 0.0).all():
        return None
    point = _Point(z, c, float(prog.objective.value(z)))
    return point if math.isfinite(point.f - point.log_slack) else None


def _linearized_step_bound(c: np.ndarray, jd: np.ndarray) -> float:
    """Smallest s > 0 at which some linearized row c_j + s * (J d)_j reaches 0.

    c holds the (negative) constraint values at z and jd = J(z) d the rows'
    directional derivatives along d; inf when no row grows along d. Convex
    rows lie above their linearizations, so no step at or beyond this bound
    is strictly feasible; for affine rows the bound is exact.
    """
    growth = float((jd / -c).max()) if c.size else 0.0
    return 1.0 / growth if growth > 0.0 else math.inf


def _newton_direction(hess: np.ndarray, grad: np.ndarray):
    """Solve H d = -g with Jacobi equilibration and a Levenberg fallback.

    The equilibrated system is solved by one LU factorization. The
    regularization grows while the solve fails, returns a non-finite y or a
    y that is not a descent direction (gs . y >= 0). Returns (direction, ok);
    ok is False when the regularization cap is hit.
    """
    diag = hess.diagonal()
    top = float(diag.max()) if diag.size else 1.0
    scale = 1.0 / np.sqrt(np.maximum(diag, max(top, 1.0) * 1e-300))
    hs = hess * scale[:, None] * scale[None, :]
    gs = grad * scale
    reg = 0.0
    while True:
        try:
            y = np.linalg.solve(hs if reg == 0.0 else hs + reg * np.eye(hs.shape[0]), -gs)
            if np.isfinite(y).all() and float(gs @ y) < 0.0:
                return scale * y, True
        except np.linalg.LinAlgError:
            pass
        reg = _REG_START if reg == 0.0 else reg * _REG_GROW
        if reg > _REG_CAP:
            return None, False


def _model_step(a: float, kappa: float, r: np.ndarray, inv_t: float, hi: float) -> float:
    """Minimizer over [1, hi] of the barrier's one-dimensional model along d,

        m(s) = s * a + kappa * s^2 / 2 - (1/t) * sum_j log(1 - s * r_j),

    where a is the objective's directional derivative, kappa the non-barrier
    curvature and r_j = (J d)_j / -c_j; 1 - s * r_j > 0 must hold on [1, hi].
    m is convex, so its minimizer over [1, hi] is max(1, min(s*, hi)).

    Safeguarded Newton from s = 1 on u(s) * m'(s), u = 1 - s * max_j r_j,
    which has the root and sign of m' on [1, hi] but not its pole at the
    nearest linearized boundary (a single growing row makes it affine).
    Each point narrows the bracket. A step past the bracket's upper end
    tries hi once; a step outside the bracket, or one longer in log s than
    half the previous one, is replaced by the bracket's geometric midpoint,
    so a bracket spanning decades still shrinks. Stops when a step moves s
    by at most _MODEL_TOL relative, or after _MODEL_ITERS points.
    """
    lo, up = 1.0, hi
    pole = max(float(r.max()), 0.0)
    s = 1.0
    hi_untried = True
    last_move = math.inf
    for _ in range(_MODEL_ITERS):
        q = r / (1.0 - s * r)
        slope = a + kappa * s + inv_t * float(q.sum())
        if slope < 0.0:
            lo = s
        else:
            up, hi_untried = s, False
        if lo >= up:
            return s
        u = 1.0 - s * pole
        curvature = u * (kappa + inv_t * float(q @ q)) - pole * slope
        nxt = s - u * slope / curvature if curvature > 0.0 else math.inf
        if nxt >= up and hi_untried:
            nxt, hi_untried = up, False
        elif not lo < nxt < up or abs(math.log(nxt / s)) > 0.5 * last_move:
            nxt = math.sqrt(lo * up)
        if abs(nxt - s) <= _MODEL_TOL * s:
            return nxt
        last_move = abs(math.log(nxt / s))
        s = nxt
    return s


def _center(prog: ConvexProgram, point: _Point, inv_t: float, decrement_tol: float):
    """Damped Newton from point until half the squared Newton decrement drops
    to decrement_tol (or the gradient is exactly zero).

    When 0.99 times the linearization bound exceeds 1, backtracking starts at
    the model step (_model_step on the slope, curvature and linearized slack
    ratios this direction already gives), else at the first rung below 0.99
    times the bound (see the module docstring).

    Returns (point, steps_taken, status): OPTIMAL when centered,
    NUMERICAL_FAILURE when the Newton system cannot be repaired, and
    MAX_ITERATIONS when the stage runs out of Newton steps or its line search
    shrinks below _MIN_STEP.
    """
    steps = 0
    base = point.f - inv_t * point.log_slack
    for _ in range(_MAX_NEWTON_ITERS):
        grad, hess, jac = point.derivatives(prog, inv_t)
        if not grad.any():
            return point, steps, SolveStatus.OPTIMAL
        direction, ok = _newton_direction(hess, grad)
        if not ok:
            return point, steps, SolveStatus.NUMERICAL_FAILURE
        # The decrement approximates the remaining value gap; iterate error
        # scales like its square root.
        gd = float(grad @ direction)
        if -0.5 * gd <= decrement_tol:
            return point, steps, SolveStatus.OPTIMAL

        slope = _ARMIJO_SLOPE * gd
        jd = jac @ direction
        limit = 0.99 * _linearized_step_bound(point.c, jd)
        if 1.0 < limit < math.inf:
            # along d: objective slope a = g.d - (1/t) sum r_j, non-barrier
            # curvature lambda^2 - (1/t) sum r_j^2, with lambda^2 = -g.d
            r = jd / -point.c
            step = _model_step(
                gd - inv_t * float(r.sum()), max(-gd - inv_t * float(r @ r), 0.0), r, inv_t, limit
            )
        else:
            step = 1.0
            while step >= limit and step >= _MIN_STEP:
                step *= _BACKTRACK
        while True:
            if step < _MIN_STEP:
                return point, steps, SolveStatus.MAX_ITERATIONS
            trial = _point_at(prog, point.z + step * direction)
            trial_val = math.inf if trial is None else trial.f - inv_t * trial.log_slack
            if trial_val <= base + step * slope:
                break
            step *= _BACKTRACK
        point, base = trial, trial_val
        steps += 1
    return point, steps, SolveStatus.MAX_ITERATIONS


def _first_stage(prog: ConvexProgram, point: _Point) -> float:
    """The t the first stage centers at (B&V 11.3.1): of BARRIER_MU**j,
    j <= _FIRST_STAGE_SPAN, short of the final stage (m/t < _DUALITY_GAP_TOL),
    the one whose scale-free Newton decrement t * (-g(t) . d(t)) at point is
    least, the smaller t on a tie; 1 when there is none."""
    best_t, best, t = 1.0, math.inf, 1.0
    for _ in range(_FIRST_STAGE_SPAN + 1):
        if point.c.size / t < _DUALITY_GAP_TOL:
            break
        grad, hess, _ = point.derivatives(prog, 1.0 / t)
        direction, ok = _newton_direction(hess, grad)  # fails on a zero gradient: central
        decrement = -t * float(grad @ direction) if ok else (math.inf if grad.any() else 0.0)
        if decrement < best:
            best_t, best = t, decrement
        t *= BARRIER_MU
    return best_t


def solve(prog: ConvexProgram, z0: np.ndarray) -> SolveOutcome:
    """Path-following log-barrier minimization from a strictly feasible start.

    Centers f + (1/t) * barrier for t = t_start, t_start * BARRIER_MU, ...
    (t_start from _first_stage, the stage most central at z0) until the
    duality gap bound m/t drops below _DUALITY_GAP_TOL. Only that final
    stage is centered to _NEWTON_TOL; earlier stages stop at
    _STAGE_DECREMENT_TOL. Both tests are on the Newton decrement. Raises
    InfeasibleStartError when z0 is not strictly feasible; numerical
    breakdown is reported via status rather than raised so callers can keep
    partial traces.
    """
    point = _point_at(prog, np.array(z0, dtype=float))
    if point is None:
        raise InfeasibleStartError("starting point is outside the domain or not strictly feasible")
    t = t_start = _first_stage(prog, point)
    total_steps = 0
    trace: list[float] = []
    status = SolveStatus.MAX_ITERATIONS
    # t_start >= 1, so this ends within ceil(log(m / _DUALITY_GAP_TOL) / log(BARRIER_MU)) + 1 stages
    while True:
        final = point.c.size / t < _DUALITY_GAP_TOL
        stage, steps, stage_status = _center(
            prog, point, 1.0 / t, _NEWTON_TOL if final else _STAGE_DECREMENT_TOL
        )
        total_steps += steps
        if stage_status is SolveStatus.NUMERICAL_FAILURE:
            point, status = stage, stage_status
            break
        # Exact centering walks the central path, along which the true
        # objective never increases; allow slack for inexact Newton stops.
        # A stage that rises beyond it has lost the path: keep the previous
        # stage's point and report MAX_ITERATIONS.
        if trace and stage.f > trace[-1] + 1e-7 * max(1.0, abs(trace[-1])):
            break
        point = stage
        trace.append(stage.f)
        if final:
            status = stage_status
            break
        t *= BARRIER_MU
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "%s",
            json.dumps(
                {
                    "dim": point.z.size,
                    "status": status.value,
                    "newton_steps": total_steps,
                    "barrier_t_start": t_start,
                    "barrier_t_final": t,
                    "constraint_values": point.c.tolist(),
                    "outer_objective_trace": trace,
                }
            ),
        )
    return SolveOutcome(
        z_star=point.z,
        status=status,
        newton_step_count=total_steps,
        barrier_t_start=t_start,
        outer_objective_trace=trace,
    )


def find_feasible(
    constraints: Sequence[Callable[[np.ndarray], float]],
    sampler: Callable[[np.random.Generator | None, int], np.ndarray],
    rng: np.random.Generator | None,
    max_tries: int,
) -> np.ndarray:
    """The first of max_tries candidates that is strictly feasible (every constraint in (-inf, 0)).

    sampler(rng, k) proposes the k-th candidate; rng is handed through and
    may be None for a deterministic candidate list. Raises
    NoFeasiblePointFoundError when none of the max_tries proposals passes.
    """
    for k in range(max_tries):
        z = sampler(rng, k)
        if all(-math.inf < con(z) < 0.0 for con in constraints):
            return np.asarray(z, dtype=float)
    raise NoFeasiblePointFoundError(f"no strictly feasible point in {max_tries} tries")
