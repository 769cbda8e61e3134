"""Independent brute-force oracles the tests check the algorithms against.

Everything here recomputes the physics from first principles with plain
numpy grids; none of it calls into the SCA loops. iterate_ee alone reads
core's EE formula: it is the multiplier the SCA scores an iterate by, which
the subproblem tests pass to the builders. ee_power_slopes differences its
own EE formula, not core's gradient, to check opa's vertex certificate.
relative_deficit scales core.check_feasible's deficits, the ones a report
carries, to their rows. check_gradients differences a
ConvexProgram's oracles to check their derivatives. exhaustive_first_stage
alone calls into the solver: it is the barrier's first-stage scan over every
allowed t, built from the engine's own Newton systems, and the reference for
the engine's early-stopping scan. sequential_extrapolate is jhtpa's
extrapolation ladder as it ran before its feasibility checks were batched,
one _violation call per rung, and the reference for the batched ladder.
"""

import math

import numpy as np

from uavee import core


def iterate_ee(z, ch, config):
    """EE of the SCA iterate z = (theta, q = 1/p): its Dinkelbach multiplier."""
    return core.energy_efficiency(core.Allocation.from_theta(z[0], 1.0 / z[1:]), ch, config)


def relative_deficit(report) -> float:
    """The largest constraint deficit of a report's allocation in its row's
    scale: core.check_feasible's causality deficits over the harvested
    budgets tau eta P0 g_n and its QoS deficits over r_bar, each scale
    floored at 1e-300. inf when tau is outside [0, 1]; a NaN deficit gives
    NaN. A feasible answer reads at most ~3e-16, its rounding."""
    alloc, ch, config = report.allocation, report.channels, report.config
    feas = core.check_feasible(alloc, ch, config, report.r_bar)
    if not feas.tau_in_range:
        return math.inf
    budget = alloc.tau * config.eta * config.p0_watt * ch.g
    causality = feas.causality_violation / np.maximum(budget, 1e-300)
    return float(np.max(np.append(causality, feas.qos_violation / max(report.r_bar, 1e-300))))


def grid_ee_n1(ch, config, r_bar, tau_points=500, p_points=500):
    """Max energy efficiency of a single-pair network on a (tau, p) grid.

    tau is swept linearly over (0, 1); for each tau the power axis is
    log-spaced up to the energy-causality cap, so causality holds by
    construction and only the QoS floor filters points.
    """
    h = float(ch.h[0, 0])
    g = float(ch.g[0])
    s2 = ch.sigma2_watt
    ep = config.eta * config.p0_watt
    best = -np.inf
    for tau in np.linspace(1e-3, 1.0 - 1e-3, tau_points):
        p = (tau * ep * g / (1.0 - tau)) * np.logspace(-6.0, 0.0, p_points)
        rates = (1.0 - tau) * np.log1p(p * h / s2)
        power = (1.0 - tau) * p + tau * ep + config.p_cir_watt
        feasible = rates >= r_bar
        if np.any(feasible):
            best = max(best, float(np.max(rates[feasible] / power[feasible])))
    return best


def grid_opa_ee_n1(ch, config, r_bar, points=10**5):
    """Max EE of the fixed-time single-pair power allocation on a log grid."""
    theta = config.theta_fix
    h = float(ch.h[0, 0])
    g = float(ch.g[0])
    s2 = ch.sigma2_watt
    ep = config.eta * config.p0_watt
    p = ((theta - 1.0) * ep * g) * np.logspace(-6.0, 0.0, points)
    ln_sinr = np.log1p(p * h / s2)
    rates = ln_sinr / theta
    power = p / theta + (1.0 - 1.0 / theta) * ep + config.p_cir_watt
    feasible = ln_sinr >= theta * r_bar
    if not np.any(feasible):
        return -np.inf
    return float(np.max(rates[feasible] / power[feasible]))


def min_pinned_rate(thetas, ch, config):
    """Full-harvest max-min objective min_n rate_n at each entry of thetas."""
    hd = np.diag(ch.h)
    off = ch.h - np.diag(hd)
    cross = off @ ch.g
    c_noise = ch.sigma2_watt / (config.eta * config.p0_watt)
    desired = hd * ch.g
    tm1 = np.asarray(thetas)[:, None] - 1.0
    rates = np.log1p(tm1 * desired[None, :] / (tm1 * cross[None, :] + c_noise))
    return np.min(rates, axis=1) / thetas


def grid_oht_theta(ch, config, points=10**6, theta_max=1e3, chunks=20):
    """Argmax of the full-harvest max-min rate over a linear theta grid."""
    best_val, best_theta = -np.inf, None
    for chunk in np.array_split(np.linspace(1.0 + 1e-6, theta_max, points), chunks):
        vals = min_pinned_rate(chunk, ch, config)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_theta = float(vals[i]), float(chunk[i])
    return best_theta, best_val


def pinned_rates_direct(theta, ch, config):
    """Loop-and-scalar evaluation of the full-harvest per-pair rates."""
    n = ch.num_pairs
    ep = config.eta * config.p0_watt
    out = np.empty(n)
    for k in range(n):
        interference = sum(
            ch.h[k, i] * ch.g[i] for i in range(n) if i != k
        )
        num = (theta - 1.0) * ch.h[k, k] * ch.g[k]
        den = (theta - 1.0) * interference + ch.sigma2_watt / ep
        out[k] = np.log1p(num / den) / theta
    return out


# Scaled QoS margin a sampled point must clear, as for the algorithms' starts.
_QOS_MARGIN = 1e-13


def ee_direct(tau, p, ch, config):
    """EE (nats/J) of (tau, p) from the system model: the pairs' summed
    (1 - tau) ln(1 + SINR_n) over (1 - tau) sum(p) + tau eta P0 + p_cir."""
    p = np.asarray(p, dtype=float)
    desired = np.diag(ch.h) * p
    sinr = desired / (ch.h @ p - desired + ch.sigma2_watt)
    power = (1.0 - tau) * float(np.sum(p)) + tau * config.eta * config.p0_watt + config.p_cir_watt
    return (1.0 - tau) * float(np.sum(np.log1p(sinr))) / power


def ee_power_slopes(tau, p, ch, config, step=1e-6):
    """Backward differences of ee_direct at (tau, p), one per power, each
    over a cut of step * p_n in that power alone: dEE/dp_n to first order,
    positive where lowering p_n lowers the EE. A backward step stays inside
    the causality bound p_n <= p_max_n."""
    p = np.asarray(p, dtype=float)
    ee = ee_direct(tau, p, ch, config)
    slopes = np.empty(p.size)
    for n in range(p.size):
        lower = p.copy()
        lower[n] -= step * p[n]
        slopes[n] = (ee - ee_direct(tau, lower, ch, config)) / (p[n] - lower[n])
    return slopes


def _rejection_sample(draw, feasible, count, max_attempts=100_000):
    points = []
    for _ in range(max_attempts):
        if len(points) == count:
            break
        z = draw()
        if feasible(z):
            points.append(z)
    assert len(points) == count, "could not sample enough feasible points"
    return points


def log_uniform_jhtpa_points(rng, ch, config, r_bar, count):
    """count strictly feasible (theta, q_1..q_N) points of the joint problem, q = 1/p.

    theta is log-uniform on [1.01, 100]. Each pair's power sits below its
    causality cap by its own factor u = exp(U(1e-13, ln(1 + 10^U(-12, 6)))),
    so backoffs spread log-uniformly from ~1e-12 to ~1e6. Draws that miss
    the QoS floor r_bar by the scaled margin are rejected.
    """
    n = ch.num_pairs
    cap = config.eta * config.p0_watt * ch.g
    hd = np.diag(ch.h)

    def draw():
        theta = float(np.exp(rng.uniform(math.log(1.01), math.log(100.0))))
        span = 10.0 ** rng.uniform(-12.0, 6.0, size=n)
        u = np.exp(rng.uniform(np.full(n, 1e-13), np.log1p(span)))
        return np.concatenate(([theta], u / ((theta - 1.0) * cap)))

    def feasible(z):
        theta, q = z[0], z[1:]
        recip = 1.0 / q
        rates = np.log1p(hd / (q * (ch.h @ recip - hd * recip) + q * ch.sigma2_watt)) / theta
        rows = (
            (1.0 + 1e-9) - theta,
            float(np.max(1.0 / (q * cap) - theta + 1.0)),
            float(np.max(r_bar - rates)) / max(r_bar, 1e-12) + _QOS_MARGIN,
        )
        return all(np.isfinite(v) and v < 0.0 for v in rows)

    return _rejection_sample(draw, feasible, count)


def log_uniform_opa_points(rng, ch, config, r_bar, theta_fix, count):
    """count strictly feasible power vectors at harvesting time theta_fix.

    Each pair's power sits below its full-harvest power by a factor drawn as
    in log_uniform_jhtpa_points; draws that miss the QoS floor
    ln(1 + SINR) >= theta_fix * r_bar by the scaled margin are rejected.
    """
    n = ch.num_pairs
    p_max = (theta_fix - 1.0) * config.eta * config.p0_watt * ch.g
    hd = np.diag(ch.h)
    qos_rhs = theta_fix * r_bar

    def draw():
        span = 10.0 ** rng.uniform(-12.0, 6.0, size=n)
        u = np.exp(rng.uniform(np.full(n, 1e-13), np.log1p(span)))
        return p_max / u

    def feasible(p):
        sinr = hd * p / (ch.h @ p - hd * p + ch.sigma2_watt)
        rows = (
            float(np.max(p / p_max - 1.0)),
            float(np.max(qos_rhs - np.log1p(sinr))) / max(qos_rhs, 1e-12) + _QOS_MARGIN,
        )
        return all(np.isfinite(v) and v < 0.0 for v in rows)

    return _rejection_sample(draw, feasible, count)


# Half-width of check_gradients' segment along each coordinate, relative to
# |z_i| (1 at 0). A wide segment keeps each difference far above the rounding
# of the oracle values; Gauss-Legendre quadrature stays exact to rounding over
# it, as the programs' poles (z_i = 0) sit ten half-widths away.
_SEGMENT_REL = 0.1
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(8)
_EPS_SAFETY = 1e3 * np.finfo(float).eps


def _segment_error(fn, deriv, z: np.ndarray, floor: float) -> float:
    """Largest relative entry mismatch between fn's central difference across
    each coordinate's segment z +- h_j e_j and the mean of deriv(x)[..., j]
    over that segment, beyond a rounding allowance.

    By the fundamental theorem of calculus the two agree exactly for any h_j,
    so no truncation error enters. The allowance is 1e3 * eps * max(|fn|,
    floor) / h_j at the segment's ends.
    """
    h = _SEGMENT_REL * np.where(z == 0.0, 1.0, np.abs(z))
    worst = 0.0
    for j in range(z.size):
        step = np.zeros_like(z)
        step[j] = h[j]
        hi = np.asarray(fn(z + step), dtype=float)
        lo = np.asarray(fn(z - step), dtype=float)
        numeric = (hi - lo) / (2.0 * h[j])
        analytic = 0.5 * sum(
            w * np.asarray(deriv(z + t * step), dtype=float)[..., j]
            for t, w in zip(_NODES, _WEIGHTS)
        )
        noise = _EPS_SAFETY * np.maximum(np.maximum(np.abs(hi), np.abs(lo)), floor) / h[j]
        excess = np.maximum(np.abs(analytic - numeric) - noise, 0.0)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-300)
        worst = max(worst, float(np.max(excess / scale, initial=0.0)))
    return worst


def check_gradients(prog, z: np.ndarray) -> float:
    """Max relative error of all gradient/Hessian oracles against differences.

    The objective's gradient is checked against differences of its value and
    its Hessian against differences of its gradient; the constraint Jacobian
    against differences of constraint_values, and each constraint's Hessian,
    constraint_hessian_weighted(z, e_j), against differences of Jacobian row
    j (see _segment_error). Every entry is measured relative to its own
    magnitude, so a small entry (a theta-q cross term ~1e-17 next to q-q
    curvature ~1e-10) is checked as closely as the largest. Differenced
    values carry an allowance floor of 1: the programs' rows and normalized
    objective are sums of O(1) terms.
    """
    z = np.asarray(z, dtype=float)
    rows = np.eye(prog.constraint_values(z).size)

    def constraint_hessians(x):
        hessians = [prog.constraint_hessian_weighted(x, e) for e in rows]
        return np.reshape(hessians, (len(rows), z.size, z.size))

    return max(
        _segment_error(prog.objective.value, prog.objective.grad, z, 1.0),
        _segment_error(prog.objective.grad, prog.objective.hess, z, 0.0),
        _segment_error(prog.constraint_values, prog.constraint_jacobian, z, 1.0),
        _segment_error(prog.constraint_jacobian, constraint_hessians, z, 0.0),
    )


def exhaustive_first_stage(prog, point) -> float:
    """engine._first_stage's rule by an exhaustive scan: of BARRIER_MU**j,
    j = 0.._FIRST_STAGE_SPAN in turn, short of the final stage (m/t <
    _DUALITY_GAP_TOL), the t whose scale-free Newton decrement t * (-g(t) .
    d(t)) at point is least, the smaller t on a tie; 1 when there is none.
    Each t's Newton system is solved afresh from point.derivatives."""
    from uavee import engine

    best_t, best, t = 1.0, math.inf, 1.0
    for _ in range(engine._FIRST_STAGE_SPAN + 1):
        if point.c.size / t < engine._DUALITY_GAP_TOL:
            break
        grad, hess, _ = point.derivatives(prog, 1.0 / t)
        direction, ok = engine._newton_direction(hess, grad)  # fails on a zero gradient: central
        decrement = -t * float(grad @ direction) if ok else (math.inf if grad.any() else 0.0)
        if decrement < best:
            best_t, best = t, decrement
        t *= engine.BARRIER_MU
    return best_t


def sequential_extrapolate(z_bar, z_new, phi_new, score, ch, config, r_bar):
    """algorithms._jhtpa_extrapolate rung by rung: (z, EE, stop), stop naming
    what ended the ladder: "range" (a theta outside (1 + THETA_GAP,
    _THETA_CAP]), "infeasible" (_violation not negative), "no_gain" (the
    score does not rise) or "exhausted" (every rung accepted)."""
    from uavee import algorithms

    cap = config.eta * config.p0_watt * ch.g
    theta_bar = float(z_bar[0])
    theta_new = float(z_new[0])
    ratio_t = (theta_new - 1.0) / (theta_bar - 1.0)
    slack_u = z_new[1:] * (theta_new - 1.0) * cap
    best_z, best_phi = z_new, phi_new
    for s in algorithms._EXTRAPOLATION_POWERS:
        theta_e = 1.0 + (theta_bar - 1.0) * ratio_t**s
        if not 1.0 + algorithms.THETA_GAP < theta_e <= algorithms._THETA_CAP:
            return best_z, best_phi, "range"
        q_e = slack_u / ((theta_e - 1.0) * cap)
        if not algorithms._violation(theta_e, 1.0 / q_e, ch, config, r_bar) < 0.0:
            return best_z, best_phi, "infeasible"
        z_e = np.concatenate(([theta_e], q_e))
        phi_e = score(z_e)
        if phi_e <= best_phi:
            return best_z, best_phi, "no_gain"
        best_z, best_phi = z_e, phi_e
    return best_z, best_phi, "exhausted"
