"""Exact system formulas for the energy-efficiency problem.

Holds harvested energy, per-pair rates, total consumed power, energy
efficiency, feasibility checks, the affine lower bound on ln(1 + 1/(x*y))/t
used by the SCA algorithms, and the QoS threshold rule. Rates are kept in
nats throughout; bits-based figures divide by ln 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ChannelRealization, ScenarioConfig

LN2 = math.log(2.0)

# Open-interval guard for the transformed time variable: theta >= 1 + THETA_GAP.
# The endpoints tau in {0, 1} give zero harvest or zero transmit phase and are
# never optimal.
THETA_GAP = 1e-9


@dataclass(slots=True)
class Allocation:
    """Decision variables: harvesting-time fraction tau and per-pair transmit powers (W)."""

    tau: float
    p: np.ndarray

    @property
    def theta(self) -> float:
        return 1.0 / (1.0 - self.tau)

    @classmethod
    def from_theta(cls, theta: float, p: np.ndarray) -> "Allocation":
        return cls(tau=1.0 - 1.0 / theta, p=np.asarray(p, dtype=float))


@dataclass(frozen=True)
class BoundCoeffs:
    """Coefficients of the affine lower bound on ln(1 + 1/(x*y))/t at an expansion point.

    The bound is const_term - cx*x - cy*y - ct*t; fields hold scalars or
    per-pair vectors depending on what was expanded.
    """

    const_term: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    ct: np.ndarray

    def __post_init__(self):
        # tested as > 0, which a NaN fails, not as <= 0, which it passes
        if not (np.all(self.cx > 0.0) and np.all(self.cy > 0.0) and np.all(self.ct > 0.0)):
            raise ValueError("bound coefficients must be strictly positive")


@dataclass(frozen=True)
class FeasibilityReport:
    """Constraint deficits of an allocation against the original problem.

    The deficits are absolute, in watts and nats. causality_violation[n]
    is the wattage by which pair n's spend (1 - tau) p_n exceeds its
    harvested budget tau eta P0 g_n; qos_violation[n] is the nats per slot
    by which its rate misses r_bar. Judge each relative to its row's scale,
    tau eta P0 g_n or r_bar: an answer on a row misses it by rounding, up
    to ~3e-16 of that scale.
    """

    causality_violation: np.ndarray
    qos_violation: np.ndarray
    tau_in_range: bool


def sinr(p: np.ndarray, ch: ChannelRealization) -> np.ndarray:
    """Per-pair SINR of powers p (or of each row of p): desired gain over interference plus noise."""
    p = np.asarray(p, dtype=float)
    hd = np.diag(ch.h)
    interference = (ch.h @ p[..., None])[..., 0] - hd * p
    return hd * p / (interference + ch.sigma2_watt)


def sum_rate_gradient(p: np.ndarray, ch: ChannelRealization) -> np.ndarray:
    """Gradient in p of the sum rate R = sum_n ln(1 + SINR_n(p)).

    With T = h p + sigma2 and I_n = T_n - h_nn p_n, dR/dp_k = h_kk/T_k +
    sum_{n!=k} h_nk (1/T_n - 1/I_n); each difference is evaluated as
    -SINR_n/T_n, its exact value, which cancels nothing.
    """
    p = np.asarray(p, dtype=float)
    hd = np.diag(ch.h)
    signal = hd * p
    interference = ch.h @ p - signal + ch.sigma2_watt
    total = interference + signal
    return hd / total - (ch.h - np.diag(hd)).T @ (signal / interference / total)


def rates(alloc: Allocation, ch: ChannelRealization) -> np.ndarray:
    """Per-pair throughput (nats per slot): (1 - tau) * ln(1 + SINR)."""
    return (1.0 - alloc.tau) * np.log1p(sinr(alloc.p, ch))


def total_power(alloc: Allocation, config: ScenarioConfig) -> float:
    """Network power draw: transmit-phase power plus UAV transfer and circuit power."""
    return float(
        (1.0 - alloc.tau) * np.sum(alloc.p)
        + alloc.tau * config.eta * config.p0_watt
        + config.p_cir_watt
    )


def energy_efficiency(
    alloc: Allocation, ch: ChannelRealization, config: ScenarioConfig
) -> float:
    """Energy efficiency in nats per joule: sum rate over total power."""
    return float(np.sum(rates(alloc, ch))) / total_power(alloc, config)


def check_feasible(
    alloc: Allocation,
    ch: ChannelRealization,
    config: ScenarioConfig,
    r_bar: float,
) -> FeasibilityReport:
    """Measure how far an allocation violates energy causality and the QoS floor."""
    budget = alloc.tau * config.eta * config.p0_watt * ch.g
    spent = (1.0 - alloc.tau) * alloc.p
    causality = np.maximum(0.0, spent - budget)
    qos = np.maximum(0.0, r_bar - rates(alloc, ch))
    return FeasibilityReport(
        causality_violation=causality,
        qos_violation=qos,
        tau_in_range=0.0 <= alloc.tau <= 1.0,
    )


def log_bound_coeffs(x_bar, y_bar, t_bar) -> BoundCoeffs:
    """Affine lower bound of f(x, y, t) = ln(1 + 1/(x*y))/t expanded at (x_bar, y_bar, t_bar).

    f is jointly convex on the positive orthant, so its tangent plane

        (2/t̄)ln(1+1/(x̄ȳ)) + 2/(t̄(x̄ȳ+1)) - x/(t̄x̄(x̄ȳ+1)) - y/(t̄ȳ(x̄ȳ+1))
        - t ln(1+1/(x̄ȳ))/t̄²

    minorizes f everywhere and touches it at the expansion point.
    Accepts scalars or broadcastable arrays.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    y_bar = np.asarray(y_bar, dtype=float)
    t_bar = np.asarray(t_bar, dtype=float)
    if not (np.all(x_bar > 0.0) and np.all(y_bar > 0.0) and np.all(t_bar > 0.0)):  # NaN fails too
        raise ValueError("expansion point must be strictly positive")
    prod = x_bar * y_bar
    log_term = np.log1p(1.0 / prod)
    denom = t_bar * (prod + 1.0)
    return BoundCoeffs(
        const_term=2.0 * log_term / t_bar + 2.0 / denom,
        cx=1.0 / (x_bar * denom),
        cy=1.0 / (y_bar * denom),
        ct=log_term / t_bar**2,
    )


def surrogate_psi(coeffs: BoundCoeffs, x, y, t):
    """Evaluate the affine lower bound; never exceeds ln(1 + 1/(x*y))/t for positive inputs."""
    return coeffs.const_term - coeffs.cx * np.asarray(x) - coeffs.cy * np.asarray(y) - coeffs.ct * np.asarray(t)


def rates_from_inverse(theta: float, q: np.ndarray, ch: ChannelRealization) -> np.ndarray:
    """Per-pair rate in the transformed variables theta = 1/(1-tau), q_n = 1/p_n."""
    q = np.asarray(q, dtype=float)
    hd = np.diag(ch.h)
    recip = 1.0 / q
    cross = ch.h @ recip - hd * recip
    return np.log1p(hd / (q * cross + q * ch.sigma2_watt)) / theta


def pinned_rates(theta: float, ch: ChannelRealization, config: ScenarioConfig) -> np.ndarray:
    """Per-pair full-harvest rates, p = pinned_powers(theta); a (K, 1) theta column gives (K, N)."""
    hd = np.diag(ch.h)
    cross = ch.h @ ch.g - hd * ch.g
    num = (theta - 1.0) * hd * ch.g
    den = (theta - 1.0) * cross + ch.sigma2_watt / (config.eta * config.p0_watt)
    return np.log1p(num / den) / theta


def pinned_allocation(theta: float, ch: ChannelRealization, config: ScenarioConfig) -> Allocation:
    """Allocation with full-harvest powers at a given theta.

    Powers are derived from the allocation's own theta property (theta round
    trips through tau with one rounding) so that p_n / ((theta-1) eta P0 g_n)
    evaluates to exactly one on the reported object.
    """
    tau = 1.0 - 1.0 / theta
    return Allocation(tau=tau, p=pinned_powers(1.0 / (1.0 - tau), ch, config))


def pinned_powers(theta: float, ch: ChannelRealization, config: ScenarioConfig) -> np.ndarray:
    """Full-harvest transmit powers p_n = (theta-1)*eta*P0*g_n, each pair's causality bound."""
    return (theta - 1.0) * config.eta * config.p0_watt * ch.g


def pinned_total_power(theta, ch: ChannelRealization, config: ScenarioConfig) -> np.ndarray:
    """Closed-form full-harvest power draw at each entry of theta."""
    share = (1.0 - 1.0 / theta) * config.eta * config.p0_watt
    return share * (np.sum(ch.g) + 1.0) + config.p_cir_watt


def qos_threshold(ch: ChannelRealization, config: ScenarioConfig) -> float:
    """QoS floor in nats: min over pairs of the full-harvest rate at theta_fix, capped.

    The cap is rate_cap_bpshz converted to nats. Taking the minimum over pairs
    keeps the floor attainable by the fixed-time full-harvest allocation.
    """
    floor = float(np.min(pinned_rates(config.theta_fix, ch, config)))
    return min(floor, config.rate_cap_bpshz * LN2)
