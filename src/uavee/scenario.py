"""Network geometry and channel realizations for UAV-powered D2D scenarios.

Transmitters harvest RF energy from a hovering UAV (air-to-ground LOS/NLOS
mixture channel) and talk to their receivers over Rayleigh-faded D2D links.
Everything is generated from a seeded numpy Generator so a scenario is fully
reproducible from its config.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Bounded rejection sampling; exceeding this signals a degenerate config.
MAX_RESAMPLES = 10**6


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical and network parameters. Defaults follow the standard benchmark setup."""

    num_pairs: int
    seed: int
    coverage_radius_m: float = 800.0
    uav_height_m: float = 50.0
    max_pair_dist_m: float = 50.0
    bandwidth_hz: float = 1e6
    p0_watt: float = 5.0
    eta: float = 0.5
    p_cir_watt: float = 4.0
    alpha_h: float = 3.0
    alpha_g: float = 3.0
    beta0_db: float = -30.0
    noise_density_dbm_hz: float = -130.0
    atg_a: float = 11.95
    atg_b: float = 0.136
    gamma_db: float = 20.0
    rate_cap_bpshz: float = 0.2
    theta_fix: float = 2.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in ("num_pairs", "seed"):
                ok, kind = isinstance(value, numbers.Integral), "an integer"
            else:
                ok = isinstance(value, numbers.Real) and math.isfinite(value)
                kind = "a finite real number"
            # bool is an int subclass, but a true pair count or wattage is a type error
            if isinstance(value, bool) or not ok:
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        if self.num_pairs < 1:
            raise ValueError(f"num_pairs must be >= 1, got {self.num_pairs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.theta_fix <= 1.0:
            raise ValueError(f"theta_fix must exceed 1, got {self.theta_fix}")
        for name in (
            "coverage_radius_m",
            "uav_height_m",
            "max_pair_dist_m",
            "bandwidth_hz",
            "p0_watt",
            "p_cir_watt",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # atg_a >= 0 keeps the LOS probability in (0, 1] (Al-Hourani et al.,
        # IEEE WCL 2014), gamma_db >= 0 keeps the NLOS factor <= 1
        for name in ("atg_a", "gamma_db", "rate_cap_bpshz"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("scenario JSON must be an object")
        fields = dataclasses.fields(cls)
        missing = sorted({f.name for f in fields if f.default is dataclasses.MISSING} - set(data))
        if missing:
            raise ValueError(f"scenario JSON must carry the fields {missing}")
        unknown = set(data) - {f.name for f in fields}
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class Placement:
    """Node geometry: tx_pos/rx_pos are (N, 2) arrays in meters, UAV ground point at origin."""

    tx_pos: np.ndarray
    rx_pos: np.ndarray

    def __post_init__(self):
        self.tx_pos.setflags(write=False)
        self.rx_pos.setflags(write=False)

    @property
    def num_pairs(self) -> int:
        return self.tx_pos.shape[0]


@dataclass(frozen=True)
class ChannelRealization:
    """Realized power gains: g[n] is UAV->Tx_n, h[n][i] is Tx_i->Rx_n (diagonal = desired link)."""

    g: np.ndarray
    h: np.ndarray
    sigma2_watt: float

    def __post_init__(self):
        self.g.setflags(write=False)
        self.h.setflags(write=False)

    @property
    def num_pairs(self) -> int:
        return self.g.shape[0]


def noise_power(config: ScenarioConfig) -> float:
    """Noise power in watts over the configured bandwidth; positive and finite."""
    try:
        sigma2 = 10.0 ** ((config.noise_density_dbm_hz - 30.0) / 10.0) * config.bandwidth_hz
        if 0.0 < sigma2 < math.inf:
            return sigma2
    except ArithmeticError:
        pass
    raise ValueError("noise power out of range: noise_density_dbm_hz, bandwidth_hz")


def elevation_angle_deg(pos, height: float) -> float:
    """UAV elevation angle in degrees as seen from a ground point."""
    x, y = float(pos[0]), float(pos[1])
    d = math.sqrt(x * x + y * y + height * height)
    return math.degrees(math.asin(height / d))


def los_probability(phi_deg: float, a: float, b: float) -> float:
    """Line-of-sight probability 1 / (1 + a*exp(-b*(phi - a))) for elevation phi in degrees."""
    return 1.0 / (1.0 + a * math.exp(-b * (phi_deg - a)))


def atg_gain(pos, config: ScenarioConfig) -> float:
    """Air-to-ground power gain: LOS/NLOS path-loss mixture weighted by LOS probability.

    The NLOS branch applies the excess attenuation gamma_db as a loss,
    i.e. it is multiplied by 10**(-gamma_db/10) <= 1.
    """
    x, y = float(pos[0]), float(pos[1])
    h = config.uav_height_m
    d = math.sqrt(x * x + y * y + h * h)
    try:
        p_los = los_probability(elevation_angle_deg(pos, h), config.atg_a, config.atg_b)
        gamma_lin = 10.0 ** (-config.gamma_db / 10.0)
        return (p_los + (1.0 - p_los) * gamma_lin) * d ** (-config.alpha_g)
    except ArithmeticError:
        raise ValueError("UAV gain out of range: uav_height_m, alpha_g, atg_a, atg_b, gamma_db")


def d2d_gain(distance_m: float, rho: float, config: ScenarioConfig) -> float:
    """D2D power gain beta0 * rho^2 * D^(-alpha_h), finite; rho is the fading amplitude."""
    try:
        beta0 = 10.0 ** (config.beta0_db / 10.0)
        gain = beta0 * rho * rho * distance_m ** (-config.alpha_h)
        # distance_m may be an array; a float takes the cheaper scalar test
        if np.isfinite(gain).all() if isinstance(gain, np.ndarray) else math.isfinite(gain):
            return gain
    except ArithmeticError:
        pass
    raise ValueError("D2D gain out of range: beta0_db, alpha_h")


def _disk_point(rng: np.random.Generator, radius: float) -> np.ndarray:
    r = radius * math.sqrt(rng.uniform())
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([r * math.cos(ang), r * math.sin(ang)])


def generate_placement(config: ScenarioConfig, rng: np.random.Generator) -> Placement:
    """Drop Tx nodes uniformly in the coverage disk and each Rx uniformly around its Tx.

    Zero-length pairs are rejected and resampled. Draw order is fixed
    (per pair: Tx, then Rx offsets) so placements are bit-reproducible per seed.
    """
    n = config.num_pairs
    tx = np.empty((n, 2))
    rx = np.empty((n, 2))
    for k in range(n):
        tx[k] = _disk_point(rng, config.coverage_radius_m)
        for _ in range(MAX_RESAMPLES):
            offset = _disk_point(rng, config.max_pair_dist_m)
            if offset[0] != 0.0 or offset[1] != 0.0:
                break
        else:
            raise RuntimeError("placement sampling failed: degenerate pair geometry")
        rx[k] = tx[k] + offset
    return Placement(tx_pos=tx, rx_pos=rx)


def realize_channels(
    placement: Placement, config: ScenarioConfig, rng: np.random.Generator
) -> ChannelRealization:
    """Draw one channel realization for a placement.

    h[n][i] applies the D2D model to the Tx_i -> Rx_n distance with an
    independent unit-mean exponential power fading per link; fading draws are
    row-major in (n, i). Zero fading draws are resampled.
    """
    n = placement.num_pairs
    g = np.array([atg_gain(p, config) for p in placement.tx_pos])
    h = np.empty((n, n))
    for row in range(n):
        for col in range(n):
            d = float(np.linalg.norm(placement.tx_pos[col] - placement.rx_pos[row]))
            if d <= 0.0:
                raise ValueError(
                    f"degenerate geometry: Tx_{col} coincides with Rx_{row}"
                )
            for _ in range(MAX_RESAMPLES):
                rho2 = rng.exponential(1.0)
                if rho2 > 0.0:
                    break
            else:
                raise RuntimeError("fading sampling failed")
            h[row, col] = d2d_gain(d, math.sqrt(rho2), config)
    return ChannelRealization(g=g, h=h, sigma2_watt=noise_power(config))


def make_scenario(config: ScenarioConfig) -> tuple[Placement, ChannelRealization]:
    """Generate placement and channels from the config's own seed."""
    rng = np.random.default_rng(config.seed)
    placement = generate_placement(config, rng)
    return placement, realize_channels(placement, config, rng)
