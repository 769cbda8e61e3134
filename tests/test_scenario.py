import json
import math
import pathlib

import numpy as np
import pytest

import uavee.scenario as scenario
from uavee import Placement, ScenarioConfig
from uavee.scenario import (
    atg_gain,
    d2d_gain,
    elevation_angle_deg,
    generate_placement,
    los_probability,
    make_scenario,
    noise_power,
    realize_channels,
)

DATA = pathlib.Path(__file__).parent / "data"


def test_config_defaults():
    cfg = ScenarioConfig(num_pairs=5, seed=1)
    assert cfg.coverage_radius_m == 800.0
    assert cfg.uav_height_m == 50.0
    assert cfg.max_pair_dist_m == 50.0
    assert cfg.p0_watt == 5.0
    assert cfg.eta == 0.5
    assert cfg.p_cir_watt == 4.0
    assert cfg.beta0_db == -30.0
    assert cfg.theta_fix == 2.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_pairs": 0},
        {"eta": 0.0},
        {"eta": 1.0},
        {"theta_fix": 1.0},
        {"coverage_radius_m": -1.0},
        {"bandwidth_hz": 0.0},
        {"p0_watt": math.nan},
        {"theta_fix": math.inf},
        {"noise_density_dbm_hz": math.nan},
        {"coverage_radius_m": math.inf},
        {"beta0_db": -math.inf},
        {"rate_cap_bpshz": -1.0},
        {"num_pairs": 2.5},
        {"num_pairs": True},
        {"seed": 1.5},
        {"seed": "1"},
        {"p0_watt": "5"},
        {"eta": None},
        {"seed": -1},
        {"atg_a": -1.0},
        {"gamma_db": -1.0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    base = {"num_pairs": 2, "seed": 0}
    base.update(kwargs)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        ScenarioConfig(**base)


def test_config_accepts_numpy_integers_and_integer_physics():
    cfg = ScenarioConfig(num_pairs=np.int64(3), seed=np.uint64(7), p0_watt=5, rate_cap_bpshz=0.0)
    assert cfg.num_pairs == 3 and cfg.seed == 7


def test_config_json_roundtrip():
    cfg = ScenarioConfig(num_pairs=4, seed=99, uav_height_m=120.0)
    again = ScenarioConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_json_requires_seed():
    with pytest.raises(ValueError):
        ScenarioConfig.from_json(json.dumps({"num_pairs": 2}))


def test_config_json_requires_num_pairs():
    # every field without a default is required; a missing one is named
    # instead of surfacing as the constructor's TypeError
    with pytest.raises(ValueError, match="num_pairs"):
        ScenarioConfig.from_json(json.dumps({"seed": 3}))
    with pytest.raises(ValueError, match="'num_pairs', 'seed'"):
        ScenarioConfig.from_json("{}")


def test_noise_power_values():
    assert noise_power(ScenarioConfig(num_pairs=1, seed=0)) == pytest.approx(1e-10, rel=1e-12)
    cfg1 = ScenarioConfig(num_pairs=1, seed=0, bandwidth_hz=1.0)
    assert noise_power(cfg1) == pytest.approx(1e-16, rel=1e-12)
    cfg2 = ScenarioConfig(num_pairs=1, seed=0, noise_density_dbm_hz=-100.0, bandwidth_hz=1e3)
    assert noise_power(cfg2) == pytest.approx(1e-10, rel=1e-12)


def test_elevation_angle():
    assert elevation_angle_deg((0.0, 0.0), 50.0) == pytest.approx(90.0)
    assert elevation_angle_deg((50.0, 0.0), 50.0) == pytest.approx(45.0)
    # direct evaluation: asin(50 / sqrt(300^2 + 400^2 + 50^2))
    expected = math.degrees(math.asin(50.0 / math.sqrt(252500.0)))
    assert elevation_angle_deg((300.0, 400.0), 50.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(5.711, abs=5e-4)


def test_los_probability_values():
    assert los_probability(11.95, 11.95, 0.136) == pytest.approx(1.0 / 12.95, rel=1e-12)
    assert los_probability(90.0, 11.95, 0.136) == pytest.approx(0.99971, abs=5e-6)
    # the phi -> 0 limit of the formula
    limit = 1.0 / (1.0 + 11.95 * math.exp(11.95 * 0.136))
    assert los_probability(1e-9, 11.95, 0.136) == pytest.approx(limit, rel=1e-9)


def test_los_probability_monotone():
    phis = np.linspace(0.5, 90.0, 400)
    vals = np.array([los_probability(p, 11.95, 0.136) for p in phis])
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals > 0.0) & (vals < 1.0))


def test_atg_gain_bound_and_degenerate_mixture():
    cfg = ScenarioConfig(num_pairs=1, seed=0)
    g0 = atg_gain((0.0, 0.0), cfg)
    assert 0.0 < g0 <= 50.0**-3
    # gamma_lin = 1 collapses the mixture to the pure path loss
    cfg_flat = ScenarioConfig(num_pairs=1, seed=0, gamma_db=0.0)
    d = math.sqrt(300.0**2 + 400.0**2 + 50.0**2)
    assert atg_gain((300.0, 400.0), cfg_flat) == pytest.approx(d**-3, rel=1e-12)


def test_atg_gain_scalar_oracle():
    # independent composition of elevation angle, LOS probability and the
    # LOS/NLOS mixture at (300, 400)
    cfg = ScenarioConfig(num_pairs=1, seed=0)
    d = math.sqrt(300.0**2 + 400.0**2 + 50.0**2)
    phi = math.degrees(math.asin(50.0 / d))
    p_los = 1.0 / (1.0 + 11.95 * math.exp(-0.136 * (phi - 11.95)))
    expected = (p_los + (1.0 - p_los) * 10.0 ** (-20.0 / 10.0)) * d**-3
    assert atg_gain((300.0, 400.0), cfg) == pytest.approx(expected, rel=1e-12)


def test_atg_gain_monotone_radially():
    cfg = ScenarioConfig(num_pairs=1, seed=0)
    radii = np.linspace(0.0, 800.0, 200)
    vals = np.array([atg_gain((r, 0.0), cfg) for r in radii])
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all(vals > 0.0)
    angles = np.array([elevation_angle_deg((r, 0.0), 50.0) for r in radii])
    assert np.all(np.diff(angles) < 0.0)


def test_d2d_gain_values():
    cfg = ScenarioConfig(num_pairs=1, seed=0)
    assert d2d_gain(50.0, 1.0, cfg) == pytest.approx(8e-9, rel=1e-12)
    assert d2d_gain(1.0, 1.0, cfg) == pytest.approx(1e-3, rel=1e-12)
    assert d2d_gain(10.0, 0.0, cfg) == 0.0


def test_placement_respects_geometry():
    cfg = ScenarioConfig(num_pairs=40, seed=42)
    placement = generate_placement(cfg, np.random.default_rng(42))
    radii = np.linalg.norm(placement.tx_pos, axis=1)
    dists = np.linalg.norm(placement.tx_pos - placement.rx_pos, axis=1)
    assert np.all(radii <= cfg.coverage_radius_m)
    assert np.all(dists > 0.0)
    assert np.all(dists <= cfg.max_pair_dist_m)


def test_placement_deterministic():
    cfg = ScenarioConfig(num_pairs=6, seed=42)
    a = generate_placement(cfg, np.random.default_rng(42))
    b = generate_placement(cfg, np.random.default_rng(42))
    assert np.array_equal(a.tx_pos, b.tx_pos)
    assert np.array_equal(a.rx_pos, b.rx_pos)


def test_realize_channels_shapes_and_determinism():
    cfg = ScenarioConfig(num_pairs=1, seed=3)
    _, ch = make_scenario(cfg)
    assert ch.h.shape == (1, 1) and ch.g.shape == (1,)
    assert np.all(ch.h > 0.0) and np.all(ch.g > 0.0) and ch.sigma2_watt > 0.0

    cfg5 = ScenarioConfig(num_pairs=5, seed=7)
    _, first = make_scenario(cfg5)
    _, second = make_scenario(cfg5)
    assert np.array_equal(first.h, second.h)
    assert np.array_equal(first.g, second.g)
    assert first.sigma2_watt == second.sigma2_watt


def test_generate_placement_compositional():
    # every coordinate is reproducible from the scalar uniform stream: per
    # pair the Tx radius, the Tx angle, the offset radius, the offset angle
    cfg = ScenarioConfig(num_pairs=6, seed=7)
    placement = generate_placement(cfg, np.random.default_rng(123))

    replay = np.random.default_rng(123)
    for k in range(6):
        points = []
        for radius in (cfg.coverage_radius_m, cfg.max_pair_dist_m):
            r = radius * math.sqrt(replay.uniform())
            ang = replay.uniform(0.0, 2.0 * math.pi)
            points.append((r * math.cos(ang), r * math.sin(ang)))
        (tx, ty), (ox, oy) = points
        assert placement.tx_pos[k].tolist() == [tx, ty]
        assert placement.rx_pos[k].tolist() == [tx + ox, ty + oy]


def test_realize_channels_compositional():
    # every matrix entry is reproducible from the logged distances and
    # fading draws with the same draw order
    cfg = ScenarioConfig(num_pairs=5, seed=7)
    rng = np.random.default_rng(123)
    placement = generate_placement(cfg, rng)
    state = rng.bit_generator.state
    ch = realize_channels(placement, cfg, rng)

    replay = np.random.default_rng()
    replay.bit_generator.state = state
    for row in range(5):
        for col in range(5):
            d = float(np.linalg.norm(placement.tx_pos[col] - placement.rx_pos[row]))
            rho2 = replay.exponential(1.0)
            assert ch.h[row, col] == d2d_gain(d, math.sqrt(rho2), cfg)
    for k in range(5):
        assert ch.g[k] == atg_gain(placement.tx_pos[k], cfg)
    assert ch.sigma2_watt == noise_power(cfg)


def test_realize_channels_rejects_a_tx_on_an_rx():
    # a zero Tx-Rx distance has no path loss: the draw names the two nodes
    placement = Placement(tx_pos=np.array([[1.0, 2.0], [3.0, 4.0]]), rx_pos=np.array([[3.0, 4.0], [5.0, 6.0]]))
    with pytest.raises(ValueError, match="Tx_1 coincides with Rx_0"):
        realize_channels(placement, ScenarioConfig(num_pairs=2, seed=0), np.random.default_rng(0))


class _Draws:
    """A Generator stand-in. Batched draws come from a seeded Generator, with
    an exact 0.0 at the given (row, col) of uniform's or exponential's batch.
    Scalar draws, the redraws, are counted and passed through. With zero,
    every draw is 0.0."""

    def __init__(self, seed, zero_uniform=None, zero_exponential=None, zero=False):
        self.rng = np.random.default_rng(seed)
        self.zero_at = {"uniform": zero_uniform, "exponential": zero_exponential}
        self.zero = zero
        self.redraws = 0

    def _draw(self, name, args, size):
        if size is None:
            self.redraws += 1
            return 0.0 if self.zero else getattr(self.rng, name)(*args)
        if self.zero:
            return np.zeros(size)
        batch = getattr(self.rng, name)(*args, size=size)
        batch[self.zero_at[name]] = 0.0
        return batch

    def uniform(self, *args, size=None):
        return self._draw("uniform", args, size)

    def exponential(self, *args, size=None):
        return self._draw("exponential", args, size)


def test_zero_draws_are_redrawn_after_their_batch():
    # pair 1's offset radius and the fading power of link (2, 0) draw an
    # exact 0.0; each is redrawn from the scalar stream after its batch
    cfg = ScenarioConfig(num_pairs=3, seed=5)
    rng = _Draws(5, zero_uniform=(1, 2), zero_exponential=(2, 0))
    placement = generate_placement(cfg, rng)
    assert rng.redraws == 2  # the offset's radius and angle
    assert np.all(np.any(placement.rx_pos != placement.tx_pos, axis=1))
    # pairs 0 and 2 keep the batch's points
    plain = generate_placement(cfg, np.random.default_rng(5))
    assert np.array_equal(placement.tx_pos, plain.tx_pos)
    assert np.array_equal(placement.rx_pos[[0, 2]], plain.rx_pos[[0, 2]])
    assert not np.array_equal(placement.rx_pos[1], plain.rx_pos[1])
    ch = realize_channels(placement, cfg, rng)
    assert rng.redraws == 3
    assert np.all(ch.h > 0.0)


def test_zero_draw_redraws_are_bounded(monkeypatch):
    # a generator that only ever draws 0.0 exhausts MAX_RESAMPLES redraws
    monkeypatch.setattr(scenario, "MAX_RESAMPLES", 3)
    cfg = ScenarioConfig(num_pairs=2, seed=0)
    rng = _Draws(0, zero=True)
    with pytest.raises(RuntimeError, match="placement sampling failed"):
        generate_placement(cfg, rng)
    assert rng.redraws == 2 * 3
    placement = generate_placement(cfg, np.random.default_rng(0))
    rng = _Draws(0, zero=True)
    with pytest.raises(RuntimeError, match="fading sampling failed"):
        realize_channels(placement, cfg, rng)
    assert rng.redraws == 3


def test_fading_power_unit_mean():
    # h over the unit-fading D2D gain is each link's fading power draw; over
    # one N = 317 realization (100,489 links) its mean must be near 1
    cfg = ScenarioConfig(num_pairs=317, seed=2024)
    placement, ch = make_scenario(cfg)
    dist = np.linalg.norm(placement.tx_pos[None, :, :] - placement.rx_pos[:, None, :], axis=2)
    fading = ch.h / [[d2d_gain(d, 1.0, cfg) for d in row] for row in dist.tolist()]
    assert abs(fading.mean() - 1.0) < 0.01


def test_channels_immutable():
    cfg = ScenarioConfig(num_pairs=2, seed=9)
    _, ch = make_scenario(cfg)
    with pytest.raises(ValueError):
        ch.h[0, 0] = 1.0
    with pytest.raises(ValueError):
        ch.g[0] = 1.0


def test_channel_golden_file():
    # frozen dump pins the generation pipeline across releases
    cfg = ScenarioConfig(num_pairs=3, seed=7)
    _, ch = make_scenario(cfg)
    golden = json.loads((DATA / "channels_n3_seed7.json").read_text())
    np.testing.assert_allclose(ch.h, golden["h"], rtol=1e-15)
    np.testing.assert_allclose(ch.g, golden["g"], rtol=1e-15)
    assert ch.sigma2_watt == pytest.approx(golden["sigma2_watt"], rel=1e-15)
