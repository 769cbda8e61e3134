"""The closed-form feasible start of jhtpa and opa (algorithms._interior_powers)."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavee.algorithms as algorithms
import uavee.core as core
from uavee import ChannelRealization, ScenarioConfig, make_scenario
from uavee.algorithms import _interior_powers, jhtpa, opa

from oracles import relative_deficit


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    num_pairs=st.integers(1, 30),
    radius=st.floats(20.0, 5000.0),
    eta=st.floats(0.01, 0.99),
    theta_fix=st.floats(1.01, 50.0),
    noise=st.floats(-170.0, -80.0),
    p_cir=st.floats(1e-6, 10.0),
    rate_cap=st.floats(0.01, 5.0),
    seed=st.integers(0, 2**32 - 1),
    overflow=st.booleans(),
)
def test_interior_power_is_strictly_feasible_or_none(
    num_pairs, radius, eta, theta_fix, noise, p_cir, rate_cap, seed, overflow
):
    config = ScenarioConfig(
        num_pairs=num_pairs,
        seed=seed,
        coverage_radius_m=radius,
        eta=eta,
        theta_fix=theta_fix,
        noise_density_dbm_hz=noise,
        p_cir_watt=p_cir,
        rate_cap_bpshz=rate_cap,
    )
    _, ch = make_scenario(config)
    # r_bar = 1e3 puts theta_fix * r_bar beyond expm1's float range
    r_bar = 1e3 if overflow else core.qos_threshold(ch, config)
    p = _interior_powers(ch, config, r_bar, theta_fix)[0]
    if overflow:
        assert np.isnan(p).all()
    if np.isnan(p).all():
        return
    p_max = (theta_fix - 1.0) * eta * config.p0_watt * ch.g
    assert np.all(p > 0.0) and np.all(p < p_max)
    assert np.all(np.log1p(core.sinr(p, ch)) / theta_fix > r_bar)


def test_a_singular_qos_system_gives_no_interior_power():
    # two pairs that hear each other as well as themselves, at theta = 2 and
    # r_bar = ln 2 / 2: gamma = expm1(ln 2) = 1 and I - G = [[1, -1], [-1, 1]],
    # which is exactly singular, so neither p nor x_min exists
    ch = ChannelRealization(g=np.full(2, 1e-5), h=np.ones((2, 2)), sigma2_watt=1e-12)
    p, x_min = _interior_powers(ch, ScenarioConfig(num_pairs=2, seed=0), math.log(2.0) / 2.0, 2.0)
    assert np.isnan(p).all() and np.isnan(x_min).all()


def _report_fields(report):
    fields = json.loads(report.to_json(include_trace=True))
    del fields["wall_time_ms"]
    return fields


@pytest.mark.parametrize(
    "physics",
    [dict(num_pairs=1), dict(num_pairs=5, coverage_radius_m=5000.0), dict(num_pairs=5, noise_density_dbm_hz=-80.0)],
    ids=["one_pair", "radius_5000", "noise_-80"],
)
def test_edge_configs_start_from_few_candidates(monkeypatch, physics):
    # Noise-limited and single-pair configs, where the feasible set can shrink
    # to the full-harvest point: the start proposes its one candidate, then
    # falls back to that point.
    proposals = []
    real_find_feasible = algorithms.find_feasible

    def counting_find_feasible(violation, sampler):
        proposals.append(0)

        def counted(rng, k):
            proposals[-1] += 1
            return sampler(rng, k)

        return real_find_feasible(violation, counted)

    monkeypatch.setattr(algorithms, "find_feasible", counting_find_feasible)
    for seed in range(5):
        config = ScenarioConfig(seed=seed, **physics)
        _, ch = make_scenario(config)
        for algorithm in (jhtpa, opa):
            report = algorithm(ch, config)
            assert proposals[-1] == 1
            assert relative_deficit(report) <= 1e-8
            # the seed draws the channels, and nothing else reaches a solve
            reseeded = algorithm(ch, dataclasses.replace(config, seed=seed + 1000))
            assert _report_fields(reseeded) == _report_fields(report)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    num_pairs=st.integers(1, 30),
    radius=st.floats(20.0, 5000.0),
    eta=st.floats(0.01, 0.99),
    theta_fix=st.floats(1.01, 50.0),
    noise=st.floats(-170.0, -80.0),
    p_cir=st.floats(1e-6, 10.0),
    rate_cap=st.floats(0.01, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_opa_presolve_pins_the_pairs_the_floor_holds_at_full_harvest(
    num_pairs, radius, eta, theta_fix, noise, p_cir, rate_cap, seed
):
    # opa fixes pair k at p_max_k when the QoS floor leaves it at most
    # _PIN_TOL of room there, 1 - x_min_k <= _PIN_TOL, with x_min the
    # minimal-power point of (I - G) x >= b (computed here on its own). The
    # answer stays feasible, the pinned pairs sit exactly at full harvest,
    # and opa falls back to the full-harvest point only when all are pinned.
    # Where opa certifies that point before any presolve, the presolve is
    # checked with the certificate off.
    config = ScenarioConfig(
        num_pairs=num_pairs,
        seed=seed,
        coverage_radius_m=radius,
        eta=eta,
        theta_fix=theta_fix,
        noise_density_dbm_hz=noise,
        p_cir_watt=p_cir,
        rate_cap_bpshz=rate_cap,
    )
    _, ch = make_scenario(config)
    r_bar = core.qos_threshold(ch, config)
    p_max = (theta_fix - 1.0) * eta * config.p0_watt * ch.g
    hd = np.diag(ch.h)
    gamma = np.expm1(theta_fix * r_bar)
    interference = gamma * ch.h * p_max[None, :] / (hd * p_max)[:, None]
    np.fill_diagonal(interference, 0.0)
    x_min = np.linalg.solve(np.eye(num_pairs) - interference, gamma * ch.sigma2_watt / (hd * p_max))
    pinned = 1.0 - x_min <= algorithms._PIN_TOL

    report = opa(ch, config)
    if report.stop_reason == "kkt_certified":
        vertex = core.pinned_allocation(theta_fix, ch, config)
        assert report.pinned == 0 and np.array_equal(report.allocation.p, vertex.p)
        with mock.patch.object(algorithms, "_kkt_certified", lambda *args: False):
            report = opa(ch, config)
    assert report.pinned == pinned.sum()
    assert np.array_equal(report.allocation.p[pinned], p_max[pinned])
    assert relative_deficit(report) <= 1e-8
    if report.stop_reason == "boundary_fallback":
        assert pinned.all()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    num_pairs=st.integers(1, 30),
    radius=st.floats(20.0, 5000.0),
    eta=st.floats(0.01, 0.99),
    theta_fix=st.floats(1.01, 50.0),
    noise=st.floats(-170.0, -80.0),
    p_cir=st.floats(1e-6, 10.0),
    rate_cap=st.floats(0.01, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_jhtpa_from_the_face_start_is_feasible_and_ascends(
    num_pairs, radius, eta, theta_fix, noise, p_cir, rate_cap, seed
):
    # jhtpa starts at _face_theta, whose full-harvest point meets the QoS
    # floor; from there its answer is feasible, its trace never falls, and a
    # start without interior returns exactly that full-harvest point.
    config = ScenarioConfig(
        num_pairs=num_pairs,
        seed=seed,
        coverage_radius_m=radius,
        eta=eta,
        theta_fix=theta_fix,
        noise_density_dbm_hz=noise,
        p_cir_watt=p_cir,
        rate_cap_bpshz=rate_cap,
    )
    _, ch = make_scenario(config)
    r_bar = core.qos_threshold(ch, config)
    face = algorithms._face_theta(ch, config, r_bar)
    assert np.all(core.pinned_rates(face, ch, config) >= r_bar)

    report = jhtpa(ch, config)
    feas = report.feasibility
    assert feas.tau_in_range
    assert np.all(feas.causality_violation <= 1e-10) and np.all(feas.qos_violation <= 1e-10)
    assert np.all(np.diff(report.trace) >= 0.0)
    assert report.stop_reason != "numerical_failure"
    if report.stop_reason == "boundary_fallback":
        assert report.allocation.tau == 1.0 - 1.0 / face
        full = core.pinned_powers(face, ch, config)
        np.testing.assert_allclose(report.allocation.p, full, rtol=1e-15)
