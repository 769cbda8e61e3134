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
    p = _interior_powers(ch, config, r_bar, theta_fix)
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
    # which is exactly singular, so no interior point exists
    ch = ChannelRealization(g=np.full(2, 1e-5), h=np.ones((2, 2)), sigma2_watt=1e-12)
    p = _interior_powers(ch, ScenarioConfig(num_pairs=2, seed=0), math.log(2.0) / 2.0, 2.0)
    assert np.isnan(p).all()


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
def test_opa_answers_feasibly_and_falls_back_to_the_full_harvest_point(
    num_pairs, radius, eta, theta_fix, noise, p_cir, rate_cap, seed
):
    # opa's answer stays feasible, also where the QoS floor leaves a pair
    # almost no room below full harvest, and a run that finds no interior at
    # theta_fix returns the full-harvest point (its powers 1 / (1 / p_max),
    # within one ulp). Where opa certifies that point, its SCA is checked
    # too, with the certificate off.
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
    report = opa(ch, config)
    assert relative_deficit(report) <= 1e-8
    if report.stop_reason == "kkt_certified":
        with mock.patch.object(algorithms, "_kkt_certified", lambda *args: False):
            report = opa(ch, config)
        assert relative_deficit(report) <= 1e-8
    if report.stop_reason == "boundary_fallback":
        np.testing.assert_array_max_ulp(report.allocation.p, core.pinned_powers(theta_fix, ch, config), maxulp=1)


def test_opa_iterates_every_pair_where_the_floor_leaves_one_little_room():
    # An uncertified opa run whose worst pair has under 1e-5 of room below
    # full harvest. Holding that pair at full harvest stops opa after one
    # SCA step at 1.5822214302e-08 nats/J; iterating every pair reaches
    # 1.5825814874e-08 (+2.3e-4) in two, with zero deficits.
    config = ScenarioConfig(
        num_pairs=21,
        seed=3801690082,
        coverage_radius_m=404.3084480054669,
        uav_height_m=217.68451132279907,
        max_pair_dist_m=127.09822942204445,
        bandwidth_hz=20233667.99989449,
        p0_watt=35.73395355996229,
        eta=0.5065481815708816,
        p_cir_watt=2.8090513492568676,
        alpha_h=3.8117271116697076,
        alpha_g=4.409262111261186,
        beta0_db=-21.85546459025864,
        noise_density_dbm_hz=-145.79028933521775,
        atg_a=1.5547858835242057,
        atg_b=0.7467567268208016,
        gamma_db=3.0721393409817077,
        rate_cap_bpshz=4.581030887101056,
        theta_fix=88757.73970849454,
    )
    _, ch = make_scenario(config)
    report = opa(ch, config)
    assert report.stop_reason == "epsilon"
    assert relative_deficit(report) <= 1e-8
    assert report.ee_nats_per_joule >= 1.58258e-08 * (1.0 - 1e-6)


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
