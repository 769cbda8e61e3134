import dataclasses
import math

import numpy as np
import pytest

from uavee import ScenarioConfig, make_scenario
from uavee.core import (
    LN2,
    Allocation,
    check_feasible,
    energy_efficiency,
    log_bound_coeffs,
    pinned_allocation,
    pinned_powers,
    pinned_rates,
    pinned_total_power,
    qos_threshold,
    rates,
    rates_from_inverse,
    sinr,
    sum_rate_gradient,
    surrogate_psi,
    total_power,
)
from uavee.scenario import ChannelRealization

from oracles import pinned_rates_direct


def cfg(**kw):
    kw.setdefault("num_pairs", 2)
    kw.setdefault("seed", 0)
    return ScenarioConfig(**kw)


def toy_channels(h, g, sigma2):
    return ChannelRealization(
        g=np.asarray(g, dtype=float), h=np.asarray(h, dtype=float), sigma2_watt=sigma2
    )


def test_rate_edge_cases():
    ch = toy_channels([[8e-9, 1e-10], [1e-10, 8e-9]], [1e-6, 1e-6], 1e-10)
    c = cfg()
    assert rates(Allocation(tau=0.5, p=np.array([0.0, 1e-5])), ch)[0] == 0.0
    near_one = Allocation(tau=1.0 - 1e-15, p=np.array([1e-5, 1e-5]))
    assert rates(near_one, ch)[0] < 1e-14


def test_rate_two_pair_oracle():
    ch = toy_channels([[8e-9, 1e-10], [1e-10, 8e-9]], [1e-6, 1e-6], 1e-10)
    alloc = Allocation(tau=0.5, p=np.array([1e-5, 1e-5]))
    expected = 0.5 * math.log(1.0 + 8e-14 / (1e-15 + 1e-10))
    assert rates(alloc, ch)[0] == pytest.approx(expected, rel=1e-12)
    assert rates(alloc, ch)[1] == pytest.approx(expected, rel=1e-12)


def test_total_power_values():
    c = cfg()
    assert total_power(Allocation(tau=1.0, p=np.zeros(2)), c) == pytest.approx(6.5)
    assert total_power(Allocation(tau=0.0, p=np.zeros(2)), c) == pytest.approx(4.0)
    assert total_power(Allocation(tau=0.5, p=np.array([2.0, 2.0])), c) == pytest.approx(7.25)


def test_energy_efficiency_composition(channels3, config3):
    alloc = Allocation(tau=0.4, p=np.array([1e-6, 2e-6, 5e-7]))
    expected = float(np.sum(rates(alloc, channels3))) / total_power(alloc, config3)
    assert energy_efficiency(alloc, channels3, config3) == pytest.approx(expected, rel=1e-14)
    assert energy_efficiency(Allocation(tau=0.4, p=np.zeros(3)), channels3, config3) == 0.0


def test_check_feasible_boundary_and_scaling(channels3, config3):
    tau = 0.5
    boundary = tau * config3.eta * config3.p0_watt * channels3.g / (1.0 - tau)
    report = check_feasible(Allocation(tau=tau, p=boundary), channels3, config3, r_bar=0.0)
    assert report.tau_in_range
    assert np.all(report.causality_violation <= 1e-22)
    assert np.all(report.qos_violation == 0.0)

    doubled = check_feasible(Allocation(tau=tau, p=2.0 * boundary), channels3, config3, 0.0)
    np.testing.assert_allclose(
        doubled.causality_violation, boundary * (1.0 - tau), rtol=1e-12
    )
    assert not np.all(doubled.causality_violation <= 0.0)
    assert np.all(report.causality_violation <= 1e-20) and np.all(report.qos_violation <= 1e-20)


def test_check_feasible_flags_bad_tau(channels3, config3):
    report = check_feasible(
        Allocation(tau=1.5, p=np.full(3, 1e-9)), channels3, config3, 0.0
    )
    assert not report.tau_in_range


def test_log_bound_coeffs_hand_values():
    c = log_bound_coeffs(1.0, 1.0, 1.0)
    assert c.const_term == pytest.approx(2.0 * math.log(2.0) + 1.0, rel=1e-14)
    assert c.cx == pytest.approx(0.5, rel=1e-14)
    assert c.cy == pytest.approx(0.5, rel=1e-14)
    assert c.ct == pytest.approx(math.log(2.0), rel=1e-14)


def test_log_bound_tangency():
    rng = np.random.default_rng(5)
    pts = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(3, 300)))
    coeffs = log_bound_coeffs(*pts)
    truth = np.log1p(1.0 / (pts[0] * pts[1])) / pts[2]
    at_expansion = surrogate_psi(coeffs, *pts)
    np.testing.assert_allclose(at_expansion, truth, rtol=1e-12)


def test_log_bound_vanishes_for_huge_product():
    c = log_bound_coeffs(1e9, 1e9, 1.0)
    assert c.const_term < 1e-8
    assert c.cx * 1e9 < 1e-8
    assert c.cy * 1e9 < 1e-8
    assert c.ct < 1e-8


def test_log_bound_ct_scaling():
    base = log_bound_coeffs(2.0, 3.0, 1.5)
    doubled = log_bound_coeffs(2.0, 3.0, 3.0)
    assert doubled.ct == pytest.approx(base.ct / 4.0, rel=1e-12)


def test_log_bound_rejects_nonpositive():
    # NaN is not positive: an expansion point or coefficient holding one is rejected
    nan = math.nan
    for bad in [
        (0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, 0.0),
        (nan, 1.0, 1.0), (1.0, nan, 1.0), (1.0, 1.0, nan), ([1.0, nan], 1.0, 1.0),
    ]:
        with pytest.raises(ValueError, match="expansion point"):
            log_bound_coeffs(*bad)
    coeffs = log_bound_coeffs([1.0, 2.0], 1.0, 1.0)
    for field in ("cx", "cy", "ct"):
        with pytest.raises(ValueError, match="coefficients"):
            dataclasses.replace(coeffs, **{field: np.array([1.0, nan])})


def test_surrogate_is_global_lower_bound():
    rng = np.random.default_rng(17)
    size = 20000
    lo, hi = np.log(1e-3), np.log(1e3)
    bar = [np.exp(rng.uniform(lo, hi, size)) for _ in range(3)]
    pts = [np.exp(rng.uniform(lo, hi, size)) for _ in range(3)]
    coeffs = log_bound_coeffs(*bar)
    psi = surrogate_psi(coeffs, *pts)
    truth = np.log1p(1.0 / (pts[0] * pts[1])) / pts[2]
    assert np.all(psi <= truth + 1e-12)


def test_rate_transform_consistency(channels3):
    # Eq-style original form vs the inverted-variable form
    rng = np.random.default_rng(8)
    for _ in range(50):
        tau = rng.uniform(0.05, 0.95)
        p = np.exp(rng.uniform(np.log(1e-10), np.log(1e-4), size=3))
        alloc = Allocation(tau=tau, p=p)
        direct = rates(alloc, channels3)
        transformed = rates_from_inverse(1.0 / (1.0 - tau), 1.0 / p, channels3)
        np.testing.assert_allclose(direct, transformed, rtol=1e-12)


def test_causality_transform_equivalence(channels3, config3):
    # (1-tau) p <= tau eta P0 g  iff  1/q <= (theta-1) eta P0 g with q = 1/p
    rng = np.random.default_rng(10)
    ep = config3.eta * config3.p0_watt
    for _ in range(200):
        tau = rng.uniform(0.05, 0.95)
        theta = 1.0 / (1.0 - tau)
        p = np.exp(rng.uniform(np.log(1e-12), np.log(1e-3), size=3))
        lhs_original = (1.0 - tau) * p - tau * ep * channels3.g
        lhs_transformed = p - (theta - 1.0) * ep * channels3.g
        # skip draws that land within float noise of the boundary
        mask = np.abs(lhs_original) > 1e-18
        assert np.array_equal(lhs_original[mask] <= 0, lhs_transformed[mask] <= 0)


def test_pinned_rates_match_generic_path(channels3, config3):
    for theta in (1.5, 2.0, 7.0, 120.0):
        alloc = pinned_allocation(theta, channels3, config3)
        np.testing.assert_allclose(
            pinned_rates(theta, channels3, config3), rates(alloc, channels3), rtol=1e-10
        )
        assert pinned_total_power(theta, channels3, config3) == pytest.approx(
            total_power(alloc, config3), rel=1e-12
        )


def test_qos_threshold_cap_active():
    # gains strong enough that every pinned rate clears the 0.2 bps/Hz cap
    ch = toy_channels([[1e-2, 1e-9], [1e-9, 1e-2]], [1e-2, 1e-2], 1e-10)
    c = cfg()
    assert np.min(pinned_rates(c.theta_fix, ch, c)) > 0.2 * LN2
    assert qos_threshold(ch, c) == pytest.approx(0.2 * LN2, rel=1e-12)
    assert qos_threshold(ch, c) == pytest.approx(0.13863, abs=5e-6)


def test_qos_threshold_vanishing_harvest():
    ch = toy_channels([[1e-8, 1e-12], [1e-12, 1e-8]], [1e-30, 1e-30], 1e-10)
    assert qos_threshold(ch, cfg()) < 1e-20


def test_qos_threshold_fixture_oracle(channels3, config3):
    direct = pinned_rates_direct(config3.theta_fix, channels3, config3)
    expected = min(float(np.min(direct)), 0.2 * LN2)
    assert qos_threshold(channels3, config3) == pytest.approx(expected, rel=1e-12)


def test_sinr_uses_cross_links_only():
    ch = toy_channels([[5e-9, 2e-10], [3e-10, 4e-9]], [1e-6, 1e-6], 1e-10)
    p = np.array([1e-5, 2e-5])
    s = sinr(p, ch)
    assert s[0] == pytest.approx(p[0] * 5e-9 / (p[1] * 2e-10 + 1e-10), rel=1e-12)
    assert s[1] == pytest.approx(p[1] * 4e-9 / (p[0] * 3e-10 + 1e-10), rel=1e-12)


@pytest.mark.parametrize("at", ["p_max", "interior"])
@pytest.mark.parametrize(
    "num_pairs, radius", [(1, 800.0), (3, 800.0), (10, 800.0), (30, 800.0), (2, 20.0), (5, 20.0), (10, 20.0)]
)
def test_sum_rate_gradient_matches_central_differences(num_pairs, radius, at):
    # opa's kkt_certified test reads this gradient at p_max(theta_fix). At
    # a 20 m radius the cross terms matter, so a cross term summed over the
    # wrong index fails there; paper-regime gradients hardly see it.
    config = ScenarioConfig(num_pairs=num_pairs, seed=num_pairs, coverage_radius_m=radius)
    _, ch = make_scenario(config)
    p = pinned_powers(config.theta_fix, ch, config)
    if at == "interior":
        p = p * np.random.default_rng(num_pairs).uniform(0.05, 0.95, num_pairs)
    grad = sum_rate_gradient(p, ch)
    numeric = np.empty(num_pairs)
    for k in range(num_pairs):
        step = np.zeros(num_pairs)
        step[k] = 1e-5 * p[k]
        up, down = np.log1p(sinr(p + step, ch)).sum(), np.log1p(sinr(p - step, ch)).sum()
        numeric[k] = (up - down) / (2.0 * step[k])
    assert np.max(np.abs(grad - numeric)) <= 1e-5 * np.max(np.abs(grad))


def test_allocation_theta_roundtrip():
    alloc = Allocation.from_theta(2.0, np.array([1e-6]))
    assert alloc.tau == pytest.approx(0.5)
    assert alloc.theta == pytest.approx(2.0)
