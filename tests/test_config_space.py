"""Every algorithm across the physically valid ScenarioConfig space.

The network and power ranges are test_feasible_start's, with theta_fix also
drawn past oht's search range. The channel physics (UAV height, pair
distance, P0, path-loss exponents, beta0, LOS curve, NLOS excess loss and
bandwidth) is drawn too, over wide ranges around each default. Each drawn
config runs jhtpa, opa and oht through run_algorithm, and each report must be
a converged, feasible answer whose trace never falls and whose EE and QoS
floor are the ones its allocation and instance give.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import uavee.core as core
from uavee import ScenarioConfig, make_scenario
from uavee.algorithms import ALGORITHM_NAMES, run_algorithm


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    num_pairs=st.integers(1, 30),
    radius=st.floats(20.0, 5000.0),
    eta=st.floats(0.01, 0.99),
    theta_fix=st.one_of(st.floats(1.01, 50.0), st.floats(50.0, 1e5)),
    noise=st.floats(-170.0, -80.0),
    p_cir=st.floats(1e-6, 10.0),
    rate_cap=st.floats(0.01, 5.0),
    height=st.floats(5.0, 500.0),
    pair_dist=st.floats(1.0, 200.0),
    p0=st.floats(0.1, 50.0),
    alpha_h=st.floats(2.0, 4.5),
    alpha_g=st.floats(2.0, 4.5),
    beta0=st.floats(-60.0, -20.0),
    gamma=st.floats(0.0, 40.0),
    atg_a=st.floats(0.0, 30.0),
    atg_b=st.floats(0.01, 1.0),
    bandwidth=st.floats(1e4, 1e8),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_algorithm_reports_a_consistent_feasible_answer(
    num_pairs,
    radius,
    eta,
    theta_fix,
    noise,
    p_cir,
    rate_cap,
    height,
    pair_dist,
    p0,
    alpha_h,
    alpha_g,
    beta0,
    gamma,
    atg_a,
    atg_b,
    bandwidth,
    seed,
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
        uav_height_m=height,
        max_pair_dist_m=pair_dist,
        p0_watt=p0,
        alpha_h=alpha_h,
        alpha_g=alpha_g,
        beta0_db=beta0,
        gamma_db=gamma,
        atg_a=atg_a,
        atg_b=atg_b,
        bandwidth_hz=bandwidth,
    )
    _, ch = make_scenario(config)
    r_bar = core.qos_threshold(ch, config)
    for name in ALGORITHM_NAMES:
        report = run_algorithm(name, ch, config)
        assert report.stop_reason != "numerical_failure", name
        assert report.status == "converged", name

        alloc = report.allocation
        feas = core.check_feasible(alloc, ch, config, r_bar)
        budget = alloc.tau * config.eta * config.p0_watt * ch.g
        assert feas.tau_in_range, name
        assert np.all(feas.causality_violation <= 1e-8 * budget), name
        assert np.all(feas.qos_violation <= 1e-8 * r_bar), name

        assert np.all(np.diff(report.trace) >= 0.0), name
        ee = report.ee_nats_per_joule
        assert math.isfinite(ee) and ee >= 0.0, name
        assert ee == core.energy_efficiency(alloc, ch, config), name
        assert report.r_bar == r_bar, name
        if name != "oht":  # oht's trace holds its max-min rate, not its EE
            assert report.trace[-1] == ee, name
