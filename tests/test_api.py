"""The package root exports exactly the API README documents."""

import uavee

DOCUMENTED = {
    "ALGORITHM_NAMES",
    "ScaSettings",
    "SolveReport",
    "jhtpa",
    "opa",
    "oht",
    "run_algorithm",
    "ExperimentSpec",
    "ResultRow",
    "derive_child_seed",
    "run_experiment",
    "Allocation",
    "FeasibilityReport",
    "check_feasible",
    "energy_efficiency",
    "qos_threshold",
    "NoFeasiblePointFoundError",
    "ChannelRealization",
    "Placement",
    "ScenarioConfig",
    "generate_placement",
    "make_scenario",
    "realize_channels",
}


def test_package_exports_only_the_documented_api():
    assert set(uavee.__all__) == DOCUMENTED
    assert all(hasattr(uavee, name) for name in uavee.__all__)
    # README's import line
    from uavee import ScenarioConfig, jhtpa, make_scenario, oht, opa  # noqa: F401
