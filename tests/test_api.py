"""The package root exports exactly the API README documents, and the
records a sweep keeps per trial stay slotted and picklable."""

import dataclasses
import pickle

import numpy as np
import pytest

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


def _same(a, b) -> bool:
    """Field-by-field equality that compares arrays by value."""
    if dataclasses.is_dataclass(a):
        names = [f.name for f in dataclasses.fields(a)]
        return type(a) is type(b) and all(_same(getattr(a, n), getattr(b, n)) for n in names)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("index", range(4), ids=["config", "channels", "allocation", "report"])
def test_per_trial_records_are_slotted_and_pickle_round_trip(index):
    # a sweep keeps these for every trial, and run_experiment's worker pool
    # pickles ScenarioConfig; slots keep each instance free of a __dict__
    config = uavee.ScenarioConfig(num_pairs=3, seed=7)
    _, channels = uavee.make_scenario(config)
    report = uavee.oht(channels, config)
    record = (config, channels, report.allocation, report)[index]
    assert not hasattr(record, "__dict__")
    assert _same(pickle.loads(pickle.dumps(record)), record)


def test_replace_gives_a_validated_config():
    config = uavee.ScenarioConfig(num_pairs=3, seed=7, theta_fix=3.0)
    reseeded = dataclasses.replace(config, seed=11)
    assert (reseeded.seed, reseeded.num_pairs, reseeded.theta_fix) == (11, 3, 3.0)
    assert dataclasses.replace(reseeded, seed=7) == config
    with pytest.raises(ValueError, match="seed"):
        dataclasses.replace(config, seed=-1)
