"""Energy-efficiency resource allocation for UAV-powered D2D networks.

Jointly optimizes the wireless-power-transfer harvesting time and per-pair
transmit powers by successive convex approximation, plus two baseline
algorithms and a Monte Carlo benchmark harness.
"""

from .algorithms import (
    ALGORITHM_NAMES,
    ScaSettings,
    SolveReport,
    jhtpa,
    oht,
    opa,
    run_algorithm,
)
from .bench import ExperimentSpec, ResultRow, derive_child_seed, run_experiment
from .core import (
    Allocation,
    FeasibilityReport,
    check_feasible,
    energy_efficiency,
    qos_threshold,
)
from .engine import NoFeasiblePointFoundError
from .scenario import (
    ChannelRealization,
    Placement,
    ScenarioConfig,
    generate_placement,
    make_scenario,
    realize_channels,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "Allocation",
    "ChannelRealization",
    "ExperimentSpec",
    "FeasibilityReport",
    "NoFeasiblePointFoundError",
    "Placement",
    "ResultRow",
    "ScaSettings",
    "ScenarioConfig",
    "SolveReport",
    "check_feasible",
    "derive_child_seed",
    "energy_efficiency",
    "generate_placement",
    "jhtpa",
    "make_scenario",
    "oht",
    "opa",
    "qos_threshold",
    "realize_channels",
    "run_algorithm",
    "run_experiment",
]
