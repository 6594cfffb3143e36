"""Planning and simulation toolkit for anchored aerial reflector fleets.

Builds a stochastic mmWave microcell (blockage, link budgets, log-normal
traffic), solves the joint serving-area/anchoring placement and the
epoch-to-epoch trajectory assignment exactly, evaluates fixed and random
baselines, and accounts per-unit energy.
"""

__version__ = "0.1.0"

from .harness import ExperimentConfig, TrialError, run_experiment, run_trial
from .scenario import Scenario, ScenarioError, default_scenario, load_scenario

__all__ = [
    "__version__",
    "ExperimentConfig",
    "Scenario",
    "ScenarioError",
    "TrialError",
    "default_scenario",
    "load_scenario",
    "run_experiment",
    "run_trial",
]
