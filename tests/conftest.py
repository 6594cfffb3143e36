import numpy as np
import pytest

from irsfleet import default_scenario
from irsfleet.planner import GainTensor


@pytest.fixture(scope="session")
def scenario():
    return default_scenario()


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(20260810))


def make_tensor(gains, demand=None, thresholds=None) -> GainTensor:
    """Small hand-built tensor: gains is (epochs, n_weak, n_sites)."""
    gains = np.asarray(gains, dtype=float)
    epochs, n_weak, _ = gains.shape
    if demand is None:
        demand = np.full((epochs, n_weak), 100.0)
    if thresholds is None:
        thresholds = np.full(epochs, 1.0)
    return GainTensor(
        gains=gains,
        weak_grids=np.arange(n_weak),
        demand=np.asarray(demand, dtype=float),
        thresholds=np.asarray(thresholds, dtype=float),
    )
