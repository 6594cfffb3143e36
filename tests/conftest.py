import numpy as np
import pytest

from irsfleet import default_scenario
from irsfleet.channel import LinkBudget
from irsfleet import matching
from irsfleet.matching import solve
from irsfleet.planner import GainTensor


@pytest.fixture(scope="session")
def scenario():
    return default_scenario()


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(20260810))


def make_tensor(
    base, served=None, demand=None, thresholds=None, epochs=1
) -> GainTensor:
    """Small hand-built tensor over a (n_weak, n_sites) `base` matrix.

    Cells are served where `demand` (epochs x n_weak) meets `thresholds`
    (1.0 in every epoch by default). Without demand, the (epochs x n_weak)
    `served` mask (every cell in each of `epochs` epochs by default)
    becomes demand of 100 where served and 0 elsewhere.
    """
    base = np.asarray(base, dtype=float)
    if demand is None:
        if served is None:
            served = np.ones((epochs, base.shape[0]), dtype=bool)
        demand = np.where(served, 100.0, 0.0)
    demand = np.asarray(demand, dtype=float)
    if thresholds is None:
        thresholds = np.full(demand.shape[0], 1.0)
    n_cells = base.shape[0]
    budget = LinkBudget(
        p_los=np.zeros(n_cells),
        weak_if_blocked=np.ones(n_cells, dtype=bool),
        gain_if_blocked=base,
    )
    return GainTensor(
        budget=budget,
        weak_grids=np.arange(n_cells),
        demand=demand,
        thresholds=np.asarray(thresholds, dtype=float),
    )


def solve_indexed(cost, row_lists, sizes):
    """One `matching.solve` round over `cost`: request b matches
    `cost[row_lists[b]]` with `sizes[b]` pairs, and every request names
    one matrix."""
    cost = np.asarray(cost, dtype=float)
    return solve([(cost, rows, size) for rows, size in zip(row_lists, sizes)])


def solve_matching(cost, size: int):
    """A lone matching solve, as a round of one: (pairs, total)."""
    pairs, total, _, _ = solve([(cost, None, size)])[0]
    return pairs, total


def logged(machine, requests):
    """`machine`, appending each request it yields to `requests`."""
    solved = None
    while True:
        try:
            asked = machine.send(solved)
        except StopIteration as stop:
            return stop.value
        requests.extend(asked)
        solved = yield asked


def spy_stacks(patch):
    """Patch `matching._solve_stack` through `patch` (a `MonkeyPatch`) and
    return the list to which each stack appends its (cost, index, n_rows,
    sizes, results)."""
    stacks, solve_stack = [], matching._solve_stack

    def spy(cost, index, n_rows, sizes):
        results = solve_stack(cost, index, n_rows, sizes)
        stacks.append((cost, index, n_rows, sizes, results))
        return results

    patch.setattr(matching, "_solve_stack", spy)
    return stacks
