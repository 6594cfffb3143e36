import numpy as np
import pytest

from bruteforce import best_exact_size_cost, dyadic_matrix
from irsfleet.matching import min_cost_matching, min_cost_matching_with_duals


def test_trivial_sizes():
    pairs, total = min_cost_matching(np.array([[1.0, 2.0], [3.0, 4.0]]), 0)
    assert pairs == [] and total == 0.0
    pairs, total = min_cost_matching(np.zeros((0, 0)), 0)
    assert pairs == [] and total == 0.0


def test_single_edge_selection():
    pairs, total = min_cost_matching(np.array([[-3.0, -1.0], [-2.0, -4.0]]), 1)
    assert pairs == [(1, 1)] and total == -4.0


def test_full_assignment():
    pairs, total = min_cost_matching(np.array([[0.0, 5.0], [5.0, 0.0]]), 2)
    assert pairs == [(0, 0), (1, 1)] and total == 0.0


def test_tied_costs_take_lowest_indices():
    pairs, _ = min_cost_matching(np.zeros((4, 6)), 3)
    assert pairs == [(0, 0), (1, 1), (2, 2)]


def test_input_validation():
    with pytest.raises(ValueError):
        min_cost_matching(np.zeros(4), 1)
    with pytest.raises(ValueError):
        min_cost_matching(np.zeros((2, 3)), 3)
    with pytest.raises(ValueError):
        min_cost_matching(np.array([[np.inf, 1.0]]), 1)
    with pytest.raises(ValueError):
        min_cost_matching(np.array([[np.nan]]), 1)


def test_pairs_form_a_partial_matching():
    rng = np.random.Generator(np.random.Philox(2))
    for _ in range(50):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        size = int(rng.integers(0, min(rows, cols) + 1))
        cost = rng.normal(size=(rows, cols))
        pairs, total = min_cost_matching(cost, size)
        assert len(pairs) == size
        assert len({r for r, _ in pairs}) == size
        assert len({c for _, c in pairs}) == size
        assert total == pytest.approx(sum(cost[r, c] for r, c in pairs), rel=1e-12)


def test_matches_brute_force_exactly():
    # dyadic entries make float sums exact, so equality is strict
    rng = np.random.Generator(np.random.Philox(31))
    for _ in range(300):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        size = int(rng.integers(0, min(rows, cols) + 1))
        cost = dyadic_matrix(rng, (rows, cols))
        _, total = min_cost_matching(cost, size)
        assert total == best_exact_size_cost(cost, size)


def test_shift_invariance():
    rng = np.random.Generator(np.random.Philox(8))
    cost = dyadic_matrix(rng, (5, 5))
    _, base = min_cost_matching(cost, 3)
    _, shifted = min_cost_matching(cost + 16.0, 3)
    assert shifted == base + 3 * 16.0


def test_deterministic_output():
    rng = np.random.Generator(np.random.Philox(17))
    cost = rng.normal(size=(8, 8))
    first = min_cost_matching(cost, 5)
    second = min_cost_matching(cost.copy(), 5)
    assert first == second


def test_dual_potentials_certify_the_optimum():
    rng = np.random.Generator(np.random.Philox(43))
    for case in range(150):
        square = case % 3 == 0
        rows = int(rng.integers(1, 9))
        cols = rows if square else int(rng.integers(1, 9))
        size = rows if square else int(rng.integers(1, min(rows, cols) + 1))
        # normal entries are mixed-sign; the shifted ones are all negative
        cost = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-2, 4)
        if case % 2:
            cost -= np.abs(cost).max() + 1.0
        pairs, total, u, v = min_cost_matching_with_duals(cost, size)
        assert (pairs, total) == min_cost_matching(cost, size)
        scale = max(1.0, float(np.abs(cost).max()))
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-9 * scale
        rows_m, cols_m = np.array(pairs).T
        assert np.abs(reduced[rows_m, cols_m]).max() <= 1e-9 * scale
        if square:
            assert abs(u.sum() + v.sum() - total) <= 1e-9 * scale
