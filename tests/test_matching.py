import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    best_exact_size_cost,
    certify_matching,
    dyadic_matrix,
    rescan_matching_with_duals,
)
from conftest import solve_matching
from irsfleet import run_trial
from irsfleet.matching import min_cost_matching_batch
from irsfleet.scenario import GeometryConfig, Scenario, SolverOptions


def _lone_solve(cost, size):
    """A batch of one: the pairs, total and potentials of a lone solve."""
    cost = np.asarray(cost, dtype=float)
    return min_cost_matching_batch(cost[None], [len(cost)], [size])[0]


def test_trivial_sizes():
    pairs, total = solve_matching(np.array([[1.0, 2.0], [3.0, 4.0]]), 0)
    assert pairs == [] and total == 0.0
    pairs, total = solve_matching(np.zeros((0, 0)), 0)
    assert pairs == [] and total == 0.0


def test_single_edge_selection():
    pairs, total = solve_matching(np.array([[-3.0, -1.0], [-2.0, -4.0]]), 1)
    assert pairs == [(1, 1)] and total == -4.0


def test_full_assignment():
    pairs, total = solve_matching(np.array([[0.0, 5.0], [5.0, 0.0]]), 2)
    assert pairs == [(0, 0), (1, 1)] and total == 0.0


def test_tied_costs_take_lowest_indices():
    pairs, _ = solve_matching(np.zeros((4, 6)), 3)
    assert pairs == [(0, 0), (1, 1), (2, 2)]


def test_input_validation():
    with pytest.raises(ValueError):
        solve_matching(np.zeros(4), 1)
    with pytest.raises(ValueError):
        solve_matching(np.zeros((2, 3)), 3)
    with pytest.raises(ValueError):
        solve_matching(np.array([[np.inf, 1.0]]), 1)
    with pytest.raises(ValueError):
        solve_matching(np.array([[np.nan]]), 1)


def test_pairs_form_a_partial_matching():
    rng = np.random.Generator(np.random.Philox(2))
    for _ in range(50):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        size = int(rng.integers(0, min(rows, cols) + 1))
        cost = rng.normal(size=(rows, cols))
        pairs, total = solve_matching(cost, size)
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
        _, total = solve_matching(cost, size)
        assert total == best_exact_size_cost(cost, size)


def test_shift_invariance():
    rng = np.random.Generator(np.random.Philox(8))
    cost = dyadic_matrix(rng, (5, 5))
    _, base = solve_matching(cost, 3)
    _, shifted = solve_matching(cost + 16.0, 3)
    assert shifted == base + 3 * 16.0


def test_deterministic_output():
    rng = np.random.Generator(np.random.Philox(17))
    cost = rng.normal(size=(8, 8))
    first = solve_matching(cost, 5)
    second = solve_matching(cost.copy(), 5)
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
        pairs, total, u, v = _lone_solve(cost, size)
        scale = max(1.0, float(np.abs(cost).max()))
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-9 * scale
        rows_m, cols_m = np.array(pairs).T
        assert np.abs(reduced[rows_m, cols_m]).max() <= 1e-9 * scale
        if square:
            assert abs(u.sum() + v.sum() - total) <= 1e-9 * scale
        assert certify_matching(cost, pairs, u, v, size) == []


def test_certificate_rejects_what_is_not_optimal():
    cost = np.array([[4.0, 1.0, 9.0], [2.0, 4.0, 9.0], [3.0, 3.0, 0.5]])
    pairs, _, u, v = _lone_solve(cost, 2)
    assert pairs == [(0, 1), (2, 2)]
    assert certify_matching(cost, pairs, u, v, 2) == []

    def violated(*args):
        return {failure.split(":")[0] for failure in certify_matching(*args)}

    # A worse matching of two pairs, against the optimum's potentials.
    assert "duality gap" in violated(cost, [(0, 1), (1, 0)], u, v, 2)
    # A cost entry the potentials do not price.
    cheaper = cost.copy()
    cheaper[1, 2] = -5.0
    assert violated(cheaper, pairs, u, v, 2) == {"dual feasibility"}
    # A column potential moved off its tight value.
    moved = v.copy()
    moved[1] += 0.25
    assert "complementary slackness" in violated(cost, pairs, u, moved, 2)
    assert violated(cost, pairs, u, v, 3) == {"shape"}


# ------------------------------------------- kept column minima vs full rescan

def _assert_same_solve(got, expect):
    pairs, total, u, v = got
    ref_pairs, ref_total, ref_u, ref_v = expect
    assert pairs == ref_pairs
    assert total == ref_total
    assert np.array_equal(u, ref_u)
    assert np.array_equal(v, ref_v)


def _solve_stack(n_cols, problems, padding, fill):
    """Batch solve of (cost, size) problems, `fill` in every padding row."""
    height = max(cost.shape[0] for cost, _ in problems) + padding
    stack = np.full((len(problems), height, n_cols), fill)
    for b, (cost, _) in enumerate(problems):
        stack[b, : cost.shape[0]] = cost
    return min_cost_matching_batch(
        stack, [cost.shape[0] for cost, _ in problems], [size for _, size in problems]
    )


def _stacked_solve(cost, size, rng):
    """Solve `cost` as one problem of a stack, between a taller neighbour
    and a smaller one, in random order, over padding cheaper than any cost."""
    n_rows, n_cols = cost.shape
    tall = dyadic_matrix(rng, (n_rows + 2, n_cols), lo=-2, hi=2, denom=2)
    short = dyadic_matrix(rng, (min(n_rows, 1), n_cols))
    problems = [
        (tall, min(*tall.shape, size + 1)),
        (np.asarray(cost, dtype=float), size),
        (short, min(short.shape)),
    ]
    order = rng.permutation(len(problems)).tolist()
    solved = _solve_stack(n_cols, [problems[k] for k in order], 1, -1e6)
    return solved[order.index(1)]


def _assert_matches_rescan(cost, size):
    expect = rescan_matching_with_duals(cost, size)
    _assert_same_solve(_lone_solve(cost, size), expect)
    rng = np.random.Generator(np.random.Philox(cost.size + size))
    _assert_same_solve(_stacked_solve(cost, size, rng), expect)


@pytest.mark.parametrize(
    "scenario",
    [
        Scenario(),
        Scenario(
            geometry=GeometryConfig(grid_rows=17, grid_cols=17),
            solver=SolverOptions(fleet_size=4),
        ),
    ],
    ids=["9x9-fleet10", "17x17-fleet4"],
)
def test_served_row_matrices_match_rescan(scenario):
    m = scenario.solver.fleet_size
    for trial, sigma in ((0, 1.8), (1, 3.6)):
        gains = run_trial(scenario, sigma, trial, "robotic", 2026).tensor.gains
        for g in gains:
            served = g.max(axis=1) > 1.0
            _assert_matches_rescan(1.0 - g[served], min(m, int(served.sum())))


def test_dyadic_ties_match_rescan():
    rng = np.random.Generator(np.random.Philox(57))
    for _ in range(200):
        shape = tuple(int(n) for n in rng.integers(1, 9, size=2))
        cost = dyadic_matrix(rng, shape, lo=-2, hi=2, denom=2)
        _assert_matches_rescan(cost, int(rng.integers(0, min(shape) + 1)))


def test_ulp_near_ties_match_rescan():
    rng = np.random.Generator(np.random.Philox(58))
    for _ in range(200):
        shape = tuple(int(n) for n in rng.integers(1, 9, size=2))
        cost = rng.integers(0, 4, size=shape) / 3.0
        for _ in range(2):
            step = rng.integers(-1, 2, size=shape)
            toward = np.where(step > 0, np.inf, -np.inf)
            cost = np.where(step == 0, cost, np.nextafter(cost, toward))
        _assert_matches_rescan(cost, int(rng.integers(0, min(shape) + 1)))


@pytest.mark.parametrize("shape", [(9, 3), (3, 9), (6, 6), (1, 5), (5, 1)])
def test_every_size_of_mixed_sign_rectangles_matches_rescan(shape):
    rng = np.random.Generator(np.random.Philox(59))
    for _ in range(20):
        cost = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
        for size in range(min(shape) + 1):
            _assert_matches_rescan(cost, size)


def test_free_rows_keep_one_potential_after_a_negative_path():
    # Rounding in the 0.1/0.2/0.3 entries makes the sixth augmenting path
    # come out -5.55e-17 long, which moves the potential of both free rows
    # to 5.55e-17 (costs are nonnegative, so no shift is folded into u).
    # The seventh augmentation then starts from the kept minima less it.
    a, b, c, d, e, h, big = 0.1, 0.2, 0.3, 0.7, 1e-17, 1.0 / 3.0, 1e16
    cost = np.array(
        [
            [b, a, a, b, e, a, 1.0],
            [c, c, h, c, a, d, 1.0],
            [d, d, c, c, d, h, 1.0],
            [c, a, h, big, c, e, 1.0],
            [e, c, 3.0, 3.0, b, a, 1.0],
            [c, h, 3.0, big, a, 3.0, 1.0],
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5],
            [big, big, big, big, big, big, 1.0],
        ]
    )
    pairs, _, u, _ = _lone_solve(cost, 6)
    free = sorted(set(range(8)) - {i for i, _ in pairs})
    assert free == [6, 7] and (u[free] > 0.0).all()
    for size in range(8):
        _assert_matches_rescan(cost, size)


def test_rounding_tie_starts_from_the_lowest_free_row():
    # After the first augmentation v[0] is 2**-53, and 1 + 3 * 2**-52 and
    # 1 + 2 * 2**-52 less it round to the same double: rows 0 and 2 tie in
    # column 0 although their costs differ. A full rescan starts the path
    # at row 0, the lowest tied row, not at row 2, the least cost.
    ulp = 2.0**-52
    cost = np.array(
        [
            [1 + 3 * ulp, 1 + 2 * ulp],
            [1 + 2 * ulp, ulp / 2],
            [1 + 2 * ulp, 1 + 4 * ulp],
            [1 + 3 * ulp, 0.5],
        ]
    )
    pairs, _ = solve_matching(cost, 2)
    assert pairs == [(0, 0), (1, 1)]
    _assert_matches_rescan(cost, 2)


# --------------------------------------------------------------- batch solves

@st.composite
def _stacks(draw):
    """Small stacks of dyadic-tie or ulp-perturbed-third problems with
    mixed row counts and sizes (0 included), padding rows that hold NaN,
    a cost below every entry or +inf, and a drawn order."""
    n_cols = draw(st.integers(1, 6))
    family = draw(st.sampled_from(["dyadic", "thirds"]))
    problems = []
    for _ in range(draw(st.integers(1, 5))):
        n_rows = draw(st.integers(0, 6))
        n = n_rows * n_cols
        if family == "dyadic":
            ints = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
            cost = np.array(ints, dtype=float).reshape(n_rows, n_cols) / 2.0
        else:
            ints = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            nudge = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
            cost = np.array(ints, dtype=float).reshape(n_rows, n_cols) / 3.0
            nudge = np.array(nudge).reshape(n_rows, n_cols)
            for _ in range(2):
                toward = np.where(nudge > 0, np.inf, -np.inf)
                cost = np.where(nudge == 0, cost, np.nextafter(cost, toward))
                nudge = nudge - np.sign(nudge)
        size = draw(st.integers(0, min(n_rows, n_cols)))
        problems.append((cost, size))
    padding = draw(st.integers(0, 2))
    fill = draw(st.sampled_from([np.nan, -1e6, np.inf]))
    order = draw(st.permutations(range(len(problems))))
    return n_cols, problems, padding, fill, order


@given(_stacks())
@settings(max_examples=150, deadline=None)
def test_batch_elements_equal_lone_solves_and_rescan(stack):
    n_cols, problems, padding, fill, order = stack
    solved = _solve_stack(n_cols, problems, padding, fill)
    reordered = _solve_stack(n_cols, [problems[k] for k in order], padding, fill)
    for b, (cost, size) in enumerate(problems):
        expect = rescan_matching_with_duals(cost, size)
        _assert_same_solve(_lone_solve(cost, size), expect)
        _assert_same_solve(solved[b], expect)
        _assert_same_solve(reordered[order.index(b)], expect)


def test_batch_of_no_problems_or_no_rows():
    assert min_cost_matching_batch(np.zeros((0, 3, 4)), [], []) == []
    solved = min_cost_matching_batch(np.zeros((2, 0, 3)), [0, 0], [0, 0])
    for pairs, total, u, v in solved:
        assert (pairs, total, u.shape) == ([], 0.0, (0,))
        assert np.array_equal(v, np.zeros(3))


def test_batch_input_validation():
    stack = np.zeros((2, 3, 4))
    with pytest.raises(ValueError, match="stack"):
        min_cost_matching_batch(np.zeros((3, 4)), [3], [1])
    with pytest.raises(ValueError, match="one row count and one match size"):
        min_cost_matching_batch(stack, [3], [1, 1])
    with pytest.raises(ValueError, match=r"row counts must lie in \[0, 3\]"):
        min_cost_matching_batch(stack, [3, 4], [1, 1])
    with pytest.raises(ValueError, match="match size 3 infeasible for 2x4 costs"):
        min_cost_matching_batch(stack, [3, 2], [1, 3])
    stack[1, 0, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        min_cost_matching_batch(stack, [3, 3], [1, 1])
    # Non-finite entries are ignored in padding rows and in size-0 problems,
    # as a lone solve of size 0 ignores them.
    assert min_cost_matching_batch(stack, [3, 0], [1, 0])[1][:2] == ([], 0.0)
    assert min_cost_matching_batch(stack, [3, 3], [1, 0])[1][:2] == ([], 0.0)
    pairs, total, u, v = min_cost_matching_batch(stack, [3, 2], [1, 0])[1]
    assert u.shape == (2,) and v.shape == (4,)
