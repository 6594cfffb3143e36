import numpy as np
import pytest

from bruteforce import (
    best_assignment,
    best_transition_chain,
    dyadic_matrix,
    lexmin_assignment_by_resolves,
    transition_distances,
)
from conftest import make_tensor, solve_matching
from irsfleet.energy import PlatformParams, flight_range
from irsfleet.geometry import build_layout
from irsfleet.matching import run
from irsfleet.planner import PlacementPlan, PlanValidationError, validate_plan
from irsfleet.routing import (
    _assignment_machine,
    evaluate_trajectory,
    trajectory_machine,
    validate_trajectory,
)

LAYOUT = build_layout(9, 9, 20.0, (8.5, 2.0, 10.5))
PLATFORM = PlatformParams()


def _plan(epoch_sites, strategy="robotic"):
    """A plan whose unit k serves cell k at the k-th site of each epoch."""
    sites = np.array(epoch_sites, dtype=int)
    cells = np.broadcast_to(np.arange(sites.shape[1]), sites.shape)
    return PlacementPlan(strategy, cells, sites)


def _trajectory(plan, platform=PLATFORM):
    """The plan's routes, scored."""
    routes = run(trajectory_machine(plan, LAYOUT))
    return evaluate_trajectory(routes, plan, LAYOUT, platform)


def _depot_legs(sites):
    """Planar distances from the base station to each site."""
    step = LAYOUT.candidate_sites[np.asarray(sites)] - LAYOUT.bs_position
    return np.hypot(step[..., 0], step[..., 1])


# ----------------------------------------------------- transition distances

def test_static_plan_has_zero_diagonal():
    plan = _plan([(0, 5, 11), (0, 5, 11)])
    between, order = transition_distances(plan, LAYOUT)
    assert np.allclose(np.diag(between[0]), 0.0)
    assert order.tolist() == [[0, 5, 11], [0, 5, 11]]


def test_345_offset_between_epochs():
    # sites at (0,0) and (30,40) exist on a 10 m lattice
    layout = build_layout(10, 10, 10.0, (8.5, 2.0, 10.5))
    a = 0                      # vertex (0, 0)
    b = 4 * 11 + 3             # vertex (30, 40)
    plan = _plan([(a,), (b,)])
    between, _ = transition_distances(plan, layout)
    assert between[0][0, 0] == pytest.approx(50.0)


def test_single_unit_costs():
    plan = _plan([(0,), (9,), (99,)])
    between, _ = transition_distances(plan, LAYOUT)
    assert between.shape == (2, 1, 1)
    traj = _trajectory(plan)
    assert traj.leg_m.shape == (1, 4)
    assert traj.leg_m[0, [0, 3]].tolist() == _depot_legs([0, 99]).tolist()


@pytest.mark.parametrize(
    "grid", [(9, 9, 20.0), (17, 17, 20.0), (5, 11, 13.7)], ids=str
)
def test_first_round_requests_the_reference_distances(grid):
    # trajectory_machine's first round asks for one dual solve per
    # transition, on the distances from the earlier epoch's sorted sites
    # (rows) to the later epoch's (columns).
    layout = build_layout(*grid, (8.5, 2.0, 10.5))
    rng = np.random.Generator(np.random.Philox(44))
    for epochs, m in [(2, 1), (3, 4), (12, 10)]:
        plan = _plan(
            [rng.choice(layout.n_sites, size=m, replace=False) for _ in range(epochs)]
        )
        between, _ = transition_distances(plan, layout)
        requests = next(trajectory_machine(plan, layout))
        assert len(requests) == epochs - 1
        for (cost, size_hint, size), expect in zip(requests, between):
            assert np.array_equal(cost, expect)
            assert (size_hint, size) == (None, m)


def test_wrong_occupancy_rejected():
    # Routing does not check a plan; validation refuses a repeated site in
    # the plan and in the routes routed from it.
    bad = _plan([(0, 5), (3, 3)])
    tensor = make_tensor(np.full((2, LAYOUT.n_sites), 2.0), epochs=2)
    with pytest.raises(PlanValidationError, match="site-exclusivity: epoch 2 "):
        validate_plan(bad, tensor, 2)
    routes = run(trajectory_machine(bad, LAYOUT))
    with pytest.raises(PlanValidationError, match="share a site at epoch 2"):
        evaluate_trajectory(routes, bad, LAYOUT, PLATFORM)


# ------------------------------------------------------------- assignment

def test_assignment_examples():
    perm, total = run(_assignment_machine([[0.0, 5.0], [5.0, 0.0]]))
    assert list(perm) == [0, 1] and total == 0.0
    perm, total = run(_assignment_machine([[1.0, 2.0], [3.0, 1.0]]))
    assert list(perm) == [0, 1] and total == 2.0


def test_assignment_lexicographic_ties():
    perm, total = run(_assignment_machine([[5.0, 5.0], [0.0, 0.0]]))
    assert list(perm) == [0, 1] and total == 5.0
    perm, _ = run(_assignment_machine(np.ones((4, 4))))
    assert list(perm) == [0, 1, 2, 3]


def test_assignment_input_validation():
    with pytest.raises(ValueError):
        run(_assignment_machine(np.ones((2, 3))))
    with pytest.raises(ValueError):
        run(_assignment_machine(np.array([[-1.0, 0.0], [0.0, 1.0]])))


def test_assignment_matches_brute_force_with_lex_ties():
    rng = np.random.Generator(np.random.Philox(21))
    for _ in range(150):
        m = int(rng.integers(1, 6))
        # small integers make ties frequent
        cost = rng.integers(0, 4, size=(m, m)).astype(float)
        perm, total = run(_assignment_machine(cost))
        expect_perm, expect_total = best_assignment(cost)
        assert total == expect_total
        assert tuple(perm) == expect_perm


def test_assignment_7x7_brute_force():
    rng = np.random.Generator(np.random.Philox(22))
    for _ in range(30):
        cost = np.abs(dyadic_matrix(rng, (7, 7)))
        _, total = run(_assignment_machine(cost))
        _, expect = best_assignment(cost)
        assert total == expect


@pytest.mark.parametrize(
    "excess, lex_smaller_wins",
    [(0.5, True), (0.9, True), (1.5, False), (3.0, False)],
)
def test_assignment_tie_tolerance(excess, lex_smaller_wins):
    # The swap is optimal at 1000; the lexicographically smaller identity
    # costs `excess` tolerances more. Within the tolerance it wins, also
    # just below it (0.9); beyond it loses, both inside (1.5) and outside
    # (3.0) the 2*tol pruning margin.
    tol = 1e-9 * 1000.0
    cost = np.array([[500.0 + excess * tol, 500.0], [500.0, 500.0]])
    perm, total = run(_assignment_machine(cost))
    if lex_smaller_wins:
        assert list(perm) == [0, 1] and total == cost[0, 0] + 500.0
    else:
        assert list(perm) == [1, 0] and total == 1000.0


def test_assignment_matches_resolve_oracle_on_tied_grid_transitions():
    # Lattice symmetry gives transition matrices exact distance ties.
    rng = np.random.Generator(np.random.Philox(41))
    n_ties = 0
    for _ in range(100):
        epoch_sites = [
            tuple(sorted(rng.choice(LAYOUT.n_sites, size=10, replace=False).tolist()))
            for _ in range(4)
        ]
        for cost in transition_distances(_plan(epoch_sites), LAYOUT)[0]:
            perm, total = run(_assignment_machine(cost))
            expect_perm, expect_total = lexmin_assignment_by_resolves(cost)
            assert np.array_equal(perm, expect_perm)
            assert total == expect_total
            pairs, _ = solve_matching(cost, 10)
            n_ties += list(perm) != [j for _, j in pairs]
    # the tie-break really chose against the solver's first optimum
    assert n_ties > 0


def test_batched_routes_match_per_transition_assignments_on_tied_grid():
    # trajectory_machine solves a plan's transitions in shared stacks; its
    # routes must be those of one lone assignment per transition.
    rng = np.random.Generator(np.random.Philox(41))
    for _ in range(100):
        epoch_sites = [
            tuple(sorted(rng.choice(LAYOUT.n_sites, size=10, replace=False).tolist()))
            for _ in range(4)
        ]
        plan = _plan(epoch_sites)
        traj = _trajectory(plan)
        between, order = transition_distances(plan, LAYOUT)
        unit_row = np.arange(10)
        for t, cost in enumerate(between):
            perm, _ = run(_assignment_machine(cost))
            next_rows = perm[unit_row]
            assert np.array_equal(traj.leg_m[:, t + 1], cost[unit_row, next_rows])
            unit_row = next_rows
            expect = order[t + 1][unit_row]
            assert np.array_equal(traj.routes[:, t + 1], expect)


def test_scored_legs_match_the_transition_costs():
    # Routing solves on the transition distances, scoring measures the routes:
    # the two distance computations must agree leg for leg.
    rng = np.random.Generator(np.random.Philox(43))
    shapes = [(1, 1), (1, 6), (6, 1)] + [
        tuple(rng.integers(1, 8, size=2).tolist()) for _ in range(40)
    ]
    for epochs, m in shapes:
        plan = _plan(
            [rng.choice(LAYOUT.n_sites, size=m, replace=False) for _ in range(epochs)]
        )
        traj = _trajectory(plan)
        between, order = transition_distances(plan, LAYOUT)
        # each unit's row in every epoch's sorted site order
        rows = [
            np.searchsorted(sites, traj.routes[:, t]) for t, sites in enumerate(order)
        ]
        transitions = [cost[rows[t], rows[t + 1]] for t, cost in enumerate(between)]
        for t, legs in enumerate(transitions):
            assert np.array_equal(traj.leg_m[:, t + 1], legs)
        out, back = _depot_legs(traj.routes[:, 0]), _depot_legs(traj.routes[:, -1])
        assert np.array_equal(traj.leg_m[:, 0], out)
        assert np.array_equal(traj.leg_m[:, -1], back)
        travel = out + sum(transitions, np.zeros(m)) + back
        e_fly = PLATFORM.p_fly_w * travel / PLATFORM.v_fly_mps
        assert [ledger.e_fly_j for ledger in traj.ledgers] == pytest.approx(
            e_fly.tolist(), rel=1e-12
        )


def test_transitions_share_stacked_rounds(monkeypatch):
    # Every transition runs its own assignment machine. The first round
    # stacks all of a plan's dual solves; a later round stacks the pending
    # confirmation re-solves of several transitions at once.
    import irsfleet.matching as matching
    import irsfleet.routing as routing

    machines, stacks = [], []
    original_machine = routing._assignment_machine
    original_stack = matching._solve_stack

    def counted_machine(cost):
        machines.append(np.asarray(cost).shape)
        return original_machine(cost)

    def counted_stack(cost, index, n_rows, sizes):
        # The stack's (problems, rows, cols) shape, as the solver gathers it.
        shape = (*np.shape(index), np.shape(cost)[1])
        stacks.append((shape, list(n_rows), list(sizes)))
        return original_stack(cost, index, n_rows, sizes)

    monkeypatch.setattr(routing, "_assignment_machine", counted_machine)
    monkeypatch.setattr(matching, "_solve_stack", counted_stack)
    plan = _plan([(0, 9), (90, 99), (0, 9), (40, 50)])
    run(trajectory_machine(plan, LAYOUT))
    assert machines == [(2, 2)] * 3
    assert stacks[0] == ((3, 2, 2), [2] * 3, [2] * 3)

    rng = np.random.Generator(np.random.Philox(41))
    shared = 0
    for _ in range(30):
        epoch_sites = [
            tuple(sorted(rng.choice(LAYOUT.n_sites, size=10, replace=False).tolist()))
            for _ in range(4)
        ]
        stacks.clear()
        run(trajectory_machine(_plan(epoch_sites), LAYOUT))
        assert stacks[0] == ((3, 10, 10), [10] * 3, [10] * 3)
        assert all(shape[2] < 10 for shape, _, _ in stacks[1:])
        shared += any(shape[0] > 1 for shape, _, _ in stacks[1:])
    assert shared > 0


# ------------------------------------------------------------ trajectories

def test_static_plan_travel_is_depot_only():
    plan = _plan([(22, 44), (22, 44), (22, 44)])
    traj = _trajectory(plan)
    assert traj.leg_m[:, 1:3].sum() == 0.0
    assert traj.total_distance_m == pytest.approx(2.0 * _depot_legs([22, 44]).sum())


def test_solver_prefers_staying_put():
    # both units could swap sites at equal total cost zero vs positive
    plan = _plan([(10, 70), (10, 70)])
    routes = run(trajectory_machine(plan, LAYOUT))
    assert np.array_equal(routes[:, 0], routes[:, 1])


def test_chained_transitions_match_joint_brute_force():
    rng = np.random.Generator(np.random.Philox(23))
    n_sites = LAYOUT.n_sites
    for _ in range(20):
        epoch_sites = [
            tuple(sorted(rng.choice(n_sites, size=3, replace=False).tolist()))
            for _ in range(3)
        ]
        plan = _plan(epoch_sites)
        traj = _trajectory(plan)
        between, _ = transition_distances(plan, LAYOUT)
        middle = traj.leg_m[:, 1:3].sum()
        expect = best_transition_chain(list(between))
        assert middle == pytest.approx(expect, abs=1e-9)


def test_trajectory_bookkeeping():
    rng = np.random.Generator(np.random.Philox(24))
    epoch_sites = [
        tuple(sorted(rng.choice(LAYOUT.n_sites, size=4, replace=False).tolist()))
        for _ in range(6)
    ]
    plan = _plan(epoch_sites)
    traj = _trajectory(plan)
    # conservation and monotonicity
    assert traj.total_distance_m == pytest.approx(traj.leg_m.sum())
    assert (np.diff(traj.cumulative_m, axis=1) >= -1e-12).all()
    # routing preserves the planned occupancy
    for t, sites in enumerate(epoch_sites):
        assert sorted(traj.routes[:, t].tolist()) == list(sites)
    # energy ledger covers the whole route
    for k, ledger in enumerate(traj.ledgers):
        assert ledger.e_fly_j == pytest.approx(
            PLATFORM.p_fly_w * traj.cumulative_m[k, -1] / PLATFORM.v_fly_mps
        )
    assert traj.feasible
    assert (traj.cumulative_m[:, -1] < flight_range(PLATFORM)).all()


def test_transition_optimality_beats_identity_and_random():
    rng = np.random.Generator(np.random.Philox(25))
    epoch_sites = [
        tuple(sorted(rng.choice(LAYOUT.n_sites, size=5, replace=False).tolist()))
        for _ in range(4)
    ]
    plan = _plan(epoch_sites)
    between, _ = transition_distances(plan, LAYOUT)
    for cost in between:
        _, optimal = run(_assignment_machine(cost))
        identity = float(np.trace(cost))
        assert optimal <= identity + 1e-9
        for _ in range(10):
            perm = rng.permutation(5)
            sampled = float(cost[np.arange(5), perm].sum())
            assert optimal <= sampled + 1e-9


def test_validator_checks_the_trajectory_against_the_plan():
    plan = _plan([(0, 9), (90, 99), (0, 9)])
    routes = run(trajectory_machine(plan, LAYOUT))
    # the same sites in another unit order are the same occupancy
    validate_trajectory(routes, _plan([(9, 0), (99, 90), (9, 0)]))
    with pytest.raises(PlanValidationError, match="epoch count"):
        validate_trajectory(routes, _plan([(0, 9), (90, 99)]))
    with pytest.raises(PlanValidationError, match="occupancy: trajectory epoch 2 "):
        validate_trajectory(routes, _plan([(0, 9), (90, 98), (0, 9)]))
    with pytest.raises(PlanValidationError, match="occupancy: trajectory epoch 1 "):
        validate_trajectory(routes, _plan([(0,), (90,), (0,)]))
    shared = np.array([[0, 90, 9], [0, 90, 9]])
    with pytest.raises(PlanValidationError, match="share a site at epoch 1"):
        validate_trajectory(shared, _plan([(0, 0), (90, 90), (9, 9)]))
    # scoring checks first
    with pytest.raises(PlanValidationError, match="occupancy: trajectory epoch 2 "):
        evaluate_trajectory(routes, _plan([(0, 9), (90, 98), (0, 9)]), LAYOUT, PLATFORM)


def test_infeasible_energy_is_flagged():
    plan = _plan([(0, 9), (90, 99), (0, 9), (90, 99)])
    # battery barely covers the static loads, leaving ~no flight budget
    weak_battery = PlatformParams(battery_j=432_000.0 + 38_880.0 + 10.0)
    traj = _trajectory(plan, weak_battery)
    assert not traj.feasible
    assert any(not ledger.feasible for ledger in traj.ledgers)
