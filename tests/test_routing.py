import dataclasses

import numpy as np
import pytest

from bruteforce import (
    best_assignment,
    best_transition_chain,
    dyadic_matrix,
    lexmin_assignment_by_resolves,
)
from irsfleet.energy import PlatformParams, flight_range
from irsfleet.geometry import build_layout
from irsfleet.matching import min_cost_matching
from irsfleet.planner import PlacementPlan, PlanValidationError
from irsfleet.routing import (
    min_cost_assignment,
    plan_trajectories,
    transition_costs,
    validate_trajectory,
)

LAYOUT = build_layout(9, 9, 20.0, (8.5, 2.0, 10.5))
PLATFORM = PlatformParams()


def _plan(epoch_sites, strategy="robotic"):
    """A plan whose unit k serves cell k at the k-th site of each epoch."""
    sites = np.array(epoch_sites, dtype=int)
    cells = np.broadcast_to(np.arange(sites.shape[1]), sites.shape)
    return PlacementPlan(strategy, cells, sites)


# --------------------------------------------------------- transition costs

def test_static_plan_has_zero_diagonal():
    plan = _plan([(0, 5, 11), (0, 5, 11)])
    costs = transition_costs(plan, LAYOUT)
    assert np.allclose(np.diag(costs.between[0]), 0.0)
    assert costs.site_order.tolist() == [[0, 5, 11], [0, 5, 11]]


def test_345_offset_between_epochs():
    # sites at (0,0) and (30,40) exist on a 10 m lattice
    layout = build_layout(10, 10, 10.0, (8.5, 2.0, 10.5))
    a = 0                      # vertex (0, 0)
    b = 4 * 11 + 3             # vertex (30, 40)
    plan = _plan([(a,), (b,)])
    costs = transition_costs(plan, layout)
    assert costs.between[0][0, 0] == pytest.approx(50.0)


def test_single_unit_costs():
    plan = _plan([(0,), (9,), (99,)])
    costs = transition_costs(plan, LAYOUT)
    assert costs.between.shape == (2, 1, 1)
    assert costs.depot_out.shape == (1,)


def test_wrong_occupancy_rejected():
    bad = _plan([(0, 5), (3, 3)])
    with pytest.raises(PlanValidationError, match="occupancy: epoch 2 "):
        transition_costs(bad, LAYOUT)


# ------------------------------------------------------------- assignment

def test_assignment_examples():
    perm, total = min_cost_assignment([[0.0, 5.0], [5.0, 0.0]])
    assert list(perm) == [0, 1] and total == 0.0
    perm, total = min_cost_assignment([[1.0, 2.0], [3.0, 1.0]])
    assert list(perm) == [0, 1] and total == 2.0


def test_assignment_lexicographic_ties():
    perm, total = min_cost_assignment([[5.0, 5.0], [0.0, 0.0]])
    assert list(perm) == [0, 1] and total == 5.0
    perm, _ = min_cost_assignment(np.ones((4, 4)))
    assert list(perm) == [0, 1, 2, 3]


def test_assignment_input_validation():
    with pytest.raises(ValueError):
        min_cost_assignment(np.ones((2, 3)))
    with pytest.raises(ValueError):
        min_cost_assignment(np.array([[-1.0, 0.0], [0.0, 1.0]]))


def test_assignment_matches_brute_force_with_lex_ties():
    rng = np.random.Generator(np.random.Philox(21))
    for _ in range(150):
        m = int(rng.integers(1, 6))
        # small integers make ties frequent
        cost = rng.integers(0, 4, size=(m, m)).astype(float)
        perm, total = min_cost_assignment(cost)
        expect_perm, expect_total = best_assignment(cost)
        assert total == expect_total
        assert tuple(perm) == expect_perm


def test_assignment_7x7_brute_force():
    rng = np.random.Generator(np.random.Philox(22))
    for _ in range(30):
        cost = np.abs(dyadic_matrix(rng, (7, 7)))
        _, total = min_cost_assignment(cost)
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
    perm, total = min_cost_assignment(cost)
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
        for cost in transition_costs(_plan(epoch_sites), LAYOUT).between:
            perm, total = min_cost_assignment(cost)
            expect_perm, expect_total = lexmin_assignment_by_resolves(cost)
            assert np.array_equal(perm, expect_perm)
            assert total == expect_total
            pairs, _ = min_cost_matching(cost, 10)
            n_ties += list(perm) != [j for _, j in pairs]
    # the tie-break really chose against the solver's first optimum
    assert n_ties > 0


def test_batched_routes_match_per_transition_assignments_on_tied_grid():
    # plan_trajectories solves a plan's transitions as one batch; its
    # routes must be those of one min_cost_assignment per transition.
    rng = np.random.Generator(np.random.Philox(41))
    for _ in range(100):
        epoch_sites = [
            tuple(sorted(rng.choice(LAYOUT.n_sites, size=10, replace=False).tolist()))
            for _ in range(4)
        ]
        plan = _plan(epoch_sites)
        traj = plan_trajectories(plan, LAYOUT, PLATFORM)
        costs = transition_costs(plan, LAYOUT)
        unit_row = np.arange(10)
        for t, cost in enumerate(costs.between):
            perm, _ = min_cost_assignment(cost)
            next_rows = perm[unit_row]
            assert np.array_equal(traj.leg_m[:, t + 1], cost[unit_row, next_rows])
            unit_row = next_rows
            expect = np.asarray(costs.site_order[t + 1])[unit_row]
            assert np.array_equal(traj.routes[:, t + 1], expect)


def test_each_transition_goes_through_min_cost_assignment(monkeypatch):
    import irsfleet.routing as routing

    calls = []

    def counted(cost, *args):
        calls.append(np.asarray(cost).shape)
        return min_cost_assignment(cost, *args)

    monkeypatch.setattr(routing, "min_cost_assignment", counted)
    plan_trajectories(_plan([(0, 9), (90, 99), (0, 9), (40, 50)]), LAYOUT, PLATFORM)
    assert calls == [(2, 2)] * 3


# ------------------------------------------------------------ trajectories

def test_static_plan_travel_is_depot_only():
    plan = _plan([(22, 44), (22, 44), (22, 44)])
    traj = plan_trajectories(plan, LAYOUT, PLATFORM)
    costs = transition_costs(plan, LAYOUT)
    assert traj.leg_m[:, 1:3].sum() == 0.0
    assert traj.total_distance_m == pytest.approx(
        costs.depot_out.sum() + costs.depot_back.sum()
    )
    validate_trajectory(traj, plan, LAYOUT)


def test_solver_prefers_staying_put():
    # both units could swap sites at equal total cost zero vs positive
    plan = _plan([(10, 70), (10, 70)])
    traj = plan_trajectories(plan, LAYOUT, PLATFORM)
    assert np.array_equal(traj.routes[:, 0], traj.routes[:, 1])


def test_chained_transitions_match_joint_brute_force():
    rng = np.random.Generator(np.random.Philox(23))
    n_sites = LAYOUT.n_sites
    for _ in range(20):
        epoch_sites = [
            tuple(sorted(rng.choice(n_sites, size=3, replace=False).tolist()))
            for _ in range(3)
        ]
        plan = _plan(epoch_sites)
        traj = plan_trajectories(plan, LAYOUT, PLATFORM)
        costs = transition_costs(plan, LAYOUT)
        middle = traj.leg_m[:, 1:3].sum()
        expect = best_transition_chain(list(costs.between))
        assert middle == pytest.approx(expect, abs=1e-9)
        validate_trajectory(traj, plan, LAYOUT)


def test_trajectory_bookkeeping():
    rng = np.random.Generator(np.random.Philox(24))
    epoch_sites = [
        tuple(sorted(rng.choice(LAYOUT.n_sites, size=4, replace=False).tolist()))
        for _ in range(6)
    ]
    plan = _plan(epoch_sites)
    traj = plan_trajectories(plan, LAYOUT, PLATFORM)
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
    costs = transition_costs(plan, LAYOUT)
    for t in range(costs.between.shape[0]):
        _, optimal = min_cost_assignment(costs.between[t])
        identity = float(np.trace(costs.between[t]))
        assert optimal <= identity + 1e-9
        for _ in range(10):
            perm = rng.permutation(5)
            sampled = float(costs.between[t][np.arange(5), perm].sum())
            assert optimal <= sampled + 1e-9


def test_validator_names_the_first_wrong_leg():
    plan = _plan([(0, 9), (90, 99), (0, 9)])
    traj = plan_trajectories(plan, LAYOUT, PLATFORM)
    traj.leg_m[1, 2] += 1.0
    traj.leg_m[0, 3] += 1.0
    with pytest.raises(PlanValidationError, match="unit 0 leg 3 "):
        validate_trajectory(traj, plan, LAYOUT)
    traj.leg_m[0, 3] -= 1.0
    with pytest.raises(PlanValidationError, match="unit 1 leg 2 "):
        validate_trajectory(traj, plan, LAYOUT)


def test_validator_checks_the_trajectory_against_the_plan():
    plan = _plan([(0, 9), (90, 99), (0, 9)])
    traj = plan_trajectories(plan, LAYOUT, PLATFORM)
    # the same sites in another unit order are the same occupancy
    validate_trajectory(traj, _plan([(9, 0), (99, 90), (9, 0)]), LAYOUT)
    with pytest.raises(PlanValidationError, match="epoch count"):
        validate_trajectory(traj, _plan([(0, 9), (90, 99)]), LAYOUT)
    with pytest.raises(PlanValidationError, match="occupancy: trajectory epoch 2 "):
        validate_trajectory(traj, _plan([(0, 9), (90, 98), (0, 9)]), LAYOUT)
    with pytest.raises(PlanValidationError, match="occupancy: trajectory epoch 1 "):
        validate_trajectory(traj, _plan([(0,), (90,), (0,)]), LAYOUT)
    shared = dataclasses.replace(traj, routes=np.array([[0, 90, 9], [0, 90, 9]]))
    with pytest.raises(PlanValidationError, match="share a site at epoch 1"):
        validate_trajectory(shared, _plan([(0, 0), (90, 90), (9, 9)]), LAYOUT)


def test_validator_rejects_non_finite_distances():
    plan = _plan([(0, 9), (90, 99), (0, 9)])
    traj = plan_trajectories(plan, LAYOUT, PLATFORM)
    validate_trajectory(traj, plan, LAYOUT)
    leg = traj.leg_m.copy()
    traj.leg_m[1, 2] = np.nan
    with pytest.raises(PlanValidationError, match="unit 1 leg 2 "):
        validate_trajectory(traj, plan, LAYOUT)
    traj.leg_m[:] = leg
    traj.cumulative_m[0, 1] = np.nan
    with pytest.raises(PlanValidationError, match="cumulative distance"):
        validate_trajectory(traj, plan, LAYOUT)
    traj.cumulative_m[:] = np.cumsum(leg, axis=1)
    validate_trajectory(traj, plan, LAYOUT)
    for total in (np.inf, np.nan):
        bad = dataclasses.replace(traj, total_distance_m=total)
        with pytest.raises(PlanValidationError, match="total distance"):
            validate_trajectory(bad, plan, LAYOUT)


def test_infeasible_energy_is_flagged():
    plan = _plan([(0, 9), (90, 99), (0, 9), (90, 99)])
    # battery barely covers the static loads, leaving ~no flight budget
    weak_battery = PlatformParams(battery_j=432_000.0 + 38_880.0 + 10.0)
    traj = plan_trajectories(plan, LAYOUT, weak_battery)
    assert not traj.feasible
    assert any(not ledger.feasible for ledger in traj.ledgers)
