"""Fleet trajectories across epochs: per-transition assignment plus depot legs.

The travel objective is additive over consecutive-epoch transitions and
each transition's constraint set is an independent permutation polytope,
so chaining exact per-transition assignments is jointly optimal (the test
suite cross-checks this against a joint brute force). Depot legs are
assignment-independent because every unit starts and ends at the one base
station; they are reported but not optimized.
"""

from dataclasses import dataclass

import numpy as np

from .energy import EnergyLedger, PlatformParams, mission_ledger
from .geometry import ScenarioLayout
from .matching import (
    min_cost_matching,
    min_cost_matching_batch,
    min_cost_matching_with_duals,
)
from .planner import PlacementPlan, PlanValidationError

__all__ = [
    "TransitionCosts",
    "TrajectoryPlan",
    "transition_costs",
    "min_cost_assignment",
    "plan_trajectories",
    "validate_trajectory",
]


@dataclass(frozen=True, eq=False)
class TransitionCosts:
    """Planar travel distances between occupied sites of consecutive epochs.

    Rows and columns follow the sorted site order of the earlier and later
    epoch respectively; `site_order` keeps those per-epoch sorted site
    indices for chaining.
    """

    between: np.ndarray      # (epochs - 1, M, M) metres
    depot_out: np.ndarray    # (M,) base station to epoch-1 sites
    depot_back: np.ndarray   # (M,) final-epoch sites back to base station
    site_order: np.ndarray   # (epochs, M) site indices, sorted per epoch


def transition_costs(plan: PlacementPlan, layout: ScenarioLayout) -> TransitionCosts:
    """Distance matrices for every consecutive epoch pair plus depot legs."""
    order = np.sort(plan.sites, axis=1)
    epochs, m = order.shape
    if not epochs:
        raise PlanValidationError("occupancy: plan has no epochs")
    repeated = np.flatnonzero((np.diff(order, axis=1) == 0).any(axis=1))
    if repeated.size:
        raise PlanValidationError(
            f"occupancy: epoch {repeated[0] + 1} does not occupy exactly {m} "
            f"distinct sites"
        )
    coords = layout.candidate_sites[order]
    bs = layout.bs_position
    diff = coords[:-1, :, None, :] - coords[1:, None, :, :]
    between = np.hypot(diff[..., 0], diff[..., 1])
    depot_out = np.hypot(coords[0][:, 0] - bs[0], coords[0][:, 1] - bs[1])
    depot_back = np.hypot(coords[-1][:, 0] - bs[0], coords[-1][:, 1] - bs[1])
    return TransitionCosts(
        between=between,
        depot_out=depot_out,
        depot_back=depot_back,
        site_order=order,
    )


def min_cost_assignment(cost, dual_solve=None) -> tuple[np.ndarray, float]:
    """Exact minimum-cost permutation of a square nonnegative matrix.

    Ties are broken toward the lexicographically smallest permutation:
    after the optimum is known, each row in turn takes the lowest column
    that still admits an optimal completion, i.e. one whose total is within
    `1e-9 * max(1, optimum)` of it. Returns (permutation, total).

    One dual solve decides almost every candidate: the optimal witness's
    column passes, and a column whose edge, or every completion of it,
    needs a reduced cost above twice the tolerance fails. Only the rest
    are confirmed by re-solving the completion. A caller that has already
    solved the matrix, as one problem of a batch, passes that
    `min_cost_matching_with_duals(cost, m)` result as `dual_solve`.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("assignment requires a square cost matrix")
    m = c.shape[0]
    if m == 0:
        return np.zeros(0, dtype=int), 0.0
    if not np.isfinite(c).all() or (c < 0).any():
        raise ValueError("assignment costs must be finite and nonnegative")

    if dual_solve is None:
        dual_solve = min_cost_matching_with_duals(c, m)
    pairs, best, u, v = dual_solve
    tol = 1e-9 * max(1.0, abs(best))
    # Every permutation costs `best` plus its reduced costs, all >= 0, so
    # one edge above 2*tol (a margin for rounding in the potentials)
    # rules it out of the tolerance.
    tight = (c - u[:, None] - v[None, :] <= 2.0 * tol).tolist()
    # A permutation within the tolerance that extends the accepted prefix;
    # its column in the current row always passes.
    witness = [j for _, j in pairs]
    perm = np.full(m, -1, dtype=int)
    available = list(range(m))
    prefix = 0.0
    for i in range(m):
        for pos, j in enumerate(available):
            if j != witness[i]:
                if not tight[i][j]:
                    continue
                if not _tight_detour(tight, witness, i, j, available):
                    continue
                rest_rows = np.arange(i + 1, m)
                rest_cols = np.asarray(
                    available[:pos] + available[pos + 1 :], dtype=int
                )
                sub = c[np.ix_(rest_rows, rest_cols)]
                sub_pairs, completion = min_cost_matching(sub, m - i - 1)
                if prefix + c[i, j] + completion > best + tol:
                    continue
                witness[i] = j
                for r, col in sub_pairs:
                    witness[i + 1 + r] = int(rest_cols[col])
            perm[i] = j
            prefix += c[i, j]
            available.pop(pos)
            break
    total = float(c[np.arange(m), perm].sum())
    return perm, total


def _tight_detour(tight, witness, i, j, available) -> bool:
    """Whether rows after i can take the available columns other than j
    using tight edges only, once row i takes j instead of its witness column.

    The witness leaves exactly one row without a column (the one that held
    j) and one column free (row i's), so a perfect tight matching exists
    iff one augmenting path joins them: a single Kuhn step.
    """
    owner = {witness[r]: r for r in range(i + 1, len(witness))}
    free = witness[i]
    seen = {j}
    stack = [owner[j]]
    while stack:
        row = stack.pop()
        for col in available:
            if col in seen or not tight[row][col]:
                continue
            if col == free:
                return True
            seen.add(col)
            stack.append(owner[col])
    return False


@dataclass(frozen=True, eq=False)
class TrajectoryPlan:
    """Site sequence, travel legs and energy ledger for every unit.

    Legs per unit: depot departure, the epoch transitions, depot return;
    `cumulative_m` is the running total after each leg.
    """

    routes: np.ndarray         # (M, epochs) global site indices
    leg_m: np.ndarray          # (M, epochs + 1) metres
    cumulative_m: np.ndarray   # (M, epochs + 1) metres
    total_distance_m: float
    ledgers: tuple[EnergyLedger, ...]
    feasible: bool


def plan_trajectories(
    plan: PlacementPlan,
    layout: ScenarioLayout,
    platform: PlatformParams,
) -> TrajectoryPlan:
    """Assign units to sites epoch by epoch, minimizing total travel.

    Unit k starts at the k-th occupied site of epoch one (sorted order);
    every transition is an exact assignment. All transitions' dual solves
    are one batch, and each transition's tie-break runs on its own. Flags
    any unit whose mission energy, including depot legs, exceeds the
    battery.
    """
    costs = transition_costs(plan, layout)
    order = costs.site_order
    epochs, m = order.shape
    counts = [m] * (epochs - 1)
    solved = min_cost_matching_batch(costs.between, counts, counts)

    routes = np.zeros((m, epochs), dtype=int)
    legs = np.zeros((m, epochs + 1))
    routes[:, 0] = order[0]
    legs[:, 0] = costs.depot_out

    # Position of each unit's current site within the sorted epoch order.
    unit_row = np.arange(m)
    for t in range(epochs - 1):
        perm, _ = min_cost_assignment(costs.between[t], solved[t])
        next_cols = perm[unit_row]
        legs[:, t + 1] = costs.between[t][unit_row, next_cols]
        routes[:, t + 1] = order[t + 1][next_cols]
        unit_row = next_cols

    legs[:, epochs] = costs.depot_back[unit_row]

    cumulative = np.cumsum(legs, axis=1)
    ledgers = tuple(
        mission_ledger(float(cumulative[k, -1]), platform) for k in range(m)
    )
    return TrajectoryPlan(
        routes=routes,
        leg_m=legs,
        cumulative_m=cumulative,
        total_distance_m=float(legs.sum()),
        ledgers=ledgers,
        feasible=all(ledger.feasible for ledger in ledgers),
    )


def validate_trajectory(
    trajectory: TrajectoryPlan,
    plan: PlacementPlan,
    layout: ScenarioLayout,
) -> None:
    """Independent consistency check of a trajectory against its plan.

    Confirms that routing never alters the placement (per-epoch site
    multisets match), that every leg is the planar distance it claims,
    that cumulative distances are nondecreasing, and that the total is
    conserved. Raises PlanValidationError on any violation.
    """
    m, epochs = trajectory.routes.shape
    planned = np.sort(plan.sites, axis=1)
    routed = np.sort(trajectory.routes.T, axis=1)
    if len(planned) != epochs:
        raise PlanValidationError("trajectory epoch count differs from plan")
    differs = np.ones(epochs, dtype=bool)
    if planned.shape == routed.shape:
        differs = (planned != routed).any(axis=1)
    shared = (np.diff(routed, axis=1) == 0).any(axis=1)
    wrong = np.flatnonzero(differs | shared)
    if wrong.size and differs[wrong[0]]:
        raise PlanValidationError(
            f"occupancy: trajectory epoch {wrong[0] + 1} visits different sites "
            f"than the plan"
        )
    if wrong.size:
        raise PlanValidationError(
            f"site-exclusivity: two units share a site at epoch {wrong[0] + 1}"
        )
    bs = np.broadcast_to(layout.bs_position, (m, 1, 2))
    points = np.concatenate(
        [bs, layout.candidate_sites[trajectory.routes], bs], axis=1
    )
    step = np.diff(points, axis=1)
    expect = np.hypot(step[..., 0], step[..., 1])
    # Each check asks that the good condition holds, so a NaN fails it:
    # every ordered comparison with NaN is false.
    wrong = np.argwhere(~(np.abs(expect - trajectory.leg_m) <= 1e-6))
    if len(wrong):
        k, leg = wrong[0]
        raise PlanValidationError(
            f"leg-distance: unit {k} leg {leg} is not the planar "
            f"distance between its endpoints"
        )
    if not np.all(np.diff(trajectory.cumulative_m, axis=1) >= -1e-9):
        raise PlanValidationError("cumulative distance decreases along a route")
    if not abs(trajectory.leg_m.sum() - trajectory.total_distance_m) <= 1e-6:
        raise PlanValidationError("total distance does not equal the leg sum")
