"""Fleet trajectories across epochs: per-transition assignment, then scoring.

The travel objective is additive over consecutive-epoch transitions and
each transition's constraint set is an independent permutation polytope,
so chaining exact per-transition assignments is jointly optimal (the test
suite cross-checks this against a joint brute force). Depot legs are
assignment-independent because every unit starts and ends at the one base
station; they are scored but not optimized.

`trajectory_machine` is a matching machine (see `matching`) that runs one
`_assignment_machine` per transition and returns only the routes: a sweep
gathers it over every robotic plan of a block, and `matching.run` drives
one alone. It assumes a solver's plan (epochs of equally many distinct
sites) and checks none of it; `planner.validate_plan` does. Then
`evaluate_trajectory` checks routes against the plan and scores them.
"""

from dataclasses import dataclass

import numpy as np

from .energy import EnergyLedger, PlatformParams, mission_ledger
from .geometry import ScenarioLayout
from .matching import gather
from .planner import PlacementPlan, PlanValidationError

__all__ = [
    "TrajectoryPlan",
    "trajectory_machine",
    "validate_trajectory",
    "evaluate_trajectory",
]


def _assignment_machine(cost):
    """Matching machine for the exact minimum-cost permutation of a square
    nonnegative matrix. Returns (permutation, total).

    Ties are broken toward the lexicographically smallest permutation:
    after the optimum is known, each row in turn takes the lowest column
    that still admits an optimal completion, i.e. one whose total is within
    `1e-9 * max(1, optimum)` of it.

    It yields one dual solve first, which decides almost every candidate:
    the optimal witness's column passes, and a column whose edge, or every
    completion of it, needs a reduced cost above twice the tolerance fails.
    Only the rest are confirmed by re-solving the completion, one re-solve
    per round, in order.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("assignment requires a square cost matrix")
    m = c.shape[0]
    if m == 0:
        return np.zeros(0, dtype=int), 0.0
    if not np.isfinite(c).all() or (c < 0).any():
        raise ValueError("assignment costs must be finite and nonnegative")

    ((pairs, best, u, v),) = yield [(c, None, m)]
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
                ((sub_pairs, completion, _, _),) = yield [(sub, None, m - i - 1)]
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
    """Site sequence, visited points, travel legs and energy ledger for
    every unit, as `evaluate_trajectory` scores routes.

    `points` per unit: the base station, the routed sites, the base
    station. Legs per unit join consecutive points (depot departure, the
    epoch transitions, depot return); `cumulative_m` is the running total
    after each leg.
    """

    routes: np.ndarray         # (M, epochs) global site indices
    points: np.ndarray         # (M, epochs + 2, 2) metres
    leg_m: np.ndarray          # (M, epochs + 1) metres
    cumulative_m: np.ndarray   # (M, epochs + 1) metres
    total_distance_m: float
    ledgers: tuple[EnergyLedger, ...]
    feasible: bool


def trajectory_machine(plan: PlacementPlan, layout: ScenarioLayout):
    """Matching machine that assigns units to sites epoch by epoch,
    minimizing total travel. Returns the (M, epochs) integer routes of
    global site indices.

    Unit k starts at the k-th occupied site of epoch one (sorted order) of
    a solver's plan, which `validate_plan` checks; every transition is an
    exact assignment. Depot legs and energy are left to `evaluate_trajectory`.

    The transitions' `_assignment_machine`s run in lockstep: the first
    round asks for every transition's dual solve, and each later round for
    the next confirmation re-solve of every transition whose tie-break
    still needs one.
    """
    order = np.sort(plan.sites, axis=1)
    epochs, m = order.shape
    # between[t]: from epoch t's sorted sites (rows) to epoch t + 1's (columns)
    coords = layout.candidate_sites[order]
    step = coords[:-1, :, None, :] - coords[1:, None, :, :]
    between = np.hypot(step[..., 0], step[..., 1])
    assigned = yield from gather(_assignment_machine(c) for c in between)

    routes = np.zeros((m, epochs), dtype=int)
    routes[:, 0] = order[0]
    # Position of each unit's current site within the sorted epoch order.
    unit_row = np.arange(m)
    for t, (perm, _) in enumerate(assigned):
        unit_row = perm[unit_row]
        routes[:, t + 1] = order[t + 1][unit_row]
    return routes


def validate_trajectory(routes: np.ndarray, plan: PlacementPlan) -> None:
    """Independent check of routes against their plan: the epoch count,
    then per-epoch site sets equal to the plan's with no site shared.
    Raises PlanValidationError naming the first violation."""
    epochs = routes.shape[1]
    planned = np.sort(plan.sites, axis=1)
    routed = np.sort(routes.T, axis=1)
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


def evaluate_trajectory(
    routes: np.ndarray,
    plan: PlacementPlan,
    layout: ScenarioLayout,
    platform: PlatformParams,
) -> TrajectoryPlan:
    """Score routes: each unit's legs, depot departure and return
    included, their running sum and its energy ledger; a unit whose mission
    energy exceeds the battery is flagged. Validates the routes against
    the plan first, so routes that alter the placement raise."""
    validate_trajectory(routes, plan)
    bs = np.broadcast_to(layout.bs_position, (routes.shape[0], 1, 2))
    points = np.concatenate([bs, layout.candidate_sites[routes], bs], axis=1)
    step = np.diff(points, axis=1)
    legs = np.hypot(step[..., 0], step[..., 1])
    cumulative = np.cumsum(legs, axis=1)
    ledgers = tuple(mission_ledger(d, platform) for d in cumulative[:, -1].tolist())
    return TrajectoryPlan(
        routes=routes,
        points=points,
        leg_m=legs,
        cumulative_m=cumulative,
        total_distance_m=float(legs.sum()),
        ledgers=ledgers,
        feasible=all(ledger.feasible for ledger in ledgers),
    )
