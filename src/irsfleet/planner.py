"""Demand-gated gain tensor and the serving-area / anchoring-site optimizers.

The gain tensor is one SNR-ratio matrix (cell x site), the weak rows of
the scenario's link budget, plus a served mask (epoch x weak cell).
Solvers and evaluation read epoch t's gain with `GainTensor.gain_at`, the
matrix entry where the cell is served in t and 1 otherwise, and never build
the dense (epoch, weak cell, site) array.

The placement problem decouples across epochs (no constraint links two
epochs), so each epoch is an exact cardinality-constrained matching on the
weak-cell x site bipartite graph with edge cost 1 - gain, which solvers
request as rows of the scenario's one `LinkBudget.cost_if_blocked`
(clairvoyant sums its own). The exact solvers are matching machines (see
`matching`): a sweep gathers them over a block of units, and
`matching.run` drives one alone. Solvers return pairs only, as local
(weak-set position, site) index arrays; `evaluate_plan` scores every plan,
with the convention that an unserved weak cell earns unit gain:
1 + (selected gain excess) / (epochs * weak cells).
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization, LinkBudget
from .traffic import TrafficField

__all__ = [
    "GainTensor",
    "PlacementPlan",
    "PlanEvaluation",
    "InfeasiblePlacementError",
    "PlanValidationError",
    "STRATEGY_ROBOTIC",
    "STRATEGY_TERRESTRIAL",
    "STRATEGY_RANDOM",
    "TERRESTRIAL_MODES",
    "check_terrestrial_mode",
    "build_gain_tensor",
    "adaptive_plan_machine",
    "fixed_plan_machine",
    "solve_random_plan",
    "evaluate_plan",
    "validate_plan",
]

STRATEGY_ROBOTIC = "robotic"
STRATEGY_TERRESTRIAL = "terrestrial"
STRATEGY_RANDOM = "random"
FIXED_STRATEGIES = (STRATEGY_TERRESTRIAL, STRATEGY_RANDOM)

TERRESTRIAL_MODES = ("epoch1", "clairvoyant")


def check_terrestrial_mode(mode: str) -> None:
    """Refuse a terrestrial mode outside `TERRESTRIAL_MODES`."""
    if mode not in TERRESTRIAL_MODES:
        raise ValueError(f"terrestrial_mode must be {' or '.join(TERRESTRIAL_MODES)}")


class InfeasiblePlacementError(RuntimeError):
    """The requested fleet size cannot be placed on this instance."""


class PlanValidationError(ValueError):
    """A placement plan violates one of its structural constraints."""


@dataclass(frozen=True, eq=False)
class GainTensor:
    """Gated gains over (epoch, weak cell, candidate site).

    Stored as weak rows of the shared link budget: the SNR ratio `base` of
    each weak cell at each site. A cell is served in an epoch when its
    demand meets the threshold; its gains are then its `base` row, and
    exactly 1 otherwise. Every site is a candidate, so a local site index
    is global. A NaN, infinite or below-1 ratio, or no epoch, is refused.
    """

    budget: LinkBudget       # the scenario's, indexed by global cell
    weak_grids: np.ndarray   # (n_weak,) global cell indices, sorted
    demand: np.ndarray       # (epochs, n_weak) Mbps/km^2
    thresholds: np.ndarray   # (epochs,) Mbps/km^2

    def __post_init__(self) -> None:
        if not self.budget.sound_if_blocked[self.weak_grids].all():
            raise ValueError("gains must be finite and at least 1")
        if self.n_epochs < 1:
            raise ValueError("tensor must cover at least one epoch")

    @cached_property
    def served(self) -> np.ndarray:
        """(epochs, n_weak) mask of the cells whose demand meets the threshold."""
        return self.demand >= self.thresholds[:, None]

    @property
    def helped(self) -> np.ndarray:
        """(epochs, n_weak) mask of the served cells with some gain above 1."""
        return self.served & self.budget.helped_if_blocked[self.weak_grids]

    @property
    def base(self) -> np.ndarray:
        """(n_weak, n_sites) SNR ratio, copied on every access."""
        return self.budget.gain_if_blocked[self.weak_grids]

    def gain_at(self, epochs, cells, sites) -> np.ndarray:
        """Gains at broadcast (epoch, local cell, site) index arrays: the
        `base` entry where the cell is served in that epoch, 1 otherwise."""
        ratio = self.budget.gain_if_blocked[self.weak_grids[cells], sites]
        return np.where(self.served[epochs, cells], ratio, 1.0)

    @property
    def gains(self) -> np.ndarray:
        """The dense (epochs, n_weak, n_sites) view, built on every access."""
        grid = np.indices((self.n_epochs, self.n_weak, self.n_sites), sparse=True)
        return self.gain_at(*grid)

    @property
    def n_epochs(self) -> int:
        return self.demand.shape[0]

    @property
    def n_weak(self) -> int:
        return self.weak_grids.size

    @property
    def n_sites(self) -> int:
        return self.budget.gain_if_blocked.shape[1]


@dataclass(frozen=True, eq=False)
class PlacementPlan:
    """Per-epoch service pairs; fixed strategies repeat epoch one.

    Epoch t's k-th pair serves weak-set position `cells[t, k]` from site
    `sites[t, k]`; each epoch lists its pairs by cell.
    """

    strategy: str
    cells: np.ndarray  # (epochs, m) positions in the tensor's weak set
    sites: np.ndarray  # (epochs, m) site indices


@dataclass(frozen=True, eq=False)
class PlanEvaluation:
    objective: float
    matching_weight: float
    served_traffic: np.ndarray  # (epochs,) summed demand of served cells


def build_gain_tensor(
    budget: LinkBudget,
    realization: ChannelRealization,
    field: TrafficField,
) -> GainTensor:
    """The tensor of the unit's weak cells, over the link budget's gains.

    An empty weak set yields an empty tensor (any placement is then
    trivially empty); solvers reject positive fleet sizes against it.
    A weak ratio made NaN or infinite by under- or overflow fails every strategy.
    """
    weak = realization.weak_set
    return GainTensor(
        budget=budget,
        weak_grids=weak,
        demand=field.demand[:, weak],
        thresholds=np.asarray(field.threshold, dtype=float),
    )


def _check_fit(tensor: GainTensor, m: int) -> None:
    if m > min(tensor.n_weak, tensor.n_sites):
        raise InfeasiblePlacementError(
            f"cannot place {m} units on {tensor.n_weak} weak cells x "
            f"{tensor.n_sites} sites"
        )


def _completed_pairs(cost, rows, m: int, cells, matched) -> list[tuple[int, int]]:
    """Pairs of an exact matching on rows `rows[cells]` of `cost`, completed
    to m places.

    Any matched pair of zero cost is released, and the released and
    missing places go to the lowest unused cells paired with the lowest
    unused sites, in order. Zero-cost ties therefore resolve to the lowest
    (cell, site) indices, as a matching over every row would.

    The completion keeps the optimum. Every cost is at most 0, and rows
    outside the request cost 0 for this problem (unserved, or with no
    negative entry), so an exact matching of `min(m, len(cells))` requested
    rows reaches the optimum over every size-m matching. A fill pair with
    a negative cost would beat that optimum, so every released or filled
    pair costs exactly 0. Tests: `test_served_row_placement_equals_full_matching`
    and `test_clairvoyant_placement_equals_full_matching`.
    """
    n_cells, n_sites = len(rows), cost.shape[1]
    pairs = [(int(cells[r]), j) for r, j in matched if cost[rows[cells[r]], j] != 0.0]
    if len(pairs) < m:
        used_cells = {q for q, _ in pairs}
        used_sites = {j for _, j in pairs}
        free_cells = (q for q in range(n_cells) if q not in used_cells)
        free_sites = (j for j in range(n_sites) if j not in used_sites)
        pairs += itertools.islice(zip(free_cells, free_sites), m - len(pairs))
        pairs.sort()
    return pairs


def _served_matchings(cost, rows, masks, m: int):
    """Matching machine for exact size-m min-cost matchings of a nonpositive
    matrix, one per weak-set mask; row `rows[q]` holds position q's costs.

    Only the masked cells, each with a negative entry, are matched, one
    request per mask; each matching is then completed. Returns the
    (len(masks), m) cell and site arrays.
    """
    picked = [np.flatnonzero(mask) for mask in masks]
    solved = yield [(cost, rows[q], min(m, q.size)) for q in picked]
    pairs = np.array(
        [
            _completed_pairs(cost, rows, m, q, matched)
            for q, (matched, _, _, _) in zip(picked, solved)
        ],
        dtype=int,
    ).reshape(len(picked), m, 2)
    return pairs[..., 0], pairs[..., 1]


def adaptive_plan_machine(tensor: GainTensor, m: int):
    """Matching machine for the exact epoch-by-epoch optimum; units may
    relocate freely. `matching.run` drives it alone.

    Maximizes each epoch's summed gain excess subject to one site per unit
    and one unit per cell, with exactly m placements. One round asks for
    one matching per epoch, and each epoch gets the pairs of its own lone
    solve. Zero-excess ties resolve to the lowest (cell, site) indices:
    the exact matching runs only on the served rows, and the places it
    leaves open are filled by that tie rule, so the pairs are those of the
    exact matching over every row.
    """
    _check_fit(tensor, m)
    cost, weak = tensor.budget.cost_if_blocked, tensor.weak_grids
    cells, sites = yield from _served_matchings(cost, weak, tensor.helped, m)
    return PlacementPlan(STRATEGY_ROBOTIC, cells, sites)


def _replicated_plan(tensor: GainTensor, cells, sites, strategy: str):
    """Epoch one's (1, m) cells and sites, kept for every epoch."""
    n = tensor.n_epochs
    return PlacementPlan(
        strategy, np.repeat(cells, n, axis=0), np.repeat(sites, n, axis=0)
    )


def _summed_excess(tensor: GainTensor) -> np.ndarray:
    """Epoch-summed gain excess of every (cell, site), added in epoch order
    from zeros: the floats of `(tensor.gains - 1.0).sum(axis=0)`."""
    excess = tensor.base - 1.0
    total = np.zeros_like(excess)
    for served in tensor.served:
        np.add(total, excess, out=total, where=served[:, None])
    return total


def fixed_plan_machine(tensor: GainTensor, m: int, mode: str = "epoch1"):
    """Matching machine for the best placement that never relocates: one
    round, one request.

    "epoch1" optimizes the first epoch alone and keeps that assignment;
    "clairvoyant" optimizes the epoch-summed gain excess (the best possible
    fixed placement, never worse than epoch1). Ties resolve as in
    `adaptive_plan_machine`.
    """
    check_terrestrial_mode(mode)
    _check_fit(tensor, m)
    if mode == "epoch1":
        cost, rows = tensor.budget.cost_if_blocked, tensor.weak_grids
        masks = tensor.helped[:1]
    else:
        # Cells that are never served have all-zero rows here.
        cost, rows = 0.0 - _summed_excess(tensor), np.arange(tensor.n_weak)
        masks = cost.min(axis=1, initial=0.0)[None] < 0.0
    cells, sites = yield from _served_matchings(cost, rows, masks, m)
    return _replicated_plan(tensor, cells, sites, STRATEGY_TERRESTRIAL)


def solve_random_plan(
    tensor: GainTensor,
    m: int,
    rng: np.random.Generator,
) -> PlacementPlan:
    """Uniformly random feasible placement, fixed across epochs.

    Draws m distinct weak cells and m distinct sites and pairs them, which
    is uniform over feasible supports.
    """
    _check_fit(tensor, m)
    cells = np.sort(rng.choice(tensor.n_weak, size=m, replace=False))
    sites = rng.choice(tensor.n_sites, size=m, replace=False)
    return _replicated_plan(tensor, cells[None], sites[None], STRATEGY_RANDOM)


def validate_plan(plan: PlacementPlan, tensor: GainTensor, m: int) -> None:
    """Independent structural check of a plan against its tensor.

    Verifies that `cells` and `sites` are (epochs, m) integer arrays of one
    shape, the epoch and exact placement counts, index membership, cell
    and site exclusivity within each epoch (checked in that order), and
    (for fixed strategies) that the set of pairs never changes across
    epochs. Raises PlanValidationError naming the violated constraint.
    """
    cells, sites = np.asarray(plan.cells), np.asarray(plan.sites)
    integer = all(np.issubdtype(a.dtype, np.integer) for a in (cells, sites))
    if not (integer and cells.ndim == 2 and cells.shape == sites.shape):
        raise PlanValidationError(
            "plan-shape: cells and sites need one (epochs, m) shape of integers"
        )
    epochs, count = cells.shape
    if epochs != tensor.n_epochs:
        raise PlanValidationError(
            f"epoch-count: plan has {epochs} epochs, tensor has {tensor.n_epochs}"
        )
    if count != m:
        raise PlanValidationError(
            f"placement-count: each epoch has {count} pairs, expected exactly {m}"
        )
    # numpy would wrap a negative index silently, so both bounds are checked.
    outside = cells[(cells < 0) | (cells >= tensor.n_weak)]
    if outside.size:
        raise PlanValidationError(
            f"membership: cell position {outside[0]} is not in the weak-coverage set"
        )
    outside = sites[(sites < 0) | (sites >= tensor.n_sites)]
    if outside.size:
        raise PlanValidationError(f"membership: unknown site index {outside[0]}")
    for name, index, what in (
        ("cell", cells, "serves a cell"),
        ("site", sites, "occupies a site"),
    ):
        repeated = np.flatnonzero((np.diff(np.sort(index), axis=1) == 0).any(axis=1))
        if repeated.size:
            raise PlanValidationError(
                f"{name}-exclusivity: epoch {repeated[0] + 1} {what} more than once"
            )
    if plan.strategy in FIXED_STRATEGIES:
        # Compared as sets: each epoch's pairs in cell order.
        order = np.argsort(cells, axis=1)
        pairs = np.stack([np.take_along_axis(a, order, axis=1) for a in (cells, sites)])
        drift = np.flatnonzero((pairs != pairs[:, :1]).any(axis=(0, 2)))
        if drift.size:
            raise PlanValidationError(
                f"fixed-placement: epoch {drift[0] + 1} differs from epoch 1 under "
                f"a non-relocating strategy"
            )


def evaluate_plan(plan: PlacementPlan, tensor: GainTensor, m: int) -> PlanEvaluation:
    """Score a plan: its objective, gain excess and served demand.

    Validates feasibility first against the fleet size m, so an infeasible
    plan raises rather than scoring.
    """
    validate_plan(plan, tensor, m)
    epochs = np.repeat(np.arange(tensor.n_epochs), m)
    cells, sites = np.ravel(plan.cells), np.ravel(plan.sites)
    gains = tensor.gain_at(epochs, cells, sites)
    # Summed pair by pair in plan order.
    weight = 0.0
    for gain in gains.tolist():
        weight += gain - 1.0
    served = [0.0] * tensor.n_epochs
    for t, demand in zip(epochs.tolist(), tensor.demand[epochs, cells].tolist()):
        served[t] += demand
    # An empty weak set has no cell to average over; it scores unit gain.
    objective = 1.0
    if tensor.n_weak:
        objective = 1.0 + weight / (tensor.n_epochs * tensor.n_weak)
    return PlanEvaluation(
        objective=objective,
        matching_weight=weight,
        served_traffic=np.array(served),
    )
