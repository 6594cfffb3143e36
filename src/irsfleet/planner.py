"""Demand-gated gain tensor and the serving-area / anchoring-site optimizers.

The gain tensor is one SNR-ratio matrix (weak cell x site) plus a served
mask (epoch x weak cell). Solvers and evaluation read epoch t's gain with
`GainTensor.gain_at`, the matrix entry where the cell is served in t and 1
otherwise, and never build the dense (epoch, weak cell, site) array.

The placement problem decouples across epochs (no constraint links two
epochs), so each epoch is an exact cardinality-constrained matching on the
weak-cell x site bipartite graph with edge cost 1 - gain. Solvers return
pairs only; `evaluate_plan` scores every plan, with the convention that an
unserved weak cell earns unit gain: 1 + (selected gain excess) / (epochs *
weak cells).
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization, RadioParams, cascaded_snr_db, snr_ratio
from .geometry import DistanceTables
from .matching import min_cost_matching_batch
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
    "build_gain_tensor",
    "solve_epoch_placement",
    "solve_adaptive_plan",
    "solve_fixed_plan",
    "solve_random_plan",
    "evaluate_plan",
    "validate_plan",
]

STRATEGY_ROBOTIC = "robotic"
STRATEGY_TERRESTRIAL = "terrestrial"
STRATEGY_RANDOM = "random"
FIXED_STRATEGIES = (STRATEGY_TERRESTRIAL, STRATEGY_RANDOM)

TERRESTRIAL_MODES = ("epoch1", "clairvoyant")


class InfeasiblePlacementError(RuntimeError):
    """The requested fleet size cannot be placed on this instance."""


class PlanValidationError(ValueError):
    """A placement plan violates one of its structural constraints."""


@dataclass(frozen=True, eq=False)
class GainTensor:
    """Gated gains over (epoch, weak cell, candidate site).

    Stored as the aggregated-over-direct SNR ratio `base` of each weak
    cell at each site. A cell is served in an epoch when its demand meets
    the threshold; its gains are then its `base` row, and exactly 1
    otherwise. Every site is a candidate, so a local site index is global.
    """

    base: np.ndarray         # (n_weak, n_sites) SNR ratio
    weak_grids: np.ndarray   # (n_weak,) global cell indices, sorted
    demand: np.ndarray       # (epochs, n_weak) Mbps/km^2
    thresholds: np.ndarray   # (epochs,) Mbps/km^2

    @cached_property
    def served(self) -> np.ndarray:
        """(epochs, n_weak) mask of the cells whose demand meets the threshold."""
        return self.demand >= self.thresholds[:, None]

    @cached_property
    def weak_position(self) -> dict[int, int]:
        """Local position of each weak cell, keyed by its global index."""
        return {g: q for q, g in enumerate(self.weak_grids.tolist())}

    def gain_at(self, epochs, cells, sites) -> np.ndarray:
        """Gains at broadcast (epoch, local cell, site) index arrays: the
        `base` entry where the cell is served in that epoch, 1 otherwise."""
        return np.where(self.served[epochs, cells], self.base[cells, sites], 1.0)

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
        return self.base.shape[0]

    @property
    def n_sites(self) -> int:
        return self.base.shape[1]


@dataclass(frozen=True)
class PlacementPlan:
    """Per-epoch service pairs; fixed strategies repeat epoch one."""

    strategy: str
    assignments: tuple[tuple[tuple[int, int], ...], ...]  # (grid, site), global


@dataclass(frozen=True, eq=False)
class PlanEvaluation:
    objective: float
    matching_weight: float
    served_traffic: np.ndarray  # (epochs,) summed demand of served cells


def build_gain_tensor(
    realization: ChannelRealization,
    distances: DistanceTables,
    field: TrafficField,
    params: RadioParams,
) -> GainTensor:
    """Assemble the gains of every weak cell against every site.

    An empty weak set yields an empty tensor (any placement is then
    trivially empty); solvers reject positive fleet sizes against it.
    A unit whose linear powers underflow or overflow, making a ratio NaN
    or infinite, is refused here, for every strategy alike.
    """
    weak = np.asarray(realization.weak_set, dtype=int)
    gamma_c = cascaded_snr_db(
        distances.r_bs_site[None, :], distances.d_site_ut[weak], params
    )
    with np.errstate(all="ignore"):
        base = snr_ratio(realization.direct_snr_db[weak][:, None], gamma_c)
    if not np.all((base >= 1.0) & (base < np.inf)):  # NaN fails this too
        raise ValueError("gains must be finite and at least 1")
    return GainTensor(
        base=base,
        weak_grids=weak,
        demand=field.demand[:, weak],
        thresholds=np.asarray(field.threshold, dtype=float),
    )


def _served_rows(gains, m: int, unit: float) -> np.ndarray:
    """Mask of the served rows of a gain matrix, once m units are known to fit.

    `unit` is the gain of an unserved pair: 1 for gains, 0 for summed gain
    excess. Every entry must be at least `unit`, and a row is served when
    some entry in it is above.
    """
    n_cells, n_sites = gains.shape
    if m > min(n_cells, n_sites):
        raise InfeasiblePlacementError(
            f"cannot place {m} units on {n_cells} weak cells x {n_sites} sites"
        )
    if not gains.min(initial=unit) >= unit:  # NaN fails this too
        raise ValueError("gains must be finite and at least 1")
    return gains.max(axis=1, initial=unit) > unit


def _completed_pairs(shape, m: int, rows, cost, matched) -> list[tuple[int, int]]:
    """Pairs of an exact matching on rows `rows`, completed to m places.

    Any matched pair of zero cost is released, and the released and
    missing places go to the lowest unused cells paired with the lowest
    unused sites, in order. Zero-cost ties therefore resolve to the lowest
    (cell, site) indices, as a matching over every row would.
    """
    n_cells, n_sites = shape
    pairs = [(int(rows[q]), j) for q, j in matched if cost[q, j] != 0.0]
    if len(pairs) < m:
        used_cells = {q for q, _ in pairs}
        used_sites = {j for _, j in pairs}
        free_cells = (q for q in range(n_cells) if q not in used_cells)
        free_sites = (j for j in range(n_sites) if j not in used_sites)
        pairs += itertools.islice(zip(free_cells, free_sites), m - len(pairs))
        pairs.sort()
    return pairs


def _served_matchings(values, masks, m: int, unit: float) -> list[list]:
    """Exact size-m matchings of most excess over `unit`, one per row mask.

    Each mask holds the rows of `values` that may be matched (every row
    with an entry above `unit`). One batch solve matches the masked rows
    of every mask, each as its lone solve would, and each is completed.
    """
    rows = [np.flatnonzero(mask) for mask in masks]
    counts = [r.size for r in rows]
    cost = np.zeros((len(rows), max(counts, default=0), values.shape[1]))
    for b, r in enumerate(rows):
        np.subtract(unit, values[r], out=cost[b, : r.size])
    solved = min_cost_matching_batch(cost, counts, [min(m, n) for n in counts])
    return [
        _completed_pairs(values.shape, m, r, c, matched)
        for r, c, (matched, _, _, _) in zip(rows, cost, solved)
    ]


def solve_epoch_placement(gains, m: int) -> tuple[list[tuple[int, int]], float]:
    """Exact best placement of m units for one epoch's gain matrix.

    Maximizes the summed gain excess subject to one site per unit and one
    unit per cell, with exactly m placements. Every gain must be at least
    1. Returns (local (cell, site) pairs sorted by cell, total gain
    excess). Zero-excess ties resolve to the lowest (cell, site) indices.
    The exact matching runs only on the served rows, those with some gain
    above 1 (a demand-gated cell has none), and the places it leaves
    open are filled by that tie rule, so the pairs are those of the exact
    matching over every row.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 2:
        raise ValueError("epoch gains must be a 2-D matrix")
    (pairs,) = _served_matchings(g, [_served_rows(g, m, 1.0)], m, 1.0)
    cells, sites = np.array(pairs, dtype=int).reshape(-1, 2).T
    return pairs, -float((1.0 - g[cells, sites]).sum())


def _to_global(tensor: GainTensor, pairs) -> tuple[tuple[int, int], ...]:
    return tuple((int(tensor.weak_grids[q]), int(j)) for q, j in pairs)


def solve_adaptive_plan(tensor: GainTensor, m: int) -> PlacementPlan:
    """Exact epoch-by-epoch optimum; units may relocate freely.

    Each epoch gets the pairs `solve_epoch_placement` would give it.
    """
    masks = tensor.served & _served_rows(tensor.base, m, 1.0)
    matchings = _served_matchings(tensor.base, masks, m, 1.0)
    return PlacementPlan(
        STRATEGY_ROBOTIC, tuple(_to_global(tensor, pairs) for pairs in matchings)
    )


def _replicated_plan(tensor: GainTensor, pairs, strategy: str) -> PlacementPlan:
    return PlacementPlan(strategy, (_to_global(tensor, pairs),) * tensor.n_epochs)


def _summed_excess(tensor: GainTensor) -> np.ndarray:
    """Epoch-summed gain excess of every (cell, site), added in epoch order
    from zeros: the floats of `(tensor.gains - 1.0).sum(axis=0)`."""
    excess = tensor.base - 1.0
    total = np.zeros_like(excess)
    for served in tensor.served:
        np.add(total, excess, out=total, where=served[:, None])
    return total


def solve_fixed_plan(
    tensor: GainTensor,
    m: int,
    mode: str = "epoch1",
) -> PlacementPlan:
    """Best placement that never relocates.

    "epoch1" optimizes the first epoch alone and keeps that assignment;
    "clairvoyant" optimizes the epoch-summed gain excess (the best possible
    fixed placement, never worse than epoch1).
    """
    if mode not in TERRESTRIAL_MODES:
        raise ValueError(f"terrestrial mode must be one of {TERRESTRIAL_MODES}")
    if tensor.n_epochs < 1:
        raise ValueError("tensor must cover at least one epoch")
    if mode == "epoch1":
        served = tensor.served[0] & _served_rows(tensor.base, m, 1.0)
        (pairs,) = _served_matchings(tensor.base, [served], m, 1.0)
    else:
        # Cells that are never served have all-zero rows here.
        summed = _summed_excess(tensor)
        (pairs,) = _served_matchings(summed, [_served_rows(summed, m, 0.0)], m, 0.0)
    return _replicated_plan(tensor, pairs, STRATEGY_TERRESTRIAL)


def solve_random_plan(
    tensor: GainTensor,
    m: int,
    rng: np.random.Generator,
) -> PlacementPlan:
    """Uniformly random feasible placement, fixed across epochs.

    Draws m distinct weak cells and m distinct sites and pairs them, which
    is uniform over feasible supports.
    """
    n_weak, n_sites = tensor.n_weak, tensor.n_sites
    if m > min(n_weak, n_sites):
        raise InfeasiblePlacementError(
            f"cannot place {m} units on {n_weak} weak cells x {n_sites} sites"
        )
    if m == 0:
        pairs: list[tuple[int, int]] = []
    else:
        cells = np.sort(rng.choice(n_weak, size=m, replace=False))
        sites = rng.choice(n_sites, size=m, replace=False)
        pairs = list(zip(cells.tolist(), sites.tolist()))
    return _replicated_plan(tensor, pairs, STRATEGY_RANDOM)


def validate_plan(
    plan: PlacementPlan, tensor: GainTensor, m: int
) -> list[list[tuple[int, int]]]:
    """Independent structural check of a plan against its tensor.

    Verifies the exact placement count, index membership, cell and site
    exclusivity within each epoch (checked in that order), and (for fixed
    strategies) that the assignment never changes across epochs. Raises
    PlanValidationError naming the violated constraint; otherwise returns
    each epoch's local (weak-cell position, site) pairs.
    """
    if len(plan.assignments) != tensor.n_epochs:
        raise PlanValidationError(
            f"epoch-count: plan has {len(plan.assignments)} epochs, "
            f"tensor has {tensor.n_epochs}"
        )
    grid_pos = tensor.weak_position
    local = []
    for t, epoch_pairs in enumerate(plan.assignments):
        if len(epoch_pairs) != m:
            raise PlanValidationError(
                f"placement-count: epoch {t + 1} has {len(epoch_pairs)} pairs, "
                f"expected exactly {m}"
            )
        pairs = []
        for grid, site in epoch_pairs:
            if grid not in grid_pos:
                raise PlanValidationError(
                    f"membership: cell {grid} is not in the weak-coverage set"
                )
            if not 0 <= site < tensor.n_sites:
                raise PlanValidationError(f"membership: unknown site index {site}")
            pairs.append((grid_pos[grid], site))
        if len({q for q, _ in pairs}) != m:
            raise PlanValidationError(
                f"cell-exclusivity: epoch {t + 1} serves a cell more than once"
            )
        if len({j for _, j in pairs}) != m:
            raise PlanValidationError(
                f"site-exclusivity: epoch {t + 1} occupies a site more than once"
            )
        local.append(pairs)
    if plan.strategy in FIXED_STRATEGIES:
        first = set(plan.assignments[0]) if plan.assignments else set()
        for t, epoch_pairs in enumerate(plan.assignments[1:], start=2):
            if set(epoch_pairs) != first:
                raise PlanValidationError(
                    f"fixed-placement: epoch {t} differs from epoch 1 under a "
                    f"non-relocating strategy"
                )
    return local


def evaluate_plan(plan: PlacementPlan, tensor: GainTensor, m: int) -> PlanEvaluation:
    """Score a plan: its objective, gain excess and served demand.

    Validates feasibility first against the fleet size m, so an infeasible
    plan raises rather than scoring.
    """
    local = validate_plan(plan, tensor, m)
    epochs = np.repeat(np.arange(tensor.n_epochs), m)
    cells, sites = np.array(local, dtype=int).reshape(-1, 2).T
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
