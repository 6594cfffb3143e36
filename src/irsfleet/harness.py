"""Monte Carlo experiment runner, metrics aggregation and CSV emission.

The unit of work is one (sigma, trial): its blockage and traffic are drawn
and its gain tensor indexed into the link budget once; every strategy is
scored on that one realization, which makes the comparison paired. A sweep
runs its units in blocks of consecutive units in (sigma, trial) order
(`_TrialEngine.run_block`): a block is one `_TrialEngine._unit` matching
machine per unit, all gathered into one that `matching.run` drives, so
each round's solves share stacks. A unit draws once and gathers one
`_trial` machine per strategy on that draw; a draw that fails fails its
unit's trials. Each trial solves its placement and, for robotic, its
routes, and is scored as soon as its solves are done: `evaluate_plan`
scores the plan and `evaluate_trajectory` the routes. A single trial is
a block of one unit of one strategy. Every unit is a pure function of
(master seed, sigma, trial index): substreams come from a counter-based
generator keyed on those values, never on execution order, and every
stacked solve equals its lone solve, so units can run in any order,
grouping (or concurrently) and reproduce bit-identically.

Every CSV is built as one table, a dict from column name to column
values in file order, out of the arrays the scorers already hold: each
column name is written once, in its builder (`trials_table`,
`summary_table`, `trajectory_table`, `placement_table`, `traffic_table`).
`_write_rows` writes every file of `run_experiment` and `run_plan`, and
`csv` writes each float cell as its shortest round-trip repr.
"""

import csv
import itertools
import json
import math
import operator
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, matching
from .geometry import ScenarioLayout, compute_distances
from .matching import gather
from .planner import (
    GainTensor,
    PlacementPlan,
    STRATEGY_RANDOM,
    STRATEGY_ROBOTIC,
    STRATEGY_TERRESTRIAL,
    adaptive_plan_machine,
    build_gain_tensor,
    evaluate_plan,
    fixed_plan_machine,
    solve_random_plan,
)
from .routing import TrajectoryPlan, evaluate_trajectory, trajectory_machine
from .scenario import Scenario, scenario_as_dict
from .traffic import check_sigma, sample_traffic
from .channel import link_budget, realize_channel

__all__ = [
    "ExperimentConfig",
    "TrialMetrics",
    "TrialResult",
    "ExperimentResult",
    "TrialError",
    "KNOWN_STRATEGIES",
    "RNG_NAME",
    "trial_rng",
    "run_trial",
    "run_experiment",
    "run_plan",
    "summarize",
]

KNOWN_STRATEGIES = (STRATEGY_ROBOTIC, STRATEGY_TERRESTRIAL, STRATEGY_RANDOM)
RNG_NAME = "philox"

# Substream tags within one (seed, sigma, trial) cell.
_STREAM_CHANNEL = 0
_STREAM_TRAFFIC = 1
_STREAM_PLACEMENT = 2


class TrialError(RuntimeError):
    """A module failure, annotated with the trial that triggered it."""


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Scenario
    strategies: tuple[str, ...] = KNOWN_STRATEGIES
    sigma_list: tuple[float, ...] = (1.8, 2.8, 3.6)
    trials: int = 100
    master_seed: int = 1
    output_dir: Path | None = None

    def __post_init__(self) -> None:
        # Python ints: a float would key another value's streams, and a
        # NumPy integer is not JSON.
        object.__setattr__(self, "trials", operator.index(self.trials))
        object.__setattr__(self, "master_seed", operator.index(self.master_seed))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.sigma_list:
            raise ValueError("sigma_list must not be empty")
        if not self.strategies:
            raise ValueError("strategies must not be empty")
        for sigma in self.sigma_list:
            check_sigma(sigma)  # on the raw value, so a string raises
        # Python floats, as every output names them.
        object.__setattr__(self, "sigma_list", tuple(map(float, self.sigma_list)))
        # A repeat would count the same paired trials twice in the summary.
        if len(set(self.sigma_list)) != len(self.sigma_list):
            raise ValueError(f"sigma_list repeats a value: {self.sigma_list}")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError(f"strategies repeat a value: {self.strategies}")
        for strategy in self.strategies:
            if strategy not in KNOWN_STRATEGIES:
                raise ValueError(f"unknown strategy {strategy!r}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class TrialMetrics:
    strategy: str
    sigma: float
    trial: int
    mean_gain: float
    served_traffic: float      # Mbps/km^2 aggregated over epochs
    total_distance_m: float    # 0 for strategies that never relocate
    energy_feasible: bool
    matching_weight: float     # selected gain excess behind mean_gain
    n_weak: int                # weak cells mean_gain averages over


@dataclass(frozen=True, eq=False)
class TrialResult:
    metrics: TrialMetrics
    plan: PlacementPlan
    tensor: GainTensor
    trajectory: TrajectoryPlan | None
    traffic: np.ndarray  # (epochs, cells) demand, Mbps/km^2


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    metrics: list[TrialMetrics]
    summaries: list[dict]


def trial_rng(
    master_seed: int,
    sigma: float,
    trial_index: int,
    stream: int,
) -> np.random.Generator:
    """Counter-based substream keyed on trial coordinates, not run order.

    Sigma enters through its IEEE-754 bit pattern so equal values key equal
    streams regardless of how they were produced; a key that is not an
    integer raises, so a float never runs another key's streams, and a
    negative trial index raises too.
    """
    if operator.index(trial_index) < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial_index}")
    keys = (master_seed, _sigma_bits(sigma), trial_index, stream)
    seq = np.random.SeedSequence(entropy=tuple(map(operator.index, keys)))
    return np.random.Generator(np.random.Philox(seq))


def _sigma_bits(sigma: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(sigma)))[0]


class _TrialEngine:
    """Precomputes everything trial-independent for one scenario and runs
    blocks of (sigma, trial) units on it."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.layout: ScenarioLayout = scenario.layout()
        self.budget = link_budget(compute_distances(self.layout), scenario.radio)
        self.thresholds = scenario.traffic.thresholds()

    @property
    def block_units(self) -> int:
        """Units per block: `matching.STACK_CELLS` // (grid cells x
        sites), and at least one. A unit asks for at most epochs + 1
        placement problems, none spanning more rows or columns than the
        sites, and a stack holds `STACK_CELLS` // sites of them, so the
        block's placement round is one stack whenever epochs + 1 <= grid
        cells."""
        cells = self.layout.n_grids * self.layout.n_sites
        return max(1, matching.STACK_CELLS // max(1, cells))

    def run_block(
        self,
        units: list[tuple[float, int]],
        master_seed: int,
        strategies: tuple[str, ...],
    ) -> list[list[TrialResult]]:
        """Every strategy's trial at each (sigma, trial) unit, in order.

        The block is one `_unit` machine per unit, all gathered into one
        that `matching.run` drives, so each round stacks every pending
        solve of the block: every strategy's placement problems in the
        first, every robotic plan's transition dual solves in the second,
        and after them the tie-break re-solves, which run only when a tight
        detour misses the tolerance. A trial that fails leaves the others
        running, and a draw that fails fails its unit's trials. The first
        failure in (unit, strategy) order is raised as a TrialError naming
        its strategy, as a unit-by-unit run would raise it. Every check
        that can refuse a trial runs inside its own machine; the shared
        stacked solves get only finite costs and feasible sizes.
        """
        block = matching.run(
            gather(self._unit(*unit, master_seed, strategies) for unit in units)
        )
        for (sigma, trial), outcomes in zip(units, block):
            for strategy, outcome in zip(strategies, outcomes):
                if isinstance(outcome, Exception):
                    raise TrialError(
                        f"strategy={strategy} sigma={sigma} trial={trial}: {outcome}"
                    ) from outcome
        return block

    def _unit(self, sigma: float, trial_index: int, master_seed: int, strategies):
        """Matching machine for one (sigma, trial) unit: it draws the
        unit's blockage, traffic and gain tensor once, then runs every
        strategy's `_trial` on that draw in lockstep. Returns each
        strategy's TrialResult, or the exception raised in its place; a
        draw that fails is every strategy's exception."""
        try:
            channel_rng = trial_rng(master_seed, sigma, trial_index, _STREAM_CHANNEL)
            realization = realize_channel(self.budget, channel_rng)
            traffic_rng = trial_rng(master_seed, sigma, trial_index, _STREAM_TRAFFIC)
            demand = sample_traffic(
                self.scenario.traffic, sigma, self.layout.n_grids, traffic_rng
            )
            tensor = build_gain_tensor(
                self.budget, realization, demand, self.thresholds
            )
        except Exception as err:
            return [err] * len(strategies)
        return (
            yield from gather(
                self._trial(sigma, trial_index, strategy, demand, tensor, master_seed)
                for strategy in strategies
            )
        )

    def _trial(
        self,
        sigma: float,
        trial_index: int,
        strategy: str,
        demand: np.ndarray,
        tensor: GainTensor,
        master_seed: int,
    ):
        """Matching machine for one strategy's trial on its unit: it solves
        the plan and, for robotic, the routes, and scores them with `run`.
        Returns the TrialResult, or the exception raised in its place."""
        solver = self.scenario.solver
        m = solver.fleet_size
        routes = None
        try:
            if strategy == STRATEGY_ROBOTIC:
                plan = yield from adaptive_plan_machine(tensor, m)
                routes = yield from trajectory_machine(plan, self.layout)
            elif strategy == STRATEGY_TERRESTRIAL:
                plan = yield from fixed_plan_machine(tensor, m, solver.terrestrial_mode)
            else:  # random: every entry checks its strategies by ExperimentConfig
                rng = trial_rng(master_seed, sigma, trial_index, _STREAM_PLACEMENT)
                plan = solve_random_plan(tensor, m, rng)
            return self.run(sigma, trial_index, strategy, demand, tensor, plan, routes)
        except Exception as err:
            return err

    def run(
        self,
        sigma: float,
        trial_index: int,
        strategy: str,
        demand: np.ndarray,
        tensor: GainTensor,
        plan: PlacementPlan,
        routes: np.ndarray | None,
    ) -> TrialResult:
        """One strategy's trial, scored on its unit's traffic and gain
        tensor; routes are scored as the plan's trajectory."""
        evaluation = evaluate_plan(plan, tensor, self.scenario.solver.fleet_size)

        trajectory = None
        if routes is not None:
            trajectory = evaluate_trajectory(
                routes, plan, self.layout, self.scenario.platform
            )

        metrics = TrialMetrics(
            strategy=strategy,
            sigma=float(sigma),
            trial=int(trial_index),
            mean_gain=evaluation.objective,
            served_traffic=float(evaluation.served_traffic.sum()),
            total_distance_m=0.0 if trajectory is None else trajectory.total_distance_m,
            energy_feasible=trajectory is None
            or bool(trajectory.ledger.feasible.all()),
            matching_weight=evaluation.matching_weight,
            n_weak=tensor.n_weak,
        )
        return TrialResult(
            metrics=metrics,
            plan=plan,
            tensor=tensor,
            trajectory=trajectory,
            traffic=demand,
        )


def run_trial(
    scenario: Scenario,
    sigma: float,
    trial_index: int,
    strategy: str,
    master_seed: int,
) -> TrialResult:
    """Run one end-to-end trial; identical inputs give bit-identical output.
    Its inputs are checked before it runs, by the `ExperimentConfig` of
    this one trial and by `trial_rng`."""
    config = ExperimentConfig(scenario, (strategy,), (sigma,), 1, master_seed)
    ((result,),) = _TrialEngine(scenario).run_block(
        [(config.sigma_list[0], trial_index)], config.master_seed, config.strategies
    )
    return result


def summarize(metrics: list[TrialMetrics]) -> list[dict]:
    """Per-(strategy, sigma) mean/std/confidence rows, recomputable from
    the per-trial table."""
    groups: dict[tuple[str, float], list[TrialMetrics]] = {}
    for row in metrics:
        groups.setdefault((row.strategy, row.sigma), []).append(row)

    summaries = []
    for (strategy, sigma), rows in groups.items():
        n = len(rows)

        def stats(values: list[float]) -> tuple[float, float, float]:
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if n > 1 else 0.0
            ci95 = 1.96 * std / math.sqrt(n) if n > 1 else 0.0
            return mean, std, ci95

        gain = stats([r.mean_gain for r in rows])
        served = stats([r.served_traffic for r in rows])
        distance = stats([r.total_distance_m for r in rows])
        summaries.append(
            {
                "strategy": strategy,
                "sigma": sigma,
                "trials": n,
                "mean_gain_mean": gain[0],
                "mean_gain_std": gain[1],
                "mean_gain_ci95": gain[2],
                "served_traffic_mean": served[0],
                "served_traffic_std": served[1],
                "served_traffic_ci95": served[2],
                "total_distance_mean": distance[0],
                "total_distance_std": distance[1],
                "all_energy_feasible": all(r.energy_feasible for r in rows),
            }
        )
    return summaries


def _fmt(value):
    """A bool as `true`/`false`, any other cell as is: `csv` writes a Python
    `float` as its shortest round-trip repr, so a float cell must be one (as
    `.tolist()` and `float(...)` give), never a NumPy scalar."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def trials_table(metrics: list[TrialMetrics]) -> dict[str, list]:
    """trials.csv: one row per trial, in `metrics` order."""
    return {
        "strategy": [row.strategy for row in metrics],
        "sigma": [row.sigma for row in metrics],
        "trial": [row.trial for row in metrics],
        "mean_gain": [row.mean_gain for row in metrics],
        "served_traffic_mbps_km2": [row.served_traffic for row in metrics],
        "total_distance_m": [row.total_distance_m for row in metrics],
        "energy_feasible": [_fmt(row.energy_feasible) for row in metrics],
    }


def summary_table(summaries: list[dict]) -> dict[str, list]:
    """summary.csv: `summarize`'s rows, its keys as the columns."""
    return {
        column: [_fmt(row[column]) for row in summaries] for column in summaries[0]
    }


def trajectory_table(trial_index: int, trajectory: TrajectoryPlan) -> dict[str, list]:
    """The per-unit travel table of trajectory.csv and the sweep's
    trajectories_sigma_<s>.csv, one row per (UAV, epoch).

    Epoch 0 is the depot departure point, epochs 1..T the anchored sites,
    epoch T+1 the depot return; cumulative distance and flight energy are
    the totals after arriving at that row's position.

    A row's energy is its cumulative distance times its unit's ledger ratio
    `e_fly_j / total`: the law `p_fly_w * d / v_fly_mps` agrees within 2 ulps
    but rounds 10,661 of the 42,000 rows of `sweep --seed 20260810 --trials
    100` differently.
    """
    m, n = trajectory.points.shape[:2]
    start = np.zeros((m, 1))
    legs = np.concatenate([start, trajectory.leg_m], axis=1)
    cumulative = np.concatenate([start, trajectory.cumulative_m], axis=1)
    total = trajectory.cumulative_m[:, -1]
    ledger = trajectory.ledger
    ratio = np.divide(ledger.e_fly_j, total, out=np.zeros(m), where=total > 0)
    return {
        "trial": [trial_index] * (m * n),
        "uav_id": np.repeat(np.arange(m), n).tolist(),
        "epoch": np.tile(np.arange(n), m).tolist(),
        "site_x": trajectory.points[..., 0].ravel().tolist(),
        "site_y": trajectory.points[..., 1].ravel().tolist(),
        "leg_m": legs.ravel().tolist(),
        "cumulative_m": cumulative.ravel().tolist(),
        "e_fly_j": (cumulative * ratio[:, None]).ravel().tolist(),
        "feasible_flag": list(map(_fmt, np.repeat(ledger.feasible, n).tolist())),
    }


def placement_table(
    trial_index: int,
    result: TrialResult,
    layout: ScenarioLayout,
) -> dict[str, list]:
    """placement.csv: one row per anchored (epoch, weak cell, site)."""
    tensor, plan = result.tensor, result.plan
    epochs = np.repeat(np.arange(plan.cells.shape[0]), plan.cells.shape[1])
    cells, sites = np.ravel(plan.cells), np.ravel(plan.sites)
    grid_row, grid_col = np.divmod(tensor.weak_grids[cells], layout.geometry.grid_cols)
    points = layout.candidate_sites[sites]
    return {
        "strategy": [result.metrics.strategy] * epochs.size,
        "trial": [trial_index] * epochs.size,
        "epoch": (epochs + 1).tolist(),
        "grid_row": grid_row.tolist(),
        "grid_col": grid_col.tolist(),
        "site_x": points[:, 0].tolist(),
        "site_y": points[:, 1].tolist(),
        "gain": tensor.gain_at(epochs, cells, sites).tolist(),
        "demand": tensor.demand[epochs, cells].tolist(),
    }


def traffic_table(demand: np.ndarray) -> dict[str, list]:
    """traffic.csv: the (epochs, cells) demand field, one row per (epoch,
    grid cell); epochs 1-based."""
    epochs, grids = demand.shape
    return {
        "epoch": np.repeat(np.arange(1, epochs + 1), grids).tolist(),
        "grid_index": np.tile(np.arange(grids), epochs).tolist(),
        "demand_mbps_km2": demand.ravel().tolist(),
    }


def _write_rows(path, tables: list[dict[str, list]]) -> None:
    """Write `tables`, each a dict of column name to column values in file
    order, as one CSV: the first table's column names, then every table's
    rows. The file is written beside `path` and renamed into place once
    complete."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")
    try:
        with partial.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(tables[0])
            for table in tables:
                writer.writerows(zip(*table.values()))
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def write_metadata(config: ExperimentConfig, path) -> None:
    payload = {
        "package": "irsfleet",
        "version": __version__,
        "generator": RNG_NAME,
        "master_seed": config.master_seed,
        "trials": config.trials,
        "sigma_list": list(config.sigma_list),
        "strategies": list(config.strategies),
        "scenario": scenario_as_dict(config.scenario),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Every strategy at every (sigma, trial) unit, with CSV emission.

    Units run sigma by sigma, trial by trial, in blocks of
    `_TrialEngine.block_units` consecutive units, one
    `_TrialEngine.run_block` call each; a block may span sigmas. Metrics
    and trials.csv stay strategy-major: the rows of each strategy, in sigma
    then trial order, joined in `config.strategies` order.

    Output files, when an output directory is set: trials.csv,
    summary.csv, one trajectories_sigma_<s>.csv per sigma for the
    relocating strategy, and run_metadata.json. Output is a pure function
    of the scenario and the master seed.
    """
    # Built first so a bad layout fails before any output exists.
    engine = _TrialEngine(config.scenario)
    out = None
    if config.output_dir is not None:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        # Fail on an unwritable directory before any trial runs.
        write_metadata(config, out / "run_metadata.json")

    by_strategy: dict[str, list[TrialMetrics]] = {s: [] for s in config.strategies}
    trajectory_tables: dict[float, list[dict[str, list]]] = {}

    units = [(s, t) for s in config.sigma_list for t in range(config.trials)]
    size = engine.block_units
    for start in range(0, len(units), size):
        block = engine.run_block(
            units[start : start + size], config.master_seed, config.strategies
        )
        for result in itertools.chain.from_iterable(block):
            row = result.metrics
            by_strategy[row.strategy].append(row)
            if result.trajectory is not None and out is not None:
                trajectory_tables.setdefault(row.sigma, []).append(
                    trajectory_table(row.trial, result.trajectory)
                )
        # The results hold the block's gain tensors; drop them so the
        # next block is not drawn with this one's still alive.
        del block, result

    metrics = [row for rows in by_strategy.values() for row in rows]
    summaries = summarize(metrics)
    if out is not None:
        _write_rows(out / "trials.csv", [trials_table(metrics)])
        _write_rows(out / "summary.csv", [summary_table(summaries)])
        for sigma, tables in trajectory_tables.items():
            _write_rows(out / f"trajectories_sigma_{sigma!r}.csv", tables)
    return ExperimentResult(metrics=metrics, summaries=summaries)


def run_plan(
    scenario: Scenario,
    sigma: float,
    trial_index: int,
    strategy: str,
    master_seed: int,
    output_dir: str | Path,
) -> TrialResult:
    """`run_trial`, with its files in `output_dir`: run_metadata.json,
    placement.csv, trajectory.csv for the relocating strategy, and
    traffic.csv, the demand field the trial was scored on.

    The inputs are checked as `run_trial` checks them, and the trial runs,
    before the output directory exists, so neither leaves one on failure.
    """
    config = ExperimentConfig(
        scenario, (strategy,), (sigma,), 1, master_seed, Path(output_dir)
    )
    engine = _TrialEngine(scenario)
    ((result,),) = engine.run_block(
        [(config.sigma_list[0], trial_index)], config.master_seed, config.strategies
    )
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    write_metadata(config, out / "run_metadata.json")
    _write_rows(
        out / "placement.csv", [placement_table(trial_index, result, engine.layout)]
    )
    if result.trajectory is not None:
        _write_rows(
            out / "trajectory.csv", [trajectory_table(trial_index, result.trajectory)]
        )
    _write_rows(out / "traffic.csv", [traffic_table(result.traffic)])
    return result
