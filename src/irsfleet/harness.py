"""Monte Carlo experiment runner, metrics aggregation and CSV emission.

The unit of work is one (sigma, trial): its blockage and traffic are drawn
and its gain tensor indexed into the link budget once; every strategy is
scored on that one realization, which makes the comparison paired. A sweep
runs its units in blocks of consecutive units in (sigma, trial) order
(`_TrialEngine.run_block`): it draws the block's units, then runs one
matching machine per (unit, strategy) trial, all gathered into one that
`matching.run` drives, so each round's solves share stacks. Each trial
solves its placement and, for robotic, its routes, and is scored as soon
as its solves are done: `evaluate_plan` scores the plan and
`evaluate_trajectory` the routes. A single trial
is a block of one unit of one strategy. Every unit is a pure function of
(master seed, sigma, trial index): substreams come from a counter-based
generator keyed on those values, never on execution order, and every
stacked solve equals its lone solve, so units can run in any order,
grouping (or concurrently) and reproduce bit-identically.

CSV row builders zip columns of the arrays the scorers already hold, and
`csv` writes each float cell as its shortest round-trip repr.
"""

import csv
import dataclasses
import itertools
import json
import math
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
from .traffic import TrafficField, check_sigma, sample_traffic
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
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.sigma_list:
            raise ValueError("sigma_list must not be empty")
        if not self.strategies:
            raise ValueError("strategies must not be empty")
        for sigma in self.sigma_list:
            check_sigma(sigma)
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
    traffic: TrafficField


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
    streams regardless of how they were produced.
    """
    seq = np.random.SeedSequence(
        entropy=(int(master_seed), _sigma_bits(sigma), int(trial_index), int(stream))
    )
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

    @property
    def block_units(self) -> int:
        """Units per block: as many as `matching.STACK_CELLS` cells hold at
        one per (grid cell, site) of a unit, and at least one. A unit holds
        no cost cells: its placements index `budget.cost_if_blocked`."""
        cells = self.layout.n_grids * self.layout.n_sites
        return max(1, matching.STACK_CELLS // max(1, cells))

    def run_block(
        self,
        units: list[tuple[float, int]],
        master_seed: int,
        strategies: tuple[str, ...],
    ) -> list[list[TrialResult]]:
        """Every strategy's trial at each (sigma, trial) unit, in order.

        Each unit's blockage, traffic and gain tensor are drawn once, and a
        draw that fails ends the block before its unit. Then every trial of
        the drawn units runs as one `_trial` machine, all in lockstep, so
        each round stacks every pending solve of the block: every
        strategy's placement problems in the first, every robotic plan's
        transition dual solves in the second, tie-break re-solves after.
        A trial that fails leaves the others running. The first failure in
        (unit, strategy) order is raised as a TrialError naming its
        strategy, as a unit-by-unit run would raise it. Only if none fails
        is a failed draw raised, naming its unit's first strategy. Every
        check that can refuse a trial runs inside its own machine; the
        shared stacked solves get only finite costs and feasible sizes.
        """
        drawn, failed_draw = [], None
        for sigma, trial in units:
            try:
                drawn.append((sigma, trial, *self._draw(sigma, trial, master_seed)))
            except Exception as err:
                failed_draw = (strategies[0], sigma, trial, err)
                break
        jobs = [
            (sigma, trial, strategy, field, tensor)
            for sigma, trial, field, tensor in drawn
            for strategy in strategies
        ]
        outcomes = matching.run(
            gather(self._trial(*job, master_seed) for job in jobs)
        )
        for (sigma, trial, strategy, _, _), outcome in zip(jobs, outcomes):
            if isinstance(outcome, Exception):
                raise _trial_error(strategy, sigma, trial, outcome) from outcome
        if failed_draw is not None:
            raise _trial_error(*failed_draw) from failed_draw[-1]
        n = len(strategies)
        return [outcomes[k : k + n] for k in range(0, len(outcomes), n)]

    def _draw(
        self, sigma: float, trial_index: int, master_seed: int
    ) -> tuple[TrafficField, GainTensor]:
        """The unit's traffic field and gain tensor."""
        traffic_model = dataclasses.replace(self.scenario.traffic, sigma_log=sigma)
        channel_rng = trial_rng(master_seed, sigma, trial_index, _STREAM_CHANNEL)
        realization = realize_channel(self.budget, channel_rng)
        traffic_rng = trial_rng(master_seed, sigma, trial_index, _STREAM_TRAFFIC)
        field = sample_traffic(traffic_model, self.layout.n_grids, traffic_rng)
        return field, build_gain_tensor(self.budget, realization, field)

    def _trial(
        self,
        sigma: float,
        trial_index: int,
        strategy: str,
        field: TrafficField,
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
            elif strategy == STRATEGY_RANDOM:
                rng = trial_rng(master_seed, sigma, trial_index, _STREAM_PLACEMENT)
                plan = solve_random_plan(tensor, m, rng)
            else:
                raise ValueError(f"unknown strategy {strategy!r}")
            return self.run(sigma, trial_index, strategy, field, tensor, plan, routes)
        except Exception as err:
            return err

    def run(
        self,
        sigma: float,
        trial_index: int,
        strategy: str,
        field: TrafficField,
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
            energy_feasible=trajectory is None or trajectory.feasible,
            matching_weight=evaluation.matching_weight,
            n_weak=tensor.n_weak,
        )
        return TrialResult(
            metrics=metrics,
            plan=plan,
            tensor=tensor,
            trajectory=trajectory,
            traffic=field,
        )


def _trial_error(strategy: str, sigma: float, trial_index: int, err) -> TrialError:
    return TrialError(f"strategy={strategy} sigma={sigma} trial={trial_index}: {err}")


def run_trial(
    scenario: Scenario,
    sigma: float,
    trial_index: int,
    strategy: str,
    master_seed: int,
) -> TrialResult:
    """Run one end-to-end trial; identical inputs give bit-identical output."""
    engine = _TrialEngine(scenario)
    ((result,),) = engine.run_block([(sigma, trial_index)], master_seed, (strategy,))
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


TRIALS_HEADER = [
    "strategy",
    "sigma",
    "trial",
    "mean_gain",
    "served_traffic_mbps_km2",
    "total_distance_m",
    "energy_feasible",
]

SUMMARY_HEADER = [
    "strategy",
    "sigma",
    "trials",
    "mean_gain_mean",
    "mean_gain_std",
    "mean_gain_ci95",
    "served_traffic_mean",
    "served_traffic_std",
    "served_traffic_ci95",
    "total_distance_mean",
    "total_distance_std",
    "all_energy_feasible",
]

TRAJECTORY_HEADER = [
    "trial",
    "uav_id",
    "epoch",
    "site_x",
    "site_y",
    "leg_m",
    "cumulative_m",
    "e_fly_j",
    "feasible_flag",
]

TRAFFIC_HEADER = ["epoch", "grid_index", "demand_mbps_km2"]

PLACEMENT_HEADER = [
    "strategy",
    "trial",
    "epoch",
    "grid_row",
    "grid_col",
    "site_x",
    "site_y",
    "gain",
    "demand",
]


def trials_rows(metrics: list[TrialMetrics]) -> list[list]:
    return [
        [
            row.strategy,
            row.sigma,
            row.trial,
            row.mean_gain,
            row.served_traffic,
            row.total_distance_m,
            _fmt(row.energy_feasible),
        ]
        for row in metrics
    ]


def summary_rows(summaries: list[dict]) -> list[list]:
    return [[_fmt(row[column]) for column in SUMMARY_HEADER] for row in summaries]


def trajectory_rows(trial_index: int, trajectory: TrajectoryPlan) -> list[tuple]:
    """Rows for the per-unit travel CSV.

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
    e_fly = np.array([ledger.e_fly_j for ledger in trajectory.ledgers])
    ratio = np.divide(e_fly, total, out=np.zeros(m), where=total > 0)
    return list(
        zip(
            itertools.repeat(trial_index),
            np.repeat(np.arange(m), n).tolist(),
            np.tile(np.arange(n), m).tolist(),
            trajectory.points[..., 0].ravel().tolist(),
            trajectory.points[..., 1].ravel().tolist(),
            legs.ravel().tolist(),
            cumulative.ravel().tolist(),
            (cumulative * ratio[:, None]).ravel().tolist(),
            [_fmt(ledger.feasible) for ledger in trajectory.ledgers for _ in range(n)],
        )
    )


def placement_rows(
    trial_index: int,
    result: TrialResult,
    layout: ScenarioLayout,
) -> list[tuple]:
    tensor, plan = result.tensor, result.plan
    epochs = np.repeat(np.arange(plan.cells.shape[0]), plan.cells.shape[1])
    cells, sites = np.ravel(plan.cells), np.ravel(plan.sites)
    grid_row, grid_col = np.divmod(tensor.weak_grids[cells], layout.grid_cols)
    points = layout.candidate_sites[sites]
    return list(
        zip(
            itertools.repeat(result.metrics.strategy),
            itertools.repeat(trial_index),
            (epochs + 1).tolist(),
            grid_row.tolist(),
            grid_col.tolist(),
            points[:, 0].tolist(),
            points[:, 1].tolist(),
            tensor.gain_at(epochs, cells, sites).tolist(),
            tensor.demand[epochs, cells].tolist(),
        )
    )


def traffic_rows(field: TrafficField) -> list[list]:
    """(epoch, grid_index, demand) rows of a demand field; epochs 1-based."""
    return [
        [t + 1, i, demand]
        for t, epoch_demand in enumerate(field.demand.tolist())
        for i, demand in enumerate(epoch_demand)
    ]


def _write_rows(path, header: list[str], rows: list[list]) -> None:
    """Write a CSV beside `path` and rename it into place once complete."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")
    try:
        with partial.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
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
    trajectory_tables: dict[float, list[list]] = {}

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
                trajectory_tables.setdefault(row.sigma, []).extend(
                    trajectory_rows(row.trial, result.trajectory)
                )
        # The results hold the block's gain tensors; drop them so the
        # next block is not drawn with this one's still alive.
        del block, result

    metrics = [row for rows in by_strategy.values() for row in rows]
    summaries = summarize(metrics)
    if out is not None:
        _write_rows(out / "trials.csv", TRIALS_HEADER, trials_rows(metrics))
        _write_rows(out / "summary.csv", SUMMARY_HEADER, summary_rows(summaries))
        for sigma, rows in trajectory_tables.items():
            _write_rows(
                out / f"trajectories_sigma_{sigma!r}.csv",
                TRAJECTORY_HEADER,
                rows,
            )
    return ExperimentResult(metrics=metrics, summaries=summaries)
