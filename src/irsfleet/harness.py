"""Monte Carlo experiment runner, metrics aggregation and CSV emission.

The unit of work is one (sigma, trial): `_TrialEngine.run_unit` draws its
channel and traffic, builds its gain tensor, and scores every requested
strategy on that one realization, which makes the strategy comparison
paired. A sweep runs unit after unit, and a single trial is a unit of one
strategy. Every unit is a pure function of (master seed, sigma, trial
index): substreams come from a counter-based generator keyed on those
values, never on execution order, so units can run in any order (or
concurrently) and reproduce bit-identically.
"""

import csv
import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import DistanceTables, ScenarioLayout, compute_distances
from .planner import (
    GainTensor,
    PlacementPlan,
    STRATEGY_RANDOM,
    STRATEGY_ROBOTIC,
    STRATEGY_TERRESTRIAL,
    build_gain_tensor,
    evaluate_plan,
    solve_adaptive_plan,
    solve_fixed_plan,
    solve_random_plan,
)
from .routing import TrajectoryPlan, plan_trajectories, validate_trajectory
from .scenario import Scenario, scenario_as_dict
from .traffic import TrafficField, sample_traffic
from .channel import realize_channel

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
            if not (sigma > 0 and math.isfinite(sigma)):
                raise ValueError(f"sigma must be finite and positive, got {sigma}")
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
    (sigma, trial) units on it."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.layout: ScenarioLayout = scenario.layout()
        self.distances: DistanceTables = compute_distances(self.layout)

    def run_unit(
        self,
        sigma: float,
        trial_index: int,
        master_seed: int,
        strategies: tuple[str, ...],
    ) -> list[TrialResult]:
        """Every strategy's trial at one (sigma, trial), in `strategies` order.

        The unit's channel, traffic and gain tensor are drawn once and every
        strategy is scored on them. Any failure is re-raised as a TrialError
        naming the strategy being run, or the first one if the draw failed.
        """
        strategy = strategies[0]
        try:
            scenario = self.scenario
            traffic_model = dataclasses.replace(scenario.traffic, sigma_log=sigma)
            channel_rng = trial_rng(master_seed, sigma, trial_index, _STREAM_CHANNEL)
            realization = realize_channel(self.distances, scenario.radio, channel_rng)
            traffic_rng = trial_rng(master_seed, sigma, trial_index, _STREAM_TRAFFIC)
            field = sample_traffic(traffic_model, self.layout.n_grids, traffic_rng)
            tensor = build_gain_tensor(
                realization, self.distances, field, scenario.radio
            )
            results = []
            for strategy in strategies:
                results.append(
                    self.run(sigma, trial_index, strategy, master_seed, field, tensor)
                )
            return results
        except Exception as err:
            raise TrialError(
                f"strategy={strategy} sigma={sigma} trial={trial_index}: {err}"
            ) from err

    def run(
        self,
        sigma: float,
        trial_index: int,
        strategy: str,
        master_seed: int,
        field: TrafficField,
        tensor: GainTensor,
    ) -> TrialResult:
        """One strategy's trial, scored on its unit's traffic and gain tensor."""
        scenario = self.scenario
        m = scenario.solver.fleet_size
        if strategy == STRATEGY_ROBOTIC:
            plan = solve_adaptive_plan(tensor, m)
        elif strategy == STRATEGY_TERRESTRIAL:
            plan = solve_fixed_plan(tensor, m, scenario.solver.terrestrial_mode)
        elif strategy == STRATEGY_RANDOM:
            rng = trial_rng(master_seed, sigma, trial_index, _STREAM_PLACEMENT)
            plan = solve_random_plan(tensor, m, rng)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")

        evaluation = evaluate_plan(plan, tensor, m)

        trajectory = None
        total_distance = 0.0
        feasible = True
        if strategy == STRATEGY_ROBOTIC:
            trajectory = plan_trajectories(plan, self.layout, scenario.platform)
            validate_trajectory(trajectory, plan, self.layout)
            total_distance = trajectory.total_distance_m
            feasible = trajectory.feasible

        metrics = TrialMetrics(
            strategy=strategy,
            sigma=float(sigma),
            trial=int(trial_index),
            mean_gain=evaluation.objective,
            served_traffic=float(evaluation.served_traffic.sum()),
            total_distance_m=total_distance,
            energy_feasible=feasible,
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


def run_trial(
    scenario: Scenario,
    sigma: float,
    trial_index: int,
    strategy: str,
    master_seed: int,
) -> TrialResult:
    """Run one end-to-end trial; identical inputs give bit-identical output."""
    engine = _TrialEngine(scenario)
    return engine.run_unit(sigma, trial_index, master_seed, (strategy,))[0]


def summarize(metrics: list[TrialMetrics]) -> list[dict]:
    """Per-(strategy, sigma) mean/std/confidence rows, recomputable from
    the per-trial table."""
    groups: dict[tuple[str, float], list[TrialMetrics]] = {}
    order: list[tuple[str, float]] = []
    for row in metrics:
        key = (row.strategy, row.sigma)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    summaries = []
    for strategy, sigma in order:
        rows = groups[(strategy, sigma)]
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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
            _fmt(row.sigma),
            row.trial,
            _fmt(row.mean_gain),
            _fmt(row.served_traffic),
            _fmt(row.total_distance_m),
            _fmt(row.energy_feasible),
        ]
        for row in metrics
    ]


def summary_rows(summaries: list[dict]) -> list[list]:
    return [[_fmt(row[column]) for column in SUMMARY_HEADER] for row in summaries]


def trajectory_rows(
    trial_index: int,
    trajectory: TrajectoryPlan,
    layout: ScenarioLayout,
) -> list[list]:
    """Rows for the per-unit travel CSV.

    Epoch 0 is the depot departure point, epochs 1..T the anchored sites,
    epoch T+1 the depot return; cumulative distance and flight energy are
    the totals after arriving at that row's position.
    """
    m, epochs = trajectory.routes.shape
    depot = np.broadcast_to(layout.bs_position, (m, 1, 2))
    points = np.concatenate(
        [depot, layout.candidate_sites[trajectory.routes], depot], axis=1
    )
    start = np.zeros((m, 1))
    legs = np.concatenate([start, trajectory.leg_m], axis=1)
    cumulative = np.concatenate([start, trajectory.cumulative_m], axis=1)
    total = trajectory.cumulative_m[:, -1]
    e_fly = np.array([ledger.e_fly_j for ledger in trajectory.ledgers])
    ratio = np.divide(e_fly, total, out=np.zeros(m), where=total > 0)
    columns = zip(
        points[..., 0].tolist(),
        points[..., 1].tolist(),
        legs.tolist(),
        cumulative.tolist(),
        (cumulative * ratio[:, None]).tolist(),
        [_fmt(ledger.feasible) for ledger in trajectory.ledgers],
    )
    rows = []
    for k, (xs, ys, leg, cum, energy, feasible) in enumerate(columns):
        for epoch in range(epochs + 2):
            rows.append(
                [
                    trial_index,
                    k,
                    epoch,
                    repr(xs[epoch]),
                    repr(ys[epoch]),
                    repr(leg[epoch]),
                    repr(cum[epoch]),
                    repr(energy[epoch]),
                    feasible,
                ]
            )
    return rows


def placement_rows(
    trial_index: int,
    result: TrialResult,
    layout: ScenarioLayout,
) -> list[list]:
    tensor, plan = result.tensor, result.plan
    grids = tensor.weak_grids.tolist()
    rows = []
    for t, (cells, sites) in enumerate(zip(plan.cells.tolist(), plan.sites.tolist())):
        for q, site in zip(cells, sites):
            r, c = layout.grid_row_col(grids[q])
            point = layout.candidate_sites[site]
            rows.append(
                [
                    result.metrics.strategy,
                    trial_index,
                    t + 1,
                    r,
                    c,
                    _fmt(float(point[0])),
                    _fmt(float(point[1])),
                    _fmt(float(tensor.gain_at(t, q, site))),
                    _fmt(float(tensor.demand[t, q])),
                ]
            )
    return rows


def traffic_rows(field: TrafficField) -> list[list]:
    """(epoch, grid_index, demand) rows of a demand field; epochs 1-based."""
    return [
        [t + 1, i, repr(demand)]
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

    Units run sigma by sigma, trial by trial, one `_TrialEngine.run_unit`
    call each. Metrics and trials.csv stay strategy-major: the rows of each
    strategy, in sigma then trial order, joined in `config.strategies` order.

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

    for sigma in config.sigma_list:
        for trial in range(config.trials):
            unit = engine.run_unit(sigma, trial, config.master_seed, config.strategies)
            for result in unit:
                by_strategy[result.metrics.strategy].append(result.metrics)
                if result.trajectory is not None and out is not None:
                    trajectory_tables.setdefault(float(sigma), []).extend(
                        trajectory_rows(trial, result.trajectory, engine.layout)
                    )
            # The results hold the unit's gain tensor; drop them so the
            # next unit is not built with two tensors alive.
            del unit, result

    metrics = [row for rows in by_strategy.values() for row in rows]
    summaries = summarize(metrics)
    if out is not None:
        _write_rows(out / "trials.csv", TRIALS_HEADER, trials_rows(metrics))
        _write_rows(out / "summary.csv", SUMMARY_HEADER, summary_rows(summaries))
        for sigma, rows in trajectory_tables.items():
            _write_rows(
                out / f"trajectories_sigma_{_fmt(sigma)}.csv",
                TRAJECTORY_HEADER,
                rows,
            )
    return ExperimentResult(metrics=metrics, summaries=summaries)
