import csv
import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from irsfleet import (
    ExperimentConfig,
    Scenario,
    TrialError,
    default_scenario,
    run_experiment,
    run_trial,
)
from irsfleet import harness
from irsfleet.harness import (
    KNOWN_STRATEGIES,
    SUMMARY_HEADER,
    TRIALS_HEADER,
    summarize,
    trial_rng,
)
from irsfleet.planner import TERRESTRIAL_MODES, GainTensor, evaluate_plan
from irsfleet.scenario import GeometryConfig, SolverOptions

SMALL = Scenario(solver=SolverOptions(fleet_size=5))


def test_trial_rng_streams_are_keyed_not_ordered():
    a = trial_rng(1, 2.8, 4, 0).random(5)
    b = trial_rng(1, 2.8, 4, 0).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, trial_rng(1, 2.8, 5, 0).random(5))
    assert not np.array_equal(a, trial_rng(1, 1.8, 4, 0).random(5))
    assert not np.array_equal(a, trial_rng(2, 2.8, 4, 0).random(5))
    assert not np.array_equal(a, trial_rng(1, 2.8, 4, 1).random(5))


def test_run_trial_bit_identical():
    first = run_trial(SMALL, 2.8, 0, "robotic", 77)
    second = run_trial(SMALL, 2.8, 0, "robotic", 77)
    assert first.metrics == second.metrics
    assert np.array_equal(first.plan.cells, second.plan.cells)
    assert np.array_equal(first.plan.sites, second.plan.sites)
    assert np.array_equal(first.trajectory.leg_m, second.trajectory.leg_m)


def test_strategies_share_the_same_realization():
    robotic = run_trial(SMALL, 2.8, 3, "robotic", 77)
    random = run_trial(SMALL, 2.8, 3, "random", 77)
    assert np.array_equal(robotic.tensor.weak_grids, random.tensor.weak_grids)
    assert np.array_equal(robotic.tensor.demand, random.tensor.demand)
    # the optimizer never loses to a random support on the same instance
    assert robotic.metrics.mean_gain >= random.metrics.mean_gain

    # One unit call scores the strategies in the order asked, each exactly
    # as its lone trial, on one shared tensor.
    order = ("random", "robotic", "terrestrial")
    unit = harness._TrialEngine(SMALL).run_unit(2.8, 3, 77, order)
    assert [result.metrics.strategy for result in unit] == list(order)
    assert len({id(result.tensor) for result in unit}) == 1
    for result in unit:
        alone = run_trial(SMALL, 2.8, 3, result.metrics.strategy, 77)
        assert result.metrics == alone.metrics
        assert np.array_equal(result.plan.cells, alone.plan.cells)
        assert np.array_equal(result.plan.sites, alone.plan.sites)


@pytest.mark.parametrize("strategy", ["robotic", "terrestrial", "random"])
def test_metrics_carry_the_weight_behind_mean_gain(strategy):
    epochs = SMALL.traffic.epochs
    for trial in range(3):
        result = run_trial(SMALL, 2.8, trial, strategy, 77)
        metrics = result.metrics
        assert metrics.n_weak == result.tensor.n_weak
        scored = evaluate_plan(result.plan, result.tensor, SMALL.solver.fleet_size)
        assert metrics.matching_weight == scored.matching_weight
        rebuilt = 1.0 + metrics.matching_weight / (epochs * metrics.n_weak)
        assert abs(metrics.mean_gain - rebuilt) <= 1e-12


def test_trial_errors_carry_context(monkeypatch):
    impossible = Scenario(solver=SolverOptions(fleet_size=100))
    with pytest.raises(TrialError, match="strategy=robotic sigma=2.8 trial=0"):
        run_trial(impossible, 2.8, 0, "robotic", 1)

    def refuse(*args, **kwargs):
        raise RuntimeError("refused")

    # In a unit, the error names the strategy that failed; a failed draw
    # names the unit's first strategy.
    engine = harness._TrialEngine(SMALL)
    monkeypatch.setattr(harness, "solve_random_plan", refuse)
    with pytest.raises(TrialError, match=r"^strategy=random sigma=2.8 trial=4: refused$"):
        engine.run_unit(2.8, 4, 77, ("robotic", "random", "terrestrial"))
    monkeypatch.setattr(harness, "realize_channel", refuse)
    with pytest.raises(TrialError, match=r"^strategy=terrestrial sigma=1.8 trial=2: "):
        engine.run_unit(1.8, 2, 77, ("terrestrial", "robotic"))


def test_non_relocating_strategies_report_zero_distance():
    result = run_trial(SMALL, 2.8, 0, "terrestrial", 77)
    assert result.trajectory is None
    assert result.metrics.total_distance_m == 0.0
    assert result.metrics.energy_feasible


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(scenario=SMALL, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(scenario=SMALL, sigma_list=())
    with pytest.raises(ValueError):
        ExperimentConfig(scenario=SMALL, strategies=("psychic",))
    with pytest.raises(ValueError):
        ExperimentConfig(scenario=SMALL, master_seed=-1)
    with pytest.raises(ValueError, match="sigma_list repeats"):
        ExperimentConfig(scenario=SMALL, sigma_list=(2.8, 1.8, 2.8))
    with pytest.raises(ValueError, match="strategies repeat"):
        ExperimentConfig(scenario=SMALL, strategies=("random", "random"))


def test_run_experiment_table_shape_and_summary(tmp_path):
    config = ExperimentConfig(
        scenario=SMALL,
        strategies=("robotic", "terrestrial", "random"),
        sigma_list=(2.8,),
        trials=2,
        master_seed=5,
        output_dir=tmp_path,
    )
    result = run_experiment(config)
    assert len(result.metrics) == 6
    assert len(result.summaries) == 3

    with (tmp_path / "trials.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TRIALS_HEADER
    assert len(rows) == 7
    with (tmp_path / "summary.csv").open() as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == SUMMARY_HEADER
    assert len(srows) == 4
    assert (tmp_path / "trajectories_sigma_2.8.csv").exists()
    assert (tmp_path / "run_metadata.json").exists()

    # summary rows equal recomputation from the per-trial rows
    parsed = []
    for row in rows[1:]:
        parsed.append(
            dataclasses.replace(
                result.metrics[0],
                strategy=row[0],
                sigma=float(row[1]),
                trial=int(row[2]),
                mean_gain=float(row[3]),
                served_traffic=float(row[4]),
                total_distance_m=float(row[5]),
                energy_feasible=row[6] == "true",
            )
        )
    recomputed = summarize(parsed)
    for expect, actual in zip(result.summaries, recomputed):
        assert expect == actual


def test_execution_order_does_not_change_rows():
    base = ExperimentConfig(
        scenario=SMALL,
        strategies=("robotic", "random"),
        sigma_list=(1.8, 2.8),
        trials=2,
        master_seed=11,
    )
    flipped = dataclasses.replace(
        base, strategies=("random", "robotic"), sigma_list=(2.8, 1.8)
    )
    rows_a = {
        (m.strategy, m.sigma, m.trial): m for m in run_experiment(base).metrics
    }
    rows_b = {
        (m.strategy, m.sigma, m.trial): m for m in run_experiment(flipped).metrics
    }
    assert rows_a == rows_b


def test_sweep_builds_each_realization_once(monkeypatch):
    calls = {"realize_channel": 0, "build_gain_tensor": 0}
    for name in calls:
        original = getattr(harness, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    config = ExperimentConfig(
        scenario=SMALL, sigma_list=(1.8, 2.8), trials=3, master_seed=17
    )
    run_experiment(config)
    assert calls == {"realize_channel": 6, "build_gain_tensor": 6}


def test_a_sweep_never_holds_two_gain_tensors(monkeypatch, tmp_path):
    live = weakref.WeakSet()
    alive_at_build = []
    original = harness.build_gain_tensor

    def tracked(*args, **kwargs):
        gc.collect()
        alive_at_build.append(len(live))
        tensor = original(*args, **kwargs)
        live.add(tensor)
        return tensor

    monkeypatch.setattr(harness, "build_gain_tensor", tracked)
    config = ExperimentConfig(
        scenario=SMALL, sigma_list=(1.8, 2.8), trials=2, master_seed=23,
        output_dir=tmp_path,
    )
    run_experiment(config)
    assert alive_at_build == [0, 0, 0, 0]


def test_sweep_rows_are_paired_single_trials(tmp_path):
    config = ExperimentConfig(
        scenario=SMALL, sigma_list=(2.8, 1.8), trials=2, master_seed=19,
        output_dir=tmp_path,
    )
    metrics = run_experiment(config).metrics
    expected = [
        run_trial(SMALL, sigma, trial, strategy, 19).metrics
        for strategy in config.strategies
        for sigma in config.sigma_list
        for trial in range(config.trials)
    ]
    assert metrics == expected
    with (tmp_path / "trials.csv").open() as fh:
        units = [
            (row["strategy"], float(row["sigma"]), int(row["trial"]))
            for row in csv.DictReader(fh)
        ]
    assert units == [(m.strategy, m.sigma, m.trial) for m in expected]

    for order in itertools.permutations(config.strategies):
        permuted = run_experiment(
            dataclasses.replace(config, strategies=order, output_dir=None)
        ).metrics
        assert permuted == [m for s in order for m in expected if m.strategy == s]


def test_experiment_deterministic_bytes(tmp_path):
    config = ExperimentConfig(
        scenario=SMALL,
        strategies=("robotic",),
        sigma_list=(2.8,),
        trials=2,
        master_seed=13,
        output_dir=tmp_path / "a",
    )
    run_experiment(config)
    run_experiment(dataclasses.replace(config, output_dir=tmp_path / "b"))
    for name in ("trials.csv", "summary.csv", "trajectories_sigma_2.8.csv",
                 "run_metadata.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_trajectory_csv_covers_depot_legs(tmp_path):
    config = ExperimentConfig(
        scenario=SMALL,
        strategies=("robotic",),
        sigma_list=(2.8,),
        trials=1,
        master_seed=5,
        output_dir=tmp_path,
    )
    run_experiment(config)
    with (tmp_path / "trajectories_sigma_2.8.csv").open() as fh:
        rows = list(csv.reader(fh))
    epochs = SMALL.traffic.epochs
    fleet = SMALL.solver.fleet_size
    # depot start + epochs + depot return rows per unit
    assert len(rows) == 1 + fleet * (epochs + 2)
    first = rows[1]
    assert first[2] == "0" and float(first[5]) == 0.0 and float(first[6]) == 0.0
    last = rows[fleet * (epochs + 2)]
    assert last[2] == str(epochs + 1)
    assert float(last[6]) > 0.0


def test_smaller_grid_keeps_running():
    # 5x5 cells of 40 m still reach far enough for weak coverage to appear
    tiny = Scenario(
        geometry=GeometryConfig(grid_rows=5, grid_cols=5, cell_side_m=40.0),
        solver=SolverOptions(fleet_size=2),
    )
    result = run_trial(tiny, 3.6, 1, "robotic", 3)
    assert result.metrics.mean_gain >= 1.0


def test_infeasible_fleet_size_has_trial_context():
    # a compact grid has no weak cells at all, so any fleet is too large
    compact = Scenario(
        geometry=GeometryConfig(grid_rows=3, grid_cols=3),
        solver=SolverOptions(fleet_size=1),
    )
    with pytest.raises(TrialError, match="weak cells"):
        run_trial(compact, 2.8, 0, "robotic", 3)


@pytest.mark.parametrize("mode", TERRESTRIAL_MODES)
def test_trials_never_build_the_dense_gain_view(monkeypatch, tmp_path, mode):
    def refuse(tensor):
        raise AssertionError("the dense gain view was built")

    monkeypatch.setattr(GainTensor, "gains", property(refuse))
    scenario = dataclasses.replace(
        SMALL, solver=dataclasses.replace(SMALL.solver, terrestrial_mode=mode)
    )
    layout = scenario.layout()
    for strategy in KNOWN_STRATEGIES:
        result = run_trial(scenario, 2.8, 1, strategy, 77)
        assert len(harness.placement_rows(1, result, layout)) == (
            scenario.traffic.epochs * scenario.solver.fleet_size
        )
    config = ExperimentConfig(
        scenario=scenario, sigma_list=(2.8,), trials=1, output_dir=tmp_path
    )
    run_experiment(config)


def test_a_failed_csv_write_leaves_no_file(tmp_path):
    def rows():
        yield ["robotic", 1]
        raise OSError("disk full")

    path = tmp_path / "trials.csv"
    with pytest.raises(OSError, match="disk full"):
        harness._write_rows(path, ["strategy", "trial"], rows())
    assert list(tmp_path.iterdir()) == []
    # A complete earlier file is kept whole.
    harness._write_rows(path, ["strategy", "trial"], [["robotic", 1]])
    with pytest.raises(OSError, match="disk full"):
        harness._write_rows(path, ["strategy", "trial"], rows())
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "strategy,trial\nrobotic,1\n"
