import csv
import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsfleet import (
    ExperimentConfig,
    Scenario,
    TrialError,
    run_experiment,
    run_trial,
)
from irsfleet import harness, matching
from irsfleet.harness import (
    KNOWN_STRATEGIES,
    SUMMARY_HEADER,
    TRIALS_HEADER,
    summarize,
    trial_rng,
)
from irsfleet.energy import PlatformParams
from irsfleet.planner import TERRESTRIAL_MODES, GainTensor, evaluate_plan
from irsfleet.scenario import GeometryConfig, SolverOptions
from irsfleet.traffic import TrafficModel

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

    # A block of one unit scores the strategies in the order asked, each
    # exactly as its lone trial, on one shared tensor.
    order = ("random", "robotic", "terrestrial")
    (unit,) = harness._TrialEngine(SMALL).run_block([(2.8, 3)], 77, order)
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
        engine.run_block([(2.8, 4)], 77, ("robotic", "random", "terrestrial"))
    monkeypatch.setattr(harness, "realize_channel", refuse)
    with pytest.raises(TrialError, match=r"^strategy=terrestrial sigma=1.8 trial=2: "):
        engine.run_block([(1.8, 2)], 77, ("terrestrial", "robotic"))


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


UNITS = [(sigma, trial) for sigma in (1.8, 2.8) for trial in range(3)]


@pytest.fixture(scope="module")
def in_order_sweep():
    """Every unit's results as a sweep runs them: one block, in order."""
    engine = harness._TrialEngine(SMALL)
    assert engine.block_units >= len(UNITS)
    return dict(zip(UNITS, engine.run_block(UNITS, 29, KNOWN_STRATEGIES)))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_shuffled_unit_blocks_reproduce_the_sweep(in_order_sweep, data):
    order = data.draw(st.permutations(UNITS))
    cuts = data.draw(st.lists(st.booleans(), min_size=len(UNITS) - 1,
                              max_size=len(UNITS) - 1))
    ends = [k for k, cut in enumerate(cuts, 1) if cut] + [len(UNITS)]
    engine = harness._TrialEngine(SMALL)
    for start, end in zip([0] + ends, ends):
        block = order[start:end]
        for unit, results in zip(block, engine.run_block(block, 29, KNOWN_STRATEGIES)):
            for got, want in zip(results, in_order_sweep[unit], strict=True):
                assert got.metrics == want.metrics
                assert np.array_equal(got.plan.cells, want.plan.cells)
                assert np.array_equal(got.plan.sites, want.plan.sites)
                if want.trajectory is None:
                    assert got.trajectory is None
                    continue
                for name in ("routes", "leg_m", "cumulative_m"):
                    assert np.array_equal(
                        getattr(got.trajectory, name), getattr(want.trajectory, name)
                    )


def test_sweep_builds_each_realization_once(monkeypatch):
    calls = {"link_budget": 0, "realize_channel": 0, "build_gain_tensor": 0}
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
    # The link budget once per sweep, each unit's draw and tensor once.
    assert calls == {"link_budget": 1, "realize_channel": 6, "build_gain_tensor": 6}


def test_a_sweep_holds_only_its_current_blocks_gain_tensors(monkeypatch, tmp_path):
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
    layout = SMALL.layout()
    # Blocks of two units, one per cell budget of a unit's placement cost,
    # then blocks of one unit, as with any budget below that.
    for budget, expect in ((2 * layout.n_grids * layout.n_sites, [0, 1, 0, 1]),
                           (1, [0, 0, 0, 0])):
        monkeypatch.setattr(matching, "STACK_CELLS", budget)
        alive_at_build.clear()
        run_experiment(config)
        assert alive_at_build == expect


def test_placement_requests_name_the_engines_one_cost_matrix(monkeypatch):
    # Every robotic epoch and epoch-1 terrestrial placement of a block
    # indexes the engine's one cost matrix, so no unit copies its rows.
    engine = harness._TrialEngine(SMALL)
    assert SMALL.solver.terrestrial_mode == "epoch1"
    rounds = []
    solve = matching.solve

    def logged(requests):
        rounds.append(requests)
        return solve(requests)

    monkeypatch.setattr(matching, "solve", logged)
    units = [(1.8, 0), (2.8, 1), (3.6, 2)]
    engine.run_block(units, 5, KNOWN_STRATEGIES)
    placement, *routing = rounds
    assert len(placement) == len(units) * (SMALL.traffic.epochs + 1)
    cost = engine.budget.cost_if_blocked
    assert all(matrix is cost for matrix, _, _ in placement)
    assert all(matrix is not cost for round_ in routing for matrix, _, _ in round_)


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


def _reference_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _reference_trajectory_rows(trial_index, trajectory, layout) -> list[list]:
    """The per-cell loop `harness.trajectory_rows` replaced, which rebuilt
    the visited points from the routes."""
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
        [_reference_fmt(ledger.feasible) for ledger in trajectory.ledgers],
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


def _reference_placement_rows(trial_index, result, layout) -> list[list]:
    """The per-pair loop `harness.placement_rows` replaced, with one scalar
    gain lookup per pair."""
    tensor, plan = result.tensor, result.plan
    grids = tensor.weak_grids.tolist()
    rows = []
    for t, (cells, sites) in enumerate(zip(plan.cells.tolist(), plan.sites.tolist())):
        for q, site in zip(cells, sites):
            r, c = divmod(int(grids[q]), layout.grid_cols)
            point = layout.candidate_sites[site]
            rows.append(
                [
                    result.metrics.strategy,
                    trial_index,
                    t + 1,
                    r,
                    c,
                    _reference_fmt(float(point[0])),
                    _reference_fmt(float(point[1])),
                    _reference_fmt(float(tensor.gain_at(t, q, site))),
                    _reference_fmt(float(tensor.demand[t, q])),
                ]
            )
    return rows


ROW_SCENARIOS = {
    "default": Scenario(),
    "every-unit-infeasible": Scenario(platform=PlatformParams(battery_j=471380.0)),
    "fleet-0": Scenario(solver=SolverOptions(fleet_size=0)),
    "fleet-1": Scenario(solver=SolverOptions(fleet_size=1)),
    "one-epoch": Scenario(traffic=TrafficModel(epochs=1)),
    "17x17-fleet-4": Scenario(
        geometry=GeometryConfig(grid_rows=17, grid_cols=17),
        solver=SolverOptions(fleet_size=4),
    ),
}


def _cells_as_csv_sees_them(rows) -> list[list[str]]:
    # Exact types: a bool or a NumPy scalar would be written otherwise.
    for row in rows:
        assert all(type(cell) in (str, int, float) for cell in row), row
    return [[str(cell) for cell in row] for row in rows]


@pytest.mark.parametrize("strategy", KNOWN_STRATEGIES)
@pytest.mark.parametrize("name", sorted(ROW_SCENARIOS))
def test_row_builders_match_the_reference_loops(name, strategy):
    scenario = ROW_SCENARIOS[name]
    layout = scenario.layout()
    result = run_trial(scenario, 2.8, 3, strategy, 7)
    assert _cells_as_csv_sees_them(
        harness.placement_rows(3, result, layout)
    ) == _cells_as_csv_sees_them(_reference_placement_rows(3, result, layout))
    trajectory = result.trajectory
    assert (trajectory is None) == (strategy != "robotic")
    if trajectory is None:
        return
    if name == "every-unit-infeasible":
        assert not any(ledger.feasible for ledger in trajectory.ledgers)
    assert _cells_as_csv_sees_them(
        harness.trajectory_rows(3, trajectory)
    ) == _cells_as_csv_sees_them(_reference_trajectory_rows(3, trajectory, layout))


@pytest.mark.parametrize("name", sorted(ROW_SCENARIOS))
def test_trajectory_energy_column_follows_the_energy_law(name):
    # The column scales distance by the ledger's ratio rather than applying
    # the law (which would round some rows differently); both stay within a
    # few ulps of the law and of the ledger.
    scenario = ROW_SCENARIOS[name]
    platform = scenario.platform
    for trial in range(3):
        trajectory = run_trial(scenario, 2.8, trial, "robotic", 7).trajectory
        rows = harness.trajectory_rows(trial, trajectory)
        cumulative = np.array([row[6] for row in rows])
        energy = np.array([row[7] for row in rows])
        law = platform.p_fly_w * cumulative / platform.v_fly_mps
        np.testing.assert_array_max_ulp(energy, law, maxulp=4)
        arrival = scenario.traffic.epochs + 1
        last = np.array([row[7] for row in rows if row[2] == arrival])
        ledger = np.array([ledger.e_fly_j for ledger in trajectory.ledgers])
        np.testing.assert_array_max_ulp(last, ledger, maxulp=4)


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
