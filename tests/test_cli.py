import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from irsfleet import default_scenario, run_trial
from irsfleet import cli, harness, matching, planner
from irsfleet.cli import build_parser, main
from irsfleet.harness import ExperimentConfig
from irsfleet.planner import GainTensor, InfeasiblePlacementError
from irsfleet.scenario import write_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


def test_plan_subcommand(tmp_path, capsys):
    out = tmp_path / "plan"
    code = main(
        [
            "plan",
            "--seed", "7",
            "--sigma", "2.8",
            "--strategy", "robotic",
            "--out", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "mean_gain=" in printed
    with (out / "placement.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
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
    assert len(rows) == 1 + 12 * 10  # epochs x fleet size
    with (out / "trajectory.csv").open() as fh:
        trows = list(csv.reader(fh))
    assert trows[0] == [
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
    # the traffic the trial was scored on, not a re-derived field
    result = run_trial(default_scenario(), 2.8, 0, "robotic", 7)
    harness._write_rows(
        tmp_path / "expected_traffic.csv", [harness.traffic_table(result.traffic)]
    )
    expected = (tmp_path / "expected_traffic.csv").read_bytes()
    assert expected.startswith(b"epoch,grid_index,demand_mbps_km2\r\n")
    assert (out / "traffic.csv").read_bytes() == expected
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["generator"] == "philox"
    assert meta["master_seed"] == 7


def test_a_failed_traffic_write_leaves_no_traffic_file(tmp_path, capsys, monkeypatch):
    traffic_table = harness.traffic_table

    def failing_table(field):
        table = traffic_table(field)
        demand = table["demand_mbps_km2"]

        def failing_demand():
            yield from demand[:2]
            raise ValueError("could not convert the third demand")

        table["demand_mbps_km2"] = failing_demand()
        return table

    monkeypatch.setattr(harness, "traffic_table", failing_table)
    out = tmp_path / "plan"
    assert main(["plan", "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "could not convert the third demand"
    assert not (out / "traffic.csv").exists()
    assert not (out / ".traffic.csv.partial").exists()


def test_every_csv_goes_through_the_one_writer(tmp_path, monkeypatch):
    # `harness._write_rows` is the one CSV writer, and the span the
    # benchmark times as `harness.write_csv`.
    written = []
    write_rows = harness._write_rows

    def recorded(path, *args):
        written.append(Path(path))
        write_rows(path, *args)

    monkeypatch.setattr(harness, "_write_rows", recorded)
    plan, sweep = tmp_path / "plan", tmp_path / "sweep"
    assert main(["plan", "--strategy", "robotic", "--out", str(plan)]) == 0
    assert main(["sweep", "--trials", "1", "--out", str(sweep)]) == 0
    files = sorted([*plan.glob("*.csv"), *sweep.glob("*.csv")])
    assert len(files) == 3 + 5  # plan: placement, trajectory, traffic
    assert sorted(written) == files


def test_plan_fixed_strategy_has_no_trajectory(tmp_path):
    out = tmp_path / "plan"
    assert main(["plan", "--strategy", "random", "--out", str(out)]) == 0
    assert not (out / "trajectory.csv").exists()


def test_sweep_subcommand(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--seed", "3",
            "--trials", "2",
            "--sigma", "2.8",
            "--strategy", "robotic", "random",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "robotic" in capsys.readouterr().out
    assert (out / "trials.csv").exists()
    assert (out / "summary.csv").exists()


def test_sweep_with_config_file(tmp_path):
    config = tmp_path / "scenario.ini"
    config.write_text("[solver]\nfleet_size = 3\n")
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--config", str(config), "--trials", "1",
            "--sigma", "1.8", "--strategy", "terrestrial", "--out", str(out),
        ]
    )
    assert code == 0
    with (out / "trials.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2


def test_energy_subcommand(capsys):
    assert main(["energy"]) == 0
    out = capsys.readouterr().out
    assert "flight_range_m = 12946.4" in out
    assert "n_r = 44" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--distance", "nan"], "distance must be finite and nonnegative"),
        (["--distance", "-5"], "distance must be finite and nonnegative"),
        (["--distance", "inf"], "distance must be finite and nonnegative"),
        (["--min-distance", "nan"], "minimum clearance must be finite and positive"),
        (["--min-distance", "inf"], "minimum clearance must be finite and positive"),
        (["--min-distance", "0"], "minimum clearance must be finite and positive"),
    ],
    ids=["distance-nan", "distance-negative", "distance-inf",
         "clearance-nan", "clearance-inf", "clearance-zero"],
)
def test_energy_refuses_bad_input_before_printing(capsys, argv, message):
    assert main(["energy"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1]) == {"error": message}


def test_energy_refuses_a_bad_geometry_file(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[geometry]\ncell_side_m = nan\n")
    assert main(["energy", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": "cell side must be finite and positive"}
    ]


def test_energy_reports_an_infeasible_clearance(capsys):
    assert main(["energy", "--min-distance", "0.01", "--distance", "0"]) == 0
    out = capsys.readouterr().out
    assert "e_fly_j = 0.0" in out
    assert out.splitlines()[-1].startswith("sizing rule @ clearance 0.01 m: infeasible")


def test_validate_subcommand_fast(capsys):
    assert main(["validate", "--draws", "20000"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_validate_report_is_deterministic(capsys):
    # The benchmark's digest gate needs every run to print the same bytes.
    assert main(["validate", "--draws", "20000"]) == 0
    first = capsys.readouterr().out
    assert main(["validate", "--draws", "20000"]) == 0
    assert capsys.readouterr().out == first


def test_validate_reports_a_failed_check(capsys, monkeypatch):
    # The benchmark's validate gate counts the lines that start "FAIL ".
    monkeypatch.setattr(cli, "flight_range", lambda params: 0.0)
    assert main(["validate", "--draws", "20000"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL flight-range-window: 0.0 m"
    ]
    assert lines[-1] == "1 check(s) failed: flight-range-window"


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_validate_rejects_nonpositive_draws(capsys, draws):
    with pytest.raises(SystemExit) as exit_info:
        main(["validate", "--draws", draws])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--draws: must be at least 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("section, key", [("traffic", "sigma_log"), ("radio", "eta1")])
@pytest.mark.parametrize("command", ["plan", "sweep"])
def test_a_dropped_scenario_key_fails_before_output(
    tmp_path, capsys, command, section, key
):
    # A run's sigma is its own, and no run evaluates a LoS direct link, so
    # neither key is part of the scenario any more.
    config = tmp_path / "old.ini"
    config.write_text(f"[{section}]\n{key} = 2.5\n")
    out = tmp_path / command
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": f"unknown key '{key}' in section [{section}]"}
    assert not out.exists()


def test_run_defaults_are_experiment_config_defaults():
    parser = build_parser()
    sweep = parser.parse_args(["sweep", "--out", "x"])
    defaults = ExperimentConfig(default_scenario())
    assert (sweep.seed, sweep.trials) == (defaults.master_seed, defaults.trials)
    assert tuple(sweep.sigma) == defaults.sigma_list
    assert tuple(sweep.strategy) == defaults.strategies
    assert parser.parse_args(["plan", "--out", "x"]).sigma == 2.8


def test_error_is_machine_readable(tmp_path, capsys):
    config = tmp_path / "broken.ini"
    config.write_text("[radio]\nn_elements = 7\n")
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err.splitlines()[-1])
    assert "error" in payload


@pytest.mark.parametrize(
    "repeat",
    [["--sigma", "2.8", "2.8"], ["--strategy", "random", "random"]],
    ids=["sigma", "strategy"],
)
def test_sweep_rejects_repeated_values(tmp_path, capsys, repeat):
    out = tmp_path / "sweep"
    assert main(["sweep", "--trials", "1", "--out", str(out)] + repeat) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "repeat" in payload["error"]
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-1", "1e160"])
def test_sweep_rejects_bad_sigma_before_output(tmp_path, capsys, sigma):
    out = tmp_path / "sweep"
    assert main(["sweep", "--trials", "2", "--sigma", sigma, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "sigma must be finite and positive" in payload["error"]
    assert not out.exists()


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_plan_rejects_bad_seed_before_output(tmp_path, capsys, seed):
    out = tmp_path / "plan"
    assert main(["plan", "--seed", seed, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "master_seed must be a 64-bit unsigned integer"
    assert not out.exists()


def test_plan_rejects_negative_trial_before_output(tmp_path, capsys):
    out = tmp_path / "plan"
    with pytest.raises(SystemExit) as exit_info:
        main(["plan", "--trial", "-1", "--out", str(out)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--trial: must be at least 0, got -1" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "geometry, message",
    [
        ("h3_m = inf", "height differences must be finite and positive"),
        ("h1_m = nan", "height differences must be finite and positive"),
        ("cell_side_m = -1", "cell side must be finite and positive"),
        ("cell_side_m = nan", "cell side must be finite and positive"),
    ],
    ids=["h3-inf", "h1-nan", "side-negative", "side-nan"],
)
@pytest.mark.parametrize("command", ["plan", "sweep"])
def test_bad_geometry_fails_before_output(tmp_path, capsys, command, geometry, message):
    config = tmp_path / "bad.ini"
    config.write_text(f"[geometry]\n{geometry}\n")
    out = tmp_path / command
    args = [command, "--config", str(config), "--out", str(out)]
    if command == "sweep":
        args += ["--trials", "1"]
    assert main(args) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == message
    assert not out.exists()


def test_infeasible_plan_creates_no_output(tmp_path, capsys):
    # No cell is weak at this threshold, so the 10 units have nowhere to go.
    config = tmp_path / "quiet.ini"
    config.write_text("[radio]\nsnr_threshold_db = -50\n")
    out = tmp_path / "plan"
    assert main(["plan", "--config", str(config), "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "cannot place 10 units on 0 weak cells x 100 sites" in payload["error"]
    assert not out.exists()


def test_a_sweep_fails_at_its_first_failing_unit(tmp_path, capsys, monkeypatch):
    # One block of three units: unit 0's placement fails (two weak cells
    # for a fleet of ten), unit 1's draw fails. A unit-by-unit run stops at
    # unit 0, so the error names unit 0 and its first strategy.
    built = harness.build_gain_tensor
    realize = harness.realize_channel
    draws = []

    def trimmed(*args, **kwargs):
        tensor = built(*args, **kwargs)
        if len(draws) > 1:
            return tensor
        return GainTensor(
            budget=tensor.budget,
            weak_grids=tensor.weak_grids[:2],
            demand=tensor.demand[:, :2],
            thresholds=tensor.thresholds,
        )

    def refuse_second(*args, **kwargs):
        draws.append(None)
        if len(draws) == 2:
            raise RuntimeError("refused")
        return realize(*args, **kwargs)

    monkeypatch.setattr(harness, "build_gain_tensor", trimmed)
    monkeypatch.setattr(harness, "realize_channel", refuse_second)
    assert harness._TrialEngine(default_scenario()).block_units >= 3
    out = tmp_path / "out"
    argv = ["sweep", "--seed", "5", "--trials", "3", "--sigma", "2.8",
            "--strategy", "random", "robotic", "--out", str(out)]
    assert main(argv) == 2
    assert len(draws) == 3  # the block drew every unit before solving unit 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": "strategy=random sigma=2.8 trial=0: cannot place 10 units "
                  "on 2 weak cells x 100 sites"}
    ]
    assert [p.name for p in out.iterdir()] == ["run_metadata.json"]


def test_a_sweep_names_the_first_failing_trial_not_the_first_to_fail(
    tmp_path, capsys, monkeypatch
):
    # One block of two units. Unit 0's robotic trial fails last, when its
    # routes are scored after the routing rounds; both of unit 1's
    # placements fail first (two weak cells for a fleet of ten). The error
    # names unit 0's robotic trial, the first failure in (unit, strategy)
    # order; one raised in the order trials fail would name unit 1.
    built = harness.build_gain_tensor
    check_fit = planner._check_fit
    tensors, failures = [], []

    def trimmed(*args, **kwargs):
        tensors.append(built(*args, **kwargs))
        tensor = tensors[-1]
        if len(tensors) != 2:
            return tensor
        return GainTensor(
            budget=tensor.budget,
            weak_grids=tensor.weak_grids[:2],
            demand=tensor.demand[:, :2],
            thresholds=tensor.thresholds,
        )

    def logged_fit(tensor, m):
        try:
            check_fit(tensor, m)
        except InfeasiblePlacementError:
            failures.append("unit 1 placement")
            raise

    def refuse(*args, **kwargs):
        failures.append("unit 0 trajectory")
        raise RuntimeError("refused")

    monkeypatch.setattr(harness, "build_gain_tensor", trimmed)
    monkeypatch.setattr(planner, "_check_fit", logged_fit)
    monkeypatch.setattr(harness, "evaluate_trajectory", refuse)
    out = tmp_path / "out"
    argv = ["sweep", "--seed", "5", "--trials", "2", "--sigma", "2.8",
            "--strategy", "robotic", "terrestrial", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": "strategy=robotic sigma=2.8 trial=0: refused"}
    ]
    assert len(tensors) == 2
    assert failures == ["unit 1 placement"] * 2 + ["unit 0 trajectory"]
    assert [p.name for p in out.iterdir()] == ["run_metadata.json"]


@pytest.mark.parametrize("strategy", ["robotic", "terrestrial", "random"])
@pytest.mark.parametrize("command", ["plan", "sweep"])
def test_underflowing_powers_fail_every_strategy_alike(
    tmp_path, capsys, recwarn, command, strategy
):
    # Finite but so low that every linear power underflows to 0: each gain
    # would be 0/0, and a NaN score must not reach any output.
    config = tmp_path / "faint.ini"
    config.write_text("[radio]\ntx_power_dbm = -10000\n")
    out = tmp_path / command
    args = [command, "--config", str(config), "--strategy", strategy]
    if command == "sweep":
        args += ["--trials", "1"]
    assert main(args + ["--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"].startswith(f"strategy={strategy} sigma=")
    assert payload["error"].endswith(": gains must be finite and at least 1")
    if command == "plan":
        assert not out.exists()
    else:
        assert not (out / "trials.csv").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("key", ["k_c_db"])
@pytest.mark.parametrize("command", ["plan", "sweep"])
def test_overflowing_k_factor_fails_before_output(tmp_path, capsys, command, key):
    config = tmp_path / "bad.ini"
    config.write_text(f"[radio]\n{key} = 1e308\n")
    out = tmp_path / command
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == f"{key} is too large: its linear value overflows"
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; importing the CLI must not pull it in.
    code = (
        "import irsfleet.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_stack_budget_changes_no_output_byte(tmp_path, monkeypatch):
    # A 1-cell budget solves every problem alone, in blocks of one unit; a
    # 2**40-cell one puts each sweep in one block and each round, across
    # column counts, in one stack.
    base = default_scenario()
    clairvoyant = tmp_path / "clairvoyant.ini"
    write_scenario(
        dataclasses.replace(
            base, solver=dataclasses.replace(base.solver, terrestrial_mode="clairvoyant")
        ),
        clairvoyant,
    )
    runs = {
        "epoch1": ["sweep", "--seed", "20260810", "--trials", "3"],
        "clairvoyant": ["sweep", "--seed", "11", "--trials", "2",
                        "--config", str(clairvoyant)],
        "plan": ["plan", "--seed", "7"],
    }
    for budget in (None, 1, 2**40):
        if budget is not None:
            monkeypatch.setattr(matching, "STACK_CELLS", budget)
        for name, argv in runs.items():
            assert main(argv + ["--out", str(tmp_path / f"{name}-{budget}")]) == 0
    for name in runs:
        default = tmp_path / f"{name}-None"
        files = sorted(p.name for p in default.iterdir())
        assert "trials.csv" in files or "trajectory.csv" in files
        for budget in (1, 2**40):
            out = tmp_path / f"{name}-{budget}"
            assert sorted(p.name for p in out.iterdir()) == files
            for file in files:
                assert (out / file).read_bytes() == (default / file).read_bytes()
