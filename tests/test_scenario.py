import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from irsfleet import Scenario, ScenarioError, default_scenario, load_scenario
from irsfleet.cli import main
from irsfleet.scenario import write_scenario


def test_default_values_match_the_tables():
    s = default_scenario()
    assert (s.geometry.grid_rows, s.geometry.grid_cols) == (9, 9)
    assert s.geometry.cell_side_m == 20.0
    assert (s.geometry.h1_m, s.geometry.h2_m, s.geometry.h3_m) == (8.5, 2.0, 10.5)
    assert s.radio.carrier_freq_hz == 28e9
    assert s.radio.a_d_db == -61.38
    assert s.radio.a_t_db == s.radio.a_r_db == -56.38
    assert (s.radio.eta2, s.radio.eta3) == (3.17, 2.4)
    assert s.radio.k_c_db == 10.0
    assert (s.radio.tx_power_dbm, s.radio.noise_power_dbm) == (37.0, -95.0)
    assert s.radio.snr_threshold_db == 10.0
    assert s.radio.n_elements == 2304
    assert s.platform.p_fly_w == 253.6
    assert s.platform.v_fly_mps == 10.0
    assert s.platform.p_grasp_w == 10.0
    assert s.platform.p_irs_w == 0.9
    assert s.platform.battery_j == 799_200.0
    assert s.platform.service_hours == 12.0
    assert s.traffic.base_mean_mbps_km2 == 702.0
    assert s.traffic.epochs == 12
    assert s.traffic.threshold_fraction == 0.01
    assert s.solver.fleet_size == 10


# A value the dataclass accepts, other than the default, for every key.
# Floats are non-integral so an int parser would refuse them.
NON_DEFAULT = {
    "geometry": {
        "grid_rows": 7,
        "grid_cols": 11,
        "cell_side_m": 22.5,
        "h1_m": 9.5,
        "h2_m": 2.5,
        "h3_m": 11.5,
    },
    "radio": {
        "carrier_freq_hz": 3.5e9,
        "tx_power_dbm": 40.5,
        "noise_power_dbm": -90.5,
        "a_d_db": -60.5,
        "a_t_db": -55.5,
        "a_r_db": -57.5,
        "eta2": 3.3,
        "eta3": 2.5,
        "k_c_db": 12.5,
        "snr_threshold_db": 8.5,
        "n_elements": 1024,
    },
    "platform": {
        "p_fly_w": 300.5,
        "v_fly_mps": 12.5,
        "p_grasp_w": 11.5,
        "p_irs_w": 1.25,
        "battery_j": 900_000.5,
        "service_hours": 10.5,
    },
    "traffic": {
        "base_mean_mbps_km2": 650.5,
        "epochs": 4,
        "epoch_profile": (0.85, 1.05, 1.25, 1.35),
        "threshold_fraction": 0.02,
    },
    "solver": {"fleet_size": 4, "terrestrial_mode": "clairvoyant"},
}


def test_roundtrip_preserves_everything(tmp_path):
    default = default_scenario()
    original = Scenario(
        **{
            section: type(getattr(default, section))(**values)
            for section, values in NON_DEFAULT.items()
        }
    )
    path = tmp_path / "scenario.ini"
    write_scenario(original, path)
    loaded = load_scenario(path)
    assert loaded == original
    assert sum(len(values) for values in NON_DEFAULT.values()) == 29
    for section, values in NON_DEFAULT.items():
        cls = type(getattr(default, section))
        assert list(values) == [f.name for f in fields(cls)], section
        for key in values:
            value = getattr(getattr(loaded, section), key)
            assert value != getattr(getattr(default, section), key), key
            assert type(value) is type(getattr(getattr(original, section), key)), key


def test_partial_file_fills_defaults(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[solver]\nfleet_size = 3\n\n[traffic]\nepochs = 4\n")
    s = load_scenario(path)
    assert s.solver.fleet_size == 3
    assert s.traffic.epochs == 4
    assert s.radio.n_elements == 2304  # untouched default


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[rocketry]\nthrust = 9000\n")
    with pytest.raises(ScenarioError, match="unknown scenario section"):
        load_scenario(path)


# The typo plus every key that earlier versions accepted and dropped: no
# result read it, or (`sigma_log`) each run's own sigma replaced it.
UNKNOWN_KEYS = [
    ("radio", "chutzpah", "11"),
    ("radio", "nlos_rule", "conventional"),
    ("radio", "cascade_mean_in_denominator", "false"),
    ("radio", "k_d_db", "10.0"),
    ("radio", "eta1", "2.1"),
    ("platform", "mass_irs_kg", "0.1"),
    ("platform", "mass_uav_kg", "4.0"),
    ("platform", "mass_gripper_kg", "0.4"),
    ("traffic", "epoch_sampling", "independent"),
    ("traffic", "sigma_log", "2.8"),
    ("solver", "random_mode", "direct"),
    ("solver", "random_max_iterations", "10000"),
]


@pytest.mark.parametrize(
    "section, key, value", UNKNOWN_KEYS, ids=[key for _, key, _ in UNKNOWN_KEYS]
)
def test_unknown_key_rejected(tmp_path, section, key, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ScenarioError, match=f"unknown key '{key}'"):
        load_scenario(path)


@pytest.mark.parametrize(
    "content",
    [
        b"fleet_size = 3\n",
        b"[solver]\nfleet_size = 3\nfleet_size = 4\n",
        b"[solver]\nfleet_size = 3\n[solver]\nterrestrial_mode = epoch1\n",
        b"[radio]\nn_elements = 2304%\n",
        b"[solver]\nfleet_size = 3  # caf\xe9\n",
    ],
    ids=[
        "no-section-header",
        "duplicate-key",
        "duplicate-section",
        "percent-sign",
        "not-utf8",
    ],
)
def test_malformed_file_raises_scenario_error(tmp_path, content):
    path = tmp_path / "malformed.ini"
    path.write_bytes(content)
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[geometry]\ngrid_rows = nine\n")
    with pytest.raises(ScenarioError, match="bad value"):
        load_scenario(path)


def test_inconsistent_params_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[radio]\nn_elements = 2000\n")
    with pytest.raises(ScenarioError):
        load_scenario(path)


@pytest.mark.parametrize(
    "key, value", [("base_mean_mbps_km2", "nan"), ("base_mean_mbps_km2", "inf")]
)
def test_nonfinite_traffic_values_rejected(tmp_path, key, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[traffic]\n{key} = {value}\n")
    with pytest.raises(ScenarioError, match="must be finite and positive"):
        load_scenario(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("p_fly_w", "nan", "p_fly_w must be finite and positive"),
        ("battery_j", "inf", "battery_j must be finite and positive"),
        ("service_hours", "nan", "service_hours must be finite and nonnegative"),
    ],
)
def test_nonfinite_platform_values_rejected(tmp_path, key, value, message):
    path = tmp_path / "bad.ini"
    path.write_text(f"[platform]\n{key} = {value}\n")
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("carrier_freq_hz", "nan", "carrier_freq_hz must be finite"),
        ("carrier_freq_hz", "0", "carrier frequency must be positive"),
        ("carrier_freq_hz", "-28e9", "carrier frequency must be positive"),
        ("tx_power_dbm", "nan", "tx_power_dbm must be finite"),
        ("eta2", "inf", "eta2 must be finite"),
        ("snr_threshold_db", "-inf", "snr_threshold_db must be finite"),
        ("k_c_db", "1e308", "k_c_db is too large: its linear value overflows"),
        ("k_c_db", "3084", "k_c_db is too large: its linear value overflows"),
    ],
)
def test_bad_radio_values_rejected(tmp_path, key, value, message):
    path = tmp_path / "bad.ini"
    path.write_text(f"[radio]\n{key} = {value}\n")
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("cell_side_m", "nan", "cell side must be finite and positive"),
        ("grid_rows", "0", "grid dimensions must be at least 1x1"),
        ("h2_m", "-1", "height differences must be finite and positive"),
    ],
)
def test_bad_geometry_values_rejected(tmp_path, key, value, message):
    # The file is refused when it loads, with `GeometryConfig`'s message.
    path = tmp_path / "bad.ini"
    path.write_text(f"[geometry]\n{key} = {value}\n")
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


def test_nan_epoch_profile_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[traffic]\nepochs = 3\nepoch_profile = nan, 1.0, 1.2\n")
    with pytest.raises(ScenarioError, match="epoch multipliers must lie in"):
        load_scenario(path)


def test_bad_terrestrial_mode_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[solver]\nterrestrial_mode = oracle\n")
    with pytest.raises(ScenarioError, match="terrestrial_mode must be"):
        load_scenario(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "nope.ini")


def test_epoch_profile_and_flags_roundtrip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[traffic]\n"
        "epochs = 3\n"
        "epoch_profile = 0.9, 1.1, 1.3\n"
    )
    s = load_scenario(path)
    assert s.traffic.epoch_profile == (0.9, 1.1, 1.3)


@pytest.mark.parametrize(
    "profile", ["0.9,, 1.1, 1.3", "0.9, 1.1, 1.3,"], ids=["inner", "trailing"]
)
def test_empty_list_item_rejected(tmp_path, profile):
    path = tmp_path / "bad.ini"
    path.write_text(f"[traffic]\nepochs = 3\nepoch_profile = {profile}\n")
    with pytest.raises(ScenarioError, match=r"\[traffic\] epoch_profile: empty item"):
        load_scenario(path)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("geometry", "grid_rows", 0),
        ("radio", "eta3", 9.0),
        ("platform", "p_fly_w", float("nan")),
        ("traffic", "epochs", 0),
        ("solver", "fleet_size", -1),
        ("solver", "terrestrial_mode", "other"),
    ],
)
def test_a_section_built_directly_raises_value_error(tmp_path, section, key, value):
    # Every section refuses a bad value with a plain ValueError; only
    # `load_scenario` turns it into a ScenarioError, with the same message.
    with pytest.raises(ValueError) as built:
        type(getattr(Scenario(), section))(**{key: value})
    assert type(built.value) is ValueError
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ScenarioError, match=re.escape(str(built.value))):
        load_scenario(path)


@pytest.mark.parametrize(
    "section, key",
    [
        ("geometry", "grid_rows"),
        ("geometry", "grid_cols"),
        ("radio", "n_elements"),
        ("traffic", "epochs"),
        ("solver", "fleet_size"),
    ],
)
def test_integer_keys_are_stored_as_python_ints(section, key):
    # A float would reach the solvers (a fleet of 10.0, or 2.5, fails in
    # the shared solve round, not as its trial's error), and a NumPy
    # integer is not JSON.
    cls = type(getattr(Scenario(), section))
    default = getattr(cls(), key)
    assert type(getattr(cls(**{key: np.int64(default)}), key)) is int
    with pytest.raises(TypeError):
        cls(**{key: float(default)})


def _ini_keys(text: str) -> list[tuple[str, str]]:
    """(section, key) of every key line, commented-out ones included."""
    keys, section = [], None
    for line in text.splitlines():
        header = re.match(r"\[(\w+)\]", line)
        key = re.match(r"(?:# )?(\w+)\s*=", line)
        if header:
            section = header.group(1)
        elif key:
            keys.append((section, key.group(1)))
    return keys


def _readme_scenario_block() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return re.search(
        r"^## Scenario file\n.*?^```ini\n(.*?)^```", readme, re.S | re.M
    ).group(1)


def test_readme_scenario_block_lists_every_key(tmp_path):
    path = tmp_path / "default.ini"
    write_scenario(default_scenario(), path)
    assert _ini_keys(_readme_scenario_block()) == _ini_keys(path.read_text())


def test_readme_scenario_block_loads_as_the_defaults(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(_readme_scenario_block())
    assert load_scenario(path) == default_scenario()


def _outputs(tmp_path, capsys, config_args):
    """stdout and output files (but run metadata) of the robotic and
    terrestrial plans and the energy report."""
    seen = {}
    for strategy in ("robotic", "terrestrial"):
        out = tmp_path / "out" / strategy
        args = ["plan", *config_args, "--strategy", strategy, "--out", str(out)]
        assert main(args) == 0
        # The summary line; the next one names --out.
        seen[strategy] = capsys.readouterr().out.splitlines()[0]
        for path in sorted(out.iterdir()):
            if path.name != "run_metadata.json":
                seen[f"{strategy}/{path.name}"] = path.read_bytes()
        shutil.rmtree(out)
    assert main(["energy", *config_args]) == 0
    seen["energy"] = capsys.readouterr().out
    return seen


def test_every_scenario_key_reaches_a_result(tmp_path, capsys):
    changes = {section: dict(values) for section, values in NON_DEFAULT.items()}
    # Alone, `epochs` takes its default profile; a profile keeps 12 epochs.
    changes["traffic"]["epoch_profile"] = (1.0,) * 12
    # Alone, a stronger link or a lower bar leaves fewer than 10 weak cells.
    changes["radio"].update(tx_power_dbm=35.5, snr_threshold_db=11.5)
    reference = _outputs(tmp_path, capsys, [])
    inert = set()
    for section, values in changes.items():
        for key, value in values.items():
            if isinstance(value, tuple):
                value = ", ".join(str(x) for x in value)
            config = tmp_path / f"{key}.ini"
            config.write_text(f"[{section}]\n{key} = {value}\n")
            if _outputs(tmp_path, capsys, ["--config", str(config)]) == reference:
                inert.add(key)
    assert inert == set()
