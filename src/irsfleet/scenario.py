"""Scenario files: flat key = value sections holding every model parameter.

Every default is embedded and overridable; unknown sections or keys are
errors so typos cannot silently fall back to defaults.
"""

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .channel import RadioParams
from .energy import PlatformParams
from .geometry import ScenarioLayout, build_layout
from .planner import TERRESTRIAL_MODES
from .traffic import TrafficModel

__all__ = [
    "ScenarioError",
    "GeometryConfig",
    "SolverOptions",
    "Scenario",
    "default_scenario",
    "load_scenario",
    "scenario_as_dict",
    "write_scenario",
]


class ScenarioError(ValueError):
    """Malformed scenario file or inconsistent parameter values."""


@dataclass(frozen=True)
class GeometryConfig:
    grid_rows: int = 9
    grid_cols: int = 9
    cell_side_m: float = 20.0
    h1_m: float = 8.5
    h2_m: float = 2.0
    h3_m: float = 10.5


@dataclass(frozen=True)
class SolverOptions:
    fleet_size: int = 10
    terrestrial_mode: str = "epoch1"       # one of TERRESTRIAL_MODES

    def __post_init__(self) -> None:
        if self.fleet_size < 0:
            raise ScenarioError("fleet_size must be nonnegative")
        if self.terrestrial_mode not in TERRESTRIAL_MODES:
            raise ScenarioError(
                f"terrestrial_mode must be {' or '.join(TERRESTRIAL_MODES)}"
            )


@dataclass(frozen=True)
class Scenario:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    radio: RadioParams = field(default_factory=RadioParams)
    platform: PlatformParams = field(default_factory=PlatformParams)
    traffic: TrafficModel = field(default_factory=TrafficModel)
    solver: SolverOptions = field(default_factory=SolverOptions)

    def layout(self) -> ScenarioLayout:
        g = self.geometry
        return build_layout(
            g.grid_rows, g.grid_cols, g.cell_side_m, (g.h1_m, g.h2_m, g.h3_m)
        )


def default_scenario() -> Scenario:
    return Scenario()


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = raw.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"empty item in {raw!r}")
    return tuple(float(part) for part in parts)


def _parse_choice(options: tuple[str, ...]):
    def parse(raw: str) -> str:
        value = raw.strip()
        if value not in options:
            raise ValueError(f"must be one of {options}, got {raw!r}")
        return value

    return parse


# section -> key -> (converter, target dataclass field)
_SCHEMA: dict[str, dict[str, tuple]] = {
    "geometry": {
        "grid_rows": (int, "grid_rows"),
        "grid_cols": (int, "grid_cols"),
        "cell_side_m": (float, "cell_side_m"),
        "h1_m": (float, "h1_m"),
        "h2_m": (float, "h2_m"),
        "h3_m": (float, "h3_m"),
    },
    "radio": {
        "carrier_freq_hz": (float, "carrier_freq_hz"),
        "tx_power_dbm": (float, "tx_power_dbm"),
        "noise_power_dbm": (float, "noise_power_dbm"),
        "a_d_db": (float, "a_d_db"),
        "a_t_db": (float, "a_t_db"),
        "a_r_db": (float, "a_r_db"),
        "eta1": (float, "eta1"),
        "eta2": (float, "eta2"),
        "eta3": (float, "eta3"),
        "k_d_db": (float, "k_d_db"),
        "k_c_db": (float, "k_c_db"),
        "snr_threshold_db": (float, "snr_threshold_db"),
        "n_elements": (int, "n_elements"),
    },
    "platform": {
        "p_fly_w": (float, "p_fly_w"),
        "v_fly_mps": (float, "v_fly_mps"),
        "p_grasp_w": (float, "p_grasp_w"),
        "p_irs_w": (float, "p_irs_w"),
        "battery_j": (float, "battery_j"),
        "service_hours": (float, "service_hours"),
    },
    "traffic": {
        "base_mean_mbps_km2": (float, "base_mean"),
        "sigma_log": (float, "sigma_log"),
        "epochs": (int, "epochs"),
        "epoch_profile": (_parse_float_list, "epoch_profile"),
        "threshold_fraction": (float, "threshold_fraction"),
    },
    "solver": {
        "fleet_size": (int, "fleet_size"),
        "terrestrial_mode": (_parse_choice(TERRESTRIAL_MODES), "terrestrial_mode"),
    },
}


def load_scenario(path) -> Scenario:
    """Read a scenario file, applying defaults for anything unspecified."""
    path = Path(path)
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ScenarioError(f"malformed scenario file {path}: {err}") from err
    if not read:
        raise ScenarioError(f"cannot read scenario file: {path}")

    kwargs: dict[str, dict] = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ScenarioError(f"unknown scenario section [{section}]")
        schema = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in schema:
                raise ScenarioError(f"unknown key '{key}' in section [{section}]")
            converter, target = schema[key]
            try:
                value = converter(raw)
            except ValueError as err:
                raise ScenarioError(
                    f"bad value for [{section}] {key}: {err}"
                ) from err
            kwargs[section][target] = value

    try:
        return Scenario(
            geometry=GeometryConfig(**kwargs["geometry"]),
            radio=RadioParams(**kwargs["radio"]),
            platform=PlatformParams(**kwargs["platform"]),
            traffic=TrafficModel(**kwargs["traffic"]),
            solver=SolverOptions(**kwargs["solver"]),
        )
    except ValueError as err:
        raise ScenarioError(str(err)) from err


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(float(x)) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def scenario_as_dict(scenario: Scenario) -> dict[str, dict]:
    """Every parameter by file section and key, defaults included."""
    return {
        section: {
            key: getattr(getattr(scenario, section), target)
            for key, (_, target) in schema.items()
        }
        for section, schema in _SCHEMA.items()
    }


def write_scenario(scenario: Scenario, path) -> None:
    """Serialize a scenario with every parameter explicit, defaults included."""
    lines = []
    for section, values in scenario_as_dict(scenario).items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    Path(path).write_text("\n".join(lines))
