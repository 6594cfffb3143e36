"""Scenario files: flat key = value sections holding every model parameter.

The parameter dataclasses are the file schema. Each section is a field of
`Scenario` and each key a field of that section's dataclass, in field
order; a value is parsed by its field's annotated type. Every default is
embedded and overridable; unknown sections or keys are errors so typos
cannot silently fall back to defaults.
"""

import configparser
import operator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .channel import RadioParams
from .energy import PlatformParams
from .geometry import GeometryConfig, ScenarioLayout, build_layout
from .planner import check_terrestrial_mode
from .traffic import TrafficModel

__all__ = [
    "ScenarioError",
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
class SolverOptions:
    fleet_size: int = 10
    terrestrial_mode: str = "epoch1"       # one of TERRESTRIAL_MODES

    def __post_init__(self) -> None:
        object.__setattr__(self, "fleet_size", operator.index(self.fleet_size))
        if self.fleet_size < 0:
            raise ValueError("fleet_size must be nonnegative")
        check_terrestrial_mode(self.terrestrial_mode)


@dataclass(frozen=True)
class Scenario:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    radio: RadioParams = field(default_factory=RadioParams)
    platform: PlatformParams = field(default_factory=PlatformParams)
    traffic: TrafficModel = field(default_factory=TrafficModel)
    solver: SolverOptions = field(default_factory=SolverOptions)

    def layout(self) -> ScenarioLayout:
        return build_layout(self.geometry)


def default_scenario() -> Scenario:
    return Scenario()


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = raw.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"empty item in {raw!r}")
    return tuple(float(part) for part in parts)


# Field annotation -> parser of the raw file value.
_PARSERS = {
    int: int,
    float: float,
    str: str,
    tuple[float, ...] | None: _parse_float_list,
}

# section -> (its dataclass, key -> parser), read off the dataclasses once.
_SECTIONS: dict[str, tuple[type, dict]] = {
    section.name: (
        section.type,
        {f.name: _PARSERS[f.type] for f in fields(section.type)},
    )
    for section in fields(Scenario)
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

    kwargs: dict[str, dict] = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(f"unknown scenario section [{section}]")
        parsers = _SECTIONS[section][1]
        for key, raw in parser.items(section):
            if key not in parsers:
                raise ScenarioError(f"unknown key '{key}' in section [{section}]")
            try:
                kwargs[section][key] = parsers[key](raw)
            except ValueError as err:
                raise ScenarioError(
                    f"bad value for [{section}] {key}: {err}"
                ) from err

    try:
        return Scenario(
            **{
                section: cls(**kwargs[section])
                for section, (cls, _) in _SECTIONS.items()
            }
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
    return asdict(scenario)


def write_scenario(scenario: Scenario, path) -> None:
    """Serialize a scenario with every parameter explicit, defaults included."""
    lines = []
    for section, values in scenario_as_dict(scenario).items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    Path(path).write_text("\n".join(lines))
