"""Per-unit energy accounting and far-field-driven surface sizing.

A unit spends propulsion energy only while relocating; grasping and
reflecting draw power for the whole service window (the brief relocation
gaps are ignored, which upper-bounds both terms).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PlatformParams",
    "EnergyLedger",
    "IrsSizing",
    "SizingError",
    "fly_energy",
    "grasp_energy",
    "reflect_energy",
    "flight_range",
    "mission_ledger",
    "fraunhofer_distance",
    "size_irs",
]


class SizingError(ValueError):
    """No admissible surface dimension exists for the given clearance."""


@dataclass(frozen=True)
class PlatformParams:
    """Physical constants of one aerial unit.

    Propulsion power is a constant; the default `p_fly_w` models a 4.5 kg
    unit (0.1 kg surface, 4.0 kg UAV, 0.4 kg gripper).
    """

    p_fly_w: float = 253.6
    v_fly_mps: float = 10.0
    p_grasp_w: float = 10.0
    p_irs_w: float = 0.9
    battery_j: float = 799_200.0
    service_hours: float = 12.0

    def __post_init__(self) -> None:
        for name in ("p_fly_w", "v_fly_mps", "p_grasp_w", "p_irs_w", "battery_j"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails this too
                raise ValueError(f"{name} must be finite and positive")
        if not 0 <= self.service_hours < math.inf:
            raise ValueError("service_hours must be finite and nonnegative")

    @property
    def service_seconds(self) -> float:
        return self.service_hours * 3600.0


@dataclass(frozen=True, eq=False)
class EnergyLedger:
    """Mission energy split, feasible where the battery covers it: one
    unit's scalars, or (M,) arrays of M units' distance-dependent terms."""

    e_fly_j: float
    residual_j: float
    feasible: bool


def fly_energy(distance_m, params: PlatformParams):
    """Propulsion energy for a relocation distance, or each of an array."""
    if not np.all((0 <= distance_m) & (distance_m < math.inf)):  # NaN fails too
        raise ValueError("distance must be finite and nonnegative")
    return params.p_fly_w * distance_m / params.v_fly_mps


def grasp_energy(params: PlatformParams) -> float:
    return params.p_grasp_w * params.service_seconds


def reflect_energy(params: PlatformParams) -> float:
    return params.p_irs_w * params.service_seconds


def flight_range(params: PlatformParams) -> float:
    """Distance the battery residual supports after grasping and reflecting.

    Clamped at zero when the static loads alone exhaust the battery.
    """
    residual = params.battery_j - grasp_energy(params) - reflect_energy(params)
    if residual <= 0:
        return 0.0
    return residual / params.p_fly_w * params.v_fly_mps


def mission_ledger(distance_m, params: PlatformParams) -> EnergyLedger:
    """Full accounting for a unit flying `distance_m` over the mission, or
    one ledger of arrays for an array of distances, one per unit."""
    e_fly = fly_energy(distance_m, params)
    residual = params.battery_j - e_fly - grasp_energy(params) - reflect_energy(params)
    return EnergyLedger(
        e_fly_j=e_fly,
        residual_j=residual,
        feasible=residual >= 0,
    )


def fraunhofer_distance(n_r: int, wavelength_m: float) -> float:
    """Far-field boundary of a square surface with half-wavelength spacing:
    (wavelength / 2) * n_r^2."""
    if n_r < 1:
        raise ValueError("element count per side must be at least 1")
    if wavelength_m <= 0:
        raise ValueError("wavelength must be positive")
    return 0.5 * wavelength_m * n_r * n_r


@dataclass(frozen=True)
class IrsSizing:
    n_r: int
    n_elements: int
    fraunhofer_m: float


def size_irs(d_min_m: float, wavelength_m: float) -> IrsSizing:
    """Largest per-side element count, a multiple of 4, whose far-field
    boundary stays within the minimum transceiver clearance."""
    if not 0 < d_min_m < math.inf:  # NaN fails this too
        raise ValueError("minimum clearance must be finite and positive")
    if not 0 < wavelength_m < math.inf:
        raise ValueError("wavelength must be finite and positive")
    n_r = int(math.sqrt(2.0 * d_min_m / wavelength_m) + 1e-9)
    while n_r > 0 and fraunhofer_distance(max(n_r, 1), wavelength_m) > d_min_m:
        n_r -= 1
    n_r -= n_r % 4
    if n_r < 4:
        raise SizingError(
            f"clearance {d_min_m} m admits no surface of at least 4x4 elements"
        )
    return IrsSizing(
        n_r=n_r,
        n_elements=n_r * n_r,
        fraunhofer_m=fraunhofer_distance(n_r, wavelength_m),
    )
