import math

import numpy as np
import pytest

from irsfleet.channel import RadioParams
from irsfleet.energy import (
    PlatformParams,
    SizingError,
    flight_range,
    fly_energy,
    fraunhofer_distance,
    grasp_energy,
    mission_ledger,
    reflect_energy,
    size_irs,
)

DEFAULTS = PlatformParams()


def test_fly_energy():
    assert fly_energy(0.0, DEFAULTS) == 0.0
    assert fly_energy(100.0, DEFAULTS) == pytest.approx(2536.0)
    assert fly_energy(12_946.0, DEFAULTS) == pytest.approx(328_310.56)
    with pytest.raises(ValueError):
        fly_energy(-1.0, DEFAULTS)


@pytest.mark.parametrize(
    "distance",
    [math.nan, math.inf, -math.inf]
    + [
        pytest.param(np.array([10.0, bad, 20.0]), id=f"array-with-{bad}")
        for bad in (-1.0, math.nan, math.inf, -math.inf)
    ],
)
def test_fly_energy_refuses_nonfinite_distance(distance):
    with pytest.raises(ValueError, match="distance must be finite and nonnegative"):
        fly_energy(distance, DEFAULTS)


def test_static_energies():
    assert grasp_energy(DEFAULTS) == pytest.approx(432_000.0)
    assert reflect_energy(DEFAULTS) == pytest.approx(38_880.0)
    idle = PlatformParams(service_hours=0.0)
    assert grasp_energy(idle) == 0.0
    assert reflect_energy(idle) == 0.0


def test_flight_range_default_window():
    rng_m = flight_range(DEFAULTS)
    assert rng_m == pytest.approx((799_200.0 - 432_000.0 - 38_880.0) / 253.6 * 10.0)
    assert 12_900.0 < rng_m < 13_000.0


def test_flight_range_depleted_battery():
    depleted = PlatformParams(battery_j=grasp_energy(DEFAULTS) + reflect_energy(DEFAULTS))
    assert flight_range(depleted) == 0.0


def test_flight_range_superlinear_in_battery():
    doubled = PlatformParams(battery_j=2 * DEFAULTS.battery_j)
    assert flight_range(doubled) > 2 * flight_range(DEFAULTS)


def test_mission_ledger():
    ledger = mission_ledger(1000.0, DEFAULTS)
    assert ledger.e_fly_j == pytest.approx(25_360.0)
    assert ledger.residual_j == pytest.approx(
        DEFAULTS.battery_j
        - ledger.e_fly_j
        - grasp_energy(DEFAULTS)
        - reflect_energy(DEFAULTS)
    )
    assert ledger.feasible
    broke = mission_ledger(flight_range(DEFAULTS) + 1.0, DEFAULTS)
    assert not broke.feasible
    assert broke.residual_j < 0


def test_one_ledger_for_many_distances():
    # Zero, a short hop, a value that does not round-trip through the ratio,
    # the exact flight range and just past it.
    edge = flight_range(DEFAULTS)
    distances = [0.0, 1000.0, 1234.567891, edge, math.nextafter(edge, math.inf), 2e4]
    ledger = mission_ledger(np.array(distances), DEFAULTS)
    for field in ("e_fly_j", "residual_j", "feasible"):
        alone = [getattr(mission_ledger(d, DEFAULTS), field) for d in distances]
        assert getattr(ledger, field).tolist() == alone
    assert ledger.feasible.tolist() == [True, True, True, True, False, False]
    # Each unit's balance subtracts the grasp and reflect laws, in order.
    grasp, reflect = grasp_energy(DEFAULTS), reflect_energy(DEFAULTS)
    balance = DEFAULTS.battery_j - ledger.e_fly_j - grasp - reflect
    assert ledger.residual_j.tolist() == balance.tolist()


def test_platform_validation():
    with pytest.raises(ValueError):
        PlatformParams(p_fly_w=0.0)
    with pytest.raises(ValueError):
        PlatformParams(battery_j=-1.0)


WAVELENGTH = RadioParams().wavelength_m


def test_fraunhofer_distance():
    assert fraunhofer_distance(1, 2.0) == 1.0
    assert fraunhofer_distance(48, WAVELENGTH) == pytest.approx(12.334, abs=1e-3)
    assert fraunhofer_distance(44, WAVELENGTH) == pytest.approx(10.364, abs=1e-3)
    assert fraunhofer_distance(44, WAVELENGTH) <= 10.5
    with pytest.raises(ValueError):
        fraunhofer_distance(0, WAVELENGTH)
    with pytest.raises(ValueError, match="wavelength must be positive"):
        fraunhofer_distance(4, 0.0)


def test_size_irs_default_clearance():
    sizing = size_irs(10.5, WAVELENGTH)
    assert sizing.n_r == 44
    assert sizing.n_elements == 1936
    assert sizing.fraunhofer_m <= 10.5
    # the next admissible size would break the clearance
    assert fraunhofer_distance(sizing.n_r + 4, WAVELENGTH) > 10.5


def test_size_irs_boundary_equality():
    d_min = fraunhofer_distance(16, 2.0)
    assert size_irs(d_min, 2.0).n_r == 16


def test_size_irs_too_small():
    with pytest.raises(SizingError):
        size_irs(fraunhofer_distance(4, WAVELENGTH) * 0.5, WAVELENGTH)


@pytest.mark.parametrize("d_min", [math.nan, math.inf, 0.0, -1.0])
def test_size_irs_refuses_bad_clearance(d_min):
    with pytest.raises(ValueError, match="clearance must be finite and positive"):
        size_irs(d_min, WAVELENGTH)


@pytest.mark.parametrize("wavelength", [math.nan, math.inf, 0.0])
def test_size_irs_refuses_bad_wavelength(wavelength):
    with pytest.raises(ValueError, match="wavelength must be finite and positive"):
        size_irs(10.5, wavelength)


# The last clearance falls just short of 48 elements' boundary: the
# square-root estimate is 48, and only the overshoot step brings it below.
@pytest.mark.parametrize(
    "d_min",
    [
        0.2, 1.0, 5.0, 10.5, 25.0, 100.0,
        fraunhofer_distance(48, WAVELENGTH) * (1 - 1e-12),
    ],
)
def test_size_irs_rule_invariants(d_min):
    sizing = size_irs(d_min, WAVELENGTH)
    assert sizing.n_r % 4 == 0 and sizing.n_r >= 4
    assert sizing.fraunhofer_m <= d_min
    assert fraunhofer_distance(sizing.n_r + 4, WAVELENGTH) > d_min


def test_energy_linearity():
    assert fly_energy(250.0, DEFAULTS) == pytest.approx(2.5 * fly_energy(100.0, DEFAULTS))
    half = PlatformParams(service_hours=6.0)
    assert grasp_energy(half) == pytest.approx(grasp_energy(DEFAULTS) / 2.0)
    assert reflect_energy(half) == pytest.approx(reflect_energy(DEFAULTS) / 2.0)
