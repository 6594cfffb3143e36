import math

import numpy as np
import pytest

from conftest import make_tensor
from irsfleet.harness import _write_rows, traffic_table
from irsfleet.traffic import (
    TrafficModel,
    default_epoch_profile,
    sample_traffic,
)


def test_default_profile_spans_the_band():
    profile = np.array(default_epoch_profile(12))
    assert profile.min() == pytest.approx(0.8, abs=1e-12)
    assert profile.max() == pytest.approx(1.4, abs=1e-12)
    assert len(profile) == 12


def test_model_validation():
    with pytest.raises(ValueError):
        TrafficModel(base_mean_mbps_km2=0.0)
    with pytest.raises(ValueError):
        TrafficModel(threshold_fraction=0.0)
    with pytest.raises(ValueError):
        TrafficModel(epochs=3, epoch_profile=(1.0, 1.0))  # wrong length
    with pytest.raises(ValueError):
        TrafficModel(epochs=2, epoch_profile=(0.5, 1.0))  # outside the band


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 1e160])
def test_sampling_refuses_a_bad_sigma(rng, sigma):
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        sample_traffic(TrafficModel(), sigma, 5, rng)


def test_sigma_is_refused_once_its_variance_overflows(rng):
    # sigma**2 overflows past sqrt(max float), about 1.34e154.
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        sample_traffic(TrafficModel(), 1e160, 5, rng)
    demand = sample_traffic(TrafficModel(), 1.3e154, 5, rng)
    assert demand.shape == (12, 5)
    assert np.isfinite(demand).all()


def test_thresholds_track_epoch_means_exactly():
    model = TrafficModel()
    means = model.epoch_means()
    thresholds = model.thresholds()
    assert np.allclose(thresholds / means, 0.01, rtol=1e-15)
    flat = TrafficModel(epochs=1, epoch_profile=(1.0,))
    assert flat.thresholds()[0] == pytest.approx(7.02)


def test_tiny_sigma_collapses_to_the_mean(rng):
    model = TrafficModel(epochs=4, epoch_profile=(0.8, 1.0, 1.2, 1.4))
    demand = sample_traffic(model, 1e-9, 50, rng)
    expect = model.epoch_means()[:, None]
    assert np.allclose(demand, expect, rtol=1e-6)


def test_lognormal_parameters_recovered(rng):
    model = TrafficModel(epochs=1, epoch_profile=(1.0,))
    demand = sample_traffic(model, 2.8, 100_000, rng)
    logs = np.log(demand[0])
    mu_expect = math.log(702.0) - 0.5 * 2.8**2
    assert mu_expect == pytest.approx(2.6339, abs=1e-4)
    assert float(logs.mean()) == pytest.approx(mu_expect, abs=0.03)
    # log-scale spread within 2 percent (the linear mean is too heavy-tailed)
    assert float(logs.std(ddof=1)) == pytest.approx(2.8, rel=0.02)
    # analytic median within 3 percent
    assert float(np.median(demand[0])) == pytest.approx(
        math.exp(mu_expect), rel=0.03
    )


def test_sampling_deterministic():
    model = TrafficModel()
    a = sample_traffic(model, 2.8, 81, np.random.Generator(np.random.Philox(9)))
    b = sample_traffic(model, 2.8, 81, np.random.Generator(np.random.Philox(9)))
    assert np.array_equal(a, b)
    assert (a > 0).all()


def test_gate_gain_examples():
    # One weak cell per case, gated by the served mask of a GainTensor at a
    # threshold of 7.02: (gain, demand, gated gain).
    cases = [
        (5.875, 100.0, 5.875),
        (5.875, 3.0, 1.0),
        (1.0, 3.0, 1.0),
        (1.0, 100.0, 1.0),
        # boundary demand counts as served
        (4.0, 7.02, 4.0),
    ]
    for gain, demand, expect in cases:
        tensor = make_tensor([[gain]], demand=[[demand]], thresholds=[7.02])
        assert tensor.gains[0, 0, 0] == expect


def test_gate_gain_vectorized():
    tensor = make_tensor([[2.0], [3.0]], demand=[[10.0, 0.5]], thresholds=[1.0])
    assert tensor.served.tolist() == [[True, False]]
    assert np.array_equal(tensor.gains[0, :, 0], [2.0, 1.0])


def test_traffic_csv_export(tmp_path, rng):
    model = TrafficModel(epochs=2)
    demand = sample_traffic(model, 2.8, 3, rng)
    path = tmp_path / "traffic.csv"
    _write_rows(path, [traffic_table(demand)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,grid_index,demand_mbps_km2"
    assert len(lines) == 1 + 2 * 3
    epoch, grid, cell = lines[1].split(",")
    assert (epoch, grid) == ("1", "0")
    assert float(cell) == demand[0, 0]
