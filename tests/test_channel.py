import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from irsfleet.channel import (
    RadioParams,
    _i0e,
    _i1e,
    cascade_amplification,
    cascaded_path_loss_db,
    cascaded_snr_db,
    direct_path_loss_db,
    direct_snr_db,
    link_budget,
    los_probability,
    nlos_members,
    realize_channel,
    rician_amplitude_mean,
    snr_ratio,
)
from irsfleet.geometry import GeometryConfig, build_layout, compute_distances
from irsfleet.oracles import (
    empirical_cascade_amplification,
    empirical_mean_amplitude,
    sample_rician_fading,
)

PARAMS = RadioParams()


# ---------------------------------------------------------------- LoS model

def test_los_probability_values():
    assert los_probability(10.0) == 1.0
    assert los_probability(36.0) == pytest.approx(0.5 + math.exp(-1.0) * 0.5, abs=1e-12)
    assert los_probability(72.0) == pytest.approx(0.25 + math.exp(-2.0) * 0.75, abs=1e-12)


def test_los_probability_continuous_at_breakpoint():
    below = los_probability(18.0 - 1e-12)
    at = los_probability(18.0)
    formula_at = 18.0 / 18.0 + math.exp(-0.5) * (1.0 - 18.0 / 18.0)
    assert abs(at - formula_at) < 1e-12
    assert abs(at - below) < 1e-12


def test_los_probability_rejects_negative():
    # A NaN distance is refused too, not read as certain line of sight.
    for d in (-1.0, math.nan, [math.nan, 40.0]):
        with pytest.raises(ValueError):
            los_probability(d)


@given(st.floats(min_value=18.0, max_value=5000.0))
@settings(max_examples=100, deadline=None)
def test_los_probability_range_and_decrease(d):
    p = los_probability(d)
    assert 0.0 < p <= 1.0
    assert los_probability(d + 1.0) <= p + 1e-15


def test_los_probability_vectorized():
    out = los_probability(np.array([0.0, 10.0, 36.0, 72.0]))
    assert out.shape == (4,)
    assert out[0] == 1.0 and out[1] == 1.0


ULP_18 = math.ulp(18.0)


@pytest.mark.parametrize("d", [0.0, 18.0 - ULP_18, 18.0, 18.0 + ULP_18, 1e300, math.inf])
def test_laws_give_a_scalar_the_value_of_a_one_element_array(d):
    # Each law is one array expression; a scalar is its 0-d case.
    forms = [(los_probability(d), los_probability([d]))]
    if d > 0:
        forms.append((direct_path_loss_db(d, PARAMS), direct_path_loss_db([d], PARAMS)))
    forms.append((snr_ratio(7.22, -d), snr_ratio([7.22], [-d])))
    for scalar, array in forms:
        assert isinstance(scalar, float) and array.shape == (1,)
        assert scalar == array[0]


# ------------------------------------------------------------ blockage draw

def test_nlos_members_boundary_draws():
    p = los_probability(np.array([10.0, 36.0, 120.0]))
    zeros = np.zeros(3)
    ones = np.ones(3)
    # non-LoS when the draw is at or above the probability
    assert not nlos_members(p, zeros).any()
    assert nlos_members(p, ones).all()


def test_realize_channel_nlos_set_reproducible_and_calibrated():
    # With no bar every blocked cell is weak, so the weak set is the
    # non-LoS set.
    layout = build_layout(GeometryConfig(9, 9, 20.0, 8.5, 2.0, 10.5))
    tables = compute_distances(layout)
    p = los_probability(tables.d2_bs_ut)
    budget = link_budget(tables, RadioParams(snr_threshold_db=1e9))
    assert budget.weak_if_blocked.all()

    def nlos_set(rng):
        return realize_channel(budget, rng).weak_set

    first = nlos_set(np.random.Generator(np.random.Philox(42)))
    second = nlos_set(np.random.Generator(np.random.Philox(42)))
    assert np.array_equal(first, second)

    trials = 10_000
    rng = np.random.Generator(np.random.Philox(7))
    sizes = [nlos_set(rng).size for _ in range(trials)]
    sigma = math.sqrt(float((p * (1.0 - p)).sum()) / trials)
    assert abs(np.mean(sizes) - float((1.0 - p).sum())) < 3.0 * sigma


# ------------------------------------------------------------- link budgets

def test_direct_path_loss_examples():
    # The blocked law: a_d_db - 10 * eta2 * log10(d).
    assert direct_path_loss_db(1.0, PARAMS) == pytest.approx(-61.38)
    assert direct_path_loss_db(100.0, PARAMS) == pytest.approx(-124.78)
    for d in (0.0, math.nan):
        with pytest.raises(ValueError):
            direct_path_loss_db(d, PARAMS)


def test_direct_snr_examples():
    assert direct_snr_db(-124.78, PARAMS) == pytest.approx(7.22)
    assert direct_snr_db(-103.38, PARAMS) == pytest.approx(28.62)
    assert direct_snr_db(-(37.0 + 95.0), PARAMS) == pytest.approx(0.0)


def test_weak_coverage_thresholds():
    tables = compute_distances(build_layout(GeometryConfig(9, 9, 20.0, 8.5, 2.0, 10.5)))
    snr = direct_snr_db(direct_path_loss_db(tables.l_bs_ut, PARAMS), PARAMS)
    no_bar = link_budget(tables, RadioParams(snr_threshold_db=-1e9))
    assert not no_bar.weak_if_blocked.any()
    all_bar = link_budget(tables, RadioParams(snr_threshold_db=1e9))
    assert all_bar.weak_if_blocked.all()
    assert np.array_equal(
        link_budget(tables, PARAMS).weak_if_blocked, snr < PARAMS.snr_threshold_db
    )
    # The bar is strict: a cell whose blocked SNR sits exactly on it is not weak.
    cell = int(np.argmin(np.abs(snr - PARAMS.snr_threshold_db)))
    at_bar = link_budget(tables, RadioParams(snr_threshold_db=float(snr[cell])))
    assert not at_bar.weak_if_blocked[cell] and at_bar.weak_if_blocked.any()
    assert np.array_equal(at_bar.weak_if_blocked, snr < snr[cell])


def test_weak_set_matches_inverted_link_budget():
    # under defaults a cell is weak if blocked exactly when its 3-D distance
    # exceeds the budget implied by the 10 dB bar
    layout = build_layout(GeometryConfig(9, 9, 20.0, 8.5, 2.0, 10.5))
    tables = compute_distances(layout)
    weak = np.flatnonzero(link_budget(tables, PARAMS).weak_if_blocked)
    bound = 10.0 ** (
        (PARAMS.tx_power_dbm - PARAMS.noise_power_dbm + PARAMS.a_d_db
         - PARAMS.snr_threshold_db) / (10.0 * PARAMS.eta2)
    )
    assert np.array_equal(weak, np.flatnonzero(tables.l_bs_ut > bound))
    assert bound == pytest.approx(81.7, abs=0.1)


# -------------------------------------------------- cascaded-link closed form

def test_rician_amplitude_mean_special_values():
    assert rician_amplitude_mean(0.0) == pytest.approx(1.0, abs=1e-14)
    assert rician_amplitude_mean(10.0) == pytest.approx(1.10313, abs=1e-5)
    # full-coherence limit
    assert rician_amplitude_mean(1e4) == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-3)
    assert rician_amplitude_mean(1e6) == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-4)
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            rician_amplitude_mean(bad)


def test_bessel_terms_match_scipy_bit_for_bit():
    # scipy is the test-only oracle for the embedded Cephes series: equal
    # doubles, no tolerance, on both sides of the x = 8 branch point.
    edge = [0.0, 8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0)]
    xs = np.concatenate(
        [edge, np.linspace(0.0, 20.0, 20001), np.geomspace(1e-6, 1e6, 40001)]
    )
    for x in xs.tolist():
        assert _i0e(x) == scipy.special.i0e(x), x
        assert _i1e(x) == scipy.special.i1e(x), x


def test_rician_mean_and_cascade_match_scipy_reference():
    def reference_mean(k):
        half = k / 2.0
        laguerre = (1.0 + k) * float(scipy.special.i0e(half)) + k * float(
            scipy.special.i1e(half)
        )
        return math.sqrt(1.0 / (1.0 + k)) * laguerre

    n = 2304.0
    pairwise = (math.pi**2 / 16.0) * (n * n - n)
    ks = [0.0, 10.0, 1e4, 1e6] + (10.0 ** (np.linspace(-30, 60, 9001) / 10.0)).tolist()
    for k in ks:
        mean = reference_mean(k)
        assert rician_amplitude_mean(k) == mean, k
        assert cascade_amplification(2304, k) == n + pairwise * mean**4, k


@pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 10.0, 100.0])
def test_rician_amplitude_mean_against_mpmath(k):
    # independent high-precision route: generalized Laguerre via mpmath
    expect = float(mpmath.laguerre(0.5, 0, -k) / mpmath.sqrt(1 + k))
    assert rician_amplitude_mean(k) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("k", [0.0, 1.0, 10.0])
def test_rician_amplitude_mean_against_sampling(k):
    rng = np.random.Generator(np.random.Philox(11))
    sampled = empirical_mean_amplitude(k, 400_000, rng)
    closed = math.sqrt(math.pi) / 2.0 * rician_amplitude_mean(k)
    assert sampled == pytest.approx(closed, rel=5e-3)


@pytest.mark.parametrize("k", [0.0, 10.0])
def test_fading_sampler_unit_power(k):
    rng = np.random.Generator(np.random.Philox(3))
    h = sample_rician_fading(k, 100_000, rng)
    assert float(np.mean(np.abs(h) ** 2)) == pytest.approx(1.0, rel=0.01)


@pytest.mark.parametrize("draws", [0, -3])
def test_samplers_reject_nonpositive_draw_counts(draws):
    rng = np.random.Generator(np.random.Philox(3))
    with pytest.raises(ValueError, match="draw count"):
        sample_rician_fading(0.0, draws, rng)
    with pytest.raises(ValueError, match="draw count"):
        sample_rician_fading(0.0, (4, draws), rng)
    with pytest.raises(ValueError, match="draw count"):
        empirical_mean_amplitude(0.0, draws, rng)
    with pytest.raises(ValueError, match="draw count"):
        empirical_cascade_amplification(16, 0.0, draws, rng)


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def test_oracle_counts_must_be_integers():
    # A float count is refused, not truncated to another count's draws.
    rng = _philox(3)
    with pytest.raises(TypeError):
        empirical_mean_amplitude(0.0, 1000.7, rng)
    with pytest.raises(TypeError):
        empirical_cascade_amplification(16, 0.0, 1000.7, rng)
    with pytest.raises(TypeError):
        empirical_cascade_amplification(16.9, 0.0, 1000, rng)
    with pytest.raises(TypeError):
        empirical_cascade_amplification(16.0, 0.0, 1000, rng)
    # A numpy integer is an integer.
    i16, i1000 = np.int64(16), np.int64(1000)
    assert empirical_mean_amplitude(0.0, i1000, _philox(3)) == (
        empirical_mean_amplitude(0.0, 1000, _philox(3))
    )
    assert empirical_cascade_amplification(i16, 0.0, i1000, _philox(3)) == (
        empirical_cascade_amplification(16, 0.0, 1000, _philox(3))
    )


@pytest.mark.parametrize("k", [math.nan, math.inf, -1.0])
def test_samplers_reject_a_rician_factor_not_finite_and_nonnegative(k):
    rng = np.random.Generator(np.random.Philox(3))
    with pytest.raises(ValueError, match="Rician factor"):
        sample_rician_fading(k, 4, rng)
    with pytest.raises(ValueError, match="Rician factor"):
        empirical_mean_amplitude(k, 4, rng)
    with pytest.raises(ValueError, match="Rician factor"):
        empirical_cascade_amplification(16, k, 4, rng)


@pytest.mark.parametrize("n", [0, -1])
def test_cascade_oracle_rejects_nonpositive_element_counts(n):
    rng = np.random.Generator(np.random.Philox(3))
    with pytest.raises(ValueError, match="element count"):
        empirical_cascade_amplification(n, 0.0, 100, rng)


def test_cascade_amplification_values():
    assert cascade_amplification(1, 10.0) == pytest.approx(1.0, abs=1e-12)
    assert cascade_amplification(2304, 10.0) == pytest.approx(4.8495e6, rel=1e-3)
    # full-coherence ceiling
    assert cascade_amplification(2304, 1e6) == pytest.approx(2304.0**2, rel=1e-3)
    with pytest.raises(ValueError, match="need at least one reflecting element"):
        cascade_amplification(0, 10.0)


@given(
    n=st.integers(min_value=1, max_value=4096),
    k=st.floats(min_value=0.0, max_value=1e4),
)
@settings(max_examples=200, deadline=None)
def test_cascade_amplification_bounds(n, k):
    amp = cascade_amplification(n, k)
    assert n - 1e-9 <= amp <= n * n + 1e-6
    assert cascade_amplification(n, k + 1.0) >= amp - 1e-9
    assert cascade_amplification(n + 1, k) >= amp - 1e-9


def test_cascaded_path_loss_and_snr():
    assert cascaded_path_loss_db(1.0, 1.0, PARAMS) == pytest.approx(-112.76)
    amp_db = 10.0 * math.log10(cascade_amplification(2304, 10.0))
    expect = (
        -56.38 - 24.0 * math.log10(50.0)
        - 56.38 - 24.0 * math.log10(20.0)
        + amp_db + 37.0 + 95.0
    )
    assert cascaded_snr_db(50.0, 20.0, PARAMS) == pytest.approx(expect, abs=1e-9)
    assert expect == pytest.approx(14.10, abs=0.01)
    for r, d in ((0.0, 20.0), (math.nan, 20.0), (50.0, math.nan)):
        with pytest.raises(ValueError):
            cascaded_snr_db(r, d, PARAMS)


def test_cascaded_snr_distance_doubling_law():
    base = cascaded_snr_db(50.0, 20.0, PARAMS)
    doubled = cascaded_snr_db(100.0, 40.0, PARAMS)
    assert base - doubled == pytest.approx(2.0 * 10.0 * 2.4 * math.log10(2.0), abs=1e-9)


# ------------------------------------------------------------------ SNR ratio

def test_snr_ratio_values():
    assert snr_ratio(7.22, -math.inf) == pytest.approx(1.0)
    assert snr_ratio(13.0, 13.0) == pytest.approx(2.0)
    d_lin = 10.0 ** 0.722
    c_lin = 10.0 ** 1.410
    assert snr_ratio(7.22, 14.10) == pytest.approx((d_lin + c_lin) / d_lin)
    assert snr_ratio(7.22, 14.10) == pytest.approx(5.875, abs=2e-3)


@given(
    gd=st.floats(min_value=-60.0, max_value=60.0),
    gc=st.floats(min_value=-60.0, max_value=60.0),
    offset=st.floats(min_value=-30.0, max_value=30.0),
)
@settings(max_examples=200, deadline=None)
def test_snr_ratio_offset_invariance(gd, gc, offset):
    assert snr_ratio(gd, gc) >= 1.0
    assert snr_ratio(gd + offset, gc + offset) == pytest.approx(
        snr_ratio(gd, gc), rel=1e-9
    )


# ----------------------------------------------------------------- params

def test_radio_params_validation():
    with pytest.raises(ValueError):
        RadioParams(eta3=3.2)  # reflected exponent not below the direct one
    with pytest.raises(ValueError):
        RadioParams(n_elements=2000)  # not a square
    with pytest.raises(ValueError):
        RadioParams(n_elements=36)  # side not a multiple of 4
    for n in (16, 64, 256, 2304):
        RadioParams(n_elements=n)


def test_realize_channel_consistency():
    layout = build_layout(GeometryConfig(9, 9, 20.0, 8.5, 2.0, 10.5))
    budget = link_budget(compute_distances(layout), PARAMS)
    rng = np.random.Generator(np.random.Philox(5))
    real = realize_channel(budget, rng)
    assert set(real.weak_set) <= set(np.flatnonzero(budget.weak_if_blocked))
    again = realize_channel(budget, np.random.Generator(np.random.Philox(5)))
    assert np.array_equal(real.weak_set, again.weak_set)
    # Exactly one uniform per cell is drawn.
    twin = np.random.Generator(np.random.Philox(5))
    twin.random(81)
    assert rng.random() == twin.random()
