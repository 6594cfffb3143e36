"""Stochastic line-of-sight realization and closed-form SNR evaluation.

Direct BS-user links suffer distance-dependent blockage; blocked cells with
sub-threshold SNR form the weak-coverage set that reflector placement
targets. The reflected (cascaded) link is evaluated in closed form from the
second moment of a phase-aligned sum of Rician amplitudes. All SNR
composition happens in linear power units; dB only at the boundaries.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e, i1e

from .geometry import DistanceTables

__all__ = [
    "RadioParams",
    "ChannelRealization",
    "los_probability",
    "nlos_members",
    "direct_path_loss_db",
    "direct_snr_db",
    "weak_coverage_set",
    "rician_amplitude_mean",
    "cascade_amplification",
    "cascaded_path_loss_db",
    "cascaded_snr_db",
    "snr_ratio",
    "realize_channel",
]

SPEED_OF_LIGHT = 299_792_458.0

# Empirical urban-microcell LoS model: certain below the breakpoint,
# decaying beyond it.
LOS_BREAKPOINT_M = 18.0
LOS_DECAY_M = 36.0


@dataclass(frozen=True)
class RadioParams:
    """Link-budget constants for the 28 GHz microcell.

    Reference losses are at 1 m. `eta1`/`eta2` are the terrestrial LoS/NLoS
    path-loss exponents, `eta3` the reflected-link exponent (below the
    terrestrial NLoS one). `n_elements` must be a squared positive multiple
    of four (square surface, 2-bit phase coding).
    """

    carrier_freq_hz: float = 28e9
    tx_power_dbm: float = 37.0
    noise_power_dbm: float = -95.0
    a_d_db: float = -61.38
    a_t_db: float = -56.38
    a_r_db: float = -56.38
    eta1: float = 2.1
    eta2: float = 3.17
    eta3: float = 2.4
    k_d_db: float = 10.0
    k_c_db: float = 10.0
    snr_threshold_db: float = 10.0
    n_elements: int = 2304

    def __post_init__(self) -> None:
        if self.carrier_freq_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.eta1 > self.eta2:
            raise ValueError("LoS exponent eta1 cannot exceed NLoS exponent eta2")
        if self.eta3 >= self.eta2:
            raise ValueError("reflected-link exponent eta3 must be below eta2")
        side = math.isqrt(int(self.n_elements))
        if side * side != self.n_elements or side <= 0 or side % 4 != 0:
            raise ValueError(
                "n_elements must be the square of a positive multiple of 4"
            )

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def k_d_linear(self) -> float:
        return 10.0 ** (self.k_d_db / 10.0)

    @property
    def k_c_linear(self) -> float:
        return 10.0 ** (self.k_c_db / 10.0)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One trial's blockage draw and the derived per-cell direct SNRs."""

    los_draws: np.ndarray        # (I,) uniforms in [0, 1)
    nlos_set: np.ndarray         # sorted cell indices lacking LoS
    direct_snr_db: np.ndarray    # (I,)
    weak_set: np.ndarray         # sorted cell indices: non-LoS and below threshold


def los_probability(d):
    """LoS probability of a planar BS-user distance (scalar or array).

    1 below 18 m, then 18/d + exp(-d/36) * (1 - 18/d); continuous at the
    breakpoint and strictly decreasing beyond it.
    """
    arr = np.atleast_1d(np.asarray(d, dtype=float))
    if (arr < 0).any():
        raise ValueError("distance must be nonnegative")
    out = np.ones_like(arr)
    far = arr >= LOS_BREAKPOINT_M
    if far.any():
        df = arr[far]
        frac = LOS_BREAKPOINT_M / df
        out[far] = frac + np.exp(-df / LOS_DECAY_M) * (1.0 - frac)
    if np.ndim(d) == 0:
        return float(out[0])
    return out


def nlos_members(p_los, draws) -> np.ndarray:
    """Boolean non-LoS mask: a cell lacks LoS when its uniform draw is at or
    above its LoS probability."""
    return np.asarray(draws, dtype=float) >= np.asarray(p_los, dtype=float)


def direct_path_loss_db(distance_m, nlos, params: RadioParams):
    """Distance-power-law path loss of the direct link in dB.

    Non-LoS cells use exponent eta2, LoS cells eta1.
    """
    arr = np.atleast_1d(np.asarray(distance_m, dtype=float))
    if (arr <= 0).any():
        raise ValueError("link distance must be positive")
    exponent = np.where(np.atleast_1d(nlos), params.eta2, params.eta1)
    out = params.a_d_db - 10.0 * exponent * np.log10(arr)
    if np.ndim(distance_m) == 0:
        return float(out[0])
    return out


def direct_snr_db(path_loss_db, params: RadioParams):
    """Mean received SNR in dB; unit-power small-scale fading folds out."""
    return path_loss_db + params.tx_power_dbm - params.noise_power_dbm


def weak_coverage_set(
    nlos_set: np.ndarray,
    snr_db: np.ndarray,
    params: RadioParams,
) -> np.ndarray:
    """Non-LoS cells whose direct SNR falls below the service threshold."""
    nlos_idx = np.asarray(nlos_set, dtype=int)
    below = np.asarray(snr_db)[nlos_idx] < params.snr_threshold_db
    return nlos_idx[below]


def _laguerre_half(k: float) -> float:
    # Degree-1/2 Laguerre polynomial at -k via exponentially scaled Bessel
    # functions; stable for k up to at least 1e6.
    half = k / 2.0
    return (1.0 + k) * float(i0e(half)) + k * float(i1e(half))


def rician_amplitude_mean(k_linear: float) -> float:
    """Mean-amplitude factor of a unit-power Rician variate.

    Returns sqrt(1/(1+K)) times the degree-1/2 Laguerre polynomial at -K;
    multiplying by sqrt(pi)/2 gives the true mean amplitude. Grows from 1
    at K = 0 (Rayleigh) toward 2/sqrt(pi) as K -> infinity.
    """
    k = float(k_linear)
    if k < 0:
        raise ValueError("Rician factor must be nonnegative")
    return math.sqrt(1.0 / (1.0 + k)) * _laguerre_half(k)


def cascade_amplification(
    n_elements: int,
    k_c_linear: float,
    mean_in_denominator: bool = False,
) -> float:
    """Power amplification of an N-element phase-aligned reflected link.

    N + (pi^2/16) * (N^2 - N) * m^4, with m the unit-power Rician
    mean-amplitude factor of each hop. Lies in [N, N^2] and is monotone in
    both arguments; the N^2 ceiling is coherent combining.

    `mean_in_denominator` divides by the bracket instead: the unbounded
    variant, reachable only through this keyword, which `irsfleet validate`
    uses to show the ceiling violation. It coincides with the standard form
    at K = 0 and blows past N^2 for realistic K.
    """
    n = float(n_elements)
    if n < 1:
        raise ValueError("need at least one reflecting element")
    pairwise = (math.pi**2 / 16.0) * (n * n - n)
    k = float(k_c_linear)
    if mean_in_denominator:
        bracket = math.sqrt(1.0 / (1.0 + k)) / _laguerre_half(k)
        return n + pairwise / bracket**4
    return n + pairwise * rician_amplitude_mean(k) ** 4


def cascaded_path_loss_db(r_m, d_m, params: RadioParams):
    """Two-hop reflected path loss in dB: BS-to-surface times surface-to-user."""
    r = np.asarray(r_m, dtype=float)
    d = np.asarray(d_m, dtype=float)
    if (r <= 0).any() or (d <= 0).any():
        raise ValueError("link distances must be positive")
    return (
        params.a_t_db
        - 10.0 * params.eta3 * np.log10(r)
        + params.a_r_db
        - 10.0 * params.eta3 * np.log10(d)
    )


def cascaded_snr_db(r_m, d_m, params: RadioParams):
    """Mean end-to-end SNR of the reflected link in dB.

    Assumes identical per-element path losses and perfectly compensated
    phases, so the element sum contributes `cascade_amplification` of
    power gain on top of the two-hop path loss.
    """
    amp = cascade_amplification(params.n_elements, params.k_c_linear)
    return (
        cascaded_path_loss_db(r_m, d_m, params)
        + 10.0 * np.log10(amp)
        + params.tx_power_dbm
        - params.noise_power_dbm
    )


def snr_ratio(gamma_d_db, gamma_c_db):
    """Aggregated-over-direct SNR ratio, computed in linear power units.

    Always at least 1; equals 2 when the two links contribute equally.
    """
    direct = 10.0 ** (np.asarray(gamma_d_db, dtype=float) / 10.0)
    cascaded = 10.0 ** (np.asarray(gamma_c_db, dtype=float) / 10.0)
    out = (direct + cascaded) / direct
    if np.ndim(gamma_d_db) == 0 and np.ndim(gamma_c_db) == 0:
        return float(out)
    return out


def realize_channel(
    distances: DistanceTables,
    params: RadioParams,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Draw one blockage realization and evaluate every direct-link SNR."""
    n = distances.d2_bs_ut.shape[0]
    draws = rng.random(n)
    mask = nlos_members(los_probability(distances.d2_bs_ut), draws)
    pl = direct_path_loss_db(distances.l_bs_ut, mask, params)
    snr = direct_snr_db(pl, params)
    nlos_idx = np.flatnonzero(mask)
    weak = weak_coverage_set(nlos_idx, snr, params)
    return ChannelRealization(
        los_draws=draws,
        nlos_set=nlos_idx,
        direct_snr_db=snr,
        weak_set=weak,
    )
