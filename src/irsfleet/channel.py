"""Stochastic line-of-sight realization and closed-form SNR evaluation.

Direct BS-user links suffer distance-dependent blockage; blocked cells with
sub-threshold SNR form the weak-coverage set that reflector placement
targets. A trial draws only the blockage, against the scenario's
`link_budget`. The reflected (cascaded) link is evaluated in closed form
from the second moment of a phase-aligned sum of Rician amplitudes. All SNR
composition happens in linear power units; dB only at the boundaries.
"""

import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .geometry import DistanceTables

__all__ = [
    "RadioParams",
    "LinkBudget",
    "ChannelRealization",
    "los_probability",
    "nlos_members",
    "direct_path_loss_db",
    "direct_snr_db",
    "rician_factor",
    "rician_amplitude_mean",
    "cascade_amplification",
    "cascaded_path_loss_db",
    "cascaded_snr_db",
    "snr_ratio",
    "link_budget",
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

    Reference losses are at 1 m. `eta2` is the direct link's path-loss
    exponent as blocked, the only way a run evaluates it (only a blocked
    cell can be weak), and `eta3` the reflected-link exponent, below it.
    `n_elements` must be a squared positive multiple of four (square
    surface, 2-bit phase coding). Every float must be
    finite, and so must the linear value of the cascade's Rician K factor.
    The direct link has no K factor: its unit-power fading folds out of the
    mean SNR (`direct_snr_db`), so no such factor could reach a result.
    """

    carrier_freq_hz: float = 28e9
    tx_power_dbm: float = 37.0
    noise_power_dbm: float = -95.0
    a_d_db: float = -61.38
    a_t_db: float = -56.38
    a_r_db: float = -56.38
    eta2: float = 3.17
    eta3: float = 2.4
    k_c_db: float = 10.0
    snr_threshold_db: float = 10.0
    n_elements: int = 2304

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_elements", operator.index(self.n_elements))
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not self.carrier_freq_hz > 0:
            raise ValueError("carrier frequency must be positive")
        if not self.eta3 < self.eta2:
            raise ValueError("reflected-link exponent eta3 must be below eta2")
        try:
            10.0 ** (self.k_c_db / 10.0)
        except OverflowError:
            raise ValueError(
                "k_c_db is too large: its linear value overflows"
            ) from None
        side = math.isqrt(self.n_elements)
        if side * side != self.n_elements or side <= 0 or side % 4 != 0:
            raise ValueError(
                "n_elements must be the square of a positive multiple of 4"
            )

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def k_c_linear(self) -> float:
        return 10.0 ** (self.k_c_db / 10.0)


@dataclass(frozen=True, eq=False)
class LinkBudget:
    """Each cell's LoS probability and, as if blocked, its links."""

    p_los: np.ndarray            # (I,)
    weak_if_blocked: np.ndarray  # (I,) direct SNR below the threshold
    gain_if_blocked: np.ndarray  # (I, J) aggregated-over-direct SNR ratio

    @cached_property
    def cost_if_blocked(self) -> np.ndarray:  # (I, J) placement cost 1 - gain
        return 1.0 - self.gain_if_blocked

    @cached_property
    def helped_if_blocked(self) -> np.ndarray:  # (I,) some cost below 0
        return self.cost_if_blocked.min(axis=1, initial=0.0) < 0.0

    @cached_property
    def sound_if_blocked(self) -> np.ndarray:  # (I,) gains finite, >= 1, not NaN
        return ((self.gain_if_blocked >= 1.0) & (self.gain_if_blocked < np.inf)).all(1)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One trial's weak-coverage set: the blocked cells weak if blocked."""

    weak_set: np.ndarray  # sorted cell indices


def los_probability(d):
    """LoS probability of a planar BS-user distance (scalar or array).

    1 below 18 m, then 18/d + exp(-d/36) * (1 - 18/d); continuous at the
    breakpoint and strictly decreasing beyond it.
    """
    d = np.asarray(d, dtype=float)
    if not (d >= 0).all():  # NaN fails this too
        raise ValueError("distance must be nonnegative")
    # Below the breakpoint `frac` is exactly 1, and so is the probability.
    frac = LOS_BREAKPOINT_M / np.maximum(d, LOS_BREAKPOINT_M)
    return frac + np.exp(-d / LOS_DECAY_M) * (1.0 - frac)


def nlos_members(p_los, draws) -> np.ndarray:
    """Boolean non-LoS mask: a cell lacks LoS when its uniform draw is at or
    above its LoS probability."""
    return np.asarray(draws, dtype=float) >= np.asarray(p_los, dtype=float)


def direct_path_loss_db(distance_m, params: RadioParams):
    """Distance-power-law path loss of the blocked direct link in dB, with
    exponent eta2."""
    d = np.asarray(distance_m, dtype=float)
    if not (d > 0).all():  # NaN fails this too
        raise ValueError("link distance must be positive")
    return params.a_d_db - 10.0 * params.eta2 * np.log10(d)


def direct_snr_db(path_loss_db, params: RadioParams):
    """Mean received SNR in dB; unit-power small-scale fading folds out."""
    return path_loss_db + params.tx_power_dbm - params.noise_power_dbm


# Chebyshev coefficients from the Cephes Math Library (S. L. Moshier). Over
# [0, 8] the SMALL tables expand exp(-x) I0(x) and exp(-x) I1(x) / x in
# x/2 - 2; over (8, inf) the LARGE tables expand sqrt(x) exp(-x) I0(x) and
# sqrt(x) exp(-x) I1(x) in 32/x - 2.
_I0E_SMALL = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0E_LARGE = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)
_I1E_SMALL = (
    2.7779141127610464e-18, -2.111421214358166e-17, 1.5536319577362005e-16,
    -1.1055969477353862e-15, 7.600684294735408e-15, -5.042185504727912e-14,
    3.223793365945575e-13, -1.9839743977649436e-12, 1.1736186298890901e-11,
    -6.663489723502027e-11, 3.625590281552117e-10, -1.8872497517228294e-09,
    9.381537386495773e-09, -4.445059128796328e-08, 2.0032947535521353e-07,
    -8.568720264695455e-07, 3.4702513081376785e-06, -1.3273163656039436e-05,
    4.781565107550054e-05, -0.00016176081582589674, 0.0005122859561685758,
    -0.0015135724506312532, 0.004156422944312888, -0.010564084894626197,
    0.024726449030626516, -0.05294598120809499, 0.1026436586898471,
    -0.17641651835783406, 0.25258718644363365,
)
_I1E_LARGE = (
    7.517296310842105e-18, 4.414348323071708e-18, -4.6503053684893586e-17,
    -3.209525921993424e-17, 2.96262899764595e-16, 3.3082023109209285e-16,
    -1.8803547755107825e-15, -3.8144030724370075e-15, 1.0420276984128802e-14,
    4.272440016711951e-14, -2.1015418427726643e-14, -4.0835511110921974e-13,
    -7.198551776245908e-13, 2.0356285441470896e-12, 1.4125807436613782e-11,
    3.2526035830154884e-11, -1.8974958123505413e-11, -5.589743462196584e-10,
    -3.835380385964237e-09, -2.6314688468895196e-08, -2.512236237870209e-07,
    -3.882564808877691e-06, -0.00011058893876262371, -0.009761097491361469,
    0.7785762350182801,
)


def _chbevl(x: float, coeffs: tuple[float, ...]) -> float:
    # Cephes chbevl: Clenshaw recurrence with the constant term doubled.
    b0, b1, b2 = coeffs[0], 0.0, 0.0
    for c in coeffs[1:]:
        b2 = b1
        b1 = b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0e(x: float) -> float:
    # Exponentially scaled modified Bessel function I0 for x >= 0.
    if x <= 8.0:
        return _chbevl(x / 2.0 - 2.0, _I0E_SMALL)
    return _chbevl(32.0 / x - 2.0, _I0E_LARGE) / math.sqrt(x)


def _i1e(x: float) -> float:
    # Exponentially scaled modified Bessel function I1 for x >= 0.
    if x <= 8.0:
        return _chbevl(x / 2.0 - 2.0, _I1E_SMALL) * x
    return _chbevl(32.0 / x - 2.0, _I1E_LARGE) / math.sqrt(x)


def rician_factor(k_linear: float) -> float:
    """The Rician factor K as a float, refused unless finite and nonnegative;
    the closed forms here and the samplers in `oracles` share this rule."""
    k = float(k_linear)
    if not 0.0 <= k < math.inf:
        raise ValueError(f"Rician factor must be finite and nonnegative, got {k}")
    return k


def rician_amplitude_mean(k_linear: float) -> float:
    """Mean-amplitude factor of a unit-power Rician variate.

    Returns sqrt(1/(1+K)) times the degree-1/2 Laguerre polynomial at -K;
    multiplying by sqrt(pi)/2 gives the true mean amplitude. Grows from 1
    at K = 0 (Rayleigh) toward 2/sqrt(pi) as K -> infinity. K must be
    finite and nonnegative.
    """
    k = rician_factor(k_linear)
    # The polynomial through exponentially scaled Bessel functions is
    # stable for K up to at least 1e6.
    half = k / 2.0
    laguerre = (1.0 + k) * _i0e(half) + k * _i1e(half)
    return math.sqrt(1.0 / (1.0 + k)) * laguerre


def cascade_amplification(n_elements: int, k_c_linear: float) -> float:
    """Power amplification of an N-element phase-aligned reflected link.

    N + (pi^2/16) * (N^2 - N) * m^4, with m the unit-power Rician
    mean-amplitude factor of each hop. Lies in [N, N^2] and is monotone in
    both arguments; the N^2 ceiling is coherent combining.
    """
    n = float(n_elements)
    if n < 1:
        raise ValueError("need at least one reflecting element")
    pairwise = (math.pi**2 / 16.0) * (n * n - n)
    return n + pairwise * rician_amplitude_mean(k_c_linear) ** 4


def cascaded_path_loss_db(r_m, d_m, params: RadioParams):
    """Two-hop reflected path loss in dB: BS-to-surface times surface-to-user."""
    r = np.asarray(r_m, dtype=float)
    d = np.asarray(d_m, dtype=float)
    if not ((r > 0).all() and (d > 0).all()):  # NaN fails this too
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
    return (direct + cascaded) / direct


def link_budget(distances: DistanceTables, params: RadioParams) -> LinkBudget:
    """Evaluate each cell as if blocked (eta2): only a blocked cell can be weak."""
    snr = direct_snr_db(direct_path_loss_db(distances.l_bs_ut, params), params)
    gamma_c = cascaded_snr_db(distances.r_bs_site[None, :], distances.d_site_ut, params)
    with np.errstate(all="ignore"):  # `GainTensor` refuses a NaN or infinite ratio
        return LinkBudget(
            p_los=los_probability(distances.d2_bs_ut),
            weak_if_blocked=snr < params.snr_threshold_db,
            gain_if_blocked=snr_ratio(snr[:, None], gamma_c),
        )


def realize_channel(budget: LinkBudget, rng: np.random.Generator) -> ChannelRealization:
    """Draw one blockage realization: one uniform per cell."""
    blocked = nlos_members(budget.p_los, rng.random(budget.p_los.shape[0]))
    return ChannelRealization(weak_set=np.flatnonzero(blocked & budget.weak_if_blocked))
