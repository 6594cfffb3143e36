"""Spatio-temporal log-normal traffic demand."""

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrafficModel",
    "check_sigma",
    "default_epoch_profile",
    "sample_traffic",
]

PROFILE_LOW = 0.8
PROFILE_HIGH = 1.4


def check_sigma(sigma: float) -> None:
    """Refuse a log-scale sigma that is not positive or whose square overflows."""
    if not (sigma > 0 and math.isfinite(sigma * sigma)):  # NaN fails this too
        raise ValueError(f"sigma must be finite and positive, squared too, got {sigma}")


def default_epoch_profile(epochs: int) -> tuple[float, ...]:
    """Sinusoidal per-epoch mean multipliers spanning exactly [0.8, 1.4]."""
    t = np.arange(1, epochs + 1)
    return tuple(1.1 + 0.3 * np.sin(2.0 * np.pi * (t - 1) / epochs))


@dataclass(frozen=True)
class TrafficModel:
    """Log-normal demand field: i.i.d. across cells, resampled per epoch.

    Its log-scale sigma is the unit's (`sample_traffic`). The log-mean is
    calibrated per epoch so the distribution mean equals
    `base_mean_mbps_km2` times the epoch multiplier. The gating threshold
    is `threshold_fraction` of that mean.
    """

    base_mean_mbps_km2: float = 702.0
    epochs: int = 12
    epoch_profile: tuple[float, ...] | None = None
    threshold_fraction: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "epochs", operator.index(self.epochs))
        if not 0 < self.base_mean_mbps_km2 < math.inf:  # NaN fails this too
            raise ValueError("base mean demand must be finite and positive")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must lie in (0, 1)")
        profile = self.epoch_profile
        if profile is None:
            profile = default_epoch_profile(self.epochs)
        profile = tuple(map(float, profile))
        if len(profile) != self.epochs:
            raise ValueError("epoch_profile length must match epochs")
        eps = 1e-9
        if not all(PROFILE_LOW - eps <= x <= PROFILE_HIGH + eps for x in profile):
            raise ValueError(
                f"epoch multipliers must lie in [{PROFILE_LOW}, {PROFILE_HIGH}]"
            )
        object.__setattr__(self, "epoch_profile", profile)

    def epoch_means(self) -> np.ndarray:
        return self.base_mean_mbps_km2 * np.asarray(self.epoch_profile)

    def thresholds(self) -> np.ndarray:
        return self.threshold_fraction * self.epoch_means()


def sample_traffic(
    model: TrafficModel,
    sigma: float,
    n_grids: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the (epochs, cells) demand field in Mbps/km^2 at log-scale
    `sigma`, refused as `check_sigma` refuses it.

    log demand ~ Normal(log(mean_t) - sigma^2/2, sigma^2), which makes the
    linear mean exactly mean_t.
    """
    check_sigma(sigma)
    mu = np.log(model.epoch_means()) - 0.5 * sigma**2
    z = rng.standard_normal((model.epochs, int(n_grids)))
    return np.exp(mu[:, None] + sigma * z)
