"""Independent oracles: Monte Carlo checks of the closed-form fading
results and exhaustive optima of the matching solver.

Per-sample small-scale fading lives only here; the production path uses
expectations. The samplers are deliberately independent of the closed
forms they check, and the brute force enumerates every feasible support
and permutation instead of sharing any logic with the solver.
"""

from itertools import combinations, permutations

import numpy as np

__all__ = [
    "sample_rician_fading",
    "empirical_mean_amplitude",
    "empirical_cascade_amplification",
    "best_exact_size_weight",
    "best_exact_size_cost",
]


def sample_rician_fading(
    k_linear: float,
    size,
    rng: np.random.Generator,
) -> np.ndarray:
    """Unit-power complex Rician coefficients: fixed dominant path plus
    circular Gaussian scatter. K = 0 degenerates to Rayleigh."""
    k = float(k_linear)
    if k < 0:
        raise ValueError("Rician factor must be nonnegative")
    dominant = np.sqrt(k / (1.0 + k))
    scatter_scale = np.sqrt(1.0 / (2.0 * (1.0 + k)))
    scatter = scatter_scale * (
        rng.standard_normal(size) + 1j * rng.standard_normal(size)
    )
    return dominant + scatter


def empirical_mean_amplitude(
    k_linear: float,
    n_draws: int,
    rng: np.random.Generator,
) -> float:
    """Sample mean of |h| for unit-power Rician h."""
    return float(np.abs(sample_rician_fading(k_linear, int(n_draws), rng)).mean())


def _rician_amplitudes(k: float, size, rng: np.random.Generator) -> np.ndarray:
    # Single-precision draws: the amplitudes feed a percent-level moment
    # check, and halving the bandwidth roughly halves the runtime at
    # large element counts. Accumulation stays in double precision.
    dominant = np.float32(np.sqrt(k / (1.0 + k)))
    scale = np.float32(np.sqrt(1.0 / (2.0 * (1.0 + k))))
    re = dominant + scale * rng.standard_normal(size, dtype=np.float32)
    im = scale * rng.standard_normal(size, dtype=np.float32)
    return np.sqrt(re * re + im * im)


def empirical_cascade_amplification(
    n_elements: int,
    k_linear: float,
    n_draws: int,
    rng: np.random.Generator,
    chunk_draws: int = 4096,
) -> float:
    """Empirical E|sum_l a_l b_l|^2 with phase-aligned element products.

    a_l and b_l are independent unit-power Rician amplitudes, one pair per
    element; perfect phase compensation makes the element sum a sum of
    nonnegative amplitude products. Chunked to bound memory at large N.
    """
    n = int(n_elements)
    k = float(k_linear)
    if k < 0:
        raise ValueError("Rician factor must be nonnegative")
    total = 0.0
    remaining = int(n_draws)
    while remaining > 0:
        block = min(chunk_draws, remaining)
        a = _rician_amplitudes(k, (block, n), rng)
        b = _rician_amplitudes(k, (block, n), rng)
        s = np.einsum("ij,ij->i", a, b).astype(np.float64)
        total += float(np.square(s).sum())
        remaining -= block
    return total / float(n_draws)


def best_exact_size_weight(weights, size: int) -> float:
    """Max total weight over matchings with exactly `size` pairs."""
    w = np.asarray(weights, dtype=float)
    rows, cols = w.shape
    if size == 0:
        return 0.0
    best = -np.inf
    for rsel in combinations(range(rows), size):
        for csel in combinations(range(cols), size):
            for perm in permutations(csel):
                total = sum(w[r, c] for r, c in zip(rsel, perm))
                if total > best:
                    best = total
    return float(best)


def best_exact_size_cost(cost, size: int) -> float:
    """Min total cost over matchings with exactly `size` pairs."""
    return -best_exact_size_weight(-np.asarray(cost, dtype=float), size)
