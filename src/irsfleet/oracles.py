"""Independent oracles: Monte Carlo checks of the closed-form fading
results and exhaustive optima of the matching solver.

Per-sample small-scale fading lives only here; the production path uses
expectations. The samplers are deliberately independent of the closed
forms they check (they share only `channel.rician_factor`, the rule on
the Rician factor), and the brute force enumerates every feasible support
and permutation instead of sharing any logic with the solver.
"""

import operator
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, permutations

import numpy as np

from .channel import rician_factor

__all__ = [
    "sample_rician_fading",
    "empirical_mean_amplitude",
    "empirical_cascade_amplification",
    "best_exact_size_weight",
    "best_exact_size_cost",
]


def _require_draws(count) -> None:
    if (np.asarray(count) < 1).any():
        raise ValueError("draw count must be at least 1")


def sample_rician_fading(
    k_linear: float,
    size,
    rng: np.random.Generator,
) -> np.ndarray:
    """Unit-power complex Rician coefficients: fixed dominant path plus
    circular Gaussian scatter. K = 0 degenerates to Rayleigh."""
    k = rician_factor(k_linear)
    _require_draws(size)
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
    n_draws = operator.index(n_draws)
    return float(np.abs(sample_rician_fading(k_linear, n_draws, rng)).mean())


# Draws per chunk of the cascade oracle. The chunk boundaries key the
# random streams, so changing it changes the sampled values.
_CHUNK_DRAWS = 2048
# Most draws held at once across the worker threads. Each worker keeps
# three float32 (chunk, N) buffers and samples in place; a 4096-draw chunk
# sampled with temporaries peaks at six (4096, N) arrays, so this bound
# keeps the oracle's peak memory at or below that.
_DRAWS_IN_FLIGHT = 8192


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform reports an affinity mask
        return os.cpu_count() or 1


def _core_pinner(workers: int):
    """Pool initializer giving each of `workers` threads its own core.

    A new thread starts on its creator's core, and the kernel can take a
    second or more to move one of two busy threads to an idle core, so
    unpinned threads often share one core for much of a call. Pinned, each
    thread has a core from its first chunk. None where the platform
    reports no affinity mask.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return None
    cores = queue.SimpleQueue()
    for i in range(workers):
        cores.put(allowed[i % len(allowed)])

    def pin() -> None:
        try:
            os.sched_setaffinity(0, {cores.get()})
        except OSError:  # pinning refused (the core left the mask, say): run unpinned
            pass

    return pin


class _CascadeWorker:
    """One thread's reusable float32 buffers for the cascade oracle.

    Amplitudes are drawn in units of the scatter scale s = sqrt(1/(2(1+K)))
    and in polar form: a/s = |c + R e^(i theta)| with c = sqrt(2K) the
    dominant path, R = sqrt(-2 log(1 - U1)) and theta = 2 pi U2 for
    U1, U2 ~ U[0, 1), the Box-Muller form of the circular Gaussian
    scatter. -log(1 - U1) is Exp(1) cut at 24 ln 2 ~ 16.6, since a float32
    uniform has 24 bits, so the law is Rician but for a tail of
    probability 2^-24 ~ 6e-8. (a/s)^2 is taken as (c - R)^2 +
    4cR cos^2(pi U2): both terms are nonnegative, where
    c^2 + R^2 + 2cR cos(theta) can round below zero in float32. At K = 0
    (Rayleigh) a/s is R and no phase is drawn; the polar formula would
    give R too, as sqrt(R * R) == R in binary floating point.
    """

    def __init__(self, n: int, k: float, rows: int) -> None:
        # Single-precision draws: the amplitudes feed a percent-level
        # moment check, and halving the bandwidth roughly halves the
        # runtime at large element counts. Accumulation stays in double
        # precision.
        self.c = np.float32(np.sqrt(2.0 * k))
        self.a = np.empty((rows, n), dtype=np.float32)
        self.b = np.empty_like(self.a)
        self.t = np.empty_like(self.a)
        self.s = np.empty(rows, dtype=np.float32)

    def _amplitudes(self, out: np.ndarray, rng: np.random.Generator) -> None:
        # a/s into `out`, in place: U1 into `out`, then U2 into the scratch.
        rng.random(out=out, dtype=np.float32)
        np.subtract(1, out, out=out)  # exact: 1 - U1 is a multiple of 2^-24
        np.log(out, out=out)
        out *= -2
        np.sqrt(out, out=out)  # R
        if not self.c:
            return
        t = self.t[: len(out)]
        rng.random(out=t, dtype=np.float32)
        t *= np.float32(np.pi)
        np.cos(t, out=t)
        t *= t
        t *= out
        t *= 4 * self.c  # 4cR cos^2(pi U2)
        out -= self.c
        out *= out
        out += t
        np.sqrt(out, out=out)

    def chunk_sum(self, key: int, chunk: int, rows: int) -> float:
        """sum(s**2) over one chunk's draws, s the phase-aligned product
        sum of amplitudes in scatter-scale units."""
        seed = np.random.SeedSequence([key, chunk])
        rng = np.random.Generator(np.random.PCG64(seed))
        a, b, s = self.a[:rows], self.b[:rows], self.s[:rows]
        self._amplitudes(a, rng)
        self._amplitudes(b, rng)
        np.einsum("ij,ij->i", a, b, out=s)
        return float(np.square(s, dtype=np.float64).sum())


def empirical_cascade_amplification(
    n_elements: int,
    k_linear: float,
    n_draws: int,
    rng: np.random.Generator,
) -> float:
    """Empirical E|sum_l a_l b_l|^2 with phase-aligned element products.

    a_l and b_l are independent unit-power Rician amplitudes, one pair per
    element; perfect phase compensation makes the element sum a sum of
    nonnegative amplitude products.

    The draws are split into fixed chunks. Chunk c samples from its own
    PCG64 stream keyed by (key, c), where key is one 63-bit draw from
    `rng`, so `rng` always advances by exactly one draw. A chunk draws a's
    radius uniforms, then a's phase uniforms, then b's, in polar form
    (`_CascadeWorker`); at K = 0 it draws no phase. The radius's
    exponential is cut at 24 ln 2 ~ 16.6, a tail of probability 2^-24.
    Chunks run on a pool of one thread per usable core (at most one per
    chunk and `_DRAWS_IN_FLIGHT // _CHUNK_DRAWS`), each pinned to its own
    core and taking the next chunk when idle. The chunks' double-precision
    sums are added in chunk order and scaled by s^4 = (1/(2(1+K)))^2 once,
    so the result is the same float for every thread count.
    """
    n = operator.index(n_elements)
    k = rician_factor(k_linear)
    n_draws = operator.index(n_draws)
    if n < 1:
        raise ValueError("element count must be at least 1")
    _require_draws(n_draws)
    key = int(rng.integers(2**63))
    n_chunks = -(-n_draws // _CHUNK_DRAWS)
    workers = max(1, min(_usable_cores(), n_chunks, _DRAWS_IN_FLIGHT // _CHUNK_DRAWS))

    local = threading.local()

    def chunk_sum(c: int) -> float:
        worker = getattr(local, "worker", None)
        if worker is None:
            worker = local.worker = _CascadeWorker(n, k, min(_CHUNK_DRAWS, n_draws))
        return worker.chunk_sum(key, c, min(_CHUNK_DRAWS, n_draws - c * _CHUNK_DRAWS))

    # The pool hands each chunk to the next idle thread, so a thread on a
    # core slowed by other load takes fewer chunks instead of holding up
    # a fixed share. map yields the sums in chunk order and re-raises a
    # chunk's error.
    total = 0.0
    pin = _core_pinner(workers)
    with ThreadPoolExecutor(max_workers=workers, initializer=pin) as pool:
        for part in pool.map(chunk_sum, range(n_chunks)):
            total += part
    return total * (0.5 / (1.0 + k)) ** 2 / float(n_draws)


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
