"""Exhaustive-enumeration oracles shared by the solver tests.

These deliberately re-derive every optimum from first principles
(enumerate all feasible supports / permutations) so the solvers are
checked against an independent route. The exact-size matching optima
live in `irsfleet.oracles`, where `irsfleet validate` uses them too.
"""

from itertools import permutations

import numpy as np

from irsfleet.matching import min_cost_matching
from irsfleet.oracles import (  # noqa: F401  (re-exported for the tests)
    best_exact_size_cost,
    best_exact_size_weight,
)


def best_assignment(cost) -> tuple[tuple[int, ...], float]:
    """Min-cost full permutation and its value; ties resolved to the
    lexicographically smallest permutation."""
    c = np.asarray(cost, dtype=float)
    m = c.shape[0]
    best_perm: tuple[int, ...] | None = None
    best_total = np.inf
    for perm in permutations(range(m)):  # lexicographic iteration order
        total = float(sum(c[i, perm[i]] for i in range(m)))
        if total < best_total:
            best_total = total
            best_perm = perm
    assert best_perm is not None
    return best_perm, best_total


def lexmin_assignment_by_resolves(cost) -> tuple[np.ndarray, float]:
    """Lexicographically smallest permutation within `1e-9 * max(1, optimum)`
    of the optimum, found by re-solving the completion of every (row,
    candidate column) in turn. Same rule as `min_cost_assignment`, with no
    pruning; it scales to m = 10 where `best_assignment` cannot."""
    c = np.asarray(cost, dtype=float)
    m = c.shape[0]
    _, best = min_cost_matching(c, m)
    tol = 1e-9 * max(1.0, abs(best))
    perm = np.full(m, -1, dtype=int)
    available = list(range(m))
    prefix = 0.0
    for i in range(m):
        rest_rows = np.arange(i + 1, m)
        for pos, j in enumerate(available):
            rest_cols = available[:pos] + available[pos + 1 :]
            sub = c[np.ix_(rest_rows, np.asarray(rest_cols, dtype=int))]
            _, completion = min_cost_matching(sub, m - i - 1)
            if prefix + c[i, j] + completion <= best + tol:
                perm[i] = j
                prefix += c[i, j]
                available.pop(pos)
                break
        else:
            raise AssertionError("no column extends an optimal prefix")
    return perm, float(c[np.arange(m), perm].sum())


def best_assignment_value(cost) -> float:
    """Min-cost permutation value via vectorized full enumeration."""
    c = np.asarray(cost, dtype=float)
    m = c.shape[0]
    perms = np.array(list(permutations(range(m))))
    totals = c[np.arange(m)[None, :], perms].sum(axis=1)
    return float(totals.min())


def best_transition_chain(transition_matrices) -> float:
    """Min total cost over independent per-transition permutations,
    enumerated jointly (the trajectory middle-leg optimum)."""
    from itertools import product

    sizes = [np.asarray(v) for v in transition_matrices]
    m = sizes[0].shape[0]
    perms = list(permutations(range(m)))
    best = np.inf
    for combo in product(perms, repeat=len(sizes)):
        total = 0.0
        for v, perm in zip(sizes, combo):
            total += float(sum(v[j, perm[j]] for j in range(m)))
        best = min(best, total)
    return float(best)


def dyadic_matrix(rng: np.random.Generator, shape, lo=-32, hi=32, denom=16):
    """Random matrix of small dyadic rationals: float sums are exact, so
    optimal values can be compared for strict equality."""
    return rng.integers(lo * denom, hi * denom, size=shape) / denom
