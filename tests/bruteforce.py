"""Exhaustive-enumeration oracles shared by the solver tests.

These deliberately re-derive every optimum from first principles
(enumerate all feasible supports / permutations) so the solvers are
checked against an independent route. The exact-size matching optima
live in `irsfleet.oracles`, where `irsfleet validate` uses them too.
`rescan_matching_with_duals` is the matching solver as it was before it
kept column minima across augmentations: the reference for bit-for-bit
equality of pairs, totals and duals.
"""

from itertools import permutations

import numpy as np

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
    pruning; it scales to m = 10 where `best_assignment` cannot. The
    optimum and every completion come from `rescan_matching_with_duals`,
    not from the solver under test."""
    c = np.asarray(cost, dtype=float)
    m = c.shape[0]
    _, best, _, _ = rescan_matching_with_duals(c, m)
    tol = 1e-9 * max(1.0, abs(best))
    perm = np.full(m, -1, dtype=int)
    available = list(range(m))
    prefix = 0.0
    for i in range(m):
        rest_rows = np.arange(i + 1, m)
        for pos, j in enumerate(available):
            rest_cols = available[:pos] + available[pos + 1 :]
            sub = c[np.ix_(rest_rows, np.asarray(rest_cols, dtype=int))]
            _, completion, _, _ = rescan_matching_with_duals(sub, m - i - 1)
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


def rescan_matching_with_duals(cost, size: int):
    """Successive-shortest-path matching that rebuilds every free row's
    reduced costs and their column argmin at each augmentation. Same
    contract and rounding as `min_cost_matching_with_duals`."""
    c_in = np.asarray(cost, dtype=float)
    n_rows, n_cols = c_in.shape
    if size == 0:
        return [], 0.0, np.zeros(n_rows), np.zeros(n_cols)
    shift = min(float(c_in.min()), 0.0)
    c = c_in - shift

    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    row_match = np.full(n_rows, -1, dtype=int)
    col_match = np.full(n_cols, -1, dtype=int)
    columns = np.arange(n_cols)

    for _ in range(size):
        free_rows = np.flatnonzero(row_match < 0)
        reduced = c[free_rows] - u[free_rows][:, None] - v[None, :]
        best = reduced.argmin(axis=0)
        dist = reduced[best, columns]
        parent = free_rows[best]
        row_dist = np.full(n_rows, np.inf)
        row_dist[free_rows] = 0.0
        scanned = np.zeros(n_cols, dtype=bool)

        while True:
            masked = np.where(scanned, np.inf, dist)
            j = int(masked.argmin())
            path_len = float(masked[j])
            scanned[j] = True
            i = int(col_match[j])
            if i < 0:
                end_col = j
                break
            row_dist[i] = path_len
            relaxed = path_len + c[i] - u[i] - v
            improve = ~scanned & (relaxed < dist)
            dist[improve] = relaxed[improve]
            parent[improve] = i

        v += np.minimum(dist, path_len)
        u -= np.minimum(row_dist, path_len)

        j = end_col
        while True:
            i = int(parent[j])
            previous = int(row_match[i])
            row_match[i] = j
            col_match[j] = i
            if previous < 0:
                break
            j = previous

    rows = np.flatnonzero(row_match >= 0)
    pairs = [(int(i), int(row_match[i])) for i in rows]
    total = float(c_in[rows, row_match[rows]].sum())
    return pairs, total, u + shift, v
