"""Exhaustive-enumeration oracles shared by the solver tests.

These deliberately re-derive every optimum from first principles
(enumerate all feasible supports / permutations) so the solvers are
checked against an independent route. The exact-size matching optima
live in `irsfleet.oracles`, where `irsfleet validate` uses them too.
`rescan_matching_with_duals` is the matching solver as it was before it
kept column minima across augmentations: the reference for bit-for-bit
equality of pairs, totals and duals. `certify_matching` checks a solve
through LP duality alone, so it scales to full-size instances.
`transition_distances` is the reference for the matrices routing solves.
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
    candidate column) in turn. Same rule as `routing._assignment_machine`,
    with no pruning; it scales to m = 10 where `best_assignment` cannot. The
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


def transition_distances(plan, layout) -> tuple[np.ndarray, np.ndarray]:
    """Planar distances between consecutive epochs' occupied sites, as a
    plan-by-plan formula: sort each epoch's sites, gather their points,
    subtract, `hypot`. Returns the (epochs - 1, m, m) matrices, rows in the
    earlier epoch's sorted site order and columns in the later one's, and
    that (epochs, m) sorted site order."""
    order = np.sort(plan.sites, axis=1)
    coords = layout.candidate_sites[order]
    diff = coords[:-1, :, None, :] - coords[1:, None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1]), order


def dyadic_matrix(rng: np.random.Generator, shape, lo=-32, hi=32, denom=16):
    """Random matrix of small dyadic rationals: float sums are exact, so
    optimal values can be compared for strict equality."""
    return rng.integers(lo * denom, hi * denom, size=shape) / denom


def rescan_matching_with_duals(cost, size: int):
    """Successive-shortest-path matching that rebuilds every free row's
    reduced costs and their column argmin at each augmentation. Same
    contract and rounding as a lone `matching.solve` request."""
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


def certify_matching(cost, pairs, u, v, k, rel_tol=1e-9) -> list[str]:
    """The conditions under which potentials (u, v) certify that `pairs` is
    a minimum-cost matching of exactly k pairs; returns those violated.

    The matching LP `min c.x` subject to row sums <= 1, column sums <= 1
    and total = k has the dual `max k*lam - sum(alpha) - sum(beta)` with
    `lam - alpha_i - beta_j <= c_ij` and alpha, beta >= 0. With `uf` the
    free rows' common potential and `vf` the free columns', `lam = uf +
    vf`, `alpha = uf - u` and `beta = vf - v` is a feasible dual when every
    reduced cost `c - u - v` is nonnegative, `u <= uf` and `v <= vf`; its
    objective equals the matched total exactly when the pairs are optimal.
    (With no free row any `uf >= max(u)` serves, and it cancels; likewise
    `vf`.) Each check allows `rel_tol` of the largest magnitude involved,
    and the objective k times that. Never calls a solver.
    """
    c = np.asarray(cost, dtype=float)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    n_rows, n_cols = c.shape
    rows = np.array([i for i, _ in pairs], dtype=int)
    cols = np.array([j for _, j in pairs], dtype=int)
    failed = []
    if not (
        len(pairs) == k
        and len(set(rows.tolist())) == k
        and len(set(cols.tolist())) == k
        and u.shape == (n_rows,)
        and v.shape == (n_cols,)
    ):
        return ["shape: not k distinct rows and columns, or potentials misfit"]
    scale = max([1.0] + [float(np.abs(a).max()) for a in (c, u, v) if a.size])
    tol = rel_tol * scale
    reduced = c - u[:, None] - v[None, :]
    if reduced.size and not reduced.min() >= -tol:
        failed.append("dual feasibility: a reduced cost is negative")
    if k and not np.abs(reduced[rows, cols]).max() <= tol:
        failed.append("complementary slackness: a matched reduced cost is not 0")
    free_rows = np.setdiff1d(np.arange(n_rows), rows)
    free_cols = np.setdiff1d(np.arange(n_cols), cols)
    uf = u[free_rows].max() if free_rows.size else u.max(initial=0.0)
    vf = v[free_cols].max() if free_cols.size else v.max(initial=0.0)
    if not (u <= uf + tol).all():
        failed.append("row potential above the free rows' potential")
    if not (v <= vf + tol).all():
        failed.append("column potential above the free columns' potential")
    dual = float(k * (uf + vf) - (uf - u).sum() - (vf - v).sum())
    total = float(c[rows, cols].sum())
    if not abs(dual - total) <= tol * max(1, k):
        failed.append(f"duality gap: dual {dual!r} against matched total {total!r}")
    return failed
