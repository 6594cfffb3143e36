"""Exact minimum-cost bipartite matching of a prescribed size.

Dense successive-shortest-augmenting-path solver with dual potentials.
Costs may be negative and the matrix rectangular; the match count is fixed
by the caller, which is exactly what the placement problem needs (a set
number of units in service) and what the trajectory step needs (a full
permutation). With the count fixed, shifting all costs by a constant never
changes the argmin, so negative costs are handled by a one-off shift.
The solver's final dual potentials are exposed too: the trajectory step
settles most of its lexicographic tie-break from them without re-solving.

Every augmentation starts its shortest-path search from all free rows at
once, so each column begins at its least reduced cost over the free rows.
The solver keeps each column's minimum of the (shifted) cost over the free
rows for the whole solve, and after an augmentation recomputes only the
columns whose minimum its newly matched row may have held. That is exact,
bit for bit, because every free row carries the same potential: all rows
start at zero, each free row is a source at distance zero and so receives
the same update, and a matched row never becomes free again. That holds
also when rounding makes a path length come out just below zero, which
moves the common potential off zero (`tests/test_matching.py` builds such
a matrix). For a common potential `uf`, rounding is monotone, so
`min_r fl(fl(c[r, j] - uf) - v[j]) == fl(fl(min_r c[r, j] - uf) - v[j])`.
Rounding can make distinct costs tie, so the one free row that starts the
augmenting path is picked from its column's reduced costs, exactly as a
full rescan would pick it (lowest index among the least).
"""

import numpy as np

__all__ = ["min_cost_matching", "min_cost_matching_with_duals"]


def min_cost_matching(cost, size: int) -> tuple[list[tuple[int, int]], float]:
    """Minimum-total-cost matching with exactly `size` row/column pairs.

    Returns (pairs sorted by row, total cost of the original matrix).
    Deterministic: every argmin prefers the lowest index, so fully tied
    inputs select the diagonal prefix (lowest row/column pairs first).

    Raises ValueError for a non-matrix, non-finite entries, or
    size > min(shape).
    """
    pairs, total, _, _ = min_cost_matching_with_duals(cost, size)
    return pairs, total


def min_cost_matching_with_duals(
    cost, size: int
) -> tuple[list[tuple[int, int]], float, np.ndarray, np.ndarray]:
    """`min_cost_matching` plus the solver's final dual potentials (u, v).

    For size >= 1 the reduced costs `cost[i, j] - u[i] - v[j]` are
    nonnegative everywhere and zero on the matched pairs (up to rounding),
    so for a full square matching `u.sum() + v.sum()` is the total. For
    size 0 both potentials are zero.
    """
    c_in = np.asarray(cost, dtype=float)
    if c_in.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    n_rows, n_cols = c_in.shape
    if not 0 <= size <= min(n_rows, n_cols):
        raise ValueError(f"match size {size} infeasible for {n_rows}x{n_cols} costs")
    if size == 0:
        return [], 0.0, np.zeros(n_rows), np.zeros(n_cols)
    if not np.isfinite(c_in).all():
        raise ValueError("cost entries must be finite")

    shift = min(float(c_in.min()), 0.0)
    c = c_in - shift

    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    row_match = np.full(n_rows, -1, dtype=int)
    col_match = np.full(n_cols, -1, dtype=int)
    free_rows = np.arange(n_rows)
    col_min = c.min(axis=0)  # each column's least cost over the free rows
    parent = np.empty(n_cols, dtype=int)
    row_dist = np.empty(n_rows)
    scanned = np.empty(n_cols, dtype=bool)

    for _ in range(size):
        # Multi-source shortest path over columns: any free row is a source,
        # and all of them share one potential.
        free_u = u[free_rows[0]]
        dist = col_min - free_u - v
        parent.fill(-1)  # -1: reached straight from a free row
        row_dist.fill(np.inf)
        row_dist[free_rows] = 0.0
        scanned.fill(False)

        while True:
            masked = np.where(scanned, np.inf, dist)
            j = int(masked.argmin())
            path_len = float(masked[j])
            scanned[j] = True
            i = int(col_match[j])
            if i < 0:
                end_col = j
                break
            # Matched column: continue through its row (tight back edge).
            row_dist[i] = path_len
            relaxed = path_len + c[i] - u[i] - v
            improve = ~scanned & (relaxed < dist)
            dist[improve] = relaxed[improve]
            parent[improve] = i

        j = end_col
        i = int(parent[j])
        while i >= 0:  # a matched row moves onto column j
            previous = int(row_match[i])
            row_match[i] = j
            col_match[j] = i
            j = previous
            i = int(parent[j])
        # The path starts at the lowest free row among the least reduced
        # costs of its first column, the row a full rescan would pick.
        source = int(free_rows[(c[free_rows, j] - free_u - v[j]).argmin()])
        row_match[source] = j
        col_match[j] = source

        # Potential update capped at the path length keeps every residual
        # reduced cost nonnegative and the matched edges tight.
        v += np.minimum(dist, path_len)
        u -= np.minimum(row_dist, path_len)

        # Only the columns whose minimum the source row held can change.
        free_rows = free_rows[free_rows != source]
        if free_rows.size:
            stale = np.flatnonzero(c[source] == col_min)
            col_min[stale] = c[free_rows[:, None], stale].min(axis=0)

    rows = np.flatnonzero(row_match >= 0)
    pairs = [(int(i), int(row_match[i])) for i in rows]
    total = float(c_in[rows, row_match[rows]].sum())
    # Potentials of the shifted matrix; moving the shift into u makes them
    # potentials of the caller's matrix with the same reduced costs.
    return pairs, total, u + shift, v
