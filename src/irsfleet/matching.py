"""Exact minimum-cost bipartite matching of a prescribed size.

Dense successive-shortest-augmenting-path (SSP) solver with dual
potentials, run over a stack of independent problems at once. Costs may be
negative and the matrices rectangular; the match count is fixed by the
caller, which is exactly what the placement problem needs (a set number of
units in service) and what the trajectory step needs (a full permutation).
With the count fixed, shifting all costs by a constant never changes the
argmin, so negative costs are handled by a one-off shift. The solver's
final dual potentials are exposed too: the trajectory step settles most of
its lexicographic tie-break from them, and re-solves only the rest.

Callers that need many solves write them as matching machines: generators
that yield a list of requests, each `(matrix, rows, size)` asking for an
exact size-`size` matching of `matrix[rows]` (every row when `rows` is
None), and are sent back one `min_cost_matching_batch` result per request.
A machine's return value is its answer. `gather` runs many machines in
lockstep as one, so each round stacks every request still pending:
placement epochs, transition dual solves and tie-break confirmations of a
whole block of units. `Stacker.run` drives a machine, solving each
round's requests in stacks of at most `STACK_CELLS` cost cells over one
matrix: the one a round's requests name (a sweep's placement cost), or
their distinct matrices stacked (routing's). A lone solve is one request
to `Stacker.solve`, or a table of one.

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

A stack of B problems is one matrix and a (B, rows) table of row indices,
gathered once into a dense (B, rows, cols) array that the Dijkstra steps
read; rows past a problem's count (padding) repeat its first row. Each
element's pairs, total and potentials are those of its lone solve:

- A padding row repeats a listed row, so it changes no column minimum.
  It is never free, so it never starts a path and, never being matched,
  never lies on one. A problem of size 0 is not stacked at all.
- Each problem has its own shift, the least of its own entries and zero.
- Every Dijkstra step runs on the whole stack. A problem that has found
  its free column, or needs no more augmentations, is masked out of every
  write: its step reads +inf costs and writes one spare row below the
  stack. So its state is what it would be alone.
- The float operations, and their order, are those of a lone solve: a
  relaxation is `path_len + c[i] - u[i] - v`; the potential update is
  `v += min(dist, path_len)` and `u -= min(row_dist, path_len)`; the
  source pick reads `c[free, j] - free_u - v[j]`. Column minima are exact,
  so refreshing a column for every problem in the stack changes none that
  was still current.
"""

import numpy as np

__all__ = [
    "STACK_CELLS",
    "min_cost_matching_batch",
    "Stacker",
    "gather",
]

# Most cost cells one stack holds, counted as height x most rows x cols.
# A sweep block holds at most this many cells of placement cost too
# (`harness._TrialEngine.block_units`). A larger single problem or unit
# still runs alone. A lone small solve is mostly call overhead, so taller
# stacks win until gathering padded stacks dominates: on the 17x17 grid,
# 2**17 loses to one stack per unit, and 2**19 holds six units at once
# for ~10 MiB more peak memory. Not a knob: CHANGES.md has the table.
STACK_CELLS = 2**18


def min_cost_matching_batch(
    cost, index, n_rows, sizes
) -> list[tuple[list[tuple[int, int]], float, np.ndarray, np.ndarray]]:
    """Minimum-total-cost matchings of every problem over one matrix, in
    one solve, with the solver's final dual potentials (u, v).

    `cost` is (R, cols); problem b is `cost[index[b, :n_rows[b]]]`, rows
    in any order, matched with exactly `sizes[b]` pairs, and the rest of
    its `index` row is ignored. Returns one (pairs, total, u, v) per
    problem, equal bit for bit to its solve in a table of one. Pairs come
    sorted by row, and the total is over the caller's matrix. Every argmin
    prefers the lowest index, so a fully tied matrix takes the diagonal
    prefix. u has `n_rows[b]` entries. For size >= 1 the reduced costs
    `cost[i, j] - u[i] - v[j]` are nonnegative everywhere and zero on the
    matched pairs (up to rounding), so for a full square matching
    `u.sum() + v.sum()` is the total. For size 0 both potentials are zero.

    Raises ValueError for a non-matrix or non-table, a row count that does
    not fit, a listed row outside the matrix, an infeasible size, or a
    non-finite entry in a row that a problem of positive size lists.
    """
    c_in = np.asarray(cost, dtype=float)
    index = np.asarray(index, dtype=int)
    if c_in.ndim != 2 or index.ndim != 2:
        raise ValueError("need a (rows, cols) matrix and a (problems, rows) table")
    n_batch, height = index.shape
    n_cols = c_in.shape[1]
    n_rows = np.asarray(n_rows, dtype=int)
    sizes = np.asarray(sizes, dtype=int)
    if n_rows.shape != (n_batch,) or sizes.shape != (n_batch,):
        raise ValueError("need one row count and one match size per problem")
    if ((n_rows < 0) | (n_rows > height)).any():
        raise ValueError(f"row counts must lie in [0, {height}]")
    listed = np.arange(height) < n_rows[:, None]
    if ((index < 0) | (index >= len(c_in)))[listed].any():
        raise ValueError(f"row indices must lie in [0, {len(c_in)})")
    infeasible = np.flatnonzero((sizes < 0) | (sizes > np.minimum(n_rows, n_cols)))
    if infeasible.size:
        b = infeasible[0]
        raise ValueError(
            f"match size {sizes[b]} infeasible for {n_rows[b]}x{n_cols} costs"
        )

    # A problem of size 0 is solved as it stands; only the rest are stacked.
    results = [None] * n_batch
    for b in np.flatnonzero(sizes == 0).tolist():
        results[b] = ([], 0.0, np.zeros(n_rows[b]), np.zeros(n_cols))
    live = np.flatnonzero(sizes > 0)
    listed, n_rows, sizes, n_batch = listed[live], n_rows[live], sizes[live], live.size
    # Padding rows repeat their problem's first row, so a stack reads only
    # listed rows and a column's least entry is its least over them.
    index = np.where(listed, index[live], index[live, :1])
    # A row's least and greatest entries are finite iff all its entries
    # are; NaN propagates into both.
    row_low = c_in.min(axis=1, initial=np.inf)
    row_high = c_in.max(axis=1, initial=-np.inf)
    if not (np.isfinite(row_low) & np.isfinite(row_high))[index].all():
        raise ValueError("cost entries must be finite")
    shift = np.minimum(0.0, row_low[index].min(axis=1, initial=np.inf))[:, None]
    # The stack, gathered once. The shifted cost c = c_in - shift is read
    # row by row or column by column, never stored whole. Rounding is
    # monotone, so a least shifted cost is the least cost, shifted.
    c_in = c_in[index]
    col_min = c_in.min(axis=1, initial=np.inf) - shift

    # Row-indexed state has one spare row below the stack, where the row
    # writes of problems that have stopped searching land.
    ar = np.arange(n_batch)
    u = np.zeros((n_batch, height + 1))
    v = np.zeros((n_batch, n_cols))
    row_match = np.full((n_batch, height), -1)
    col_match = np.full((n_batch, n_cols), -1)
    free = np.zeros((n_batch, height + 1), dtype=bool)
    free[:, :height] = listed  # padding rows are never free
    parent = np.empty((n_batch, n_cols), dtype=int)
    unscanned = np.empty((n_batch, n_cols), dtype=bool)
    end_col = np.zeros(n_batch, dtype=int)
    path_len = np.zeros(n_batch)

    for k in range(sizes.max(initial=0)):
        active = sizes > k  # problems that still augment
        # Multi-source shortest path over columns: any free row is a
        # source, and all of them share one potential.
        free_u = u[ar, free.argmax(axis=1)]
        dist = col_min - free_u[:, None] - v
        parent.fill(-1)  # -1: reached straight from a free row
        row_dist = np.where(free, 0.0, np.inf)
        unscanned.fill(True)

        searching = active.copy()
        while True:
            masked = np.where(unscanned, dist, np.inf)
            j = masked.argmin(axis=1)
            step = masked[ar, j]
            unscanned[ar, j] = False
            # Row -1 is the spare row of u and row_dist.
            i = np.where(searching, col_match[ar, j], -1)
            np.copyto(end_col, j, where=searching)
            np.copyto(path_len, step, where=searching)
            searching &= i >= 0
            if not np.count_nonzero(searching):
                break
            # Matched column: continue through its row (tight back edge).
            row_dist[ar, i] = step
            # A problem that is not searching relaxes +inf: no improvement.
            c_row = np.where(searching[:, None], c_in[ar, i] - shift, np.inf)
            relaxed = step[:, None] + c_row - u[ar, i][:, None] - v
            improve = (relaxed < dist) & unscanned
            np.copyto(dist, relaxed, where=improve)
            np.copyto(parent, i[:, None], where=improve)

        first = end_col.copy()
        solving = active.nonzero()[0]
        for b in solving.tolist():
            j = first.item(b)
            i = parent.item(b, j)
            while i >= 0:  # a matched row moves onto column j
                previous = row_match.item(b, i)
                row_match[b, i] = j
                col_match[b, j] = i
                j = previous
                i = parent.item(b, j)
            first[b] = j
        # The path starts at the lowest free row among the least reduced
        # costs of its first column, the row a full rescan would pick.
        c_col = c_in[ar, :, first] - shift
        reduced = c_col - free_u[:, None] - v[ar, first][:, None]
        source = np.where(free[:, :height], reduced, np.inf).argmin(axis=1)[solving]
        row_match[solving, source] = first[solving]
        col_match[solving, first[solving]] = source

        # Potential update capped at the path length keeps every residual
        # reduced cost nonnegative and the matched edges tight.
        cap = path_len[:, None]
        np.add(v, np.minimum(dist, cap), out=v, where=active[:, None])
        np.subtract(u, np.minimum(row_dist, cap), out=u, where=active[:, None])

        # Only the columns whose minimum a source row held can change.
        free[solving, source] = False
        c_row = c_in[solving, source] - shift[solving]
        held, stale = (c_row == col_min[solving]).nonzero()
        held = solving[held]
        col_min[held, stale] = np.where(
            free[held, :height], c_in[held, :, stale], np.inf
        ).min(axis=1) - shift[held, 0]

    # Every problem's pairs in row order, problem after problem.
    owner, rows = (row_match >= 0).nonzero()
    cols = row_match[owner, rows]
    pairs = list(zip(rows.tolist(), cols.tolist()))
    matched = c_in[owner, rows, cols]
    # Potentials of the shifted matrix; moving the shift into u makes them
    # potentials of the caller's matrix with the same reduced costs.
    u = u[:, :height] + shift
    ends = np.cumsum(sizes).tolist()
    for b, (start, end) in enumerate(zip([0] + ends, ends)):
        total = float(matched[start:end].sum())
        results[live[b]] = (pairs[start:end], total, u[b, : n_rows[b]], v[b])
    return results


class Stacker:
    """Solves matching machines' requests in stacks of at most `STACK_CELLS`
    cost cells."""

    def run(self, machine):
        """Drive a matching machine to its answer, one `solve` per round."""
        solved = None
        while True:
            try:
                requests = machine.send(solved)
            except StopIteration as stop:
                return stop.value
            solved = self.solve(requests)

    def solve(self, requests) -> list:
        """One `min_cost_matching_batch` result per `(matrix, rows, size)`
        request.

        Requests with one column count share stacks, tallest first, each
        stack holding as many as fit in `STACK_CELLS` cells (at least
        one), indexing their one matrix uncopied or their distinct ones
        stacked. Every result equals its lone solve bit for bit, so the
        stacking changes no value.
        """
        counts = [len(m) if rows is None else len(rows) for m, rows, _ in requests]
        by_cols: dict[int, list[int]] = {}
        for k, (matrix, _, _) in enumerate(requests):
            by_cols.setdefault(matrix.shape[1], []).append(k)
        results = [None] * len(requests)
        for n_cols, members in by_cols.items():
            mats = list({id(requests[k][0]): requests[k][0] for k in members}.values())
            matrix = mats[0] if len(mats) == 1 else np.concatenate(mats)
            ends = np.cumsum([len(m) for m in mats]).tolist()
            start = {id(m): end - len(m) for m, end in zip(mats, ends)}
            members.sort(key=lambda k: -counts[k])
            while members:
                most = counts[members[0]]
                height = max(1, STACK_CELLS // max(1, most * n_cols))
                chunk, members = members[:height], members[height:]
                n_rows = np.array([counts[k] for k in chunk])
                first = [start[id(requests[k][0])] for k in chunk]
                index = np.add.outer(first, np.arange(most))  # every row, in order
                for b, k in enumerate(chunk):
                    if requests[k][1] is not None:
                        index[b, : counts[k]] = first[b] + np.asarray(requests[k][1])
                solved = min_cost_matching_batch(
                    matrix, index, n_rows, [requests[k][2] for k in chunk]
                )
                for k, result in zip(chunk, solved):
                    results[k] = result
        return results


def gather(machines):
    """A matching machine that runs `machines` in lockstep.

    Each round it yields the requests of every machine still running, in
    machine order, as one list, and hands each machine its own results.
    It returns the machines' answers in order.
    """
    machines = list(machines)
    answers = [None] * len(machines)
    sends = [(k, None) for k in range(len(machines))]
    while sends:
        asked = []
        for k, sent in sends:
            try:
                asked.append((k, machines[k].send(sent)))
            except StopIteration as stop:
                answers[k] = stop.value
        if not asked:
            break
        solved = yield [request for _, requests in asked for request in requests]
        sends, start = [], 0
        for k, requests in asked:
            sends.append((k, solved[start : start + len(requests)]))
            start += len(requests)
    return answers
