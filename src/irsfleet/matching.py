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
round's requests in stacks of at most `STACK_CELLS` cost cells. A lone
solve is one request to `Stacker.solve`, or a stack of one.

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

A stack of B problems shares one (B, rows, cols) array; problem b owns its
first `n_rows[b]` rows and asks for `sizes[b]` pairs. Each element's pairs,
total and potentials are those of solving it alone, whatever else is in
the stack, because:

- Rows past a problem's own count are padding, whatever they hold. They
  are never free, and every read of them is masked to +inf, so a padding
  row never sets a column minimum, never starts a path and, never being
  matched, never lies on one. A problem of size 0 is all padding.
- Each problem has its own shift, the least of its own entries and zero.
- Every Dijkstra step runs on the whole stack. A problem that has found
  its free column, or needs no more augmentations, is masked out of every
  write: its step reads and writes one spare padding row below the stack,
  whose +inf costs improve no column. So its state is what it would be
  alone.
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
# stacks win until padding and row copies dominate: on the 17x17 grid,
# 2**17 loses to one stack per unit, and 2**19 holds six units at once
# for ~10 MiB more peak memory. Not a knob: CHANGES.md has the table.
STACK_CELLS = 2**18


def min_cost_matching_batch(
    cost, n_rows, sizes
) -> list[tuple[list[tuple[int, int]], float, np.ndarray, np.ndarray]]:
    """Minimum-total-cost matchings of every problem in a stack, in one
    solve, with the solver's final dual potentials (u, v).

    `cost` is (B, rows, cols); problem b is `cost[b, :n_rows[b]]` matched
    with exactly `sizes[b]` pairs, and the rows below it are ignored.
    Returns one (pairs, total, u, v) per problem, equal bit for bit to its
    solve in a stack of one. Pairs come sorted by row, and the total is
    over the caller's matrix. Every argmin prefers the lowest index, so a
    fully tied matrix takes the diagonal prefix. u has `n_rows[b]` entries.
    For size >= 1 the reduced costs `cost[i, j] - u[i] - v[j]` are
    nonnegative everywhere and zero on the matched pairs (up to rounding),
    so for a full square matching `u.sum() + v.sum()` is the total. For
    size 0 both potentials are zero.

    Raises ValueError for a non-stack, a row count that does not fit, an
    infeasible size, or a non-finite entry in a problem of positive size.
    """
    c_in = np.asarray(cost, dtype=float)
    if c_in.ndim != 3:
        raise ValueError("cost must be a (problems, rows, cols) stack")
    n_batch, height, n_cols = c_in.shape
    n_rows = np.asarray(n_rows, dtype=int)
    sizes = np.asarray(sizes, dtype=int)
    if n_rows.shape != (n_batch,) or sizes.shape != (n_batch,):
        raise ValueError("need one row count and one match size per problem")
    if ((n_rows < 0) | (n_rows > height)).any():
        raise ValueError(f"row counts must lie in [0, {height}]")
    infeasible = np.flatnonzero((sizes < 0) | (sizes > np.minimum(n_rows, n_cols)))
    if infeasible.size:
        b = infeasible[0]
        raise ValueError(
            f"match size {sizes[b]} infeasible for {n_rows[b]}x{n_cols} costs"
        )

    # Rows of size-0 problems are padding too: such a problem is solved.
    real = np.arange(height) < np.where(sizes > 0, n_rows, 0)[:, None]
    # A real row's least and greatest entries are finite iff all its
    # entries are; NaN propagates into both.
    row_low = c_in.min(axis=2, initial=np.inf)
    row_high = c_in.max(axis=2, initial=-np.inf)
    if not ((np.isfinite(row_low) & np.isfinite(row_high)) | ~real).all():
        raise ValueError("cost entries must be finite")
    least = np.where(real, row_low, np.inf).min(axis=1, initial=np.inf)
    shift = np.minimum(0.0, least)[:, None]
    # The shifted cost c = c_in - shift is read row by row or column by
    # column, never stored whole. Rounding is monotone, so a least shifted
    # cost is the least cost, shifted.
    col_min = np.minimum.reduce(
        c_in, axis=1, where=real[:, :, None], initial=np.inf
    ) - shift

    # Row-indexed state has one spare row below the stack, where the row
    # writes of problems that have stopped searching land.
    ar = np.arange(n_batch)
    u = np.zeros((n_batch, height + 1))
    v = np.zeros((n_batch, n_cols))
    row_match = np.full((n_batch, height), -1)
    col_match = np.full((n_batch, n_cols), -1)
    free = np.zeros((n_batch, height + 1), dtype=bool)
    free[:, :height] = real  # padding rows are never free
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
        col_min[held, stale] = np.minimum.reduce(
            c_in[held, :, stale], axis=1, where=free[held, :height], initial=np.inf
        ) - shift[held, 0]

    # Every problem's pairs in row order, problem after problem.
    owner, rows = (row_match >= 0).nonzero()
    cols = row_match[owner, rows]
    pairs = list(zip(rows.tolist(), cols.tolist()))
    matched = c_in[owner, rows, cols]
    # Potentials of the shifted matrix; moving the shift into u makes them
    # potentials of the caller's matrix with the same reduced costs.
    u = u[:, :height] + shift
    ends = np.cumsum(sizes).tolist()
    results = []
    for b, (start, end) in enumerate(zip([0] + ends, ends)):
        total = float(matched[start:end].sum())
        results.append((pairs[start:end], total, u[b, : n_rows[b]], v[b]))
    return results


class Stacker:
    """Solves matching machines' requests in stacks of at most `STACK_CELLS`
    cost cells, reusing one buffer for every stack it builds.

    A sweep keeps one for its whole run, so its stacks are not allocated
    and paged in afresh for every round.
    """

    def __init__(self):
        self._buffer = np.zeros(0)

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
        one). Every result equals its lone solve bit for bit, so the
        stacking changes no value.
        """
        counts = [len(m) if rows is None else len(rows) for m, rows, _ in requests]
        by_cols: dict[int, list[int]] = {}
        for k, (matrix, _, _) in enumerate(requests):
            by_cols.setdefault(matrix.shape[1], []).append(k)
        results = [None] * len(requests)
        for n_cols, members in by_cols.items():
            members.sort(key=lambda k: -counts[k])
            while members:
                most = counts[members[0]]
                height = max(1, STACK_CELLS // max(1, most * n_cols))
                chunk, members = members[:height], members[height:]
                stack = self._stack(len(chunk), most, n_cols)
                for b, k in enumerate(chunk):
                    matrix, rows, _ = requests[k]
                    if rows is None:
                        stack[b, : counts[k]] = matrix
                    else:
                        # "clip" writes straight into the stack; "raise"
                        # would gather into a buffer first. Row lists hold
                        # row indices.
                        out = stack[b, : counts[k]]
                        np.take(matrix, rows, axis=0, out=out, mode="clip")
                    stack[b, counts[k] :] = 0.0
                solved = min_cost_matching_batch(
                    stack, [counts[k] for k in chunk], [requests[k][2] for k in chunk]
                )
                for k, result in zip(chunk, solved):
                    results[k] = result
        return results

    def _stack(self, height: int, rows: int, cols: int) -> np.ndarray:
        """A (height, rows, cols) view of the buffer, grown when too small."""
        cells = height * rows * cols
        if self._buffer.size < cells:
            self._buffer = np.empty(cells)
        return self._buffer[:cells].reshape(height, rows, cols)


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
