"""Exact minimum-cost bipartite matching of a prescribed size.

Dense successive-shortest-augmenting-path (SSP) solver with dual
potentials, run over a stack of independent problems at once. Costs may be
negative and the matrices rectangular; the match count is fixed by the
caller, which is exactly what the placement problem needs (a set number of
units in service) and what the trajectory step needs (a full permutation).
With the count fixed, shifting all costs by a constant never changes the
argmin, so negative costs are handled by a one-off shift. The solver's
final dual potentials are exposed too: the trajectory step settles its
lexicographic tie-break from them, and re-solves a candidate only when
its tight detour misses the tolerance.

Callers that need many solves write them as matching machines: generators
that yield a list of requests, each `(matrix, rows, size)` asking for an
exact size-`size` matching of `matrix[rows]` (every row when `rows` is
None), and are sent back one `solve` result per request. A machine's
return value is its answer. `gather` runs many machines in lockstep as
one, so each round stacks every request still pending: placement epochs,
transition dual solves and the tie-break re-solves of a whole block of
units, which run only when a tight detour misses the tolerance. `run`
drives a machine, handing each round to `solve`, the one way into the
solver. `solve` checks each request against its own matrix, then solves
the round in stacks of one width, each of at most `STACK_CELLS` cells of
solver state and over one matrix: the one a width's requests name (a
sweep's placement cost), or its distinct matrices one below the other
(routing's). A lone solve is a round of one request.

Every augmentation starts its shortest-path search from all free rows at
once, so each column begins at its least reduced cost over the free rows.
The solver keeps each column's minimum of the (shifted) cost over the free
rows for the whole solve, and after each augmentation but a problem's
last recomputes only the columns whose minimum its newly matched row may
have held. That is exact,
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

A stack of B problems is one matrix and a (B, rows) table of row indices;
rows past a problem's count (padding) repeat its first row. The solver
reads the matrix through the table, a row or a column per problem at a
time, and holds no gathered copy of the stack. Each element's pairs,
total and potentials are those of its lone solve:

- A padding row repeats a listed row, so it changes no column minimum.
  It is never free, so it never starts a path and, never being matched,
  never lies on one. A problem of size 0 is not stacked at all.
- Each problem has its own shift, the least of its column minima and
  zero, which is the least of its own entries and zero.
- A Dijkstra step reads and writes only the problems still searching. A
  problem that has found its free column, or needs no more
  augmentations, takes no step, so its state is what it would be alone.
- The float operations, and their order, are those of a lone solve: a
  relaxation is `path_len + c[i] - u[i] - v`; the potential update is
  `v += min(dist, path_len)` and `u -= min(row_dist, path_len)`; the
  source pick reads `c[free, j] - free_u - v[j]`. Column minima are exact,
  so refreshing a column for every problem in the stack changes none that
  was still current.
"""

import operator

import numpy as np

__all__ = [
    "STACK_CELLS",
    "solve",
    "run",
    "gather",
]

# Most cells of solver state one stack of one width holds, counted as
# problems x the width or the most rows of any of them, whichever is
# more, and most cost cells the solver gathers at once. A sweep block holds this over grid cells x sites units
# (`harness._TrialEngine.block_units`), so its placement round is one stack
# whenever epochs + 1 <= grid cells. A larger single problem or unit still
# runs alone.
# Medians of 5 fresh runs alternated on a 2-vCPU Xeon VM, in seconds
# scaled to the benchmark's reference host speed, with each 100-trial
# sweep's peak RSS:
#   budget  wide pass  acceptance pass  100 trials 9x9  100 trials 17x17
#   2**16   0.372      0.353            1.59  52 MiB    1.55  46 MiB
#   2**17   0.372      0.346            1.40  53 MiB    1.55  46 MiB
#   2**18   0.344      0.364            1.54  58 MiB    1.53  48 MiB
#   2**19   0.348      0.362            1.43  66 MiB    1.32  51 MiB
# Most differences are within this host's noise (~10%), but memory grows
# with the budget, and 2**18 is the least that gives a 17x17 block two
# units, which the wide pass runs faster than blocks of one. Not a knob.
STACK_CELLS = 2**18


def run(machine):
    """Drive a matching machine to its answer, one `solve` per round."""
    solved = None
    while True:
        try:
            requests = machine.send(solved)
        except StopIteration as stop:
            return stop.value
        solved = solve(requests)


def solve(requests) -> list:
    """Minimum-total-cost matchings of every `(matrix, rows, size)`
    request, with the solver's final dual potentials (u, v).

    Request k asks for exactly `size` pairs of `matrix[rows]`, a 2-D
    array-like, rows in any order (every row when `rows` is None). Returns
    one (pairs, total, u, v) per request, equal bit for bit to its lone
    solve. Pairs come sorted by row, and the total is over the request's
    costs. Every argmin prefers the lowest index, so a fully tied matrix
    takes the diagonal prefix. u has one entry per listed row and v one
    per column of the request's matrix. For size >= 1 the reduced costs
    `cost[i, j] - u[i] - v[j]` are nonnegative everywhere and zero on the
    matched pairs (up to rounding), so for a full square matching
    `u.sum() + v.sum()` is the total. For size 0 both potentials are zero.

    Requests of one width share stacks, largest first, each holding as
    many as fit in `STACK_CELLS` cells of solver state (at least one), a
    problem's state spanning its rows or its columns, whichever are more.
    A width's one matrix is read uncopied; its distinct matrices are
    stacked once.

    Raises ValueError for a non-matrix, a row list that is not 1-D, a
    listed row outside its own matrix, an infeasible size, or a non-finite entry in a row that a
    request of positive size lists, and TypeError for a size or a row
    list that is not integer.
    """
    results = [None] * len(requests)
    # Per width, its distinct matrices in order of first use and its
    # requests of positive size.
    widths = {}
    for k, (matrix, rows, size) in enumerate(requests):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("need a (rows, cols) matrix")
        if rows is None:
            rows = np.arange(len(matrix))
        else:
            rows = np.asarray(rows)
            if rows.dtype.kind not in "iu" and rows.size:
                raise TypeError(f"row indices must be integers, not {rows.dtype}")
            if rows.ndim != 1:
                raise ValueError("row indices must form a 1-D list")
            rows = rows.astype(int, copy=False)
            if ((rows < 0) | (rows >= len(matrix))).any():
                raise ValueError(f"row indices must lie in [0, {len(matrix)})")
        n_cols, size = matrix.shape[1], operator.index(size)
        if not 0 <= size <= min(len(rows), n_cols):
            raise ValueError(
                f"match size {size} infeasible for {len(rows)}x{n_cols} costs"
            )
        if size == 0:
            results[k] = ([], 0.0, np.zeros(len(rows)), np.zeros(n_cols))
            continue
        mats, live = widths.setdefault(n_cols, ({}, []))
        mats.setdefault(id(matrix), matrix)
        live.append((k, id(matrix), rows, size))

    for width, (mats, live) in widths.items():
        # One matrix, or the distinct ones one below the other.
        mats = list(mats.values())
        ends = np.cumsum([len(m) for m in mats]).tolist()
        start = {id(m): end - len(m) for m, end in zip(mats, ends)}
        matrix = mats[0] if len(mats) == 1 else np.concatenate(mats)
        finite = np.isfinite(matrix).all(axis=1)
        live.sort(key=lambda request: -max(len(request[2]), width))
        while live:
            height = max(1, STACK_CELLS // max(len(live[0][2]), width))
            chunk, live = live[:height], live[height:]
            n_rows = np.array([len(rows) for _, _, rows, _ in chunk])
            sizes = np.array([size for *_, size in chunk])
            # Each problem's rows, offset into the stacked matrix, then
            # padding that repeats its first row: the table names listed
            # rows only, so a column's least entry is its least over them.
            index = np.empty((len(chunk), n_rows.max()), dtype=int)
            for b, (_, key, rows, _) in enumerate(chunk):
                np.add(rows, start[key], out=index[b, : len(rows)])
                index[b, len(rows) :] = index[b, 0]
            if not finite[index].all():
                raise ValueError("cost entries must be finite")
            solved = _solve_stack(matrix, index, n_rows, sizes)
            for (k, *_), result in zip(chunk, solved):
                results[k] = result
    return results


def _solve_stack(cost, index, n_rows, sizes) -> list:
    """`solve`'s results for problems `cost[index[b, :n_rows[b]]]` of
    sizes >= 1, every later entry of an `index` row repeating its first;
    `solve` has checked them all."""
    n_batch, height = index.shape
    width = cost.shape[1]
    # Single cells are read as one `take` on the flat matrix at these row
    # offsets.
    flat = np.ascontiguousarray(cost).ravel()
    offsets = index * width
    listed = np.arange(height) < n_rows[:, None]
    # Each column's least entry over the listed rows, from a transient
    # gather of at most `STACK_CELLS` cost cells (one problem at least) at
    # a time. The shifted cost c = cost - shift is read through `index`
    # row by row or column by column, never stored. Rounding is monotone,
    # so a least shifted cost is the least cost, shifted, and `min` is
    # exact, so the least column minimum is the least entry.
    col_min = np.empty((n_batch, width))
    chunk = max(1, STACK_CELLS // (height * width))
    for lo in range(0, n_batch, chunk):
        cost[index[lo : lo + chunk]].min(axis=1, out=col_min[lo : lo + chunk])
    shift = np.minimum(0.0, col_min.min(axis=1))[:, None]
    col_min -= shift

    ar = np.arange(n_batch)
    u = np.zeros((n_batch, height))
    v = np.zeros((n_batch, width))
    row_match = np.full((n_batch, height), -1)
    col_match = np.full((n_batch, width), -1)
    free = listed.copy()  # padding rows are never free
    parent = np.empty((n_batch, width), dtype=int)
    end_col = np.zeros(n_batch, dtype=int)
    path_len = np.zeros(n_batch)

    for k in range(sizes.max(initial=0)):
        active = sizes > k  # problems that still augment
        solving = active.nonzero()[0]
        # Multi-source shortest path over columns: any free row is a
        # source, and all of them share one potential.
        free_u = u[ar, free.argmax(axis=1)]
        dist = col_min - free_u[:, None] - v
        parent.fill(-1)  # -1: reached straight from a free row
        row_dist = np.where(free, 0.0, np.inf)
        unscanned = np.ones((n_batch, width), dtype=bool)

        s = solving  # problems still searching
        while True:
            masked = np.where(unscanned[s], dist[s], np.inf)
            j = masked.argmin(axis=1)
            step = masked[ar[: len(s)], j]
            unscanned[s, j] = False
            i = col_match[s, j]
            end_col[s] = j
            path_len[s] = step
            # A free column ends the search; a matched one continues
            # through its row (tight back edge).
            on = i >= 0
            if not on.any():
                break
            s, i, step = s[on], i[on], step[on]
            row_dist[s, i] = step
            c_row = cost[index[s, i]] - shift[s]
            relaxed = step[:, None] + c_row - u[s, i][:, None] - v[s]
            reached = dist[s]
            improve = (relaxed < reached) & unscanned[s]
            dist[s] = np.where(improve, relaxed, reached)
            parent[s] = np.where(improve, i[:, None], parent[s])

        # A path reached straight from a free row starts at its end
        # column; a longer one is walked back from there.
        first = end_col.copy()
        for b in solving[parent[solving, first[solving]] >= 0].tolist():
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
        c_col = flat.take(offsets + first[:, None]) - shift
        reduced = c_col - free_u[:, None] - v[ar, first][:, None]
        source = np.where(free, reduced, np.inf).argmin(axis=1)[solving]
        row_match[solving, source] = first[solving]
        col_match[solving, first[solving]] = source

        # Potential update capped at the path length keeps every residual
        # reduced cost nonnegative and the matched edges tight.
        cap = path_len[:, None]
        np.add(v, np.minimum(dist, cap), out=v, where=active[:, None])
        np.subtract(u, np.minimum(row_dist, cap), out=u, where=active[:, None])

        # Only the columns whose minimum a source row held can change, and
        # only a problem that augments again reads them.
        free[solving, source] = False
        again = sizes[solving] > k + 1
        more = solving[again]
        c_row = cost[index[more, source[again]]] - shift[more]
        held, stale = (c_row == col_min[more]).nonzero()
        held = more[held]
        col_min[held, stale] = np.where(
            free[held], flat.take(offsets[held] + stale[:, None]), np.inf
        ).min(axis=1) - shift[held, 0]

    # Every problem's pairs in row order, problem after problem.
    owner, rows = (row_match >= 0).nonzero()
    cols = row_match[owner, rows]
    pairs = list(zip(rows.tolist(), cols.tolist()))
    matched = cost[index[owner, rows], cols]
    # Potentials of the shifted matrix; moving the shift into u makes them
    # potentials of the caller's matrix with the same reduced costs.
    u = u + shift
    ends = np.cumsum(sizes).tolist()
    return [
        (
            pairs[start:end],
            float(matched[start:end].sum()),
            u[b, : n_rows[b]],
            v[b],
        )
        for b, (start, end) in enumerate(zip([0] + ends, ends))
    ]


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
