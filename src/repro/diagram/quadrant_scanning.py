"""Algorithm 3 — the scanning skyline-diagram construction (Theorem 1).

Scanning cells from the top-right corner down and left, each cell's skyline
is the saturating multiset expression over its three upper/right neighbours:

``Sky(C_{i,j}) = Sky(C_{i+1,j}) + Sky(C_{i,j+1}) - Sky(C_{i+1,j+1})``

except cells with a point on their upper-right corner, whose skyline is that
point (and its duplicates).  No skyline computation is ever performed.

The paper proves Theorem 1 for points in general position; this
implementation relies on a slightly stronger fact verified in the test
suite: with coordinate compression (tied coordinates share one grid line)
and *saturating* multiset subtraction, the identity holds for arbitrary
inputs, including duplicates.  The key case is a candidate dominated by
both a point on the upper line and a point on the right line — it is then
counted ``1 + 1 - 1`` minus two memberships, and saturation clamps the
−1 to the correct 0.

The serial (reference) engine operates on interned result *ids*
row-at-a-time over the array-backed
:class:`~repro.diagram.store.ResultStore`.  The recurrence only produces a
new value at *event* columns — a point corner on the row's upper line, or
a column where the upper row's id changes (``up == upright`` makes the
expression collapse to the right neighbour everywhere else) — so whole
constant runs are filled with one slice assignment, and each event
resolves either to an integer fast path or to the small-delta set identity
``sky = (right − sub) ∪ add`` derived in :func:`_scan_rows`.  The
seed dict-based implementation is kept as
:func:`quadrant_scanning_reference` for cross-validation and the E9c/E9d
ablations.

Construction runs through the shared
:class:`~repro.diagram.pipeline.BuildContext` pipeline.  Because a row
depends only on the row above it, and any row can be recomputed directly
from the dataset (:func:`_seed_state` — a single staircase sweep over the
points above it), the row scan shards into independent ``[lo, hi)`` row
chunks executed by the context's
:class:`~repro.diagram.pipeline.RowExecutor`.  Each chunk seeds its own
entering state, scans top-down, and is relabeled into scan-order ids
(:func:`~repro.diagram.pipeline.relabel_scan_order`) so the merged grid
and interned table are byte-identical to the serial engine's.

The vectorized executor — the ``BuildOptions`` default — runs a third
engine built on a different decomposition of the same recurrence.  In
rank space every cell result is a monotone staircase: the groups visible
from the cell, columns ascending, row-ranks strictly descending — i.e. a
path in a *cons forest* where each node is ``(group, parent)`` and a node's parent
is the staircase member at the nearest column to the right whose rank is
strictly smaller (the classic previous-smaller-element structure).  Row
over row that structure is persistent: the corners entering a row carry
the globally minimal rank, so only columns left of the rightmost new
corner change, their new parent link is ``min(old link, nearest new
corner to the right)``, and everything else is inherited — all of which
is a handful of ``searchsorted``/``minimum`` array ops per row
(:func:`_quadrant_vectorized`).  Interning then vanishes from the build
entirely: every emitted node is provably distinct (each contains a
corner group introduced in its own row — see :func:`_vector_finalize`),
so node ids in scan order *are* the serial engine's intern ids, the
forest itself becomes the result table
(:class:`~repro.diagram.store.ConsForestTable`, materialized lazily),
and the id grid materializes with one run-length ``np.repeat`` decode
(:func:`_vector_decode`).  An optional numba JIT (:func:`_fill_runs`)
compiles the decode; without numba the numpy fallback produces the
identical artifact.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

import numpy as np

from repro._util import multiset_add_sub
from repro.diagram.base import SkylineDiagram
from repro.diagram.pipeline import (
    BuildContext,
    BuildOptions,
    merge_chunk_tables,
    relabel_scan_order,
)
from repro.diagram.store import (
    ConsForestTable,
    ResultStore,
    RLEBackend,
    _multi_arange,
)
from repro.errors import BudgetExceededError, DimensionalityError
from repro.geometry.grid import Grid
from repro.geometry.point import Dataset, ensure_dataset
from repro.resilience import BudgetMeter, BuildBudget, PartialDiagram

try:  # pragma: no cover - numba is an optional accelerator
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:  # the container path: pure numpy, same artifact
    _njit = None
    HAVE_NUMBA = False


def _corner_rows(
    grid: Grid,
) -> tuple[list[dict[int, tuple[int, ...]]], list[list[int]]]:
    """Point corners per cell row, with columns descending (the scan order).

    The cell (i, j) owns the grid intersection at ranks (i + 1, j + 1), so
    a point with ranks (rx, ry) is the corner of cell (rx - 1, ry - 1).
    """
    sx, sy = grid.shape
    row_corners: list[dict[int, tuple[int, ...]]] = [{} for _ in range(sy)]
    for (rx, ry), pids in grid._corner_index.items():
        row_corners[ry - 1][rx - 1] = pids
    row_corner_cols: list[list[int]] = [
        sorted(cols, reverse=True) for cols in row_corners
    ]
    return row_corners, row_corner_cols


def _seed_state(
    grid: Grid, hi: int
) -> tuple[
    list[int],
    list[int],
    list[tuple[tuple[int, ...], tuple[int, ...]]],
    list[tuple[int, ...]],
    dict[tuple[int, ...], int],
]:
    """Scan state entering row ``hi - 1``: row ``hi`` rebuilt independently.

    The top-down scan carries three things between rows: the upper row's
    ids, the columns where that row's value changes, and the change's
    ``(add, sub)`` deltas.  A chunk worker entering the grid at row
    ``hi - 1`` recomputes all three for row ``hi`` from the dataset alone:
    ``Sky(C_{i,hi})`` is the rank-space staircase of the points strictly
    above the row (ranks ``ry > hi``) restricted to columns right of
    ``i``, so one descending sweep maintaining the staircase yields every
    transition — the entrant group is the exact ``add``, the staircase
    members it evicts are the exact ``sub``.

    Returns ``(upper, diff_events, diff_deltas, table, intern)`` with
    table/intern holding the seed row's interned values (id 0 is the empty
    result, as everywhere).
    """
    sx, sy = grid.shape
    table: list[tuple[int, ...]] = [()]
    intern: dict[tuple[int, ...], int] = {(): 0}
    upper: list[int] = [0] * (sx + 1)
    diff_events: list[int] = []
    diff_deltas: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if hi >= sy:  # the conceptual row above the grid: all empty
        return upper, diff_events, diff_deltas, table, intern
    # Candidates, bucketed by cell column.  Within a column only the lowest
    # duplicate group can appear in the row (it dominates the others).
    by_col: dict[int, tuple[int, tuple[int, ...]]] = {}
    for (rx, ry), pids in grid._corner_index.items():
        if ry > hi:
            col = rx - 1
            cur = by_col.get(col)
            if cur is None or ry < cur[0]:
                by_col[col] = (ry, pids)
    stair: list[tuple[int, tuple[int, ...]]] = []  # ry ascending
    transitions: list[tuple[int, int]] = []  # (column, interned id), desc
    for col in sorted(by_col, reverse=True):
        min_ry, group = by_col[col]
        evicted: list[int] = []
        while stair and stair[-1][0] >= min_ry:
            evicted.extend(stair.pop()[1])
        stair.append((min_ry, group))
        sky = tuple(sorted(pid for _, pids in stair for pid in pids))
        rid = intern.get(sky)
        if rid is None:
            rid = len(table)
            table.append(sky)
            intern[sky] = rid
        diff_events.append(col)
        diff_deltas.append((group, tuple(sorted(evicted))))
        transitions.append((col, rid))
    prev_col: int | None = None
    prev_rid = 0
    for col, rid in transitions:
        if prev_col is not None:
            for i in range(col + 1, prev_col + 1):
                upper[i] = prev_rid
        prev_col, prev_rid = col, rid
    if prev_col is not None:
        for i in range(prev_col + 1):
            upper[i] = prev_rid
    return upper, diff_events, diff_deltas, table, intern


def _scan_rows(
    sx: int,
    row_corners: list[dict[int, tuple[int, ...]]],
    row_corner_cols: list[list[int]],
    lo: int,
    hi: int,
    upper: list[int],
    diff_events: list[int],
    diff_deltas: list[tuple[tuple[int, ...], tuple[int, ...]]],
    table: list[tuple[int, ...]],
    intern: dict[tuple[int, ...], int],
    rows: np.ndarray,
    base: int,
    on_row=None,
) -> None:
    """The delta-form row kernel: scan rows ``hi - 1`` down to ``lo``.

    Cell results are always id-*sets* (duplicate points get distinct ids),
    so the saturating multiset expression ``right + up - up_right`` admits
    a delta form: writing the upper row's transition at column i as exact
    set deltas ``up = up_right + add - sub`` (``add = up − up_right`` and
    ``sub = up_right − up``), a membership-count case split gives

        sky = (right − sub) ∪ add

    — an id of ``add`` is in two additive terms, so one subtraction can
    never cancel it (1 + 1 − 1, clamped); an id of ``sub`` is subtracted
    once against at most one addition; all other ids follow ``right``.
    ``add``/``sub`` are tiny (a point entering/leaving the skyline), so
    the new result is built by deleting/insorting a couple of ids in the
    already-sorted right neighbour — no sort, no set objects — and the
    cell's own deltas against its right neighbour come out in
    small-operand scans: ``sky − right = add − right`` and
    ``right − sky = (right ∩ sub) − add``.

    Row ``j`` is written to ``rows[j - base]``; ``on_row(j)`` runs after
    each completed row (the serial path's budget checkpoint).
    """
    table_append = table.append
    intern_get = intern.get
    empty: tuple[int, ...] = ()
    for j in range(hi - 1, lo - 1, -1):
        current = [0] * (sx + 1)
        corner_at = row_corners[j]
        corner_cols = row_corner_cols[j]
        nd = len(diff_events)
        nc = len(corner_cols)
        di = 0
        ci = 0
        val = 0
        run_end = sx  # cells in [prev event + 1, run_end) carry ``val``
        next_diff: list[int] = []
        next_diff_append = next_diff.append
        next_deltas: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        next_deltas_append = next_deltas.append
        # Merge the two descending event streams (upper-row diff columns,
        # this row's corner columns) with index pointers; a corner on a
        # diff column consumes both (the corner result wins).
        while di < nd or ci < nc:
            dcol = diff_events[di] if di < nd else -1
            ccol = corner_cols[ci] if ci < nc else -1
            if ccol >= dcol:
                i = ccol
                ci += 1
                if dcol == ccol:
                    di += 1
                corner = corner_at[i]
            else:
                i = dcol
                delta = diff_deltas[di]
                di += 1
                corner = None
            fill = run_end - i - 1
            if fill == 1:
                current[i + 1] = val
            elif fill > 1:
                current[i + 1 : run_end] = [val] * fill
            right = val
            if corner is not None:
                rid = intern_get(corner)
                if rid is None:
                    rid = len(table)
                    table_append(corner)
                    intern[corner] = rid
                if rid != right:
                    right_t = table[right]
                    next_deltas_append(
                        (
                            tuple([e for e in corner if e not in right_t]),
                            tuple([e for e in right_t if e not in corner]),
                        )
                    )
                    next_diff_append(i)
                val = rid
            elif right == upper[i + 1]:
                # right == up_right collapses the expression to ``up``; the
                # upper transition (up != up_right at every diff column) is
                # then this cell's transition verbatim.
                val = upper[i]
                next_deltas_append(delta)
                next_diff_append(i)
            else:
                add, sub = delta
                right_t = table[right]
                if sub:
                    lst = [e for e in right_t if e not in sub]
                else:
                    lst = list(right_t)
                for e in add:
                    # Manual insort keeps the canonical sorted order and
                    # skips ids already inherited from the right neighbour.
                    k = bisect_left(lst, e)
                    if k == len(lst) or lst[k] != e:
                        lst.insert(k, e)
                sky = tuple(lst)
                rid = intern_get(sky)
                if rid is None:
                    rid = len(table)
                    table_append(sky)
                    intern[sky] = rid
                if rid != right:
                    # Deltas are one id in the common case; reuse the tuple.
                    if not add:
                        new_add = empty
                    elif len(add) == 1:
                        new_add = empty if add[0] in right_t else add
                    else:
                        new_add = tuple(
                            [e for e in add if e not in right_t]
                        )
                    if not sub:
                        new_sub = empty
                    elif len(sub) == 1:
                        new_sub = (
                            sub
                            if sub[0] in right_t and sub[0] not in add
                            else empty
                        )
                    else:
                        new_sub = tuple(
                            [
                                e
                                for e in sub
                                if e in right_t and e not in add
                            ]
                        )
                    next_deltas_append((new_add, new_sub))
                    next_diff_append(i)
                val = rid
            current[i] = val
            run_end = i
        if run_end > 0:
            current[0:run_end] = [val] * run_end
        rows[j - base] = current[:sx]
        if on_row is not None:
            on_row(j)
        upper = current
        diff_events = next_diff
        diff_deltas = next_deltas


#: "No smaller-rank staircase member to the right" sentinel column for
#: the vectorized engine's previous-smaller-element links.
_PSE_NONE = np.iinfo(np.int64).max


def _vector_corner_rows(
    row_corners: list[dict[int, tuple[int, ...]]],
) -> tuple[list, list[tuple[int, ...]]]:
    """Array form of the corner index for the vectorized engine.

    Returns ``(per_row, group_tuples)``: ``per_row[j]`` is ``None`` for
    rows without corners, else ``(cols, gidx)`` int64 arrays ascending
    by cell column, and ``group_tuples[g]`` is group ``g``'s sorted
    point-id tuple — the corner tuples the serial engine interns
    verbatim.
    """
    per_row: list = [None] * len(row_corners)
    group_tuples: list[tuple[int, ...]] = []
    g = 0
    for j, corner_at in enumerate(row_corners):
        if not corner_at:
            continue
        cols = sorted(corner_at)
        group_tuples.extend(corner_at[col] for col in cols)
        per_row[j] = (
            np.asarray(cols, dtype=np.int64),
            np.arange(g, g + len(cols), dtype=np.int64),
        )
        g += len(cols)
    return per_row, group_tuples


def _vector_finalize(
    prov_rep_chunks: list[np.ndarray],
    prov_par_chunks: list[np.ndarray],
    group_tuples: list[tuple[int, ...]],
) -> ConsForestTable:
    """Assemble the emitted cons forest into the interned result table.

    Node ``k`` (ids ascend in scan order: rows top-down, columns
    right-to-left within a row) is the staircase ``group prov_rep[k]``
    consed onto parent ``prov_par[k]`` (``-1`` is the empty staircase).
    No deduplication pass is needed — the nodes are pairwise distinct:

    * A row's rightmost new corner carries the globally minimal row rank
      seen so far, so no later staircase member ever pops it and it is
      visible from every changed column.  Every node therefore contains
      a corner group introduced in its own row.
    * Point ids partition across corner groups, so a node can never
      equal one emitted in an earlier row (whose members all predate
      this row's groups).
    * Within a row, each changed column's staircase leads with the group
      *at* that column, which no staircase further right contains.

    Table id ``k + 1`` is therefore exactly the serial engine's intern
    id (the empty result is pre-seeded as id 0), and the table itself
    is the forest, materialized lazily by :class:`ConsForestTable`.
    """
    if not prov_rep_chunks:
        empty = np.empty(0, dtype=np.int64)
        return ConsForestTable(empty, empty, group_tuples)
    return ConsForestTable(
        np.concatenate(prov_rep_chunks),
        np.concatenate(prov_par_chunks),
        group_tuples,
    )


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba exists

    @_njit(cache=True)
    def _fill_runs_jit(values, counts, out):  # pragma: no cover
        pos = 0
        for k in range(values.shape[0]):
            v = values[k]
            for _ in range(counts[k]):
                out[pos] = v
                pos += 1


def _fill_runs(values: list[int], counts: list[int], total: int) -> np.ndarray:
    """Run-length decode ``values``/``counts`` into a flat int32 array.

    The one inner kernel worth a JIT: with numba present it runs as
    compiled machine code, without it ``np.repeat`` does the same fill at
    C speed — the artifact is identical either way.
    """
    vals = np.asarray(values, dtype=np.int32)
    lens = np.asarray(counts, dtype=np.int64)
    if HAVE_NUMBA:  # pragma: no cover - optional accelerator
        out = np.empty(total, dtype=np.int32)
        _fill_runs_jit(vals, lens, out)
        return out
    return np.repeat(vals, lens)


def _vector_decode(
    run_vals: list[np.ndarray],
    run_cnts: list[np.ndarray],
    nrows: int,
    sx: int,
) -> np.ndarray:
    """Materialize the scanned rows as a dense ``(nrows, sx)`` final-id grid.

    ``run_vals``/``run_cnts`` hold one run-length row per scanned row in
    scan order (top row first), with cons-forest node values (``-1`` the
    empty result).  Final ids are node ids shifted by one, so the whole
    grid decodes with one add and one ``np.repeat``, returned with row
    indices ascending.
    """
    vals = np.concatenate(run_vals) + 1
    cnts = np.concatenate(run_cnts)
    return _fill_runs(vals, cnts, nrows * sx).reshape(nrows, sx)[::-1]


def _emit_state_events(
    act_cols: np.ndarray,
    act_node: np.ndarray,
    limit: int,
    y: int,
    events: tuple[list, list, list, list],
) -> None:
    """Append change events for the active-state runs with ``x <= limit``.

    The native-RLE emission records the diagram as *change events* in
    store orientation: one event says column ``x`` reads node ``val``
    from trailing coordinate ``y`` up to that column's next event.  The
    current staircase state *is* a run encoding over ``x`` (run ``i``
    covers ``(act_cols[i-1], act_cols[i]]`` with node ``act_node[i]``,
    the final run the empty result), and a corner row changes every
    column up to its rightmost corner and none beyond — so the run
    prefix clipped at ``limit``, stamped with the boundary coordinate
    ``y``, captures exactly the cells whose value the corner row ends.
    """
    m = act_cols.size
    t = int(np.searchsorted(act_cols, limit, side="left")) if m else 0
    starts = np.empty(t + 1, dtype=np.int64)
    starts[0] = 0
    starts[1:] = act_cols[:t] + 1
    stops = np.empty(t + 1, dtype=np.int64)
    stops[:t] = act_cols[:t]
    stops[t] = limit
    vals = np.empty(t + 1, dtype=np.int64)
    vals[:t] = act_node[:t]
    vals[t] = act_node[t] if t < m else -1
    ev_xa, ev_len, ev_val, ev_y = events
    ev_xa.append(starts)
    ev_len.append(stops - starts + 1)
    ev_val.append(vals)
    ev_y.append(np.full(starts.size, y, dtype=np.int64))


def _events_to_rle(
    events: tuple[list, list, list, list],
    sx: int,
    width: int,
    y0: int = 0,
) -> RLEBackend:
    """Assemble accumulated change events into a packed x-major RLE grid.

    Expanding each event interval to per-column points and sorting by
    ``(x, y)`` *is* the run-length encoding of the transposed grid: run
    ``i`` of store row ``x`` holds its event's final id (node id plus
    one) from its own ``y`` up to the next event's ``y`` (``width`` for
    the last — the y-``0`` seeding event guarantees every column has
    one).  The event count equals the run count, so assembly stays
    proportional to the *compressed* size — the dense grid is never
    materialized.
    """
    lens = np.concatenate(events[1])
    xs = _multi_arange(np.concatenate(events[0]), lens)
    ys = np.repeat(np.concatenate(events[3]), lens) - y0
    vs = np.repeat(np.concatenate(events[2]), lens)
    order = np.lexsort((ys, xs))
    ys = ys[order]
    vs = vs[order]
    row_nruns = np.bincount(xs, minlength=sx).astype(np.int32)
    row_start = np.concatenate(
        ([0], np.cumsum(row_nruns[:-1], dtype=np.int64))
    )
    ends = np.empty(ys.size, dtype=np.int32)
    if ys.size:
        ends[:-1] = ys[1:]
        ends[row_start + row_nruns - 1] = width
    vals = (vs + 1).astype(np.int32)
    packed = RLEBackend((sx, width), row_start, row_nruns, vals, ends)
    return packed._dedup_rows()


def _quadrant_vectorized(
    ctx: BuildContext,
    grid: Grid,
    per_row: list,
    group_tuples: list[tuple[int, ...]],
) -> SkylineDiagram:
    """The ``executor="vectorized"`` build path of :func:`quadrant_scanning`.

    ``per_row``/``group_tuples`` are the :func:`_vector_corner_rows`
    arrays, computed in the caller's ``rank_space`` phase.

    Maintains the staircase structure of the module docstring as parallel
    arrays over the active columns — ``act_rep`` the visible group per
    column, ``act_pse`` the column of the nearest smaller-rank staircase
    member to the right (:data:`_PSE_NONE` when none), ``act_node`` the
    provisional cons node — and updates all of them with a handful of
    array ops per row: corners entering a row carry the minimal rank, so
    they reset their column's link, every active column left of the
    rightmost corner re-links to ``min(old link, nearest new corner)``,
    and columns to the right are untouched.  Each changed column emits
    one provisional node; rows emit their run-length encoding for the
    final decode.

    The budget checkpoint fires once per row block (``chunk_rows`` rows,
    default :data:`~repro.diagram.pipeline.VECTOR_BLOCK_ROWS`) with
    ``advance = rows * sx``, so cooperative cancellation and the
    fault-injection hook keep working at block granularity; ``distinct``
    reports the emitted node count plus the empty result — the exact
    table size, since every node is a distinct interned result.  On
    exhaustion the completed row suffix is finalized into an
    exact :class:`~repro.resilience.PartialDiagram`, same as the serial
    path.
    """
    sx, sy = grid.shape
    native_rle = ctx.options.backend == "rle"
    events: tuple[list, list, list, list] = ([], [], [], [])
    sent = _PSE_NONE
    act_cols = np.empty(0, dtype=np.int64)
    act_rep = np.empty(0, dtype=np.int64)
    act_pse = np.empty(0, dtype=np.int64)
    act_node = np.empty(0, dtype=np.int64)
    next_id = 0
    prov_rep_chunks: list[np.ndarray] = []
    prov_par_chunks: list[np.ndarray] = []
    run_vals: list[np.ndarray] = []
    run_cnts: list[np.ndarray] = []
    left_edge = np.asarray([-1], dtype=np.int64)
    right_edge = np.asarray([sx - 1], dtype=np.int64)
    rows_done = 0
    with ctx.phase("row_scan"):
        for lo, hi in ctx.row_chunks(sy, topmost_first=True):
            for j in range(hi - 1, lo - 1, -1):
                corners = per_row[j]
                if native_rle and corners is not None and j + 1 < sy:
                    _emit_state_events(
                        act_cols, act_node, int(corners[0][-1]), j + 1, events
                    )
                if corners is not None:
                    ccols, cg = corners
                    m0 = act_cols.size
                    if m0:
                        pos = np.searchsorted(act_cols, ccols)
                        exist = (
                            act_cols[np.minimum(pos, m0 - 1)] == ccols
                        )
                        if exist.any():
                            act_rep[pos[exist]] = cg[exist]
                        new = ~exist
                        if new.any():
                            ins = pos[new]
                            act_cols = np.insert(act_cols, ins, ccols[new])
                            act_rep = np.insert(act_rep, ins, cg[new])
                            act_pse = np.insert(act_pse, ins, sent)
                            act_node = np.insert(act_node, ins, -1)
                    else:
                        act_cols = ccols.copy()
                        act_rep = cg.copy()
                        act_pse = np.full(ccols.size, sent, dtype=np.int64)
                        act_node = np.full(ccols.size, -1, dtype=np.int64)
                    nchanged = int(
                        np.searchsorted(act_cols, ccols[-1], side="right")
                    )
                    cpos = np.searchsorted(act_cols, ccols)
                    nidx = np.searchsorted(
                        ccols, act_cols[:nchanged], side="right"
                    )
                    nsc = np.where(
                        nidx < ccols.size,
                        ccols[np.minimum(nidx, ccols.size - 1)],
                        sent,
                    )
                    pse = np.minimum(act_pse[:nchanged], nsc)
                    pse[cpos] = sent
                    act_pse[:nchanged] = pse
                    act_node[:nchanged] = np.arange(
                        next_id + nchanged - 1,
                        next_id - 1,
                        -1,
                        dtype=np.int64,
                    )
                    ppos = np.minimum(
                        np.searchsorted(act_cols, pse), act_cols.size - 1
                    )
                    pnode = np.where(pse != sent, act_node[ppos], -1)
                    prov_rep_chunks.append(act_rep[nchanged - 1 :: -1].copy())
                    prov_par_chunks.append(pnode[::-1].copy())
                    next_id += nchanged
                if not native_rle:
                    run_vals.append(np.append(act_node, np.int64(-1)))
                    run_cnts.append(
                        np.diff(
                            np.concatenate((left_edge, act_cols, right_edge))
                        )
                    )
            rows_done = sy - lo
            ctx.count_rows(hi - lo)
            try:
                ctx.checkpoint(advance=(hi - lo) * sx, distinct=next_id + 1)
            except BudgetExceededError as exc:
                if exc.partial is None:
                    table = _vector_finalize(
                        prov_rep_chunks, prov_par_chunks, group_tuples
                    )
                    if native_rle:
                        _emit_state_events(
                            act_cols, act_node, sx - 1, lo, events
                        )
                        packed = _events_to_rle(events, sx, sy - lo, y0=lo)
                        dense = np.ascontiguousarray(packed.to_dense().T)
                    else:
                        dense = _vector_decode(
                            run_vals, run_cnts, rows_done, sx
                        )
                    exc.partial = PartialDiagram(
                        grid,
                        {jj: dense[jj - lo] for jj in range(lo, sy)},
                        table,
                        boundary_exact=True,
                    )
                raise
    with ctx.phase("intern"):
        table = _vector_finalize(
            prov_rep_chunks, prov_par_chunks, group_tuples
        )
        ctx.checkpoint(distinct=len(table))
    with ctx.phase("assemble"):
        if native_rle:
            _emit_state_events(act_cols, act_node, sx - 1, 0, events)
            store = ResultStore(
                (sx, sy), _events_to_rle(events, sx, sy), table
            )
        else:
            rows = _vector_decode(run_vals, run_cnts, sy, sx)
            store = ResultStore(
                (sx, sy),
                np.ascontiguousarray(rows.T.astype(np.int32, copy=False)),
                table,
            )
        diagram = SkylineDiagram(
            grid, store, kind="quadrant", algorithm="scanning"
        )
    return ctx.finish(diagram)


def _quadrant_chunk_job(job):
    """One row-chunk worker: picklable, sees only points + a row range.

    Rebuilds the grid (rank compression is cheap relative to the scan),
    seeds the entering state for its chunk, scans, and relabels its local
    ids into scan-order-first-occurrence so chunks merge deterministically.
    """
    points, lo, hi = job
    grid = Grid(Dataset(points))
    sx, _ = grid.shape
    row_corners, row_corner_cols = _corner_rows(grid)
    upper, diff_events, diff_deltas, table, intern = _seed_state(grid, hi)
    local = np.empty((hi - lo, sx), dtype=np.int32)
    _scan_rows(
        sx,
        row_corners,
        row_corner_cols,
        lo,
        hi,
        upper,
        diff_events,
        diff_deltas,
        table,
        intern,
        local,
        lo,
    )
    return relabel_scan_order(local, table, flip=True)


def quadrant_scanning(
    points: Dataset | Sequence[Sequence[float]],
    intern_results: bool = True,
    budget: BuildBudget | BudgetMeter | None = None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """Build the first-quadrant skyline diagram with Algorithm 3.

    ``intern_results`` selects the id-based array engine (the default);
    turning it off falls back to the plain-tuple reference path — a pure
    ablation arm (E9c) producing an identical diagram.

    ``budget`` bounds the construction cooperatively: the scan checkpoints
    once per completed row block (once per row with
    ``executor="serial"``), and on exhaustion raises
    :class:`~repro.errors.BudgetExceededError` carrying a
    :class:`~repro.resilience.PartialDiagram` over the rows already built
    (the scan runs top row down, so the completed suffix is exact).  The
    reference path ignores the budget — it exists for ablations, not
    serving.

    ``build_options`` selects the row executor and chunking.  The default
    vectorized executor runs the staircase array engine
    (:func:`_quadrant_vectorized`); ``serial`` runs the per-row id
    engine, the reference the other executors are byte-identical to.
    Sharded builds (``serial`` with ``chunk_rows``, or ``process``)
    carry no partial on interruption (chunk results are not a
    serving-ordered row prefix), so the degradation ladder falls through
    to scratch.

    >>> diagram = quadrant_scanning([(2, 8), (5, 4), (9, 1)])
    >>> diagram.result_at((0, 0))
    (0, 1, 2)
    """
    dataset = ensure_dataset(points)
    if dataset.dim != 2:
        raise DimensionalityError(
            "quadrant_scanning is 2-D; use diagram.highdim for d > 2"
        )
    if not intern_results:
        return quadrant_scanning_reference(dataset, intern_results=False)
    ctx = BuildContext(
        budget,
        build_options,
        algorithm="scanning",
        kind="quadrant",
        vector_capable=True,
    )
    vectorized = ctx.executor.name == "vectorized"
    with ctx.phase("rank_space"):
        grid = Grid(dataset)
        sx, sy = grid.shape
        row_corners, row_corner_cols = _corner_rows(grid)
        if vectorized:
            per_row, group_tuples = _vector_corner_rows(row_corners)
    if vectorized:
        return _quadrant_vectorized(ctx, grid, per_row, group_tuples)
    chunks = ctx.row_chunks(sy, topmost_first=True)
    rows = np.empty((sy, sx), dtype=np.int32)
    if len(chunks) == 1:
        # Unsharded fast path: per-row checkpoints carry an exact partial
        # over the completed row suffix.
        table: list[tuple[int, ...]] = [()]
        intern: dict[tuple[int, ...], int] = {(): 0}

        def on_row(j: int) -> None:
            try:
                ctx.checkpoint(advance=sx, distinct=len(table))
            except BudgetExceededError as exc:
                if exc.partial is None:
                    exc.partial = PartialDiagram(
                        grid,
                        {jj: rows[jj].copy() for jj in range(j, sy)},
                        list(table),
                        boundary_exact=True,
                    )
                raise

        with ctx.phase("row_scan"):
            _scan_rows(
                sx,
                row_corners,
                row_corner_cols,
                0,
                sy,
                [0] * (sx + 1),
                [],
                [],
                table,
                intern,
                rows,
                0,
                on_row,
            )
            ctx.count_rows(sy)
        with ctx.phase("intern"):
            ctx.checkpoint(distinct=len(table))
    else:
        pts = dataset.points
        jobs = [(pts, lo, hi) for lo, hi in chunks]

        def on_chunk(job, result) -> None:
            _, lo, hi = job
            ctx.count_rows(hi - lo)
            for _ in range(hi - lo):
                ctx.checkpoint(advance=sx)

        with ctx.phase("row_scan"):
            parts = ctx.executor.run(_quadrant_chunk_job, jobs, on_chunk)
        with ctx.phase("intern"):
            table = merge_chunk_tables(chunks, parts, rows)
            ctx.checkpoint(distinct=len(table))
    with ctx.phase("assemble"):
        store = ResultStore((sx, sy), np.ascontiguousarray(rows.T), table)
        diagram = SkylineDiagram(
            grid, store, kind="quadrant", algorithm="scanning"
        )
    return ctx.finish(diagram)


def quadrant_scanning_reference(
    points: Dataset | Sequence[Sequence[float]],
    intern_results: bool = True,
) -> SkylineDiagram:
    """The seed dict-based scanning construction, kept as a reference.

    Byte-for-byte the pre-store implementation: one Python dict entry per
    cell, tuple-valued recurrence, optional tuple interning with pointer
    fast paths.  Used to cross-validate the array engine and as the
    baseline arm of the store ablation (E9d) and the PR benchmark.
    """
    dataset = ensure_dataset(points)
    if dataset.dim != 2:
        raise DimensionalityError(
            "quadrant_scanning is 2-D; use diagram.highdim for d > 2"
        )
    grid = Grid(dataset)
    sx, sy = grid.shape
    empty: tuple[int, ...] = ()
    # rows[j][i] holds Sky(C_{i,j}); one sentinel row/column of empties
    # stands in for the off-grid neighbours of the outermost cells.
    upper = [empty] * (sx + 1)  # row j+1 while processing row j
    results: dict[tuple[int, int], tuple[int, ...]] = {}
    # Equal results share one tuple: the diagram holds O(n^2) cells but far
    # fewer distinct results, and interning both caps peak memory and makes
    # the frequent result-equality comparisons pointer comparisons.
    interned: dict[tuple[int, ...], tuple[int, ...]] = {empty: empty}
    for j in range(sy - 1, -1, -1):
        current = [empty] * (sx + 1)
        for i in range(sx - 1, -1, -1):
            corner = grid.corner_points((i + 1, j + 1))
            if corner:
                sky = corner  # already a sorted tuple of duplicates
            elif intern_results:
                right = current[i + 1]
                up = upper[i]
                up_right = upper[i + 1]
                if up is up_right:
                    # Common fast path: identical upper neighbours cancel.
                    sky = right
                elif right is up_right:
                    sky = up
                else:
                    sky = multiset_add_sub(right, up, up_right)
                    sky = interned.setdefault(sky, sky)
            else:
                sky = multiset_add_sub(
                    current[i + 1], upper[i], upper[i + 1]
                )
            current[i] = sky
            results[(i, j)] = sky
        upper = current
    return SkylineDiagram(grid, results, kind="quadrant", algorithm="scanning")
