"""Incremental maintenance of quadrant skyline diagrams.

A practical extension beyond the paper: inserting or deleting one point
does not require rebuilding the whole diagram.  A point ``p`` with ranks
``(rx, ry)`` is a candidate only for the cells strictly below-left of it
(``i < rx`` and ``j < ry``), so an update *dirties* exactly that
lower-left block and every other cell keeps its result verbatim (modulo
the one split/merged grid line and, for deletion, the id renumbering).

Both operations run directly on the :class:`~repro.diagram.store.
ResultStore` arrays through the shared build pipeline:

* the **clean rows** (``j >= ry``) are copied from the old id grid in one
  vectorized fancy-index over the remapped columns — no per-cell Python
  work;
* the **dirty rows** (``j < ry``) are re-scanned with the same delta-form
  row kernel the scanning constructor uses: :func:`~repro.diagram.
  quadrant_scanning._seed_state` rebuilds the entering scan state at the
  dirty boundary from the dataset alone, and :func:`~repro.diagram.
  quadrant_scanning._scan_rows` sweeps only the ``ry`` dirty rows;
* the two blocks then merge in global scan order
  (:func:`~repro.diagram.pipeline.relabel_scan_order` +
  :func:`_merge_at_boundary`, which deduplicates the dirty chunk against
  only the clean block's bottom row instead of hashing the whole clean
  table), so the updated store is **byte-identical** (content
  fingerprint) to a from-scratch serial build over the updated dataset —
  incremental maintenance never changes the artifact.

Updates are copy-on-write and budget-aware: a
:class:`~repro.resilience.BuildBudget` checkpoints per re-scanned row,
and on exhaustion the raised :class:`~repro.errors.BudgetExceededError`
carries an exact :class:`~repro.resilience.PartialDiagram` over the rows
completed before the interruption while the original diagram stays
untouched.  Only first-quadrant (``mask=0``) 2-D diagrams are supported —
other orientations maintain their reflections.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.diagram.base import SkylineDiagram
from repro.diagram.pipeline import (
    BuildContext,
    BuildOptions,
    relabel_scan_order,
)
from repro.diagram.quadrant_scanning import (
    _corner_rows,
    _scan_rows,
    _seed_state,
)
from repro.diagram.store import ResultStore, _RLERowBuilder
from repro.errors import BudgetExceededError, QueryError
from repro.geometry.grid import Grid
from repro.geometry.point import Dataset, as_point
from repro.resilience import BudgetMeter, BuildBudget, PartialDiagram

__all__ = ["apply_ops", "delete_point", "insert_point"]


def _default_options(
    diagram: SkylineDiagram, build_options: BuildOptions | None
) -> BuildOptions | None:
    """Maintenance preserves the input store's backend unless told not to.

    With no explicit ``build_options`` an update of an RLE diagram stays
    RLE (taking the run-domain path when eligible); passing options with
    a different ``backend`` converts the updated store instead.
    """
    if build_options is not None:
        return build_options
    kind = diagram.store.backend_kind
    if kind == "dense":
        return None
    return BuildOptions(backend=kind)


def _check(diagram: SkylineDiagram) -> None:
    from repro.diagram.skyband import SkybandDiagram

    if isinstance(diagram, SkybandDiagram):
        raise QueryError(
            "incremental maintenance applies skyline update rules; "
            "rebuild k-skyband diagrams instead"
        )
    if diagram.kind != "quadrant" or diagram.mask != 0:
        raise QueryError(
            "incremental maintenance supports first-quadrant diagrams only"
        )
    if diagram.dim != 2:
        raise QueryError("incremental maintenance is implemented in 2-D")


def _column_origin(old_axis, new_axis) -> list[int]:
    """For each new cell column, the old column covering its interval."""
    origins = []
    old_i = 0
    for i in range(len(new_axis) + 1):
        # New column i spans (new_axis[i-1], new_axis[i]); advance past old
        # lines that end at or before the column's lower bound.
        if i > 0:
            value = new_axis[i - 1]
            while old_i < len(old_axis) and old_axis[old_i] <= value:
                old_i += 1
        origins.append(old_i)
    return origins


def _gather_block(
    store: ResultStore, x_origin: Sequence[int], y_cols: Sequence[int]
) -> np.ndarray:
    """Gather old cells ``(x_origin[i], y_cols[jj])`` as a rows-of-y block.

    Shape ``(len(y_cols), len(x_origin))`` int32 — row ``jj`` is scan row
    ``jj``, column ``i`` is store row ``i`` — matching the dense
    ``ids[np.ix_(x_origin, y_cols)].T`` gather.  RLE stores stay in the
    run domain: one ``searchsorted`` per referenced old row
    (``O(m log runs)`` instead of materializing the ``O(cells)`` grid).
    """
    if store.backend_kind == "dense":
        block = store.ids[np.ix_(x_origin, y_cols)].T
        return np.ascontiguousarray(block, dtype=np.int32)
    backend = store.backend
    xo = list(x_origin)
    y_arr = np.asarray(y_cols, dtype=np.int64)
    out = np.empty((y_arr.size, len(xo)), dtype=np.int32)
    cache: dict[int, np.ndarray] = {}
    for i, r in enumerate(xo):
        col = cache.get(r)
        if col is None:
            vals, ends = backend.row_runs(r)
            col = vals[np.searchsorted(ends, y_arr, side="right")]
            cache[r] = col
        out[:, i] = col
    return out


def _rle_suffix_runs(
    backend, x_origin: Sequence[int], y_origin: Sequence[int],
    dirty_hi: int, sy: int,
):
    """Clip each referenced old row's runs to the clean suffix, run-domain.

    The clean suffix of a new store row with origin ``r`` holds old row
    ``r``'s values at columns ``y_origin[dirty_hi:]``.  In the run
    domain that resampling is: map each old run end ``e`` to
    ``dirty_hi + #{sampled columns < e}`` (one ``searchsorted``) and
    keep the runs still covering at least one sampled column.  Returns

    * ``suffix``: old row -> ``(vals, ends)`` with *raw old* run values
      and new-row ends in ``(dirty_hi, sy]``;
    * ``used``: ascending unique raw ids over all suffixes — exactly the
      ids the dense gather would have seen, in the same order, so the
      presence relabel built on it is byte-identical to the dense path;
    * ``boundary_raw``: per new store row, the raw id at scan row
      ``dirty_hi`` (empty when there is no clean block).
    """
    xo = list(x_origin)
    y_arr = np.asarray(y_origin[dirty_hi:], dtype=np.int64)
    suffix: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    chunks = []
    for r in dict.fromkeys(xo):
        vals, ends = backend.row_runs(r)
        ne = np.searchsorted(y_arr, ends, side="left").astype(np.int64)
        ne += dirty_hi
        keep = np.empty(ne.size, dtype=bool)
        if ne.size:
            keep[0] = ne[0] > dirty_hi
            keep[1:] = ne[1:] > ne[:-1]
        sv = np.ascontiguousarray(vals[keep])
        suffix[r] = (sv, np.ascontiguousarray(ne[keep]))
        chunks.append(sv)
    used = (
        np.unique(np.concatenate(chunks))
        if chunks
        else np.empty(0, dtype=np.int64)
    )
    if y_arr.size:
        boundary_raw = np.asarray(
            [int(suffix[r][0][0]) for r in xo], dtype=np.int64
        )
    else:
        boundary_raw = np.empty(0, dtype=np.int64)
    return suffix, used, boundary_raw


def _rle_assemble(
    x_origin: Sequence[int],
    suffix: dict,
    rank: np.ndarray,
    dirty_final: np.ndarray,
    dirty_hi: int,
    sx: int,
    sy: int,
):
    """Stitch dirty-prefix columns and remapped clean suffixes per row.

    Each new store row is the compressed column ``i`` of the merged
    dirty block followed by its old row's clipped suffix runs remapped
    through ``rank`` (raw old id -> merged id), fusing the boundary run
    when the two sides agree at ``dirty_hi``.  The builder's row-delta
    sharing then matches what a fresh compressed build would produce.
    """
    builder = _RLERowBuilder((sx, sy))
    dirty_cols = np.ascontiguousarray(dirty_final.T) if dirty_hi else None
    for i, r in enumerate(x_origin):
        sv, se = suffix[r]
        sv = rank[sv]
        if dirty_cols is not None:
            col = dirty_cols[i]
            change = np.nonzero(col[1:] != col[:-1])[0]
            pv = np.empty(change.size + 1, dtype=np.int32)
            pe = np.empty(change.size + 1, dtype=np.int64)
            pv[:-1] = col[change]
            pe[:-1] = change + 1
            pv[-1] = col[-1]
            pe[-1] = dirty_hi
            if sv.size and pv[-1] == sv[0]:
                pv = pv[:-1]
                pe = pe[:-1]
            sv = np.concatenate((pv, sv))
            se = np.concatenate((pe, se))
        builder.add_row(sv, se)
    return builder.build()


def _splice_dirty(
    ctx: BuildContext,
    new_grid: Grid,
    new_id: int,
    old_store: ResultStore,
    old_table,
    x_origin: list[int],
    y_origin: list[int],
    dirty_hi: int,
    dirty_rows: np.ndarray,
    partial_rows,
) -> list | None:
    """Insert fast path: splice the new point into copies of the old rows.

    A new point ``p`` *changes* a dirty cell only where it enters the
    result — the cells seeing no strict dominator of ``p``.  Per dirty
    row that is one column interval ``[lo(j), rx)`` where ``lo(j)`` is
    the largest x-rank among dominators whose y-rank exceeds the row
    (the dominator staircase).  On those cells ``p`` is undominated
    among the candidates, so

        ``Sky(C ∪ {p}) = {p} ∪ {s ∈ Sky(C) : p does not dominate s}``

    — a pure splice of the copied old result that needs no re-scan; the
    non-splice clause holds because any non-skyline candidate stays
    dominated by a surviving maximal point (domination is transitive).
    Every other dirty cell keeps the old column-remapped result
    verbatim, by the same covering-column argument as the clean block.

    Returns the dirty rows' lookup table (the old table plus the spliced
    tail), or ``None`` when the appearance region references so many
    distinct results that the row kernel is the cheaper engine (the
    splice pays one Python tuple rebuild per distinct region result; the
    kernel pays per dirty cell).

    Budget checkpoints run once per completed row, matching the kernel
    path's semantics (``partial_rows`` sees rows ``[j, dirty_hi)``).
    """
    sx = new_grid.shape[0]
    rxp, _ = new_grid.rank_of(new_id)
    ranks = np.asarray(new_grid.ranks, dtype=np.int64)
    rx, ry = ranks[:, 0], ranks[:, 1]
    ryp = int(ry[new_id])
    dom = (rx <= rxp) & (ry <= ryp) & ((rx < rxp) | (ry < ryp))
    dom[new_id] = False
    dom_ids = np.nonzero(dom)[0]
    if len(dom_ids):
        d_rx = rx[dom_ids]
        d_ry = ry[dom_ids]
        order = np.argsort(d_ry, kind="stable")
        ry_sorted = d_ry[order]
        suffix_max = np.maximum.accumulate(d_rx[order][::-1])[::-1]
        pos = np.searchsorted(ry_sorted, np.arange(dirty_hi), side="right")
        lo = np.where(
            pos < len(dom_ids),
            suffix_max[np.minimum(pos, len(dom_ids) - 1)],
            0,
        )
        lo = np.minimum(lo, rxp)
    else:
        lo = np.zeros(dirty_hi, dtype=np.int64)
    base = _gather_block(old_store, x_origin, y_origin[:dirty_hi])
    segments = [
        base[j, lo[j] : rxp] for j in range(dirty_hi) if lo[j] < rxp
    ]
    used = (
        np.unique(np.concatenate(segments))
        if segments
        else np.empty(0, dtype=np.int64)
    )
    if len(used) * 8 > dirty_hi * sx:
        return None
    # Points the new point dominates — these leave any result p joins.
    shadowed = (rx >= rxp) & (ry >= ryp) & ((rx > rxp) | (ry > ryp))
    dom_set = set(np.nonzero(shadowed)[0].tolist())
    map_arr = np.zeros(max(1, len(old_table)), dtype=np.int32)
    tail: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    next_id = len(old_table)
    for u in used.tolist():
        # The new id is the largest, so appending keeps the tuple sorted.
        spliced = tuple(
            s for s in old_table[u] if s not in dom_set
        ) + (new_id,)
        hit = seen.get(spliced)
        if hit is None:
            seen[spliced] = hit = next_id
            tail.append(spliced)
            next_id += 1
        map_arr[u] = hit
    table = list(old_table) + tail
    dirty_rows[:] = base
    for j in range(dirty_hi - 1, -1, -1):
        if lo[j] < rxp:
            segment = dirty_rows[j, lo[j] : rxp]
            dirty_rows[j, lo[j] : rxp] = map_arr[segment]
        try:
            ctx.checkpoint(advance=sx, distinct=len(table))
        except BudgetExceededError as exc:
            if exc.partial is None:
                exc.partial = PartialDiagram(
                    new_grid,
                    partial_rows(j, dirty_rows, table),
                    None,
                    boundary_exact=True,
                )
            raise
    return table


def _merge_at_boundary(
    clean_local: np.ndarray,
    clean_table: list,
    dirty_local: np.ndarray,
    dirty_table: list,
    dirty_hi: int,
    rows_out: np.ndarray,
) -> list:
    """Merge the clean and dirty chunks without hashing the clean table.

    The clean chunk leads the global scan order and its table entries are
    distinct (an injective id remap of distinct old results), so its
    merged ids are ``0..C-1`` verbatim.  The dirty chunk only needs
    deduplication against the clean results that can recur below the
    boundary — and those all appear in the clean block's *bottom* row
    (``j = dirty_hi``):

    A cell's candidate set is antitone in its position, and for nested
    candidate sets ``A ⊇ B ⊇ C`` with ``Sky(A) = Sky(C) = S``, also
    ``Sky(B) = S`` (each point of ``S`` is undominated in ``A`` hence in
    ``B``; each point of ``B \\ S`` lies in ``A`` and is strictly
    dominated by some maximal point of ``A``, i.e. by ``S`` — with or
    without duplicate points).  So if a dirty cell ``(i1, j1)`` and a
    clean cell ``(i2, j2)`` share result ``S``, the corner cell
    ``(min(i1, i2), j)`` is sandwiched for every ``j1 <= j <= j2`` and
    carries ``S`` across row ``dirty_hi``.  Deduplicating against that
    one row's results replaces a dict over the full clean table (about
    as large as the cell count) with one over at most ``sx`` entries.
    """
    rows_out[dirty_hi:] = clean_local
    boundary_ids = (
        np.unique(clean_local[0]).tolist()
        if rows_out.shape[0] > dirty_hi
        else []
    )
    mapping, merged = _merge_tables(boundary_ids, clean_table, dirty_table)
    rows_out[:dirty_hi] = mapping[dirty_local]
    return merged


def _merge_tables(
    boundary_ids: list, clean_table: list, dirty_table: list
) -> tuple[np.ndarray, list]:
    """Dedup the dirty table against the clean boundary results.

    Returns ``(mapping, merged)``: ``mapping[k]`` is the merged id of
    dirty-local id ``k``, and ``merged`` extends ``clean_table`` with
    the genuinely new dirty results in dirty scan order.
    """
    boundary = {clean_table[i]: i for i in boundary_ids}
    next_id = len(clean_table)
    mapping = np.empty(max(1, len(dirty_table)), dtype=np.int32)
    tail = []
    for k, result in enumerate(dirty_table):
        hit = boundary.get(result)
        if hit is None:
            mapping[k] = next_id
            tail.append(result)
            next_id += 1
        else:
            mapping[k] = hit
    return mapping, clean_table + tail


def _rescan_update(
    ctx: BuildContext,
    diagram: SkylineDiagram,
    new_grid: Grid,
    x_origin: list[int],
    y_origin: list[int],
    dirty_hi: int,
    remap_table,
    new_point_id: int | None = None,
) -> SkylineDiagram:
    """Shared dirty-region engine behind both maintenance operations.

    Rows ``[dirty_hi, sy)`` of the new grid are clean: they are the old
    rows ``y_origin[j]`` with columns remapped through ``x_origin``, so
    one fancy-index copies the whole block.  Rows ``[0, dirty_hi)`` are
    re-scanned from the new dataset with the scanning constructor's own
    row kernel.  ``remap_table`` post-processes the clean block's
    restricted result table (deletion renumbers ids; insertion is the
    identity).  Both blocks merge in global scan order, which makes the
    result byte-identical to a fresh serial build.
    """
    old_store = diagram.store
    sx, sy = new_grid.shape
    # Run-domain fast path: an RLE store updating toward an RLE target
    # splices the clean suffix run-by-run — the old grid is never
    # materialized.  It requires the cheap presence relabel below, which
    # in turn requires a column map that never drops a column.
    direct_rle = (
        old_store.backend_kind == "rle"
        and ctx.options.backend == "rle"
        and sx >= old_store.shape[0]
    )
    if old_store.backend_kind != "dense" and not direct_rle:
        # Honest accounting: a compressed store that cannot take the
        # run-domain path is densified here, modified, and recompressed
        # to the target backend by ``ctx.finish``.
        ctx.report.backend_fallback = "densify"
    with ctx.phase("row_scan"):
        # Clean block first — it is the *top* of the scan order.  The
        # copy is one vectorized gather (skipped entirely on the
        # run-domain path); the checkpoint charges its cells so
        # time/cell budgets account for the whole update honestly.
        clean_rows = (
            None
            if direct_rle
            else _gather_block(old_store, x_origin, y_origin[dirty_hi:])
        )
        old_table = old_store.table_view()

        def partial_rows(upto: int, scan_rows, scan_table) -> dict:
            """Completed-suffix rows as raw tuples (mixed id spaces)."""
            remapped = remap_table(
                [old_table[i] for i in range(len(old_table))]
            )
            block = (
                clean_rows
                if clean_rows is not None
                else _gather_block(old_store, x_origin, y_origin[dirty_hi:])
            )
            rows: dict[int, list] = {}
            for jj in range(dirty_hi, sy):
                rows[jj] = [
                    remapped[i]
                    for i in block[jj - dirty_hi].tolist()
                ]
            for jj in range(upto, dirty_hi):
                rows[jj] = [
                    scan_table[i] for i in scan_rows[jj].tolist()
                ]
            return rows

        try:
            ctx.checkpoint(advance=(sy - dirty_hi) * sx)
        except BudgetExceededError as exc:
            if exc.partial is None:
                exc.partial = PartialDiagram(
                    new_grid,
                    partial_rows(dirty_hi, None, None),
                    None,
                    boundary_exact=True,
                )
            raise

        # Dirty block: an insert first tries the splice fast path —
        # overwrite only the new point's appearance staircase in a copy
        # of the old rows; otherwise re-scan rows [0, dirty_hi) with the
        # delta-form kernel, seeded at the dirty boundary from the
        # dataset alone.
        dirty_rows = np.empty((dirty_hi, sx), dtype=np.int32)
        table = None
        if new_point_id is not None:
            table = _splice_dirty(
                ctx,
                new_grid,
                new_point_id,
                old_store,
                old_table,
                x_origin,
                y_origin,
                dirty_hi,
                dirty_rows,
                partial_rows,
            )
        if table is None:
            row_corners, row_corner_cols = _corner_rows(new_grid)
            upper, diff_events, diff_deltas, table, intern = _seed_state(
                new_grid, dirty_hi
            )

            def on_row(j: int) -> None:
                try:
                    ctx.checkpoint(advance=sx, distinct=len(table))
                except BudgetExceededError as exc:
                    if exc.partial is None:
                        exc.partial = PartialDiagram(
                            new_grid,
                            partial_rows(j, dirty_rows, table),
                            None,
                            boundary_exact=True,
                        )
                    raise

            _scan_rows(
                sx,
                row_corners,
                row_corner_cols,
                0,
                dirty_hi,
                upper,
                diff_events,
                diff_deltas,
                table,
                intern,
                dirty_rows,
                0,
                on_row,
            )
        ctx.count_rows(dirty_hi)
    with ctx.phase("intern"):
        # Treat the clean copy and the re-scan as two chunks of a sharded
        # build: relabel each into scan-order-first-occurrence ids, then
        # merge topmost first — exactly the path that makes process-pool
        # builds byte-identical to serial.
        #
        # The clean block usually gets a cheaper relabel: the old store's
        # table is already in scan-first-occurrence order (every build
        # path guarantees byte-identity with serial), and a column map
        # that never *drops* a column (insert always; delete when the
        # victim shares its x grid line) preserves the relative order of
        # first occurrences — duplicated columns sit adjacent in scan
        # order and cannot reorder anything.  Ascending old id therefore
        # IS first-occurrence order, and a presence mask replaces the
        # O(cells log cells) sort inside relabel_scan_order.  A dropped
        # column can move an id's first occurrence past another's, so
        # that case keeps the general relabel.
        clean_local = None
        if direct_rle:
            # Same presence relabel, computed over run values instead of
            # cells; ``used`` is ascending either way, so the clean ids
            # come out byte-identical to the dense gather's.
            suffix_runs, used, boundary_raw = _rle_suffix_runs(
                old_store.backend, x_origin, y_origin, dirty_hi, sy
            )
            rank = np.zeros(max(1, len(old_table)), dtype=np.int32)
            rank[used] = np.arange(len(used), dtype=np.int32)
            if len(used) == len(old_table):
                clean_table = list(old_table)
            else:
                clean_table = list(
                    map(old_table.__getitem__, used.tolist())
                )
        elif sx >= old_store.shape[0]:
            counts = np.bincount(
                clean_rows.ravel(), minlength=len(old_table)
            )
            used = np.nonzero(counts)[0]
            rank = np.zeros(max(1, len(old_table)), dtype=np.int32)
            rank[used] = np.arange(len(used), dtype=np.int32)
            clean_local = rank[clean_rows]
            if len(used) == len(old_table):
                clean_table = list(old_table)
            else:
                clean_table = list(
                    map(old_table.__getitem__, used.tolist())
                )
        else:
            clean_local, clean_table = relabel_scan_order(
                clean_rows, old_table, flip=True
            )
        clean_table = remap_table(clean_table)
        dirty_local, dirty_table = relabel_scan_order(
            dirty_rows, table, flip=True
        )
        if direct_rle:
            boundary_ids = (
                np.unique(rank[boundary_raw]).tolist()
                if sy > dirty_hi
                else []
            )
            mapping, merged = _merge_tables(
                boundary_ids, clean_table, dirty_table
            )
            dirty_final = mapping[dirty_local]
            rows_out = None
        else:
            rows_out = np.empty((sy, sx), dtype=np.int32)
            merged = _merge_at_boundary(
                clean_local,
                clean_table,
                dirty_local,
                dirty_table,
                dirty_hi,
                rows_out,
            )
        ctx.checkpoint(distinct=len(merged))
    with ctx.phase("assemble"):
        if direct_rle:
            backend = _rle_assemble(
                x_origin, suffix_runs, rank, dirty_final, dirty_hi, sx, sy
            )
            store = ResultStore((sx, sy), backend, merged)
        else:
            store = ResultStore(
                (sx, sy), np.ascontiguousarray(rows_out.T), merged
            )
        updated = SkylineDiagram(
            new_grid,
            store,
            kind="quadrant",
            mask=0,
            algorithm=ctx.report.algorithm,
        )
    return ctx.finish(updated)


def insert_point(
    diagram: SkylineDiagram,
    point: Sequence[float],
    budget: BuildBudget | BudgetMeter | None = None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """Insert one point, re-scanning only its dirty lower-left rows.

    The new point's id is ``len(old dataset)``.  Only rows strictly below
    the point's y-rank are re-scanned (``build_report.rows_scanned``
    counts exactly those); everything above is a vectorized copy of the
    old store.  The returned diagram's store is byte-identical to a fresh
    serial build over the extended dataset.  ``budget`` checkpoints once
    per re-scanned row; the original diagram is untouched on exhaustion
    (maintenance is copy-on-write) and the raised error carries an exact
    partial over the completed rows.

    >>> from repro.diagram import quadrant_scanning
    >>> updated = insert_point(quadrant_scanning([(5, 5)]), (2, 2))
    >>> updated.result_at((0, 0))
    (1,)
    """
    _check(diagram)
    ctx = BuildContext(
        budget,
        _default_options(diagram, build_options),
        algorithm=f"{diagram.algorithm}+insert",
        kind="maintenance",
        serial_only=True,
    )
    p = as_point(point)
    old = diagram.grid.dataset
    with ctx.phase("rank_space"):
        new_dataset = Dataset([*old.points, p])
        new_grid = Grid(new_dataset)
        new_id = len(old)
        _, ry = new_grid.rank_of(new_id)
        x_origin = _column_origin(diagram.grid.axes[0], new_grid.axes[0])
        y_origin = _column_origin(diagram.grid.axes[1], new_grid.axes[1])
    # Point ids are append-only on insert, so the clean block's table
    # entries carry over verbatim.
    return _rescan_update(
        ctx,
        diagram,
        new_grid,
        x_origin,
        y_origin,
        ry,
        lambda table: table,
        new_point_id=new_id,
    )


def delete_point(
    diagram: SkylineDiagram,
    point_id: int,
    budget: BuildBudget | BudgetMeter | None = None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """Delete one point, re-scanning only its dirty lower-left rows.

    Ids above ``point_id`` shift down by one (the dataset contracts); the
    victim never appears in a clean cell's result (a point is only listed
    where it is a candidate, and its candidate region *is* the dirty
    block), so the clean block carries over with a pure id renumbering.
    ``budget`` checkpoints as in :func:`insert_point`.

    >>> from repro.diagram import quadrant_scanning
    >>> diagram = quadrant_scanning([(1, 1), (2, 2)])
    >>> delete_point(diagram, 0).result_at((0, 0))
    (0,)
    """
    _check(diagram)
    ctx = BuildContext(
        budget,
        _default_options(diagram, build_options),
        algorithm=f"{diagram.algorithm}+delete",
        kind="maintenance",
        serial_only=True,
    )
    old = diagram.grid.dataset
    if not 0 <= point_id < len(old):
        raise QueryError(f"point id {point_id} out of range")
    if len(old) == 1:
        raise QueryError("cannot delete the last point of a diagram")
    with ctx.phase("rank_space"):
        _, victim_ry = diagram.grid.rank_of(point_id)
        remaining = [q for i, q in enumerate(old.points) if i != point_id]
        new_grid = Grid(Dataset(remaining))
        x_origin = _column_origin(diagram.grid.axes[0], new_grid.axes[0])
        y_origin = _column_origin(diagram.grid.axes[1], new_grid.axes[1])
        # New rows whose interval lies below the victim's y grid line are
        # dirty; y_origin is monotone, so they form the prefix of rows
        # mapping to old rows < victim_ry.
        sy = new_grid.shape[1]
        dirty_hi = next(
            (j for j in range(sy) if y_origin[j] >= victim_ry), sy
        )

    def remap_table(table):
        # Results are sorted, so a max id below the victim means no id
        # shifts — keep the tuple (the common case for late victims).
        return [
            result
            if not result or result[-1] < point_id
            else tuple(q - 1 if q > point_id else q for q in result)
            for result in table
        ]

    return _rescan_update(
        ctx, diagram, new_grid, x_origin, y_origin, dirty_hi, remap_table
    )


def apply_ops(
    diagram: SkylineDiagram,
    ops: Sequence[tuple[str, Sequence[float] | int]],
    budget: BuildBudget | BudgetMeter | None = None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """Apply a batch of updates with *one* union dirty-block re-scan.

    ``ops`` is a sequence of ``("insert", point)`` / ``("delete", id)``
    pairs in journal order, delete ids addressing the journal-prospective
    dataset exactly as the update queue records them.  Instead of ``k``
    sequential maintenance passes the ops compose: the final dataset is
    computed directly, the dirty region is the **union** of every
    surviving op's lower-left block (an insert later deleted cancels
    entirely and dirties nothing), and a single re-scan covers the
    union while the complement carries over from the old store with a
    composed id renumbering.  The result is byte-identical (content
    fingerprint) to applying the ops one at a time — and to a fresh
    serial build over the final dataset.

    >>> from repro.diagram import quadrant_scanning
    >>> d = apply_ops(
    ...     quadrant_scanning([(5, 5), (1, 9)]),
    ...     [("insert", (2, 2)), ("delete", 0)],
    ... )
    >>> d.result_at((0, 0))
    (1,)
    """
    _check(diagram)
    old = diagram.grid.dataset
    # Replay the journal over position labels: survivors keep their
    # relative order, inserts append, and a delete of a still-pending
    # insert cancels the pair.
    labels: list[tuple[bool, int]] = [(False, i) for i in range(len(old))]
    inserted: list = []
    for op, value in ops:
        if op == "insert":
            labels.append((True, len(inserted)))
            inserted.append(as_point(value))
        elif op == "delete":
            idx = int(value)
            if not 0 <= idx < len(labels):
                raise QueryError(f"point id {idx} out of range")
            if len(labels) == 1:
                raise QueryError(
                    "cannot delete the last point of a diagram"
                )
            del labels[idx]
        else:
            raise QueryError(f"unknown update op {op!r}")
    if len(labels) == len(old) and not any(is_new for is_new, _ in labels):
        return diagram  # every op cancelled against another
    ctx = BuildContext(
        budget,
        _default_options(diagram, build_options),
        algorithm=f"{diagram.algorithm}+batch",
        kind="maintenance",
        serial_only=True,
    )
    with ctx.phase("rank_space"):
        points = []
        final_of_old: dict[int, int] = {}
        for pos, (is_new, i) in enumerate(labels):
            if is_new:
                points.append(inserted[i])
            else:
                points.append(old.points[i])
                final_of_old[i] = pos
        new_dataset = Dataset(points)
        new_grid = Grid(new_dataset)
        x_origin = _column_origin(diagram.grid.axes[0], new_grid.axes[0])
        y_origin = _column_origin(diagram.grid.axes[1], new_grid.axes[1])
        sy = new_grid.shape[1]
        # Union of the dirty lower-left blocks: a point only changes
        # results strictly below its y grid line, so the union of row
        # prefixes is the row prefix of the max bound.
        dirty_hi = 0
        for pos, (is_new, _) in enumerate(labels):
            if is_new:
                dirty_hi = max(dirty_hi, new_grid.rank_of(pos)[1])
        for victim in set(range(len(old))) - set(final_of_old):
            victim_ry = diagram.grid.rank_of(victim)[1]
            bound = next(
                (j for j in range(sy) if y_origin[j] >= victim_ry), sy
            )
            dirty_hi = max(dirty_hi, bound)
        # Composed renumbering of surviving old ids (monotone, so the
        # remapped result tuples stay sorted); victims never appear in
        # clean results — their candidate regions are inside the union.
        identity = all(i == pos for i, pos in final_of_old.items())
        shift = np.zeros(max(1, len(old)), dtype=np.int64)
        for i, pos in final_of_old.items():
            shift[i] = pos

    def remap_table(table):
        if identity:
            return table if isinstance(table, list) else list(table)
        return [
            tuple(int(shift[q]) for q in result) for result in table
        ]

    return _rescan_update(
        ctx, diagram, new_grid, x_origin, y_origin, dirty_hi, remap_table
    )
