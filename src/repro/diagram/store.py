"""Compact array-backed storage of per-cell diagram results.

A skyline diagram assigns one canonical result (a sorted tuple of point
ids) to each of its ``O(n^d)`` cells, but the number of *distinct* results
is far smaller — for 2-D quadrant diagrams it is bounded by the number of
skyline polyominos.  Storing one Python tuple per cell therefore wastes
both memory and time (every dict insert hashes a cell tuple, every
comparison walks a result tuple).

:class:`ResultStore` exploits this redundancy: the distinct results are
*interned* once into a table (position = result id) and the per-cell
assignment lives behind a :class:`GridBackend`.  Result equality becomes
integer equality, cell lookup becomes a backend read, and batch point
location reduces to one backend gather.  The store is the shared backing
of :class:`~repro.diagram.base.SkylineDiagram` and
:class:`~repro.diagram.base.DynamicDiagram`; the historical
``dict[cell, result]`` interface survives as iteration (:meth:`items`) and
conversion (:meth:`to_dict`) views, so dict-producing construction
algorithms keep working unchanged through :meth:`from_dict`.

Two backends implement the id-grid contract:

* :class:`DenseBackend` — the historical ``int32`` ndarray, zero-copy
  compatible with mmapped snapshots and the fused scalar lookup.
* :class:`RLEBackend` — per-row run-length encoding with row-delta
  sharing (identical adjacent rows alias one run slice).  Rows of a
  skyline diagram are long constant runs by Theorem 1, so this is
  typically 10-100x smaller than dense and is how grids with ``O(n^2)``
  cells at n >= 100k stay representable at all.  Content-identical to
  dense: fingerprints match byte for byte.
"""

from __future__ import annotations

import hashlib
from bisect import insort
from collections.abc import Callable, Mapping, Sequence
from itertools import product
from typing import Iterator

import numpy as np

from repro.errors import AuditError

Cell = tuple[int, ...]
Result = tuple[int, ...]


class ConsForestTable:
    """An interned result table stored as a cons forest, materialized lazily.

    Node ``rid >= 1`` holds the result of corner group ``rep[rid - 1]``
    merged into the result of its parent node ``par[rid - 1] + 1``
    (``par == -1`` points at the empty result, id 0).  Parents always
    have smaller ids than their children, so the whole table materializes
    in a single forward pass and a single node materializes by walking
    its parent chain to the nearest already-built ancestor.

    The vectorized quadrant executor emits this forest directly: every
    provisional scan node is provably distinct (each contains a corner
    group introduced in its own scan row, and point ids partition across
    corner groups), so the forest *is* the interned table and building
    the Python result tuples can be deferred until something reads them.
    :class:`ResultStore` upgrades the forest to a plain list the first
    time ``store.table`` is accessed; id-level queries go through
    :meth:`result` and touch only the chains they need.
    """

    __slots__ = ("_rep", "_par", "_groups", "_cache")

    def __init__(
        self,
        rep: np.ndarray,
        par: np.ndarray,
        groups: Sequence[Result],
    ) -> None:
        self._rep = rep
        self._par = par
        self._groups = groups
        self._cache: list[Result | None] | None = None

    def __len__(self) -> int:
        return int(self._rep.size) + 1

    def result(self, rid: int) -> Result:
        """Result tuple of one id, materializing (and caching) its chain."""
        if rid == 0:
            return ()
        cache = self._cache
        if cache is None:
            cache = self._cache = [None] * (int(self._rep.size) + 1)
            cache[0] = ()
        got = cache[rid]
        if got is not None:
            return got
        par = self._par.item
        chain: list[int] = []
        node = rid
        while cache[node] is None:
            chain.append(node)
            node = par(node - 1) + 1
        merged = list(cache[node])
        groups = self._groups
        rep = self._rep.item
        for node in reversed(chain):
            for pid in groups[rep(node - 1)]:
                insort(merged, pid)
            cache[node] = tuple(merged)
        return cache[rid]

    def results(self, rids: list[int]) -> list[Result]:
        """Result tuples of many ids (see :func:`_cached_results`)."""
        return _cached_results(self._cache, self.result, rids)

    def __getitem__(self, rid: int) -> Result:
        return self.result(int(rid))

    def materialize(self) -> list[Result]:
        """The full table as a plain list, built in one forward pass."""
        groups = self._groups
        table: list[Result] = [()]
        append = table.append
        for gi, p in zip(self._rep.tolist(), self._par.tolist()):
            group = groups[gi]
            if p < 0:
                tup = group
            else:
                merged = list(table[p + 1])
                for pid in group:
                    insort(merged, pid)
                tup = tuple(merged)
            append(tup)
        return table


class PackedTable:
    """An interned result table stored as packed (CSR) index arrays.

    ``values[offsets[rid]:offsets[rid + 1]]`` holds the sorted point ids
    of result ``rid``.  This is the zero-copy on-disk layout of the v3
    snapshot format: both arrays may be views straight into an mmapped
    save envelope, so N serving workers share one physical copy of the
    table.  Tuples are built lazily per id (and cached), exactly like
    :class:`ConsForestTable`; ``store.table`` access upgrades to a plain
    list via :meth:`materialize`.
    """

    __slots__ = ("_offsets", "_values", "_cache")

    def __init__(self, offsets: np.ndarray, values: np.ndarray) -> None:
        self._offsets = offsets
        self._values = values
        self._cache: list[Result | None] | None = None

    def __len__(self) -> int:
        return int(self._offsets.size) - 1

    def result(self, rid: int) -> Result:
        """Result tuple of one id, materializing (and caching) it."""
        cache = self._cache
        if cache is None:
            cache = self._cache = [None] * (int(self._offsets.size) - 1)
        got = cache[rid]
        if got is not None:
            return got
        lo = int(self._offsets[rid])
        hi = int(self._offsets[rid + 1])
        tup = tuple(self._values[lo:hi].tolist())
        cache[rid] = tup
        return tup

    def results(self, rids: list[int]) -> list[Result]:
        """Result tuples of many ids (see :func:`_cached_results`)."""
        return _cached_results(self._cache, self.result, rids)

    def __getitem__(self, rid: int) -> Result:
        return self.result(int(rid))

    def materialize(self) -> list[Result]:
        """The full table as a plain list, in one pass over the arrays."""
        offsets = self._offsets.tolist()
        values = self._values.tolist()
        return [
            tuple(values[offsets[rid] : offsets[rid + 1]])
            for rid in range(len(offsets) - 1)
        ]


def _cached_results(
    cache: list[Result | None] | None,
    result: Callable[[int], Result],
    rids: list[int],
) -> list[Result]:
    """Batch read of a lazy table's per-id tuple cache.

    Cached tuples come out of one comprehension; only the misses pay a
    :meth:`result` call (which materializes and caches them).  A table
    nothing has read yet has no cache, so every id is a miss.
    """
    if cache is None:
        return [result(rid) for rid in rids]
    out: list = [cache[rid] for rid in rids]
    if None in out:
        out = [
            got if got is not None else result(rid)
            for got, rid in zip(out, rids)
        ]
    return out


#: Recognised grid backends, in `convert()`/`BuildOptions(backend=...)` order.
BACKENDS = ("dense", "rle")


def _table_nbytes(
    table: "list[Result] | ConsForestTable | PackedTable",
) -> int:
    """Approximate resident bytes of an interned table backing.

    Lazy backings report their array footprint without materializing;
    plain lists use the CPython tuple-of-ints size formula.
    """
    if isinstance(table, PackedTable):
        return int(table._offsets.nbytes + table._values.nbytes)
    if isinstance(table, ConsForestTable):
        groups = sum(56 + 8 * len(g) for g in table._groups)
        return int(table._rep.nbytes + table._par.nbytes + groups)
    return sum(56 + 8 * len(t) for t in table)


def _multi_arange(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` for paired arrays, vectorized."""
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    keep = lens > 0
    if not bool(keep.all()):
        starts, lens = starts[keep], lens[keep]
    if lens.size == 0:
        return np.empty(0, dtype=np.int64)
    steps = np.ones(int(lens.sum()), dtype=np.int64)
    ends = np.cumsum(lens)
    steps[0] = starts[0]
    steps[ends[:-1]] = starts[1:] - starts[:-1] - lens[:-1] + 1
    return np.cumsum(steps)


class GridBackend:
    """Storage contract for the per-cell id grid of a :class:`ResultStore`.

    A backend views the grid as ``num_rows`` rows of ``row_width`` cells
    (the trailing axis; leading axes are flattened in C order), so the
    row-streaming default implementations of :meth:`fingerprint_section`
    and :meth:`to_dense` produce exactly the bytes of the dense C-order
    array — which is what keeps fingerprints backend-independent.

    Subclasses implement: ``id_at``, ``lookup_batch_ids``, ``row_view``,
    ``set_row_runs``, ``nbytes``, ``min_max``, ``mark_referenced``,
    ``flip`` and ``copy``.
    """

    kind: str = "abstract"
    __slots__ = ("shape",)

    def __init__(self, shape: Sequence[int]) -> None:
        self.shape: tuple[int, ...] = tuple(int(e) for e in shape)

    @property
    def num_rows(self) -> int:
        rows = 1
        for extent in self.shape[:-1]:
            rows *= extent
        return rows

    @property
    def row_width(self) -> int:
        return self.shape[-1] if self.shape else 1

    @property
    def num_cells(self) -> int:
        cells = 1
        for extent in self.shape:
            cells *= extent
        return cells

    # -- the per-cell contract -----------------------------------------
    def id_at(self, cell: Cell) -> int:
        raise NotImplementedError

    def lookup_batch_ids(self, cells: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def row_view(self, row: int) -> np.ndarray:
        """Row ``row`` (flat leading index) as a dense 1-D id array."""
        raise NotImplementedError

    def set_row_runs(
        self, row: int, vals: np.ndarray, ends: np.ndarray
    ) -> None:
        """Overwrite one row with runs ``vals`` ending at ``ends``."""
        raise NotImplementedError

    def nbytes(self) -> int:
        raise NotImplementedError

    def min_max(self) -> tuple[int, int]:
        """Smallest and largest referenced id (grid must be non-empty)."""
        raise NotImplementedError

    def mark_referenced(self, mask: np.ndarray) -> None:
        """Set ``mask[rid] = True`` for every id referenced by a cell."""
        raise NotImplementedError

    def flip(self, axes: tuple[int, ...]) -> "GridBackend":
        raise NotImplementedError

    def copy(self) -> "GridBackend":
        raise NotImplementedError

    # -- shared row-streaming defaults ---------------------------------
    def fingerprint_section(self, digest) -> None:
        """Feed the C-order int64 grid bytes into ``digest``, row by row."""
        for row in range(self.num_rows):
            digest.update(
                np.ascontiguousarray(
                    self.row_view(row), dtype=np.int64
                ).tobytes()
            )

    def to_dense(self) -> np.ndarray:
        """Materialize the full dense id array (C order)."""
        out = np.empty((self.num_rows, self.row_width), dtype=np.int32)
        for row in range(self.num_rows):
            out[row] = self.row_view(row)
        return out.reshape(self.shape)


class DenseBackend(GridBackend):
    """The historical dense integer ndarray — one id per cell.

    ``array`` keeps whatever integer dtype it arrives with (mmapped v3
    snapshots store the minimal unsigned dtype), so wrapping a mapped
    view stays zero-copy.
    """

    kind = "dense"
    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        super().__init__(array.shape)
        self.array = array

    def id_at(self, cell: Cell) -> int:
        return int(self.array[tuple(cell)])

    def lookup_batch_ids(self, cells: np.ndarray) -> np.ndarray:
        return self.array[tuple(cells.T)]

    def row_view(self, row: int) -> np.ndarray:
        return self.array.reshape(self.num_rows, self.row_width)[row]

    def set_row_runs(
        self, row: int, vals: np.ndarray, ends: np.ndarray
    ) -> None:
        ends = np.asarray(ends, dtype=np.int64)
        counts = np.diff(ends, prepend=0)
        self.array.reshape(self.num_rows, self.row_width)[row] = np.repeat(
            np.asarray(vals), counts
        )

    def nbytes(self) -> int:
        return int(self.array.nbytes)

    def min_max(self) -> tuple[int, int]:
        return int(self.array.min()), int(self.array.max())

    def mark_referenced(self, mask: np.ndarray) -> None:
        mask[self.array.reshape(-1)] = True

    def fingerprint_section(self, digest) -> None:
        digest.update(
            np.ascontiguousarray(self.array, dtype=np.int64).tobytes()
        )

    def to_dense(self) -> np.ndarray:
        return self.array

    def flip(self, axes: tuple[int, ...]) -> "DenseBackend":
        return DenseBackend(
            np.ascontiguousarray(np.flip(self.array, axis=axes))
        )

    def copy(self) -> "DenseBackend":
        return DenseBackend(self.array.copy())


class _RLERowBuilder:
    """Accumulate rows of runs into one packed :class:`RLEBackend`.

    Consecutive identical rows are detected here (row-delta sharing):
    a repeat contributes only a row pointer, no run storage.
    """

    def __init__(self, shape: Sequence[int]) -> None:
        self.shape = tuple(int(e) for e in shape)
        self._vals: list[np.ndarray] = []
        self._ends: list[np.ndarray] = []
        self._row_start: list[int] = []
        self._row_nruns: list[int] = []
        self._total = 0
        self._prev: tuple[np.ndarray, np.ndarray, int] | None = None

    def add_row(self, vals: np.ndarray, ends: np.ndarray) -> None:
        vals = np.asarray(vals, dtype=np.int32)
        ends = np.asarray(ends, dtype=np.int32)
        prev = self._prev
        if (
            prev is not None
            and prev[0].size == vals.size
            and np.array_equal(prev[0], vals)
            and np.array_equal(prev[1], ends)
        ):
            self._row_start.append(prev[2])
            self._row_nruns.append(int(vals.size))
            return
        start = self._total
        self._row_start.append(start)
        self._row_nruns.append(int(vals.size))
        self._vals.append(vals)
        self._ends.append(ends)
        self._prev = (vals, ends, start)
        self._total += int(vals.size)

    def build(self) -> "RLEBackend":
        empty = np.empty(0, dtype=np.int32)
        return RLEBackend(
            self.shape,
            np.asarray(self._row_start, dtype=np.int64),
            np.asarray(self._row_nruns, dtype=np.int32),
            np.concatenate(self._vals) if self._vals else empty,
            np.concatenate(self._ends) if self._ends else empty,
        )


class RLEBackend(GridBackend):
    """Per-row run-length encoding of the id grid, with row-delta sharing.

    Row ``r`` (a flat leading index) is the run slice
    ``run_vals[s : s + k]`` / ``run_ends[s : s + k]`` with
    ``s = row_start[r]``, ``k = row_nruns[r]``: run ``i`` holds id
    ``run_vals[i]`` on cells ``[run_ends[i - 1], run_ends[i])`` of the
    trailing axis (the last end is always ``row_width``).  Identical
    adjacent rows share one slice.  All four arrays serialize as v4
    sections and may be read-only mmap views; mutation
    (:meth:`set_row_runs`) is append-and-repoint, never in-place.
    """

    kind = "rle"
    __slots__ = ("row_start", "row_nruns", "run_vals", "run_ends")

    def __init__(
        self,
        shape: Sequence[int],
        row_start: np.ndarray,
        row_nruns: np.ndarray,
        run_vals: np.ndarray,
        run_ends: np.ndarray,
    ) -> None:
        super().__init__(shape)
        if row_start.shape != (self.num_rows,) or row_nruns.shape != (
            self.num_rows,
        ):
            raise ValueError(
                f"row index arrays of shapes {row_start.shape}/"
                f"{row_nruns.shape} for {self.num_rows} rows"
            )
        if run_vals.shape != run_ends.shape:
            raise ValueError("run value/end arrays differ in shape")
        self.row_start = row_start
        self.row_nruns = row_nruns
        self.run_vals = run_vals
        self.run_ends = run_ends

    # -- construction --------------------------------------------------
    @classmethod
    def from_dense(cls, ids: np.ndarray) -> "RLEBackend":
        """Compress a dense id array (vectorized, then row-delta dedup)."""
        shape = tuple(int(e) for e in ids.shape)
        width = shape[-1] if shape else 1
        rows = 1
        for extent in shape[:-1]:
            rows *= extent
        empty = np.empty(0, dtype=np.int32)
        if width == 0 or rows == 0:
            return cls(
                shape,
                np.zeros(rows, dtype=np.int64),
                np.zeros(rows, dtype=np.int32),
                empty,
                empty,
            )
        flat = np.ascontiguousarray(ids, dtype=np.int32).reshape(rows, width)
        starts_mask = np.ones((rows, width), dtype=bool)
        if width > 1:
            starts_mask[:, 1:] = flat[:, 1:] != flat[:, :-1]
        flat_idx = np.nonzero(starts_mask.reshape(-1))[0]
        pos = flat_idx % width
        row_of = flat_idx // width
        run_vals = flat.reshape(-1)[flat_idx]
        run_ends = np.empty(flat_idx.size, dtype=np.int32)
        if flat_idx.size > 1:
            run_ends[:-1] = np.where(
                row_of[1:] == row_of[:-1], pos[1:], width
            )
        run_ends[-1] = width
        row_nruns = np.bincount(row_of, minlength=rows).astype(np.int32)
        row_start = np.concatenate(
            ([0], np.cumsum(row_nruns[:-1], dtype=np.int64))
        )
        packed = cls(shape, row_start, row_nruns, run_vals, run_ends)
        return packed._dedup_rows()

    def _dedup_rows(self) -> "RLEBackend":
        """Share run storage between identical adjacent rows (vectorized)."""
        rows = self.num_rows
        nruns = self.row_nruns.astype(np.int64)
        if rows <= 1 or self.run_vals.size == 0:
            return self
        cand = np.nonzero(nruns[1:] == nruns[:-1])[0] + 1
        if cand.size == 0:
            return self
        lens = nruns[cand]
        cur = _multi_arange(self.row_start[cand], lens)
        prev = _multi_arange(self.row_start[cand - 1], lens)
        eq = (self.run_vals[cur] == self.run_vals[prev]) & (
            self.run_ends[cur] == self.run_ends[prev]
        )
        bounds = np.concatenate(([0], np.cumsum(lens)))
        dup = np.ones(cand.size, dtype=bool)
        nonzero = np.nonzero(lens > 0)[0]
        if nonzero.size:
            # Zero-length segments collapse their bounds, so reduceat over
            # the non-empty segment starts still covers exactly each one.
            dup[nonzero] = np.logical_and.reduceat(eq, bounds[nonzero])
        is_dup = np.zeros(rows, dtype=bool)
        is_dup[cand] = dup
        if not bool(is_dup.any()):
            return self
        keep = ~is_dup
        keep_lens = nruns[keep]
        take = _multi_arange(self.row_start[keep], keep_lens)
        new_vals = np.ascontiguousarray(self.run_vals[take])
        new_ends = np.ascontiguousarray(self.run_ends[take])
        starts_kept = np.concatenate(
            ([0], np.cumsum(keep_lens[:-1]))
        ).astype(np.int64)
        new_start = np.zeros(rows, dtype=np.int64)
        new_start[keep] = starts_kept
        anchor = np.maximum.accumulate(
            np.where(keep, np.arange(rows), -1)
        )
        return RLEBackend(
            self.shape,
            new_start[anchor],
            self.row_nruns.astype(np.int32),
            new_vals,
            new_ends,
        )

    # -- lookups -------------------------------------------------------
    def _row_index(self, cell: Cell) -> int:
        row = 0
        for c, extent in zip(cell[:-1], self.shape[:-1]):
            row = row * extent + int(c)
        return row

    def id_at(self, cell: Cell) -> int:
        row = self._row_index(cell)
        start = int(self.row_start[row])
        count = int(self.row_nruns[row])
        k = start + int(
            np.searchsorted(
                self.run_ends[start : start + count],
                int(cell[-1]),
                side="right",
            )
        )
        return int(self.run_vals[k])

    def lookup_batch_ids(self, cells: np.ndarray) -> np.ndarray:
        m = int(cells.shape[0])
        out = np.empty(m, dtype=np.int64)
        if m == 0:
            return out
        lead = self.shape[:-1]
        if lead:
            rows = np.ravel_multi_index(
                tuple(cells[:, :-1].astype(np.int64).T), lead
            )
        else:
            rows = np.zeros(m, dtype=np.int64)
        starts = self.row_start[rows].tolist()
        counts = self.row_nruns[rows].tolist()
        ys = cells[:, -1].tolist()
        ends = self.run_ends
        vals = self.run_vals
        searchsorted = np.searchsorted
        for i in range(m):
            s = starts[i]
            k = s + int(
                searchsorted(ends[s : s + counts[i]], ys[i], side="right")
            )
            out[i] = vals[k]
        return out

    def row_view(self, row: int) -> np.ndarray:
        start = int(self.row_start[row])
        count = int(self.row_nruns[row])
        ends = self.run_ends[start : start + count].astype(np.int64)
        counts = np.diff(ends, prepend=0)
        return np.repeat(
            self.run_vals[start : start + count], counts
        ).astype(np.int32, copy=False)

    def row_runs(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """One row's ``(vals, ends)`` run slice (views, do not mutate)."""
        start = int(self.row_start[row])
        count = int(self.row_nruns[row])
        return (
            self.run_vals[start : start + count],
            self.run_ends[start : start + count],
        )

    def set_row_runs(
        self, row: int, vals: np.ndarray, ends: np.ndarray
    ) -> None:
        """Repoint ``row`` at freshly appended runs (mmap-safe: no
        in-place writes; rows sharing the old slice are untouched)."""
        vals = np.asarray(vals, dtype=np.int32)
        ends = np.asarray(ends, dtype=np.int32)
        if vals.shape != ends.shape or vals.ndim != 1:
            raise ValueError("row runs need matching 1-D value/end arrays")
        if self.row_width:
            if vals.size == 0 or int(ends[-1]) != self.row_width:
                raise ValueError(
                    f"row runs must end at {self.row_width}, got "
                    f"{ends[-1] if ends.size else 'nothing'}"
                )
            if ends.size > 1 and bool((np.diff(ends) <= 0).any()):
                raise ValueError("run ends must be strictly increasing")
        start = int(self.run_vals.size)
        self.run_vals = np.concatenate((self.run_vals, vals))
        self.run_ends = np.concatenate((self.run_ends, ends))
        row_start = np.array(self.row_start)
        row_start[row] = start
        self.row_start = row_start
        row_nruns = np.array(self.row_nruns)
        row_nruns[row] = vals.size
        self.row_nruns = row_nruns

    # -- bookkeeping ---------------------------------------------------
    def nbytes(self) -> int:
        return int(
            self.row_start.nbytes
            + self.row_nruns.nbytes
            + self.run_vals.nbytes
            + self.run_ends.nbytes
        )

    def _used_indices(self) -> np.ndarray:
        return _multi_arange(self.row_start, self.row_nruns)

    def min_max(self) -> tuple[int, int]:
        used = self.run_vals[self._used_indices()]
        return int(used.min()), int(used.max())

    def mark_referenced(self, mask: np.ndarray) -> None:
        mask[self.run_vals[self._used_indices()]] = True

    def flip(self, axes: tuple[int, ...]) -> "RLEBackend":
        ndim = len(self.shape)
        normalized = {a % ndim for a in axes}
        flip_last = (ndim - 1) in normalized
        lead_axes = tuple(a for a in sorted(normalized) if a != ndim - 1)
        if lead_axes:
            order = np.arange(self.num_rows).reshape(self.shape[:-1])
            order = np.flip(order, axis=lead_axes).reshape(-1)
        else:
            order = np.arange(self.num_rows)
        width = self.row_width
        builder = _RLERowBuilder(self.shape)
        for row in order.tolist():
            vals, ends = self.row_runs(row)
            if flip_last and vals.size:
                starts = np.concatenate(([0], ends[:-1]))
                vals = vals[::-1]
                ends = (width - starts)[::-1]
            builder.add_row(vals, ends)
        return builder.build()

    def copy(self) -> "RLEBackend":
        return RLEBackend(
            self.shape,
            self.row_start.copy(),
            self.row_nruns.copy(),
            self.run_vals.copy(),
            self.run_ends.copy(),
        )


class ResultStore:
    """Interned per-cell results over a dense integer grid.

    Parameters
    ----------
    shape:
        Cells per axis.
    ids:
        ``int32`` ndarray of that shape (wrapped in a
        :class:`DenseBackend`) or any :class:`GridBackend`;
        ``ids[cell]`` indexes ``table``.  Defaults to all-zero with a
        one-entry table holding the empty result.
    table:
        The interned result tuples, indexed by id.  Entries must be unique;
        every entry should be referenced by at least one cell (builders in
        this package guarantee both).

    Examples
    --------
    >>> store = ResultStore.from_dict((2, 1), {(0, 0): (0,), (1, 0): ()})
    >>> store.result_at((0, 0))
    (0,)
    >>> store.distinct_count
    2
    """

    __slots__ = ("shape", "_backend", "_table", "_intern", "_mmap")

    def __init__(
        self,
        shape: Sequence[int],
        ids: np.ndarray | GridBackend | None = None,
        table: list[Result] | ConsForestTable | PackedTable | None = None,
    ) -> None:
        self.shape: tuple[int, ...] = tuple(int(extent) for extent in shape)
        backend: GridBackend
        if ids is None:
            backend = DenseBackend(np.zeros(self.shape, dtype=np.int32))
            table = [()]
        elif isinstance(ids, GridBackend):
            if table is None:
                raise ValueError("ids without a result table")
            backend = ids
        else:
            if table is None:
                raise ValueError("ids without a result table")
            backend = DenseBackend(ids)
        if backend.shape != self.shape:
            raise ValueError(
                f"id array of shape {backend.shape} for store shape "
                f"{self.shape}"
            )
        self._backend: GridBackend = backend
        self._table: list[Result] | ConsForestTable | PackedTable = (
            table if table is not None else [()]
        )
        self._intern: dict[Result, int] | None = None
        # Keeps an mmap alive when the arrays are views into a mapped
        # snapshot (set by repro.index.serialize.map_diagram).
        self._mmap = None

    # ------------------------------------------------------------------
    # The grid backend
    # ------------------------------------------------------------------
    @property
    def backend(self) -> GridBackend:
        """The grid backend holding the per-cell id assignment."""
        return self._backend

    @property
    def backend_kind(self) -> str:
        """``"dense"`` or ``"rle"``."""
        return self._backend.kind

    @property
    def ids(self) -> np.ndarray:
        """The dense id ndarray — :class:`DenseBackend` stores only.

        Compressed stores have no dense array to hand out;
        use :meth:`dense_ids` (materializing) or the backend row/run
        interface instead.
        """
        backend = self._backend
        if isinstance(backend, DenseBackend):
            return backend.array
        raise TypeError(
            f"store backend {backend.kind!r} has no dense id array; use "
            "dense_ids(), convert('dense'), or the backend row interface"
        )

    def dense_ids(self) -> np.ndarray:
        """The id grid as a dense ndarray (materializes lossless copies)."""
        return self._backend.to_dense()

    @property
    def nbytes(self) -> int:
        """Resident bytes of the id grid plus the interned table."""
        return self._backend.nbytes() + _table_nbytes(self._table)

    def row_view(self, row: int) -> np.ndarray:
        """One grid row (flat leading index) as a dense id array."""
        return self._backend.row_view(row)

    def set_row_runs(
        self, row: int, vals: np.ndarray, ends: np.ndarray
    ) -> None:
        """Overwrite one grid row with runs (see :class:`GridBackend`)."""
        self._backend.set_row_runs(row, vals, ends)

    def convert(self, kind: str) -> "ResultStore":
        """This store rebacked onto another grid backend.

        Conversions preserve content and therefore :meth:`fingerprint`
        byte-for-byte.  The interned table
        backing is shared (and stays lazy); converting a mapped store
        materializes fresh arrays, so the result does not keep the
        source's mmap alive.  Returns ``self`` when already on ``kind``.
        """
        if kind not in BACKENDS:
            raise ValueError(
                f"unknown grid backend {kind!r}; expected one of {BACKENDS}"
            )
        if kind == self.backend_kind:
            return self
        backend: GridBackend
        if kind == "dense":
            backend = DenseBackend(self._backend.to_dense())
        else:
            backend = RLEBackend.from_dense(self._backend.to_dense())
        return ResultStore(self.shape, backend, self._table)

    @property
    def table(self) -> list[Result]:
        """The interned result tuples, indexed by id.

        A :class:`ConsForestTable` backing is upgraded to a plain list on
        first access, so every list-level consumer (audits, equality,
        serialization, fault injection) sees the same materialized table
        a list-building constructor would have produced.  Id-level reads
        that should stay lazy go through :meth:`result_tuple`.
        """
        table = self._table
        if type(table) is not list:
            table = self._table = table.materialize()
        return table

    @table.setter
    def table(
        self, value: list[Result] | ConsForestTable | PackedTable
    ) -> None:
        self._table = value

    def result_tuple(self, rid: int) -> Result:
        """Result tuple of one id without materializing a lazy table."""
        table = self._table
        if type(table) is list:
            return table[rid]
        return table.result(rid)

    def table_view(self) -> list[Result]:
        """The interned table as a list, *without* upgrading a lazy backing.

        Read-only sweeps (fingerprints, audits, iteration, equality) go
        through this view: a :class:`ConsForestTable`/:class:`PackedTable`
        backing is materialized transiently for the caller but
        ``self._table`` stays lazy, so a routine health sweep never
        defeats the vectorized builder's deferred interning.  Mutating
        consumers (:meth:`intern`, fault injection) use the upgrading
        :attr:`table` property instead.
        """
        table = self._table
        if type(table) is list:
            return table
        return table.materialize()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls, shape: Sequence[int], results: Mapping[Cell, Result]
    ) -> "ResultStore":
        """Intern a ``cell -> result`` mapping covering every cell."""
        shape = tuple(int(extent) for extent in shape)
        num = 1
        for extent in shape:
            num *= extent
        flat = np.empty(num, dtype=np.int32)
        table: list[Result] = []
        intern: dict[Result, int] = {}
        for k, cell in enumerate(product(*(range(e) for e in shape))):
            result = results[cell]
            rid = intern.get(result)
            if rid is None:
                rid = len(table)
                table.append(result)
                intern[result] = rid
            flat[k] = rid
        store = cls(shape, flat.reshape(shape), table)
        store._intern = intern
        return store

    def intern(self, result: Result) -> int:
        """Id of ``result``, adding it to the table when new."""
        if self._intern is None:
            self._intern = {r: i for i, r in enumerate(self.table)}
        rid = self._intern.get(result)
        if rid is None:
            rid = len(self.table)
            self.table.append(result)
            self._intern[result] = rid
        return rid

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Total number of cells."""
        return self._backend.num_cells

    @property
    def distinct_count(self) -> int:
        """Number of distinct results — an O(1) read of the table size."""
        return len(self._table)

    def id_at(self, cell: Cell) -> int:
        """Result id of one cell (``KeyError`` outside the grid)."""
        if len(cell) != len(self.shape):
            raise KeyError(cell)
        for c, extent in zip(cell, self.shape):
            if not 0 <= c < extent:
                raise KeyError(cell)
        return self._backend.id_at(cell)

    def result_at(self, cell: Cell) -> Result:
        """Canonical result of one cell (``KeyError`` outside the grid)."""
        return self.result_tuple(self.id_at(cell))

    def lookup_batch(self, cells: np.ndarray) -> list[Result]:
        """Results for an ``(m, d)`` array of cell indices, in one pass."""
        if cells.shape[0] == 0:
            return []
        ids = self._backend.lookup_batch_ids(cells)
        table = self._table
        if type(table) is not list:
            return table.results(ids.tolist())
        return [table[i] for i in ids.tolist()]

    def union_at_corners(
        self, cell: Cell, axes: Sequence[int]
    ) -> tuple[int, ...]:
        """Sorted union of the results of a hypercube of adjacent cells.

        ``cell`` is the lower corner; the ``2^len(axes)`` cells offset by
        0 or 1 along each axis in ``axes`` are gathered (every index must
        stay inside the grid).  This is the candidate-collection step of
        exact boundary resolution: a query on the closed/open edge between
        cells can only be answered by points appearing in one of the cells
        that share the edge.  Distinct result ids are deduplicated before
        the tuple union, so the merge cost tracks the number of distinct
        neighbouring regions, not ``2^b``.
        """
        ids = {self.id_at(cell)}
        for bits in range(1, 1 << len(axes)):
            probe = list(cell)
            for k, axis in enumerate(axes):
                if bits >> k & 1:
                    probe[axis] += 1
            ids.add(self.id_at(tuple(probe)))
        if len(ids) == 1:
            return self.result_tuple(ids.pop())
        union: set[int] = set()
        for rid in ids:
            union.update(self.result_tuple(rid))
        return tuple(sorted(union))

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the store (shape, id grid, result table).

        Recorded when a diagram is attached to the serving engine and
        re-checked by :meth:`audit`-driven health sweeps: any in-memory
        mutation of the id grid or the table — including single-bit flips
        that stay structurally valid — changes the digest.  Computed over
        :meth:`table_view`, so fingerprinting a lazily interned store
        never upgrades it and the digest is identical before and after
        materialization.
        """
        digest = hashlib.sha256()
        digest.update(repr(self.shape).encode())
        self._backend.fingerprint_section(digest)
        digest.update(repr(self.table_view()).encode())
        return digest.hexdigest()

    def audit(self, num_points: int | None = None) -> str:
        """Verify structural invariants; return the content fingerprint.

        Raises :class:`~repro.errors.AuditError` on the first violation:
        id-grid shape/range, canonical (sorted, deduplicated) table
        entries, id range against ``num_points`` when given, duplicate
        interned entries, a stale ``_intern`` acceleration map, and
        unreferenced table slots.  Reads the table through
        :meth:`table_view`, so auditing a lazily interned store leaves it
        lazy.
        """
        if self._backend.shape != self.shape:
            raise AuditError(
                f"id grid of shape {self._backend.shape} for store shape "
                f"{self.shape}"
            )
        entries = self.table_view()
        if self.num_cells:
            low, high = self._backend.min_max()
            if low < 0 or high >= len(entries):
                raise AuditError(
                    f"cell ids span [{low}, {high}] but the table has "
                    f"{len(entries)} entries"
                )
        seen: dict[tuple[int, ...], int] = {}
        for rid, result in enumerate(entries):
            if not isinstance(result, tuple):
                raise AuditError(f"table[{rid}] is not a tuple: {result!r}")
            if list(result) != sorted(set(result)):
                raise AuditError(
                    f"table[{rid}] = {result} is not a sorted id set"
                )
            if result and (
                result[0] < 0
                or (num_points is not None and result[-1] >= num_points)
            ):
                raise AuditError(
                    f"table[{rid}] = {result} references unknown points"
                )
            if result in seen:
                raise AuditError(
                    f"table[{rid}] duplicates table[{seen[result]}]"
                )
            seen[result] = rid
        if self._intern is not None and self._intern != seen:
            raise AuditError("intern map disagrees with the result table")
        if self.num_cells:
            referenced = np.zeros(len(entries), dtype=bool)
            self._backend.mark_referenced(referenced)
            if not referenced.all():
                missing = int(np.nonzero(~referenced)[0][0])
                raise AuditError(f"table[{missing}] is never referenced")
        return self.fingerprint()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[Cell, Result]]:
        """Iterate ``(cell, result)`` pairs in row-major order."""
        table = self.table_view()
        backend = self._backend
        if isinstance(backend, DenseBackend):
            flat = backend.array.reshape(-1)
            for cell, rid in zip(
                product(*(range(e) for e in self.shape)), flat.tolist()
            ):
                yield cell, table[rid]
            return
        for row, prefix in enumerate(
            product(*(range(e) for e in self.shape[:-1]))
        ):
            for y, rid in enumerate(backend.row_view(row).tolist()):
                yield prefix + (y,), table[rid]

    def to_dict(self) -> dict[Cell, Result]:
        """Materialize the historical ``dict[cell, result]`` view."""
        return dict(self.items())

    def distinct_results(self) -> set[Result]:
        """The set of distinct results (the table, as a set)."""
        return set(self.table_view())

    def flip(self, axes: Sequence[int]) -> "ResultStore":
        """A store with the id array mirrored along ``axes`` (shared table).

        Mirroring cell ``c`` to ``extent - 1 - c`` on an axis is exactly the
        rank-space reflection used to reduce an arbitrary quadrant
        orientation to the first quadrant.
        """
        axes = tuple(axes)
        if not axes:
            return ResultStore(
                self.shape, self._backend.copy(), list(self.table_view())
            )
        return ResultStore(
            self.shape, self._backend.flip(axes), list(self.table_view())
        )

    # ------------------------------------------------------------------
    # Equality
    # ------------------------------------------------------------------
    def _canonical(self) -> tuple[np.ndarray, list[Result]]:
        """Relabel ids by first occurrence, for id-order-independent equality."""
        flat = self._backend.to_dense().reshape(-1)
        uniq, first, inverse = np.unique(
            flat, return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[order] = np.arange(len(uniq))
        canon_ids = rank[inverse.reshape(-1)]
        table = self.table_view()
        canon_table = [table[int(uniq[k])] for k in order]
        return canon_ids, canon_table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultStore):
            return NotImplemented
        if self.shape != other.shape:
            return False
        if self.table_view() == other.table_view() and np.array_equal(
            self._backend.to_dense(), other._backend.to_dense()
        ):
            return True
        a_ids, a_table = self._canonical()
        b_ids, b_table = other._canonical()
        return a_table == b_table and bool(np.array_equal(a_ids, b_ids))

    def __len__(self) -> int:
        return self.num_cells

    def __repr__(self) -> str:
        backend = (
            "" if self.backend_kind == "dense"
            else f", backend={self.backend_kind!r}"
        )
        return (
            f"ResultStore(shape={self.shape}, cells={self.num_cells}, "
            f"distinct={self.distinct_count}{backend})"
        )
