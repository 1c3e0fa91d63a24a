"""The shared lookup kernel: grid-locate -> boundary-resolve -> store-lookup.

Every diagram lookup in the library — single query, vectorized batch,
boundary-exact detour — goes through one :class:`QueryKernel`.  The two
diagram classes in ``repro.diagram.base`` differ only in *orientation*
(which axes read reflected grids with upper-closed edges) and in how a
query that lands exactly on a grid line is resolved; the kernel captures
that variation in a ``mode`` parameter instead of duplicated class
bodies:

``closed_edge``
    Quadrant (and skyband) diagrams.  Edge ownership is encoded in the
    locate step itself: axis ``d`` uses the upper-side cell when bit
    ``d`` of ``upper_mask`` is set (a reflected axis), the lower-side
    cell otherwise.  Every query, boundary or not, is a pure store read.

``global_union``
    Global diagrams.  Cells are located on the lower side; a query on a
    grid line belongs to no single cell, so the kernel unions the
    results at the adjacent cell corners and re-evaluates the global
    skyline among that candidate set only.

``dynamic_union``
    Dynamic diagrams over bisector subcells.  Like ``global_union``,
    plus the bisector *contributors* of each boundary line — a point
    whose bisector defines the line can enter the answer exactly on it.

The kernel also keeps cumulative counters (queries served, batches,
boundary hits) that the query planner reads as deltas to build
per-answer :class:`~repro.query.metrics.QueryReport` telemetry.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence

import numpy as np

from repro.errors import QueryError
from repro.geometry.grid import as_query_array

Result = tuple[int, ...]

#: Recognised kernel modes (see module docstring).
MODES = ("closed_edge", "global_union", "dynamic_union")


class QueryKernel:
    """One lookup engine per diagram: locate, resolve boundaries, read.

    Parameters
    ----------
    grid:
        A ``Grid`` (closed_edge / global_union) or ``SubcellGrid``
        (dynamic_union); must expose ``locate``, ``locate_batch``,
        ``boundary_axes`` and ``dataset``.
    store:
        The diagram's ``ResultStore``.
    mode:
        One of :data:`MODES`.
    upper_mask:
        closed_edge only — bit ``d`` set means axis ``d`` is reflected
        and owns its upper edge.
    """

    __slots__ = (
        "grid",
        "store",
        "mode",
        "upper_mask",
        "dim",
        "served",
        "batches",
        "boundary_hits",
        "_fused",
        "_flat_ids",
    )

    def __init__(self, grid, store, mode: str, upper_mask: int = 0) -> None:
        if mode not in MODES:
            raise ValueError(
                f"unknown kernel mode {mode!r}; expected one of {MODES}"
            )
        self.grid = grid
        self.store = store
        self.mode = mode
        self.upper_mask = upper_mask
        self.dim = len(store.shape)
        self.served = 0
        self.batches = 0
        self.boundary_hits = 0
        self._fused = self._make_fused()
        self._flat_ids = (
            store.ids.reshape(-1) if self._fused is not None else None
        )

    def _make_fused(self):
        """Precompile the scalar ``closed_edge`` lookup into one flat read.

        In ``closed_edge`` mode edge ownership is entirely inside the
        per-axis bisect side, so a scalar query is exactly: one bisect
        per axis over the grid's Python-tuple axes, a stride
        multiply-accumulate into the C-order flat id array, and one
        table read.  Fusing those into a single loop (no tuple cell, no
        per-cell bounds re-checks — bisect results are always in range)
        removes most of the interpreter overhead that separated the
        scalar path from the batch kernel.  Returns ``None`` — and the
        scalar path falls back to locate/result_at — for union modes,
        non-dense grid backends (rle lookups go through the backend's
        own search), or a non-C-contiguous id array.
        """
        if self.mode != "closed_edge":
            return None
        if self.store.backend_kind != "dense":
            return None
        ids = self.store.ids
        if not ids.flags.c_contiguous or tuple(ids.shape) != self.store.shape:
            return None
        axes = self.grid.axes
        if len(axes) != self.dim:
            return None
        strides = []
        stride = 1
        for extent in reversed(self.store.shape):
            strides.append(stride)
            stride *= extent
        strides.reverse()
        return tuple(
            (
                axes[d],
                bisect_right if self.upper_mask >> d & 1 else bisect_left,
                strides[d],
            )
            for d in range(self.dim)
        )

    # ------------------------------------------------------------------
    # Single query
    # ------------------------------------------------------------------

    def query(self, query: Sequence[float]) -> Result:
        """Answer one query with exact boundary semantics."""
        self.served += 1
        fused = self._fused
        if fused is not None:
            if len(query) != self.dim:
                raise QueryError(
                    f"query has {len(query)} dimensions, grid has {self.dim}"
                )
            flat = 0
            for coord, (axis, locate, stride) in zip(query, fused):
                x = float(coord)
                if x != x:
                    raise QueryError("query coordinates must not be NaN")
                flat += locate(axis, x) * stride
            return self.store.result_tuple(self._flat_ids.item(flat))
        if self.mode == "closed_edge":
            cell = self.grid.locate(query, upper_mask=self.upper_mask)
            return self.store.result_at(cell)
        cell = self.grid.locate(query)
        bits = self.grid.boundary_axes(query, cell)
        if bits:
            axes = [d for d in range(self.dim) if bits >> d & 1]
            return self._boundary_result(query, cell, axes)
        return self.store.result_at(cell)

    # ------------------------------------------------------------------
    # Batch
    # ------------------------------------------------------------------

    def query_batch(self, queries) -> list[Result]:
        """Answer m queries with one locate/gather; boundary rows detour.

        The vectorized path is one ``searchsorted`` per axis plus one
        fancy-indexed gather from the store; only rows flagged on a grid
        line (measure zero for continuous query distributions) take the
        per-row exact resolution.
        """
        self.batches += 1
        if self.mode == "closed_edge":
            cells = self.grid.locate_batch(queries, upper_mask=self.upper_mask)
            self.served += int(cells.shape[0])
            return self.store.lookup_batch(cells)
        coords = as_query_array(queries, self.dim)
        cells, on_boundary = self.grid.locate_batch(
            coords, return_boundary=True
        )
        self.served += int(cells.shape[0])
        results = self.store.lookup_batch(cells)
        if cells.shape[0] and on_boundary.any():
            for row in np.nonzero(on_boundary.any(axis=1))[0].tolist():
                axes = [
                    d for d in range(self.dim) if bool(on_boundary[row, d])
                ]
                results[row] = self._boundary_result(
                    tuple(coords[row].tolist()),
                    tuple(int(c) for c in cells[row]),
                    axes,
                )
        return results

    # ------------------------------------------------------------------
    # Box-restricted lookups (the `constrained` kind)
    # ------------------------------------------------------------------

    def _require_closed_edge(self) -> None:
        if self.mode != "closed_edge":
            raise QueryError(
                "box-restricted lookups are quadrant-family only "
                f"(kernel mode {self.mode!r})"
            )

    def query_restricted(
        self, query: Sequence[float], lo: Sequence[float], hi: Sequence[float]
    ) -> Result:
        """Answer one query restricted to the closed box ``[lo, hi]``.

        Locates at the box-adjusted coordinates (per axis: clamp up to
        ``lo`` on normal axes, down to ``hi`` on reflected axes) and
        drops result points beyond the box's far face.  Exact for
        skylines and skybands alike — see ``repro.query.spec`` for the
        reduction argument.
        """
        from repro.query.spec import box_filter, restrict_coords

        self._require_closed_edge()
        if len(query) != self.dim:
            raise QueryError(
                f"query has {len(query)} dimensions, grid has {self.dim}"
            )
        adjusted = restrict_coords(
            tuple(float(c) for c in query), (tuple(lo), tuple(hi)),
            self.upper_mask,
        )
        result = self.query(adjusted)
        return box_filter(
            self.grid.dataset.points, result, (tuple(lo), tuple(hi)),
            self.upper_mask,
        )

    def query_batch_restricted(
        self, queries, lo: Sequence[float], hi: Sequence[float]
    ) -> list[Result]:
        """Batch variant of :meth:`query_restricted` (one clamp per axis)."""
        from repro.query.spec import box_filter

        self._require_closed_edge()
        coords = np.array(as_query_array(queries, self.dim), copy=True)
        for d in range(self.dim):
            if self.upper_mask >> d & 1:
                np.minimum(coords[:, d], float(hi[d]), out=coords[:, d])
            else:
                np.maximum(coords[:, d], float(lo[d]), out=coords[:, d])
        results = self.query_batch(coords)
        box = (tuple(float(c) for c in lo), tuple(float(c) for c in hi))
        points = self.grid.dataset.points
        return [
            box_filter(points, result, box, self.upper_mask)
            for result in results
        ]

    # ------------------------------------------------------------------
    # Boundary resolution — the single implementation repo-wide
    # ------------------------------------------------------------------

    def _boundary_result(self, query, cell, axes) -> Result:
        """Exact answer for a query lying on the grid lines in ``axes``.

        A boundary query belongs to every cell incident to it, so the
        candidate set is the union of results at the adjacent cell
        corners; re-running the skyline operator on those candidates
        alone is exact because any point outside the union is dominated
        in each incident cell and hence at the shared boundary too.  In
        ``dynamic_union`` mode the points *contributing* a crossed
        bisector line are added as well — a point at distance exactly
        equal along the bisector enters the dynamic skyline there.
        """
        self.boundary_hits += 1
        if self.mode == "global_union":
            from repro.skyline.queries import global_skyline_among

            candidates = self.store.union_at_corners(cell, axes)
            return global_skyline_among(self.grid.dataset, candidates, query)
        if self.mode == "dynamic_union":
            from repro.skyline.queries import dynamic_skyline_among

            candidates = set(self.store.union_at_corners(cell, axes))
            for d in axes:
                candidates.update(
                    self.grid.boundary_contributors(d, cell[d] + 1)
                )
            return dynamic_skyline_among(
                self.grid.dataset, sorted(candidates), query
            )
        raise AssertionError(
            f"mode {self.mode!r} performs no boundary resolution"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryKernel(mode={self.mode!r}, dim={self.dim}, "
            f"served={self.served}, boundary_hits={self.boundary_hits})"
        )
