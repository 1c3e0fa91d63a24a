"""Global skyline diagrams: the union of all 2^d quadrant diagrams.

The paper (Sec. IV) notes that the global skyline is the union of the
quadrant skylines of every quadrant, and that all quadrants share the same
grid lines.  Reflecting the dataset (negating the axes in a quadrant's mask)
turns quadrant-``mask`` dominance into plain first-quadrant dominance, so
one first-quadrant construction algorithm serves every orientation; the
reflected diagram's cell indices are mirrored back onto the shared grid and
the per-cell results unioned (the four candidate sets partition the points
around any cell-interior query, so the union is disjoint).

Both steps run on the array-backed store: mirroring a quadrant diagram is a
``np.flip`` of its id grid (the table is orientation-independent), and the
union is computed once per *distinct combination* of quadrant ids — the 2^d
flat id arrays are stacked and deduplicated with ``np.unique(axis=0)``, so
the tuple merge runs ``O(#combinations)`` times instead of once per cell.

Construction runs through the shared
:class:`~repro.diagram.pipeline.BuildContext`: the ``row_scan`` phase is
the 2^d quadrant sub-builds (each threading the shared meter — and the
``build_options``, so a parallel executor shards every sub-build's scan),
the ``intern`` phase is the combination merge.
"""

from __future__ import annotations

import dataclasses
import inspect
from collections.abc import Callable, Sequence
from heapq import merge as heap_merge

import numpy as np

from repro.diagram.base import SkylineDiagram
from repro.diagram.pipeline import BuildContext, BuildOptions, Interner
from repro.diagram.store import ResultStore
from repro.errors import BudgetExceededError, DimensionalityError
from repro.geometry.dominance import reflect_points
from repro.geometry.grid import Grid
from repro.geometry.point import Dataset, ensure_dataset
from repro.resilience import BudgetMeter, BuildBudget, as_meter

Algorithm = Callable[[Dataset], SkylineDiagram]


def _call(
    algorithm: Algorithm,
    dataset: Dataset,
    meter: BudgetMeter | None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """Invoke a construction algorithm, threading the meter when supported.

    Budget-unaware algorithms (third-party or the ablation baselines) are
    charged post-hoc one scan row at a time — the same cadence the
    budget-aware constructors use — so a shared budget trips within one
    row of its limit instead of overshooting by an entire sub-build's
    cell count in a single lump checkpoint.
    """
    try:
        parameters = inspect.signature(algorithm).parameters
    except (TypeError, ValueError):  # builtins/partials without signatures
        parameters = {}
    kwargs = {}
    if build_options is not None and "build_options" in parameters:
        kwargs["build_options"] = build_options
    if meter is None:
        return algorithm(dataset, **kwargs)
    if "budget" in parameters:
        return algorithm(dataset, budget=meter, **kwargs)
    diagram = algorithm(dataset, **kwargs)
    cells = diagram.store.num_cells
    step = max(1, diagram.store.shape[0])
    charged = 0
    while charged + step < cells:
        meter.checkpoint(advance=step)
        charged += step
    meter.checkpoint(
        advance=cells - charged, distinct=diagram.store.distinct_count
    )
    return diagram


def quadrant_diagram_for_mask(
    points: Dataset | Sequence[Sequence[float]],
    mask: int,
    algorithm: Algorithm,
    budget: BuildBudget | BudgetMeter | None = None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """First-quadrant algorithm applied to an arbitrary quadrant orientation.

    Negative-side dimensions are reflected, the diagram is built, and the
    id grid is mirrored back along the reflected axes (cell ``i`` on a
    reflected axis of ``s`` grid lines maps to cell ``s - i``, which is
    exactly a flip of the ``s + 1`` cells).
    """
    dataset = ensure_dataset(points)
    meter = as_meter(budget)
    if mask == 0:
        diagram = _call(algorithm, dataset, meter, build_options)
        mirrored_report = getattr(diagram, "build_report", None)
        diagram = SkylineDiagram(
            diagram.grid,
            diagram.store,
            kind="quadrant",
            mask=0,
            algorithm=diagram.algorithm,
        )
        diagram.build_report = mirrored_report
        return diagram
    reflected = Dataset(reflect_points(dataset.points, mask))
    try:
        mirrored = _call(algorithm, reflected, meter, build_options)
    except BudgetExceededError as exc:
        # A partial built in reflected rank space would answer mirrored
        # queries; don't let the ladder serve it for this orientation.
        exc.partial = None
        raise
    grid = Grid(dataset)
    flip_axes = [d for d in range(dataset.dim) if mask & (1 << d)]
    diagram = SkylineDiagram(
        grid,
        mirrored.store.flip(flip_axes),
        kind="quadrant",
        mask=mask,
        algorithm=mirrored.algorithm,
    )
    diagram.build_report = getattr(mirrored, "build_report", None)
    return diagram


def global_diagram(
    points: Dataset | Sequence[Sequence[float]],
    algorithm: Algorithm | None = None,
    budget: BuildBudget | BudgetMeter | None = None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """Build the global skyline diagram (union of all quadrant diagrams).

    ``algorithm`` is any first-quadrant construction function (defaults to
    the scanning algorithm, the fastest exact 2-D cell-based method).
    One shared meter charges all ``2^d`` sub-builds and the combination
    merge against ``budget``; no partial survives exhaustion (a single
    quadrant's rows cannot answer global queries).  ``build_options``
    threads through to every sub-build that supports it.

    >>> diagram = global_diagram([(2, 8), (5, 4), (9, 1)])
    >>> diagram.result_at((1, 1))   # between the staircase points
    (0, 1, 2)
    """
    dataset = ensure_dataset(points)
    if algorithm is None:
        if dataset.dim != 2:
            raise DimensionalityError(
                "pass an explicit d-dimensional algorithm for d > 2 "
                "(e.g. diagram.highdim.quadrant_scanning_nd)"
            )
        from repro.diagram.quadrant_scanning import quadrant_scanning

        algorithm = quadrant_scanning
    dim = dataset.dim
    ctx = BuildContext(budget, build_options, algorithm="global", kind="global")
    # Sub-diagrams feed the dense combination merge; only the merged
    # store converts.
    sub_options = build_options
    if build_options is not None and build_options.backend != "dense":
        sub_options = dataclasses.replace(build_options, backend="dense")
    with ctx.phase("row_scan"):
        try:
            quadrant_diagrams = [
                quadrant_diagram_for_mask(
                    dataset,
                    mask,
                    algorithm,
                    budget=ctx.meter,
                    build_options=sub_options,
                )
                for mask in range(1 << dim)
            ]
        except BudgetExceededError as exc:
            exc.partial = None
            raise
    ctx.report.algorithm = quadrant_diagrams[0].algorithm
    sub_report = quadrant_diagrams[0].build_report
    if sub_report is not None:
        # The merge below is executor-independent; what ran is what the
        # sub-builds ran.
        ctx.report.executor = sub_report.executor
        ctx.report.workers = sub_report.workers
    grid = quadrant_diagrams[0].grid
    ctx.count_rows(grid.shape[-1] * (1 << dim))
    with ctx.phase("intern"):
        # One column of per-cell ids per quadrant; identical id combinations
        # yield identical unions, so merge once per distinct combination.
        stacked = np.stack(
            [d.store.dense_ids().reshape(-1) for d in quadrant_diagrams],
            axis=1,
        )
        combos, inverse = np.unique(stacked, axis=0, return_inverse=True)
        tables = [d.store.table for d in quadrant_diagrams]
        interner = Interner()
        intern = interner.intern
        combo_ids = np.empty(len(combos), dtype=np.int32)
        for k, combo in enumerate(combos.tolist()):
            # The quadrants partition the points around any cell-interior
            # query, so the union is a merge of disjoint sorted tuples.
            combo_ids[k] = intern(
                tuple(heap_merge(*(t[q] for t, q in zip(tables, combo))))
            )
            if k % 1024 == 1023:
                ctx.checkpoint(distinct=len(interner))
        table = interner.table
        ctx.checkpoint(distinct=len(table))
    with ctx.phase("assemble"):
        ids = combo_ids[inverse.reshape(-1)].reshape(grid.shape)
        store = ResultStore(grid.shape, np.ascontiguousarray(ids), table)
        diagram = SkylineDiagram(
            grid,
            store,
            kind="global",
            algorithm=quadrant_diagrams[0].algorithm,
        )
    return ctx.finish(diagram)
