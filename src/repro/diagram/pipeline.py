"""The unified construction pipeline shared by every diagram builder.

The paper's constructions (Algorithms 3, 5, 7 and their extensions) share
one shape — build the rank-space grid, scan rows, intern results, assemble
the store-backed diagram — and, before this module, each constructor also
re-implemented its own budget-checkpoint and result-interning plumbing.
:class:`BuildContext` centralizes that plumbing and decomposes every build
into named *phases*:

``rank_space``
    coordinate compression: the vertex :class:`~repro.geometry.grid.Grid`
    (or :class:`~repro.geometry.subcell.SubcellGrid`) and any per-row
    precomputation derived from it;
``row_scan``
    the per-row kernels (the only phase a :class:`RowExecutor` can shard);
``intern``
    interning results into the shared table (for sharded builds, merging
    the per-chunk tables into one canonical
    :class:`~repro.diagram.store.ResultStore` table);
``assemble``
    building the store and the diagram object.

Each phase is timed into a :class:`BuildReport` attached to the finished
diagram (``diagram.build_report``) and surfaced through
``SkylineDatabase.health()``, ``query_annotated`` and the benchmark
harness.

Row executors
-------------
The journal version of the paper (arXiv:1812.01663) emphasizes that the
scanning sweeps are row-independent: any scan row can be recomputed from
the dataset alone, so the row range shards into chunks that build
concurrently.  The :class:`RowExecutor` contract is deliberately narrow:

* a *job* is a picklable tuple (the dataset's points plus a ``[lo, hi)``
  row range) and the *worker* is a module-level function, so jobs can
  cross a process boundary;
* each worker returns its chunk's rows relabeled into **scan-order-first
  occurrence** ids plus the matching table slice
  (:func:`relabel_scan_order`), so merging chunks in global scan order
  reproduces, byte for byte, the id grid and interned table the serial
  engine would have produced — parallelism never changes the artifact,
  which is what lets the differential verifier compare executors by
  content fingerprint;
* budget checkpoints run **parent-side** as chunks complete (workers
  never observe the meter or the fault-injection hook), so cancellation
  and budget accounting stay deterministic per row: serial and sharded
  builds charge the same number of checkpoints and cells.

Three implementations are registered in :data:`EXECUTOR_REGISTRY`:
:class:`SerialRowExecutor` (in-process, also used with ``chunk_rows`` to
exercise the shard/seed/merge machinery deterministically),
:class:`ProcessRowExecutor` (a ``concurrent.futures`` process pool,
``fork`` start method where available) and :class:`VectorizedRowExecutor`
(the numpy sparse-event engine).  Budget-interrupted sharded builds carry
no :class:`~repro.resilience.PartialDiagram` — chunk results are not a
serving-ordered row prefix — so the degradation ladder falls through to
from-scratch evaluation instead.

The vectorized executor is the default and a *capability marker* rather
than a job runner: a constructor that implements a sparse array kernel
declares ``vector_capable=True`` to its :class:`BuildContext` and, when
the resolved executor is vectorized, runs that kernel in place of the
per-cell scan.  Constructors without such a kernel (the dynamic subcell
scan, the column-major high-dimensional builders) silently resolve
``executor="vectorized"`` to the serial executor, and the
:class:`BuildReport` records the executor that actually ran — honesty
over aspiration.  Budget checkpoints for the vectorized engine run per
*row block* (``chunk_rows`` rows, default :data:`VECTOR_BLOCK_ROWS`)
instead of per row: coarser granularity is the documented price of
taking the Python interpreter out of the inner loop, and the completed
row suffix still ships as an exact partial on exhaustion.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.diagram.store import BACKENDS
from repro.errors import BudgetExceededError
from repro.resilience import BudgetMeter, BuildBudget, as_meter

__all__ = [
    "BuildContext",
    "BuildOptions",
    "BuildReport",
    "EXECUTORS",
    "EXECUTOR_REGISTRY",
    "Interner",
    "PHASES",
    "ProcessRowExecutor",
    "SerialRowExecutor",
    "VECTOR_BLOCK_ROWS",
    "VectorizedRowExecutor",
    "relabel_scan_order",
]

PHASES = ("rank_space", "row_scan", "intern", "assemble")

EXECUTORS = ("serial", "process", "vectorized")

#: Default rows per budget-checkpoint block for the vectorized executor
#: (overridden by ``BuildOptions.chunk_rows``).
VECTOR_BLOCK_ROWS = 256


@dataclass(frozen=True)
class BuildOptions:
    """How one diagram construction should execute.

    Parameters
    ----------
    executor:
        ``"vectorized"`` (default), ``"serial"`` or ``"process"``.  Only
        the row-independent scanning constructions shard their
        ``row_scan`` phase, and only constructions with a sparse array
        kernel honour ``"vectorized"``; every other builder (skyband
        sweep, high-dimensional scan, maintenance, the dynamic subcell
        scan) accepts the options for the phases/telemetry and runs
        serially regardless — the attached ``BuildReport`` names the
        executor that actually ran.  ``"serial"`` is the reference
        engine the other two are byte-identical to; pass it explicitly
        for per-row budget checkpoints and partials.
    workers:
        Process-pool size for the ``process`` executor (default: the CPU
        count).
    chunk_rows:
        Rows per shard.  Defaults to an even split over the workers; with
        the serial executor, setting this forces in-process sharding —
        the cheapest way to exercise the seed/relabel/merge path.  The
        vectorized executor uses it as the rows-per-budget-checkpoint
        block (default :data:`VECTOR_BLOCK_ROWS`).
    telemetry:
        Optional sink called as ``telemetry(phase_name, payload)`` after
        every phase, with ``payload`` carrying at least ``seconds``.
    backend:
        Grid backend for the finished store: ``"dense"`` (default) or
        ``"rle"`` (run-length compressed, content-identical to dense).
        Constructors that assemble a dense store are converted in
        ``BuildContext.finish``; the vectorized quadrant executor writes
        RLE runs natively, skipping the dense grid entirely.
    """

    executor: str = "vectorized"
    workers: int | None = None
    chunk_rows: int | None = None
    telemetry: Callable[[str, dict], None] | None = None
    backend: str = "dense"

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise ValueError(
                f"chunk_rows must be >= 1, got {self.chunk_rows}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )


@dataclass
class BuildReport:
    """Per-build telemetry attached to every finished diagram.

    ``phases`` maps phase name to wall-clock seconds; ``rows_scanned``
    counts completed scan rows (grid rows for the 2-D scans, columns or
    flat chunks for the column-major builders); ``checkpoints`` is the
    budget meter's checkpoint count when a meter ran (0 otherwise).
    """

    algorithm: str = "unknown"
    kind: str = "quadrant"
    executor: str = "serial"
    workers: int = 1
    phases: dict[str, float] = field(default_factory=dict)
    rows_scanned: int = 0
    cells: int = 0
    distinct_results: int = 0
    checkpoints: int = 0
    elapsed: float = 0.0
    backend: str = "dense"
    backend_fallback: str | None = None
    store_nbytes: int = 0

    def as_dict(self) -> dict:
        """A JSON-ready copy (health endpoints, benchmark records)."""
        return {
            "algorithm": self.algorithm,
            "kind": self.kind,
            "executor": self.executor,
            "workers": self.workers,
            "phases": {k: round(v, 6) for k, v in self.phases.items()},
            "rows_scanned": self.rows_scanned,
            "cells": self.cells,
            "distinct_results": self.distinct_results,
            "checkpoints": self.checkpoints,
            "elapsed": round(self.elapsed, 6),
            "backend": self.backend,
            "backend_fallback": self.backend_fallback,
            "store_nbytes": self.store_nbytes,
        }


class Interner:
    """An interned result-tuple table: ``table[intern(result)] is result``.

    The one dict-and-list idiom every constructor used to hand-roll.
    ``seed_empty`` pre-seeds id 0 with the empty tuple (the quadrant
    engines' off-grid sentinel).
    """

    __slots__ = ("table", "_ids")

    def __init__(self, seed_empty: bool = False) -> None:
        self.table: list[tuple[int, ...]] = [()] if seed_empty else []
        self._ids: dict[tuple[int, ...], int] = {(): 0} if seed_empty else {}

    def intern(self, result: tuple[int, ...]) -> int:
        rid = self._ids.get(result)
        if rid is None:
            rid = len(self.table)
            self.table.append(result)
            self._ids[result] = rid
        return rid

    def __len__(self) -> int:
        return len(self.table)


class SerialRowExecutor:
    """Run row-chunk jobs in-process, in job order."""

    name = "serial"

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, workers)

    def run(self, worker, jobs: Sequence, on_chunk=None) -> list:
        out = []
        for job in jobs:
            result = worker(job)
            if on_chunk is not None:
                on_chunk(job, result)
            out.append(result)
        return out


class ProcessRowExecutor:
    """Run row-chunk jobs on a process pool; results return in job order.

    ``on_chunk`` (the parent-side budget checkpoint) fires as chunks
    complete; a raised :class:`~repro.errors.BudgetExceededError` cancels
    the not-yet-started chunks and propagates.
    """

    name = "process"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = max(1, workers or os.cpu_count() or 1)

    def run(self, worker, jobs: Sequence, on_chunk=None) -> list:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            mp_context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX fallback
            mp_context = multiprocessing.get_context()
        results: list = [None] * len(jobs)
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(jobs)), mp_context=mp_context
        ) as pool:
            futures = {
                pool.submit(worker, job): index
                for index, job in enumerate(jobs)
            }
            try:
                for future in as_completed(futures):
                    index = futures[future]
                    results[index] = future.result()
                    if on_chunk is not None:
                        on_chunk(jobs[index], results[index])
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
        return results


class VectorizedRowExecutor:
    """Marker executor for the numpy sparse-event row kernels.

    The vectorized engines do not fan row chunks out to workers — they
    replace the per-cell Python loop with sparse transition events and
    whole-grid array materialization — so ``run`` simply executes jobs
    in order (the serial contract).  Its value is the *name*: a
    ``BuildContext`` resolving to this executor tells a
    ``vector_capable`` constructor to take its array path, and the
    ``BuildReport`` then records ``executor="vectorized"``.
    """

    name = "vectorized"

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, workers)

    def run(self, worker, jobs: Sequence, on_chunk=None) -> list:
        out = []
        for job in jobs:
            result = worker(job)
            if on_chunk is not None:
                on_chunk(job, result)
            out.append(result)
        return out


#: The row-executor registry: ``BuildOptions.executor`` name -> class.
#: :data:`EXECUTORS` (the validated option values) is its key view.
EXECUTOR_REGISTRY = {
    "serial": SerialRowExecutor,
    "process": ProcessRowExecutor,
    "vectorized": VectorizedRowExecutor,
}


def _make_executor(options: BuildOptions, vector_capable: bool = False):
    if options.executor == "process":
        return ProcessRowExecutor(options.workers)
    if options.executor == "vectorized" and vector_capable:
        return VectorizedRowExecutor(options.workers or 1)
    return SerialRowExecutor(options.workers or 1)


class BuildContext:
    """Shared state for one diagram construction.

    Bundles the budget meter (cooperative cancellation), the clock, the
    resolved :class:`RowExecutor`, the telemetry sink and the growing
    :class:`BuildReport`.  Constructors keep accepting the historical
    plain ``budget=`` argument — the context normalizes it through
    :func:`~repro.resilience.as_meter`, so passing a shared
    :class:`~repro.resilience.BudgetMeter` (the global diagram's 2^d
    sub-builds) works unchanged.

    ``serial_only`` pins the executor to serial for builders whose scan
    has a sequential dependency; the options' phases/telemetry still
    apply.  ``vector_capable`` declares that the constructor implements
    a sparse array kernel: only then does ``executor="vectorized"``
    resolve to a :class:`VectorizedRowExecutor` — otherwise it degrades
    to serial and the report says so.
    """

    def __init__(
        self,
        budget: BuildBudget | BudgetMeter | None = None,
        options: BuildOptions | None = None,
        clock: Callable[[], float] | None = None,
        algorithm: str = "unknown",
        kind: str = "quadrant",
        serial_only: bool = False,
        vector_capable: bool = False,
    ) -> None:
        self.options = options if options is not None else BuildOptions()
        self.meter = as_meter(budget, clock)
        self._clock = clock if clock is not None else time.monotonic
        self._started = self._clock()
        self._cancelled: str | None = None
        if serial_only:
            self.executor = SerialRowExecutor()
        else:
            self.executor = _make_executor(self.options, vector_capable)
        self.report = BuildReport(
            algorithm=algorithm,
            kind=kind,
            executor=self.executor.name,
            workers=self.executor.workers,
        )

    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Time a named phase into the report (and the telemetry sink)."""
        start = self._clock()
        try:
            yield
        finally:
            seconds = max(0.0, self._clock() - start)
            self.report.phases[name] = (
                self.report.phases.get(name, 0.0) + seconds
            )
            sink = self.options.telemetry
            if sink is not None:
                sink(
                    name,
                    {
                        "seconds": seconds,
                        "algorithm": self.report.algorithm,
                        "kind": self.report.kind,
                        "executor": self.report.executor,
                    },
                )

    def checkpoint(self, advance: int = 0, distinct: int | None = None) -> None:
        """One cooperative budget checkpoint (no-op without a meter)."""
        if self._cancelled is not None:
            raise BudgetExceededError(
                f"build cancelled: {self._cancelled}",
                budget=self.meter.budget if self.meter is not None else None,
                progress=(
                    self.meter.progress() if self.meter is not None else None
                ),
            )
        if self.meter is not None:
            self.meter.checkpoint(advance=advance, distinct=distinct)

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Request cooperative cancellation at the next checkpoint."""
        self._cancelled = reason

    def count_rows(self, rows: int) -> None:
        self.report.rows_scanned += rows

    # ------------------------------------------------------------------
    def row_chunks(
        self, total_rows: int, topmost_first: bool = False
    ) -> list[tuple[int, int]]:
        """Shard ``[0, total_rows)`` into the executor's row chunks.

        Serial without ``chunk_rows`` returns the single full-range chunk
        (the unsharded fast path); the vectorized executor defaults to
        :data:`VECTOR_BLOCK_ROWS`-row budget-checkpoint blocks.
        ``topmost_first`` orders chunks for the quadrant scan, which
        consumes rows top-down.
        """
        chunk = self.options.chunk_rows
        if chunk is None:
            if self.executor.name == "serial":
                return [(0, total_rows)]
            if self.executor.name == "vectorized":
                chunk = VECTOR_BLOCK_ROWS
            else:
                chunk = -(-total_rows // self.executor.workers)  # ceil div
        chunk = max(1, chunk)
        chunks = [
            (lo, min(lo + chunk, total_rows))
            for lo in range(0, total_rows, chunk)
        ]
        if topmost_first:
            chunks.reverse()
        return chunks

    def finish(self, diagram):
        """Stamp final counters and attach the report to the diagram.

        The single backend-conversion choke point: any constructor that
        assembled a dense store while the options asked for a compressed
        one is converted here (timed as the ``backend`` phase), so every
        build path honours ``BuildOptions(backend=...)`` without
        per-constructor plumbing.  Paths that already produced
        the target backend (the vectorized executor's native RLE runs)
        pass through untouched.
        """
        store = getattr(diagram, "store", None)
        target = self.options.backend
        if (
            store is not None
            and target != "dense"
            and store.backend_kind != target
        ):
            with self.phase("backend"):
                diagram._store = store = store.convert(target)
            diagram._kernel = None
        self.report.elapsed = max(0.0, self._clock() - self._started)
        if store is not None:
            self.report.cells = store.num_cells
            self.report.distinct_results = store.distinct_count
            self.report.backend = store.backend_kind
            self.report.store_nbytes = store.nbytes
        if self.meter is not None:
            self.report.checkpoints = self.meter.checkpoints
        diagram.build_report = self.report
        return diagram


# ----------------------------------------------------------------------
# Deterministic chunk merging
# ----------------------------------------------------------------------
def relabel_scan_order(
    rows: np.ndarray,
    table: list[tuple[int, ...]],
    flip: bool = False,
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Renumber a chunk's local ids by first occurrence in scan order.

    ``rows`` is the chunk's ``(num_rows, row_width)`` id grid in row-index
    order; ``flip`` selects the quadrant scan order (descending rows,
    descending columns) over the dynamic one (ascending, ascending).
    Returns the relabeled grid plus the table restricted to the ids the
    grid actually uses, ordered by that first occurrence — seed-row-only
    entries are dropped, so merged stores keep the audit invariant that
    every table entry is referenced.

    Interning the returned tables chunk-by-chunk in global scan order
    reproduces the serial engine's table exactly: the serial intern order
    *is* first occurrence in scan order.
    """
    flat = (rows[::-1, ::-1] if flip else rows).reshape(-1)
    used, first, inverse = np.unique(
        flat, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(used), dtype=np.int32)
    rank[order] = np.arange(len(used), dtype=np.int32)
    relabeled = rank[inverse].reshape(rows.shape)
    if flip:
        relabeled = relabeled[::-1, ::-1]
    ordered_table = [table[int(used[k])] for k in order.tolist()]
    return np.ascontiguousarray(relabeled), ordered_table


def merge_chunk_tables(
    chunks: Sequence[tuple[int, int]],
    parts: Sequence[tuple[np.ndarray, list[tuple[int, ...]]]],
    rows_out: np.ndarray,
) -> list[tuple[int, ...]]:
    """Merge relabeled chunk results into one grid and canonical table.

    ``chunks`` must be in global scan order (the order the serial engine
    would have visited them); each part's local ids are mapped through a
    shared :class:`Interner` and written into ``rows_out[lo:hi]``.
    """
    interner = Interner()
    for (lo, hi), (local_rows, local_table) in zip(chunks, parts):
        mapping = np.fromiter(
            (interner.intern(result) for result in local_table),
            dtype=np.int32,
            count=len(local_table),
        )
        rows_out[lo:hi] = mapping[local_rows]
    return interner.table
