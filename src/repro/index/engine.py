"""The user-facing query engine: precompute once, answer in O(log n).

This is the diagram's raison d'être (paper Sec. I): like a k-th order
Voronoi diagram for kNN queries, a precomputed skyline diagram answers
skyline queries in real time by point location instead of recomputation.
:class:`SkylineDatabase` lazily builds one diagram per query semantics and
dispatches lookups; the query-latency experiment (E8) measures lookup vs
from-scratch evaluation through this class.

The unified query runtime
-------------------------
Every entry point — :meth:`query`, :meth:`query_annotated`,
:meth:`query_batch`, :meth:`query_many`, :meth:`skyband` — funnels into
one :class:`~repro.query.planner.QueryPlanner`: the request is validated
and resolved to an immutable plan once, a single query runs as a batch
of one, and diagram lookups go through the diagram's shared
:class:`~repro.query.kernel.QueryKernel`.  Each answer carries a
:class:`~repro.query.metrics.QueryReport` (the lookup counterpart of the
build pipeline's ``BuildReport``), and the database's
:class:`~repro.query.metrics.MetricsRegistry` aggregates per-kind/
per-tier latency histograms and counters — surfaced through
:meth:`health` and the ``repro stats`` CLI.

Resilient serving
-----------------
Precomputation is only free when it finishes, so the database is built
around a *degradation ladder*: every query is answered from the best
available tier —

1. ``diagram`` — the fully built diagram (O(log n) point location);
2. ``partial`` — the rows a budget-interrupted build completed, exact
   over the covered region (:class:`~repro.resilience.PartialDiagram`);
3. ``scratch`` — direct :meth:`query_from_scratch` evaluation.

All three tiers return the *same answer* (the fault-injection suite and
the differential verifier enforce this); only the latency differs.  The
ladder is applied once per batch — the plan, diagram cache, backoff
state and partial are resolved a single time, not per query.  A
:class:`~repro.resilience.BuildBudget` bounds construction; failed builds
retry with exponential backoff, surfaced with the serving-tier counters
through :meth:`health`, retried on demand with :meth:`rebuild`, and
self-audited (with eviction of corrupted diagrams) through :meth:`audit`.

Streaming updates
-----------------
The dataset is no longer frozen at construction: :meth:`apply_update`
journals point inserts/deletes into an :class:`UpdateQueue` and
:meth:`flush_updates` applies the journal as one batch.  Everything a
query touches — dataset, diagram cache, build states — lives in one
:class:`_Generation` holder, and applying a batch builds the *next*
generation aside (the 2-D first-quadrant diagram maintained
incrementally through :mod:`repro.diagram.maintenance`, other diagrams
rebuilt lazily on first use) and installs it with **one atomic reference
assignment**.  Concurrent ``query_batch`` calls capture the generation
once per batch, so readers always see a single consistent generation —
never a mixed dataset/diagram pair.  A failed flush (budget exhaustion,
crash) leaves the old generation serving, keeps the journal replayable,
and backs off exponentially with the same machinery failed builds use;
answers produced while updates are pending carry the journal depth in
``QueryReport.pending_updates``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.diagram.base import DynamicDiagram, SkylineDiagram
from repro.diagram.highdim import quadrant_scanning_nd
from repro.diagram.pipeline import BuildOptions
from repro.diagram.quadrant_scanning import quadrant_scanning
from repro.errors import (
    AuditError,
    BudgetExceededError,
    DatasetError,
    DimensionalityError,
    QueryError,
    SerializationError,
)
from repro.diagram.maintenance import apply_ops, delete_point, insert_point
from repro.geometry.point import Dataset, ensure_dataset
from repro.query import (
    KINDS,
    MetricsRegistry,
    QueryAnswer,
    QueryPlanner,
    QuerySpec,
)
from repro.query.metrics import TIERS as SERVING_TIERS
from repro.query.spec import handler_for
from repro.resilience import BuildBudget, as_meter

__all__ = [
    "KINDS",
    "SERVING_TIERS",
    "QueryAnswer",
    "SkylineDatabase",
    "UpdateOp",
    "UpdateQueue",
]


@dataclass
class _BuildState:
    """Per-diagram build bookkeeping behind :meth:`SkylineDatabase.health`."""

    status: str = "unbuilt"  # unbuilt | ready | degraded | corrupt
    error: str | None = None
    attempts: int = 0
    next_retry: float | None = None
    partial: object | None = None
    fingerprint: str | None = None
    report: object | None = None  # pipeline BuildReport of the last build


def _dataset_sha(dataset: Dataset) -> str:
    """Content sha identifying one dataset generation."""
    payload = repr([tuple(p) for p in dataset.points]).encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass
class _Generation:
    """One immutable serving generation: dataset plus everything derived.

    The diagram cache and build states are *per generation* — a swapped-in
    generation starts with exactly the diagrams the update batch
    maintained, and everything else rebuilds lazily against the new
    dataset.  Readers capture ``db._gen`` once per batch and resolve
    dataset, diagrams, states and partials against that single object, so
    an update swap mid-batch can never mix generations.
    """

    seq: int
    sha: str
    dataset: Dataset
    diagrams: dict
    states: dict


@dataclass(frozen=True)
class UpdateOp:
    """One journalled dataset update.

    ``op`` is ``"insert"`` (``value`` is the point tuple; its id will be
    the dataset length at apply time) or ``"delete"`` (``value`` is the
    point id *in the journal-prospective dataset* — ids shift down past
    earlier pending deletes exactly as they will when applied).
    """

    op: str
    value: tuple | int


class UpdateQueue:
    """A coalescing journal of pending dataset updates.

    Appended entries wait until :meth:`SkylineDatabase.flush_updates`
    applies them as one batch; a failed flush keeps the journal intact
    (replayable) and backs off exponentially.  Coalescing: a delete of a
    point whose insert is still pending cancels both entries — the pair
    is a no-op on the applied generation.
    """

    def __init__(self) -> None:
        self.journal: list[UpdateOp] = []
        self.attempts = 0
        self.next_retry: float | None = None
        self.last_error: str | None = None
        self.applied = 0  # ops applied over the database lifetime
        self.batches = 0  # applied batches == generation swaps
        self.union_scans = 0  # multi-op batches applied as ONE re-scan
        self.union_ops = 0  # ops coalesced into those union re-scans

    @property
    def depth(self) -> int:
        """Pending (journalled, not yet applied) update count."""
        return len(self.journal)

    def net(self, upto: int | None = None) -> int:
        """Net dataset-size delta of the journal (or its prefix)."""
        entries = self.journal if upto is None else self.journal[:upto]
        return sum(1 if e.op == "insert" else -1 for e in entries)

    def append(self, entry: UpdateOp, base_size: int) -> str:
        """Journal ``entry``; returns ``"journalled"`` or ``"coalesced"``.

        ``base_size`` is the applied generation's dataset size, used to
        compute the prospective id of the last pending insert.
        """
        if (
            entry.op == "delete"
            and self.journal
            and self.journal[-1].op == "insert"
            and entry.value == base_size + self.net(len(self.journal) - 1)
        ):
            self.journal.pop()
            return "coalesced"
        self.journal.append(entry)
        return "journalled"

    def stats(self, now: float) -> dict:
        """JSON-ready queue state for :meth:`SkylineDatabase.health`."""
        entry: dict = {
            "pending": self.depth,
            "applied": self.applied,
            "batches": self.batches,
            "attempts": self.attempts,
            "union_scans": self.union_scans,
            "union_ops": self.union_ops,
        }
        if self.last_error is not None:
            entry["error"] = self.last_error
        if self.next_retry is not None:
            entry["retry_in"] = max(0.0, self.next_retry - now)
        return entry


class SkylineDatabase:
    """Precomputed skyline query answering over a fixed dataset.

    Parameters
    ----------
    points:
        The dataset (2-D for dynamic queries; quadrant/global work for any
        dimensionality when a d-capable algorithm is passed).
    precompute:
        Query kinds to build eagerly; everything else is built on first
        use.  Under a budget, a precompute that exhausts it degrades
        silently (recorded in :meth:`health`) instead of raising.
    budget:
        A :class:`~repro.resilience.BuildBudget` bounding every diagram
        construction.  Budget-exhausted builds degrade to lower serving
        tiers; queries stay correct.
    clock:
        Monotonic time source for budgets, retry backoff and query
        latency metrics (injectable for tests and fault drills).
    backoff_base / backoff_cap:
        Exponential retry backoff for failed builds, in seconds:
        ``min(cap, base * 2**(attempts - 1))``.
    build_options:
        A :class:`~repro.diagram.pipeline.BuildOptions` threaded into
        every diagram construction — row executor (vectorized by
        default, serial or process pool), chunking and telemetry sink.
        Executors never change the built diagram (every executor is
        byte-identical to serial), only how the construction runs.
    metrics:
        A :class:`~repro.query.metrics.MetricsRegistry` to aggregate
        query telemetry into (one is created when omitted).  Pass a
        shared registry to collect metrics across several databases —
        the chaos harness does exactly that.

    Examples
    --------
    >>> db = SkylineDatabase([(2, 8), (5, 4), (9, 1)])
    >>> db.query((1, 2), kind="quadrant")
    (0, 1)
    >>> db.query((6, 5), kind="global")
    (0, 1, 2)
    """

    def __init__(
        self,
        points: Dataset | Sequence[Sequence[float]],
        precompute: Sequence[str] = (),
        budget: BuildBudget | None = None,
        clock: Callable[[], float] | None = None,
        backoff_base: float = 0.5,
        backoff_cap: float = 60.0,
        build_options: BuildOptions | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        dataset = ensure_dataset(points)
        self.budget = budget
        self.build_options = build_options
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock if clock is not None else time.monotonic
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._gen = _Generation(
            seq=0,
            sha=_dataset_sha(dataset),
            dataset=dataset,
            diagrams={},
            states={},
        )
        self._updates = UpdateQueue()
        # Serializes journal appends and batch applies; readers never
        # take it (they only capture the ``_gen`` reference).
        self._update_lock = threading.Lock()
        self._last_union_ops = 0  # ops coalesced by the latest apply
        self._last_audit: dict[str, str] = {}
        self._planner = QueryPlanner(self)
        for kind in precompute:
            plan = self._planner.plan(kind)
            self._obtain(plan.key, plan.builder)

    # ------------------------------------------------------------------
    # The serving generation (dataset + diagrams swap as one unit)
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        """The current generation's dataset (updates swap the whole set)."""
        return self._gen.dataset

    @property
    def _diagrams(self) -> dict[str, SkylineDiagram | DynamicDiagram]:
        return self._gen.diagrams

    @property
    def _states(self) -> dict[str, _BuildState]:
        return self._gen.states

    @property
    def generation(self) -> dict:
        """The serving generation's sequence number and content sha."""
        return {"seq": self._gen.seq, "sha": self._gen.sha}

    @property
    def pending_updates(self) -> int:
        """Journalled updates not yet applied to the serving generation."""
        return self._updates.depth

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_mask(self, mask: int) -> int:
        try:
            mask = int(mask)
        except (TypeError, ValueError) as exc:
            raise QueryError(f"mask must be an integer, got {mask!r}") from exc
        if not 0 <= mask < (1 << self.dataset.dim):
            raise QueryError(
                f"mask {mask} out of range for {self.dataset.dim}-D data "
                f"(valid: 0..{(1 << self.dataset.dim) - 1})"
            )
        return mask

    def _check_k(self, k: int) -> int:
        try:
            k = int(k)
        except (TypeError, ValueError) as exc:
            raise QueryError(f"k must be an integer, got {k!r}") from exc
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        return k

    def _check_query(self, query: Sequence[float]) -> tuple[float, ...]:
        """Typed rejection of malformed queries before any numpy internals."""
        if isinstance(query, (str, bytes)):
            raise QueryError(
                f"query must be a sequence of coordinates, got {query!r}"
            )
        try:
            coords = tuple(float(c) for c in query)
        except TypeError as exc:
            raise QueryError(
                f"query must be a sequence of numbers, got {query!r}"
            ) from exc
        except ValueError as exc:
            raise QueryError(
                f"query has non-numeric coordinates: {query!r}"
            ) from exc
        if len(coords) != self.dataset.dim:
            raise QueryError(
                f"query has {len(coords)} dimensions, dataset has "
                f"{self.dataset.dim}"
            )
        if any(c != c for c in coords):
            raise QueryError("query coordinates must not be NaN")
        return coords

    # ------------------------------------------------------------------
    # The budget-aware build path (plan resolution lives in the planner)
    # ------------------------------------------------------------------
    def _quadrant_algorithm(self):
        """Scanning construction matched to the dataset's dimensionality."""
        if self.dataset.dim == 2:
            return quadrant_scanning
        return quadrant_scanning_nd

    def _obtain(self, key: str, builder, required: bool = False, gen=None):
        """The cached diagram for ``key``, building under the budget.

        ``required=False`` (the ladder): a failed or backing-off build
        returns ``None`` and the caller falls to a lower tier.
        ``required=True`` (explicit diagram accessors): failures raise,
        backoff is bypassed — but the failure is still recorded.
        ``gen`` pins the generation the build reads from and attaches to
        (the planner passes its captured generation so a concurrent
        update swap cannot mix datasets mid-batch); default is current.
        """
        gen = gen if gen is not None else self._gen
        diagram = gen.diagrams.get(key)
        if diagram is not None:
            return diagram
        state = gen.states.setdefault(key, _BuildState())
        if (
            not required
            and state.next_retry is not None
            and self._clock() < state.next_retry
        ):
            return None
        return self._build(key, state, builder, required=required, gen=gen)

    def _build(
        self, key: str, state: _BuildState, builder, required: bool, gen=None
    ):
        gen = gen if gen is not None else self._gen
        state.attempts += 1
        try:
            diagram = builder(as_meter(self.budget, self._clock), gen.dataset)
        except BudgetExceededError as exc:
            self._record_failure(state, f"budget exceeded: {exc}", exc.partial)
            if required:
                raise
            return None
        except (QueryError, DimensionalityError, DatasetError):
            raise  # user errors, not build failures: never swallowed
        except Exception as exc:  # build crash: degrade, keep serving
            self._record_failure(
                state, f"build failed: {type(exc).__name__}: {exc}", None
            )
            if required:
                raise
            return None
        self._attach(gen, key, state, diagram)
        return diagram

    def _backoff_delay(self, attempts: int) -> float:
        """Exponential backoff shared by failed builds and failed flushes."""
        return min(
            self._backoff_cap,
            self._backoff_base * (2 ** (attempts - 1)),
        )

    def _record_failure(self, state: _BuildState, error: str, partial) -> None:
        state.status = "degraded"
        state.error = error
        if partial is not None:
            # A partial from an earlier interruption stays valid (the
            # generation's dataset is immutable), so only ever upgrade it.
            state.partial = partial
        state.next_retry = self._clock() + self._backoff_delay(state.attempts)

    def _attach(self, gen, key: str, state: _BuildState, diagram) -> None:
        gen.diagrams[key] = diagram
        state.status = "ready"
        state.error = None
        state.partial = None
        state.next_retry = None
        state.fingerprint = diagram.store.fingerprint()
        state.report = getattr(diagram, "build_report", None)

    # ------------------------------------------------------------------
    # Diagram accessors (compat properties first: tests and callers peek)
    # ------------------------------------------------------------------
    @property
    def _global(self) -> SkylineDiagram | None:
        return self._diagrams.get("global")

    @property
    def _dynamic(self) -> DynamicDiagram | None:
        return self._diagrams.get("dynamic")

    def quadrant_diagram(self, mask: int = 0) -> SkylineDiagram:
        """The quadrant diagram for one orientation (built lazily)."""
        plan = self._planner.plan("quadrant", mask=mask)
        return self._obtain(plan.key, plan.builder, required=True)

    def global_diagram(self) -> SkylineDiagram:
        """The global diagram (built lazily)."""
        plan = self._planner.plan("global")
        return self._obtain(plan.key, plan.builder, required=True)

    def dynamic_diagram(self) -> DynamicDiagram:
        """The dynamic diagram (built lazily with the scanning algorithm)."""
        plan = self._planner.plan("dynamic")
        return self._obtain(plan.key, plan.builder, required=True)

    def skyband_diagram(self, k: int) -> SkylineDiagram:
        """The k-skyband diagram (built lazily; 2-D, first quadrant)."""
        plan = self._planner.plan("skyband", k=k)
        return self._obtain(plan.key, plan.builder, required=True)

    def skyband(self, query: Sequence[float], k: int) -> tuple[int, ...]:
        """Answer a first-quadrant k-skyband query by point location.

        Boundary-exact: skyband diagrams are first-quadrant, so the
        lower-side closed edge matches the non-strict candidate semantics
        on grid lines (the same argument that makes ``mask=0`` quadrant
        lookups exact extends to dominator counts).
        """
        return self.query(query, kind="skyband", k=k)

    # ------------------------------------------------------------------
    # Queries: everything funnels into the planner
    # ------------------------------------------------------------------
    def _resolve_plan(
        self,
        kind,
        mask: int,
        k: int,
        box,
        diversify,
        spec: QuerySpec | None,
    ):
        """Build the request spec and plan it, counting rejections.

        ``spec`` (when given) wins over the legacy keywords.  A
        validation failure is recorded in the metrics registry as a
        rejected request before the typed error propagates.
        """
        request = (
            spec
            if spec is not None
            else QuerySpec.of(kind, mask=mask, k=k, box=box, diversify=diversify)
        )
        try:
            return self._planner.plan(request)
        except QueryError:
            self.metrics.record_rejected()
            raise

    def _checked_coords(self, query: Sequence[float]) -> tuple[float, ...]:
        """Like :meth:`_check_query`, but counts rejections."""
        try:
            return self._check_query(query)
        except QueryError:
            self.metrics.record_rejected()
            raise

    def query_annotated(
        self,
        query: Sequence[float],
        kind: str = "dynamic",
        mask: int = 0,
        k: int = 1,
        box=None,
        diversify: int | None = None,
        spec: QuerySpec | None = None,
    ) -> QueryAnswer:
        """Answer one query, reporting which ladder tier served it.

        A batch of one through the planner.  The tiers agree on the
        answer by construction (partials are exact over their coverage;
        scratch evaluation is the ground truth), so ``served_from`` is a
        latency annotation, not a correctness caveat.  The answer's
        ``query_report`` carries the lookup telemetry
        (:class:`~repro.query.metrics.QueryReport`).

        Accepts either a full :class:`~repro.query.QuerySpec` via
        ``spec`` or the legacy keywords (which build one); ``box`` and
        ``diversify`` serve the ``constrained``/``diversified`` kinds.
        """
        plan = self._resolve_plan(kind, mask, k, box, diversify, spec)
        coords = self._checked_coords(query)
        return self._planner.execute(plan, [coords])[0]

    def query(
        self,
        query: Sequence[float],
        kind: str = "dynamic",
        mask: int = 0,
        k: int = 1,
        box=None,
        diversify: int | None = None,
        spec: QuerySpec | None = None,
    ) -> tuple[int, ...]:
        """Answer one skyline query by point location.

        ``kind`` is ``"quadrant"`` (with quadrant ``mask``), ``"global"``,
        ``"dynamic"``, ``"skyband"`` (with band width ``k``),
        ``"constrained"`` (quadrant/skyband restricted to the closed
        ``box=(lo, hi)``) or ``"diversified"`` (greedy max-min selection
        of at most ``diversify`` result points).  A full
        :class:`~repro.query.QuerySpec` may be passed via ``spec``.

        Lookups are boundary-exact for every kind and mask: the shared
        query kernel resolves queries lying exactly on grid lines itself
        (closed edge ownership per axis for quadrant orientations,
        candidate-set resolution for global/dynamic), so this always
        agrees with :meth:`query_from_scratch`.  Malformed queries (wrong
        dimensionality, non-numeric, NaN) raise
        :class:`~repro.errors.QueryError`.  When the diagram is missing
        (budget exhausted, build failure), the answer transparently falls
        back to a partial build or from-scratch evaluation — see
        :meth:`query_annotated` and :meth:`health`.
        """
        return self.query_annotated(
            query, kind=kind, mask=mask, k=k, box=box,
            diversify=diversify, spec=spec,
        ).result

    def query_batch_annotated(
        self,
        queries: Sequence[Sequence[float]],
        kind: str = "dynamic",
        mask: int = 0,
        k: int = 1,
        box=None,
        diversify: int | None = None,
        spec: QuerySpec | None = None,
    ) -> list[QueryAnswer]:
        """Answer a batch of queries, each annotated with its ladder tier.

        One plan resolution for the whole batch.  On the ``diagram`` tier
        all answers share one vectorized execution (and one
        ``query_report`` with ``batch == len(queries)``); otherwise each
        query walks the ladder against the state resolved up front.
        """
        plan = self._resolve_plan(kind, mask, k, box, diversify, spec)
        return self._planner.execute(plan, queries)

    def query_batch(
        self,
        queries: Sequence[Sequence[float]],
        kind: str = "dynamic",
        mask: int = 0,
        k: int = 1,
        box=None,
        diversify: int | None = None,
        spec: QuerySpec | None = None,
    ) -> list[tuple[int, ...]]:
        """Answer a batch of queries in one vectorized point-location pass.

        Dispatches through the planner to the diagram kernel's batch path
        — one ``np.searchsorted`` per axis over the whole batch — and
        agrees with :meth:`query` query-for-query, including queries
        exactly on grid lines (boundary rows are detected vectorized and
        resolved per row).  NaN coordinates raise
        :class:`~repro.errors.QueryError`.  When the diagram is
        unavailable the batch degrades to per-query ladder answering
        under the *same* plan resolution (the diagram cache, backoff and
        partial are checked once, not per query).
        """
        plan = self._resolve_plan(kind, mask, k, box, diversify, spec)
        return [a.result for a in self._planner.execute(plan, queries)]

    def query_many(
        self,
        queries: Sequence[Sequence[float]],
        kind: str = "dynamic",
        mask: int = 0,
        k: int = 1,
        box=None,
        diversify: int | None = None,
        spec: QuerySpec | None = None,
    ) -> list[tuple[int, ...]]:
        """Answer a batch of queries (shares one diagram build).

        Kept as the historical name; delegates to :meth:`query_batch`,
        forwarding every spec parameter so reflected-quadrant, skyband,
        constrained and diversified batches answer against the requested
        semantics.
        """
        return self.query_batch(
            queries, kind=kind, mask=mask, k=k, box=box,
            diversify=diversify, spec=spec,
        )

    def _scratch(
        self,
        coords: tuple[float, ...],
        kind: str,
        mask: int,
        k: int,
        dataset: Dataset | None = None,
        box=None,
        diversify: int | None = None,
    ) -> tuple[int, ...]:
        # Compatibility shim: the kind's registered handler owns the
        # from-scratch oracle now.
        dataset = dataset if dataset is not None else self.dataset
        spec = QuerySpec(kind=kind, mask=mask, k=k, box=box, diversify=diversify)
        return handler_for(kind).scratch(dataset, coords, spec)

    def query_from_scratch(
        self,
        query: Sequence[float],
        kind: str = "dynamic",
        mask: int = 0,
        k: int = 1,
        box=None,
        diversify: int | None = None,
        spec: QuerySpec | None = None,
    ) -> tuple[int, ...]:
        """Direct evaluation without the diagram (the E8 comparison arm).

        Also the bottom rung of the degradation ladder; malformed queries
        raise the same typed :class:`~repro.errors.QueryError` as
        :meth:`query`.  Unlike the diagram path this imposes no
        dimensionality limits beyond the dataset's own: scratch oracles
        work in any d, so e.g. ``kind="dynamic"`` evaluates directly on
        3-D datasets the dynamic *diagram* would refuse.
        """
        request = (
            spec
            if spec is not None
            else QuerySpec.of(kind, mask=mask, k=k, box=box, diversify=diversify)
        )
        try:
            handler = handler_for(request.kind)
            request = handler.validate_params(request, self.dataset.dim)
            coords = self._check_query(query)
        except QueryError:
            self.metrics.record_rejected()
            raise
        return handler.scratch(self.dataset, coords, request)

    # ------------------------------------------------------------------
    # Streaming updates: journal, batch apply, atomic generation swap
    # ------------------------------------------------------------------
    def apply_update(self, op: str, value, flush: bool = True) -> dict:
        """Journal one dataset update and (by default) try to apply it.

        ``op`` is ``"insert"`` (``value`` is a point of the dataset's
        dimensionality) or ``"delete"`` (``value`` is a point id in the
        journal-prospective dataset — the dataset as it will look once
        every already-journalled update has applied).  Malformed updates
        raise :class:`~repro.errors.QueryError` at journal time, so the
        journal itself is always applyable.

        With ``flush=True`` the journal is applied immediately unless a
        previous failure is still backing off; ``flush=False`` only
        journals (batch several updates, then :meth:`flush_updates`
        once).  Returns the journal status merged with the flush outcome.
        """
        if op not in ("insert", "delete"):
            raise QueryError(
                f"unknown update op {op!r}; expected 'insert' or 'delete'"
            )
        queue = self._updates
        with self._update_lock:
            base_size = len(self._gen.dataset)
            prospective = base_size + queue.net()
            if op == "insert":
                entry = UpdateOp("insert", self._check_query(value))
            else:
                try:
                    point_id = int(value)
                except (TypeError, ValueError) as exc:
                    raise QueryError(
                        f"delete takes a point id, got {value!r}"
                    ) from exc
                if not 0 <= point_id < prospective:
                    raise QueryError(
                        f"point id {point_id} out of range for prospective "
                        f"dataset of {prospective} points"
                    )
                if prospective <= 1:
                    raise QueryError("cannot delete the last point")
                entry = UpdateOp("delete", point_id)
            status = queue.append(entry, base_size)
        outcome = {"status": status, "pending": queue.depth}
        if flush:
            outcome.update(self.flush_updates())
        outcome["generation"] = self._gen.sha
        return outcome

    def flush_updates(self, force: bool = False) -> dict:
        """Apply the journalled updates as one batch, swapping generations.

        The whole batch builds the next generation *aside*: the 2-D
        first-quadrant diagram is maintained incrementally (dirty-region
        re-scan under the database budget), other diagrams rebuild
        lazily against the new dataset on first use.  Success installs
        the new generation with one atomic reference assignment and
        clears the applied journal prefix.  Failure (budget exhaustion,
        crash) leaves the old generation serving, keeps the journal
        replayable, and schedules an exponential-backoff retry — the
        next query or explicit flush past the deadline retries
        (``force=True`` bypasses the backoff).
        """
        return self._flush(force=force, blocking=True)

    def _flush(self, force: bool, blocking: bool) -> dict:
        queue = self._updates
        if not queue.journal:
            return {"applied": 0, "pending": 0}
        now = self._clock()
        if (
            not force
            and queue.next_retry is not None
            and now < queue.next_retry
        ):
            return {
                "applied": 0,
                "pending": queue.depth,
                "backoff": max(0.0, queue.next_retry - now),
            }
        # One applier at a time; a reader's opportunistic poke never
        # blocks behind an in-flight apply — it serves the old
        # generation (annotated stale) instead.
        if not self._update_lock.acquire(blocking=blocking):
            return {"applied": 0, "pending": queue.depth, "busy": True}
        try:
            if not queue.journal:
                return {"applied": 0, "pending": 0}
            gen = self._gen
            ops = list(queue.journal)
            try:
                new_gen = self._apply_batch(gen, ops)
            except Exception as exc:
                # Includes BudgetExceededError: the old generation is
                # untouched and fully built, so there is nothing to
                # degrade — serving simply stays on the previous
                # generation while the journal waits out the same
                # backoff failed builds use.
                queue.attempts += 1
                queue.last_error = f"{type(exc).__name__}: {exc}"
                delay = self._backoff_delay(queue.attempts)
                queue.next_retry = self._clock() + delay
                return {
                    "applied": 0,
                    "pending": queue.depth,
                    "error": queue.last_error,
                    "retry_in": delay,
                }
            self._gen = new_gen  # THE atomic generation swap
            del queue.journal[: len(ops)]  # concurrent appends survive
            queue.attempts = 0
            queue.next_retry = None
            queue.last_error = None
            queue.applied += len(ops)
            queue.batches += 1
            if self._last_union_ops:
                queue.union_scans += 1
                queue.union_ops += self._last_union_ops
        finally:
            self._update_lock.release()
        self.metrics.record_update(new_gen.sha, len(ops))
        return {"applied": len(ops), "pending": queue.depth}

    def _apply_batch(self, gen: _Generation, ops: list[UpdateOp]):
        """Build the generation after ``ops``, without touching ``gen``.

        When the generation has a built 2-D first-quadrant diagram it is
        maintained incrementally — a multi-op batch composes into ONE
        union dirty-block re-scan (:func:`~repro.diagram.maintenance.
        apply_ops`; ``union_scans``/``union_ops`` in the queue stats
        count the coalescing), byte-identical to applying the ops one at
        a time — under a single budget meter for the whole batch.
        Without a built diagram, only the dataset swaps and every
        diagram rebuilds lazily on first use.
        """
        meter = as_meter(self.budget, self._clock)
        diagram = None
        if gen.dataset.dim == 2:
            diagram = gen.diagrams.get("quadrant:0")
        points = None if diagram is not None else list(gen.dataset.points)
        if diagram is not None and len(ops) > 1:
            diagram = apply_ops(
                diagram,
                [(entry.op, entry.value) for entry in ops],
                budget=meter,
                build_options=self.build_options,
            )
            self._last_union_ops = len(ops)
        else:
            self._last_union_ops = 0
            for entry in ops:
                if diagram is not None:
                    if entry.op == "insert":
                        diagram = insert_point(
                            diagram,
                            entry.value,
                            budget=meter,
                            build_options=self.build_options,
                        )
                    else:
                        diagram = delete_point(
                            diagram,
                            entry.value,
                            budget=meter,
                            build_options=self.build_options,
                        )
                elif entry.op == "insert":
                    points.append(tuple(float(c) for c in entry.value))
                else:
                    del points[entry.value]
        if diagram is not None:
            dataset = diagram.grid.dataset
            state = _BuildState(
                status="ready",
                attempts=1,
                fingerprint=diagram.store.fingerprint(),
                report=getattr(diagram, "build_report", None),
            )
            diagrams = {"quadrant:0": diagram}
            states = {"quadrant:0": state}
        else:
            dataset = Dataset(points)
            diagrams, states = {}, {}
        return _Generation(
            seq=gen.seq + 1,
            sha=_dataset_sha(dataset),
            dataset=dataset,
            diagrams=diagrams,
            states=states,
        )

    def _poke_updates(self) -> None:
        """Opportunistic retry hook: apply due updates before serving.

        Called by the planner ahead of each batch — this is what turns a
        backed-off failed flush into a *background* retry: the first
        query past the retry deadline applies the journal, and every
        query before it serves the old generation annotated with the
        pending depth.
        """
        queue = self._updates
        if not queue.journal:
            return
        if (
            queue.next_retry is not None
            and self._clock() < queue.next_retry
        ):
            return
        self._flush(force=False, blocking=False)

    # ------------------------------------------------------------------
    # Health, recovery, audits
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """A JSON-ready report of build states and the query runtime.

        ``ok`` is ``True`` when no build is degraded or corrupt;
        ``tiers`` counts answers served per ladder tier (from the metrics
        registry — the single tier-accounting choke point); ``queries``
        is the full :meth:`~repro.query.metrics.MetricsRegistry.snapshot`
        (latency histograms, counters, build-phase timings); ``builds``
        maps each diagram key to its status, attempt count, remaining
        backoff (``retry_in`` seconds) and partial coverage;
        ``memory`` maps each *attached* diagram to its grid-backend kind
        and resident store bytes (grid backend + result table);
        ``last_audit`` holds the most recent :meth:`audit` outcome per
        key.
        """
        now = self._clock()
        gen = self._gen
        builds: dict[str, dict] = {}
        for key in sorted(gen.states):
            state = gen.states[key]
            entry: dict = {"status": state.status, "attempts": state.attempts}
            if state.error is not None:
                entry["error"] = state.error
            if state.next_retry is not None:
                entry["retry_in"] = max(0.0, state.next_retry - now)
            if state.partial is not None:
                entry["partial_coverage"] = round(state.partial.coverage, 4)
            if state.report is not None:
                entry["report"] = state.report.as_dict()
            builds[key] = entry
        degraded = sorted(
            key
            for key, state in gen.states.items()
            if state.status in ("degraded", "corrupt")
        )
        # Per-attached-diagram memory: the grid backend's resident bytes
        # plus the interned result table — the numbers the backend choice
        # (dense / rle) actually moves.
        memory: dict[str, dict] = {}
        for key, diagram in sorted(gen.diagrams.items()):
            if diagram is None:
                continue
            store = diagram.store
            memory[key] = {
                "backend": store.backend_kind,
                "store_nbytes": int(store.nbytes),
            }
        return {
            "ok": not degraded,
            "degraded": degraded,
            "generation": {"seq": gen.seq, "sha": gen.sha},
            "memory": memory,
            "updates": self._updates.stats(now),
            "tiers": self.metrics.tier_counts(),
            "rejected": self.metrics.rejected_count(),
            "queries": self.metrics.snapshot(),
            "builds": builds,
            "last_audit": dict(self._last_audit),
        }

    def rebuild(
        self,
        kind: str | None = None,
        mask: int = 0,
        k: int = 1,
        force: bool = False,
        refresh: bool = False,
    ) -> dict[str, str]:
        """Retry failed builds, respecting exponential backoff.

        With no ``kind``, every recorded non-ready build is retried.
        Returns ``{key: outcome}`` with outcomes ``"ready"`` (built or
        already present), ``"backoff"`` (retry not due yet; pass
        ``force=True`` to override) or ``"degraded"`` (the retry failed
        again — backoff doubles).

        With ``refresh=True``, *ready* diagrams are rebuilt as well —
        generation-swap style: the old diagram keeps answering queries
        while the replacement is constructed and audited aside, and only
        a replacement whose audit passes is swapped in (one atomic
        reference assignment, so a concurrent reader sees either the old
        or the new generation, never a mix).  A failed refresh keeps the
        old generation serving and reports ``"kept"``; a successful swap
        reports ``"refreshed"``.
        """
        gen = self._gen
        if kind is not None:
            keys = [self._planner.plan(kind, mask=mask, k=k).key]
        elif refresh:
            keys = sorted(set(gen.states) | set(gen.diagrams))
        else:
            keys = sorted(
                key
                for key in gen.states
                if gen.diagrams.get(key) is None
            )
        outcome: dict[str, str] = {}
        for key in keys:
            if gen.diagrams.get(key) is not None:
                if refresh:
                    outcome[key] = self._refresh(key, gen)
                else:
                    outcome[key] = "ready"
                continue
            state = gen.states.setdefault(key, _BuildState())
            if (
                not force
                and state.next_retry is not None
                and self._clock() < state.next_retry
            ):
                outcome[key] = "backoff"
                continue
            diagram = self._build(
                key,
                state,
                self._planner.plan_for_key(key).builder,
                required=False,
                gen=gen,
            )
            outcome[key] = "ready" if diagram is not None else "degraded"
        return outcome

    def _refresh(self, key: str, gen=None) -> str:
        """Rebuild one ready diagram aside and swap it in atomically.

        The currently attached diagram is never touched until the
        replacement has been fully built *and* passed its own audit —
        queries running concurrently (in other threads) keep resolving
        ``self._diagrams[key]`` to a complete generation throughout.
        """
        gen = gen if gen is not None else self._gen
        state = gen.states.setdefault(key, _BuildState())
        builder = self._planner.plan_for_key(key).builder
        try:
            fresh = builder(as_meter(self.budget, self._clock), gen.dataset)
            fingerprint = fresh.audit()
        except (QueryError, DimensionalityError, DatasetError):
            raise  # user errors, not build failures: never swallowed
        except Exception as exc:
            # Old generation keeps serving; record why the swap was
            # withheld without degrading the (still healthy) build state.
            state.error = (
                f"refresh withheld: {type(exc).__name__}: {exc}"
            )
            return "kept"
        gen.diagrams[key] = fresh  # atomic swap under the GIL
        state.status = "ready"
        state.error = None
        state.partial = None
        state.next_retry = None
        state.fingerprint = fingerprint
        state.report = getattr(fresh, "build_report", None)
        return "refreshed"

    def audit(self, level: str = "structure") -> dict[str, str]:
        """Audit every built diagram; evict and quarantine corrupt ones.

        Each attached diagram runs its own :meth:`audit` (structural
        invariants plus, at higher levels, from-scratch recomputation)
        and its content fingerprint is compared against the one recorded
        at attach time.  A failing diagram is *evicted* — queries drop to
        lower ladder tiers, which stay correct — marked ``corrupt`` in
        :meth:`health`, and its backoff cleared so the next query or
        :meth:`rebuild` heals it immediately.  Returns ``{key: "ok" |
        "corrupt: <reason>"}``.
        """
        gen = self._gen
        outcome: dict[str, str] = {}
        for key in sorted(gen.diagrams):
            diagram = gen.diagrams[key]
            state = gen.states.setdefault(key, _BuildState())
            try:
                fingerprint = diagram.audit(level=level)
                if (
                    state.fingerprint is not None
                    and fingerprint != state.fingerprint
                ):
                    raise AuditError(
                        "content fingerprint drifted since attach "
                        f"({fingerprint[:12]} != {state.fingerprint[:12]})"
                    )
            except (AuditError, SerializationError) as exc:
                del gen.diagrams[key]
                state.status = "corrupt"
                state.error = f"audit: {exc}"
                state.partial = None
                state.fingerprint = None
                state.next_retry = None  # heal on the next query/rebuild
                outcome[key] = f"corrupt: {exc}"
            else:
                outcome[key] = "ok"
        self._last_audit = outcome
        return outcome

    def __repr__(self) -> str:
        return f"SkylineDatabase(n={len(self.dataset)}, dim={self.dataset.dim})"
