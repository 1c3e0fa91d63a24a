"""One query planner for single, batch, and degraded-ladder answering.

``SkylineDatabase`` used to route single queries, batches, skyband, and
the degradation ladder through four separate code paths, re-resolving
the plan (and re-checking the diagram cache, backoff state, and partial)
for *every* query of a degraded batch.  The planner replaces all of
them:

* :meth:`QueryPlanner.plan` validates a :class:`~repro.query.spec.QuerySpec`
  (or the legacy ``(kind, mask, k)`` keywords, which build one) through
  the kind's registered :class:`~repro.query.spec.KindHandler` and
  returns an immutable :class:`QueryPlan` — the diagram key plus the
  budget-aware builder (user errors raise here, before the ladder, so
  they are never mistaken for build failures);
* :meth:`QueryPlanner.execute` answers a batch of queries under one plan
  resolution: obtain the diagram once, and either run the kernel's
  vectorized batch path or walk each query down the ladder
  (partial → scratch) against the *same* resolved state.

A single query is a batch of one.  Every answer carries a
:class:`~repro.query.metrics.QueryReport`, and every execution is folded
into the database's :class:`~repro.query.metrics.MetricsRegistry` — the
single choke point for tier accounting.

The planner itself is kind-agnostic: adding a query kind means
registering a handler in ``repro.query.spec``, not editing this module.
The handler owns validation, the diagram key, the builder and the
scratch oracle; the two spec-only features — box restriction and
diversified selection — are applied here uniformly for whatever kind
carries them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.query.metrics import QueryReport
from repro.query.spec import (
    Builder,
    KindHandler,
    QuerySpec,
    box_filter,
    handler_for,
    registered_kinds,
    restrict_coords,
)
from repro.resilience import CoverageMiss

#: Query kinds the planner understands (the registry's kinds).
KINDS = registered_kinds()

_MISS = object()  # sentinel: () is a valid query result


class QueryAnswer(NamedTuple):
    """A query result annotated with the ladder tier that produced it.

    ``report`` carries the serving diagram's
    :class:`~repro.diagram.pipeline.BuildReport` when the ``diagram``
    tier answered (``None`` for partial/scratch tiers and pipeline-less
    diagrams).  ``query_report`` is the lookup-side
    :class:`~repro.query.metrics.QueryReport` and is always present on
    answers produced by the planner.
    """

    result: tuple[int, ...]
    served_from: str
    key: str
    report: object = None
    query_report: QueryReport | None = None


@dataclass(frozen=True)
class QueryPlan:
    """An immutable resolved query request: spec, key, builder, handler.

    The historical ``kind``/``mask``/``k`` attributes remain as
    read-only views onto the spec for callers written against the old
    triple.
    """

    spec: QuerySpec
    key: str
    builder: Builder | None = None
    handler: KindHandler = field(default_factory=lambda: handler_for("dynamic"))

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def mask(self) -> int:
        return self.spec.mask

    @property
    def k(self) -> int:
        return self.spec.k


class QueryPlanner:
    """Resolves and executes query plans for one :class:`SkylineDatabase`."""

    __slots__ = ("_db",)

    def __init__(self, db) -> None:
        self._db = db

    # ------------------------------------------------------------------
    # Plan resolution
    # ------------------------------------------------------------------
    def plan(
        self,
        kind: str | QuerySpec = "dynamic",
        mask: int = 0,
        k: int = 1,
        box=None,
        diversify: int | None = None,
    ) -> QueryPlan:
        """Validate a query spec and resolve its :class:`QueryPlan`.

        Accepts either a :class:`QuerySpec` in the ``kind`` position or
        the legacy keywords (which build one).  User errors (unknown
        kind, bad mask/k/box/diversify, unsupported dimensionality)
        raise here — *before* the degradation ladder, so they are never
        mistaken for build failures.
        """
        db = self._db
        spec = QuerySpec.of(kind, mask=mask, k=k, box=box, diversify=diversify)
        handler = handler_for(spec.kind)
        spec = handler.validate(spec, db.dataset.dim)
        # Builders take the dataset explicitly: the engine pins a
        # generation's dataset so a concurrent update swap can never mix
        # a new dataset into an old generation's diagram cache.
        return QueryPlan(
            spec=spec,
            key=handler.diagram_key(spec),
            builder=handler.make_builder(db, spec),
            handler=handler,
        )

    def plan_for_key(self, key: str) -> QueryPlan:
        """Re-resolve a plan from a recorded diagram key (rebuild path)."""
        if key.startswith("quadrant:"):
            return self.plan("quadrant", mask=int(key.split(":", 1)[1]))
        if key.startswith("skyband:"):
            return self.plan("skyband", k=int(key.split(":", 1)[1]))
        return self.plan(key)

    # ------------------------------------------------------------------
    # Execution: the degradation ladder, once per batch
    # ------------------------------------------------------------------
    def execute(
        self, plan: QueryPlan, queries: Sequence[Sequence[float]]
    ) -> list[QueryAnswer]:
        """Answer ``queries`` under one plan resolution.

        The diagram is obtained (and, if needed, built) exactly once for
        the whole batch.  If it is available, the kernel's vectorized
        batch path answers everything and all answers share one
        :class:`QueryReport`; otherwise each query falls down the ladder
        (partial → scratch) against the state resolved up front, with a
        per-query report.  The tiers agree on the answer by construction
        — ``served_from`` is a latency annotation, not a correctness
        caveat.
        """
        db = self._db
        clock = db._clock
        spec = plan.spec
        # Apply due journalled updates before serving (the cooperative
        # "background" retry), then capture the serving generation ONCE:
        # every lookup below — diagram, partial, scratch — resolves
        # against this object, so a concurrent update swap can never
        # produce a mixed-generation answer within the batch.
        db._poke_updates()
        gen = db._gen
        pending = db._updates.depth
        cached = gen.diagrams.get(plan.key) is not None
        diagram = db._obtain(plan.key, plan.builder, gen=gen)
        # Latency windows start *after* the obtain: construction cost is
        # build-side telemetry (BuildReport / the registry's phase sink),
        # not lookup latency — a cold first query should not skew the
        # per-query histograms by the whole build.
        start = clock()
        if diagram is not None:
            kernel = diagram.kernel
            hits_before = kernel.boundary_hits
            if spec.box is not None:
                lo, hi = spec.box
                if len(queries) == 1:
                    results = [
                        kernel.query_restricted(
                            db._check_query(queries[0]), lo, hi
                        )
                    ]
                else:
                    results = kernel.query_batch_restricted(queries, lo, hi)
            elif len(queries) == 1:
                # Batch-of-1: the scalar kernel path skips the numpy
                # round-trip a one-row locate_batch would pay.  Validate
                # here — multi-row batches get their typed errors from
                # locate_batch, and the scalar path must match.
                results = [diagram.query(db._check_query(queries[0]))]
            else:
                results = diagram.query_batch(queries)
            if spec.diversify is not None:
                from repro.skyline.queries import diversified_select

                results = [
                    diversified_select(gen.dataset, result, spec.diversify)
                    for result in results
                ]
            seconds = max(0.0, clock() - start)
            m = len(results)
            query_report = QueryReport(
                kind=plan.handler.metrics_kind(spec),
                key=plan.key,
                tier="diagram",
                batch=m,
                seconds=seconds,
                per_query_s=seconds / m if m else 0.0,
                boundary_hits=kernel.boundary_hits - hits_before,
                cache_hit=cached,
                pending_updates=pending,
                generation=gen.sha,
            )
            db.metrics.observe_query(query_report)
            build_report = getattr(diagram, "build_report", None)
            return [
                QueryAnswer(result, "diagram", plan.key, build_report,
                            query_report)
                for result in results
            ]
        # Degraded: the plan (cache miss, backoff, partial) was resolved
        # once above; each query now walks partial -> scratch against it.
        # Partials only exist for first-quadrant (mask 0) builds —
        # quadrant_diagram_for_mask drops reflected partials — so the
        # lower-closed partial locate matches the spec's box semantics.
        partial = gen.states[plan.key].partial
        answers: list[QueryAnswer] = []
        for query in queries:
            coords = db._check_query(query)
            started = clock()
            result = _MISS
            tier = "scratch"
            if partial is not None:
                lookup = (
                    coords
                    if spec.box is None
                    else restrict_coords(coords, spec.box, spec.mask)
                )
                try:
                    found = partial.query(lookup)
                    if spec.box is not None:
                        found = box_filter(
                            gen.dataset.points, found, spec.box, spec.mask
                        )
                    if spec.diversify is not None:
                        from repro.skyline.queries import diversified_select

                        found = diversified_select(
                            gen.dataset, found, spec.diversify
                        )
                    result = found
                    tier = "partial"
                except CoverageMiss:
                    result = _MISS
            if result is _MISS:
                result = plan.handler.scratch(gen.dataset, coords, spec)
            seconds = max(0.0, clock() - started)
            query_report = QueryReport(
                kind=plan.handler.metrics_kind(spec),
                key=plan.key,
                tier=tier,
                batch=1,
                seconds=seconds,
                per_query_s=seconds,
                pending_updates=pending,
                generation=gen.sha,
            )
            db.metrics.observe_query(query_report)
            answers.append(
                QueryAnswer(result, tier, plan.key, None, query_report)
            )
        return answers
