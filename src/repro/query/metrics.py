"""Query-side telemetry: latency histograms, counters, ``QueryReport``.

The lookup-side mirror of the build pipeline's telemetry
(``repro.diagram.pipeline``).  A :class:`MetricsRegistry` aggregates

* per-(kind, tier) latency histograms over log-scale buckets,
* ladder-tier counts — *the* single choke point for tier accounting
  (``SkylineDatabase`` no longer keeps its own ``_tiers`` dict),
* boundary-hit and diagram-cache counters, and
* build-phase timings, because the registry implements the same
  telemetry-sink protocol as ``BuildContext`` — ``registry(name,
  payload)`` with ``payload["seconds"]`` — so one object can watch both
  sides: pass it as ``BuildOptions(telemetry=registry)`` and as
  ``SkylineDatabase(metrics=registry)``.

Each answer carries a :class:`QueryReport` (the counterpart of
``BuildReport``): which tier served it, how long it took, how many
queries shared the plan execution, and how many boundary-exact detours
were taken.  ``registry.snapshot()`` returns the JSON-ready aggregate
surfaced by ``health()``, ``repro stats``, and the chaos harness.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

#: Serving tiers of the degradation ladder, best first.
TIERS = ("diagram", "partial", "scratch")

#: Histogram bucket upper bounds (seconds), a 1-2-5 series from 100ns to 10s.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for base in (1.0, 2.0, 5.0)
) + (10.0,)


class LatencyHistogram:
    """Fixed-bucket latency histogram with exact count/mean/min/max."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, seconds: float, weight: int = 1) -> None:
        """Record ``weight`` observations of ``seconds`` each."""
        if weight <= 0:
            return
        seconds = max(0.0, float(seconds))
        self.counts[bisect_left(BUCKET_BOUNDS, seconds)] += weight
        self.count += weight
        self.total += seconds * weight
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)

    def quantile(self, q: float) -> float:
        """Upper bucket bound at quantile ``q`` (0 when empty)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for slot, n in enumerate(self.counts):
            running += n
            if running >= target and n:
                if slot < len(BUCKET_BOUNDS):
                    return BUCKET_BOUNDS[slot]
                return self.max if self.max is not None else BUCKET_BOUNDS[-1]
        return self.max if self.max is not None else 0.0

    def as_dict(self) -> dict:
        """JSON-ready summary (counts, mean, min/max, p50/p99 bounds)."""
        return {
            "count": self.count,
            "mean_s": self.total / self.count if self.count else 0.0,
            "min_s": self.min or 0.0,
            "max_s": self.max or 0.0,
            "p50_s": self.quantile(0.50),
            "p99_s": self.quantile(0.99),
        }


@dataclass
class QueryReport:
    """Per-answer lookup telemetry — the counterpart of ``BuildReport``.

    Attributes
    ----------
    kind / key:
        Query semantics and the diagram key the plan resolved to
        (e.g. ``"quadrant"`` / ``"quadrant:2"``).
    tier:
        Which ladder tier served the answer: ``"diagram"``,
        ``"partial"`` or ``"scratch"``; always equals the answer's
        ``served_from``.
    batch:
        How many queries shared this plan execution (1 on the single
        path and on every degraded answer; m on the vectorized diagram
        path — all m answers share one report object).
    seconds / per_query_s:
        Wall clock of the execution and its per-query share.
    boundary_hits:
        Boundary-exact resolutions taken during this execution.
    cache_hit:
        True when the diagram was already attached (no build attempt
        was needed to serve this plan).
    pending_updates:
        Depth of the database's update journal when the answer was
        produced.  Non-zero means the answer is *stale*: it reflects the
        generation last swapped in, not the journalled updates still
        waiting to be applied (e.g. during update-failure backoff).
    generation:
        Content sha of the dataset generation that served the answer.
    """

    kind: str
    key: str
    tier: str
    batch: int = 1
    seconds: float = 0.0
    per_query_s: float = 0.0
    boundary_hits: int = 0
    cache_hit: bool = False
    pending_updates: int = 0
    generation: str | None = None

    def as_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "kind": self.kind,
            "key": self.key,
            "tier": self.tier,
            "batch": self.batch,
            "seconds": self.seconds,
            "per_query_s": self.per_query_s,
            "boundary_hits": self.boundary_hits,
            "cache_hit": self.cache_hit,
            "pending_updates": self.pending_updates,
            "generation": self.generation,
        }


@dataclass
class MetricsRegistry:
    """Aggregated query-runtime metrics; also a build-telemetry sink."""

    _latency: dict = field(default_factory=dict)
    _tiers: dict = field(
        default_factory=lambda: {tier: 0 for tier in TIERS}
    )
    _counters: dict = field(default_factory=dict)
    _build_phases: dict = field(default_factory=dict)
    _serving: dict = field(default_factory=dict)
    _updates: dict = field(default_factory=dict)

    # -- query side ----------------------------------------------------

    def observe_query(self, report: QueryReport) -> None:
        """Fold one :class:`QueryReport` into the aggregate.

        This is the only place serving tiers are counted: every entry
        point (single, batch, ladder fallback) funnels through the
        planner, and the planner funnels through here.
        """
        if report.tier not in self._tiers:
            raise ValueError(
                f"unknown serving tier {report.tier!r}; expected one of "
                f"{TIERS}"
            )
        self._tiers[report.tier] += report.batch
        self._bump("executions")
        self._bump("queries", report.batch)
        self._bump("boundary_hits", report.boundary_hits)
        if report.tier == "diagram":
            self._bump("cache_hits" if report.cache_hit else "cache_misses")
        if report.pending_updates:
            self._bump("stale_answers", report.batch)
        hist = self._latency.get((report.kind, report.tier))
        if hist is None:
            hist = self._latency[(report.kind, report.tier)] = (
                LatencyHistogram()
            )
        hist.observe(report.per_query_s, weight=report.batch)
        if report.generation is not None:
            self.observe_serving(
                report.generation, report.per_query_s, weight=report.batch
            )

    def observe_serving(
        self, generation: str, seconds: float, weight: int = 1
    ) -> None:
        """Fold serving latency into the per-generation histogram.

        ``generation`` is the dataset-content sha of the generation that
        produced the answers; the serving layer (``repro serve`` health)
        reports these histograms so a latency regression can be pinned to
        the generation swap that introduced it.
        """
        hist = self._serving.get(generation)
        if hist is None:
            hist = self._serving[generation] = LatencyHistogram()
        hist.observe(seconds, weight=weight)

    def record_rejected(self, amount: int = 1) -> None:
        """Count a request rejected at validation time.

        A rejection is a typed :class:`~repro.errors.QueryError` raised
        by plan/spec validation — malformed kind, mask, k, box,
        diversify, or query coordinates — before the ladder ever runs.
        Counting them makes malformed traffic visible in ``health()``
        and ``repro stats`` instead of silent.
        """
        self._bump("rejected_requests", amount)

    def rejected_count(self) -> int:
        """Requests rejected at validation time so far."""
        return int(self._counters.get("rejected_requests", 0))

    def record_update(self, generation: str, ops: int) -> None:
        """Count ``ops`` journalled updates applied into ``generation``."""
        self._bump("updates_applied", ops)
        self._bump("update_batches")
        self._updates[generation] = self._updates.get(generation, 0) + ops

    def _bump(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def tier_counts(self) -> dict:
        """Queries served per ladder tier (always includes all tiers)."""
        return dict(self._tiers)

    # -- build side: the BuildContext telemetry-sink protocol ----------

    def __call__(self, name: str, payload: dict) -> None:
        """Record one build-phase event (``sink(phase, payload)``)."""
        entry = self._build_phases.setdefault(
            name, {"count": 0, "seconds": 0.0}
        )
        entry["count"] += 1
        entry["seconds"] += float(payload.get("seconds", 0.0))

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready aggregate of everything observed so far."""
        return {
            "tiers": self.tier_counts(),
            "counters": dict(sorted(self._counters.items())),
            "latency": {
                f"{kind}/{tier}": hist.as_dict()
                for (kind, tier), hist in sorted(self._latency.items())
            },
            "build_phases": {
                name: dict(entry)
                for name, entry in sorted(self._build_phases.items())
            },
            "serving_by_generation": {
                sha: hist.as_dict()
                for sha, hist in sorted(self._serving.items())
            },
            "updates_by_generation": dict(sorted(self._updates.items())),
        }


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def format_snapshot(snapshot: dict) -> str:
    """Human-readable rendering of ``MetricsRegistry.snapshot()``.

    Shared by ``repro stats`` and the chaos harness summary.
    """
    lines = ["query runtime metrics"]
    tiers = snapshot.get("tiers", {})
    lines.append(
        "  tiers:    "
        + "  ".join(f"{tier}={tiers.get(tier, 0)}" for tier in TIERS)
    )
    counters = snapshot.get("counters", {})
    if counters:
        lines.append(
            "  counters: "
            + "  ".join(f"{name}={value}" for name, value in counters.items())
        )
    latency = snapshot.get("latency", {})
    if latency:
        lines.append("  latency (per query):")
        header = (
            f"    {'kind/tier':<18} {'count':>7} {'mean':>9} "
            f"{'p50':>9} {'p99':>9} {'max':>9}"
        )
        lines.append(header)
        for label, hist in latency.items():
            lines.append(
                f"    {label:<18} {hist['count']:>7} "
                f"{_fmt_seconds(hist['mean_s']):>9} "
                f"{_fmt_seconds(hist['p50_s']):>9} "
                f"{_fmt_seconds(hist['p99_s']):>9} "
                f"{_fmt_seconds(hist['max_s']):>9}"
            )
    updates = snapshot.get("updates_by_generation", {})
    if updates:
        lines.append(
            "  updates:  "
            + "  ".join(
                f"{sha[:12]}=+{ops}" for sha, ops in updates.items()
            )
        )
    serving = snapshot.get("serving_by_generation", {})
    if serving:
        lines.append("  serving latency by generation:")
        for sha, hist in serving.items():
            lines.append(
                f"    {sha[:12]:<18} {hist['count']:>7} "
                f"{_fmt_seconds(hist['mean_s']):>9} "
                f"{_fmt_seconds(hist['p50_s']):>9} "
                f"{_fmt_seconds(hist['p99_s']):>9} "
                f"{_fmt_seconds(hist['max_s']):>9}"
            )
    phases = snapshot.get("build_phases", {})
    if phases:
        lines.append(
            "  build phases: "
            + "  ".join(
                f"{name}={_fmt_seconds(entry['seconds'])}"
                f"(x{entry['count']})"
                for name, entry in phases.items()
            )
        )
    return "\n".join(lines)
