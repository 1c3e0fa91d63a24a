"""Tests for the unified query runtime (`repro.query`).

The kernel, the planner, and the metrics registry — parity against
from-scratch evaluation on boundary-heavy workloads for every kind,
mask, and k (including the degraded tier), the plan-once contract for
batch ladder fallback, and the observability surfaces (`QueryReport`,
`MetricsRegistry`, `health()["queries"]`, `repro stats`).
"""

import pytest

from repro.diagram import dynamic_scanning, global_diagram, quadrant_scanning
from repro.diagram.pipeline import BuildOptions
from repro.index.engine import SkylineDatabase
from repro.query import (
    KINDS,
    MODES,
    LatencyHistogram,
    MetricsRegistry,
    QueryKernel,
    QueryReport,
    format_snapshot,
)
from repro.resilience import BuildBudget

POINTS = [(2, 9), (4, 7), (6, 6), (9, 3), (12, 2), (4, 9), (9, 6), (6, 3)]


def boundary_heavy_queries(points):
    """Queries saturating every boundary case the kernel must resolve.

    Grid values (on grid lines), their pairwise midpoints (dynamic
    bisectors), grid vertices, off-grid interior points, and the far
    outside corners.
    """
    xs = sorted({float(p[0]) for p in points})
    ys = sorted({float(p[1]) for p in points})
    queries = []
    queries += [(x, 5.5) for x in xs]  # vertical grid lines
    queries += [(5.5, y) for y in ys]  # horizontal grid lines
    queries += [(x, y) for x, y in zip(xs, ys)]  # grid vertices
    mid_x = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    mid_y = [(a + b) / 2 for a, b in zip(ys, ys[1:])]
    queries += [(x, y) for x, y in zip(mid_x, mid_y)]  # bisector-ish
    queries += [(0.0, 0.0), (100.0, 100.0), (0.0, 100.0), (100.0, 0.0)]
    queries += [(3.3, 6.7), (7.1, 4.2)]  # generic interior
    return queries


class TestQueryKernel:
    def test_modes_are_the_documented_three(self):
        assert MODES == ("closed_edge", "global_union", "dynamic_union")

    def test_rejects_unknown_mode(self):
        diagram = quadrant_scanning(POINTS)
        with pytest.raises(ValueError):
            QueryKernel(diagram.grid, diagram.store, "telepathy")

    def test_single_definition_of_boundary_result(self):
        # The acceptance criterion: _boundary_result lives in the kernel
        # and nowhere else.
        from repro.diagram import base

        assert not hasattr(base.SkylineDiagram, "_boundary_result")
        assert not hasattr(base.DynamicDiagram, "_boundary_result")
        assert hasattr(QueryKernel, "_boundary_result")

    def test_diagrams_share_the_kernel_implementation(self):
        quadrant = quadrant_scanning(POINTS)
        dynamic = dynamic_scanning(POINTS[:5])
        assert type(quadrant.kernel) is QueryKernel
        assert type(dynamic.kernel) is QueryKernel
        assert quadrant.kernel.mode == "closed_edge"
        assert global_diagram(POINTS).kernel.mode == "global_union"
        assert dynamic.kernel.mode == "dynamic_union"

    def test_kernel_counters_advance(self):
        diagram = global_diagram(POINTS)
        kernel = diagram.kernel
        served, batches = kernel.served, kernel.batches
        diagram.query((2.0, 5.5))  # on a grid line: boundary resolution
        diagram.query_batch([(1.0, 1.0), (3.0, 3.0)])
        assert kernel.served == served + 3
        assert kernel.batches == batches + 1
        assert kernel.boundary_hits >= 1


class TestFusedScalarLookup:
    """The fused closed_edge scalar path: same answers, same errors."""

    def test_fused_active_only_for_closed_edge(self):
        quadrant = quadrant_scanning(POINTS)
        dynamic = dynamic_scanning(POINTS[:5])
        assert quadrant.kernel._fused is not None
        assert global_diagram(POINTS).kernel._fused is None
        assert dynamic.kernel._fused is None

    @pytest.mark.parametrize("mask", range(4))
    def test_fused_equals_batch_on_boundary_heavy_queries(self, mask):
        from repro.diagram.global_diagram import quadrant_diagram_for_mask

        diagram = quadrant_diagram_for_mask(POINTS, mask, quadrant_scanning)
        assert diagram.kernel._fused is not None
        queries = boundary_heavy_queries(POINTS)
        singles = [diagram.query(q) for q in queries]
        assert singles == diagram.query_batch(queries)

    def test_fused_on_vectorized_built_diagram(self):
        serial = quadrant_scanning(
            POINTS, build_options=BuildOptions(executor="serial")
        )
        vectorized = quadrant_scanning(
            POINTS, build_options=BuildOptions(executor="vectorized")
        )
        assert vectorized.kernel._fused is not None
        for q in boundary_heavy_queries(POINTS):
            assert vectorized.query(q) == serial.query(q)

    @pytest.mark.parametrize("executor", ["serial", "vectorized"])
    def test_error_parity(self, executor):
        from repro.errors import QueryError

        diagram = quadrant_scanning(
            POINTS, build_options=BuildOptions(executor=executor)
        )
        with pytest.raises(
            QueryError, match="query has 3 dimensions, grid has 2"
        ):
            diagram.query((1.0, 2.0, 3.0))
        with pytest.raises(QueryError, match="must not be NaN"):
            diagram.query((float("nan"), 2.0))


class TestPlannerParity:
    """Planner answers == from-scratch, boundary-heavy, every tier."""

    @pytest.mark.parametrize("mask", [0, 1, 2, 3])
    def test_quadrant_masks(self, mask):
        db = SkylineDatabase(POINTS)
        for q in boundary_heavy_queries(POINTS):
            expected = db.query_from_scratch(q, kind="quadrant", mask=mask)
            assert db.query(q, kind="quadrant", mask=mask) == expected

    @pytest.mark.parametrize("kind", ["global", "dynamic"])
    def test_global_and_dynamic(self, kind):
        db = SkylineDatabase(POINTS)
        for q in boundary_heavy_queries(POINTS):
            assert db.query(q, kind=kind) == db.query_from_scratch(
                q, kind=kind
            )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_skyband_k(self, k):
        db = SkylineDatabase(POINTS)
        for q in boundary_heavy_queries(POINTS):
            expected = db.query_from_scratch(q, kind="skyband", k=k)
            assert db.query(q, kind="skyband", k=k) == expected

    def test_batch_equals_singles_everywhere(self):
        db = SkylineDatabase(POINTS)
        queries = boundary_heavy_queries(POINTS)
        # The registry's new kinds require their spec parameters.
        params = {
            "constrained": {"box": ((3.0, 2.0), (9.0, 7.0))},
            "diversified": {"k": 2, "diversify": 2},
        }
        for kind in KINDS:
            kwargs = params.get(kind, {})
            assert db.query_batch(queries, kind=kind, **kwargs) == [
                db.query(q, kind=kind, **kwargs) for q in queries
            ]

    @pytest.mark.parametrize("kind", ["quadrant", "dynamic", "skyband"])
    def test_degraded_tier_parity(self, kind):
        # An impossible budget keeps every build failing; answers must
        # come from the ladder's lower tiers and still match scratch.
        db = SkylineDatabase(POINTS, budget=BuildBudget(max_cells=1))
        for q in boundary_heavy_queries(POINTS)[:8]:
            answer = db.query_annotated(q, kind=kind, k=2)
            assert answer.served_from in ("partial", "scratch")
            assert answer.result == db.query_from_scratch(q, kind=kind, k=2)


class TestPlanOnce:
    def test_degraded_batch_resolves_the_plan_once(self, monkeypatch):
        # Regression: the ladder used to re-plan (and re-check the
        # diagram cache) for every query of a degraded batch.
        db = SkylineDatabase(POINTS, budget=BuildBudget(max_cells=1))
        calls = []
        original = SkylineDatabase._obtain

        def counting_obtain(self, key, builder, **kwargs):
            calls.append(key)
            return original(self, key, builder, **kwargs)

        monkeypatch.setattr(SkylineDatabase, "_obtain", counting_obtain)
        queries = boundary_heavy_queries(POINTS)[:6]
        answers = db.query_batch_annotated(queries, kind="quadrant")
        assert len(calls) == 1
        assert all(a.served_from in ("partial", "scratch") for a in answers)

    def test_diagram_batch_resolves_the_plan_once(self, monkeypatch):
        db = SkylineDatabase(POINTS)
        calls = []
        original = SkylineDatabase._obtain

        def counting_obtain(self, key, builder, **kwargs):
            calls.append(key)
            return original(self, key, builder, **kwargs)

        monkeypatch.setattr(SkylineDatabase, "_obtain", counting_obtain)
        db.query_batch(boundary_heavy_queries(POINTS), kind="global")
        assert calls == ["global"]


class TestQueryManyForwardsK:
    def test_query_many_forwards_k(self):
        # Regression: k used to be silently dropped, answering skyband
        # batches with the k=1 diagram.
        db = SkylineDatabase(POINTS)
        queries = [(3.0, 6.5), (7.0, 7.0), (100.0, 100.0)]
        for k in (1, 2, 3):
            assert db.query_many(queries, kind="skyband", k=k) == [
                db.query_from_scratch(q, kind="skyband", k=k)
                for q in queries
            ]
        # k=2 genuinely differs from k=1 on this workload, so the
        # assertion above cannot pass by accident.
        assert db.query_many(queries, kind="skyband", k=2) != db.query_many(
            queries, kind="skyband", k=1
        )


class TestQueryReports:
    def test_every_annotated_answer_carries_a_report(self):
        db = SkylineDatabase(POINTS)
        answer = db.query_annotated((3.0, 6.5), kind="quadrant")
        report = answer.query_report
        assert report is not None
        assert report.kind == "quadrant"
        assert report.tier == answer.served_from == "diagram"
        assert report.batch == 1
        assert report.seconds >= 0.0
        assert set(report.as_dict()) == {
            "kind", "key", "tier", "batch", "seconds", "per_query_s",
            "boundary_hits", "cache_hit", "pending_updates", "generation",
        }

    def test_batch_answers_share_one_report(self):
        db = SkylineDatabase(POINTS)
        queries = boundary_heavy_queries(POINTS)
        answers = db.query_batch_annotated(queries, kind="global")
        reports = {id(a.query_report) for a in answers}
        assert len(reports) == 1
        report = answers[0].query_report
        assert report.batch == len(queries)
        assert report.boundary_hits >= 1  # grid-line queries in the set

    def test_degraded_answers_report_their_tier(self):
        db = SkylineDatabase(POINTS, budget=BuildBudget(max_cells=1))
        answers = db.query_batch_annotated(
            [(3.0, 6.5), (7.0, 7.0)], kind="quadrant"
        )
        for answer in answers:
            assert answer.query_report.tier == answer.served_from
            assert answer.query_report.tier in ("partial", "scratch")

    def test_cache_hit_flag(self):
        db = SkylineDatabase(POINTS)
        first = db.query_annotated((3.0, 6.5), kind="quadrant")
        second = db.query_annotated((3.0, 6.5), kind="quadrant")
        assert first.query_report.cache_hit is False
        assert second.query_report.cache_hit is True


class TestMetricsRegistry:
    def test_tier_accounting_single_choke_point(self):
        db = SkylineDatabase(POINTS)
        db.query((3.0, 6.5), kind="quadrant")
        db.query_batch([(1.0, 1.0), (2.0, 2.0)], kind="quadrant")
        assert db.metrics.tier_counts()["diagram"] == 3
        assert db.health()["tiers"] == db.metrics.tier_counts()

    def test_health_exposes_the_snapshot(self):
        db = SkylineDatabase(POINTS)
        db.query((3.0, 6.5), kind="quadrant")
        snapshot = db.health()["queries"]
        assert snapshot["tiers"]["diagram"] == 1
        assert snapshot["counters"]["queries"] == 1
        assert "quadrant/diagram" in snapshot["latency"]

    def test_registry_is_shareable_across_databases(self):
        registry = MetricsRegistry()
        a = SkylineDatabase(POINTS, metrics=registry)
        b = SkylineDatabase(POINTS[:4], metrics=registry)
        a.query((3.0, 6.5), kind="quadrant")
        b.query((3.0, 6.5), kind="quadrant")
        assert registry.tier_counts()["diagram"] == 2

    def test_registry_is_a_build_telemetry_sink(self):
        # The registry speaks the BuildContext sink protocol, so build
        # phases and query latency can land in one place.
        registry = MetricsRegistry()
        db = SkylineDatabase(
            POINTS,
            build_options=BuildOptions(telemetry=registry),
            metrics=registry,
        )
        db.query((3.0, 6.5), kind="quadrant")
        snapshot = registry.snapshot()
        assert snapshot["build_phases"]  # row_scan et al. landed
        assert snapshot["tiers"]["diagram"] == 1

    def test_format_snapshot_renders_all_sections(self):
        db = SkylineDatabase(POINTS, budget=BuildBudget(max_cells=1))
        db.query((3.0, 6.5), kind="quadrant")
        text = format_snapshot(db.metrics.snapshot())
        assert "query runtime metrics" in text
        assert "tiers:" in text
        assert "counters:" in text
        assert "kind/tier" in text

    def test_snapshot_is_json_serializable(self):
        import json

        db = SkylineDatabase(POINTS)
        db.query_batch(boundary_heavy_queries(POINTS), kind="dynamic")
        json.dumps(db.metrics.snapshot())


class TestLatencyHistogram:
    def test_quantiles_and_moments(self):
        histogram = LatencyHistogram()
        for seconds in (1e-6, 2e-6, 1e-3):
            histogram.observe(seconds)
        stats = histogram.as_dict()
        assert stats["count"] == 3
        assert stats["min_s"] == pytest.approx(1e-6)
        assert stats["max_s"] == pytest.approx(1e-3)
        assert stats["p50_s"] <= stats["p99_s"]

    def test_batch_weight_attribution(self):
        # A batch of 10 queries taking 0.1 s each lands as 10
        # observations of the per-query latency.
        histogram = LatencyHistogram()
        histogram.observe(0.1, weight=10)
        assert histogram.as_dict()["count"] == 10
        assert histogram.as_dict()["mean_s"] == pytest.approx(0.1)
        assert histogram.as_dict()["max_s"] == pytest.approx(0.1)

    def test_ignores_nonpositive_weight(self):
        histogram = LatencyHistogram()
        histogram.observe(1.0, weight=0)
        assert histogram.as_dict()["count"] == 0


class TestObserveQuery:
    def test_rejects_unknown_tier(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.observe_query(
                QueryReport(kind="quadrant", key="quadrant:0", tier="warp")
            )

    def test_cache_counters_only_for_diagram_tier(self):
        registry = MetricsRegistry()
        registry.observe_query(
            QueryReport("quadrant", "quadrant:0", "diagram", cache_hit=True)
        )
        registry.observe_query(
            QueryReport("quadrant", "quadrant:0", "scratch")
        )
        counters = registry.snapshot()["counters"]
        assert counters["cache_hits"] == 1
        assert counters.get("cache_misses", 0) == 0


class TestStatsCli:
    def test_workload_mode_prints_metrics(self, capsys):
        from repro.cli import main

        assert main(["stats", "--workload", "12", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "query runtime metrics" in out
        assert "quadrant/diagram" in out
        assert "scratch" in out  # the degraded arm ran

    def test_chaos_mode_prints_metrics(self, capsys):
        from repro.cli import main

        assert main(["stats", "--chaos", "--cases", "4"]) == 0
        out = capsys.readouterr().out
        assert "chaos [OK]" in out
        assert "query tiers:" in out
        assert "query runtime metrics" in out

    def test_stats_without_target_fails(self, capsys):
        from repro.cli import main

        assert main(["stats"]) != 0
        assert "error:" in capsys.readouterr().err


class TestMalformedBatches:
    def test_batch_of_one_raises_typed_errors(self):
        # Regression: the scalar batch-of-1 path must validate like the
        # vectorized path — typed QueryError, never a raw ValueError.
        from repro.errors import QueryError

        db = SkylineDatabase(POINTS)
        for bad in [[(1, 2, 3)], [("a", "b")], [(float("nan"), 1.0)]]:
            with pytest.raises(QueryError):
                db.query_batch(bad, kind="quadrant")

    def test_multi_row_batches_keep_locate_batch_errors(self):
        from repro.errors import QueryError

        db = SkylineDatabase(POINTS)
        with pytest.raises(QueryError, match="locate_batch"):
            db.query_batch([(1, 2, 3), (4, 5, 6)], kind="quadrant")


class TestQueryExactIsGone:
    def test_alias_removed_everywhere(self):
        db = SkylineDatabase(POINTS)
        assert not hasattr(db, "query_exact")
