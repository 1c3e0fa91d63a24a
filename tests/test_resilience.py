"""Tests for build budgets, the degradation ladder, health and audits."""

import numpy as np
import pytest

from repro.diagram.dynamic_scanning import dynamic_scanning
from repro.diagram.pipeline import BuildOptions
from repro.diagram.quadrant_scanning import quadrant_scanning
from repro.errors import (
    AuditError,
    BudgetExceededError,
    DatasetError,
    DimensionalityError,
    QueryError,
)
from repro.index.engine import SkylineDatabase
from repro.resilience import (
    BudgetMeter,
    BuildBudget,
    CoverageMiss,
    PartialDiagram,
    as_meter,
)
from repro.testing.faults import SteppingClock, crash_build_after

#: Per-row budget checkpoints (and so per-row partials) are the serial
#: engine's; the default vectorized engine checkpoints per row block.
SERIAL = BuildOptions(executor="serial")


class TestBuildBudget:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_seconds"):
            BuildBudget(max_seconds=0)
        with pytest.raises(ValueError, match="max_cells"):
            BuildBudget(max_cells=0)
        with pytest.raises(ValueError, match="max_distinct"):
            BuildBudget(max_distinct=-1)

    def test_unlimited(self):
        assert BuildBudget().unlimited
        assert not BuildBudget(max_cells=10).unlimited

    def test_meter_counts_and_trips_cells(self):
        meter = BuildBudget(max_cells=5).start()
        meter.checkpoint(advance=3)
        with pytest.raises(BudgetExceededError, match="cell budget") as info:
            meter.checkpoint(advance=3)
        progress = info.value.progress
        assert progress.cells_done == 6
        assert progress.checkpoints == 2

    def test_meter_trips_distinct(self):
        meter = BuildBudget(max_distinct=2).start()
        meter.checkpoint(distinct=2)
        with pytest.raises(BudgetExceededError, match="distinct"):
            meter.checkpoint(distinct=3)

    def test_meter_trips_time_with_injected_clock(self):
        clock = SteppingClock()
        meter = BuildBudget(max_seconds=1.0).start(clock)
        meter.checkpoint()
        clock.advance(2.0)
        with pytest.raises(BudgetExceededError, match="time budget"):
            meter.checkpoint()

    def test_as_meter_normalization(self):
        assert as_meter(None) is None
        meter = BuildBudget(max_cells=3).start()
        assert as_meter(meter) is meter
        assert isinstance(as_meter(BuildBudget(max_cells=3)), BudgetMeter)
        with pytest.raises(TypeError):
            as_meter(42)


class TestBuilderBudgets:
    """Every construction raises typed, progress-carrying exhaustion."""

    POINTS = [(2.0, 8.0), (5.0, 4.0), (9.0, 1.0), (1.0, 9.0)]

    def test_quadrant_scanning_partial(self):
        with pytest.raises(BudgetExceededError) as info:
            quadrant_scanning(
                self.POINTS,
                budget=BuildBudget(max_cells=6),
                build_options=SERIAL,
            )
        partial = info.value.partial
        assert isinstance(partial, PartialDiagram)
        assert 0 < partial.coverage < 1
        # The top rows were scanned; queries there are exact.
        answer = partial.query((0.0, 100.0))
        full = quadrant_scanning(self.POINTS)
        assert answer == full.query((0.0, 100.0))

    def test_dynamic_scanning_partial_covers_bottom_rows(self):
        with pytest.raises(BudgetExceededError) as info:
            dynamic_scanning(self.POINTS, budget=BuildBudget(max_cells=9))
        partial = info.value.partial
        assert partial is not None and partial.rows_built >= 1
        full = dynamic_scanning(self.POINTS)
        assert partial.query((0.3, -50.0)) == full.query((0.3, -50.0))

    def test_dynamic_partial_misses_boundary_queries(self):
        with pytest.raises(BudgetExceededError) as info:
            dynamic_scanning(self.POINTS, budget=BuildBudget(max_cells=9))
        partial = info.value.partial
        with pytest.raises(CoverageMiss):
            partial.query((2.0, -50.0))  # x = 2 lies on a subcell line

    def test_partial_miss_outside_covered_rows(self):
        with pytest.raises(BudgetExceededError) as info:
            quadrant_scanning(
                self.POINTS,
                budget=BuildBudget(max_cells=6),
                build_options=SERIAL,
            )
        with pytest.raises(CoverageMiss):
            info.value.partial.query((0.0, 0.0))  # bottom row never built

    def test_global_diagram_strips_partial(self):
        from repro.diagram.global_diagram import global_diagram

        with pytest.raises(BudgetExceededError) as info:
            global_diagram(self.POINTS, budget=BuildBudget(max_cells=6))
        assert info.value.partial is None

    def test_reflected_quadrant_strips_partial(self):
        from repro.diagram.global_diagram import quadrant_diagram_for_mask

        with pytest.raises(BudgetExceededError) as info:
            quadrant_diagram_for_mask(
                self.POINTS, 3, quadrant_scanning,
                budget=BuildBudget(max_cells=6),
            )
        assert info.value.partial is None

    def test_skyband_sweep_partial(self):
        from repro.diagram.skyband import skyband_sweep

        with pytest.raises(BudgetExceededError) as info:
            skyband_sweep(self.POINTS, 2, budget=BuildBudget(max_cells=6))
        partial = info.value.partial
        full = skyband_sweep(self.POINTS, 2)
        assert partial.query((0.0, -5.0)) == full.query((0.0, -5.0))

    def test_highdim_scanning_budget(self):
        from repro.diagram.highdim import quadrant_scanning_nd

        with pytest.raises(BudgetExceededError):
            quadrant_scanning_nd(
                [(1.0, 2.0, 3.0), (3.0, 2.0, 1.0), (2.0, 2.0, 2.0)],
                budget=BuildBudget(max_cells=4),
            )

    def test_budget_unaware_algorithm_charged_post_hoc(self):
        from repro.diagram.global_diagram import quadrant_diagram_for_mask
        from repro.diagram.quadrant_baseline import quadrant_baseline

        with pytest.raises(BudgetExceededError):
            quadrant_diagram_for_mask(
                self.POINTS, 0, quadrant_baseline,
                budget=BuildBudget(max_cells=6),
            )


class TestDegradationLadder:
    POINTS = [(2.0, 8.0), (5.0, 4.0), (9.0, 1.0)]

    def test_scratch_tier_matches_direct_evaluation(self):
        db = SkylineDatabase(self.POINTS, budget=BuildBudget(max_cells=1))
        for kind in ("quadrant", "global", "dynamic", "skyband"):
            k = 2 if kind == "skyband" else 1
            answer = db.query_annotated((4.0, 4.0), kind=kind, k=k)
            assert answer.served_from in ("partial", "scratch")
            assert answer.result == db.query_from_scratch(
                (4.0, 4.0), kind=kind, k=k
            )

    def test_partial_tier_served_for_covered_rows(self):
        db = SkylineDatabase(self.POINTS, budget=BuildBudget(max_cells=6))
        answer = db.query_annotated((0.0, 100.0), kind="quadrant")
        assert answer.served_from == "partial"
        assert answer.result == db.query_from_scratch(
            (0.0, 100.0), kind="quadrant"
        )
        assert db.health()["builds"]["quadrant:0"]["partial_coverage"] > 0

    def test_diagram_tier_when_budget_suffices(self):
        db = SkylineDatabase(
            self.POINTS,
            budget=BuildBudget(max_cells=10**6),
            build_options=SERIAL,
        )
        answer = db.query_annotated((1.0, 2.0), kind="quadrant")
        assert (answer.result, answer.served_from, answer.key) == (
            (0, 1),
            "diagram",
            "quadrant:0",
        )
        assert answer.report is not None
        assert answer.report.executor == "serial"

    def test_tier_counters_accumulate(self):
        db = SkylineDatabase(self.POINTS, budget=BuildBudget(max_cells=1))
        db.query((1.0, 2.0), kind="quadrant")
        db.query((1.0, 2.0), kind="quadrant")
        tiers = db.health()["tiers"]
        assert tiers["diagram"] == 0
        assert tiers["partial"] + tiers["scratch"] == 2

    def test_query_batch_degrades_per_query(self):
        db = SkylineDatabase(self.POINTS, budget=BuildBudget(max_cells=1))
        queries = [(1.0, 2.0), (6.0, 5.0), (10.0, 10.0)]
        batch = db.query_batch(queries, kind="quadrant")
        assert batch == [
            db.query_from_scratch(q, kind="quadrant") for q in queries
        ]

    def test_build_crash_degrades_not_raises(self):
        db = SkylineDatabase(self.POINTS)
        with crash_build_after(1, message="synthetic bug"):
            answer = db.query_annotated((1.0, 2.0), kind="quadrant")
        assert answer.served_from == "scratch"
        assert answer.result == (0, 1)
        state = db.health()["builds"]["quadrant:0"]
        assert state["status"] == "degraded"
        assert "synthetic bug" in state["error"]

    def test_required_accessor_raises_on_budget(self):
        db = SkylineDatabase(self.POINTS, budget=BuildBudget(max_cells=1))
        with pytest.raises(BudgetExceededError):
            db.quadrant_diagram()
        # ... but the failure is recorded, and queries keep working.
        assert db.query((1.0, 2.0), kind="quadrant") == (0, 1)


class TestBackoffAndRebuild:
    POINTS = [(2.0, 8.0), (5.0, 4.0), (9.0, 1.0)]

    def _degraded_db(self, clock):
        db = SkylineDatabase(
            self.POINTS, budget=BuildBudget(max_cells=1), clock=clock
        )
        db.query((1.0, 2.0), kind="quadrant")
        return db

    def test_backoff_suppresses_rebuild_attempts(self):
        clock = SteppingClock()
        db = self._degraded_db(clock)
        attempts = db.health()["builds"]["quadrant:0"]["attempts"]
        db.query((1.0, 2.0), kind="quadrant")  # inside the backoff window
        assert db.health()["builds"]["quadrant:0"]["attempts"] == attempts

    def test_backoff_is_exponential(self):
        clock = SteppingClock()
        db = self._degraded_db(clock)
        first = db.health()["builds"]["quadrant:0"]["retry_in"]
        clock.advance(first + 0.01)
        db.query((1.0, 2.0), kind="quadrant")  # second failed attempt
        second = db.health()["builds"]["quadrant:0"]["retry_in"]
        assert second > first

    def test_rebuild_respects_and_forces_backoff(self):
        clock = SteppingClock()
        db = self._degraded_db(clock)
        assert db.rebuild() == {"quadrant:0": "backoff"}
        db.budget = None
        assert db.rebuild(force=True) == {"quadrant:0": "ready"}
        assert db.health()["ok"]
        answer = db.query_annotated((1.0, 2.0), kind="quadrant")
        assert answer.served_from == "diagram"

    def test_rebuild_of_specific_kind(self):
        clock = SteppingClock()
        db = self._degraded_db(clock)
        db.budget = None
        outcome = db.rebuild(kind="quadrant", force=True)
        assert outcome == {"quadrant:0": "ready"}


class TestTypedQueryErrors:
    """Satellite: malformed inputs raise library errors, never raw numpy."""

    POINTS = [(2.0, 8.0), (5.0, 4.0), (9.0, 1.0)]

    def test_scalar_query(self):
        db = SkylineDatabase(self.POINTS)
        with pytest.raises(QueryError, match="sequence"):
            db.query(5)

    def test_string_query(self):
        db = SkylineDatabase(self.POINTS)
        with pytest.raises(QueryError, match="sequence of coordinates"):
            db.query("ab")

    def test_wrong_dimensionality_query(self):
        db = SkylineDatabase(self.POINTS)
        with pytest.raises(QueryError, match="dimensions"):
            db.query((1.0, 2.0, 3.0))
        with pytest.raises(QueryError, match="dimensions"):
            db.query_from_scratch((1.0, 2.0, 3.0))

    def test_non_numeric_coordinates(self):
        db = SkylineDatabase(self.POINTS)
        with pytest.raises(QueryError, match="non-numeric"):
            db.query(("x", "y"))

    def test_mask_out_of_range(self):
        db = SkylineDatabase(self.POINTS)
        with pytest.raises(QueryError, match="mask"):
            db.query((1.0, 2.0), kind="quadrant", mask=4)
        with pytest.raises(QueryError, match="mask"):
            db.query((1.0, 2.0), kind="quadrant", mask=-1)

    def test_bad_skyband_k(self):
        db = SkylineDatabase(self.POINTS)
        with pytest.raises(QueryError, match="k"):
            db.query((1.0, 2.0), kind="skyband", k=0)
        with pytest.raises(QueryError, match="k"):
            db.skyband((1.0, 2.0), k="two")

    def test_unknown_kind(self):
        db = SkylineDatabase(self.POINTS)
        with pytest.raises(QueryError, match="kind"):
            db.query((1.0, 2.0), kind="bogus")

    def test_empty_dataset_is_typed(self):
        with pytest.raises(DatasetError):
            SkylineDatabase([])

    def test_single_point_dataset_works_everywhere(self):
        db = SkylineDatabase([(3.0, 3.0)])
        assert db.query((0.0, 0.0), kind="quadrant") == (0,)
        assert db.query((0.0, 0.0), kind="global") == (0,)
        assert db.query((0.0, 0.0), kind="dynamic") == (0,)
        assert db.query_batch([(0.0, 0.0), (5.0, 5.0)], kind="global") == [
            (0,),
            (0,),
        ]

    def test_dimensionality_errors_win_over_ladder(self):
        db = SkylineDatabase([(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)])
        with pytest.raises(DimensionalityError):
            db.query((0.0, 0.0, 0.0), kind="dynamic")
        with pytest.raises(DimensionalityError):
            db.query((0.0, 0.0, 0.0), kind="skyband", k=2)


class TestAudits:
    POINTS = [(2.0, 8.0), (5.0, 4.0), (9.0, 1.0)]

    def test_clean_database_audits_ok(self):
        db = SkylineDatabase(self.POINTS, precompute=["global", "dynamic"])
        db.query((1.0, 2.0), kind="quadrant")
        outcome = db.audit()
        assert set(outcome) == {"global", "dynamic", "quadrant:0"}
        assert all(v == "ok" for v in outcome.values())
        assert db.health()["last_audit"] == outcome

    def test_fingerprint_drift_detected_and_healed(self):
        db = SkylineDatabase(self.POINTS)
        db.query((1.0, 2.0), kind="quadrant")
        store = db._diagrams["quadrant:0"].store
        # Remap one cell to a different valid id: structurally sound,
        # caught only by the content fingerprint.
        store.ids[0, 0] = (store.ids[0, 0] + 1) % store.distinct_count
        outcome = db.audit()
        assert outcome["quadrant:0"].startswith("corrupt")
        assert "quadrant:0" in db.health()["degraded"]
        # Self-healing: the next query transparently rebuilds.
        answer = db.query_annotated((1.0, 2.0), kind="quadrant")
        assert answer.result == (0, 1)
        assert db.audit()["quadrant:0"] == "ok"

    def test_structural_corruption_detected(self):
        db = SkylineDatabase(self.POINTS)
        db.query((1.0, 2.0), kind="dynamic")
        store = db._diagrams["dynamic"].store
        store.table[0] = store.table[0] + (10**6,)
        store._intern = None
        assert db.audit()["dynamic"].startswith("corrupt")

    def test_store_audit_rejects_unsorted_results(self):
        from repro.diagram.store import ResultStore

        store = ResultStore.from_dict((1, 1), {(0, 0): (1, 0)})
        with pytest.raises(AuditError, match="sorted"):
            store.audit()

    def test_store_audit_rejects_out_of_range_ids(self):
        from repro.diagram.store import ResultStore

        store = ResultStore.from_dict((1, 1), {(0, 0): (0,)})
        store.ids[0, 0] = 7
        with pytest.raises(AuditError, match="table"):
            store.audit()

    def test_diagram_audit_full_level(self):
        diagram = quadrant_scanning(self.POINTS)
        fingerprint = diagram.audit(level="full")
        assert fingerprint == diagram.store.fingerprint()

    def test_diagram_audit_catches_wrong_cell(self):
        diagram = quadrant_scanning(self.POINTS)
        ids = diagram.store.ids
        ids[0, 0] = (ids[0, 0] + 1) % diagram.store.distinct_count
        with pytest.raises(AuditError):
            diagram.audit(level="full")

    def test_fingerprint_is_content_addressed(self):
        a = quadrant_scanning(self.POINTS)
        b = quadrant_scanning(list(self.POINTS))
        assert a.store.fingerprint() == b.store.fingerprint()
        c = quadrant_scanning(self.POINTS[:2])
        assert a.store.fingerprint() != c.store.fingerprint()


class TestEngineCompat:
    """Contracts the pre-resilience engine exposed must keep holding."""

    def test_precompute_populates_compat_properties(self):
        db = SkylineDatabase(
            [(2.0, 8.0), (5.0, 4.0)], precompute=["global", "dynamic"]
        )
        assert db._global is not None
        assert db._dynamic is not None

    def test_precompute_under_budget_degrades_silently(self):
        db = SkylineDatabase(
            [(2.0, 8.0), (5.0, 4.0)],
            precompute=["global"],
            budget=BuildBudget(max_cells=1),
        )
        assert db._global is None
        assert db.health()["builds"]["global"]["status"] == "degraded"

    def test_shared_budget_meter_is_per_build(self):
        # Each build gets a fresh meter: a budget that admits one diagram
        # admits every diagram, not just the first.
        db = SkylineDatabase(
            [(2.0, 8.0), (5.0, 4.0)], budget=BuildBudget(max_cells=10**6)
        )
        assert db.query_annotated((0.0, 0.0), "quadrant").served_from == "diagram"
        assert db.query_annotated((0.0, 0.0), "dynamic").served_from == "diagram"
