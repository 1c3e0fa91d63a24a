"""Tests for the unified build pipeline: BuildContext, executors, reports.

The load-bearing property is *byte-identity*: a sharded build (chunked
serial or process pool) must produce exactly the serial ResultStore —
same id grid, same table order, same fingerprint — and equal budget
accounting.  The serial scan's intern table is ordered by first
occurrence in scan order, chunk workers relabel their local tables to
that order, and the parent merges chunk tables through one shared
interner in global scan order, which reproduces the serial numbering.
"""

import json
import warnings

import numpy as np
import pytest

from repro.datasets import generate
from repro.diagram.dynamic_scanning import dynamic_scanning
from repro.diagram.global_diagram import global_diagram, quadrant_diagram_for_mask
from repro.diagram.highdim import quadrant_scanning_nd
from repro.diagram.maintenance import delete_point, insert_point
from repro.diagram.pipeline import (
    EXECUTORS,
    BuildContext,
    BuildOptions,
    BuildReport,
    Interner,
    ProcessRowExecutor,
    SerialRowExecutor,
    relabel_scan_order,
)
from repro.diagram.quadrant_baseline import quadrant_baseline
from repro.diagram.quadrant_scanning import (
    quadrant_scanning,
    quadrant_scanning_reference,
)
from repro.diagram.skyband import skyband_baseline, skyband_sweep
from repro.errors import BudgetExceededError
from repro.index.engine import SkylineDatabase
from repro.resilience import BuildBudget

#: The serial engine: the reference every other executor must reproduce
#: byte for byte, and the one with per-row checkpoints and partials.
SERIAL = BuildOptions(executor="serial")

DATASETS = [
    generate("independent", n=12, dim=2, seed=7, domain=40),
    generate("anticorrelated", n=20, dim=2, seed=3, domain=60),
    generate("clustered", n=9, dim=2, seed=11, domain=25),
    [(2, 8), (5, 4), (9, 1)],
    [(0, 0), (10, 10), (5, 5)],
]


def _assert_same_store(a, b):
    assert a.store.table == b.store.table
    assert np.array_equal(a.store.ids, b.store.ids)
    assert a.store.fingerprint() == b.store.fingerprint()
    assert a.store == b.store


class TestBuildOptions:
    def test_defaults(self):
        options = BuildOptions()
        assert options.executor == "vectorized"
        assert options.workers is None
        assert options.chunk_rows is None

    def test_validation(self):
        with pytest.raises(ValueError, match="executor"):
            BuildOptions(executor="threads")
        with pytest.raises(ValueError, match="workers"):
            BuildOptions(workers=0)
        with pytest.raises(ValueError, match="chunk_rows"):
            BuildOptions(chunk_rows=0)


class TestRelabelScanOrder:
    def test_orders_table_by_first_occurrence(self):
        rows = np.array([[2, 0], [1, 2]], dtype=np.int32)
        table = [(9,), (8,), (7,)]
        relabeled, ordered = relabel_scan_order(rows, table)
        # Scan order (flip=False) reads row 0 left-to-right first.
        assert ordered == [(7,), (9,), (8,)]
        assert relabeled.tolist() == [[0, 1], [2, 0]]

    def test_flip_reads_reverse_scan_order(self):
        rows = np.array([[2, 0], [1, 2]], dtype=np.int32)
        table = [(9,), (8,), (7,)]
        relabeled, ordered = relabel_scan_order(rows, table, flip=True)
        # flip=True reads the grid bottom-right to top-left.
        assert ordered == [(7,), (8,), (9,)]
        assert relabeled.tolist() == [[0, 2], [1, 0]]

    def test_drops_unused_entries(self):
        rows = np.array([[1, 1]], dtype=np.int32)
        _, ordered = relabel_scan_order(rows, [(5,), (6,), (7,)])
        assert ordered == [(6,)]


class TestExecutorIdentity:
    """Serial vs sharded builds must be byte-identical."""

    @pytest.mark.parametrize("points", DATASETS)
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_quadrant_chunked_serial(self, points, chunk_rows):
        serial = quadrant_scanning(points, build_options=SERIAL)
        sharded = quadrant_scanning(
            points,
            build_options=BuildOptions(
                executor="serial", chunk_rows=chunk_rows
            ),
        )
        _assert_same_store(serial, sharded)

    @pytest.mark.parametrize("points", DATASETS)
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_dynamic_chunked_serial(self, points, chunk_rows):
        serial = dynamic_scanning(points, build_options=SERIAL)
        sharded = dynamic_scanning(
            points,
            build_options=BuildOptions(
                executor="serial", chunk_rows=chunk_rows
            ),
        )
        _assert_same_store(serial, sharded)

    @pytest.mark.parametrize("points", DATASETS[:2])
    def test_quadrant_process_pool(self, points):
        serial = quadrant_scanning(points, build_options=SERIAL)
        pooled = quadrant_scanning(
            points,
            build_options=BuildOptions(executor="process", workers=2),
        )
        _assert_same_store(serial, pooled)
        assert pooled.build_report.executor == "process"
        assert pooled.build_report.workers == 2

    @pytest.mark.parametrize("points", DATASETS[:1])
    def test_dynamic_process_pool(self, points):
        serial = dynamic_scanning(points, build_options=SERIAL)
        pooled = dynamic_scanning(
            points,
            build_options=BuildOptions(executor="process", workers=2),
        )
        _assert_same_store(serial, pooled)

    @pytest.mark.parametrize("points", DATASETS[:3])
    def test_global_chunked_matches_serial(self, points):
        serial = global_diagram(points, build_options=SERIAL)
        sharded = global_diagram(
            points, build_options=BuildOptions(executor="serial", chunk_rows=2)
        )
        _assert_same_store(serial, sharded)

    @pytest.mark.parametrize("points", DATASETS[:2])
    def test_chunked_matches_reference_oracle(self, points):
        sharded = quadrant_scanning(
            points, build_options=BuildOptions(executor="serial", chunk_rows=2)
        )
        assert sharded == quadrant_scanning_reference(points)

    def test_checkpoint_accounting_parity(self):
        points = DATASETS[0]
        serial_meter = BuildBudget().start()
        quadrant_scanning(points, budget=serial_meter, build_options=SERIAL)
        sharded_meter = BuildBudget().start()
        quadrant_scanning(
            points,
            budget=sharded_meter,
            build_options=BuildOptions(executor="serial", chunk_rows=2),
        )
        assert sharded_meter.checkpoints == serial_meter.checkpoints
        assert sharded_meter.cells_done == serial_meter.cells_done
        assert sharded_meter.distinct == serial_meter.distinct

    def test_dynamic_checkpoint_accounting_parity(self):
        points = DATASETS[1]
        serial_meter = BuildBudget().start()
        dynamic_scanning(points, budget=serial_meter, build_options=SERIAL)
        sharded_meter = BuildBudget().start()
        dynamic_scanning(
            points,
            budget=sharded_meter,
            build_options=BuildOptions(executor="serial", chunk_rows=3),
        )
        assert sharded_meter.checkpoints == serial_meter.checkpoints
        assert sharded_meter.cells_done == serial_meter.cells_done
        assert sharded_meter.distinct == serial_meter.distinct

    def test_sharded_budget_exhaustion_carries_no_partial(self):
        points = DATASETS[1]
        with pytest.raises(BudgetExceededError) as info:
            quadrant_scanning(
                points,
                budget=BuildBudget(max_cells=5),
                build_options=BuildOptions(executor="serial", chunk_rows=1),
            )
        assert info.value.partial is None

    def test_serial_budget_exhaustion_keeps_partial(self):
        points = DATASETS[1]
        with pytest.raises(BudgetExceededError) as info:
            quadrant_scanning(
                points, budget=BuildBudget(max_cells=5), build_options=SERIAL
            )
        assert info.value.partial is not None


DEGENERATE_DATASETS = {
    "duplicates": [(3.0, 4.0)] * 5 + [(1.0, 6.0), (6.0, 1.0), (3.0, 4.0)],
    "collinear": [(float(i), float(i)) for i in range(9)],
    "single": [(2.0, 3.0)],
    "boundary-heavy": [
        (float(x), float(y)) for x in range(4) for y in range(4)
    ],
    "vertical-stack": [(2.0, float(y)) for y in range(7)],
}


class TestVectorizedExecutor:
    """The whole-row numpy engine must be byte-identical to serial."""

    def test_registry_lists_all_three(self):
        assert EXECUTORS == ("serial", "process", "vectorized")
        BuildOptions(executor="vectorized")  # accepted by validation

    @pytest.mark.parametrize(
        "points",
        list(DEGENERATE_DATASETS.values()),
        ids=list(DEGENERATE_DATASETS),
    )
    @pytest.mark.parametrize("chunk_rows", [None, 1, 2, 3])
    def test_degenerate_byte_identity(self, points, chunk_rows):
        serial = quadrant_scanning(points, build_options=SERIAL)
        chunked = quadrant_scanning(
            points,
            build_options=BuildOptions(
                executor="serial", chunk_rows=chunk_rows
            ),
        )
        vectorized = quadrant_scanning(
            points,
            build_options=BuildOptions(
                executor="vectorized", chunk_rows=chunk_rows
            ),
        )
        _assert_same_store(serial, chunked)
        _assert_same_store(serial, vectorized)
        assert vectorized.build_report.executor == "vectorized"

    @pytest.mark.parametrize("points", DATASETS)
    def test_random_byte_identity(self, points):
        serial = quadrant_scanning(points, build_options=SERIAL)
        vectorized = quadrant_scanning(
            points, build_options=BuildOptions(executor="vectorized")
        )
        _assert_same_store(serial, vectorized)

    def test_checkpoint_accounting_parity(self):
        points = DATASETS[0]
        serial = quadrant_scanning(points, build_options=SERIAL)
        vectorized = quadrant_scanning(
            points,
            build_options=BuildOptions(executor="vectorized", chunk_rows=3),
        )
        # Per-block checkpoints differ in granularity but the final
        # accounting (cells advanced, rows scanned, distinct results)
        # must agree with the serial build's.
        assert (
            serial.build_report.cells == vectorized.build_report.cells
        )
        assert (
            serial.build_report.rows_scanned
            == vectorized.build_report.rows_scanned
        )
        assert (
            serial.build_report.distinct_results
            == vectorized.build_report.distinct_results
        )

    def test_fallback_is_honest(self):
        points = DATASETS[0]
        serial = dynamic_scanning(points, build_options=SERIAL)
        fallback = dynamic_scanning(
            points, build_options=BuildOptions(executor="vectorized")
        )
        _assert_same_store(serial, fallback)
        assert fallback.build_report.executor == "serial"

    def test_budget_trips_at_row_block_boundary(self):
        from repro.resilience import CoverageMiss

        points = DEGENERATE_DATASETS["boundary-heavy"]
        serial = quadrant_scanning(points, build_options=SERIAL)
        sx, sy = serial.store.shape
        # Allow exactly one 2-row block of cells: the second block's
        # checkpoint must trip, and the partial must cover a whole
        # number of blocks (budget enforcement is per row block).
        chunk_rows = 2
        budget = BuildBudget(max_cells=chunk_rows * sx)
        with pytest.raises(BudgetExceededError) as excinfo:
            quadrant_scanning(
                points,
                budget=budget,
                build_options=BuildOptions(
                    executor="vectorized", chunk_rows=chunk_rows
                ),
            )
        partial = excinfo.value.partial
        assert partial is not None
        # The scan consumes blocks topmost-first, so the covered prefix
        # must end exactly on a block boundary: sy - lo for some block
        # start lo (never a torn block).
        block_aligned = {sy - lo for lo in range(0, sy, chunk_rows)}
        assert partial.rows_built in block_aligned
        assert 0 < partial.rows_built < sy
        hits = 0
        for x in range(8):
            for y in range(8):
                query = (x + 0.5, y + 0.5)
                try:
                    answer = partial.query(query)
                except CoverageMiss:
                    continue
                hits += 1
                assert answer == serial.query(query)
        assert hits > 0, "partial diagram answered nothing in its region"

    def test_lazy_table_matches_materialized(self):
        from repro.diagram.store import ConsForestTable

        points = DATASETS[1]
        vectorized = quadrant_scanning(
            points, build_options=BuildOptions(executor="vectorized")
        )
        store = vectorized.store
        lazy = store._table
        assert isinstance(lazy, ConsForestTable)
        distinct = store.distinct_count  # O(1); must not materialize
        assert isinstance(store._table, ConsForestTable)
        per_id = [store.result_tuple(rid) for rid in range(distinct)]
        # Accessing .table upgrades the forest to a plain list in place.
        table = store.table
        assert isinstance(store._table, list)
        assert table == per_id
        assert len(table) == distinct
        serial = quadrant_scanning(points, build_options=SERIAL)
        assert table == serial.store.table


class TestBudgetKwargCompat:
    """Every constructor still accepts the old ``budget=`` kwarg."""

    POINTS = [(2, 8), (5, 4), (9, 1), (7, 6)]

    def test_quadrant(self):
        assert quadrant_scanning(self.POINTS, budget=BuildBudget()).store

    def test_dynamic(self):
        assert dynamic_scanning(self.POINTS, budget=BuildBudget()).store

    def test_global(self):
        assert global_diagram(self.POINTS, budget=BuildBudget()).store

    def test_skyband(self):
        assert skyband_baseline(self.POINTS, k=2, budget=BuildBudget()).store
        assert skyband_sweep(self.POINTS, k=2, budget=BuildBudget()).store

    def test_highdim(self):
        points = [(2, 8, 1), (5, 4, 7), (9, 1, 3)]
        assert quadrant_scanning_nd(points, budget=BuildBudget()).store

    def test_maintenance(self):
        diagram = quadrant_scanning(self.POINTS)
        updated = insert_point(diagram, (3.0, 3.0), budget=BuildBudget())
        assert updated.store
        assert delete_point(updated, 0, budget=BuildBudget()).store


class TestGlobalPerRowCharge:
    def test_budget_unaware_subbuild_charges_per_row(self):
        # A budget-unaware algorithm is charged one scan row at a time, so
        # a shared budget trips within one row of its limit instead of
        # absorbing the whole sub-build in a lump.
        points = [(2, 8), (5, 4), (9, 1), (7, 6)]
        with pytest.raises(BudgetExceededError) as info:
            quadrant_diagram_for_mask(
                points, 0, quadrant_baseline, budget=BuildBudget(max_cells=6)
            )
        rows = len(points) + 1  # grid has n+1 cells per axis at most
        assert info.value.progress.cells_done <= 6 + rows


class TestBuildReport:
    def test_report_contents(self):
        diagram = quadrant_scanning(DATASETS[0], build_options=SERIAL)
        report = diagram.build_report
        assert isinstance(report, BuildReport)
        assert report.algorithm == "scanning"
        assert report.kind == "quadrant"
        assert report.executor == "serial"
        assert report.workers == 1
        assert set(report.phases) == {
            "rank_space", "row_scan", "intern", "assemble"
        }
        assert all(t >= 0.0 for t in report.phases.values())
        assert report.rows_scanned == diagram.store.shape[1]
        assert report.cells == diagram.store.num_cells
        assert report.distinct_results == diagram.store.distinct_count
        assert report.checkpoints == 0  # no budget, no meter
        assert report.elapsed >= 0.0

    def test_report_counts_checkpoints(self):
        meter = BuildBudget().start()
        diagram = quadrant_scanning(DATASETS[0], budget=meter)
        assert diagram.build_report.checkpoints == meter.checkpoints > 0

    def test_as_dict_is_json_serializable(self):
        report = dynamic_scanning(DATASETS[3]).build_report
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["kind"] == "dynamic"
        assert payload["executor"] == "serial"
        assert set(payload["phases"]) >= {"row_scan", "intern"}

    def test_every_constructor_attaches_a_report(self):
        points = [(2, 8), (5, 4), (9, 1)]
        builds = [
            quadrant_scanning(points),
            dynamic_scanning(points),
            global_diagram(points),
            skyband_baseline(points, k=2),
            skyband_sweep(points, k=2),
            quadrant_scanning_nd([(2, 8, 1), (5, 4, 7), (9, 1, 3)]),
            insert_point(quadrant_scanning(points), (3.0, 3.0)),
        ]
        for diagram in builds:
            assert isinstance(diagram.build_report, BuildReport), diagram

    def test_reference_oracle_has_no_report(self):
        diagram = quadrant_scanning_reference([(2, 8), (5, 4)])
        assert diagram.build_report is None

    def test_telemetry_sink_sees_every_phase(self):
        events = []
        options = BuildOptions(
            telemetry=lambda phase, seconds: events.append(phase)
        )
        quadrant_scanning(DATASETS[3], build_options=options)
        assert events == ["rank_space", "row_scan", "intern", "assemble"]


class TestBuildContext:
    def test_serial_only_pins_executor(self):
        ctx = BuildContext(
            None,
            BuildOptions(executor="process", workers=4),
            algorithm="x",
            kind="skyband",
            serial_only=True,
        )
        assert isinstance(ctx.executor, SerialRowExecutor)

    def test_row_chunks_cover_rows_exactly(self):
        ctx = BuildContext(
            None, BuildOptions(chunk_rows=3), algorithm="x", kind="quadrant"
        )
        chunks = ctx.row_chunks(10)
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]
        top_first = ctx.row_chunks(10, topmost_first=True)
        assert top_first == list(reversed(chunks))

    def test_cancel_trips_next_checkpoint(self):
        ctx = BuildContext(None, None, algorithm="x", kind="quadrant")
        ctx.cancel("test abort")
        with pytest.raises(BudgetExceededError, match="test abort"):
            ctx.checkpoint(advance=1)

    def test_executors_run_jobs_in_order(self):
        executor = SerialRowExecutor()
        seen = []
        results = executor.run(
            _square, [1, 2, 3], lambda job, result: seen.append(job)
        )
        assert results == [1, 4, 9]
        assert seen == [1, 2, 3]

    def test_process_executor_preserves_job_order(self):
        executor = ProcessRowExecutor(workers=2)
        assert executor.run(_square, [3, 1, 2], None) == [9, 1, 4]


def _square(job):
    return job * job


class TestInterner:
    def test_first_intern_wins(self):
        interner = Interner()
        assert interner.intern((1, 2)) == 0
        assert interner.intern((3,)) == 1
        assert interner.intern((1, 2)) == 0
        assert len(interner) == 2
        assert interner.table == [(1, 2), (3,)]

    def test_seed_empty(self):
        interner = Interner(seed_empty=True)
        assert interner.intern(()) == 0
        assert interner.table == [()]


class TestEngineIntegration:
    def test_database_threads_build_options(self):
        db = SkylineDatabase(
            DATASETS[3],
            build_options=BuildOptions(executor="serial", chunk_rows=2),
        )
        answer = db.query_annotated((1.0, 2.0), kind="quadrant")
        assert answer.served_from == "diagram"
        assert answer.report is not None
        assert answer.report.executor == "serial"
        plain = SkylineDatabase(DATASETS[3])
        assert (
            db.quadrant_diagram().store == plain.quadrant_diagram().store
        )

    def test_health_surfaces_reports(self):
        db = SkylineDatabase(DATASETS[3], build_options=SERIAL)
        db.query((1.0, 2.0), kind="quadrant")
        health = db.health()
        entry = health["builds"]["quadrant:0"]
        assert entry["report"]["executor"] == "serial"
        assert "row_scan" in entry["report"]["phases"]
        json.dumps(health["builds"]["quadrant:0"]["report"])

    def test_query_exact_alias_removed(self):
        # Deprecated (warning-only) for two releases; now gone for good.
        db = SkylineDatabase(DATASETS[3])
        assert not hasattr(db, "query_exact")


class TestCli:
    def test_build_parallel_flags(self, tmp_path, capsys):
        from repro.cli import main

        csv = tmp_path / "points.csv"
        csv.write_text("2,8\n5,4\n9,1\n")
        out = tmp_path / "chunked.json"
        assert main(
            [
                "build", str(csv), str(out), "--kind", "quadrant",
                "--executor", "serial", "--chunk-rows", "2",
            ]
        ) == 0
        stdout = capsys.readouterr().out
        assert "executor: serial" in stdout
        assert "row_scan" in stdout
        plain = tmp_path / "serial.json"
        assert main(
            ["build", str(csv), str(plain), "--executor", "serial"]
        ) == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_build_executor_flag(self, tmp_path, capsys):
        from repro.cli import main

        csv = tmp_path / "points.csv"
        csv.write_text("2,8\n5,4\n9,1\n")
        out = tmp_path / "vectorized.json"
        assert main(
            ["build", str(csv), str(out), "--executor", "vectorized"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "executor: vectorized" in stdout
        plain = tmp_path / "serial.json"
        assert main(
            ["build", str(csv), str(plain), "--executor", "serial"]
        ) == 0
        # The binary payload keeps each build's native table encoding
        # (cons forest vs CSR), so byte identity is asserted on the
        # diagrams, not the files.
        from repro.index.serialize import load_diagram

        vector_d = load_diagram(str(out))
        serial_d = load_diagram(str(plain))
        assert vector_d == serial_d
        assert vector_d.store.fingerprint() == serial_d.store.fingerprint()

    def test_executor_flag_rejects_unknown(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["build", "x.csv", "y.json", "--executor", "threads"])


class TestVectorizedDefault:
    """Default builds run the vectorized engine and match serial byte for byte."""

    def test_serve_data_default_build(self):
        # The benchmark's serve workload: anticorrelated n=1000.
        points = generate("anticorrelated", n=1000, dim=2, seed=1)
        default = quadrant_scanning(points)
        serial = quadrant_scanning(points, build_options=SERIAL)
        assert default.build_report.executor == "vectorized"
        assert serial.build_report.executor == "serial"
        assert default.store.fingerprint() == serial.store.fingerprint()

    def test_default_global_diagram_reports_vectorized(self):
        points = generate("independent", n=200, dim=2, seed=5)
        default = global_diagram(points)
        serial = global_diagram(points, build_options=SERIAL)
        assert default.build_report.executor == "vectorized"
        assert serial.build_report.executor == "serial"
        assert default.store.fingerprint() == serial.store.fingerprint()

    def test_flagless_cli_build_writes_forest_snapshot(self, tmp_path, capsys):
        import random

        from repro.cli import main
        from repro.index.serialize import _v3_meta, map_diagram, verify_envelope

        points = generate("anticorrelated", n=300, dim=2, seed=4)
        csv = tmp_path / "points.csv"
        csv.write_text("".join(f"{x!r},{y!r}\n" for x, y in points))
        default = tmp_path / "default.bin"
        serial = tmp_path / "serial.bin"
        assert main(["build", str(csv), str(default)]) == 0
        assert main(
            ["build", str(csv), str(serial), "--executor", "serial"]
        ) == 0
        capsys.readouterr()

        def table_kind(path):
            _, body, _ = verify_envelope(path.read_bytes())
            return _v3_meta(body)[0]["table"]

        assert table_kind(default) == "forest"
        assert table_kind(serial) == "packed"
        rng = random.Random(4)
        xs = sorted({p[0] for p in points})
        ys = sorted({p[1] for p in points})
        lo, hi = min(xs + ys) - 0.1, max(xs + ys) + 0.1
        queries = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(500)]
        # Grid-line queries: on a point's x, on its y, and on both.
        queries += [(rng.choice(xs), rng.uniform(lo, hi)) for _ in range(500)]
        queries += [(rng.uniform(lo, hi), rng.choice(ys)) for _ in range(500)]
        queries += [(rng.choice(xs), rng.choice(ys)) for _ in range(500)]
        mapped_default, _ = map_diagram(str(default))
        mapped_serial, _ = map_diagram(str(serial))
        expected = mapped_serial.query_batch(queries)
        assert mapped_default.query_batch(queries) == expected
        assert [mapped_default.query(q) for q in queries] == expected
        assert (
            mapped_default.store.fingerprint()
            == mapped_serial.store.fingerprint()
        )

    def test_backend_flag_keeps_the_default_executor(self, tmp_path, capsys):
        from repro.cli import main
        from repro.index.serialize import load_diagram

        csv = tmp_path / "points.csv"
        csv.write_text("2,8\n5,4\n9,1\n7,6\n")
        out = tmp_path / "rle.bin"
        assert main(["build", str(csv), str(out), "--backend", "rle"]) == 0
        stdout = capsys.readouterr().out
        assert "executor: vectorized" in stdout
        # Native run emission: no dense build converted afterwards.
        assert "  backend:" not in stdout
        assert load_diagram(str(out)).store.backend_kind == "rle"

    def test_parallel_flag_still_means_process(self):
        import argparse

        from repro.cli import _build_options

        args = argparse.Namespace(
            executor=None, parallel=2, chunk_rows=None, backend=None
        )
        options = _build_options(args)
        assert options.executor == "process"
        assert options.workers == 2
        args.parallel = None
        args.chunk_rows = 4
        assert _build_options(args).executor == "vectorized"
