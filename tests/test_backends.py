"""Grid backends: conformance, conversion, maintenance, serving, mmap life.

The ``GridBackend`` protocol behind ``ResultStore`` (dense / rle) in one
place: backend choice threaded through builds, maintenance,
serialization, engine memory accounting, batched update union re-scans,
the CLI flags, and the serve-side conversion — plus the mmap-lifetime
regressions for stores loaded via ``map_diagram``.
"""

import json
import os
import random

import numpy as np
import pytest

from repro.diagram.maintenance import apply_ops, delete_point, insert_point
from repro.diagram.pipeline import BuildOptions
from repro.diagram.quadrant_scanning import quadrant_scanning
from repro.diagram.store import (
    BACKENDS,
    DenseBackend,
    RLEBackend,
    ResultStore,
)
from repro.errors import SerializationError
from repro.index.engine import SkylineDatabase
from repro.index.serialize import (
    diagram_to_binary_bytes,
    envelope_bytes,
    load_diagram,
    map_diagram,
    save_diagram,
)


def _points(n=24, seed=3, domain=40):
    rng = random.Random(seed)
    return [
        (float(rng.randint(0, domain)), float(rng.randint(0, domain)))
        for _ in range(n)
    ]


POINTS = _points()


@pytest.fixture(params=["dense", "rle"])
def exact_backend(request):
    return request.param


class TestBackendConformance:
    """Every backend answers the same grid through the same interface."""

    def test_rle_is_fingerprint_identical_to_dense(self):
        dense = quadrant_scanning(POINTS)
        rle = quadrant_scanning(
            POINTS, build_options=BuildOptions(backend="rle")
        )
        assert rle.store.backend_kind == "rle"
        assert rle.store.fingerprint() == dense.store.fingerprint()
        assert rle == dense

    def test_vectorized_native_rle_matches_serial(self):
        serial = quadrant_scanning(
            POINTS, build_options=BuildOptions(executor="serial", backend="rle")
        )
        vector = quadrant_scanning(
            POINTS,
            build_options=BuildOptions(
                backend="rle", executor="vectorized", chunk_rows=2
            ),
        )
        assert vector.store.backend_kind == "rle"
        assert vector.store.fingerprint() == serial.store.fingerprint()

    def test_row_views_match_dense(self, exact_backend):
        dense = quadrant_scanning(POINTS)
        other = quadrant_scanning(
            POINTS, build_options=BuildOptions(backend=exact_backend)
        )
        sx, _ = dense.store.shape
        for r in range(sx):
            np.testing.assert_array_equal(
                other.store.row_view(r), dense.store.row_view(r)
            )

    def test_queries_match_across_backends(self):
        dense = quadrant_scanning(POINTS)
        queries = [(5.0, 5.0), (0.0, 40.0), (33.0, 17.0), (40.0, 40.0)]
        for kind in ("rle",):
            other = quadrant_scanning(
                POINTS, build_options=BuildOptions(backend=kind)
            )
            for q in queries:
                assert other.query(q) == dense.query(q)

    def test_flip_matches_dense_flip(self, exact_backend):
        dense = quadrant_scanning(POINTS)
        other = quadrant_scanning(
            POINTS, build_options=BuildOptions(backend=exact_backend)
        )
        flipped_dense = dense.store.flip((0, 1))
        flipped_other = other.store.flip((0, 1))
        assert (
            flipped_other.backend.to_dense()
            == flipped_dense.backend.to_dense()
        ).all()

    def test_rle_compresses_the_dynamic_grid(self):
        # The dynamic diagram's subcell grid is ~n^2 per axis while its
        # region count grows far slower, so rows are long constant runs
        # there — the case the RLE backend exists for.  (The quadrant
        # diagram in rank space averages ~2 cells per region, so RLE is
        # roughly break-even on it; see docs/PERFORMANCE.md.)
        from repro.diagram.dynamic_scanning import dynamic_scanning

        rng = random.Random(0)
        pts = [
            (rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(18)
        ]
        dense = dynamic_scanning(pts).store
        rle = dense.convert("rle")
        assert rle.backend.nbytes() < dense.backend.nbytes() / 4
        assert rle.fingerprint() == dense.fingerprint()

    def test_build_report_names_backend_and_bytes(self):
        diagram = quadrant_scanning(
            POINTS, build_options=BuildOptions(backend="rle")
        )
        report = diagram.build_report
        assert report.backend == "rle"
        assert report.store_nbytes == diagram.store.nbytes > 0


class TestConversion:
    def test_round_trip_preserves_fingerprint(self):
        dense = quadrant_scanning(POINTS).store
        rle = dense.convert("rle")
        back = rle.convert("dense")
        assert rle.fingerprint() == dense.fingerprint()
        assert back.fingerprint() == dense.fingerprint()

    def test_convert_to_same_kind_is_identity(self):
        store = quadrant_scanning(POINTS).store
        assert store.convert("dense") is store

    def test_convert_shares_the_table(self):
        store = quadrant_scanning(POINTS).store
        rle = store.convert("rle")
        assert rle._table is store._table

    def test_unknown_backend_rejected(self):
        store = quadrant_scanning(POINTS).store
        with pytest.raises(ValueError, match="unknown grid backend"):
            store.convert("sparse")
        with pytest.raises(ValueError, match="backend must be one of"):
            BuildOptions(backend="sparse")
        assert set(BACKENDS) == {"dense", "rle"}

class TestSerializeV4:
    def test_dense_payload_stays_v3(self):
        _, version = diagram_to_binary_bytes(quadrant_scanning(POINTS))
        assert version == 3

    def test_rle_payload_is_v4(self):
        diagram = quadrant_scanning(
            POINTS, build_options=BuildOptions(backend="rle")
        )
        _, version = diagram_to_binary_bytes(diagram)
        assert version == 4

    @pytest.mark.parametrize("backend", ["rle"])
    def test_save_load_round_trip(self, tmp_path, backend):
        diagram = quadrant_scanning(
            POINTS, build_options=BuildOptions(backend=backend)
        )
        path = tmp_path / "d.bin"
        save_diagram(diagram, str(path))
        loaded = load_diagram(str(path))
        assert loaded.store.backend_kind == backend
        assert loaded.store.fingerprint() == diagram.store.fingerprint()

    def test_old_quad_snapshot_fails_visibly(self, tmp_path):
        # Snapshots written before the quad backend was removed name it
        # in their v4 meta line.  Re-seal an rle payload under that name:
        # both loaders must reject it by backend name, and a serving
        # manager must keep its previous generation.
        from repro.serve.snapshot import SnapshotManager

        diagram = quadrant_scanning(
            POINTS, build_options=BuildOptions(backend="rle")
        )
        payload, version = diagram_to_binary_bytes(diagram)
        newline = payload.index(b"\n")
        meta = json.loads(payload[:newline])
        meta["backend"] = "quad"
        line = json.dumps(meta, separators=(",", ":")).encode() + b"\n"
        old_base = -(-(newline + 1) // 64) * 64
        new_base = -(-len(line) // 64) * 64
        body = line + b"\0" * (new_base - len(line)) + payload[old_base:]
        old = tmp_path / "old.bin"
        old.write_bytes(envelope_bytes(body, binary_version=version))
        for loader in (load_diagram, map_diagram):
            with pytest.raises(
                SerializationError, match="unknown grid backend 'quad'"
            ):
                loader(str(old))

        path = tmp_path / "snap.bin"
        save_diagram(diagram, str(path))
        manager = SnapshotManager(str(path))
        first = manager.load()
        os.replace(old, path)
        assert manager.refresh() is first
        assert manager.current is first
        assert manager.rejected == 1
        assert "unknown grid backend 'quad'" in manager.last_error

    def test_mapped_rle_store_is_zero_copy(self, tmp_path):
        diagram = quadrant_scanning(
            POINTS, build_options=BuildOptions(backend="rle")
        )
        path = tmp_path / "d.bin"
        save_diagram(diagram, str(path))
        mapped, _sha = map_diagram(str(path))
        store = mapped.store
        assert store.backend_kind == "rle"
        assert store._mmap is not None
        # The run arrays are views into the mapping, not copies.
        assert not store.backend.run_vals.flags.owndata
        assert store.fingerprint() == diagram.store.fingerprint()


class TestMmapLifetime:
    """Regressions: operating on a mapped store must not kill the mapping."""

    @pytest.fixture
    def mapped(self, tmp_path):
        diagram = quadrant_scanning(
            POINTS, build_options=BuildOptions(backend="rle")
        )
        save_diagram(diagram, str(tmp_path / "d.bin"))
        mapped, _sha = map_diagram(str(tmp_path / "d.bin"))
        return mapped

    def test_flip_leaves_the_mapping_alive(self, mapped):
        fingerprint = mapped.store.fingerprint()
        flipped = mapped.store.flip((0,))
        assert flipped.flip((0,)).fingerprint() == fingerprint
        assert mapped.store._mmap is not None
        assert mapped.store.fingerprint() == fingerprint

    def test_audit_leaves_the_mapping_alive(self, mapped):
        assert mapped.store.audit() == mapped.store.fingerprint()
        assert mapped.store._mmap is not None

    def test_convert_leaves_the_source_mapping_alive(self, mapped):
        fingerprint = mapped.store.fingerprint()
        dense = mapped.store.convert("dense")
        assert dense.fingerprint() == fingerprint
        # The source still serves from the mapping afterwards.
        assert mapped.store._mmap is not None
        assert mapped.store.row_view(0).size == mapped.store.shape[1]

    def test_maintenance_on_mapped_store(self, mapped):
        updated = insert_point(mapped, (3.0, 3.0))
        assert updated.store.backend_kind == "rle"
        pts = list(mapped.grid.dataset) + [(3.0, 3.0)]
        fresh = quadrant_scanning(
            pts, build_options=BuildOptions(backend="rle")
        )
        assert updated.store.fingerprint() == fresh.store.fingerprint()


class TestMaintenanceBackends:
    def test_rle_diagram_is_maintained_natively(self):
        diagram = quadrant_scanning(
            POINTS, build_options=BuildOptions(backend="rle")
        )
        pts = list(POINTS)
        diagram = insert_point(diagram, (7.0, 11.0))
        pts.append((7.0, 11.0))
        assert diagram.store.backend_kind == "rle"
        # Inserts never drop a grid column, so they take the direct
        # run-splicing path, not densify-and-recompress.
        assert diagram.build_report.backend_fallback is None
        fresh = quadrant_scanning(
            pts, build_options=BuildOptions(backend="rle")
        )
        assert diagram.store.fingerprint() == fresh.store.fingerprint()

    def test_rle_delete_dropping_a_column_records_densify(self):
        # Deleting the only point on its x-coordinate shrinks the grid,
        # which the run splicer cannot express — the report must record
        # the honest densify fallback, and the result still matches a
        # fresh build byte-for-byte.
        pts = [(1.0, 5.0), (3.0, 2.0), (6.0, 8.0), (9.0, 1.0)]
        diagram = quadrant_scanning(
            pts, build_options=BuildOptions(backend="rle")
        )
        updated = delete_point(diagram, 2)
        assert updated.store.backend_kind == "rle"
        assert updated.build_report.backend_fallback == "densify"
        fresh = quadrant_scanning(
            [p for i, p in enumerate(pts) if i != 2],
            build_options=BuildOptions(backend="rle"),
        )
        assert updated.store.fingerprint() == fresh.store.fingerprint()

    def test_apply_ops_matches_sequential_application(self):
        for backend in ("dense", "rle"):
            options = BuildOptions(backend=backend)
            diagram = quadrant_scanning(POINTS, build_options=options)
            ops = [
                ("insert", (4.0, 9.0)),
                ("delete", 5),
                ("insert", (9.0, 4.0)),
            ]
            batched = apply_ops(diagram, ops, build_options=options)
            serial = diagram
            serial = insert_point(serial, (4.0, 9.0), build_options=options)
            serial = delete_point(serial, 5, build_options=options)
            serial = insert_point(serial, (9.0, 4.0), build_options=options)
            assert (
                batched.store.fingerprint() == serial.store.fingerprint()
            ), backend
            assert batched.store.backend_kind == backend

    def test_apply_ops_cancels_insert_delete_pairs(self):
        diagram = quadrant_scanning(POINTS)
        n = len(POINTS)
        unchanged = apply_ops(
            diagram, [("insert", (1.0, 1.0)), ("delete", n)]
        )
        assert unchanged is diagram


class TestEngineAccounting:
    def test_health_reports_per_diagram_memory(self):
        db = SkylineDatabase(
            POINTS, build_options=BuildOptions(backend="rle")
        )
        db.query((5.0, 5.0))
        memory = db.health()["memory"]
        assert memory
        for entry in memory.values():
            assert entry["backend"] == "rle"
            assert entry["store_nbytes"] > 0

    def test_multi_op_flush_is_one_union_scan(self):
        db = SkylineDatabase(POINTS)
        # Attach the 2-D quadrant diagram so the batch maintains it.
        db.query((5.0, 5.0), kind="quadrant")
        db.apply_update("insert", (2.0, 13.0), flush=False)
        db.apply_update("insert", (13.0, 2.0), flush=False)
        db.apply_update("delete", 4, flush=False)
        db.flush_updates()
        stats = db.health()["updates"]
        assert stats["union_scans"] == 1
        assert stats["union_ops"] == 3
        # A single-op flush takes the splice fast path, not the union.
        db.apply_update("insert", (3.0, 3.0), flush=True)
        stats = db.health()["updates"]
        assert stats["union_scans"] == 1

    def test_exact_answers_carry_no_error(self):
        db = SkylineDatabase(
            POINTS, build_options=BuildOptions(backend="rle")
        )
        answer = db.query_annotated((10.0, 10.0))
        assert answer.served_from == "diagram"


class TestServeBackend:
    def test_snapshot_manager_converts_on_load(self, tmp_path):
        from repro.serve.snapshot import SnapshotManager

        diagram = quadrant_scanning(POINTS)
        path = tmp_path / "snap.bin"
        save_diagram(diagram, str(path))
        manager = SnapshotManager(str(path), backend="rle")
        snapshot = manager.load()
        store = snapshot.diagram.store
        assert store.backend_kind == "rle"
        # The table still rides the mapping; the keepalive came along.
        assert store._mmap is not None
        assert snapshot.diagram.query((5.0, 5.0)) == diagram.query((5.0, 5.0))

    def test_snapshot_manager_default_serves_as_stored(self, tmp_path):
        from repro.serve.snapshot import SnapshotManager

        diagram = quadrant_scanning(
            POINTS, build_options=BuildOptions(backend="rle")
        )
        path = tmp_path / "snap.bin"
        save_diagram(diagram, str(path))
        snapshot = SnapshotManager(str(path)).load()
        assert snapshot.diagram.store.backend_kind == "rle"


class TestCLIBackend:
    def test_build_with_backend_flag(self, tmp_path, capsys):
        from repro.cli import main

        csv = tmp_path / "pts.csv"
        csv.write_text("2,8\n5,4\n9,1\n7,6\n")
        out = tmp_path / "d.bin"
        assert (
            main(
                [
                    "build", str(csv), str(out),
                    "--format", "binary", "--backend", "rle",
                ]
            )
            == 0
        )
        assert load_diagram(str(out)).store.backend_kind == "rle"

    def test_stats_reports_backend_and_bytes(self, tmp_path, capsys):
        from repro.cli import main

        csv = tmp_path / "pts.csv"
        csv.write_text("2,8\n5,4\n9,1\n7,6\n")
        out = tmp_path / "d.bin"
        main(["build", str(csv), str(out), "--format", "binary",
              "--backend", "rle"])
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        output = capsys.readouterr().out
        assert "backend: rle" in output
        assert "store_nbytes:" in output

    def test_update_batches_multiple_ops(self, tmp_path, capsys):
        from repro.cli import main

        csv = tmp_path / "pts.csv"
        csv.write_text("2,8\n5,4\n9,1\n7,6\n")
        out = tmp_path / "d.bin"
        main(["build", str(csv), str(out), "--format", "binary"])
        capsys.readouterr()
        assert (
            main(
                [
                    "update", str(out),
                    "--op", "insert:3,3", "--op", "insert:6,2", "--verify",
                ]
            )
            == 0
        )
        assert "batched 2 ops" in capsys.readouterr().out


class TestBackendPrimitives:
    def test_rle_from_dense_round_trips(self):
        rng = np.random.default_rng(0)
        ids = np.repeat(
            rng.integers(0, 5, size=(6, 7)), 3, axis=1
        ).astype(np.int32)
        rle = RLEBackend.from_dense(ids)
        assert (rle.to_dense() == ids).all()
        dense = DenseBackend(ids)
        assert rle.nbytes() < dense.nbytes()

    def test_store_requires_known_backend(self):
        ids = np.zeros((2, 2), dtype=np.int32)
        store = ResultStore((2, 2), DenseBackend(ids), [()])
        assert store.backend_kind == "dense"
        assert store.nbytes > 0
