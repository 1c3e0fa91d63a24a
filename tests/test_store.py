"""The array-backed ResultStore and its equivalence with the dict path.

The store is a pure representation change: every construction algorithm
must produce a diagram ``__eq__``-identical to the one built from a plain
``dict[cell, result]``.  The hypothesis properties here pin that down for
the quadrant, global and dynamic scanning engines against dict-producing
references, on tie-heavy integer data, float data, and duplicates.
"""

from __future__ import annotations

from heapq import merge as heap_merge

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagram.base import DynamicDiagram, SkylineDiagram
from repro.diagram.dynamic_baseline import dynamic_baseline
from repro.diagram.dynamic_scanning import dynamic_scanning
from repro.diagram.global_diagram import (
    global_diagram,
    quadrant_diagram_for_mask,
)
from repro.diagram.quadrant_scanning import (
    quadrant_scanning,
    quadrant_scanning_reference,
)
from repro.diagram.store import ResultStore

from tests.conftest import points_2d


def float_points_2d(min_size: int = 1, max_size: int = 12):
    coordinate = st.floats(
        min_value=0.0, max_value=8.0, allow_nan=False, width=32
    )
    return points_2d(
        min_size=min_size, max_size=max_size, coordinate=coordinate
    )


def with_duplicates(points: list) -> list:
    """Double a prefix of the list so duplicate points are guaranteed."""
    return points + points[: (len(points) + 1) // 2]


# ----------------------------------------------------------------------
# ResultStore unit behaviour
# ----------------------------------------------------------------------
class TestResultStore:
    def test_default_is_all_empty(self):
        store = ResultStore((2, 3))
        assert store.num_cells == 6
        assert store.distinct_count == 1
        assert store.result_at((1, 2)) == ()

    def test_ids_without_table_rejected(self):
        with pytest.raises(ValueError, match="result table"):
            ResultStore((2, 2), np.zeros((2, 2), dtype=np.int32))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ResultStore((2, 2), np.zeros((2, 3), dtype=np.int32), [()])

    def test_from_dict_roundtrip(self):
        results = {
            (0, 0): (0, 1),
            (0, 1): (0,),
            (1, 0): (0, 1),
            (1, 1): (),
        }
        store = ResultStore.from_dict((2, 2), results)
        assert store.to_dict() == results
        assert store.distinct_count == 3
        assert list(store.items()) == sorted(results.items())

    def test_id_at_out_of_range(self):
        store = ResultStore((2, 2))
        with pytest.raises(KeyError):
            store.id_at((2, 0))
        with pytest.raises(KeyError):
            store.id_at((0, 0, 0))

    def test_intern_reuses_ids(self):
        store = ResultStore((1, 1))
        assert store.intern(()) == 0
        rid = store.intern((3, 4))
        assert store.intern((3, 4)) == rid
        assert store.table[rid] == (3, 4)

    def test_lookup_batch_matches_result_at(self):
        results = {(i, j): (i + j,) for i in range(3) for j in range(2)}
        store = ResultStore.from_dict((3, 2), results)
        cells = np.array([[0, 0], [2, 1], [1, 0]])
        assert store.lookup_batch(cells) == [
            store.result_at(tuple(c)) for c in cells.tolist()
        ]
        assert store.lookup_batch(np.empty((0, 2), dtype=np.int64)) == []

    def test_flip_mirrors_cells(self):
        results = {(i, j): (i, j) for i in range(3) for j in range(2)}
        store = ResultStore.from_dict((3, 2), results)
        flipped = store.flip([0])
        for i in range(3):
            for j in range(2):
                assert flipped.result_at((i, j)) == store.result_at(
                    (2 - i, j)
                )
        both = store.flip([0, 1])
        assert both.result_at((0, 0)) == store.result_at((2, 1))
        assert store.flip([]) == store

    def test_equality_ignores_id_assignment_order(self):
        # Same per-cell results, ids discovered in different orders.
        a = ResultStore(
            (2, 1), np.array([[0], [1]], dtype=np.int32), [(5,), (7,)]
        )
        b = ResultStore(
            (2, 1), np.array([[1], [0]], dtype=np.int32), [(7,), (5,)]
        )
        assert a == b

    def test_inequality_on_content(self):
        a = ResultStore((2, 1), np.array([[0], [1]], dtype=np.int32), [(5,), (7,)])
        c = ResultStore((2, 1), np.array([[0], [1]], dtype=np.int32), [(5,), (8,)])
        d = ResultStore((1, 2), np.array([[0, 1]], dtype=np.int32), [(5,), (7,)])
        assert a != c
        assert a != d

    def test_repr_is_o1(self):
        store = ResultStore((4, 4))
        assert "distinct=1" in repr(store)


# ----------------------------------------------------------------------
# Diagram-level equivalence with dict-based construction
# ----------------------------------------------------------------------
def _dict_diagram(diagram: SkylineDiagram) -> SkylineDiagram:
    """Rebuild a diagram through the historical dict constructor path."""
    return SkylineDiagram(
        diagram.grid,
        dict(diagram.cells()),
        kind=diagram.kind,
        mask=diagram.mask,
        algorithm=diagram.algorithm,
    )


@settings(deadline=None, max_examples=60)
@given(points_2d(max_size=14))
def test_quadrant_store_equals_reference_int(points):
    assert quadrant_scanning(points) == quadrant_scanning_reference(points)


@settings(deadline=None, max_examples=40)
@given(float_points_2d(max_size=12))
def test_quadrant_store_equals_reference_float(points):
    assert quadrant_scanning(points) == quadrant_scanning_reference(points)


@settings(deadline=None, max_examples=40)
@given(points_2d(max_size=8))
def test_quadrant_store_equals_reference_duplicates(points):
    points = with_duplicates(points)
    assert quadrant_scanning(points) == quadrant_scanning_reference(points)


@settings(deadline=None, max_examples=40)
@given(points_2d(max_size=10))
def test_quadrant_store_survives_dict_roundtrip(points):
    diagram = quadrant_scanning(points)
    assert diagram == _dict_diagram(diagram)


@settings(deadline=None, max_examples=30)
@given(points_2d(max_size=8))
def test_global_store_equals_dict_union(points):
    """The array-path global union matches the seed per-cell dict union."""
    built = global_diagram(points)
    quadrants = [
        quadrant_diagram_for_mask(points, mask, quadrant_scanning_reference)
        for mask in range(4)
    ]
    results = {}
    for cell, first in quadrants[0].cells():
        parts = [first]
        parts.extend(d.result_at(cell) for d in quadrants[1:])
        results[cell] = tuple(heap_merge(*parts))
    reference = SkylineDiagram(
        quadrants[0].grid, results, kind="global", algorithm="scanning"
    )
    assert built == reference


@settings(deadline=None, max_examples=20)
@given(points_2d(min_size=1, max_size=6))
def test_dynamic_store_equals_dict_baseline(points):
    """Store-backed Algorithm 7 matches the dict-producing baseline."""
    assert dynamic_scanning(points) == dynamic_baseline(points)


@settings(deadline=None, max_examples=20)
@given(points_2d(min_size=1, max_size=6))
def test_dynamic_store_survives_dict_roundtrip(points):
    diagram = dynamic_scanning(points)
    rebuilt = DynamicDiagram(
        diagram.subcells, dict(diagram.cells()), algorithm=diagram.algorithm
    )
    assert diagram == rebuilt


class TestConsForestTable:
    """The lazy cons-forest table behind vectorized builds."""

    def _forest(self):
        from repro.diagram.store import ConsForestTable

        # Three corner groups; node 1 = group 0 at the root, node 2
        # merges group 1 into node 1, node 3 = group 2 standalone.
        rep = np.asarray([0, 1, 2], dtype=np.int64)
        par = np.asarray([-1, 0, -1], dtype=np.int64)
        groups = [(4,), (1, 7), (2,)]
        return ConsForestTable(rep, par, groups)

    def test_lazy_results_match_materialize(self):
        table = self._forest()
        assert len(table) == 4
        expected = [(), (4,), (1, 4, 7), (2,)]
        assert table.materialize() == expected
        assert [table.result(rid) for rid in range(4)] == expected
        assert [table[rid] for rid in range(4)] == expected

    def test_chain_cache_is_order_independent(self):
        # Deep chains resolve through the nearest cached ancestor; the
        # answer must not depend on which id is asked first.
        eager = self._forest().materialize()
        deep_first = self._forest()
        assert deep_first.result(2) == eager[2]
        assert deep_first.result(1) == eager[1]
        shallow_first = self._forest()
        assert shallow_first.result(1) == eager[1]
        assert shallow_first.result(2) == eager[2]

    def test_store_upgrades_lazy_table_on_access(self):
        from repro.diagram.pipeline import BuildOptions
        from repro.diagram.store import ConsForestTable

        points = [(2.0, 8.0), (5.0, 4.0), (9.0, 1.0), (5.0, 4.0)]
        store = quadrant_scanning(
            points, build_options=BuildOptions(executor="vectorized")
        ).store
        assert isinstance(store._table, ConsForestTable)
        distinct = store.distinct_count  # O(1) on the lazy forest
        lazy = [store.result_tuple(rid) for rid in range(distinct)]
        assert store.table == lazy  # property access materializes
        assert isinstance(store._table, list)
        serial = BuildOptions(executor="serial")
        assert store == quadrant_scanning(points, build_options=serial).store


class TestLazyBatchRead:
    """``results(ids)`` reads the per-id cache; only misses are built."""

    POINTS = [
        (2.0, 8.0), (5.0, 4.0), (9.0, 1.0), (5.0, 4.0), (1.0, 9.5),
        (3.0, 6.0), (7.0, 2.5), (4.0, 5.0), (8.0, 3.0), (6.0, 3.5),
    ]

    def _tables(self):
        from repro.diagram.pipeline import BuildOptions
        from repro.diagram.store import ConsForestTable, PackedTable

        store = quadrant_scanning(
            self.POINTS, build_options=BuildOptions(executor="vectorized")
        ).store
        forest = store._table
        assert type(forest) is ConsForestTable
        entries = forest.materialize()
        lengths = [len(entry) for entry in entries]
        offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        values = np.asarray(
            [pid for entry in entries for pid in entry], dtype=np.int64
        )
        return entries, {
            "forest": lambda: ConsForestTable(
                forest._rep, forest._par, forest._groups
            ),
            "packed": lambda: PackedTable(offsets, values),
        }

    @pytest.mark.parametrize("kind", ["forest", "packed"])
    def test_cold_warm_and_mixed_batches(self, kind):
        entries, makers = self._tables()
        make = makers[kind]
        rng = np.random.default_rng(3)
        ids = rng.integers(0, len(entries), size=200).tolist()
        ids += [0, len(entries) - 1, 0]
        expected = [entries[rid] for rid in ids]
        per_id = make()
        assert [per_id.result(rid) for rid in ids] == expected
        cold = make()
        assert cold.results(ids) == expected  # nothing cached yet
        assert cold.results(ids) == expected  # every id cached now
        mixed = make()
        for rid in ids[::3]:
            mixed.result(rid)  # cache a third of the ids
        assert mixed.results(ids) == expected
        assert mixed.results([]) == []

    def test_lookup_batch_keeps_the_table_lazy(self):
        from repro.diagram.pipeline import BuildOptions
        from repro.diagram.store import ConsForestTable

        diagram = quadrant_scanning(
            self.POINTS, build_options=BuildOptions(executor="vectorized")
        )
        serial = quadrant_scanning(
            self.POINTS, build_options=BuildOptions(executor="serial")
        )
        queries = [(x + 0.5, y + 0.5) for x in range(10) for y in range(10)]
        assert diagram.query_batch(queries) == serial.query_batch(queries)
        assert type(diagram.store._table) is ConsForestTable


class TestLazyFingerprint:
    """fingerprint/audit must not force a lazy table (ISSUE PR 7)."""

    def _lazy_store(self):
        from repro.diagram.pipeline import BuildOptions

        points = [(2.0, 8.0), (5.0, 4.0), (9.0, 1.0), (5.0, 4.0)]
        return quadrant_scanning(
            points, build_options=BuildOptions(executor="vectorized")
        ).store

    def test_fingerprint_leaves_table_lazy(self):
        from repro.diagram.store import ConsForestTable

        store = self._lazy_store()
        digest = store.fingerprint()
        assert type(store._table) is ConsForestTable
        _ = store.table  # force materialization
        assert isinstance(store._table, list)
        assert store.fingerprint() == digest

    def test_audit_leaves_table_lazy(self):
        from repro.diagram.pipeline import BuildOptions
        from repro.diagram.store import ConsForestTable

        points = [(2.0, 8.0), (5.0, 4.0), (9.0, 1.0), (5.0, 4.0)]
        diagram = quadrant_scanning(
            points, build_options=BuildOptions(executor="vectorized")
        )
        diagram.audit()
        assert type(diagram.store._table) is ConsForestTable

    def test_table_view_does_not_upgrade(self):
        from repro.diagram.store import ConsForestTable

        store = self._lazy_store()
        view = store.table_view()
        assert type(store._table) is ConsForestTable
        assert list(view) == store.table  # upgrade happens only here
