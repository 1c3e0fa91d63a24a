"""Validation of skyline diagrams: structural checks and differential fuzzing.

Serialized diagrams cross trust boundaries (the outsourcing and PIR
applications ship them to other parties), so a loader needs more than
schema checks: :func:`validate_diagram` verifies the *semantic* invariants
a genuine diagram must satisfy, from cheap structural laws to a full
per-cell recomputation.

Levels
------
``structure``   O(#cells): results sorted/deduplicated and in id range,
                members are candidates of their cell, borders empty,
                origin cell equals the dataset skyline.
``sampled``     structure + from-scratch recomputation of a deterministic
                sample of cells.
``full``        structure + every cell recomputed (the ground truth).

Differential harness
--------------------
:func:`differential_verify` is the correctness backstop for the whole
lookup stack: a seeded fuzzer that generates adversarial workloads
(duplicate coordinates, queries exactly on grid vertices, edges and
dynamic bisectors, tied mapped distances) and cross-checks

* every diagram construction pair — quadrant baseline/dsg/scanning (and
  the dict-backed scanning reference), dynamic baseline/subset/scanning,
  global over two quadrant algorithms — for whole-diagram equality,
* incremental maintenance (``maintenance:*``): chains of
  :func:`~repro.diagram.maintenance.insert_point` /
  :func:`~repro.diagram.maintenance.delete_point` against a fresh build
  over the final point set — store *fingerprints* must be byte-identical
  (same id numbering, same table order), under fuzzed op sequences that
  deliberately include exact duplicates and boundary-coincident points
  (new points sharing a grid line with survivors),
* grid backends (``backend:*``): RLE-built stores (serial, vectorized
  native-run emission, maintained through fuzzed update sequences, and
  through a v4 serialize round trip) must be fingerprint-identical to
  dense builds,
* every lookup path against direct from-scratch evaluation, for all
  query kinds, all ``2^d`` quadrant masks, skybands, and the sweeping
  diagram's polyomino walk,
* batch point location against the per-query path,
* the degradation ladder under an impossible build budget against direct
  evaluation (degraded answers must stay exact),
* the unified query runtime (``runtime:*``): planner-routed single and
  batch answers against from-scratch evaluation for every kind/mask/k,
  the degraded (no-diagram) tier, report/tier consistency of every
  ``QueryAnswer``, and serial- vs chunked-built diagrams queried through
  the planner,
* the composable query specs (``spec:*``): ``constrained`` and
  ``diversified`` kinds — per-mask boxes whose faces sit exactly on
  data coordinates (degenerate ``lo == hi`` included), constrained
  skybands, diversified selection, the box+k+diversify combination,
  batch vs per-query, and the degraded tier under an impossible
  budget — all against from-scratch evaluation.

``differential_verify(families=("spec",))`` (CLI: ``--families spec``)
restricts a run to name-prefix-matched check families.

On a mismatch the failing dataset is shrunk to a minimal reproducer and
reported as a :class:`Mismatch` whose :meth:`Mismatch.reproducer` is a
paste-ready script.  The ``repro verify`` CLI command (and the smoke test
in the suite) run this on every change.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.diagram.base import DynamicDiagram, SkylineDiagram
from repro.errors import SerializationError
from repro.skyline.algorithms import skyline_brute
from repro.skyline.queries import dynamic_skyline, quadrant_skyline

LEVELS = ("structure", "sampled", "full")


def validate_diagram(
    diagram: SkylineDiagram | DynamicDiagram,
    level: str = "structure",
    sample_stride: int = 7,
) -> None:
    """Raise :class:`SerializationError` if the diagram is inconsistent.

    Only first-quadrant (``mask=0``) cell diagrams and dynamic diagrams
    are fully checkable; reflected/global diagrams get the id-range and
    canonical-form checks only.

    >>> from repro.diagram import quadrant_scanning
    >>> validate_diagram(quadrant_scanning([(1, 2), (3, 1)]), level="full")
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    n = len(diagram.grid.dataset)
    for cell, result in diagram.cells():
        if list(result) != sorted(set(result)):
            raise SerializationError(
                f"cell {cell}: result {result} is not a sorted id set"
            )
        if result and (result[0] < 0 or result[-1] >= n):
            raise SerializationError(
                f"cell {cell}: result {result} references unknown points"
            )
    if isinstance(diagram, DynamicDiagram):
        _validate_dynamic(diagram, level, sample_stride)
    elif diagram.kind == "quadrant" and diagram.mask == 0:
        _validate_quadrant(diagram, level, sample_stride)


def _validate_quadrant(
    diagram: SkylineDiagram, level: str, sample_stride: int
) -> None:
    grid = diagram.grid
    ranks = grid.ranks
    dim = grid.dim
    for cell, result in diagram.cells():
        for pid in result:
            if any(ranks[pid][d] <= cell[d] for d in range(dim)):
                raise SerializationError(
                    f"cell {cell}: point {pid} is not a candidate there"
                )
    origin = tuple(0 for _ in range(dim))
    if diagram.result_at(origin) != skyline_brute(grid.dataset):
        raise SerializationError("origin cell does not hold the skyline")
    top = tuple(extent - 1 for extent in grid.shape)
    if diagram.result_at(top) != ():
        raise SerializationError("outermost cell is not empty")
    if level == "structure":
        return
    for index, cell in enumerate(grid.cells()):
        if level == "sampled" and index % sample_stride:
            continue
        expected = quadrant_skyline(grid.dataset, grid.representative(cell))
        if diagram.result_at(cell) != expected:
            raise SerializationError(
                f"cell {cell}: stored {diagram.result_at(cell)}, "
                f"recomputed {expected}"
            )


def _validate_dynamic(
    diagram: DynamicDiagram, level: str, sample_stride: int
) -> None:
    subcells = diagram.subcells
    for subcell, result in diagram.cells():
        if not result:
            raise SerializationError(
                f"subcell {subcell}: dynamic skylines are never empty"
            )
    if level == "structure":
        return
    for index, subcell in enumerate(subcells.subcells()):
        if level == "sampled" and index % sample_stride:
            continue
        expected = dynamic_skyline(
            subcells.dataset, subcells.representative(subcell)
        )
        if diagram.result_at(subcell) != expected:
            raise SerializationError(
                f"subcell {subcell}: stored {diagram.result_at(subcell)}, "
                f"recomputed {expected}"
            )


# ----------------------------------------------------------------------
# Differential verification harness
# ----------------------------------------------------------------------

Points = list[tuple[float, ...]]
# A check evaluates one comparison on a dataset and returns
# (expected, actual); the pair differing is a correctness bug somewhere.
Check = Callable[[Points], tuple[object, object]]


@dataclass
class Mismatch:
    """One failed differential check, minimized to a small reproducer."""

    check: str
    points: Points
    query: tuple[float, ...] | None
    expected: object
    actual: object
    seed: int
    template: str

    def reproducer(self) -> str:
        """A paste-ready script that reproduces the failure."""
        lines = [
            f"# differential_verify(seed={self.seed}) found: {self.check}",
            f"# expected {self.expected!r}, got {self.actual!r}",
            f"points = {self.points!r}",
        ]
        if self.query is not None:
            lines.append(f"query = {self.query!r}")
        lines.append(self.template)
        return "\n".join(lines)


@dataclass
class VerifyReport:
    """Outcome of one :func:`differential_verify` run."""

    seed: int
    budget: int
    cases: int = 0
    rounds: int = 0
    by_check: dict[str, int] = field(default_factory=dict)
    mismatch: Mismatch | None = None

    @property
    def ok(self) -> bool:
        return self.mismatch is None

    def summary(self) -> str:
        groups = ", ".join(
            f"{name}={count}" for name, count in sorted(self.by_check.items())
        )
        status = "OK" if self.ok else "MISMATCH"
        return (
            f"differential verify [{status}]: {self.cases} cases over "
            f"{self.rounds} datasets (seed={self.seed}): {groups}"
        )


def _generate_points(rng: random.Random, max_points: int) -> Points:
    """An adversarial small dataset: ties and duplicates on purpose."""
    n = rng.randint(1, max_points)
    style = rng.randrange(4)
    if style == 0:  # tiny integer domain: tied coordinates everywhere
        pool = range(0, 4)
        pts = [(float(rng.choice(pool)), float(rng.choice(pool))) for _ in range(n)]
    elif style == 1:  # wider integers, still collision-prone
        pts = [(float(rng.randint(0, 9)), float(rng.randint(0, 9))) for _ in range(n)]
    elif style == 2:  # floats drawn from a small pool: exact ties, exact bisectors
        pool = [0.0, 0.5, 1.25, 2.0, 3.5, 4.0]
        pts = [(rng.choice(pool), rng.choice(pool)) for _ in range(n)]
    else:  # duplicated points
        base = [
            (float(rng.randint(0, 5)), float(rng.randint(0, 5)))
            for _ in range(max(1, n // 2))
        ]
        pts = [rng.choice(base) for _ in range(n)]
    if rng.random() < 0.3:  # a duplicate of an existing point
        pts.append(rng.choice(pts))
    return pts


def _generate_queries(
    rng: random.Random, points: Points, limit: int = 10
) -> list[tuple[float, float]]:
    """Adversarial queries: grid vertices, edges, bisectors, data points."""
    from repro.geometry.subcell import SubcellGrid

    axes = SubcellGrid(points).axes  # point lines *and* pair bisectors
    xs, ys = axes
    queries: list[tuple[float, float]] = []
    queries.append((rng.choice(xs), rng.choice(ys)))  # on a grid vertex
    queries.append((rng.choice(xs), rng.uniform(-1.0, max(ys) + 1.0)))  # on edge
    queries.append((rng.uniform(-1.0, max(xs) + 1.0), rng.choice(ys)))
    queries.append(rng.choice(points))  # exactly on a data point
    queries.append((rng.uniform(-2.0, 11.0), rng.uniform(-2.0, 11.0)))
    queries.append((-0.0, rng.choice(ys)))  # signed zero on a line when 0 ∈ xs
    while len(queries) < limit:
        queries.append(
            (rng.choice(xs + (rng.uniform(-1, 10),)),
             rng.choice(ys + (rng.uniform(-1, 10),)))
        )
    rng.shuffle(queries)
    return [(float(x), float(y)) for x, y in queries[:limit]]


def _pair_checks() -> list[tuple[str, Check, str]]:
    """Whole-diagram equality between independent construction algorithms."""
    from repro.diagram.dynamic_baseline import dynamic_baseline
    from repro.diagram.dynamic_scanning import dynamic_scanning
    from repro.diagram.dynamic_subset import dynamic_subset
    from repro.diagram.global_diagram import global_diagram
    from repro.diagram.quadrant_baseline import quadrant_baseline
    from repro.diagram.quadrant_dsg import quadrant_dsg
    from repro.diagram.quadrant_scanning import (
        quadrant_scanning,
        quadrant_scanning_reference,
    )

    def pair(build_a, build_b) -> Check:
        def check(points: Points) -> tuple[object, object]:
            a, b = build_a(points), build_b(points)
            if a == b:
                return (True, True)
            return (a.store.to_dict(), b.store.to_dict())

        return check

    def global_pair(points: Points) -> tuple[object, object]:
        a = global_diagram(points, quadrant_scanning)
        b = global_diagram(points, quadrant_baseline)
        if a == b:
            return (True, True)
        return (a.store.to_dict(), b.store.to_dict())

    def chunked(build) -> Check:
        from repro.diagram.pipeline import BuildOptions

        serial = BuildOptions(executor="serial")
        options = BuildOptions(executor="serial", chunk_rows=2)

        def check(points: Points) -> tuple[object, object]:
            a = build(points, build_options=serial)
            b = build(points, build_options=options)
            if a == b:
                return (True, True)
            return (a.store.to_dict(), b.store.to_dict())

        return check

    def vectorized(build) -> Check:
        from repro.diagram.pipeline import BuildOptions

        serial = BuildOptions(executor="serial")
        # chunk_rows=2 forces multi-block state carry across checkpoints.
        options = BuildOptions(executor="vectorized", chunk_rows=2)

        def check(points: Points) -> tuple[object, object]:
            a = build(points, build_options=serial)
            b = build(points, build_options=options)
            # The vectorized engine promises byte identity, not just
            # semantic equality: same id numbering, same table order.
            if a.store.fingerprint() == b.store.fingerprint():
                return (True, True)
            return (a.store.to_dict(), b.store.to_dict())

        return check

    chunk_template = (
        "from repro.diagram import BuildOptions, {a}\n"
        "assert {a}(points, build_options=BuildOptions(executor='serial')) "
        "== {a}(points, build_options=BuildOptions(executor='serial', "
        "chunk_rows=2))"
    )
    vector_template = (
        "from repro.diagram import BuildOptions, {a}\n"
        "assert {a}(points, build_options=BuildOptions(executor='serial'))"
        ".store.fingerprint() == {a}(points, "
        "build_options=BuildOptions(executor='vectorized', "
        "chunk_rows=2)).store.fingerprint()"
    )

    template = (
        "from repro.diagram import {a}, {b}\n"
        "assert {a}(points) == {b}(points)"
    )
    return [
        (
            "pair:quadrant:scanning==baseline",
            pair(quadrant_scanning, quadrant_baseline),
            template.format(a="quadrant_scanning", b="quadrant_baseline"),
        ),
        (
            "pair:quadrant:scanning==dsg",
            pair(quadrant_scanning, quadrant_dsg),
            template.format(a="quadrant_scanning", b="quadrant_dsg"),
        ),
        (
            "pair:quadrant:scanning==reference",
            pair(quadrant_scanning, quadrant_scanning_reference),
            "from repro.diagram.quadrant_scanning import ("
            "quadrant_scanning, quadrant_scanning_reference)\n"
            "assert quadrant_scanning(points) == "
            "quadrant_scanning_reference(points)",
        ),
        (
            "pair:dynamic:scanning==baseline",
            pair(dynamic_scanning, dynamic_baseline),
            template.format(a="dynamic_scanning", b="dynamic_baseline"),
        ),
        (
            "pair:dynamic:scanning==subset",
            pair(dynamic_scanning, dynamic_subset),
            template.format(a="dynamic_scanning", b="dynamic_subset"),
        ),
        (
            "pair:global:scanning==baseline",
            global_pair,
            "from repro.diagram import global_diagram, quadrant_baseline, "
            "quadrant_scanning\n"
            "assert global_diagram(points, quadrant_scanning) == "
            "global_diagram(points, quadrant_baseline)",
        ),
        (
            "pair:quadrant:serial==chunked",
            chunked(quadrant_scanning),
            chunk_template.format(a="quadrant_scanning"),
        ),
        (
            "pair:dynamic:serial==chunked",
            chunked(dynamic_scanning),
            chunk_template.format(a="dynamic_scanning"),
        ),
        (
            "pair:quadrant:serial==vectorized",
            vectorized(quadrant_scanning),
            vector_template.format(a="quadrant_scanning"),
        ),
    ]


def _maintenance_sequence(
    seed: int, points: Points, style: str = "mixed", steps: int = 4
) -> list[tuple[str, object]]:
    """A deterministic fuzzed update sequence for ``points``.

    Returns ``("insert", point)`` / ``("delete", id)`` ops.  Inserts are
    adversarial on purpose: exact duplicates of surviving points and
    boundary-coincident points (one coordinate copied from a survivor,
    so the new point lands exactly on an existing grid line).  Delete
    ids are valid at the moment the op applies, and the sequence never
    empties the dataset.
    """
    rng = random.Random(seed)
    pts = [tuple(float(c) for c in p) for p in points]
    ops: list[tuple[str, object]] = []
    for _ in range(steps):
        deletable = len(pts) > 1
        wants_delete = style == "delete" or (
            style == "mixed" and rng.random() < 0.4
        )
        if wants_delete:
            if not deletable:
                break
            victim = rng.randrange(len(pts))
            ops.append(("delete", victim))
            del pts[victim]
            continue
        roll = rng.random()
        if roll < 0.35:  # exact duplicate of a survivor
            new = rng.choice(pts)
        elif roll < 0.6:  # boundary-coincident: share one grid line
            base = rng.choice(pts)
            if rng.random() < 0.5:
                new = (base[0], float(rng.randint(0, 6)))
            else:
                new = (float(rng.randint(0, 6)), base[1])
        else:
            new = (float(rng.randint(0, 6)), float(rng.randint(0, 6)))
        ops.append(("insert", new))
        pts.append(new)
    return ops


def _maintenance_checks(seq_seed: int) -> list[tuple[str, Check, str]]:
    """Incremental maintenance vs fresh builds: byte-identical stores.

    Each check replays a fuzzed insert/delete sequence through
    :func:`~repro.diagram.maintenance.insert_point` /
    :func:`~repro.diagram.maintenance.delete_point` and demands the
    maintained store's *fingerprint* — not just semantic equality —
    match a from-scratch serial build over the final point set.
    """
    from repro.diagram.maintenance import delete_point, insert_point
    from repro.diagram.quadrant_scanning import quadrant_scanning

    def maintained(style: str) -> Check:
        def check(points: Points) -> tuple[object, object]:
            pts = [tuple(float(c) for c in p) for p in points]
            diagram = quadrant_scanning(pts)
            for op, value in _maintenance_sequence(
                seq_seed, points, style=style
            ):
                if op == "insert":
                    diagram = insert_point(diagram, value)
                    pts.append(tuple(float(c) for c in value))
                else:
                    diagram = delete_point(diagram, value)
                    del pts[value]
            fresh = quadrant_scanning(pts)
            if diagram.store.fingerprint() == fresh.store.fingerprint():
                return (True, True)
            return (fresh.store.to_dict(), diagram.store.to_dict())

        return check

    template = (
        "from repro.diagram.maintenance import delete_point, insert_point\n"
        "from repro.diagram.quadrant_scanning import quadrant_scanning\n"
        "from repro.diagram.verify import _maintenance_sequence\n"
        "pts = [tuple(map(float, p)) for p in points]\n"
        "diagram = quadrant_scanning(pts)\n"
        "for op, value in _maintenance_sequence({seed}, points, "
        "style={style!r}):\n"
        "    if op == 'insert':\n"
        "        diagram = insert_point(diagram, value)\n"
        "        pts.append(tuple(map(float, value)))\n"
        "    else:\n"
        "        diagram = delete_point(diagram, value)\n"
        "        del pts[value]\n"
        "assert diagram.store.fingerprint() == "
        "quadrant_scanning(pts).store.fingerprint()"
    )
    return [
        (
            f"maintenance:{label}==fresh",
            maintained(style),
            template.format(seed=seq_seed, style=style),
        )
        for label, style in (
            ("incremental", "mixed"),
            ("insert-only", "insert"),
            ("delete-only", "delete"),
        )
    ]


def _backend_checks(seq_seed: int) -> list[tuple[str, Check, str]]:
    """Grid backend conformance: dense == rle bytes.

    The RLE backend promises *byte identity* with dense — same id
    numbering, same table order, so the value-streaming fingerprints
    match — through serial builds, the vectorized native-run emission,
    incremental maintenance sequences, and a v4 serialize round trip.
    """
    from repro.diagram.maintenance import delete_point, insert_point
    from repro.diagram.pipeline import BuildOptions
    from repro.diagram.quadrant_scanning import quadrant_scanning

    rle_options = BuildOptions(executor="serial", backend="rle")

    def rle_build(options: BuildOptions) -> Check:
        def check(points: Points) -> tuple[object, object]:
            dense = quadrant_scanning(points)
            rle = quadrant_scanning(points, build_options=options)
            if rle.store.backend_kind != "rle":
                return ("rle", rle.store.backend_kind)
            if dense.store.fingerprint() == rle.store.fingerprint():
                return (True, True)
            return (dense.store.to_dict(), rle.store.to_dict())

        return check

    def rle_maintained(points: Points) -> tuple[object, object]:
        pts = [tuple(float(c) for c in p) for p in points]
        diagram = quadrant_scanning(pts, build_options=rle_options)
        for op, value in _maintenance_sequence(seq_seed, points):
            if op == "insert":
                diagram = insert_point(diagram, value)
                pts.append(tuple(float(c) for c in value))
            else:
                diagram = delete_point(diagram, value)
                del pts[value]
        if diagram.store.backend_kind != "rle":
            return ("rle", diagram.store.backend_kind)
        fresh = quadrant_scanning(pts, build_options=rle_options)
        if diagram.store.fingerprint() == fresh.store.fingerprint():
            return (True, True)
        return (fresh.store.to_dict(), diagram.store.to_dict())

    def rle_roundtrip(points: Points) -> tuple[object, object]:
        from repro.index.serialize import (
            diagram_from_v3,
            diagram_to_binary_bytes,
        )

        diagram = quadrant_scanning(points, build_options=rle_options)
        payload, _version = diagram_to_binary_bytes(diagram)
        loaded = diagram_from_v3(payload)
        if loaded.store.backend_kind != "rle":
            return ("rle", loaded.store.backend_kind)
        if diagram.store.fingerprint() == loaded.store.fingerprint():
            return (True, True)
        return (diagram.store.to_dict(), loaded.store.to_dict())

    maintained_template = (
        "from repro.diagram.maintenance import delete_point, insert_point\n"
        "from repro.diagram.pipeline import BuildOptions\n"
        "from repro.diagram.quadrant_scanning import quadrant_scanning\n"
        "from repro.diagram.verify import _maintenance_sequence\n"
        "pts = [tuple(map(float, p)) for p in points]\n"
        "diagram = quadrant_scanning(pts, "
        "build_options=BuildOptions(executor='serial', backend='rle'))\n"
        f"for op, value in _maintenance_sequence({seq_seed}, points):\n"
        "    if op == 'insert':\n"
        "        diagram = insert_point(diagram, value)\n"
        "        pts.append(tuple(map(float, value)))\n"
        "    else:\n"
        "        diagram = delete_point(diagram, value)\n"
        "        del pts[value]\n"
        "fresh = quadrant_scanning(pts, "
        "build_options=BuildOptions(executor='serial', backend='rle'))\n"
        "assert diagram.store.fingerprint() == fresh.store.fingerprint()"
    )
    return [
        (
            "backend:rle:serial==dense",
            rle_build(rle_options),
            "from repro.diagram import BuildOptions, quadrant_scanning\n"
            "assert quadrant_scanning(points).store.fingerprint() == "
            "quadrant_scanning(points, build_options="
            "BuildOptions(executor='serial', backend='rle'))"
            ".store.fingerprint()",
        ),
        (
            "backend:rle:vectorized==dense",
            rle_build(
                BuildOptions(
                    backend="rle", executor="vectorized", chunk_rows=2
                )
            ),
            "from repro.diagram import BuildOptions, quadrant_scanning\n"
            "assert quadrant_scanning(points).store.fingerprint() == "
            "quadrant_scanning(points, build_options=BuildOptions("
            "backend='rle', executor='vectorized', chunk_rows=2"
            ")).store.fingerprint()",
        ),
        (
            "backend:rle:maintenance==fresh",
            rle_maintained,
            maintained_template,
        ),
        (
            "backend:rle:v4-roundtrip",
            rle_roundtrip,
            "from repro.diagram import BuildOptions, quadrant_scanning\n"
            "from repro.index.serialize import diagram_from_v3, "
            "diagram_to_binary_bytes\n"
            "diagram = quadrant_scanning(points, "
            "build_options=BuildOptions(executor='serial', backend='rle'))\n"
            "payload, _ = diagram_to_binary_bytes(diagram)\n"
            "assert diagram_from_v3(payload).store.fingerprint() == "
            "diagram.store.fingerprint()",
        ),
    ]


def _lookup_checks(
    query: tuple[float, float]
) -> list[tuple[str, Check, str]]:
    """Point location vs direct evaluation, for every kind/mask/k."""
    from repro.diagram.quadrant_sweeping import quadrant_sweeping
    from repro.index.engine import SkylineDatabase

    checks: list[tuple[str, Check, str]] = []

    def lookup(kind: str, mask: int = 0, k: int = 1) -> Check:
        def check(points: Points) -> tuple[object, object]:
            db = SkylineDatabase(points)
            return (
                db.query_from_scratch(query, kind=kind, mask=mask, k=k),
                db.query(query, kind=kind, mask=mask, k=k),
            )

        return check

    db_template = (
        "from repro.index.engine import SkylineDatabase\n"
        "db = SkylineDatabase(points)\n"
        "assert db.query(query, kind={kind!r}, mask={mask}, k={k}) == "
        "db.query_from_scratch(query, kind={kind!r}, mask={mask}, k={k})"
    )
    for mask in range(4):
        checks.append(
            (
                f"lookup:quadrant:mask{mask}",
                lookup("quadrant", mask=mask),
                db_template.format(kind="quadrant", mask=mask, k=1),
            )
        )
    checks.append(
        ("lookup:global", lookup("global"),
         db_template.format(kind="global", mask=0, k=1))
    )
    checks.append(
        ("lookup:dynamic", lookup("dynamic"),
         db_template.format(kind="dynamic", mask=0, k=1))
    )
    for k in (1, 2):
        checks.append(
            (
                f"lookup:skyband:k{k}",
                lookup("skyband", k=k),
                db_template.format(kind="skyband", mask=0, k=k),
            )
        )

    def sweeping(points: Points) -> tuple[object, object]:
        return (
            quadrant_skyline(points, query),
            quadrant_sweeping(points).query(query),
        )

    checks.append(
        (
            "lookup:sweeping",
            sweeping,
            "from repro.diagram import quadrant_sweeping\n"
            "from repro.skyline.queries import quadrant_skyline\n"
            "assert quadrant_sweeping(points).query(query) == "
            "quadrant_skyline(points, query)",
        )
    )
    return checks


def _degraded_checks(
    query: tuple[float, float]
) -> list[tuple[str, Check, str]]:
    """The degradation ladder vs direct evaluation, under a tiny budget.

    A database whose builds exhaust a deliberately impossible budget must
    still answer every query correctly — from the partial tier where one
    exists, from scratch otherwise.
    """
    from repro.index.engine import SkylineDatabase
    from repro.resilience import BuildBudget

    checks: list[tuple[str, Check, str]] = []
    template = (
        "from repro.index.engine import SkylineDatabase\n"
        "from repro.resilience import BuildBudget\n"
        "db = SkylineDatabase(points, budget=BuildBudget(max_cells={cells}))\n"
        "assert db.query(query, kind={kind!r}, k={k}) == "
        "db.query_from_scratch(query, kind={kind!r}, k={k})"
    )

    def degraded(kind: str, cells: int, k: int = 1) -> Check:
        def check(points: Points) -> tuple[object, object]:
            db = SkylineDatabase(
                points, budget=BuildBudget(max_cells=cells)
            )
            return (
                db.query_from_scratch(query, kind=kind, k=k),
                db.query(query, kind=kind, k=k),
            )

        return check

    for kind, cells, k in (
        ("quadrant", 2, 1),
        ("dynamic", 4, 1),
        ("global", 3, 1),
        ("skyband", 2, 2),
    ):
        checks.append(
            (
                f"degraded:{kind}:cells{cells}",
                degraded(kind, cells, k),
                template.format(kind=kind, cells=cells, k=k),
            )
        )
    return checks


def _batch_checks(
    queries: list[tuple[float, float]]
) -> list[tuple[str, Check, str]]:
    """Vectorized batch lookups vs the per-query path."""
    from repro.index.engine import SkylineDatabase

    checks: list[tuple[str, Check, str]] = []
    template = (
        "from repro.index.engine import SkylineDatabase\n"
        "db = SkylineDatabase(points)\n"
        f"queries = {queries!r}\n"
        "assert db.query_batch(queries, kind={kind!r}, mask={mask}) == "
        "[db.query(q, kind={kind!r}, mask={mask}) for q in queries]"
    )

    def batch(kind: str, mask: int = 0) -> Check:
        def check(points: Points) -> tuple[object, object]:
            db = SkylineDatabase(points)
            return (
                [db.query(q, kind=kind, mask=mask) for q in queries],
                db.query_batch(queries, kind=kind, mask=mask),
            )

        return check

    for kind, mask in (
        ("quadrant", 0),
        ("quadrant", 3),
        ("global", 0),
        ("dynamic", 0),
    ):
        checks.append(
            (
                f"batch:{kind}:mask{mask}",
                batch(kind, mask),
                template.format(kind=kind, mask=mask),
            )
        )
    return checks


def _runtime_checks(
    queries: list[tuple[float, float]],
    build_options=None,
) -> list[tuple[str, Check, str]]:
    """The unified query runtime: planner answers vs from-scratch truth.

    Every answer must match direct evaluation *and* carry a
    ``QueryReport`` whose tier equals ``served_from``; under an
    impossible budget the diagram tier must never appear; and a diagram
    built in row chunks must answer identically to a serial build when
    queried through the planner.

    ``build_options`` (CLI: ``--executor``) threads a row executor
    through the planner-arm builds so the whole campaign can run under
    a chosen executor; the executor cross-checks below always pit
    serial against their own fixed options regardless.
    """
    from repro.diagram.pipeline import BuildOptions
    from repro.index.engine import SkylineDatabase
    from repro.resilience import BuildBudget

    checks: list[tuple[str, Check, str]] = []

    def planner(
        kind: str, mask: int = 0, k: int = 1, budget_cells: int | None = None
    ) -> Check:
        def check(points: Points) -> tuple[object, object]:
            budget = (
                BuildBudget(max_cells=budget_cells)
                if budget_cells is not None
                else None
            )
            db = SkylineDatabase(
                points, budget=budget, build_options=build_options
            )
            expected: list[object] = [
                db.query_from_scratch(q, kind=kind, mask=mask, k=k)
                for q in queries
            ]
            answers = [
                db.query_annotated(q, kind=kind, mask=mask, k=k)
                for q in queries
            ]
            batch = db.query_batch(queries, kind=kind, mask=mask, k=k)
            actual: list[object] = []
            for answer, batched in zip(answers, batch):
                report = answer.query_report
                if report is None or report.tier != answer.served_from:
                    actual.append(("missing-or-wrong-report", answer))
                elif budget_cells is not None and (
                    answer.served_from == "diagram"
                ):
                    actual.append(("diagram-tier-under-impossible-budget",))
                elif answer.result != batched:
                    actual.append(
                        ("batch!=single", answer.result, batched)
                    )
                else:
                    actual.append(answer.result)
            return (expected, actual)

        return check

    template = (
        "from repro.index.engine import SkylineDatabase\n"
        f"queries = {queries!r}\n"
        "db = SkylineDatabase(points)\n"
        "for q in queries:\n"
        "    a = db.query_annotated(q, kind={kind!r}, mask={mask}, k={k})\n"
        "    assert a.result == "
        "db.query_from_scratch(q, kind={kind!r}, mask={mask}, k={k})\n"
        "    assert a.query_report.tier == a.served_from"
    )
    degraded_template = (
        "from repro.index.engine import SkylineDatabase\n"
        "from repro.resilience import BuildBudget\n"
        f"queries = {queries!r}\n"
        "db = SkylineDatabase(points, budget=BuildBudget(max_cells={cells}))\n"
        "for q in queries:\n"
        "    a = db.query_annotated(q, kind={kind!r}, k={k})\n"
        "    assert a.served_from != 'diagram'\n"
        "    assert a.result == db.query_from_scratch(q, kind={kind!r}, "
        "k={k})"
    )

    for mask in range(4):
        checks.append(
            (
                f"runtime:planner:quadrant:mask{mask}",
                planner("quadrant", mask=mask),
                template.format(kind="quadrant", mask=mask, k=1),
            )
        )
    checks.append(
        (
            "runtime:planner:global",
            planner("global"),
            template.format(kind="global", mask=0, k=1),
        )
    )
    checks.append(
        (
            "runtime:planner:dynamic",
            planner("dynamic"),
            template.format(kind="dynamic", mask=0, k=1),
        )
    )
    checks.append(
        (
            "runtime:planner:skyband:k2",
            planner("skyband", k=2),
            template.format(kind="skyband", mask=0, k=2),
        )
    )
    for kind, cells, k in (
        ("quadrant", 2, 1),
        ("dynamic", 3, 1),
        ("skyband", 2, 2),
    ):
        checks.append(
            (
                f"runtime:degraded:{kind}",
                planner(kind, k=k, budget_cells=cells),
                degraded_template.format(kind=kind, cells=cells, k=k),
            )
        )

    serial_options = BuildOptions(executor="serial")
    chunked_options = BuildOptions(executor="serial", chunk_rows=2)
    serial_line = (
        "serial = SkylineDatabase(points, "
        "build_options=BuildOptions(executor='serial'))\n"
    )
    chunk_template = (
        "from repro.diagram.pipeline import BuildOptions\n"
        "from repro.index.engine import SkylineDatabase\n"
        f"queries = {queries!r}\n"
        + serial_line
        + "chunked = SkylineDatabase(points, "
        "build_options=BuildOptions(executor='serial', chunk_rows=2))\n"
        "assert serial.query_batch(queries, kind={kind!r}) == "
        "chunked.query_batch(queries, kind={kind!r})"
    )

    def chunked(kind: str) -> Check:
        def check(points: Points) -> tuple[object, object]:
            serial_db = SkylineDatabase(
                points, build_options=serial_options
            )
            chunked_db = SkylineDatabase(
                points, build_options=chunked_options
            )
            return (
                serial_db.query_batch(queries, kind=kind),
                chunked_db.query_batch(queries, kind=kind),
            )

        return check

    for kind in ("quadrant", "dynamic"):
        checks.append(
            (
                f"runtime:chunked:{kind}",
                chunked(kind),
                chunk_template.format(kind=kind),
            )
        )

    vector_options = BuildOptions(executor="vectorized")
    vector_template = (
        "from repro.diagram.pipeline import BuildOptions\n"
        "from repro.index.engine import SkylineDatabase\n"
        f"queries = {queries!r}\n"
        + serial_line
        + "vector = SkylineDatabase(points, "
        "build_options=BuildOptions(executor='vectorized'))\n"
        "assert serial.query_batch(queries, kind={kind!r}) == "
        "vector.query_batch(queries, kind={kind!r})"
    )

    def vectorized(kind: str) -> Check:
        def check(points: Points) -> tuple[object, object]:
            serial_db = SkylineDatabase(
                points, build_options=serial_options
            )
            vector_db = SkylineDatabase(points, build_options=vector_options)
            return (
                serial_db.query_batch(queries, kind=kind),
                vector_db.query_batch(queries, kind=kind),
            )

        return check

    # "dynamic" exercises the honest fallback: constructors that cannot
    # vectorize must serve serial-built answers, not fail.
    for kind in ("quadrant", "dynamic"):
        checks.append(
            (
                f"runtime:vectorized:{kind}",
                vectorized(kind),
                vector_template.format(kind=kind),
            )
        )
    return checks


def _spec_boxes(
    rng: random.Random, points: Points, count: int = 3
) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Fuzzed constraint boxes whose faces sit on data coordinates.

    Corners are drawn from the point coordinate pool (plus a few
    off-grid values), so box faces coincide with grid lines and data
    points on purpose — the closed-box semantics are exactly where a
    half-open implementation would slip.  Degenerate ``lo == hi`` boxes
    are included deliberately.
    """
    xs = sorted({p[0] for p in points}) or [0.0]
    ys = sorted({p[1] for p in points}) or [0.0]
    x_pool = xs + [min(xs) - 1.0, max(xs) + 1.0, rng.uniform(-1.0, 10.0)]
    y_pool = ys + [min(ys) - 1.0, max(ys) + 1.0, rng.uniform(-1.0, 10.0)]
    boxes = []
    for _ in range(count):
        if rng.random() < 0.2:  # degenerate: a single line or point
            x = rng.choice(x_pool)
            x_lo = x_hi = x
        else:
            x_lo, x_hi = sorted((rng.choice(x_pool), rng.choice(x_pool)))
        if rng.random() < 0.2:
            y = rng.choice(y_pool)
            y_lo = y_hi = y
        else:
            y_lo, y_hi = sorted((rng.choice(y_pool), rng.choice(y_pool)))
        boxes.append(
            ((float(x_lo), float(y_lo)), (float(x_hi), float(y_hi)))
        )
    return boxes


def _spec_checks(
    rng: random.Random,
    points: Points,
    queries: list[tuple[float, float]],
) -> list[tuple[str, Check, str]]:
    """Constrained/diversified query specs vs from-scratch evaluation.

    Boxes and queries are fixed inside the closures (so ``_minimize``
    shrinks only the dataset); every arm runs the full engine path —
    planner dispatch, box-restricted kernel lookup or degraded-tier
    fallback, diversified selection — against
    :meth:`SkylineDatabase.query_from_scratch`.
    """
    from repro.index.engine import SkylineDatabase
    from repro.resilience import BuildBudget

    boxes = _spec_boxes(rng, points)
    box = boxes[0]
    checks: list[tuple[str, Check, str]] = []

    def spec_lookup(
        query: tuple[float, float],
        kind: str,
        mask: int = 0,
        k: int = 1,
        spec_box=None,
        diversify: int | None = None,
        budget_cells: int | None = None,
    ) -> Check:
        def check(points: Points) -> tuple[object, object]:
            budget = (
                BuildBudget(max_cells=budget_cells)
                if budget_cells is not None
                else None
            )
            db = SkylineDatabase(points, budget=budget)
            kwargs = dict(
                kind=kind, mask=mask, k=k, box=spec_box, diversify=diversify
            )
            return (
                db.query_from_scratch(query, **kwargs),
                db.query(query, **kwargs),
            )

        return check

    template = (
        "from repro.index.engine import SkylineDatabase\n"
        "db = SkylineDatabase(points)\n"
        "kwargs = dict(kind={kind!r}, mask={mask}, k={k}, box={box!r}, "
        "diversify={diversify!r})\n"
        "assert db.query(query, **kwargs) == "
        "db.query_from_scratch(query, **kwargs)"
    )
    degraded_template = (
        "from repro.index.engine import SkylineDatabase\n"
        "from repro.resilience import BuildBudget\n"
        "db = SkylineDatabase(points, budget=BuildBudget(max_cells={cells}))\n"
        "kwargs = dict(kind={kind!r}, mask={mask}, k={k}, box={box!r}, "
        "diversify={diversify!r})\n"
        "assert db.query(query, **kwargs) == "
        "db.query_from_scratch(query, **kwargs)"
    )

    query = queries[0]
    for mask, mask_box in zip(range(4), (boxes * 2)[:4]):
        checks.append(
            (
                f"spec:constrained:mask{mask}",
                spec_lookup(query, "constrained", mask=mask,
                            spec_box=mask_box),
                template.format(kind="constrained", mask=mask, k=1,
                                box=mask_box, diversify=None),
            )
        )
    for k in (2, 3):
        checks.append(
            (
                f"spec:constrained:skyband:k{k}",
                spec_lookup(query, "constrained", k=k, spec_box=box),
                template.format(kind="constrained", mask=0, k=k, box=box,
                                diversify=None),
            )
        )
    for diversify in (1, 2):
        checks.append(
            (
                f"spec:diversified:k2:m{diversify}",
                spec_lookup(query, "diversified", k=2, diversify=diversify),
                template.format(kind="diversified", mask=0, k=2, box=None,
                                diversify=diversify),
            )
        )
    checks.append(
        (
            "spec:combined:box+k2+m2",
            spec_lookup(query, "constrained", k=2, spec_box=box,
                        diversify=2),
            template.format(kind="constrained", mask=0, k=2, box=box,
                            diversify=2),
        )
    )
    for kind, mask, k, spec_box, diversify in (
        ("constrained", 0, 2, box, None),
        ("constrained", 3, 1, boxes[1], 2),
        ("diversified", 0, 1, None, 2),
    ):
        checks.append(
            (
                f"spec:degraded:{kind}:mask{mask}:k{k}",
                spec_lookup(query, kind, mask=mask, k=k, spec_box=spec_box,
                            diversify=diversify, budget_cells=2),
                degraded_template.format(kind=kind, mask=mask, k=k,
                                         box=spec_box, diversify=diversify,
                                         cells=2),
            )
        )

    batch_template = (
        "from repro.index.engine import SkylineDatabase\n"
        f"queries = {queries!r}\n"
        "db = SkylineDatabase(points)\n"
        "kwargs = dict(kind={kind!r}, box={box!r}, diversify={diversify!r})\n"
        "assert db.query_batch(queries, **kwargs) == "
        "[db.query(q, **kwargs) for q in queries]"
    )

    def spec_batch(kind: str, spec_box, diversify) -> Check:
        def check(points: Points) -> tuple[object, object]:
            db = SkylineDatabase(points)
            kwargs = dict(kind=kind, box=spec_box, diversify=diversify)
            return (
                [db.query(q, **kwargs) for q in queries],
                db.query_batch(queries, **kwargs),
            )

        return check

    for kind, spec_box, diversify in (
        ("constrained", box, None),
        ("constrained", boxes[2], 2),
        ("diversified", None, 2),
    ):
        checks.append(
            (
                f"spec:batch:{kind}:div{diversify}",
                spec_batch(kind, spec_box, diversify),
                batch_template.format(kind=kind, box=spec_box,
                                      diversify=diversify),
            )
        )
    return checks


def _minimize(points: Points, check: Check) -> Points:
    """Greedy shrink: drop points while the check still fails."""

    def fails(pts: Points) -> bool:
        if not pts:
            return False
        try:
            expected, actual = check(pts)
        except Exception:
            return True  # a crash on the reduced input is equally a repro
        return expected != actual

    current = list(points)
    shrunk = True
    while shrunk and len(current) > 1:
        shrunk = False
        for i in range(len(current) - 1, -1, -1):
            candidate = current[:i] + current[i + 1 :]
            if fails(candidate):
                current = candidate
                shrunk = True
    return current


def differential_verify(
    seed: int = 0,
    budget: int = 2000,
    max_points: int = 8,
    query_limit: int = 8,
    build_options=None,
    families: tuple[str, ...] | None = None,
) -> VerifyReport:
    """Run the seeded differential fuzzer for about ``budget`` cases.

    One *case* is one comparison: a diagram-pair equality, one lookup vs
    from-scratch evaluation, or one batch-vs-per-query sweep.  The run is
    fully deterministic in ``seed``.  Stops early at the first mismatch,
    with the failing dataset minimized into ``report.mismatch``.

    ``build_options`` (CLI: ``--executor``) runs the planner arms of the
    runtime checks under the given row executor; every executor
    cross-check (serial==chunked, serial==vectorized) still runs with
    its own fixed options.

    ``families`` (CLI: ``--families``) restricts the run to checks whose
    name starts with one of the given prefixes — ``("spec",)`` runs only
    the constrained/diversified spec checks, ``("spec:batch",)`` narrows
    further.  Point/query/box generation consumes the rng identically
    either way, so a family run fuzzes the same workloads the full
    campaign would.

    >>> differential_verify(seed=1, budget=50).ok
    True
    >>> report = differential_verify(seed=1, budget=40, families=("spec",))
    >>> report.ok and set(report.by_check) == {"spec"}
    True
    """
    rng = random.Random(seed)
    report = VerifyReport(seed=seed, budget=budget)

    def wanted(name: str) -> bool:
        if families is None:
            return True
        return any(
            name == prefix or name.startswith(prefix + ":")
            or name.startswith(prefix)
            for prefix in families
        )

    while report.cases < budget:
        points = _generate_points(rng, max_points)
        queries = _generate_queries(rng, points, limit=query_limit)
        round_checks: list[tuple[str, Check, str, tuple | None]] = []
        for name, check, template in _pair_checks():
            round_checks.append((name, check, template, None))
        seq_seed = rng.randrange(1 << 30)
        for name, check, template in _maintenance_checks(seq_seed):
            round_checks.append((name, check, template, None))
        for name, check, template in _backend_checks(seq_seed):
            round_checks.append((name, check, template, None))
        for query in queries:
            for name, check, template in _lookup_checks(query):
                round_checks.append((name, check, template, query))
        for query in queries[:2]:
            for name, check, template in _degraded_checks(query):
                round_checks.append((name, check, template, query))
        for name, check, template in _batch_checks(queries):
            round_checks.append((name, check, template, None))
        for name, check, template in _runtime_checks(queries, build_options):
            round_checks.append((name, check, template, None))
        for name, check, template in _spec_checks(rng, points, queries):
            round_checks.append((name, check, template, queries[0]))
        round_checks = [rc for rc in round_checks if wanted(rc[0])]
        if not round_checks:
            raise ValueError(
                f"no checks match families {families!r}"
            )
        report.rounds += 1
        for name, check, template, query in round_checks:
            expected, actual = check(points)
            group = name.split(":")[0]
            report.by_check[group] = report.by_check.get(group, 0) + 1
            report.cases += 1
            if expected != actual:
                minimal = _minimize(points, check)
                expected, actual = check(minimal)
                report.mismatch = Mismatch(
                    check=name,
                    points=minimal,
                    query=query,
                    expected=expected,
                    actual=actual,
                    seed=seed,
                    template=template,
                )
                return report
            if report.cases >= budget:
                break
    return report
