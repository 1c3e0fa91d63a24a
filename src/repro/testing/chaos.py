"""Chaos drills: inject faults, assert the serving layer never lies.

Each scenario arranges one failure mode from `repro.testing.faults` around
a small adversarial dataset (reusing the differential verifier's
generators) and asserts the serving-layer contract:

* **cancelled-build** — a build killed mid-construction: every query must
  equal from-scratch evaluation, zero answers may claim the ``diagram``
  tier, and a forced rebuild recovers full service;
* **tight-budget** — admission control refuses the build: same contract,
  reached through the budget path;
* **bitflip** — an attached store is corrupted in memory: ``db.audit()``
  must flag and evict it, ``db.health()`` must report it, and the very
  next query must be correct again (self-healing rebuild);
* **corrupt-file** — a saved diagram is truncated, bit-flipped or
  version-bumped on disk: ``load_diagram`` must raise
  :class:`~repro.errors.SerializationError` (with a salvage report for
  envelope damage), never return a diagram built from damaged bytes;
* **atomic-save** — the save's rename fails: the previous file must
  survive byte-for-byte and still load;
* **clock-skew** — the monotonic clock jumps: backoff bookkeeping must
  degrade gracefully (never crash, never serve wrong answers) and
  recover once time moves forward;
* **stale-maintenance** — incremental maintenance skips an update: the
  per-step audits stay green (the stale diagram is internally
  consistent!) but a differential cross-check against a from-scratch
  rebuild must expose the drift, while the fully-applied control arm
  matches the rebuild exactly;
* **parallel-consistency** — the same dataset is built serially and with
  a sharded row executor: the ResultStores must be byte-identical and
  the budget accounting must agree;
* **vectorized-executor** — the same dataset is built serially and with
  the numpy delta-recurrence engine: store fingerprints must be
  byte-identical, a budget wall at a row block must still yield a
  truthful partial diagram, and a constructor with no vectorized
  kernel must report the executor that actually ran;
* **kill-worker** — a snapshot-serving worker process is SIGKILLed
  mid-load: every later batch must still answer exactly (same snapshot
  generation), and the pool must respawn back to full strength;
* **corrupt-snapshot** — the snapshot file a pool is serving is damaged
  in place: workers must keep the verified old generation (every answer
  matches exactly one published generation, never a mix) until a good
  replacement file swaps in;
* **query-during-update** — reader threads batch-query while updates
  stream in: every answer must match a from-scratch oracle over the
  dataset of the generation that served it (the atomic-swap contract —
  no batch ever mixes generations);
* **crash-mid-update** — an injected cancellation kills the incremental
  re-scan partway: the old generation keeps serving exactly (annotated
  with the pending depth), the journal survives, and a later replay is
  byte-identical to a fresh build;
* **update-budget-exhausted** — the update budget is impossible: flushes
  fail and back off honestly while stale-but-exact answers flow, and
  once the budget lifts the *query path itself* applies the journal in
  the background.

``run_chaos(..., build_options=...)`` (CLI: ``--parallel N``) reruns the
whole campaign with every database build going through the given
executor, proving the fault-handling contract holds under sharding too.

Driven by ``python -m repro chaos --cases N --seed S`` and by
``tests/test_faults.py``; fully deterministic in the seed.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass, field

from repro.diagram.dynamic_scanning import dynamic_scanning
from repro.diagram.maintenance import insert_point
from repro.diagram.pipeline import BuildOptions
from repro.diagram.quadrant_scanning import quadrant_scanning
from repro.diagram.verify import _generate_points, _generate_queries
from repro.errors import BudgetExceededError, SerializationError
from repro.index.engine import SkylineDatabase
from repro.index.serialize import load_diagram, save_diagram
from repro.query.metrics import MetricsRegistry
from repro.resilience import BuildBudget, CoverageMiss
from repro.serve.pool import SnapshotWorkerPool
from repro.testing import faults

_KINDS = ("quadrant", "global", "dynamic", "skyband")


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos` campaign."""

    seed: int
    cases: int = 0
    by_scenario: dict[str, int] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    metrics: dict | None = None  # MetricsRegistry.snapshot() of the campaign

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        counts = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.by_scenario.items())
        )
        lines = [
            f"chaos [{status}]: {self.cases} cases (seed={self.seed}): "
            f"{counts}"
        ]
        for failure in self.failures[:5]:
            lines.append(
                f"  {failure['scenario']} case {failure['case']} "
                f"(seed={failure['seed']}): {failure['error']}"
            )
        if len(self.failures) > 5:
            lines.append(f"  ... and {len(self.failures) - 5} more")
        if self.metrics is not None:
            tiers = self.metrics.get("tiers", {})
            lines.append(
                "  query tiers: "
                + "  ".join(f"{t}={n}" for t, n in sorted(tiers.items()))
            )
        return "\n".join(lines)


def _assert_ladder_exact(
    db: SkylineDatabase,
    points,
    rng: random.Random,
    kinds=_KINDS,
    forbid_tier: str | None = None,
) -> None:
    """Every ladder answer equals from-scratch evaluation."""
    for query in _generate_queries(rng, points, limit=4):
        for kind in kinds:
            k = 2 if kind == "skyband" else 1
            answer = db.query_annotated(query, kind=kind, k=k)
            expected = db.query_from_scratch(query, kind=kind, k=k)
            assert answer.result == expected, (
                f"{kind} query {query} served wrong answer from tier "
                f"{answer.served_from!r}: {answer.result} != {expected}"
            )
            if forbid_tier is not None:
                assert answer.served_from != forbid_tier, (
                    f"{kind} query {query} claimed the {forbid_tier!r} tier "
                    "while it was supposed to be unavailable"
                )


def _scenario_cancelled_build(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    points = _generate_points(rng, max_points)
    # Cancel at the very first checkpoint: tiny datasets finish in two,
    # and this drill requires that *no* build completes.
    served_before = metrics.tier_counts()["diagram"] if metrics else 0
    with faults.cancel_build_after(1):
        db = SkylineDatabase(points, build_options=options, metrics=metrics)
        _assert_ladder_exact(db, points, rng, forbid_tier="diagram")
        health = db.health()
        assert health["tiers"]["diagram"] == served_before, health
        assert not health["ok"], "health claims ok while every build fails"
    outcome = db.rebuild(force=True)
    assert outcome and all(v == "ready" for v in outcome.values()), outcome
    answer = db.query_annotated((0.0, 0.0), kind="quadrant")
    assert answer.served_from == "diagram", answer
    assert db.health()["ok"]


def _scenario_tight_budget(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    points = _generate_points(rng, max_points)
    budget = BuildBudget(max_cells=rng.choice([1, 2, 5]))
    db = SkylineDatabase(
        points, budget=budget, build_options=options, metrics=metrics
    )
    _assert_ladder_exact(db, points, rng)
    health = db.health()
    for key, entry in health["builds"].items():
        assert entry["status"] in ("ready", "degraded"), (key, entry)
        if entry["status"] == "degraded":
            assert "budget exceeded" in entry["error"], entry
    # Lifting the budget and forcing a rebuild restores full service.
    db.budget = None
    outcome = db.rebuild(force=True)
    assert all(v == "ready" for v in outcome.values()), outcome


def _scenario_bitflip(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    points = _generate_points(rng, max_points)
    db = SkylineDatabase(points, build_options=options, metrics=metrics)
    kind = rng.choice(("quadrant", "global", "dynamic"))
    key = "quadrant:0" if kind == "quadrant" else kind
    query = _generate_queries(rng, points, limit=1)[0]
    primed = db.query_annotated(query, kind=kind)
    assert primed.served_from == "diagram"
    faults.flip_store_bit(db._diagrams[key].store, seed=rng.randrange(2**31))
    outcome = db.audit()
    assert outcome[key].startswith("corrupt"), outcome
    health = db.health()
    assert key in health["degraded"], health
    assert health["last_audit"][key].startswith("corrupt"), health
    # The evicted diagram is rebuilt transparently; answers stay exact.
    _assert_ladder_exact(db, points, rng, kinds=(kind,))
    assert db.audit()[key] == "ok"


def _scenario_corrupt_file(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    points = _generate_points(rng, max_points)
    db = SkylineDatabase(points, build_options=options, metrics=metrics)
    kind = rng.choice(("quadrant", "dynamic", "skyband"))
    if kind == "quadrant":
        diagram = db.quadrant_diagram()
    elif kind == "dynamic":
        diagram = db.dynamic_diagram()
    else:
        diagram = db.skyband_diagram(k=2)
    path = os.path.join(workdir, "diagram.json")
    save_diagram(diagram, path)
    mode = rng.choice(("truncate", "bitflip", "version"))
    if mode == "truncate":
        # Keep at least the header prefix: shorter truncations degrade to
        # the bare-v1 path, a different (also covered) failure mode.
        prefix = len(b"repro.skyline-diagram/")
        faults.truncate_file(
            path, rng.randrange(prefix, os.path.getsize(path))
        )
    elif mode == "bitflip":
        faults.corrupt_file_byte(path, seed=rng.randrange(2**31))
    else:
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(
                blob.replace(b"repro.skyline-diagram/3", b"repro.skyline-diagram/9", 1)
            )
    try:
        load_diagram(path)
    except SerializationError as exc:
        if mode in ("truncate", "version"):
            assert getattr(exc, "salvage", None) is not None, (
                f"{mode} damage should carry a salvage report: {exc}"
            )
    else:
        raise AssertionError(f"{mode} damage loaded without an error")


def _scenario_atomic_save(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    points = _generate_points(rng, max_points)
    diagram = quadrant_scanning(points, build_options=options)
    path = os.path.join(workdir, "diagram.json")
    save_diagram(diagram, path)
    with open(path, "rb") as handle:
        original = handle.read()
    with faults.io_errors_on_save():
        try:
            save_diagram(diagram, path)
        except OSError:
            pass
        else:
            raise AssertionError("injected IO error did not surface")
    with open(path, "rb") as handle:
        assert handle.read() == original, "failed save damaged the old file"
    leftovers = [
        name for name in os.listdir(workdir) if name.endswith(".tmp")
    ]
    assert not leftovers, f"failed save leaked temp files: {leftovers}"
    reloaded = load_diagram(path)
    assert reloaded.store == diagram.store


def _scenario_clock_skew(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    points = _generate_points(rng, max_points)
    clock = faults.SteppingClock()
    db = SkylineDatabase(
        points,
        budget=BuildBudget(max_cells=1),
        clock=clock,
        build_options=options,
        metrics=metrics,
    )
    _assert_ladder_exact(db, points, rng, kinds=("quadrant",))
    health = db.health()
    assert health["builds"]["quadrant:0"]["status"] == "degraded", health
    clock.skew(-rng.uniform(100.0, 10_000.0))
    assert db.rebuild()["quadrant:0"] == "backoff"
    _assert_ladder_exact(db, points, rng, kinds=("quadrant",))
    assert db.health()["builds"]["quadrant:0"]["retry_in"] >= 0.0
    clock.advance(1_000_000.0)
    db.budget = None
    assert db.rebuild()["quadrant:0"] == "ready"
    assert db.health()["ok"]


def _scenario_stale_maintenance(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    points = _generate_points(rng, max_points)
    while len(points) < 3:
        points = points + [(float(len(points)), float(len(points)))]
    full = quadrant_scanning(points)
    start = max(1, len(points) // 2)

    # Control arm: every update applied, audited after each step, must
    # match the from-scratch rebuild exactly.
    applied = quadrant_scanning(points[:start])
    for p in points[start:]:
        applied = insert_point(applied, p)
        applied.audit()
    assert applied.store == full.store, "maintenance drifted from rebuild"

    # Stale arm: one update is lost.  The diagram stays internally
    # consistent (audits pass!) — only the differential rebuild
    # cross-check exposes the drift, which is exactly why the stateful
    # suite keeps both checks.
    skipped = rng.randrange(start, len(points))
    stale = quadrant_scanning(points[:start])
    for index in range(start, len(points)):
        if index == skipped:
            continue
        stale = insert_point(stale, points[index])
    stale.audit()
    assert len(stale.grid.dataset) != len(points) or stale.store != full.store, (
        "stale maintenance was indistinguishable from a full rebuild"
    )


def _scenario_parallel_consistency(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    points = _generate_points(rng, max_points)
    serial_options = BuildOptions(executor="serial")
    chunked = BuildOptions(executor="serial", chunk_rows=rng.choice((1, 2, 3)))
    for build in (quadrant_scanning, dynamic_scanning):
        serial = build(points, build_options=serial_options)
        sharded = build(points, build_options=chunked)
        assert serial.store == sharded.store, (
            f"{build.__name__} chunked build diverged from serial"
        )
        assert sharded.build_report.checkpoints == (
            serial.build_report.checkpoints
        ), (serial.build_report, sharded.build_report)
        if rng.random() < 0.3:
            pooled = build(
                points, build_options=BuildOptions(executor="process", workers=2)
            )
            assert serial.store == pooled.store, (
                f"{build.__name__} process build diverged from serial"
            )


def _scenario_vectorized_executor(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    """The vectorized engine under chaos: byte identity, budgets, fallback.

    Fuzzes the array engine against the serial one on random degenerate
    datasets and random block sizes (byte-identical fingerprints, not
    just semantic equality), drives it into a budget wall to confirm the
    partial-diagram contract holds at row-block granularity, and checks
    the honest fallback: a constructor with no vectorized kernel must
    report the executor that actually ran.
    """
    points = _generate_points(rng, max_points)
    vector = BuildOptions(
        executor="vectorized", chunk_rows=rng.choice((None, 1, 2, 3))
    )
    serial = quadrant_scanning(
        points, build_options=BuildOptions(executor="serial")
    )
    vectorized = quadrant_scanning(points, build_options=vector)
    assert vectorized.build_report.executor == "vectorized", (
        vectorized.build_report
    )
    assert serial.store.fingerprint() == vectorized.store.fingerprint(), (
        "vectorized build is not byte-identical to serial"
    )
    fallback = dynamic_scanning(points, build_options=vector)
    assert fallback.build_report.executor == "serial", (
        "dynamic scanning cannot vectorize and must report what ran"
    )
    budget = BuildBudget(max_cells=1)
    try:
        quadrant_scanning(points, budget=budget, build_options=vector)
    except BudgetExceededError as exc:
        if exc.partial is not None:
            for query in _generate_queries(rng, points):
                try:
                    answer = exc.partial.query(query)
                except CoverageMiss:
                    continue
                assert answer == serial.query(query), (
                    "vectorized partial diverged from the full diagram"
                )
    else:
        raise AssertionError("max_cells=1 budget did not interrupt the build")


def _scenario_kill_worker(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    """SIGKILL a serving worker mid-load: answers survive, pool heals.

    The pool's transport is per-worker pipes precisely so a kill cannot
    strand a shared lock; this drill enforces the resulting contract —
    every batch after the kill still answers exactly (from the same
    generation), and ``ensure_alive`` restores full strength.
    """
    points = _generate_points(rng, max_points)
    diagram = quadrant_scanning(points, build_options=options)
    path = os.path.join(workdir, "snapshot.bin")
    save_diagram(diagram, path)
    queries = [tuple(q) for q in _generate_queries(rng, points, limit=4)]
    expected = [tuple(r) for r in diagram.query_batch(queries)]
    with SnapshotWorkerPool(path, workers=2) as pool:
        answers, generation = pool.query_batch(queries, timeout=30.0)
        assert answers == expected, "pool diverged from direct evaluation"
        victim = rng.randrange(2)
        pool._procs[victim].kill()
        pool._procs[victim].join(5.0)
        for _ in range(2):
            answers, tag = pool.query_batch(queries, timeout=30.0)
            assert answers == expected, "answers drifted after worker kill"
            assert tag == generation, "generation changed without a swap"
        pool.ensure_alive()
        assert pool.stats()["alive"] == 2, pool.stats()
        answers, _ = pool.query_batch(queries, timeout=30.0)
        assert answers == expected, "respawned worker answered wrong"


def _scenario_corrupt_snapshot(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    """Damage the live snapshot under a serving pool: old generation holds.

    Workers re-verify the file before every swap, so in-place damage
    must be *rejected* (the mapped generation keeps answering, batches
    never mix generations) and a good republished file must then swap
    in — observable through the generation tag every answer carries.
    """
    points = _generate_points(rng, max_points)
    diagram_a = quadrant_scanning(points, build_options=options)
    extra = tuple(
        max(p[d] for p in points) + 1.0 + d for d in range(len(points[0]))
    )
    diagram_b = quadrant_scanning(points + [extra], build_options=options)
    queries = [tuple(q) for q in _generate_queries(rng, points, limit=4)]
    expected_a = [tuple(r) for r in diagram_a.query_batch(queries)]
    expected_b = [tuple(r) for r in diagram_b.query_batch(queries)]
    path = os.path.join(workdir, "snapshot.bin")
    save_diagram(diagram_a, path)
    with SnapshotWorkerPool(path, workers=2) as pool:
        # Prime both round-robin workers so each holds generation A
        # before the damage lands.
        for _ in range(2):
            answers, generation_a = pool.query_batch(queries, timeout=30.0)
            assert answers == expected_a
        faults.corrupt_file_byte(path, seed=rng.randrange(2**31))
        for _ in range(3):
            answers, tag = pool.query_batch(queries, timeout=30.0)
            assert (answers, tag) == (expected_a, generation_a), (
                "a corrupt replacement leaked into the serving path"
            )
        save_diagram(diagram_b, path)
        swapped = None
        for _ in range(8):  # every worker swaps at its next batch boundary
            answers, tag = pool.query_batch(queries, timeout=30.0)
            # The invariant under swap: each answer matches *one*
            # complete published generation, never a mix of two.
            if tag == generation_a:
                assert answers == expected_a, "mixed-generation answer"
            else:
                assert answers == expected_b, "mixed-generation answer"
                swapped = tag
        assert swapped is not None, "republished snapshot never swapped in"


def _random_updates(rng, db, steps: int, record) -> None:
    """Apply ``steps`` random inserts/deletes, recording each generation."""
    for _ in range(steps):
        if rng.random() < 0.7 or len(db.dataset) <= 2:
            value = tuple(
                rng.uniform(0.0, 10.0) for _ in range(db.dataset.dim)
            )
            db.apply_update("insert", value)
        else:
            db.apply_update("delete", rng.randrange(len(db.dataset)))
        record(db)


def _scenario_query_during_update(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    """Concurrent readers under a live update stream: no mixed generations.

    Reader threads batch-query while the main thread applies updates.
    Every answer names the generation that served it; cross-checking each
    answer against a from-scratch oracle over *that generation's*
    dataset proves a batch never mixes an old diagram with a new dataset
    (or vice versa) — the atomic-swap contract, observed from outside.
    """
    import threading

    from repro.skyline.queries import quadrant_skyline
    from repro.geometry.point import Dataset

    points = _generate_points(rng, max_points)
    db = SkylineDatabase(
        points,
        precompute=["quadrant"],
        build_options=options,
        metrics=metrics,
    )
    datasets = {db.generation["sha"]: db.dataset}

    def record(database):
        datasets[database.generation["sha"]] = database.dataset

    queries = [tuple(q) for q in _generate_queries(rng, points, limit=3)]
    stop = threading.Event()
    observed: list[tuple[str, tuple, tuple]] = []
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            while not stop.is_set():
                answers = db.query_batch_annotated(queries, kind="quadrant")
                for query, answer in zip(queries, answers):
                    observed.append(
                        (
                            answer.query_report.generation,
                            query,
                            tuple(answer.result),
                        )
                    )
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        _random_updates(rng, db, steps=4, record=record)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors, f"reader crashed during updates: {errors[0]!r}"
    assert observed, "readers never got an answer in"
    for sha, query, result in observed:
        dataset = datasets.get(sha)
        assert dataset is not None, f"answer from unpublished generation {sha}"
        assert result == quadrant_skyline(dataset, query, 0), (
            f"generation {sha[:12]} answer for {query} does not match its "
            "own dataset — a mixed-generation answer leaked"
        )


def _scenario_crash_mid_update(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    """A crash mid-re-scan: old generation serves on, journal replayable.

    An injected cancellation kills the incremental re-scan partway
    through.  The contract: the swap never happens (readers keep the old,
    fully consistent generation; answers stay exact and are annotated
    with the pending depth), the journal survives intact, and replaying
    it once the fault clears produces a store byte-identical to a fresh
    build over the updated dataset.
    """
    points = _generate_points(rng, max_points)
    db = SkylineDatabase(
        points,
        precompute=["quadrant"],
        clock=faults.SteppingClock(),  # backoff can't expire mid-drill
        build_options=options,
        metrics=metrics,
    )
    before = db.generation
    extra = tuple(rng.uniform(0.0, 10.0) for _ in range(db.dataset.dim))
    with faults.cancel_build_after(1):
        outcome = db.apply_update("insert", extra)
    assert outcome["applied"] == 0 and outcome["pending"] == 1, outcome
    assert db.generation == before, "a crashed apply swapped generations"
    assert len(db.dataset) == len(points), "dataset mutated by crashed apply"
    # Old generation keeps serving — exact for its dataset, stale-marked.
    query = tuple(_generate_queries(rng, points, limit=1)[0])
    answer = db.query_annotated(query, kind="quadrant")
    assert answer.result == db.query_from_scratch(query, kind="quadrant")
    assert answer.query_report.pending_updates == 1, answer.query_report
    health = db.health()
    assert health["updates"]["pending"] == 1, health["updates"]
    assert "error" in health["updates"], health["updates"]
    # The journal replays once the fault is gone: byte-identical result.
    replay = db.flush_updates(force=True)
    assert replay["applied"] == 1, replay
    fresh = quadrant_scanning(list(points) + [extra])
    assert (
        db._diagrams["quadrant:0"].store.fingerprint()
        == fresh.store.fingerprint()
    ), "replayed journal diverged from a fresh build"
    assert db.pending_updates == 0


def _scenario_update_budget_exhausted(
    rng, max_points, workdir, options=None, metrics=None
) -> None:
    """Budget-starved updates: honest degradation, background completion.

    With an impossible budget the flush fails and backs off; queries keep
    serving the old generation exactly, annotated stale.  Once the budget
    lifts and the backoff expires (deterministic clock), the *query path
    itself* retries the journal — background completion needs no explicit
    flush call — and the maintained store is byte-identical to fresh.
    """
    points = _generate_points(rng, max_points)
    clock = faults.SteppingClock()
    db = SkylineDatabase(
        points,
        precompute=["quadrant"],
        clock=clock,
        build_options=options,
        metrics=metrics,
    )
    db.budget = BuildBudget(max_cells=1)
    extra = tuple(rng.uniform(0.0, 10.0) for _ in range(db.dataset.dim))
    outcome = db.apply_update("insert", extra)
    assert outcome["applied"] == 0, outcome
    assert "BudgetExceededError" in outcome["error"], outcome
    # During backoff: stale but exact, honestly annotated everywhere.
    query = tuple(_generate_queries(rng, points, limit=1)[0])
    answer = db.query_annotated(query, kind="quadrant")
    assert answer.result == db.query_from_scratch(query, kind="quadrant")
    assert answer.query_report.pending_updates == 1
    assert db.flush_updates().get("backoff", 0.0) > 0.0, (
        "flush ignored the retry backoff"
    )
    # Budget lifts, backoff expires: the next query applies the journal.
    db.budget = None
    clock.advance(3600.0)
    seq_before = db.generation["seq"]
    healed = db.query_annotated(query, kind="quadrant")
    assert healed.query_report.pending_updates == 0, healed.query_report
    assert db.generation["seq"] == seq_before + 1
    fresh = quadrant_scanning(list(points) + [extra])
    assert (
        db._diagrams["quadrant:0"].store.fingerprint()
        == fresh.store.fingerprint()
    ), "background-applied update diverged from a fresh build"


_SCENARIOS = (
    ("cancelled-build", _scenario_cancelled_build),
    ("tight-budget", _scenario_tight_budget),
    ("bitflip", _scenario_bitflip),
    ("corrupt-file", _scenario_corrupt_file),
    ("atomic-save", _scenario_atomic_save),
    ("clock-skew", _scenario_clock_skew),
    ("stale-maintenance", _scenario_stale_maintenance),
    ("parallel-consistency", _scenario_parallel_consistency),
    ("vectorized-executor", _scenario_vectorized_executor),
    ("kill-worker", _scenario_kill_worker),
    ("corrupt-snapshot", _scenario_corrupt_snapshot),
    ("query-during-update", _scenario_query_during_update),
    ("crash-mid-update", _scenario_crash_mid_update),
    ("update-budget-exhausted", _scenario_update_budget_exhausted),
)


def run_chaos(
    cases: int = 200,
    seed: int = 0,
    max_points: int = 7,
    build_options: BuildOptions | None = None,
    metrics: MetricsRegistry | None = None,
) -> ChaosReport:
    """Run ``cases`` fault-injection drills round-robin over the scenarios.

    Deterministic in ``seed``; each case gets its own derived RNG and a
    fresh scratch directory.  Failures are collected (not fail-fast) so
    one report shows every scenario that broke.  ``build_options``
    threads a row executor through every database construction, reusing
    the same drills to exercise the sharded build paths.  One shared
    :class:`~repro.query.metrics.MetricsRegistry` (pass your own via
    ``metrics``) collects the query-runtime telemetry of every database
    the drills construct; its snapshot is attached as
    ``report.metrics`` and printed by ``repro stats --chaos``.

    >>> run_chaos(cases=8, seed=0).ok
    True
    """
    rng = random.Random(seed)
    registry = metrics if metrics is not None else MetricsRegistry()
    report = ChaosReport(seed=seed)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as root:
        for case in range(cases):
            name, scenario = _SCENARIOS[case % len(_SCENARIOS)]
            case_seed = rng.randrange(2**63)
            workdir = os.path.join(root, f"case-{case}")
            os.mkdir(workdir)
            report.cases += 1
            report.by_scenario[name] = report.by_scenario.get(name, 0) + 1
            try:
                scenario(
                    random.Random(case_seed),
                    max_points,
                    workdir,
                    options=build_options,
                    metrics=registry,
                )
            except Exception as exc:  # collected, not fatal: report them all
                report.failures.append(
                    {
                        "scenario": name,
                        "case": case,
                        "seed": case_seed,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
    report.metrics = registry.snapshot()
    return report
