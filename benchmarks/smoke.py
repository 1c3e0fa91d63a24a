"""PR benchmark smoke target: construction + batch-query throughput.

Runs the E1/E8-style measurements at small n plus the two headline arms of
the array-store engine —

* quadrant scanning construction at n=2000 (independent), array store vs
  the seed dict-per-cell reference;
* a 10k-query workload answered with ``query_batch`` vs per-point
  ``query`` on the same diagram —

and writes the results to ``BENCH_pr1.json`` in the git-ignored
``.bench_build/`` directory (the committed ``BENCH_pr*.json`` files at
the repository root are the frozen record), plus ``BENCH_pr4.json``
with the build-pipeline arms: serial vs process-pool construction at
n=2000 (fingerprints asserted identical)
and the per-phase ``BuildReport`` breakdown.  ``cpu_count`` is recorded
alongside — on a single-core machine the process pool cannot win on
wall clock and the numbers say so honestly.  ``BENCH_pr5.json`` adds
the query-runtime arms: single vs batch answering through
``SkylineDatabase`` (one planner, batch-of-1 semantics asserted equal)
and the degraded ladder under an impossible build budget, with the
``MetricsRegistry`` snapshot recorded so per-kind/per-tier latency
ships with the numbers.  ``BENCH_pr6.json`` adds the vectorized-executor
arms: whole-row numpy construction vs serial at n=2000 (continuous) and
n=10000 (1024-value integer domain), fingerprints asserted identical,
plus the fused scalar lookup's per-query latency distribution (p50/p99
over a large query sample) and batch throughput on a vectorized-built
diagram.  Every envelope carries ``env`` provenance
(``repro.bench.harness.env_metadata``: python/numpy/numba versions, CPU
count) and the executor that produced each arm.  ``BENCH_pr7.json``
adds the serving arms: v3 binary snapshot vs legacy JSON size and save
time at n=2000 (the 5x gate asserted), and sustained qps with batch
p50/p99 from a 2-worker shared-snapshot pool — in steady state and
while the snapshot is republished mid-load (every answer cross-checked
against the generation it claims).  ``BENCH_pr8.json`` adds the
streaming-update arms: single-point incremental insert/delete vs full
serial and vectorized rebuilds at n=2000 and n=10000 (1024-value
domain), panelled by the update's y-rank quantile since the dirty
region is everything below it (stores asserted byte-identical to fresh
builds first), plus serving p99 from the PR 7 pool harness while a
sustained stream of incremental updates republishes the snapshot.
``BENCH_pr9.json`` adds the query-spec arms: constrained (closed-box),
diversified (max-min selection) and combined batch latency vs the plain
quadrant batch on one database, with the plain arm's ratio to the PR 5
baseline measured in the same run recorded — the QuerySpec refactor's
overhead on the unspecced path, gated at 5% in CI.
All timings are
best-of-N wall clock (``repro.bench.harness.time_call``), the least
noise-sensitive estimator on a shared machine; the construction arms
drop and ``gc.collect()`` the previous diagram between builds so one
arm's live garbage never inflates the other's clock.

Usage::

    PYTHONPATH=src python benchmarks/smoke.py [--out PATH] [--quick]
"""

from __future__ import annotations

import argparse
import gc
import os
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import dataset  # noqa: E402

from repro.bench.harness import env_metadata, save_json, time_call  # noqa: E402
from repro.diagram import (  # noqa: E402
    quadrant_baseline,
    quadrant_dsg,
    quadrant_scanning,
    quadrant_sweeping,
)
from repro.diagram.pipeline import BuildOptions  # noqa: E402
from repro.diagram.quadrant_scanning import (  # noqa: E402
    quadrant_scanning_reference,
)
from repro.skyline.queries import quadrant_skyline  # noqa: E402

#: The serial reference engine, pinned in every arm labelled "serial"
#: (the default executor is vectorized).
SERIAL = BuildOptions(executor="serial")

E1_ALGORITHMS = {
    "baseline": quadrant_baseline,
    "dsg": quadrant_dsg,
    "scanning": quadrant_scanning,
    "sweeping": quadrant_sweeping,
}


def e1_construction_small(sizes: tuple[int, ...]) -> dict:
    """E1 at small n: construction seconds per algorithm and size."""
    out: dict = {}
    for n in sizes:
        points = dataset("independent", n)
        out[str(n)] = {
            name: time_call(lambda b=build, p=points: b(p), repeats=3)
            for name, build in E1_ALGORITHMS.items()
        }
    return out


def e8_lookup_small(n: int, batch: int) -> dict:
    """E8 at small n: diagram lookup vs from-scratch evaluation."""
    points = dataset("independent", n)
    diagram = quadrant_scanning(points)
    rng = random.Random(n)
    queries = [(rng.random(), rng.random()) for _ in range(batch)]
    lookup = time_call(
        lambda: [diagram.query(q) for q in queries], repeats=3
    )
    scratch = time_call(
        lambda: [quadrant_skyline(points, q) for q in queries], repeats=3
    )
    return {
        "n": n,
        "queries": batch,
        "lookup_s": lookup,
        "from_scratch_s": scratch,
        "speedup": scratch / lookup,
    }


def headline_construction(n: int) -> dict:
    """Array-store (serial id engine) scanning vs the seed dict reference."""
    points = dataset("independent", n)
    new = time_call(
        lambda: quadrant_scanning(points, build_options=SERIAL), repeats=3
    )
    ref = time_call(lambda: quadrant_scanning_reference(points), repeats=3)
    return {
        "n": n,
        "distribution": "independent",
        "array_store_s": new,
        "dict_reference_s": ref,
        "speedup": ref / new,
    }


def headline_batch_query(n: int, batch: int) -> dict:
    """``query_batch`` vs per-point ``query`` on one diagram."""
    diagram = quadrant_scanning(dataset("independent", n))
    rng = random.Random(batch)
    queries = [(rng.random(), rng.random()) for _ in range(batch)]
    batch_s = time_call(lambda: diagram.query_batch(queries), repeats=5)
    per_point_s = time_call(
        lambda: [diagram.query(q) for q in queries], repeats=3
    )
    assert diagram.query_batch(queries) == [
        diagram.query(q) for q in queries
    ]
    return {
        "n": n,
        "queries": batch,
        "batch_s": batch_s,
        "per_point_s": per_point_s,
        "speedup": per_point_s / batch_s,
        "batch_queries_per_s": batch / batch_s,
    }


def pipeline_construction(n: int, workers: int) -> dict:
    """Serial vs process-pool construction of the same diagram.

    Fingerprints are asserted identical (the sharded build's byte-identity
    contract), and both arms' per-phase ``BuildReport`` breakdowns are
    recorded so the cost of sharding (pool spin-up, pickling, chunk-table
    merge) is visible phase by phase.
    """
    points = dataset("independent", n)
    options = BuildOptions(executor="process", workers=workers)
    serial = quadrant_scanning(points, build_options=SERIAL)
    parallel = quadrant_scanning(points, build_options=options)
    assert serial.store.fingerprint() == parallel.store.fingerprint(), (
        "process-pool build diverged from serial"
    )
    serial_s = time_call(
        lambda: quadrant_scanning(points, build_options=SERIAL), repeats=3
    )
    parallel_s = time_call(
        lambda: quadrant_scanning(points, build_options=options), repeats=3
    )
    return {
        "n": n,
        "distribution": "independent",
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "serial_s": serial_s,
        "process_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "fingerprint_match": True,
        "serial_report": serial.build_report.as_dict(),
        "process_report": parallel.build_report.as_dict(),
    }


def query_runtime(n: int, batch: int) -> dict:
    """Single vs batch vs degraded answering through the planner.

    All three arms run against ``SkylineDatabase`` so the measured path
    is the unified runtime (planner -> kernel), not the raw diagram.
    Batch and single answers are asserted equal, and the degraded arm
    (impossible build budget, no partial) is pure from-scratch ladder
    cost.  The shared registry's snapshot is returned alongside the
    timings.
    """
    from repro.index.engine import SkylineDatabase
    from repro.query.metrics import MetricsRegistry
    from repro.resilience import BuildBudget

    points = dataset("independent", n)
    rng = random.Random(batch)
    queries = [(rng.random(), rng.random()) for _ in range(batch)]
    registry = MetricsRegistry()
    db = SkylineDatabase(points, metrics=registry)
    kind = "quadrant"
    db.query(queries[0], kind=kind)  # warm; builds are not query latency
    assert db.query_batch(queries, kind=kind) == [
        db.query(q, kind=kind) for q in queries
    ], "planner batch answers diverged from single answers"
    single_s = time_call(
        lambda: [db.query(q, kind=kind) for q in queries], repeats=3
    )
    batch_s = time_call(
        lambda: db.query_batch(queries, kind=kind), repeats=5
    )
    degraded = SkylineDatabase(
        points, budget=BuildBudget(max_cells=1), metrics=registry
    )
    degraded_queries = queries[: max(1, batch // 100)]
    degraded_s = time_call(
        lambda: [degraded.query(q, kind=kind) for q in degraded_queries],
        repeats=3,
    )
    return {
        "n": n,
        "queries": batch,
        "single_s": single_s,
        "batch_s": batch_s,
        "batch_speedup": single_s / batch_s,
        "degraded_queries": len(degraded_queries),
        "degraded_s": degraded_s,
        "degraded_per_query_s": degraded_s / len(degraded_queries),
        "metrics": registry.snapshot(),
    }


def vectorized_construction(
    n: int, domain: int | None = None, repeats: int = 2
) -> dict:
    """Whole-row numpy construction vs serial, byte-identity asserted.

    The serial arm runs first and its diagram is dropped (plus an
    explicit ``gc.collect()``) before the vectorized arm is timed:
    with ~n**2 live result tuples on the heap, generational GC passes
    triggered *during* the other arm's build would otherwise bill one
    engine for the other's garbage.
    """
    points = dataset("independent", n, domain=domain)
    vector = BuildOptions(executor="vectorized")
    serial_d = quadrant_scanning(points, build_options=SERIAL)
    vector_d = quadrant_scanning(points, build_options=vector)
    assert vector_d.build_report.executor == "vectorized", (
        vector_d.build_report
    )
    assert serial_d.store.fingerprint() == vector_d.store.fingerprint(), (
        "vectorized build diverged from serial"
    )
    serial_report = serial_d.build_report.as_dict()
    vector_report = vector_d.build_report.as_dict()
    del serial_d, vector_d
    gc.collect()
    serial_s = time_call(
        lambda: quadrant_scanning(points, build_options=SERIAL),
        repeats=repeats,
    )
    gc.collect()
    vector_s = time_call(
        lambda: quadrant_scanning(points, build_options=vector),
        repeats=repeats,
    )
    gc.collect()
    return {
        "n": n,
        "distribution": "independent",
        "domain": domain,
        "serial_s": serial_s,
        "vectorized_s": vector_s,
        "speedup": serial_s / vector_s,
        "fingerprint_match": True,
        "serial_report": serial_report,
        "vectorized_report": vector_report,
    }


def fused_single_query(n: int, batch: int) -> dict:
    """Per-query latency distribution of the fused scalar lookup.

    Queries a vectorized-built diagram (so the lazy result table is the
    one in play), timing each ``diagram.query`` call individually to get
    a p50/p99 rather than an amortized mean; answers are cross-checked
    against a serial-built diagram first.  Batch throughput on the same
    diagram rides along for the single-vs-batch ratio.
    """
    points = dataset("independent", n)
    diagram = quadrant_scanning(
        points, build_options=BuildOptions(executor="vectorized")
    )
    rng = random.Random(batch)
    queries = [(rng.random(), rng.random()) for _ in range(batch)]
    serial_d = quadrant_scanning(points, build_options=SERIAL)
    probe = queries[: min(200, batch)]
    assert [diagram.query(q) for q in probe] == [
        serial_d.query(q) for q in probe
    ], "fused lookup diverged from the serial-built diagram"
    del serial_d
    gc.collect()
    query = diagram.query
    clock = time.perf_counter
    samples = []
    for q in queries:
        start = clock()
        query(q)
        samples.append(clock() - start)
    samples.sort()
    batch_s = time_call(lambda: diagram.query_batch(queries), repeats=5)
    return {
        "n": n,
        "queries": batch,
        "executor": "vectorized",
        "single_p50_s": statistics.median(samples),
        "single_p99_s": samples[min(len(samples) - 1, (len(samples) * 99) // 100)],
        "single_mean_s": statistics.fmean(samples),
        "batch_s": batch_s,
        "batch_per_query_s": batch_s / batch,
    }


def snapshot_size(n: int) -> dict:
    """v3 binary snapshot vs the legacy JSON envelope at one size.

    The ISSUE's acceptance bar: at n=2000 the binary payload must be at
    least 5x smaller than the JSON one (asserted here, recorded either
    way).  Save times ride along — the JSON arm pays for materializing
    the lazy result table, the binary arm ships the cons forest as-is.
    """
    import tempfile

    from repro.index.serialize import save_diagram

    points = dataset("independent", n)
    diagram = quadrant_scanning(
        points, build_options=BuildOptions(executor="vectorized")
    )
    with tempfile.TemporaryDirectory() as tmp:
        binary = os.path.join(tmp, "d.bin")
        legacy = os.path.join(tmp, "d.json")
        binary_s = time_call(lambda: save_diagram(diagram, binary), repeats=1)
        legacy_s = time_call(
            lambda: save_diagram(diagram, legacy, format="json"), repeats=1
        )
        binary_bytes = os.path.getsize(binary)
        legacy_bytes = os.path.getsize(legacy)
    ratio = legacy_bytes / binary_bytes
    if n >= 2000:
        assert ratio >= 5.0, (
            f"binary snapshot only {ratio:.2f}x smaller than JSON at n={n}"
        )
    return {
        "n": n,
        "executor": "vectorized",
        "binary_bytes": binary_bytes,
        "json_bytes": legacy_bytes,
        "size_ratio": ratio,
        "binary_save_s": binary_s,
        "json_save_s": legacy_s,
    }


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def serve_throughput(
    n: int, workers: int, batches_per_thread: int, batch_size: int
) -> dict:
    """Sustained qps/p99 from a shared-snapshot pool, incl. under swap.

    Two phases over one :class:`~repro.serve.pool.SnapshotWorkerPool`
    (``workers`` processes mmapping one snapshot file): a steady phase,
    and a swap phase during which the snapshot is republished with a
    different diagram mid-load.  ``workers`` driver threads each time
    their own batches, so the pool is saturated the way the asyncio
    server saturates it.  Every answer is cross-checked against the
    generation it claims — the swap must never produce a mixed answer.
    """
    import tempfile
    import threading

    from repro.index.serialize import save_diagram
    from repro.serve.pool import SnapshotWorkerPool

    vector = BuildOptions(executor="vectorized")
    diagram_a = quadrant_scanning(dataset("independent", n), build_options=vector)
    diagram_b = quadrant_scanning(
        dataset("independent", n + 1), build_options=vector
    )
    rng = random.Random(n)
    queries = [(rng.random(), rng.random()) for _ in range(batch_size)]
    expected_b = [tuple(r) for r in diagram_b.query_batch(queries)]

    def run_phase(pool):
        latencies: list[float] = []
        observed: list = []
        clock = time.perf_counter

        def worker_loop():
            for _ in range(batches_per_thread):
                start = clock()
                answers, generation = pool.query_batch(queries)
                latencies.append(clock() - start)
                observed.append((generation, answers))

        threads = [
            threading.Thread(target=worker_loop) for _ in range(workers)
        ]
        begin = clock()
        for thread in threads:
            thread.start()
        return threads, latencies, observed, begin

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snapshot.bin")
        save_diagram(diagram_a, path)
        with SnapshotWorkerPool(path, workers=workers) as pool:
            answers_a, generation_a = pool.query_batch(queries)
            expected = {generation_a: answers_a}

            threads, steady_lat, steady_obs, begin = run_phase(pool)
            for thread in threads:
                thread.join()
            steady_wall = time.perf_counter() - begin

            threads, swap_lat, swap_obs, begin = run_phase(pool)
            save_diagram(diagram_b, path)  # concurrent rebuild-and-swap
            for thread in threads:
                thread.join()
            swap_wall = time.perf_counter() - begin
            # The load can outrun the republish; poll (uncounted) until
            # every round-robin worker demonstrably serves generation B.
            for _ in range(100):
                answers, generation = pool.query_batch(queries)
                swap_obs.append((generation, answers))
                if generation != generation_a:
                    break

    swapped = 0
    for generation, answers in steady_obs + swap_obs:
        if generation == generation_a:
            assert answers == expected[generation_a], (
                "served answer diverged from its generation"
            )
        else:
            swapped += 1
            assert answers == expected_b, (
                "mixed-generation answer during snapshot swap"
            )
    assert swapped, "republished snapshot never swapped in under load"

    def phase(latencies: list[float], wall: float) -> dict:
        total = len(latencies) * batch_size
        return {
            "batches": len(latencies),
            "queries": total,
            "qps": total / wall,
            "batch_p50_s": _percentile(latencies, 0.50),
            "batch_p99_s": _percentile(latencies, 0.99),
            "query_p99_s": _percentile(latencies, 0.99) / batch_size,
        }

    return {
        "n": n,
        "workers": workers,
        "driver_threads": workers,
        "batch_size": batch_size,
        "steady": phase(steady_lat, steady_wall),
        "rebuild_and_swap": phase(swap_lat, swap_wall),
        "swapped_batches": swapped,
        "answers_cross_checked": True,
    }


def update_vs_rebuild(
    n: int, domain: int | None = None, repeats: int = 2
) -> dict:
    """Single-point incremental maintenance vs full rebuild.

    The dirty region of an update is everything below the point's
    y-rank, so the rank *is* the workload: inserts land at the 5th,
    25th, 50th and 90th y percentile of the data (plus a matching
    delete panel) and each op is timed best-of-N against the serial
    and vectorized rebuilds of the same updated dataset.  One insert
    and one delete are asserted byte-identical to their fresh builds
    before any timing, so the speedups compare equal artifacts.
    """
    from repro.diagram.maintenance import delete_point, insert_point

    points = list(dataset("independent", n, domain=domain))
    diagram = quadrant_scanning(points)
    serial_s = time_call(
        lambda: quadrant_scanning(points, build_options=SERIAL),
        repeats=repeats,
    )
    gc.collect()
    vector = BuildOptions(executor="vectorized")
    vector_s = time_call(
        lambda: quadrant_scanning(points, build_options=vector),
        repeats=repeats,
    )
    gc.collect()
    rng = random.Random(n)
    span = float(domain) if domain is not None else 1.0
    ys = sorted(p[1] for p in points)
    by_y = sorted(range(len(points)), key=lambda i: points[i][1])

    checked = insert_point(diagram, (span / 2, ys[len(ys) // 2]))
    fresh = quadrant_scanning(points + [(span / 2, ys[len(ys) // 2])])
    assert checked.store.fingerprint() == fresh.store.fingerprint(), (
        "incremental insert diverged from fresh build"
    )
    victim = by_y[len(points) // 2]
    checked = delete_point(diagram, victim)
    fresh = quadrant_scanning(
        [q for i, q in enumerate(points) if i != victim]
    )
    assert checked.store.fingerprint() == fresh.store.fingerprint(), (
        "incremental delete diverged from fresh build"
    )
    del checked, fresh
    gc.collect()

    inserts = []
    for quantile in (0.05, 0.25, 0.5, 0.9):
        p = (
            rng.uniform(0, span),
            ys[int(quantile * len(ys))] + span * 1e-4,
        )
        report = insert_point(diagram, p).build_report
        gc.collect()
        update_s = time_call(
            lambda p=p: insert_point(diagram, p), repeats=repeats
        )
        gc.collect()
        inserts.append(
            {
                "quantile": quantile,
                "update_s": update_s,
                "rows_scanned": report.rows_scanned,
                "rows_total": diagram.grid.shape[1],
                "speedup_vs_serial": serial_s / update_s,
                "speedup_vs_vectorized": vector_s / update_s,
            }
        )
    deletes = []
    for quantile in (0.05, 0.5, 0.9):
        victim = by_y[int(quantile * len(points))]
        report = delete_point(diagram, victim).build_report
        gc.collect()
        update_s = time_call(
            lambda victim=victim: delete_point(diagram, victim),
            repeats=repeats,
        )
        gc.collect()
        deletes.append(
            {
                "quantile": quantile,
                "update_s": update_s,
                "rows_scanned": report.rows_scanned,
                "speedup_vs_serial": serial_s / update_s,
                "speedup_vs_vectorized": vector_s / update_s,
            }
        )
    median_insert = inserts[2]
    return {
        "n": n,
        "distribution": "independent",
        "domain": domain,
        "serial_rebuild_s": serial_s,
        "vectorized_rebuild_s": vector_s,
        "fingerprint_match": True,
        "inserts": inserts,
        "deletes": deletes,
        "median_insert_speedup_vs_serial": median_insert[
            "speedup_vs_serial"
        ],
    }


def serve_under_updates(
    n: int, workers: int, updates_to_publish: int, batch_size: int
) -> dict:
    """Serving p99 while a sustained update stream republishes snapshots.

    The PR 7 harness under a harsher schedule: ``workers`` driver
    threads saturate a :class:`~repro.serve.pool.SnapshotWorkerPool`
    for as long as the main thread keeps applying incremental inserts
    (:func:`~repro.diagram.maintenance.insert_point`) and republishing
    the snapshot — the query storm spans exactly ``updates_to_publish``
    republish cycles, however long those take on the host.  Every
    answer is cross-checked against the expected answers of exactly the
    generation it names — a mixed or stale-wrong answer fails the run —
    and the latency distribution is reported for the whole update
    storm.
    """
    import tempfile
    import threading

    from repro.diagram.maintenance import insert_point
    from repro.index.serialize import save_diagram
    from repro.serve.pool import SnapshotWorkerPool

    points = list(dataset("independent", n))
    diagram = quadrant_scanning(
        points, build_options=BuildOptions(executor="vectorized")
    )
    rng = random.Random(n + 1)
    queries = [(rng.random(), rng.random()) for _ in range(batch_size)]

    def envelope_sha(path: str) -> str:
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii")
        return header.split("sha256=")[1].split()[0]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snapshot.bin")
        save_diagram(diagram, path)
        expected = {
            envelope_sha(path): [tuple(r) for r in diagram.query_batch(queries)]
        }
        latencies: list[float] = []
        observed: list = []
        clock = time.perf_counter

        done = threading.Event()

        def worker_loop():
            while not done.is_set():
                start = clock()
                answers, generation = pool.query_batch(queries)
                latencies.append(clock() - start)
                observed.append((generation, answers))

        with SnapshotWorkerPool(path, workers=workers) as pool:
            pool.query_batch(queries)  # warm the pool before timing
            threads = [
                threading.Thread(target=worker_loop)
                for _ in range(workers)
            ]
            begin = clock()
            for thread in threads:
                thread.start()
            update_seconds = []
            for _ in range(updates_to_publish):
                p = (rng.random(), rng.random())
                start = clock()
                diagram = insert_point(diagram, p)
                update_seconds.append(clock() - start)
                save_diagram(diagram, path)
                expected[envelope_sha(path)] = [
                    tuple(r) for r in diagram.query_batch(queries)
                ]
            done.set()
            for thread in threads:
                thread.join()
            wall = clock() - begin
            updates = updates_to_publish
            # Poll (uncounted) until the last published generation is
            # demonstrably served, proving the stream swapped in.
            last = envelope_sha(path)
            for _ in range(100):
                answers, generation = pool.query_batch(queries)
                observed.append((generation, answers))
                if generation == last:
                    break

    generations = set()
    for generation, answers in observed:
        assert generation in expected, "answer from an unpublished generation"
        assert answers == expected[generation], (
            "served answer diverged from its generation"
        )
        generations.add(generation)
    assert len(generations) >= 2, (
        "update stream never swapped a new generation in under load"
    )

    total = len(latencies) * batch_size
    return {
        "n": n,
        "workers": workers,
        "batch_size": batch_size,
        "updates_published": updates,
        "generations_served": len(generations),
        "update_p50_s": _percentile(update_seconds, 0.50),
        "qps": total / wall,
        "batch_p50_s": _percentile(latencies, 0.50),
        "batch_p99_s": _percentile(latencies, 0.99),
        "query_p99_s": _percentile(latencies, 0.99) / batch_size,
        "answers_cross_checked": True,
    }


def spec_query_runtime(
    n: int, batch: int, plain_baseline_s: float | None = None
) -> dict:
    """Constrained/diversified batch latency vs the plain quadrant batch.

    All four arms run through ``SkylineDatabase.query_batch`` on one
    database, so the measured path is the refactored spec runtime
    (registry dispatch -> kernel, box clamp + one-sided filter for
    constrained, greedy max-min selection for diversified).  Batch
    answers are asserted equal to singles on a probe prefix first.
    ``plain_baseline_s`` is the PR 5 plain-quadrant batch time measured
    earlier in the same run (same machine, same n) — the recorded
    ratio is the QuerySpec refactor's overhead on the unspecced path,
    gated at 5% in CI.
    """
    from repro.index.engine import SkylineDatabase

    points = dataset("independent", n)
    # Same rng seed as query_runtime: the plain arm answers the very
    # query set the PR 5 baseline timed, on a database holding only the
    # quadrant diagram, so the ratio isolates the dispatch layer.
    rng = random.Random(batch)
    queries = [(rng.random(), rng.random()) for _ in range(batch)]
    db = SkylineDatabase(points)
    box = ((0.25, 0.25), (0.75, 0.75))
    arms = {
        "plain": dict(kind="quadrant"),
        "constrained": dict(kind="constrained", box=box),
        "diversified": dict(kind="diversified", k=2, diversify=3),
        "combined": dict(kind="constrained", k=2, box=box, diversify=2),
    }
    probe = queries[:64]
    timings = {}
    for label, kwargs in arms.items():
        db.query(probe[0], **kwargs)  # warm: builds are not query latency
        assert db.query_batch(probe, **kwargs) == [
            db.query(q, **kwargs) for q in probe
        ], f"{label} batch answers diverged from singles"
        # Timed immediately (plain first, before the skyband diagram of
        # the k>1 arms exists): with several n^2-cell diagrams live,
        # generational GC passes would bill the earlier arms for the
        # later arms' heap.
        gc.collect()
        timings[label] = time_call(
            lambda kw=kwargs: db.query_batch(queries, **kw), repeats=5
        )
    out = {
        "n": n,
        "queries": batch,
        "box": box,
        **{f"{label}_batch_s": s for label, s in timings.items()},
        **{
            f"{label}_per_query_s": s / batch
            for label, s in timings.items()
        },
        "constrained_overhead_vs_plain": (
            timings["constrained"] / timings["plain"]
        ),
        "diversified_overhead_vs_plain": (
            timings["diversified"] / timings["plain"]
        ),
    }
    if plain_baseline_s is not None:
        out["plain_baseline_s"] = plain_baseline_s
        out["plain_vs_baseline"] = timings["plain"] / plain_baseline_s
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / ".bench_build"
        / "BENCH_pr1.json",
        help="output JSON path; BENCH_pr4..pr9 land beside it "
        "(default: .bench_build/BENCH_pr1.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink the headline construction size (for CI smoke runs)",
    )
    parser.add_argument(
        "--assert-speedup",
        action="store_true",
        help="fail unless the vectorized executor builds strictly faster "
        "than serial at n=2000 (CI regression gate)",
    )
    args = parser.parse_args(argv)

    env = env_metadata()
    headline_n = 500 if args.quick else 2000
    payload = {
        "benchmark": "pr1-array-store-smoke",
        "timer": "best-of-N wall clock (time_call)",
        "env": env,
        "e1_construction_small": e1_construction_small((64, 128)),
        "e8_query_small": e8_lookup_small(256, 100),
        "headline": {
            "construction": headline_construction(headline_n),
            "batch_query": headline_batch_query(1024, 10_000),
        },
    }
    out = save_json(args.out, payload)

    pipeline = {
        "benchmark": "pr4-build-pipeline-smoke",
        "timer": "best-of-N wall clock (time_call)",
        "env": env,
        "executor": "process",
        "construction": pipeline_construction(
            headline_n, workers=max(2, os.cpu_count() or 1)
        ),
    }
    pr4_out = save_json(args.out.parent / "BENCH_pr4.json", pipeline)

    runtime = {
        "benchmark": "pr5-query-runtime-smoke",
        "timer": "best-of-N wall clock (time_call)",
        "env": env,
        "executor": "serial",
        "query_runtime": query_runtime(
            512 if args.quick else 1024, 1000 if args.quick else 10_000
        ),
    }
    pr5_out = save_json(args.out.parent / "BENCH_pr5.json", runtime)

    # Same n/batch as the PR 5 runtime arm, and measured immediately
    # after it: the plain-vs-baseline ratio is only meaningful when
    # both sides run under the same process state (the serving and
    # update arms below churn the heap enough to skew a best-of-5 by
    # 20% on their own).
    spec_smoke = {
        "benchmark": "pr9-query-spec-smoke",
        "timer": "best-of-N wall clock (time_call)",
        "env": env,
        "spec_query_runtime": spec_query_runtime(
            512 if args.quick else 1024,
            1000 if args.quick else 10_000,
            plain_baseline_s=runtime["query_runtime"]["batch_s"],
        ),
    }
    pr9_out = save_json(args.out.parent / "BENCH_pr9.json", spec_smoke)

    # The vectorized arms run at n=2000 even under --quick: the CI
    # speedup gate is defined at that size and the build is fast enough.
    vector_arms = [vectorized_construction(2000)]
    if not args.quick:
        vector_arms.append(vectorized_construction(10_000, domain=1024))
    vectorized = {
        "benchmark": "pr6-vectorized-executor-smoke",
        "timer": "best-of-N wall clock (time_call); "
        "per-query perf_counter samples for the latency distribution",
        "env": env,
        "executor": "vectorized",
        "construction": vector_arms,
        "fused_query": fused_single_query(
            2000, 2_000 if args.quick else 20_000
        ),
    }
    pr6_out = save_json(args.out.parent / "BENCH_pr6.json", vectorized)

    # The serving arms run at n=2000 even under --quick: the 5x size
    # gate and the qps/p99 numbers are defined at that size.
    serving = {
        "benchmark": "pr7-serving-smoke",
        "timer": "wall clock per batch (perf_counter); "
        "best-of-N for the save arms",
        "env": env,
        "snapshot": snapshot_size(2000),
        "serving": serve_throughput(
            2000,
            workers=2,
            batches_per_thread=10 if args.quick else 40,
            batch_size=64,
        ),
    }
    pr7_out = save_json(args.out.parent / "BENCH_pr7.json", serving)

    # Update arms: n=2000 always; the n=10k panel (where the 5x
    # single-point expectation is defined) only on full runs.
    update_arms = [update_vs_rebuild(2000, domain=1024)]
    if not args.quick:
        update_arms.append(update_vs_rebuild(10_000, domain=1024))
    updates = {
        "benchmark": "pr8-streaming-updates-smoke",
        "timer": "best-of-N wall clock (time_call); "
        "per-batch perf_counter for the serving distribution",
        "env": env,
        "update_vs_rebuild": update_arms,
        # The query storm spans exactly this many republish cycles (one
        # incremental update + republish costs ~1.5s at n=2000), so the
        # stream is sustained regardless of how fast the pool drains.
        "serving_under_updates": serve_under_updates(
            2000,
            workers=2,
            updates_to_publish=2 if args.quick else 5,
            batch_size=64,
        ),
    }
    pr8_out = save_json(args.out.parent / "BENCH_pr8.json", updates)

    cons = payload["headline"]["construction"]
    batch = payload["headline"]["batch_query"]
    pipe = pipeline["construction"]
    run = runtime["query_runtime"]
    print(f"wrote {out}")
    print(f"wrote {pr4_out}")
    print(f"wrote {pr5_out}")
    print(f"wrote {pr6_out}")
    print(
        f"pipeline n={pipe['n']} (cpus={pipe['cpu_count']}): "
        f"serial {pipe['serial_s']:.2f}s vs process[{pipe['workers']}] "
        f"{pipe['process_s']:.2f}s ({pipe['speedup']:.2f}x, "
        f"fingerprints match)"
    )
    print(
        f"construction n={cons['n']}: store {cons['array_store_s']:.2f}s "
        f"vs dict {cons['dict_reference_s']:.2f}s "
        f"({cons['speedup']:.2f}x)"
    )
    print(
        f"batch query n={batch['n']}, {batch['queries']} queries: "
        f"batch {batch['batch_s'] * 1e3:.1f}ms vs per-point "
        f"{batch['per_point_s'] * 1e3:.1f}ms ({batch['speedup']:.2f}x, "
        f"{batch['batch_queries_per_s']:.0f} q/s)"
    )
    print(
        f"query runtime n={run['n']}, {run['queries']} queries: "
        f"single {run['single_s'] * 1e3:.1f}ms vs batch "
        f"{run['batch_s'] * 1e3:.1f}ms ({run['batch_speedup']:.2f}x); "
        f"degraded {run['degraded_per_query_s'] * 1e6:.0f}us/query "
        f"over {run['degraded_queries']} queries"
    )
    for arm in vector_arms:
        domain = arm["domain"] if arm["domain"] is not None else "continuous"
        print(
            f"vectorized build n={arm['n']} ({domain}): "
            f"serial {arm['serial_s']:.2f}s vs vectorized "
            f"{arm['vectorized_s']:.2f}s ({arm['speedup']:.2f}x, "
            f"fingerprints match)"
        )
    fused = vectorized["fused_query"]
    print(
        f"fused query n={fused['n']}, {fused['queries']} queries: "
        f"p50 {fused['single_p50_s'] * 1e6:.2f}us, "
        f"p99 {fused['single_p99_s'] * 1e6:.2f}us single; "
        f"batch {fused['batch_per_query_s'] * 1e6:.2f}us/query"
    )
    print(f"wrote {pr7_out}")
    snap = serving["snapshot"]
    print(
        f"snapshot n={snap['n']}: binary {snap['binary_bytes'] / 1e6:.1f}MB "
        f"in {snap['binary_save_s']:.2f}s vs json "
        f"{snap['json_bytes'] / 1e6:.1f}MB in {snap['json_save_s']:.2f}s "
        f"({snap['size_ratio']:.2f}x smaller)"
    )
    for label, key in (("steady", "steady"), ("swap", "rebuild_and_swap")):
        srv = serving["serving"][key]
        print(
            f"serving[{label}] {serving['serving']['workers']} workers: "
            f"{srv['qps']:.0f} q/s, batch p50 "
            f"{srv['batch_p50_s'] * 1e3:.1f}ms / p99 "
            f"{srv['batch_p99_s'] * 1e3:.1f}ms "
            f"({serving['serving']['batch_size']} queries/batch)"
        )
    print(f"wrote {pr8_out}")
    for arm in update_arms:
        parts = ", ".join(
            f"q{int(ins['quantile'] * 100):02d} "
            f"{ins['update_s'] * 1e3:.0f}ms "
            f"({ins['speedup_vs_serial']:.1f}x)"
            for ins in arm["inserts"]
        )
        print(
            f"update n={arm['n']} (domain={arm['domain']}): serial rebuild "
            f"{arm['serial_rebuild_s']:.2f}s; insert {parts} "
            f"(fingerprints match)"
        )
        parts = ", ".join(
            f"q{int(dl['quantile'] * 100):02d} "
            f"{dl['update_s'] * 1e3:.0f}ms "
            f"({dl['speedup_vs_serial']:.1f}x)"
            for dl in arm["deletes"]
        )
        print(f"  delete {parts}")
    upd = updates["serving_under_updates"]
    print(
        f"serving under updates n={upd['n']}: {upd['qps']:.0f} q/s, "
        f"batch p50 {upd['batch_p50_s'] * 1e3:.1f}ms / p99 "
        f"{upd['batch_p99_s'] * 1e3:.1f}ms across "
        f"{upd['updates_published']} republishes "
        f"({upd['generations_served']} generations served, "
        f"answers cross-checked)"
    )
    print(f"wrote {pr9_out}")
    spec = spec_smoke["spec_query_runtime"]
    print(
        f"spec batch n={spec['n']}, {spec['queries']} queries: "
        f"plain {spec['plain_batch_s'] * 1e3:.1f}ms "
        f"({spec['plain_vs_baseline']:.2f}x of the pr5 baseline), "
        f"constrained {spec['constrained_batch_s'] * 1e3:.1f}ms "
        f"({spec['constrained_overhead_vs_plain']:.2f}x), "
        f"diversified {spec['diversified_batch_s'] * 1e3:.1f}ms "
        f"({spec['diversified_overhead_vs_plain']:.2f}x), "
        f"combined {spec['combined_batch_s'] * 1e3:.1f}ms"
    )
    if args.assert_speedup:
        ratio = spec["plain_vs_baseline"]
        assert ratio <= 1.05, (
            f"QuerySpec refactor regressed the plain quadrant batch: "
            f"{ratio:.3f}x of the baseline measured this run (gate 1.05)"
        )
        print(
            f"spec gate: plain quadrant batch at {ratio:.2f}x of its "
            f"pre-spec baseline (pass, gate 1.05)"
        )
        gate = vector_arms[0]
        assert gate["vectorized_s"] < gate["serial_s"], (
            f"vectorized executor regression: {gate['vectorized_s']:.3f}s "
            f"is not faster than serial {gate['serial_s']:.3f}s at "
            f"n={gate['n']}"
        )
        print(
            f"speedup gate: vectorized {gate['speedup']:.2f}x faster "
            f"than serial at n={gate['n']} (pass)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
