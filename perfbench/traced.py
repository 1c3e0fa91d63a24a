"""The traced run: per-layer metrics of the lookup, update and serve paths.

Every ``--workload`` traces all three paths, so every per-layer metric
is in every traced run.  The lookup and update layers are the same for
each workload; the serve layers run on the workload's data (independent
for ``serve_indep``, anticorrelated otherwise).  Each path's inputs and
phases are the ones its end-to-end run uses (imported from its module),
run once untraced and once with span wrappers around the public entry
points of every layer it crosses.  The difference between the two is
reported as the tracing overhead.  For one representative operation per
path the layer self times are summed and compared with the operation's
time; a gap over 10% counts as a failed check.
"""

from __future__ import annotations

import json
import time

import lookup
import serve
import update
from common import Result, percentile
from tracing import Span, Tracer, covered_ns

WATERFALL_TOLERANCE = 0.10


def install_query_wrappers(tracer: Tracer) -> None:
    import repro.index.engine as engine
    from repro import SkylineDatabase
    from repro.diagram.store import ResultStore
    from repro.geometry.grid import Grid
    from repro.query.kernel import QueryKernel
    from repro.query.metrics import MetricsRegistry
    from repro.query.planner import QueryPlanner

    tracer.wrap(SkylineDatabase, "__init__", "engine.init")
    tracer.wrap(engine, "quadrant_scanning", "pipeline.build")
    tracer.wrap(ResultStore, "fingerprint", "store.fingerprint")
    tracer.wrap(SkylineDatabase, "query", "engine.query")
    tracer.wrap(SkylineDatabase, "query_batch", "engine.query_batch")
    tracer.wrap(QueryPlanner, "plan", "planner.plan")
    tracer.wrap(QueryPlanner, "execute", "planner.execute")
    tracer.wrap(QueryKernel, "query", "kernel.query")
    tracer.wrap(ResultStore, "result_tuple", "store.result_tuple")
    tracer.wrap(MetricsRegistry, "observe_query", "metrics.observe_query")
    tracer.wrap(Grid, "locate_batch", "grid.locate_batch")
    tracer.wrap(ResultStore, "lookup_batch", "store.lookup_batch")


def install_update_wrappers(tracer: Tracer) -> None:
    import repro.index.engine as engine
    from repro import SkylineDatabase

    def rows(args, diagram):
        return diagram.build_report.rows_scanned / diagram.store.backend.num_rows

    tracer.wrap(SkylineDatabase, "apply_update", "engine.apply_update")
    tracer.wrap(SkylineDatabase, "flush_updates", "engine.flush_updates")
    tracer.wrap(engine, "insert_point", "maintenance.insert_point", data=rows)
    tracer.wrap(engine, "delete_point", "maintenance.delete_point", data=rows)
    tracer.wrap(engine, "apply_ops", "maintenance.apply_ops")


def waterfall(result: Result, label: str, parts: dict, total_ns: float) -> dict:
    """Layer self times of one op against its traced time (10% tolerance)."""
    summed = sum(parts.values())
    share = summed / total_ns if total_ns else 0.0
    if abs(1 - share) > WATERFALL_TOLERANCE:
        result.fail(f"{label}: layer self times sum to {share:.3f} of the op")
    return {
        "op_us": total_ns / 1e3,
        "sum_us": summed / 1e3,
        "share": share,
        "self_us": {name: ns / 1e3 for name, ns in sorted(parts.items())},
    }


def median_index(latencies) -> int:
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    return order[len(order) // 2]


def lookup_layers(seed: int, seconds: float, result: Result, out: dict) -> dict:
    points, stream = lookup.make_inputs(seed)
    tracer = Tracer()
    install_query_wrappers(tracer)
    tracer.phase = "lookup.setup"
    db, _ = lookup.build(points)
    reader = lookup.Reader(db, stream)
    tracer.phase = "lookup.single"
    traced = reader.run_singles(seconds / 4, tracer)
    tracer.phase = "lookup.batch"
    btraced = reader.run_batches(seconds / 4, tracer)
    tracer.restore()
    plain = reader.run_singles(seconds / 4)
    reader.run_batches(seconds / 4)
    result.attempted += len(traced) + len(btraced) * lookup.CHUNK
    lookup.check(result, db, reader, seed)

    single = tracer.layer_stats("lookup.single")
    for name in ("engine.query", "planner.plan", "planner.execute", "kernel.query",
                 "store.result_tuple", "metrics.observe_query"):
        self_ns, _, calls = single[name]
        out[f"{name}.self_us"] = (self_ns / 1e3, "us", calls)
    out["planner.plan.calls_per_query"] = (
        single["planner.plan"][2] / len(traced), "count", single["planner.plan"][2])
    batch = tracer.layer_stats("lookup.batch")
    queries = len(btraced) * lookup.CHUNK
    self_ns, _, calls = batch["engine.query_batch"]
    out["engine.query_batch.self_us_per_query"] = (self_ns * calls / queries / 1e3, "us", calls)
    for name in ("grid.locate_batch", "store.lookup_batch"):
        _, dur_ns, calls = batch[name]
        out[f"{name}.us_per_query"] = (dur_ns * calls / queries / 1e3, "us", calls)
    setup = tracer.layer_stats("lookup.setup")
    out["store.fingerprint_s"] = (setup["store.fingerprint"][1] / 1e9, "s",
                                  setup["store.fingerprint"][2])
    out["engine.init.self_s"] = (setup["engine.init"][0] / 1e9, "s", setup["engine.init"][2])
    diagram = db.quadrant_diagram(0)
    for phase in ("rank_space", "row_scan", "intern", "assemble"):
        out[f"pipeline.{phase}_s"] = (diagram.build_report.phases[phase], "s", 1)
    store = diagram.store
    grid = store.backend.nbytes()
    out["store.grid_mb"] = (grid / 1e6, "MB", 1)
    out["store.table_mb"] = ((store.nbytes - grid) / 1e6, "MB", 1)
    out["store.distinct_results"] = (store.distinct_count, "count", 1)
    out["trace_overhead.lookup_us"] = (
        (percentile(traced, 50) - percentile(plain, 50)) / 1e3, "us", len(traced))
    op = median_index(traced)
    return waterfall(result, "lookup single query",
                     tracer.op_selfs("lookup.single", op), traced[op])


def update_layers(seed: int, seconds: float, result: Result, out: dict) -> dict:
    import random

    points = update.make_points(seed)
    db, _ = update.build(points)
    rng = random.Random(seed)
    plain = update.single_phase(db, rng, seconds / 4, result)
    tracer = Tracer()
    install_query_wrappers(tracer)
    install_update_wrappers(tracer)
    tracer.phase = "update.single"
    traced = update.single_phase(db, rng, seconds / 4, result, tracer)
    tracer.phase = "update.burst"
    bursts = update.burst_phase(db, rng, seconds / 4, result, tracer)
    tracer.restore()
    update.check_fresh(result, db)

    single = tracer.layer_stats("update.single")
    for name in ("maintenance.insert_point", "maintenance.delete_point"):
        _, dur_ns, calls = single[name]
        out[f"{name}.ms"] = (dur_ns / 1e6, "ms", calls)
    shares = [s.data for s in tracer.spans
              if s.phase == "update.single" and s.name.startswith("maintenance.")]
    out["maintenance.rows_scanned_share"] = (sum(shares) / len(shares), "ratio", len(shares))
    burst = tracer.layer_stats("update.burst")
    _, dur_ns, calls = burst["maintenance.apply_ops"]
    out["maintenance.apply_ops.ms_per_burst"] = (dur_ns / 1e6, "ms", calls)
    _, dur_ns, calls = single["store.fingerprint"]
    out["store.fingerprint.ms_per_generation"] = (dur_ns / 1e6, "ms", calls)
    for name in ("engine.apply_update", "engine.flush_updates"):
        self_ns, _, calls = single[name]
        out[f"{name}.self_ms"] = (self_ns / 1e6, "ms", calls)
    ops = traced["insert"] + traced["delete"]
    out["trace_overhead.update_ms"] = (
        (percentile(ops, 50) - percentile(plain["insert"] + plain["delete"], 50)) / 1e6,
        "ms", len(ops))
    # Ops alternate insert (even op ids) and delete (odd); take the
    # median insert.
    k = median_index(traced["insert"])
    return waterfall(result, "update insert op",
                     tracer.op_selfs("update.single", 2 * k), traced["insert"][k])


def load_spans(path) -> list[Span]:
    spans = []
    for name, start, end, sid, parent, data in json.loads(path.read_text()):
        spans.append(Span(sid, name, parent, 0, "", start, end, data))
    return spans


def serve_layers(seed: int, seconds: float, scratch, result: Result, out: dict,
                 distribution: str) -> dict:
    points, csv_path, stream = serve.make_inputs(seed, scratch, distribution)
    snapshot, report = scratch / "snapshot.bin", scratch / "report.json"
    build_spans, server_spans = scratch / "build_spans.json", scratch / "server_spans.json"
    serve.build(csv_path, snapshot, report, spans=build_spans)
    diagram, sha = serve.map_snapshot(snapshot)
    expected = diagram.query_batch(stream)
    serve.check_oracle(result, points, stream, expected, seed)

    server = serve.Server(snapshot)
    try:
        plain = serve.open_loop(server, stream, 0, seconds / 4)
        server.shutdown()
        server = serve.Server(snapshot, spans=server_spans)
        ol = serve.open_loop(server, stream, 0, seconds / 4)
        health = server.call({"op": "health", "id": -2})["health"]["batcher"]
        n_open = len(ol["due"])
        cl = serve.closed_loop(server, stream, n_open, seconds / 4)
        server.shutdown()
    finally:
        server.stop()
    for phase in (plain, ol):
        n = len(phase["due"])
        serve.check_replies(result, phase["replies"], [i % serve.STREAM for i in range(n)],
                            expected, sha)
        result.attempted += n
    ids = sorted(cl["sent"])
    serve.check_replies(result, [cl["replies"].get(i) for i in ids],
                        [(n_open + i) % serve.STREAM for i in ids], expected, sha)
    result.attempted += len(ids)

    (save,) = [s for s in load_spans(build_spans) if s.name == "serialize.save_diagram"]
    out["serialize.save_diagram_s"] = (save.duration / 1e9, "s", 1)
    spans = load_spans(server_spans)
    (start,) = [s for s in spans if s.name == "pool.start"]
    mapped = [s for s in spans if s.name == "serialize.map_diagram" and s.parent == start.sid]
    out["serialize.map_diagram_s"] = (mapped[0].duration / 1e9, "s", len(mapped))
    out["pool.start_s"] = (
        (start.duration - covered_ns(start.start, start.end,
                                     [(m.start, m.end) for m in mapped])) / 1e9, "s", 1)

    # Open loop: join each client request to its server.respond and
    # batcher.submit spans and to the pool.query_batch span of the batch
    # it rode, by its query.
    def in_window(span, phase):
        return phase["start"] - 10_000_000 <= span.start <= phase["end"]

    def by_query(name):
        return {tuple(s.data): s for s in spans
                if s.name == name and s.data is not None and in_window(s, ol)}

    responds, submits = by_query("server.respond"), by_query("batcher.submit")
    batch_of = {}
    for s in spans:
        if s.name == "pool.query_batch" and in_window(s, ol):
            for q in s.data:
                batch_of[tuple(q)] = s
    parts = []  # (client latency, respond, submit, pool) in ns
    for i in range(n_open):
        q = tuple(stream[i % serve.STREAM])
        resp, sub, batch = responds.get(q), submits.get(q), batch_of.get(q)
        if resp is None or sub is None or batch is None or not ol["recv"][i]:
            result.fail(f"open-loop request {i}: no server spans")
            continue
        parts.append((ol["recv"][i] - ol["sent"][i], resp.duration,
                      covered_ns(resp.start, resp.end, [(sub.start, sub.end)]),
                      covered_ns(sub.start, sub.end, [(batch.start, batch.end)])))

    def mean_us(values):
        return sum(values) / len(values) / 1e3

    out["batcher.submit.self_us"] = (mean_us([s - p for _, _, s, p in parts]), "us", len(parts))
    out["server.self_us"] = (mean_us([c - s for c, _, s, _ in parts]), "us", len(parts))
    out["server.respond.self_us"] = (mean_us([r - s for _, r, s, _ in parts]), "us", len(parts))
    out["batcher.mean_batch"] = (health["mean_batch"], "count", health["batches"])
    out["batcher.timer_flush_share"] = (
        health["timer_flushes"] / health["batches"], "ratio", health["batches"])
    late = [(s - d) / 1e3 for d, s in zip(ol["due"], ol["sent"])]
    out["client.late_p90_us"] = (percentile(late, 90), "us", len(late))
    latency = [(r - d) for d, r in zip(ol["due"], ol["recv"]) if r]
    plain_latency = [(r - d) for d, r in zip(plain["due"], plain["recv"]) if r]
    out["trace_overhead.serve_us"] = (
        (percentile(latency, 50) - percentile(plain_latency, 50)) / 1e3, "us", len(latency))

    # Closed loop: the pool round trip per batch, and the worker's share
    # replayed in-process at the observed mean batch size.
    batches = [s for s in spans if s.name == "pool.query_batch" and in_window(s, cl)]
    out["pool.query_batch.us"] = (
        sum(s.duration for s in batches) / len(batches) / 1e3, "us", len(batches))
    size = max(1, round(sum(len(s.data) for s in batches) / len(batches)))
    out["worker.query_batch.us_per_query"] = (worker_replay(snapshot, stream, size), "us", size)

    # The layers are spans measured inside the server; the op is the
    # latency the client saw, so the gap is TCP and the event loop's
    # time before the request's task starts.
    client, resp_ns, sub_ns, pool_ns = parts[median_index([p[0] for p in parts])]
    return waterfall(result, "serve request", {
        "server.respond": resp_ns - sub_ns, "batcher.submit": sub_ns - pool_ns,
        "pool.query_batch": pool_ns}, client)


def worker_replay(snapshot, stream, size: int, seconds: float = 0.5) -> float:
    """``diagram.query_batch`` on a freshly refreshed snapshot, us per query."""
    from repro.serve.snapshot import SnapshotManager

    diagram = SnapshotManager(str(snapshot)).refresh().diagram
    chunks = [stream[i:i + size] for i in range(0, len(stream) - size, size)]
    done = 0
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while time.perf_counter_ns() < deadline:
        diagram.query_batch(chunks[done % len(chunks)])
        done += 1
    return (time.perf_counter_ns() - start) / (done * size) / 1e3


def run(workload: str, seed: int, seconds: float, scratch) -> Result:
    """Every per-layer metric: lookup and update layers are the same for
    every workload; the serve layers run on the workload's data."""
    result = Result()
    layers: dict[str, tuple[float, str, int]] = {}
    share = seconds / 3
    distribution = "independent" if workload == "serve_indep" else "anticorrelated"
    waterfalls = {
        "lookup": lookup_layers(seed, share, result, layers),
        "update": update_layers(seed, share, result, layers),
        "serve": serve_layers(seed, share, scratch, result, layers, distribution),
    }
    for name, (value, unit, calls) in layers.items():
        result.metric(name, value, unit, calls)
    result.record = {"workload": workload, "serve_distribution": distribution,
                     "waterfalls": waterfalls}
    return result
