"""``update``: writes beside ``lookup``'s reads, at n=300.

Store, maintenance and fingerprint work that ``lookup`` never does.
Only the ``quadrant`` mask-0 diagram is maintained incrementally (every
other kind is dropped and rebuilt lazily), so that is the one prebuilt.
Phase 1 alternates single inserts and deletes, each one
``apply_update`` with flush followed by one probe read; inserts and
deletes are timed separately because their costs differ ~3x and a
median over the mix would fall in the gap.  Phase 2 journals bursts of
8 ops with ``flush=False`` and applies each burst with one
``flush_updates()`` — the ``apply_ops`` union re-scan path.
"""

from __future__ import annotations

import random
import statistics
import time

from common import Result, peak_rss_mb, percentile, provenance

N = 300
SETUPS = 5
BURST = 8
SINGLE_SHARE = 0.7
GOLDEN = (5 ** 0.5 - 1) / 2
PARAMS = {
    "distribution": "independent", "n": N, "dim": 2, "setups": SETUPS,
    "precompute": ["quadrant"], "burst": BURST, "single_share": SINGLE_SHARE,
}


def make_points(seed: int):
    from repro.datasets.generators import generate

    return generate("independent", N, dim=2, seed=seed)


def build(points):
    from repro import SkylineDatabase

    start = time.perf_counter()
    db = SkylineDatabase(points, precompute=("quadrant",))
    return db, time.perf_counter() - start


def spread(offset: float, k: int) -> float:
    """The k-th point of an evenly spread sequence in [0, 1) (golden ratio)."""
    return (offset + k * GOLDEN) % 1.0


def single_phase(db, rng, seconds, result, tracer=None):
    """Alternate insert / delete + probe; returns {op: [latency ns]}.

    An op's cost grows with the grid rows below its point, so inserted
    points take evenly spread y values and deletes take the victim at an
    evenly spread y-rank (x and the offsets are seeded): a median over
    ~100 ops then does not swing with which rows the random draws hit.
    """
    clock = time.perf_counter_ns
    latencies = {"insert": [], "delete": []}
    offsets = (rng.random(), rng.random())
    deadline = clock() + int(seconds * 1e9)
    i = 0
    while clock() < deadline or i % 2:
        op = "insert" if i % 2 == 0 else "delete"
        if op == "insert":
            value = (rng.random(), spread(offsets[0], i // 2))
        else:
            points = db.dataset.points
            by_y = sorted(range(len(points)), key=lambda j: points[j][1])
            value = by_y[int(spread(offsets[1], i // 2) * len(points))]
        probe = (rng.random(), rng.random())
        if tracer is not None:
            tracer.op = i
        start = clock()
        outcome = db.apply_update(op, value)
        answer = db.query(probe, kind="quadrant")
        latencies[op].append(clock() - start)
        if outcome.get("applied") != 1:
            result.fail(f"{op} not applied: {outcome}")
        check_probe(result, db, probe, answer)
        i += 1
    result.attempted += i
    return latencies


def burst_phase(db, rng, seconds, result, tracer=None):
    """Bursts of journalled ops, each applied by one flush; returns ns list."""
    clock = time.perf_counter_ns
    times = []
    deadline = clock() + int(seconds * 1e9)
    while clock() < deadline:
        base = len(db.dataset)
        ops = []
        for k in range(BURST):
            if k % 2 == 0:
                ops.append(("insert", (rng.random(), rng.random())))
            else:
                # An id among the applied points never names the burst's
                # own pending insert, so nothing coalesces away.
                ops.append(("delete", rng.randrange(base - k // 2)))
        probe = (rng.random(), rng.random())
        if tracer is not None:
            tracer.op = len(times)
        start = clock()
        for op, value in ops:
            db.apply_update(op, value, flush=False)
        outcome = db.flush_updates()
        times.append(clock() - start)
        result.attempted += BURST
        if outcome.get("applied") != BURST:
            result.fail(f"burst not applied: {outcome}")
        check_probe(result, db, probe, db.query(probe, kind="quadrant"))
    return times


def check_probe(result, db, probe, answer):
    truth = db.query_from_scratch(probe, kind="quadrant")
    if answer != truth:
        result.fail(f"probe {probe}: {answer[:5]} != scratch {truth[:5]}")


def check_fresh(result, db):
    """The maintained ``quadrant:0`` store must equal a fresh build's."""
    from repro import SkylineDatabase

    maintained = db.quadrant_diagram(0).store.fingerprint()
    fresh = SkylineDatabase(db.dataset.points, precompute=("quadrant",))
    result.attempted += 1
    if fresh.quadrant_diagram(0).store.fingerprint() != maintained:
        result.fail("maintained quadrant:0 fingerprint != fresh build")


def run(seed: int, seconds: float, scratch=None) -> Result:
    result = Result()
    points = make_points(seed)
    times = []
    for _ in range(SETUPS):
        db, elapsed = build(points)
        times.append(elapsed)
    report = db.quadrant_diagram(0).build_report.as_dict()
    rng = random.Random(seed)
    try:
        single = single_phase(db, rng, seconds * SINGLE_SHARE, result)
        bursts = burst_phase(db, rng, seconds * (1 - SINGLE_SHARE), result)
    except Exception as exc:  # an error is a failed op, not a crash
        result.attempted += 1
        result.fail(f"{type(exc).__name__}: {exc}")
        return result
    check_fresh(result, db)
    result.metric("setup_s", statistics.median(times), "s")
    result.metric("op_p50_us", percentile(single["insert"], 50) / 1e3, "us")
    result.metric("op2_p50_us", percentile(single["delete"], 50) / 1e3, "us")
    result.metric("throughput_per_s", len(bursts) * BURST / (sum(bursts) / 1e9), "1/s")
    result.metric("store_mb", db.quadrant_diagram(0).store.nbytes / 1e6, "MB")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    result.record = {
        "workload": "update",
        "provenance": provenance(seed, PARAMS, report),
        "setup_s_each": times,
        "inserts": len(single["insert"]), "deletes": len(single["delete"]),
        "insert_p90_us": percentile(single["insert"], 90) / 1e3,
        "delete_p90_us": percentile(single["delete"], 90) / 1e3,
        "bursts": len(bursts),
        "final_n": len(db.dataset),
    }
    return result
