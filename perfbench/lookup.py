"""``lookup``: the production read path at n=2000.

``SkylineDatabase`` -> ``QueryPlanner`` -> ``QueryKernel`` ->
``ResultStore``.  Single ``db.query`` calls are dominated by per-call
engine and planner overhead; the same query stream through
``db.query_batch`` in 1024-query chunks amortizes that overhead away and
is dominated by kernel and store work — each phase is the other's
bypass.  The quadrant diagram's 16 MB id grid plus its ~1M-entry result
table are larger than L2.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

from common import Result, peak_rss_mb, percentile, provenance

N = 2000
SETUPS = 3
STREAM = 1 << 17
CHUNK = 1024
SCRATCH_SAMPLE = 50
SLICE_S = 1.0
PARAMS = {
    "distribution": "independent", "n": N, "dim": 2, "setups": SETUPS,
    "precompute": ["quadrant"], "stream": STREAM, "chunk": CHUNK,
    "scratch_sample": SCRATCH_SAMPLE, "slice_s": SLICE_S,
}


def make_inputs(seed: int):
    from repro.datasets.generators import generate

    points = generate("independent", N, dim=2, seed=seed)
    lo = [min(p[d] for p in points) for d in range(2)]
    hi = [max(p[d] for p in points) for d in range(2)]
    rng = random.Random(seed)
    stream = [
        (rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]))
        for _ in range(STREAM)
    ]
    return points, stream


def build(points):
    from repro import SkylineDatabase

    start = time.perf_counter()
    db = SkylineDatabase(points, precompute=("quadrant",))
    return db, time.perf_counter() - start


class Reader:
    """One caller in a closed loop over the query stream, in timed slices.

    Answers are kept per stream position (singles) and per chunk
    (batches) for the checks; each slice continues where the last one
    stopped.
    """

    def __init__(self, db, stream) -> None:
        self.db = db
        self.stream = stream
        self.chunks = [stream[i:i + CHUNK] for i in range(0, STREAM, CHUNK)]
        self.singles = [None] * STREAM
        self.batched = [None] * len(self.chunks)
        self.next_single = 0
        self.next_chunk = 0

    def run_singles(self, seconds, tracer=None) -> list[int]:
        """Single ``db.query`` calls for ``seconds``; latencies in ns."""
        query, stream, answers = self.db.query, self.stream, self.singles
        clock = time.perf_counter_ns
        latencies = []
        deadline = clock() + int(seconds * 1e9)
        i = self.next_single
        while True:
            if i % 256 == 0 and clock() >= deadline:
                break
            if tracer is not None:
                tracer.op = i
            start = clock()
            answer = query(stream[i % STREAM], kind="quadrant")
            latencies.append(clock() - start)
            answers[i % STREAM] = answer
            i += 1
        self.next_single = i
        return latencies

    def run_batches(self, seconds, tracer=None) -> list[int]:
        """1024-query ``db.query_batch`` calls for ``seconds``; ns per call."""
        query_batch, chunks = self.db.query_batch, self.chunks
        clock = time.perf_counter_ns
        latencies = []
        deadline = clock() + int(seconds * 1e9)
        k = self.next_chunk
        while clock() < deadline:
            if tracer is not None:
                tracer.op = k
            start = clock()
            answer = query_batch(chunks[k % len(chunks)], kind="quadrant")
            latencies.append(clock() - start)
            self.batched[k % len(chunks)] = answer
            k += 1
        self.next_chunk = k
        return latencies


def check(result: Result, db, reader: Reader, seed: int) -> None:
    """Singles vs batches everywhere both ran; a seeded sample vs scratch."""
    batched = {}
    for k, answers in enumerate(reader.batched):
        if answers is not None:
            for j, answer in enumerate(answers):
                batched[k * CHUNK + j] = answer
    answered = []
    for i, answer in enumerate(reader.singles):
        if answer is not None:
            answered.append(i)
            other = batched.get(i)
            if other is not None and other != answer:
                result.fail(f"single/batch disagree at query {i}")
    rng = random.Random(seed + 1)
    sample = rng.sample(sorted(set(answered) | set(batched)), SCRATCH_SAMPLE)
    for i in sample:
        truth = db.query_from_scratch(reader.stream[i], kind="quadrant")
        for got in (reader.singles[i], batched.get(i)):
            if got is not None and got != truth:
                result.fail(f"query {i}: {got[:5]} != scratch {truth[:5]}")


def run(seed: int, seconds: float, scratch=None) -> Result:
    """Set up SETUPS times; query each database for a share of the time.

    Singles and batches alternate in 1-s slices, and every database
    built gets its share, so both phases sample the whole run — the host's
    speed moves by tens of percent over seconds — and several processes'
    worth of memory placement.
    """
    result = Result()
    points, stream = make_inputs(seed)
    times, windows = [], []
    db = reader = None
    slices = max(1, round(seconds / (2 * SLICE_S * SETUPS)))
    try:
        for _ in range(SETUPS):
            db = reader = None  # one database alive at a time
            gc.collect()
            db, elapsed = build(points)
            times.append(elapsed)
            reader = Reader(db, stream)
            for _ in range(slices):
                windows.append((reader.run_singles(SLICE_S),
                                reader.run_batches(SLICE_S)))
            check(result, db, reader, seed)
    except Exception as exc:  # an error is a failed op, not a crash
        result.attempted += 1
        result.fail(f"{type(exc).__name__}: {exc}")
        return result
    lat1 = [x for w in windows for x in w[0]]
    lat2 = [x for w in windows for x in w[1]]
    result.attempted = len(lat1) + len(lat2) * CHUNK
    store = db.quadrant_diagram(0).store
    report = db.quadrant_diagram(0).build_report.as_dict()
    result.metric("setup_s", statistics.median(times), "s")
    result.metric("op_p50_us", percentile(lat1, 50) / 1e3, "us")
    result.metric("op2_p50_us", percentile(lat2, 50) / 1e3, "us")
    result.metric("throughput_per_s", len(lat2) * CHUNK / (sum(lat2) / 1e9), "1/s")
    result.metric("store_mb", store.nbytes / 1e6, "MB")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    result.record = {
        "workload": "lookup",
        "provenance": provenance(seed, PARAMS, report),
        "setup_s_each": times,
        "single": {"count": len(lat1), "p90_us": percentile(lat1, 90) / 1e3,
                   "p99_us": percentile(lat1, 99) / 1e3},
        "batch": {"chunks": len(lat2), "chunk_p90_us": percentile(lat2, 90) / 1e3},
        "window_p50_us": [[percentile(a, 50) / 1e3, percentile(b, 50) / 1e3]
                          for a, b in windows],
    }
    return result
