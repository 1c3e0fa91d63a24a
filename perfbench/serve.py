"""``serve``: TCP -> ``QueryBatcher`` -> ``SnapshotWorkerPool`` -> mmap.

Never touches the engine or the planner.  Two workloads run it:
``serve`` on anticorrelated data (n=1000), whose longer answers load the
encode and pipe layers, and ``serve_indep`` on independent data of the
same size, whose answers are about half as long — the bypass for a
change to those layers.  Set-up is ``repro build`` with default options, then
``repro serve --workers 1`` with its other flags at their defaults.
One client process drives one connection per phase: an open loop at a
fixed 1000 req/s timed from each request's due time, then a closed loop
with 32 requests pipelined in flight.  One worker and 32 in flight
(below ``--max-batch`` 64) keep the busy processes — client, server,
worker — within two CPUs; there is deliberately no saturating phase.
The open-loop rate is about a sixth of what the server sustains in the
closed loop, so the open loop stays far from saturation even while the
host runs slow; at 2000 req/s some servers queued, and their open-loop
p50 rose from ~3 ms to 5-11 ms.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import random
import select
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import HERE, Result, percentile, proc_peak_rss_mb, provenance

N = 1000
SETUPS = 8
STREAM = 1 << 15
RATE = 1000
INFLIGHT = 32
OPEN_SHARE = 0.5
ORACLE_SAMPLE = 500
TIMEOUT = 30.0
PARAMS = {
    "n": N, "dim": 2, "setups": SETUPS,
    "workers": 1, "open_rate_per_s": RATE, "closed_inflight": INFLIGHT,
    "open_share": OPEN_SHARE, "stream": STREAM, "oracle_sample": ORACLE_SAMPLE,
}
clock = time.perf_counter_ns


def make_inputs(seed: int, scratch: Path, distribution: str = "anticorrelated"):
    from repro.datasets.generators import generate

    points = generate(distribution, N, dim=2, seed=seed)
    csv_path = scratch / "points.csv"
    csv_path.write_text("".join(f"{x!r},{y!r}\n" for x, y in points))
    lo = [min(p[d] for p in points) for d in range(2)]
    hi = [max(p[d] for p in points) for d in range(2)]
    rng = random.Random(seed)
    stream = [
        (rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]))
        for _ in range(STREAM)
    ]
    return points, csv_path, stream


def request(i: int, q) -> bytes:
    return json.dumps({"op": "query", "id": i, "query": list(q)}).encode() + b"\n"


class Server:
    """One ``repro serve`` process started through the launcher."""

    def __init__(self, snapshot: Path, spans: Path | None = None) -> None:
        cmd = [sys.executable, str(HERE / "launch.py")]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--", "serve", str(snapshot), "--port", "0", "--workers", "1"]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        server_cpu, _ = cpu_split()
        self.errors = tempfile.TemporaryFile()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.errors, env=env,
            preexec_fn=lambda: os.sched_setaffinity(0, server_cpu),
        )
        ready = select.select([self.proc.stdout], [], [], TIMEOUT)[0]
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving "):
            self.errors.seek(0)
            errors = self.errors.read()[-500:]
            self.stop()
            raise RuntimeError(f"server did not start: {line!r} {errors!r}")
        host, port = line.split(" on ", 1)[1].split(" ", 1)[0].rsplit(":", 1)
        self.address = (host, int(port))

    def connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def call(self, payload: dict) -> dict:
        with self.connect() as sock:
            sock.sendall(json.dumps(payload).encode() + b"\n")
            return json.loads(sock.makefile("rb").readline())

    def shutdown(self) -> str:
        """Ask the server to drain and exit; return anything it printed after."""
        try:
            self.call({"op": "shutdown", "id": -1})
            out, _ = self.proc.communicate(timeout=TIMEOUT)
        finally:
            self.stop()
        return out.decode().strip()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        self.errors.close()


def build(csv_path: Path, snapshot: Path, report: Path, spans: Path | None = None):
    cmd = [sys.executable, str(HERE / "launch.py"), "--report", str(report)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", "build", str(csv_path), str(snapshot)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)


def setup(csv_path, snapshot, report, stream, spans=None):
    """Build + serve start until the first reply; returns (server, s, reply)."""
    start = clock()
    build(csv_path, snapshot, report)
    server = Server(snapshot, spans)
    try:
        with server.connect() as sock:
            sock.sendall(request(0, stream[0]))
            reply = json.loads(sock.makefile("rb").readline())
    except BaseException:
        server.stop()
        raise
    return server, (clock() - start) / 1e9, reply


def read_lines(sock, pending: bytes):
    """One ``recv``; returns (complete lines, leftover bytes, receive time)."""
    chunk = sock.recv(1 << 16)
    if not chunk:
        raise ConnectionError("server closed the connection")
    now = clock()
    *lines, rest = (pending + chunk).split(b"\n")
    return lines, rest, now


def reply_id(line: bytes) -> int:
    """The request id of a reply line (full parsing waits for the check)."""
    return int(line[line.index(b":") + 1:line.index(b",")])


def cpu_split():
    """(server CPUs, client CPUs): the last CPU and the rest, given two.

    The server process (event loop, batch thread) and its worker share
    one CPU and the client takes the other.  Unpinned, some servers ran
    at half the closed-loop throughput and 4-6x the open-loop p50 for
    their whole life on a 2-vCPU host — most likely because their thread
    hand-offs then wait for wakeups on the other virtual CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[-1]}, set(cpus[:-1])


def client_phase(phase):
    """Run a timed client phase on the client CPU with its GC held off."""

    @functools.wraps(phase)
    def run(*args, **kwargs):
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpu_split()[1])
        gc.collect()
        gc.disable()
        try:
            return phase(*args, **kwargs)
        finally:
            gc.enable()
            os.sched_setaffinity(0, before)

    return run


@client_phase
def open_loop(server, stream, offset, seconds):
    """Fixed-rate sends on a schedule; latency from each request's due time.

    One thread: it sends every request whose due time has passed, then
    waits for replies until the next due time, so a stall in the reply
    path does not delay the sends behind it.
    """
    n = max(1, int(RATE * seconds))
    lines = [request(i, stream[(offset + i) % STREAM]) for i in range(n)]
    sent, recv, raw = [0] * n, [0] * n, [b""] * n
    sock = server.connect()
    pending = b""
    t0 = clock() + 5_000_000
    due = [t0 + i * 1_000_000_000 // RATE for i in range(n)]
    nxt = got = 0
    try:
        while got < n:
            now = clock()
            while nxt < n and due[nxt] <= now:
                sock.sendall(lines[nxt])
                sent[nxt] = now
                nxt += 1
                now = clock()
            wait = (due[nxt] - now) / 1e9 if nxt < n else TIMEOUT
            if select.select([sock], [], [], max(wait, 0))[0]:
                replies, pending, now = read_lines(sock, pending)
                for line in replies:
                    i = reply_id(line)
                    recv[i], raw[i] = now, line
                got += len(replies)
            elif nxt >= n:
                raise TimeoutError(f"open loop: {n - got} replies missing")
    finally:
        sock.close()
    return {"due": due, "sent": sent, "recv": recv, "replies": parse(raw),
            "start": t0, "end": max(recv)}


@client_phase
def closed_loop(server, stream, offset, seconds):
    """INFLIGHT requests pipelined on one connection; a reply frees a slot."""
    sock = server.connect()
    sent, recv, raw = {}, {}, {}
    pending = b""
    start = clock()
    deadline = start + int(seconds * 1e9)
    try:
        batch = [request(i, stream[(offset + i) % STREAM]) for i in range(INFLIGHT)]
        for i in range(INFLIGHT):
            sent[i] = start
        sock.sendall(b"".join(batch))
        issued = INFLIGHT
        while len(recv) < issued:
            replies, pending, now = read_lines(sock, pending)
            batch = []
            for line in replies:
                i = reply_id(line)
                recv[i], raw[i] = now, line
                if now < deadline:
                    sent[issued] = now
                    batch.append(request(issued, stream[(offset + issued) % STREAM]))
                    issued += 1
            if batch:
                sock.sendall(b"".join(batch))
    finally:
        sock.close()
    return {"sent": sent, "recv": recv, "replies": {i: json.loads(r) for i, r in raw.items()},
            "issued": issued, "start": start, "end": max(recv.values(), default=start)}


def parse(raw):
    return [json.loads(line) if line else None for line in raw]


def check_replies(result, replies, indices, expected, sha):
    """Every reply must carry the snapshot's answer and generation."""
    for i, reply in zip(indices, replies):
        if reply is None:
            result.fail(f"request {i}: no reply")
        elif reply.get("result") != list(expected[i]) or reply.get("generation") != sha:
            result.fail(f"request {i}: {str(reply)[:120]}")


def check_oracle(result, points, stream, expected, seed):
    """A seeded sample of the snapshot's answers against from-scratch skylines.

    ``map_diagram`` runs the same code as the pool's worker, so agreeing
    with it cannot catch a wrong build or kernel; ``query_from_scratch``
    on the generated points shares neither with them.
    """
    from repro import SkylineDatabase

    oracle = SkylineDatabase(points)
    for i in random.Random(seed + 1).sample(range(STREAM), ORACLE_SAMPLE):
        result.attempted += 1
        truth = oracle.query_from_scratch(stream[i], kind="quadrant")
        if tuple(expected[i]) != tuple(truth):
            result.fail(f"query {i}: snapshot {list(expected[i])[:5]} "
                        f"!= scratch {list(truth)[:5]}")


def map_snapshot(snapshot):
    """``map_diagram`` of the served file: the diagram and generation sha."""
    from repro.index.serialize import map_diagram

    return map_diagram(str(snapshot))


def load_server(result, server, stream, expected, sha, seconds):
    """Open loop, then closed loop, on one server; returns the samples."""
    ol = open_loop(server, stream, 0, seconds * OPEN_SHARE)
    n_open = len(ol["due"])
    check_replies(result, ol["replies"], [i % STREAM for i in range(n_open)],
                  expected, sha)
    cl = closed_loop(server, stream, n_open, seconds * (1 - OPEN_SHARE))
    ids = sorted(cl["sent"])
    check_replies(result, [cl["replies"].get(i) for i in ids],
                  [(n_open + i) % STREAM for i in ids], expected, sha)
    result.attempted += n_open + len(ids)
    return {
        "open": [(r - d) / 1e3 for d, r in zip(ol["due"], ol["recv"]) if r],
        "late": [(s - d) / 1e3 for d, s in zip(ol["due"], ol["sent"])],
        "closed": [(cl["recv"][i] - cl["sent"][i]) / 1e3 for i in ids if i in cl["recv"]],
        "replies": len(cl["recv"]),
        "closed_ns": cl["end"] - cl["start"],
        "batcher": server.call({"op": "health", "id": -2})["health"]["batcher"],
        "rss_mb": proc_peak_rss_mb(server.proc.pid),
    }


def run(seed: int, seconds: float, scratch: Path,
        distribution: str = "anticorrelated") -> Result:
    """Set up SETUPS times; load every server for a share of the time.

    Pooling the samples of several server processes averages out what
    one process's life happens to get from the host.
    """
    result = Result()
    points, csv_path, stream = make_inputs(seed, scratch, distribution)
    snapshot, report_path = scratch / "snapshot.bin", scratch / "report.json"
    times, loads = [], []
    expected = {}
    server = None
    try:
        for _ in range(SETUPS):
            server, elapsed, reply = setup(csv_path, snapshot, report_path, stream)
            times.append(elapsed)
            diagram, sha = map_snapshot(snapshot)
            if sha not in expected:
                expected[sha] = diagram.query_batch(stream)
                check_oracle(result, points, stream, expected[sha], seed)
            result.attempted += 1
            check_replies(result, [reply], [0], expected[sha], sha)
            loads.append(load_server(result, server, stream, expected[sha], sha,
                                     seconds / SETUPS))
            stray = server.shutdown()
            server = None
            if stray:
                result.fail(f"output after shutdown: {stray[:200]!r}")
    except (OSError, ValueError, KeyError, RuntimeError, subprocess.SubprocessError) as exc:
        result.attempted += 1
        result.fail(f"{type(exc).__name__}: {exc}")
        return result
    finally:
        if server is not None:
            server.stop()

    def pooled(key):
        return [x for load in loads for x in load[key]]

    report = json.loads(report_path.read_text())
    result.metric("setup_s", statistics.median(times), "s")
    result.metric("op_p50_us", percentile(pooled("open"), 50), "us")
    result.metric("op2_p50_us", percentile(pooled("closed"), 50), "us")
    result.metric("throughput_per_s", sum(x["replies"] for x in loads)
                  / (sum(x["closed_ns"] for x in loads) / 1e9), "1/s")
    result.metric("store_mb", diagram.store.nbytes / 1e6, "MB")
    result.metric("peak_rss_mb", statistics.median(x["rss_mb"] for x in loads), "MB")
    result.record = {
        "workload": "serve" if distribution == "anticorrelated" else "serve_indep",
        "provenance": provenance(seed, dict(PARAMS, distribution=distribution), report),
        "setup_s_each": times,
        "open_p50_us_each": [percentile(x["open"], 50) for x in loads],
        "open": {"requests": len(pooled("open")), "p90_us": percentile(pooled("open"), 90),
                 "late_p50_us": percentile(pooled("late"), 50),
                 "late_p90_us": percentile(pooled("late"), 90)},
        "closed": {"requests": len(pooled("closed")),
                   "p90_us": percentile(pooled("closed"), 90),
                   "per_s_each": [x["replies"] / (x["closed_ns"] / 1e9) for x in loads]},
        "batcher": [x["batcher"] for x in loads],
        "distinct_snapshots": len(expected),
    }
    return result
