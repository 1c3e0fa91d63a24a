"""Run ``repro.cli.main(argv)`` the way ``python -m repro`` does, plus hooks.

    python3 perfbench/launch.py [--report FILE] [--spans FILE] -- <cli args>

``--report`` writes the build report of the diagram a ``build`` command
saved (what executor and grid backend actually ran).  ``--spans``
installs the serve-side span wrappers before the command runs and writes
the recorded spans to FILE when it returns — a ``serve`` command returns
after a client's ``shutdown`` request has drained the server.
"""

from __future__ import annotations

import argparse
import json
import sys

from tracing import Tracer


def request_query(line: bytes):
    """The query coordinates of a request line (None for other ops)."""
    try:
        return json.loads(line).get("query")
    except ValueError:
        return None


def install_serve_wrappers(tracer: Tracer) -> None:
    import repro.cli
    import repro.serve.snapshot
    from repro.serve.batcher import QueryBatcher
    from repro.serve.pool import SnapshotWorkerPool
    from repro.serve.server import SkylineServer

    tracer.wrap(repro.cli, "save_diagram", "serialize.save_diagram")
    tracer.wrap(repro.serve.snapshot, "map_diagram", "serialize.map_diagram")
    tracer.wrap(SnapshotWorkerPool, "__init__", "pool.start")
    tracer.wrap(SnapshotWorkerPool, "query_batch", "pool.query_batch",
                data=lambda args, result: args[1])
    tracer.wrap_async(QueryBatcher, "submit", "batcher.submit",
                      data=lambda args, result: args[1])
    # One request line from its task's start until its reply is written:
    # JSON decode, the batcher, JSON encode and the socket write.
    tracer.wrap_async(SkylineServer, "_respond", "server.respond",
                      data=lambda args, result: request_query(args[1]))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report")
    parser.add_argument("--spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    import repro.cli

    reports = []
    if args.report:
        save = repro.cli.save_diagram

        def save_and_report(diagram, *rest, **kwargs):
            report = getattr(diagram, "build_report", None)
            reports.append(report.as_dict() if report is not None else None)
            return save(diagram, *rest, **kwargs)

        repro.cli.save_diagram = save_and_report
    tracer = Tracer()
    if args.spans:
        install_serve_wrappers(tracer)
    try:
        return repro.cli.main(argv)
    finally:
        if args.report:
            with open(args.report, "w") as handle:
                json.dump(reports[-1] if reports else None, handle)
        if args.spans:
            rows = [
                [s.name, s.start, s.end, s.sid, s.parent, s.data]
                for s in tracer.spans
                if s.end
            ]
            with open(args.spans, "w") as handle:
                json.dump(rows, handle)


if __name__ == "__main__":
    sys.exit(main())
