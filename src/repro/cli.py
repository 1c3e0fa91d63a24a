"""Command line interface: ``skyline-diagram <command>``.

Commands
--------
``generate``   write a synthetic dataset to CSV
``build``      build a diagram from CSV points and save a snapshot
``query``      answer a skyline query from a saved diagram (or from CSV)
``update``     apply point inserts/deletes to a snapshot incrementally
``serve``      serve a snapshot over TCP from N zero-copy worker processes
``render``     render a diagram to SVG or terminal ASCII
``info``       summarize a dataset or a saved diagram
``stats``      print structural statistics of a saved diagram
``skyband``    answer a k-skyband query directly from CSV points
``whynot``     explain why a point is missing from a query's skyline
``verify``     run the seeded differential fuzzer over all lookup paths
``chaos``      run the fault-injection drills over the serving layer
"""

from __future__ import annotations

import argparse
import csv
import inspect
import sys
from pathlib import Path

from repro.datasets.generators import generate as generate_points
from repro.diagram import (
    DYNAMIC_ALGORITHMS,
    QUADRANT_ALGORITHMS,
    global_diagram,
)
from repro.errors import SkylineDiagramError
from repro.geometry.point import Dataset
from repro.index.serialize import load_diagram, save_diagram


def _read_points(path: str) -> Dataset:
    rows = []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].startswith("#"):
                continue
            rows.append([float(x) for x in row])
    return Dataset(rows)


def _write_points(path: str, points) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for p in points:
            writer.writerow(p)


def _quadrant_registry(dataset: Dataset) -> dict:
    """2-D algorithms, or their d-dimensional variants for dim > 2."""
    if dataset.dim == 2:
        return QUADRANT_ALGORITHMS
    from repro.diagram.highdim import (
        quadrant_baseline_nd,
        quadrant_dsg_nd,
        quadrant_scanning_nd,
    )

    return {
        "baseline": quadrant_baseline_nd,
        "dsg": quadrant_dsg_nd,
        "scanning": quadrant_scanning_nd,
    }


def _build_options(args: argparse.Namespace):
    """BuildOptions from ``--executor``/``--parallel``/``--chunk-rows``/
    ``--backend``.

    Returns ``None`` when no build-shaping flag was given, so commands
    keep their zero-configuration default path.  ``--parallel N``
    remains a shorthand for ``--executor process`` with N workers;
    otherwise an unset ``--executor`` keeps the ``BuildOptions`` default.
    """
    executor = getattr(args, "executor", None)
    parallel = getattr(args, "parallel", None)
    chunk_rows = getattr(args, "chunk_rows", None)
    backend = getattr(args, "backend", None)
    if (
        executor is None
        and parallel is None
        and chunk_rows is None
        and backend is None
    ):
        return None
    from repro.diagram.pipeline import BuildOptions

    if executor is None and parallel:
        executor = "process"
    kwargs: dict = {}
    if executor is not None:
        kwargs["executor"] = executor
    if backend is not None:
        kwargs["backend"] = backend
    return BuildOptions(workers=parallel, chunk_rows=chunk_rows, **kwargs)


def _call_builder(builder, dataset, options, **kwargs):
    """Invoke a construction, threading build_options when supported."""
    if options is not None:
        try:
            parameters = inspect.signature(builder).parameters
        except (TypeError, ValueError):
            parameters = {}
        if "build_options" in parameters:
            kwargs["build_options"] = options
    return builder(dataset, **kwargs)


def _build(args: argparse.Namespace):
    dataset = _read_points(args.points)
    options = _build_options(args)
    if args.kind == "quadrant":
        return _call_builder(
            _quadrant_registry(dataset)[args.algorithm], dataset, options
        )
    if args.kind == "global":
        return _call_builder(
            global_diagram,
            dataset,
            options,
            algorithm=_quadrant_registry(dataset)[args.algorithm],
        )
    algorithm = args.algorithm if args.algorithm in DYNAMIC_ALGORITHMS else "scanning"
    return _call_builder(DYNAMIC_ALGORITHMS[algorithm], dataset, options)


def _load_diagram(path: str):
    return load_diagram(path)


def _parse_update_ops(specs: list[str]):
    """``insert:x,y`` / ``delete:ID`` specs into maintenance ops."""
    ops = []
    for spec in specs:
        kind, _, rest = spec.partition(":")
        if kind == "insert":
            ops.append(("insert", tuple(float(c) for c in rest.split(","))))
        elif kind == "delete":
            ops.append(("delete", int(rest)))
        else:
            raise ValueError(
                f"bad --op {spec!r}; expected 'insert:x,y' or 'delete:ID'"
            )
    if not ops:
        raise ValueError("update needs at least one --op")
    return ops


def _update(args: argparse.Namespace) -> int:
    """Incrementally maintain a saved snapshot and republish it."""
    from repro.diagram.maintenance import (
        apply_ops,
        delete_point,
        insert_point,
    )
    from repro.serve.snapshot import SnapshotManager

    ops = _parse_update_ops(args.op)
    diagram = _load_diagram(args.snapshot)
    options = _build_options(args)
    if len(ops) > 1:
        # One union dirty-block re-scan for the whole batch instead of
        # one pass per op; byte-identical either way.
        diagram = apply_ops(diagram, ops, build_options=options)
        report = getattr(diagram, "build_report", None)
        rows = report.rows_scanned if report is not None else "?"
        print(
            f"batched {len(ops)} ops into one union re-scan: "
            f"{rows} of {diagram.grid.shape[1]} rows"
        )
    else:
        for op, value in ops:
            if op == "insert":
                diagram = insert_point(diagram, value, build_options=options)
            else:
                diagram = delete_point(diagram, value, build_options=options)
            report = getattr(diagram, "build_report", None)
            rows = report.rows_scanned if report is not None else "?"
            print(f"{op} {value}: re-scanned {rows} of "
                  f"{diagram.grid.shape[1]} rows")
    report = getattr(diagram, "build_report", None)
    if report is not None and report.backend_fallback is not None:
        print(
            f"backend: {diagram.store.backend_kind} "
            f"(maintained via {report.backend_fallback})"
        )
    if args.verify:
        from repro.diagram.quadrant_scanning import quadrant_scanning

        fresh = quadrant_scanning(diagram.grid.dataset)
        incremental = diagram.store.fingerprint()
        scratch = fresh.store.fingerprint()
        if incremental != scratch:
            print(
                f"verify FAILED: incremental {incremental[:12]} != "
                f"fresh {scratch[:12]}",
                file=sys.stderr,
            )
            return 1
        print(f"verify: incremental == fresh ({incremental[:12]})")
    target = args.output if args.output is not None else args.snapshot
    snapshot = SnapshotManager(target).publish(diagram)
    print(
        f"republished {target} (n={len(diagram.grid.dataset)}, "
        f"generation {snapshot.generation[:12]})"
    )
    return 0


def _parse_box(text: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Parse ``"lo1,lo2,...:hi1,hi2,..."`` into a (lo, hi) pair."""
    try:
        lo_text, hi_text = text.split(":")
        lo = tuple(float(c) for c in lo_text.split(","))
        hi = tuple(float(c) for c in hi_text.split(","))
    except ValueError as exc:
        raise ValueError(
            "--box takes 'lo1,lo2,...:hi1,hi2,...' "
            "(two corner points separated by ':')"
        ) from exc
    return (lo, hi)


def _cli_query(diagram, query, box_text, diversify):
    """Answer one CLI query, optionally constrained and/or diversified.

    The spec is validated through :class:`~repro.query.QuerySpec`
    exactly as the engine would, then applied on the loaded snapshot
    via the kernel's restricted lookup and the shared diversified
    selection — the same code paths serving traffic uses.
    """
    if box_text is None and diversify is None:
        return diagram.query(query)
    from repro.query.spec import QuerySpec
    from repro.skyline.queries import diversified_select

    box = _parse_box(box_text) if box_text is not None else None
    kind = "constrained" if box is not None else "diversified"
    spec = QuerySpec(kind=kind, box=box, diversify=diversify).validated(
        len(query)
    )
    if spec.box is not None:
        lo, hi = spec.box
        result = diagram.kernel.query_restricted(query, lo, hi)
    else:
        result = diagram.query(query)
    if spec.diversify is not None:
        result = diversified_select(
            diagram.grid.dataset, result, spec.diversify
        )
    return result


def _stats_chaos(args: argparse.Namespace) -> int:
    """Run a chaos campaign and print its query-runtime metrics."""
    from repro.query.metrics import MetricsRegistry, format_snapshot
    from repro.testing.chaos import run_chaos

    registry = MetricsRegistry()
    report = run_chaos(
        cases=args.cases,
        seed=args.seed,
        build_options=_build_options(args),
        metrics=registry,
    )
    print(report.summary())
    print(format_snapshot(registry.snapshot()))
    return 0 if report.ok else 1


def _stats_workload(args: argparse.Namespace) -> int:
    """Synthetic single/batch/degraded workload; print the snapshot."""
    import random

    from repro.index.engine import SkylineDatabase
    from repro.query.metrics import MetricsRegistry, format_snapshot
    from repro.resilience import BuildBudget

    rng = random.Random(args.seed)
    points = generate_points(
        "independent", args.n, dim=2, seed=args.seed
    )
    queries = [(rng.random(), rng.random()) for _ in range(args.workload)]
    registry = MetricsRegistry()
    options = _build_options(args)
    db = SkylineDatabase(
        points, build_options=options, metrics=registry
    )
    for kind in ("quadrant", "global"):
        for query in queries[: max(1, len(queries) // 4)]:
            db.query(query, kind=kind)
        db.query_batch(queries, kind=kind)
    # Constrained/diversified arms ride the same quadrant diagrams, so
    # their spec overhead lands in the per-kind histograms.
    box = ((0.2, 0.2), (0.8, 0.8))
    for query in queries[: max(1, len(queries) // 4)]:
        db.query(query, kind="constrained", box=box)
    db.query_batch(queries, kind="constrained", box=box)
    for query in queries[: max(1, len(queries) // 4)]:
        db.query(query, kind="diversified", k=2, diversify=3)
    db.query_batch(queries, kind="diversified", k=2, diversify=3)
    # One deliberately malformed request, so the rejected-request
    # counter is exercised and visible in the printed snapshot.
    from repro.errors import QueryError

    try:
        db.query(queries[0], kind="quadrant", box=box)
    except QueryError:
        pass
    # The dynamic diagram's subcell grid is quadratic in n along each
    # axis, so its arm runs on a capped prefix of the dataset.
    dynamic_db = SkylineDatabase(
        list(points)[: min(args.n, 32)],
        build_options=options,
        metrics=registry,
    )
    for query in queries[: max(1, len(queries) // 4)]:
        dynamic_db.query(query, kind="dynamic")
    dynamic_db.query_batch(queries, kind="dynamic")
    # The degraded arm: an impossible budget forces the ladder's lower
    # tiers into the same registry.
    degraded = SkylineDatabase(
        points,
        budget=BuildBudget(max_cells=1),
        build_options=options,
        metrics=registry,
    )
    for query in queries[: max(1, len(queries) // 8)]:
        degraded.query(query, kind="quadrant")
    print(format_snapshot(registry.snapshot()))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="skyline-diagram",
        description="Skyline diagrams: build, query, render (ICDE'18 repro).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    p.add_argument("output", help="CSV file to write")
    p.add_argument("--distribution", default="independent")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain", type=int, default=None)

    p = sub.add_parser(
        "build", help="build a diagram and save it as a snapshot"
    )
    p.add_argument("points", help="CSV file of points")
    p.add_argument("output", help="snapshot file to write")
    p.add_argument(
        "--format",
        choices=("binary", "json"),
        default="binary",
        help="binary (v3, mmap-servable, the default) or legacy JSON",
    )
    p.add_argument(
        "--kind", choices=("quadrant", "global", "dynamic"), default="quadrant"
    )
    p.add_argument(
        "--algorithm",
        default="scanning",
        help="construction algorithm (see repro.diagram registries)",
    )
    p.add_argument(
        "--executor",
        choices=("serial", "process", "vectorized"),
        default=None,
        help="row executor for scanning builds (default: vectorized); "
        "all three produce byte-identical diagrams (constructions "
        "without a matching kernel fall back to serial and report what "
        "ran)",
    )
    p.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="build with a process pool of N row workers (scanning "
        "algorithms; the diagram is byte-identical to a serial build)",
    )
    p.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        metavar="R",
        help="rows per shard (default: rows / workers); for the "
        "vectorized executor, rows per budget checkpoint block",
    )
    p.add_argument(
        "--backend",
        choices=("dense", "rle"),
        default=None,
        help="grid backend for the saved store: dense int32 array or "
        "per-row run-length encoding (byte-identical fingerprint, "
        "mmaps zero-copy)",
    )

    p = sub.add_parser("query", help="answer a skyline query from a diagram")
    p.add_argument("diagram", help="diagram snapshot produced by 'build'")
    p.add_argument("coordinates", nargs="+", type=float)
    p.add_argument(
        "--box",
        default=None,
        metavar="LO1,LO2:HI1,HI2",
        help="restrict the lookup to this closed box "
        "(the 'constrained' query kind)",
    )
    p.add_argument(
        "--diversify",
        type=int,
        default=None,
        metavar="M",
        help="keep at most M result points by greedy max-min "
        "diversification (the 'diversified' query kind)",
    )

    p = sub.add_parser(
        "update",
        help="apply point inserts/deletes to a snapshot incrementally "
        "(dirty-region re-scan, byte-identical to a fresh build)",
    )
    p.add_argument(
        "snapshot", help="quadrant snapshot produced by 'build' (2-D)"
    )
    p.add_argument(
        "--op",
        action="append",
        default=[],
        metavar="OP",
        help="'insert:x,y' or 'delete:ID'; repeatable, applied in order "
        "(delete ids refer to the dataset after the preceding ops)",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="assert the maintained store is fingerprint-byte-identical "
        "to a from-scratch build over the updated dataset",
    )
    p.add_argument(
        "--output",
        default=None,
        help="write the updated snapshot here instead of republishing "
        "in place",
    )
    p.add_argument(
        "--backend",
        choices=("dense", "rle"),
        default=None,
        help="grid backend for the updated store (default: keep the "
        "snapshot's backend)",
    )

    p = sub.add_parser(
        "serve",
        help="serve a snapshot over TCP from N zero-copy worker processes",
    )
    p.add_argument("snapshot", help="binary snapshot produced by 'build'")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7591)
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes mapping the snapshot (default 2)",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="flush a coalesced batch at this size",
    )
    p.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        help="flush a partial batch after this many milliseconds",
    )
    p.add_argument(
        "--max-line",
        type=int,
        default=1 << 20,
        metavar="BYTES",
        help="cap request lines at this many bytes (oversized lines get "
        "one structured error, then the connection closes)",
    )
    p.add_argument(
        "--backend",
        choices=("dense", "rle"),
        default=None,
        help="convert the mapped store to this grid backend in every "
        "worker (default: serve the snapshot's backend as stored; "
        "dense and rle snapshots map zero-copy)",
    )

    p = sub.add_parser("render", help="render a diagram (SVG or ASCII)")
    p.add_argument("diagram", help="JSON diagram produced by 'build'")
    p.add_argument("--svg", help="write an SVG to this path")

    p = sub.add_parser("info", help="summarize a dataset or saved diagram")
    p.add_argument("path", help="CSV dataset or JSON diagram")

    p = sub.add_parser(
        "stats",
        help="diagram statistics, or query-runtime metrics "
        "(--chaos / --workload)",
    )
    p.add_argument(
        "diagram",
        nargs="?",
        help="JSON diagram produced by 'build' (structural statistics)",
    )
    p.add_argument(
        "--chaos",
        action="store_true",
        help="run a chaos campaign and print its query-runtime metrics",
    )
    p.add_argument(
        "--workload",
        type=int,
        default=None,
        metavar="M",
        help="run an M-query synthetic workload (single + batch + degraded "
        "tiers) and print the metrics snapshot",
    )
    p.add_argument("--cases", type=int, default=64, help="chaos cases")
    p.add_argument("--n", type=int, default=256, help="workload dataset size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="thread a process-pool row executor through the builds",
    )
    p.add_argument(
        "--executor",
        choices=("serial", "process", "vectorized"),
        default=None,
        help="thread this row executor through every build",
    )

    p = sub.add_parser("skyband", help="answer a k-skyband query from CSV")
    p.add_argument("points", help="CSV file of points")
    p.add_argument("k", type=int)
    p.add_argument("coordinates", nargs=2, type=float)

    p = sub.add_parser(
        "whynot", help="explain a point missing from a skyline result"
    )
    p.add_argument("diagram", help="JSON diagram produced by 'build'")
    p.add_argument("point_id", type=int)
    p.add_argument("coordinates", nargs=2, type=float)

    p = sub.add_parser(
        "verify",
        help="differential fuzz: cross-check all algorithms and lookup paths",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--budget",
        type=int,
        default=2000,
        help="approximate number of comparisons to run",
    )
    p.add_argument("--max-points", type=int, default=8)
    p.add_argument(
        "--executor",
        choices=("serial", "process", "vectorized"),
        default=None,
        help="thread this row executor through the planner-arm builds "
        "(the executor cross-checks always run regardless)",
    )
    p.add_argument(
        "--families",
        default=None,
        metavar="A,B,...",
        help="run only these check families (comma-separated prefixes, "
        "e.g. 'spec' or 'pair,maintenance'); default: all",
    )

    p = sub.add_parser(
        "chaos",
        help="fault-injection drills: budgets, corruption, IO and clock faults",
    )
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-points", type=int, default=7)
    p.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="run the drills with a process pool of N row workers",
    )
    p.add_argument(
        "--executor",
        choices=("serial", "process", "vectorized"),
        default=None,
        help="run the drills with this row executor on every build",
    )

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (SkylineDiagramError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        points = generate_points(
            args.distribution,
            args.n,
            dim=args.dim,
            seed=args.seed,
            domain=args.domain,
        )
        _write_points(args.output, points)
        print(f"wrote {len(points)} {args.distribution} points to {args.output}")
        return 0
    if args.command == "build":
        diagram = _build(args)
        save_diagram(diagram, args.output, format=args.format)
        print(f"wrote {args.kind} diagram ({args.algorithm}) to {args.output}")
        report = getattr(diagram, "build_report", None)
        if report is not None and _build_options(args) is not None:
            print(
                f"executor: {report.executor} (workers={report.workers}), "
                f"rows={report.rows_scanned}, "
                f"distinct={report.distinct_results}"
            )
            for name, seconds in report.phases.items():
                print(f"  {name}: {seconds * 1000:.1f} ms")
        return 0
    if args.command == "query":
        diagram = _load_diagram(args.diagram)
        query = tuple(args.coordinates)
        result = _cli_query(diagram, query, args.box, args.diversify)
        names = [diagram.grid.dataset.name_of(i) for i in result]
        print(f"skyline ids: {list(result)}")
        print(f"skyline points: {[tuple(diagram.grid.dataset[i]) for i in result]}")
        print(f"names: {names}")
        return 0
    if args.command == "update":
        return _update(args)
    if args.command == "serve":
        import asyncio

        from repro.serve.server import serve_forever

        asyncio.run(
            serve_forever(
                args.snapshot,
                host=args.host,
                port=args.port,
                workers=args.workers,
                max_batch=args.max_batch,
                max_delay=args.max_delay_ms / 1000.0,
                max_line=args.max_line,
                backend=args.backend,
            )
        )
        return 0
    if args.command == "render":
        diagram = _load_diagram(args.diagram)
        if args.svg:
            from repro.viz.svg import render_svg

            Path(args.svg).write_text(render_svg(diagram))
            print(f"wrote {args.svg}")
        else:
            from repro.viz.ascii_art import ascii_diagram

            print(ascii_diagram(diagram))
        return 0
    if args.command == "stats":
        if args.chaos:
            return _stats_chaos(args)
        if args.workload is not None:
            return _stats_workload(args)
        if args.diagram is None:
            raise ValueError(
                "stats needs a diagram path, --chaos, or --workload M"
            )
        from repro.diagram.statistics import diagram_statistics

        diagram = _load_diagram(args.diagram)
        stats = diagram_statistics(diagram)
        for key, value in stats.as_dict().items():
            if isinstance(value, float):
                print(f"{key}: {value:.3f}")
            else:
                print(f"{key}: {value}")
        store = getattr(diagram, "store", None)
        if store is not None and hasattr(store, "backend_kind"):
            print(f"backend: {store.backend_kind}")
            print(f"store_nbytes: {store.nbytes}")
        return 0
    if args.command == "skyband":
        from repro.skyline.queries import quadrant_skyband

        dataset = _read_points(args.points)
        result = quadrant_skyband(dataset, tuple(args.coordinates), args.k)
        print(f"{args.k}-skyband ids: {list(result)}")
        return 0
    if args.command == "whynot":
        from repro.applications.why_not import why_not

        diagram = _load_diagram(args.diagram)
        explanation = why_not(diagram, tuple(args.coordinates), args.point_id)
        if explanation.distance == 0.0:
            print(f"point {args.point_id} is already in the result")
        else:
            witness = tuple(round(c, 6) for c in explanation.witness)
            print(
                f"move the query {explanation.distance:.4f} to {witness} "
                f"and point {args.point_id} joins the skyline"
            )
        return 0
    if args.command == "verify":
        from repro.diagram.verify import differential_verify

        families = (
            tuple(f.strip() for f in args.families.split(",") if f.strip())
            if args.families
            else None
        )
        report = differential_verify(
            seed=args.seed,
            budget=args.budget,
            max_points=args.max_points,
            build_options=_build_options(args),
            families=families,
        )
        print(report.summary())
        if not report.ok:
            print()
            print(report.mismatch.reproducer())
            return 1
        return 0
    if args.command == "chaos":
        from repro.testing.chaos import run_chaos

        report = run_chaos(
            cases=args.cases,
            seed=args.seed,
            max_points=args.max_points,
            build_options=_build_options(args),
        )
        print(report.summary())
        return 0 if report.ok else 1
    if args.command == "info":
        path = Path(args.path)
        with open(path, "rb") as handle:
            head = handle.read(32)
        if path.suffix == ".json" or head.startswith(
            b"repro.skyline-diagram/"
        ):
            diagram = _load_diagram(args.path)
            print(repr(diagram))
        else:
            dataset = _read_points(args.path)
            print(repr(dataset))
        return 0
    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via entry point
    sys.exit(main())
