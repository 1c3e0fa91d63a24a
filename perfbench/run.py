"""The repository benchmark: one command, one result line per run.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 24 --trace 0

Workloads: ``lookup``, ``update``, ``serve`` and ``serve_indep`` (the
serve path on independent data); ``BENCHMARK.json`` gates the two serve
workloads.  ``--trace 0`` measures the end-to-end metrics of one
workload with no tracing.  ``--trace 1`` is the separate traced run: it
wraps the public entry points of every layer and reports the per-layer
metrics of the lookup, update and serve paths, plus the tracing overhead
of each.  ``--steady N`` runs
the workload N times back to back (one process per run, seeds
``seed..seed+N-1``) and fails when a metric's run-to-run interquartile
range over its median exceeds its bound in ``BENCHMARK.json``.  See
``NOTES.md``.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import statistics
import subprocess
import sys

import common
import lookup
import serve
import update

#: Workload name -> ``run(seed, seconds, scratch)``.
WORKLOADS = {
    "lookup": lookup.run,
    "update": update.run,
    "serve": serve.run,
    "serve_indep": functools.partial(serve.run, distribution="independent"),
}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> common.Result:
    common.use_checkout_sources()
    scratch = common.work_dir()
    try:
        if trace:
            import traced

            return traced.run(workload, seed, seconds, scratch)
        return WORKLOADS[workload](seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def steady(args) -> int:
    """Run the workload N times; print median, quartiles and spreads.

    Fails when any metric's interquartile range over its median — the
    spread the benchmark's acceptance is judged by — exceeds its bound,
    ``setup_s`` included.  (max - min) / median is printed beside it.
    """
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    ok = True
    for i in range(args.steady):
        seed = args.seed + i
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        result = json.loads(line) if out.returncode == 0 else {}
        if not result.get("correct"):
            print(f"seed {seed}: run failed (exit {out.returncode})\n{out.stderr[-2000:]}")
            ok = False
            continue
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())))
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    print(f"{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'iqr/med':>9}{'rng/med':>9}{'bound':>7}")
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        iqr, rng = (q3 - q1) / med, (max(vals) - min(vals)) / med
        bound = bounds.get(name)
        flag = ""
        if bound is not None and iqr > bound:
            flag, ok = "  OVER", False
        print(f"{name:<20}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
              f"{iqr:>9.3f}{rng:>9.3f}{bound!s:>7}{flag}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N")
    args = parser.parse_args()
    if args.steady:
        return steady(args)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result.emit()
    return 0 if result.failed == 0 and result.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
