"""Shared helpers: locating the program, percentiles, provenance, results."""

from __future__ import annotations

import json
import math
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The checkout does not hold a runnable program."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` (and nothing else).

    Child processes inherit the same ``PYTHONPATH``; temporary files go
    to ``TMPDIR`` inside the checkout so a run writes nowhere else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")


def work_dir() -> Path:
    """A fresh per-process scratch directory inside the checkout."""
    path = ROOT / ".perfbench_tmp" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(path)
    import tempfile

    tempfile.tempdir = str(path)
    return path


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0..100) of raw samples, linear interpolation.

    Same definition as ``numpy.percentile``'s default: rank
    ``q/100 * (n-1)`` in the sorted samples, interpolated between the two
    neighbouring order statistics.
    """
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    rank = q / 100 * (len(values) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (rank - low)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise SetupError(f"no VmHWM for pid {pid}")


def provenance(seed: int, params: dict, report: dict | None) -> dict:
    """Seed, workload parameters, environment and what actually ran."""
    from repro.bench.harness import env_metadata

    ran = {}
    if report is not None:
        ran = {"executor": report.get("executor"), "backend": report.get("backend")}
    return {"seed": seed, "params": params, "env": env_metadata(), "ran": ran}


class Result:
    """What one workload measured: metrics, op counts and the record."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.calls: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.record: dict = {}

    def metric(self, name: str, value: float, unit: str, calls: int | None = None) -> None:
        self.metrics[name] = (float(value), unit)
        if calls is not None:
            self.calls[name] = calls

    def fail(self, what: str) -> None:
        """Count one failed operation; remember the first few."""
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def emit(self) -> None:
        """Print the record, then the one-line result (the last line)."""
        record = dict(self.record, problems=self.problems)
        print(json.dumps(record, sort_keys=True, default=str))
        for name, (value, unit) in sorted(self.metrics.items()):
            calls = f"  calls={self.calls[name]}" if name in self.calls else ""
            print(f"  {name:<40} {value:>14.6g} {unit:<6}{calls}")
        print(f"  attempted {self.attempted}, failed {self.failed}")
        print(
            json.dumps(
                {
                    "correct": self.failed == 0 and self.attempted > 0,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()
                    },
                }
            )
        )
