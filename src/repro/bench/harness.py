"""Timing and table-formatting utilities for the experiment suite.

The pytest-benchmark files under ``benchmarks/`` give statistically careful
per-call numbers; this harness powers the *paper-style* tables — one row
per parameter setting, one column per algorithm — that EXPERIMENTS.md
records and ``python -m repro.bench`` regenerates.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


def time_call(fn: Callable[[], Any], repeats: int = 1) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def throughput(
    fn: Callable[[], Any], items: int, repeats: int = 3
) -> float:
    """Items per second of ``fn``, using best-of-``repeats`` timing."""
    best = time_call(fn, repeats=repeats)
    return items / best if best > 0 else float("inf")


def env_metadata() -> dict[str, Any]:
    """Provenance for benchmark envelopes: interpreter, libs, hardware.

    Recorded with every BENCH JSON so a number can be traced to the
    environment that produced it.  ``numba`` is ``None`` when the
    optional JIT is not installed — the vectorized executor's kernel
    then runs as pure numpy, and the envelope says so.
    """
    import os
    import platform

    import numpy

    try:
        import numba

        numba_version: str | None = numba.__version__
    except Exception:
        numba_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def save_json(path: str | Path, payload: dict[str, Any]) -> Path:
    """Write a benchmark result payload as indented JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@dataclass
class Table:
    """A paper-style results table.

    >>> t = Table("demo", ["n", "baseline"])
    >>> t.add_row([10, 0.5])
    >>> print(t.render())
    demo
    n   baseline
    --  --------
    10  0.500
    """

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)

    def add_row(self, row: Sequence[Any]) -> None:
        """Append one row (must match the column count)."""
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} entries for {len(self.columns)} columns"
            )
        self.rows.append(list(row))

    def _formatted(self) -> list[list[str]]:
        out: list[list[str]] = []
        for row in self.rows:
            cells: list[str] = []
            for value in row:
                if isinstance(value, float):
                    cells.append(f"{value:.3f}" if value >= 0.001 else f"{value:.2e}")
                else:
                    cells.append(str(value))
            out.append(cells)
        return out

    def render(self) -> str:
        """Fixed-width text rendering."""
        body = self._formatted()
        widths = [
            max(len(self.columns[c]), *(len(r[c]) for r in body))
            if body
            else len(self.columns[c])
            for c in range(len(self.columns))
        ]
        lines = [self.title]
        lines.append(
            "  ".join(col.ljust(widths[c]) for c, col in enumerate(self.columns))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append(
                "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row))
            )
        return "\n".join(line.rstrip() for line in lines)

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering (for EXPERIMENTS.md)."""
        body = self._formatted()
        lines = [
            "| " + " | ".join(self.columns) + " |",
            "|" + "|".join("---" for _ in self.columns) + "|",
        ]
        for row in body:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)
