"""Run-time span recording around the program's public entry points.

The traced run replaces selected functions and methods with wrappers
that record one span per call: name, start, end, parent span and the
operation id the benchmark loop set before the call.  Spans stay in
memory and are summarised (or written out by the serve launcher) when
the run ends.  Nothing under ``src/`` knows about this module.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; :func:`self_times` does that arithmetic
and is what the per-layer metrics are computed from.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

now_ns = time.perf_counter_ns


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    parent: int | None
    op: int
    phase: str
    start: int = 0
    end: int = 0
    data: object = None

    @property
    def duration(self) -> int:
        return self.end - self.start


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, int]:
    """``{sid: self_ns}`` — each span's duration minus its children's cover.

    Children are spans whose ``parent`` is the span's ``sid``.  Overlapping
    children (threads) are counted once; a child sticking out of its
    parent only counts inside the parent's interval.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration
        - covered_ns(span.start, span.end, children.get(span.sid, ()))
        for span in spans
    }


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _replace(self, owner, attr: str, make) -> None:
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        self._patched.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def wrap(self, owner, attr: str, name: str, data=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``data(args, result)``, when given, stores extra per-call data on
        the span (a batch size, the queries of a batch).
        """
        stack_of = self._stack
        spans = self.spans
        ids = self._ids

        def make(fn):
            def wrapper(*args, **kwargs):
                stack = stack_of()
                span = Span(
                    next(ids), name, stack[-1] if stack else None,
                    self.op, self.phase,
                )
                spans.append(span)
                stack.append(span.sid)
                span.start = now_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = now_ns()
                    stack.pop()
                if data is not None:
                    span.data = data(args, result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def wrap_async(self, owner, attr: str, name: str, data=None) -> None:
        """Span around a coroutine method; parents are linked afterwards."""
        spans = self.spans
        ids = self._ids

        def make(fn):
            async def wrapper(*args, **kwargs):
                span = Span(next(ids), name, None, self.op, self.phase)
                if data is not None:
                    span.data = data(args, None)
                spans.append(span)
                span.start = now_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    span.end = now_ns()

            return wrapper

        self._replace(owner, attr, make)

    def restore(self) -> None:
        """Put every wrapped attribute back (latest first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------
    def layer_stats(self, phase: str) -> dict[str, tuple[float, float, int]]:
        """``{name: (mean self ns, mean duration ns, calls)}`` for a phase."""
        chosen = [s for s in self.spans if s.phase == phase]
        own = self_times(chosen)
        sums: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        for span in chosen:
            entry = sums[span.name]
            entry[0] += own[span.sid]
            entry[1] += span.duration
            entry[2] += 1
        return {
            name: (total / calls, dur / calls, calls)
            for name, (total, dur, calls) in sums.items()
        }

    def op_selfs(self, phase: str, op: int) -> dict[str, int]:
        """Self time per layer (ns) for the spans of one operation."""
        chosen = [s for s in self.spans if s.phase == phase and s.op == op]
        own = self_times(chosen)
        out: dict[str, int] = defaultdict(int)
        for span in chosen:
            out[span.name] += own[span.sid]
        return dict(out)
