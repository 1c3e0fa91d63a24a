"""Tests for the benchmark's own arithmetic: percentiles and self times.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import statistics

import pytest

from common import percentile
from tracing import Span, Tracer, covered_ns, self_times


def span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", parent, 0, "", start, end)


class TestPercentile:
    def test_matches_linear_interpolation(self):
        samples = [7, 1, 3, 9, 5]
        assert percentile(samples, 0) == 1
        assert percentile(samples, 50) == 5
        assert percentile(samples, 100) == 9
        assert percentile(samples, 25) == 3
        assert percentile(samples, 90) == pytest.approx(8.2)

    def test_median_agrees_with_statistics(self):
        samples = [0.3, 12.5, 4.25, 4.0, 7.75, 1.5]
        assert percentile(samples, 50) == pytest.approx(statistics.median(samples))

    def test_quartiles_agree_with_inclusive_method(self):
        samples = [float(x * x % 17) for x in range(40)]
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        assert percentile(samples, 25) == pytest.approx(q1)
        assert percentile(samples, 75) == pytest.approx(q3)

    def test_exact_on_values_not_bucket_bounds(self):
        # A 1-2-5 bucket histogram reads 1.3 as 2; raw samples do not.
        assert percentile([1.3] * 10, 50) == 1.3
        assert percentile([1.3] * 10, 99) == 1.3

    def test_single_sample(self):
        assert percentile([42.0], 50) == 42.0
        assert percentile([42.0], 99) == 42.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1, 2], 101)


class TestSelfTimes:
    def test_nested(self):
        spans = [span(0, 0, 100), span(1, 10, 60, parent=0), span(2, 20, 30, parent=1)]
        own = self_times(spans)
        assert own == {0: 50, 1: 40, 2: 10}
        assert sum(own.values()) == 100

    def test_siblings(self):
        spans = [span(0, 0, 100), span(1, 10, 30, parent=0), span(2, 50, 80, parent=0)]
        assert self_times(spans) == {0: 50, 1: 20, 2: 30}

    def test_overlapping_siblings_counted_once(self):
        spans = [span(0, 0, 100), span(1, 10, 50, parent=0), span(2, 40, 70, parent=0)]
        assert self_times(spans)[0] == 40

    def test_zero_length_spans(self):
        spans = [span(0, 0, 100), span(1, 30, 30, parent=0), span(2, 30, 30, parent=1)]
        assert self_times(spans) == {0: 100, 1: 0, 2: 0}

    def test_zero_length_parent(self):
        assert self_times([span(0, 5, 5), span(1, 5, 5, parent=0)]) == {0: 0, 1: 0}

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, 0, 100), span(1, 90, 130, parent=0)]
        assert self_times(spans)[0] == 90

    def test_covered_merges_touching_intervals(self):
        assert covered_ns(0, 100, [(10, 20), (20, 30), (25, 40)]) == 30
        assert covered_ns(0, 100, []) == 0


class TestTracer:
    def test_wrapped_calls_nest_and_sum_to_the_root(self):
        class Layer:
            def outer(self):
                return self.inner() + self.inner()

            def inner(self):
                return sum(range(1000))

        tracer = Tracer()
        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "inner", "inner")
        tracer.phase = "p"
        tracer.op = 7
        assert Layer().outer() == 2 * sum(range(1000))
        tracer.restore()
        Layer().outer()
        assert [s.name for s in tracer.spans] == ["outer", "inner", "inner"]
        root = tracer.spans[0]
        assert all(s.parent == root.sid for s in tracer.spans[1:])
        own = tracer.op_selfs("p", 7)
        assert sum(own.values()) == root.duration
        stats = tracer.layer_stats("p")
        assert stats["inner"][2] == 2 and stats["outer"][2] == 1
