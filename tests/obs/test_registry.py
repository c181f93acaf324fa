"""Unit tests for the metrics registry instruments."""

import pytest

from repro.obs import DEFAULT_BUCKETS, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_increments(self, registry):
        counter = registry.counter("node.0.disk.reads")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_rejects_negative(self, registry):
        counter = registry.counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_instrument(self, registry):
        a = registry.counter("x")
        b = registry.counter("x")
        assert a is b

    def test_name_collision_across_types(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")


class TestGauge:
    def test_set_holds_last_value(self, registry):
        gauge = registry.gauge("sched.queries.in_flight")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3


class TestHistogram:
    def test_observe_counts_and_sums(self, registry):
        hist = registry.histogram("disk.wait_seconds")
        hist.observe(0.001)
        hist.observe(0.5)
        assert hist.count == 2
        assert hist.total == pytest.approx(0.501)
        assert hist.mean == pytest.approx(0.2505)

    def test_buckets_are_cumulative(self, registry):
        hist = registry.histogram("h", bounds=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        # Prometheus-style: each bound counts everything at or below it;
        # the implicit +Inf bucket is the total count.
        assert hist.bucket_counts == [1, 2]
        assert hist.count == 3
        assert hist.minimum == pytest.approx(0.05)
        assert hist.maximum == pytest.approx(5.0)

    def test_rejects_unsorted_bounds(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("bad", bounds=(1.0, 0.1))

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestTimeline:
    def test_samples_kept_in_order(self, registry):
        timeline = registry.timeline("node.0.cpu.utilization")
        timeline.sample(0.0, 0.1)
        timeline.sample(0.5, 0.9)
        assert timeline.points == [(0.0, 0.1), (0.5, 0.9)]
        assert len(timeline) == 2
        assert timeline.last == (0.5, 0.9)

    def test_bounded_with_drop_accounting(self, registry):
        timeline = registry.timeline("t", capacity=2)
        for i in range(5):
            timeline.sample(float(i), 0.0)
        assert len(timeline) == 2
        assert timeline.dropped == 3
        assert [t for t, _ in timeline.points] == [3.0, 4.0]


class TestRegistry:
    def test_iteration_sorted_by_name(self, registry):
        registry.counter("b")
        registry.counter("a")
        assert [metric.name for metric in registry] == ["a", "b"]
        assert registry.names() == ["a", "b"]

    def test_reset_clears_instruments_but_keeps_them(self, registry):
        counter = registry.counter("c")
        counter.inc(5)
        timeline = registry.timeline("t")
        timeline.sample(0.0, 1.0)
        registry.reset()
        assert counter.value == 0
        assert len(timeline) == 0
        assert registry.get("c") is counter

    def test_get_unknown_returns_none(self, registry):
        assert registry.get("nope") is None
