"""Unit tests for the metrics primitives and the registry's two load-bearing
properties: deterministic merge and byte-stable JSON serialisation."""

import json
import math

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.timers import STAGE_SECONDS, Stopwatch


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert registry.counter_value("events") == 42

    def test_rejects_decrements(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_labels_partition_series(self):
        registry = MetricsRegistry()
        registry.counter("records", kind="tls").inc(3)
        registry.counter("records", kind="http").inc(5)
        assert registry.counter_value("records", kind="tls") == 3
        assert registry.counter_value("records", kind="http") == 5
        assert registry.sum_counters("records") == 8
        assert registry.counters_by_label("records", "kind") == {"tls": 3, "http": 5}

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("f", a="1", b="2").inc()
        assert registry.counter_value("f", b="2", a="1") == 1

    def test_untouched_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("never") == 0


    def test_counter_items_filters_one_name_sorted_by_labels(self):
        registry = MetricsRegistry()
        registry.counter("funnel_confirmed", hg="google", snapshot="2020-10").inc(2)
        registry.counter("funnel_candidates", hg="akamai", snapshot="2020-10").inc(9)
        registry.counter("funnel_confirmed", hg="akamai", snapshot="2021-04").inc(3)
        registry.counter("funnel_confirmed_total").inc(7)
        registry.counter("funnel_confirmed", hg="akamai", snapshot="2020-10").inc(1)
        registry.gauge("funnel_confirmed_gauge").set(5.0)
        assert registry.counter_items("funnel_confirmed") == [
            ({"hg": "akamai", "snapshot": "2020-10"}, 1),
            ({"hg": "akamai", "snapshot": "2021-04"}, 3),
            ({"hg": "google", "snapshot": "2020-10"}, 2),
        ]
        assert registry.counter_items("funnel_candidates") == [
            ({"hg": "akamai", "snapshot": "2020-10"}, 9)
        ]
        assert registry.counter_items("never_booked") == []


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(2.5)
        gauge.add(-0.5)
        assert gauge.value == 2.0


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 4.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 7.0
        assert histogram.minimum == 1.0
        assert histogram.maximum == 4.0
        assert histogram.mean == pytest.approx(7.0 / 3.0)

    def test_power_of_two_buckets(self):
        histogram = Histogram()
        histogram.observe(0.0)
        histogram.observe(0.75)  # frexp exponent 0
        histogram.observe(3.0)  # frexp exponent 2
        assert histogram.buckets[0] == 2
        assert histogram.buckets[2] == 1


class TestRegistryKinds:
    def test_name_bound_to_one_kind(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")
        with pytest.raises(TypeError):
            registry.histogram("thing")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")


class TestMerge:
    def test_counters_and_histograms_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n", hg="google").inc(2)
        b.counter("n", hg="google").inc(3)
        b.counter("n", hg="netflix").inc(7)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(3.0)
        a.merge(b)
        assert a.counter_value("n", hg="google") == 5
        assert a.counter_value("n", hg="netflix") == 7
        merged = a.histogram("h")
        assert merged.count == 2 and merged.total == 4.0

    def test_gauges_are_last_writer_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").set(1.0)
        b.gauge("depth").set(9.0)
        a.merge(b)
        assert a.gauge("depth").value == 9.0

    def test_merge_order_does_not_change_sums(self):
        """Counters/histograms merge commutatively: folding the same
        per-snapshot registries in any order yields identical dumps —
        the property that lets jobs=1 and jobs=N report identically."""
        parts = []
        for index in range(4):
            registry = MetricsRegistry()
            registry.counter("funnel", snapshot=f"2020-0{index + 1}").inc(index)
            registry.counter("total").inc(10 * index)
            registry.histogram("h", stage="validate").observe(float(index))
            parts.append(registry)

        forward, backward = MetricsRegistry(), MetricsRegistry()
        for registry in parts:
            forward.merge(registry)
        for registry in reversed(parts):
            backward.merge(registry)
        assert forward.to_json() == backward.to_json()

    def test_insertion_order_does_not_change_serialisation(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(1)
        a.counter("y").inc(2)
        b.counter("y").inc(2)
        b.counter("x").inc(1)
        assert a.to_json() == b.to_json()
        assert a == b


class TestJSONRoundTrip:
    def test_round_trip_preserves_everything(self):
        registry = MetricsRegistry()
        registry.counter("c", hg="google").inc(5)
        registry.gauge("g").set(1.5)
        registry.histogram("h", stage="scan").observe(0.25)
        registry.histogram("h", stage="scan").observe(2.0)
        registry.histogram("empty")

        rebuilt = MetricsRegistry.from_dict(json.loads(registry.to_json()))
        assert rebuilt == registry
        again = MetricsRegistry.from_dict(json.loads(rebuilt.to_json()))
        assert again.to_json() == registry.to_json()

    def test_empty_histogram_serialises_without_min_max(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        entry = registry.to_dict()["histograms"][0]
        assert entry["count"] == 0
        assert entry["min"] is None and entry["max"] is None
        rebuilt = MetricsRegistry.from_dict(registry.to_dict())
        assert rebuilt.histogram("h").minimum == math.inf


class TestTimers:
    def test_stopwatch_laps(self):
        registry = MetricsRegistry()
        watch = Stopwatch(registry)
        first = watch.lap("a")
        second = watch.lap("b")
        assert first >= 0.0 and second >= 0.0
        assert registry.histogram(STAGE_SECONDS, stage="a").count == 1
        assert registry.histogram(STAGE_SECONDS, stage="b").count == 1
