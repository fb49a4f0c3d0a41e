"""Process-local metrics primitives: counters, gauges, histograms.

The pipeline is a multi-stage funnel (validate → TLS fingerprint →
candidates → header fingerprint → confirm) and the only way to keep its
cost and shape visible at production scale is systematic per-stage
instrumentation — the lesson of the large-scale scan-analysis literature
(Pythia-style frameworks, the active TLS fingerprinting stacks) rather
than ad-hoc ``perf_counter()`` deltas sprinkled through the code.

Everything here is dependency-free and picklable on purpose:

* a :class:`MetricsRegistry` is plain data, so the parallel snapshot
  executor can build one registry *per snapshot* in a worker process,
  pickle it back, and let the parent :meth:`~MetricsRegistry.merge` them
  in snapshot order — making ``jobs=1`` and ``jobs=N`` runs report
  identical counters;
* serialisation (:meth:`~MetricsRegistry.to_dict` /
  :meth:`~MetricsRegistry.from_dict`) sorts every key, so two registries
  holding the same values produce byte-identical JSON no matter the
  insertion order — the property the run-report comparator leans on.

Metrics are identified by a name plus a sorted label set
(``registry.counter("funnel_candidates", hg="google")``), Prometheus
style but with no exposition format: the only sink is the versioned JSON
run report (:mod:`repro.obs.report`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricKey",
]

#: A metric's identity: its name plus the sorted ``(label, value)`` pairs.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, str]) -> MetricKey:
    if not name:
        raise ValueError("metric name must be non-empty")
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


@dataclass(slots=True)
class Counter:
    """A monotonically increasing count (events, records, cache hits)."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0: counters only go up)."""
        if amount < 0:
            raise ValueError(f"counters only increase; got {amount}")
        self.value += amount


@dataclass(slots=True)
class Gauge:
    """A point-in-time value (queue depth, scale factor, worker count)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def add(self, amount: float) -> None:
        """Shift the gauge by ``amount`` (negative allowed)."""
        self.value += amount


@dataclass(slots=True)
class Histogram:
    """A streaming summary plus power-of-two buckets.

    Tracks count/sum/min/max exactly and bins each observation into the
    bucket ``2**(e-1) < v <= 2**e`` (``frexp`` exponent), which is enough
    resolution to see a stage's latency distribution shift without
    storing observations.  Bucket keys serialise as strings so the JSON
    round-trip is loss-free.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    #: frexp exponent -> observation count (0 is reserved for v == 0.0).
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        exponent = 0 if value == 0.0 else math.frexp(abs(value))[1]
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """A process-local registry of named, labelled metrics.

    ``counter``/``gauge``/``histogram`` get-or-create, so instrumentation
    sites never need to pre-register anything.  A name is bound to one
    kind for the registry's lifetime; asking for the same name as a
    different kind is a programming error and raises.
    """

    def __init__(self) -> None:
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}

    # -- get-or-create accessors ----------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = _key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            self._check_kind(name, "counter")
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = _key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            self._check_kind(name, "gauge")
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels: str) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        key = _key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            self._check_kind(name, "histogram")
            metric = self._histograms[key] = Histogram()
        return metric

    def _check_kind(self, name: str, kind: str) -> None:
        kinds = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other, table in kinds.items():
            if other != kind and any(key[0] == name for key in table):
                raise TypeError(
                    f"metric {name!r} is already registered as a {other}, "
                    f"cannot re-register as a {kind}"
                )

    # -- queries ---------------------------------------------------------------

    def counter_value(self, name: str, **labels: str) -> int:
        """A counter's value, 0 when it was never touched."""
        metric = self._counters.get(_key(name, labels))
        return metric.value if metric is not None else 0

    def sum_counters(self, name: str) -> int:
        """The total over every label combination of a counter name."""
        return sum(
            metric.value for key, metric in self._counters.items() if key[0] == name
        )

    def counter_items(self, name: str) -> list[tuple[dict[str, str], int]]:
        """Every ``(labels, value)`` pair of one counter name, sorted by
        labels — the report builder's raw feed."""
        matching = [
            (labels, metric.value)
            for (metric_name, labels), metric in self._counters.items()
            if metric_name == name
        ]
        # Label tuples are unique within one name, so the sort never
        # reaches the values.
        matching.sort()
        return [(dict(labels), value) for labels, value in matching]

    def counters_by_label(self, name: str, label: str) -> dict[str, int]:
        """``{label value: summed counter value}`` for one counter name.

        The workhorse of report building: e.g.
        ``counters_by_label("funnel_candidates", "hg")`` sums candidates
        per hypergiant across whatever other labels are present.
        """
        out: dict[str, int] = {}
        for (metric_name, labels), metric in self._counters.items():
            if metric_name != name:
                continue
            for key, value in labels:
                if key == label:
                    out[value] = out.get(value, 0) + metric.value
        return out

    def histograms_by_label(self, name: str, label: str) -> dict[str, Histogram]:
        """``{label value: merged histogram}`` for one histogram name."""
        out: dict[str, Histogram] = {}
        for (metric_name, labels), metric in self._histograms.items():
            if metric_name != name:
                continue
            for key, value in labels:
                if key == label:
                    merged = out.setdefault(value, Histogram())
                    _merge_histogram(merged, metric)
        return out

    # -- deterministic merge ----------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry, in place.

        Counters and histograms are commutative sums, so any merge order
        yields the same values; gauges are last-writer-wins, which is why
        the pipeline merges per-snapshot registries *in snapshot order* at
        the ``merge_outcomes`` barrier — the one ordering both the serial
        and the parallel executor can honour exactly.
        """
        for key, counter in other._counters.items():
            mine = self._counters.get(key)
            if mine is None:
                self._check_kind(key[0], "counter")
                self._counters[key] = Counter(value=counter.value)
            else:
                mine.value += counter.value
        for key, gauge in other._gauges.items():
            mine = self._gauges.get(key)
            if mine is None:
                self._check_kind(key[0], "gauge")
                self._gauges[key] = Gauge(value=gauge.value)
            else:
                mine.value = gauge.value
        for key, histogram in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                self._check_kind(key[0], "histogram")
                mine = self._histograms[key] = Histogram()
            _merge_histogram(mine, histogram)
        return self

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe dump, deterministically ordered.

        Metrics appear sorted by ``(name, labels)`` regardless of the
        order instrumentation touched them, so two registries with equal
        contents serialise byte-identically.
        """
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": metric.value}
                for (name, labels), metric in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": metric.value}
                for (name, labels), metric in sorted(self._gauges.items())
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "count": metric.count,
                    "sum": metric.total,
                    "min": None if metric.count == 0 else metric.minimum,
                    "max": None if metric.count == 0 else metric.maximum,
                    "buckets": {
                        str(exp): n for exp, n in sorted(metric.buckets.items())
                    },
                }
                for (name, labels), metric in sorted(self._histograms.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output (JSON round-trip)."""
        registry = cls()
        for entry in payload.get("counters", ()):
            registry.counter(entry["name"], **entry["labels"]).inc(entry["value"])
        for entry in payload.get("gauges", ()):
            registry.gauge(entry["name"], **entry["labels"]).set(entry["value"])
        for entry in payload.get("histograms", ()):
            metric = registry.histogram(entry["name"], **entry["labels"])
            metric.count = entry["count"]
            metric.total = entry["sum"]
            metric.minimum = math.inf if entry["min"] is None else entry["min"]
            metric.maximum = -math.inf if entry["max"] is None else entry["max"]
            metric.buckets = {int(exp): n for exp, n in entry["buckets"].items()}
        return registry

    def to_json(self, **dumps_kwargs) -> str:
        """:meth:`to_dict` as a deterministic JSON string."""
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


def _merge_histogram(into: Histogram, other: Histogram) -> None:
    into.count += other.count
    into.total += other.total
    if other.count:
        into.minimum = min(into.minimum, other.minimum)
        into.maximum = max(into.maximum, other.maximum)
    for exponent, count in other.buckets.items():
        into.buckets[exponent] = into.buckets.get(exponent, 0) + count
