"""The stage scheduler on toy graphs: what it looks up, runs and times."""

import time

import pytest

from repro.core.stages import MemoryCache, Stage, StageContext, StageGraph
from repro.core.stages.base import STAGE_CACHE_EVENTS
from repro.obs.metrics import MetricsRegistry
from repro.obs.timers import STAGE_SECONDS

CTX = StageContext(pipeline=None, snapshot=None, options=None)
TOKEN = "toy:token"


def _stage(name, deps=(), body=None, **fields):
    def run(ctx, inputs, counters):
        counters.counter("ran", stage=name).inc()
        if body is not None:
            body()
        return (name, tuple(inputs[dep] for dep in deps))

    return Stage(name=name, deps=tuple(deps), option_keys=(), run=run, **fields)


def _execute(graph, cache=None, targets=None):
    registry = MetricsRegistry()
    values = graph.execute(CTX, TOKEN, registry, cache=cache, targets=targets)
    return values, registry


def _events(registry, stage):
    return {
        labels["event"]: value
        for labels, value in registry.counter_items(STAGE_CACHE_EVENTS)
        if labels["stage"] == stage
    }


class TestSelfSeconds:
    def test_consumer_excludes_its_slow_dependency(self):
        graph = StageGraph(
            [
                _stage("slow", body=lambda: time.sleep(0.2)),
                _stage("fast", deps=("slow",)),
            ]
        )
        _, registry = _execute(graph, targets=("fast",))
        slow = registry.histogram(STAGE_SECONDS, stage="slow")
        fast = registry.histogram(STAGE_SECONDS, stage="fast")
        assert slow.count == fast.count == 1
        assert slow.total >= 0.2
        assert fast.total < 0.1

    def test_one_observation_per_touched_stage(self):
        graph = StageGraph(
            [_stage("a"), _stage("b", deps=("a",)), _stage("c", deps=("a", "b"))]
        )
        _, registry = _execute(graph)
        for name in ("a", "b", "c"):
            assert registry.histogram(STAGE_SECONDS, stage=name).count == 1


class TestTwoPassScheduling:
    GRAPH = StageGraph(
        [
            _stage("root", cacheable=False),
            _stage("mid", deps=("root",)),
            _stage("top", deps=("mid",)),
            _stage("side", deps=("root",)),
        ]
    )

    def test_miss_runs_its_inputs_in_order(self):
        values, registry = _execute(self.GRAPH, MemoryCache(), targets=("top",))
        assert values["top"] == ("top", (("mid", (("root", ()),)),))
        assert set(values) == {"root", "mid", "top"}
        assert _events(registry, "mid") == {"miss": 1, "store": 1}

    def test_hit_never_materializes_its_inputs(self):
        cache = MemoryCache()
        _execute(self.GRAPH, cache, targets=("mid",))
        values, registry = _execute(self.GRAPH, cache, targets=("top",))
        assert set(values) == {"mid", "top"}
        assert _events(registry, "mid") == {"hit": 1}
        assert _events(registry, "top") == {"miss": 1, "store": 1}
        assert registry.counter_value("ran", stage="root") == 0
        assert registry.counter_value("ran", stage="mid") == 1  # replayed

    def test_a_shared_input_is_looked_up_once(self):
        values, registry = _execute(self.GRAPH, MemoryCache(), targets=("top", "side"))
        assert registry.counter_value("ran", stage="root") == 1
        assert registry.histogram(STAGE_SECONDS, stage="root").count == 1
        assert values["side"][1] == (values["root"],)

    def test_unknown_target_fails_by_name(self):
        with pytest.raises(KeyError, match="nope"):
            _execute(self.GRAPH, targets=("nope",))
