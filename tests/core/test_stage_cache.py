"""Stage-graph artifact caching: key invalidation, resume, parity.

The contract under test: the cache is an *execution detail*.  Whatever
the cache configuration — off, cold, warm, resumed after a kill, memory
or disk, serial or parallel — the run report's deterministic view is
byte-identical.  And invalidation is *minimal*: flipping one ablation
switch recomputes only the stages downstream of it.
"""

import json
import os
import pickle
import sys
import types

import pytest

from repro.core import (
    DiskCache,
    MemoryCache,
    NullCache,
    OffnetPipeline,
    PipelineOptions,
    build_offnet_graph,
)
from repro.core.stages import offnet
from repro.obs.report import deterministic_view
from repro.timeline import Snapshot
from repro.world import build_world

#: Small but real: spans the Netflix expired era so merge does work.
SNAPSHOTS = (
    Snapshot(2017, 10),
    Snapshot(2018, 7),
    Snapshot(2019, 10),
    Snapshot(2020, 10),
)

TOKEN = "world:test-fingerprint"


def _keys(**overrides):
    graph = build_offnet_graph()
    return graph.keys_for(PipelineOptions(**overrides), TOKEN)


class TestKeyInvalidation:
    """Flipping an option must invalidate exactly the downstream suffix."""

    def test_dnsnames_flip_spares_upstream_stages(self):
        base = _keys()
        flipped = _keys(require_all_dnsnames=False)
        unchanged = {"scan", "ingest", "validate", "vstats", "match", "onnet"}
        for stage in unchanged:
            assert base[stage] == flipped[stage], f"{stage} key drifted"
        for stage in ("candidates", "confirm", "netflix"):
            assert base[stage] != flipped[stage], f"{stage} key not invalidated"

    def test_validation_flip_invalidates_its_suffix(self):
        base = _keys()
        flipped = _keys(validate_certificates=False)
        for stage in ("scan", "ingest"):
            assert base[stage] == flipped[stage]
        for stage in ("validate", "vstats", "match", "onnet", "candidates",
                      "confirm", "netflix"):
            assert base[stage] != flipped[stage]

    def test_execution_details_never_touch_keys(self):
        """jobs and cache_dir select *how* to run, not *what* to compute."""
        assert _keys() == _keys(jobs=4) == _keys(cache_dir="/tmp/x")

    def test_source_identity_is_in_every_key(self):
        graph = build_offnet_graph()
        options = PipelineOptions()
        other = graph.keys_for(options, "world:another-fingerprint")
        for stage, key in graph.keys_for(options, TOKEN).items():
            assert key != other[stage]


class TestCacheParity:
    """Deterministic views must be byte-identical across cache configs."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_world(seed=7, scale=0.008)

    def _view(self, world, options, cache=None):
        pipeline = OffnetPipeline(world, options, cache=cache)
        result = pipeline.run(snapshots=SNAPSHOTS)
        return deterministic_view(result.report()), result

    def test_off_cold_warm_resumed_identical(self, world, tmp_path):
        cache_dir = str(tmp_path / "cache")
        off, _ = self._view(world, PipelineOptions(), cache=NullCache())
        cold, _ = self._view(world, PipelineOptions(cache_dir=cache_dir))
        # A fresh pipeline instance = a fresh process resuming off disk.
        warm, warm_result = self._view(world, PipelineOptions(cache_dir=cache_dir))

        baseline = json.dumps(off, sort_keys=True)
        assert json.dumps(cold, sort_keys=True) == baseline
        assert json.dumps(warm, sort_keys=True) == baseline

        stage_cache = warm_result.report()["stage_cache"]
        assert stage_cache["hits"] > 0 and stage_cache["misses"] == 0
        assert stage_cache["hit_rate"] == 1.0

    def test_parallel_warm_matches_serial_cold(self, world, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold, _ = self._view(world, PipelineOptions(jobs=1, cache_dir=cache_dir))
        warm, _ = self._view(world, PipelineOptions(jobs=2, cache_dir=cache_dir))
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)

    def test_resume_after_midrun_kill(self, world, tmp_path):
        """A run killed halfway leaves a cache the next process completes
        from, with a byte-identical final report."""
        cache_dir = str(tmp_path / "cache")
        uncached, _ = self._view(world, PipelineOptions(), cache=NullCache())

        # "Kill" after two of four snapshots: only their artifacts landed.
        killed = OffnetPipeline(world, PipelineOptions(cache_dir=cache_dir))
        killed.run(snapshots=SNAPSHOTS[:2])

        resumed = OffnetPipeline(world, PipelineOptions(cache_dir=cache_dir))
        probe = resumed.probe_cache(snapshots=SNAPSHOTS)
        fully_cached = [s for s, stages in probe.items()
                        if all(v for name, v in stages.items() if name != "scan")]
        assert set(fully_cached) == set(SNAPSHOTS[:2])

        result = resumed.run(snapshots=SNAPSHOTS)
        view = json.dumps(deterministic_view(result.report()), sort_keys=True)
        assert view == json.dumps(uncached, sort_keys=True)
        stage_cache = result.report()["stage_cache"]
        assert stage_cache["hits"] > 0, "resume reused nothing"
        assert stage_cache["misses"] > 0, "nothing was left to recompute"

    def test_ablation_flip_recomputes_only_the_suffix(self, world, tmp_path):
        """With the default run cached on disk, flipping the §4.3 rule
        reuses every upstream artifact — including the heavy §4.2 match —
        and recomputes only candidates/confirm/netflix."""
        cache_dir = str(tmp_path / "cache")
        OffnetPipeline(world, PipelineOptions(cache_dir=cache_dir)).run(
            snapshots=SNAPSHOTS[:1]
        )

        flipped = OffnetPipeline(
            world,
            PipelineOptions(require_all_dnsnames=False, cache_dir=cache_dir),
        )
        report = flipped.run(snapshots=SNAPSHOTS[:1]).report()
        events = report["stage_cache"]["stages"]
        for stage in ("ingest", "vstats", "onnet", "match"):
            assert events[stage]["hit"] == 1, f"{stage} should have hit"
        for stage in ("candidates", "confirm", "netflix"):
            assert events[stage]["miss"] == 1, f"{stage} should have recomputed"
        # §4.1 validation is upstream of the hit match artifact: with the
        # match result cached, the validator never even runs.
        assert "validate" not in events


class TestCachePlumbing:
    def test_memory_cache_drops_heavy_artifacts(self):
        cache = MemoryCache()
        cache.put("k1", ("value", {}), heavy=True)
        cache.put("k2", ("value", {}))
        assert cache.get("k1") is None
        assert cache.get("k2") == ("value", {})

    def test_disk_cache_treats_corruption_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" * 32
        cache.put(key, ({"x": 1}, {}))
        assert cache.get(key) == ({"x": 1}, {})
        path = tmp_path / key[:2] / f"{key}.pkl"
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None

    def test_cache_dir_requires_fingerprintable_source(self, small_world, tmp_path):
        class Unfingerprinted:
            """The DataSource protocol minus the optional fingerprint()."""

            def __init__(self, world):
                self._world = world

            @property
            def snapshots(self):
                return self._world.snapshots

            @property
            def root_store(self):
                return self._world.root_store

            @property
            def topology(self):
                return self._world.topology

            def scanner(self, corpus):
                return self._world.scanner(corpus)

            def scan(self, corpus, snapshot):
                return self._world.scan(corpus, snapshot)

            def ip2as(self, snapshot):
                return self._world.ip2as(snapshot)

        with pytest.raises(ValueError, match="fingerprint"):
            OffnetPipeline(
                Unfingerprinted(small_world),
                PipelineOptions(cache_dir=str(tmp_path / "cache")),
            )


def _stale_pickles(monkeypatch) -> dict[type, bytes]:
    """Two artifacts pickled by code that has since changed: one names a
    class its module no longer has, one a module that no longer exists.
    Keyed by the exception unpickling them raises."""
    with monkeypatch.context() as patch:
        module = types.ModuleType("repro_retired_artifacts")
        retired = type("RetiredArtifact", (), {"__module__": module.__name__})
        module.RetiredArtifact = retired
        patch.setitem(sys.modules, module.__name__, module)
        renamed = type("RenamedArtifact", (), {"__module__": offnet.__name__})
        patch.setattr(offnet, "RenamedArtifact", renamed, raising=False)
        payloads = {
            ModuleNotFoundError: pickle.dumps((retired(), {})),
            AttributeError: pickle.dumps((renamed(), {})),
        }
    for error, payload in payloads.items():
        with pytest.raises(error):
            pickle.loads(payload)
    return payloads


class TestStaleArtifacts:
    """An artifact pickled against a class or module that no longer
    exists is a cache miss, never a crash."""

    def test_vanished_class_or_module_reads_as_miss(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        for index, payload in enumerate(_stale_pickles(monkeypatch).values()):
            key = f"{index:02x}" * 32
            path = tmp_path / key[:2] / f"{key}.pkl"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(payload)
            assert key in cache
            assert cache.get(key) is None

    def test_pipeline_recomputes_over_stale_artifacts(
        self, small_world, tmp_path, monkeypatch
    ):
        """Every stage key of a run planted with a stale pickle: the run
        misses, recomputes, overwrites, and reports the same funnel."""
        payloads = list(_stale_pickles(monkeypatch).values())
        snapshots = SNAPSHOTS[:2]
        reference = OffnetPipeline(small_world, PipelineOptions(), cache=NullCache())
        expected = deterministic_view(reference.run(snapshots=snapshots).report())

        options = PipelineOptions(cache_dir=str(tmp_path / "cache"))
        pipeline = OffnetPipeline(small_world, options)
        planted = 0
        for snapshot in snapshots:
            keys = pipeline._graph.keys_for(options, pipeline.snapshot_token(snapshot))
            for stage, key in keys.items():
                if not pipeline._graph.stages[stage].cacheable:
                    continue
                path = tmp_path / "cache" / key[:2] / f"{key}.pkl"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(payloads[planted % len(payloads)])
                planted += 1
        assert planted > len(payloads)

        report = pipeline.run(snapshots=snapshots).report()
        assert json.dumps(deterministic_view(report), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        assert report["stage_cache"]["hits"] == 0
        assert report["stage_cache"]["misses"] > 0

        # The recompute replaced the stale entries: a fresh process hits.
        warm = OffnetPipeline(small_world, options).run(snapshots=snapshots).report()
        assert json.dumps(deterministic_view(warm), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        assert warm["stage_cache"]["misses"] == 0


class TestDeprecatedSurfaceRemoved:
    """The pre-DataSource shims are gone: ``source`` is the only spelling."""

    def test_for_world_and_world_are_gone(self, small_world):
        assert not hasattr(OffnetPipeline, "for_world")
        pipeline = OffnetPipeline(small_world)
        assert not hasattr(pipeline, "world")
        assert pipeline.source is small_world


def _view_json(result) -> str:
    return json.dumps(deterministic_view(result.report()), sort_keys=True)


class TestCacheContents:
    """What a disk-cached run stores, and which process writes it."""

    def test_cold_run_stores_one_artifact_per_cacheable_stage(
        self, small_world, tmp_path
    ):
        """``scan`` and ``validate`` are recomputed, never stored: the
        cache holds exactly one artifact per cacheable stage per
        snapshot, and neither the report nor the probe names them."""
        cache_dir = tmp_path / "cache"
        options = PipelineOptions(cache_dir=str(cache_dir))
        pipeline = OffnetPipeline(small_world, options)
        report = pipeline.run(snapshots=SNAPSHOTS).report()

        graph = pipeline._graph
        cacheable = {name for name, stage in graph.stages.items() if stage.cacheable}
        assert {"scan", "validate"}.isdisjoint(cacheable)
        expected: set[str] = set()
        validate_keys: set[str] = set()
        for snapshot in SNAPSHOTS:
            keys = graph.keys_for(options, pipeline.snapshot_token(snapshot))
            expected |= {keys[name] for name in cacheable}
            validate_keys.add(keys["validate"])
        stored = [path.stem for path in cache_dir.rglob("*.pkl")]
        assert len(stored) == len(SNAPSHOTS) * len(cacheable)
        assert set(stored) == expected
        assert validate_keys.isdisjoint(stored)

        assert "validate" not in report["stage_cache"]["stages"]
        probe = pipeline.probe_cache(snapshots=SNAPSHOTS)
        assert all(set(flags) == cacheable for flags in probe.values())

    def test_parent_rewrites_no_artifact_a_worker_stored(
        self, small_world, tmp_path, monkeypatch
    ):
        """Workers of a ``jobs=2`` run write their artifacts to the shared
        disk tier; the parent adopts the shipped copies into memory only."""
        parent = os.getpid()
        parent_puts: list[str] = []
        put = DiskCache.put

        def counting_put(self, key, artifact, heavy=False):
            if os.getpid() == parent:
                parent_puts.append(key)
            return put(self, key, artifact, heavy)

        monkeypatch.setattr(DiskCache, "put", counting_put)
        cache_dir = tmp_path / "cache"
        options = PipelineOptions(jobs=2, cache_dir=str(cache_dir))
        result = OffnetPipeline(small_world, options).run(snapshots=SNAPSHOTS)
        assert not result.report()["executor"]["fallback_serial"]
        assert any(cache_dir.rglob("*.pkl")), "the workers stored nothing"
        assert parent_puts == []


class TestWarmRunsLearnNothing:
    """The §4.4 rules are learned up front only when some ``confirm`` or
    ``netflix`` artifact is missing — then once, in the parent."""

    #: Two snapshots: enough for two shards at ``jobs=2``.
    PAIR = SNAPSHOTS[:2]

    @pytest.fixture
    def learned(self, tmp_path, monkeypatch):
        """The pids of every ``_learn_rules`` call so far, read from a log
        file so that calls in forked workers count too."""
        log = tmp_path / "learn.log"
        learn = OffnetPipeline._learn_rules

        def logged(pipeline):
            with log.open("a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return learn(pipeline)

        monkeypatch.setattr(OffnetPipeline, "_learn_rules", logged)
        return lambda: log.read_text(encoding="utf-8").split() if log.exists() else []

    def test_serial_warm_run_over_shared_memory_cache(self, small_world, learned):
        cache = MemoryCache()
        cold = OffnetPipeline(small_world, PipelineOptions(), cache=cache).run(
            snapshots=self.PAIR
        )
        assert learned() == [str(os.getpid())]
        warm = OffnetPipeline(small_world, PipelineOptions(), cache=cache).run(
            snapshots=self.PAIR
        )
        assert len(learned()) == 1, "the warm run learned the rules"
        assert _view_json(warm) == _view_json(cold)

    def test_parallel_warm_run_over_disk_cache(self, small_world, tmp_path, learned):
        options = PipelineOptions(jobs=2, cache_dir=str(tmp_path / "cache"))
        cold = OffnetPipeline(small_world, options).run(snapshots=self.PAIR)
        assert learned() == [str(os.getpid())]
        warm = OffnetPipeline(small_world, options).run(snapshots=self.PAIR)
        assert not warm.report()["executor"]["fallback_serial"]
        assert len(learned()) == 1, "the warm run learned the rules"
        assert _view_json(warm) == _view_json(cold)

    def test_missing_confirm_artifact_learns_once_in_the_parent(
        self, small_world, tmp_path, learned
    ):
        cache_dir = tmp_path / "cache"
        options = PipelineOptions(jobs=2, cache_dir=str(cache_dir))
        pipeline = OffnetPipeline(small_world, options)
        cold = pipeline.run(snapshots=self.PAIR)
        token = pipeline.snapshot_token(self.PAIR[-1])
        key = pipeline._graph.keys_for(options, token)["confirm"]
        (cache_dir / key[:2] / f"{key}.pkl").unlink()

        before = len(learned())
        resumed = OffnetPipeline(small_world, options).run(snapshots=self.PAIR)
        report = resumed.report()
        assert not report["executor"]["fallback_serial"]
        assert report["stage_cache"]["stages"]["confirm"]["miss"] == 1
        assert learned()[before:] == [str(os.getpid())]
        assert _view_json(resumed) == _view_json(cold)
