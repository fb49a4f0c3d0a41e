"""The cycle collector pause: safe because nothing it skips is garbage.

``OffnetPipeline.run`` and ``DeltaIngestor.ingest_once`` switch CPython's
cycle collector off over the per-snapshot phase (``repro.core.gcpause``).
That is only sound while every value of that phase dies by reference
count, so these tests run each path with the collector disabled and
require ``gc.collect()`` to find nothing afterwards; they also pin that
the pause restores the collector's state however a run ends.
"""

import gc
import shutil
import weakref

import pytest

import repro.bgp.ip2as6  # noqa: F401 — lazy import; its slots class leaves one-time garbage
from repro.core import OffnetPipeline, PipelineOptions, SerialExecutor
from repro.core.gcpause import gc_paused
from repro.core.stages import offnet
from repro.datasets import FileDataset, export_dataset
from repro.robustness import CorpusParseError
from repro.serve.ingest import DeltaIngestor
from repro.timeline import Snapshot
from repro.world import build_world
from tools.inject_faults import inject_faults

SNAPS = (Snapshot(2017, 10), Snapshot(2018, 7), Snapshot(2019, 10), Snapshot(2020, 10))
FAULTS = {"truncate": 1, "string_ip": 1, "bad_chain_ref": 1, "conflict_chain": 1}


@pytest.fixture(scope="module")
def world():
    return build_world(seed=7, scale=0.005)


@pytest.fixture(scope="module")
def rcc_dir(world, tmp_path_factory):
    directory = tmp_path_factory.mktemp("gcpause-rcc")
    export_dataset(world, directory, snapshots=SNAPS, corpus_format="columnar")
    return directory


@pytest.fixture(scope="module")
def dirty_dir(world, tmp_path_factory):
    """A JSONL export whose last snapshot carries injected faults; the
    conflicting-chain fault is the file's last line."""
    directory = tmp_path_factory.mktemp("gcpause-dirty")
    export_dataset(world, directory, snapshots=SNAPS[-2:])
    inject_faults(directory, snapshot=SNAPS[-1].label, seed=7, counts=FAULTS)
    return directory


@pytest.fixture
def restore_collector():
    """Leave the collector enabled for the suite, whatever a test did."""
    yield
    gc.enable()


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _cyclic_garbage(action) -> int:
    """Objects only the cycle collector could free after ``action()``."""
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        gc.enable()


class TestCycleFreedom:
    def test_world_run_and_report(self, world):
        assert _cyclic_garbage(lambda: OffnetPipeline(world).run().report()) == 0

    def test_multi_signal_run(self, world):
        options = PipelineOptions(
            signals=("header", "tls-stack", "cert-names"), confirm_policy="require-2"
        )
        assert _cyclic_garbage(lambda: OffnetPipeline(world, options).run()) == 0

    def test_columnar_parallel_run(self, rcc_dir):
        options = PipelineOptions(jobs=2)
        assert _cyclic_garbage(
            lambda: OffnetPipeline(FileDataset(rcc_dir), options).run()
        ) == 0

    def test_worker_shard_path(self, rcc_dir, tmp_path):
        """What a forked worker runs, in-process: its pause is inherited."""
        pipeline = OffnetPipeline(
            FileDataset(rcc_dir), PipelineOptions(jobs=2, cache_dir=str(tmp_path))
        )
        pipeline.header_rules()

        def run_shards():
            for shard in pipeline.shard_plan().shards:
                pipeline.run_shard(shard)

        assert _cyclic_garbage(run_shards) == 0

    def test_lenient_run_over_injected_faults(self, dirty_dir):
        options = PipelineOptions(on_error="lenient")
        assert _cyclic_garbage(
            lambda: OffnetPipeline(FileDataset(dirty_dir), options).run()
        ) == 0

    def test_ingest_pass_over_fresh_state(self, rcc_dir, tmp_path):
        ingestor = DeltaIngestor(rcc_dir, tmp_path / "state")
        assert _cyclic_garbage(ingestor.ingest_once) == 0
        assert len(ingestor.view().snapshots) == len(SNAPS)


class TestStageValuesDieByRefcount:
    def test_match_value_freed_when_run_snapshot_returns(
        self, world, monkeypatch, restore_collector
    ):
        """The heavy §4.2 match rows skip the memory cache, so only the
        scheduler holds them: they must die with the call."""
        refs = []

        class Rows(list):
            """A list that takes weak references."""

        def tracked(ctx, inputs, counters):
            value = run_match(ctx, inputs, counters)
            value.matching = Rows(value.matching)
            refs.append(weakref.ref(value.matching))
            return value

        run_match = offnet._run_match
        monkeypatch.setattr(offnet, "_run_match", tracked)
        pipeline = OffnetPipeline(world)
        gc.collect()
        gc.disable()
        pipeline.run_snapshot(SNAPS[-1])
        assert len(refs) == 1
        assert refs[0]() is None


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_restores_the_state_it_found(
        self, world, enabled, restore_collector, monkeypatch
    ):
        seen = []
        map_snapshots = SerialExecutor.map_snapshots

        def recording(self, pipeline, snapshots):
            seen.append(gc.isenabled())
            return map_snapshots(self, pipeline, snapshots)

        monkeypatch.setattr(SerialExecutor, "map_snapshots", recording)
        _set_collector(enabled)
        OffnetPipeline(world).run(SNAPS[:2])
        assert seen == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_strict_run_that_raises_restores_it(
        self, dirty_dir, enabled, restore_collector
    ):
        _set_collector(enabled)
        with pytest.raises(CorpusParseError):
            OffnetPipeline(FileDataset(dirty_dir)).run()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_ingest_pass_restores_it(
        self, dirty_dir, tmp_path, enabled, restore_collector
    ):
        """A strict pass meets the faulty snapshot, records it as failed
        and still hands the collector back as it found it."""
        directory = tmp_path / "data"
        shutil.copytree(dirty_dir, directory)
        _set_collector(enabled)
        report = DeltaIngestor(directory, tmp_path / "state").ingest_once()
        assert SNAPS[-1] in report.failed
        assert gc.isenabled() is enabled


class TestGcPaused:
    def test_nested_pauses_restore_each_state(self, restore_collector):
        gc.enable()
        with gc_paused():
            assert not gc.isenabled()
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self, restore_collector):
        gc.disable()
        with gc_paused():
            pass
        assert not gc.isenabled()

    def test_restores_on_exception(self, restore_collector):
        gc.enable()
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()
