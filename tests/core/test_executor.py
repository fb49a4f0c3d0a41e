"""The parallel snapshot executor and the DataSource pipeline contract.

The load-bearing property: ``jobs=N`` is an execution detail, never a
semantic one.  A parallel run must be *bit-identical* to a serial run —
including the Netflix §6.2 envelope, whose "ever a candidate" accumulator
is the pipeline's only cross-snapshot state and is folded in an explicit
ordered reduction.
"""

import pytest

import repro.core.executor as executor_module
from repro.core import (
    OffnetPipeline,
    ParallelExecutor,
    PipelineOptions,
    SerialExecutor,
    make_executor,
    restore_netflix,
)
from repro.datasets import DataSource, FileDataset, export_dataset, plan_shards
from repro.obs.report import deterministic_view
from repro.timeline import Snapshot
from repro.world import build_world

#: A subset of study snapshots spanning the Netflix expired/HTTP eras, so
#: the determinism check covers the merge phase doing real restoration work.
SNAPSHOTS = (
    Snapshot(2016, 10),
    Snapshot(2017, 4),
    Snapshot(2017, 10),
    Snapshot(2018, 7),
    Snapshot(2019, 10),
    Snapshot(2020, 10),
    Snapshot(2021, 4),
)

STAGES = {"scan", "validate", "match", "candidates", "confirm", "netflix", "merge"}


class TestMakeExecutor:
    def test_one_job_is_serial(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_many_jobs_is_parallel(self):
        executor = make_executor(4)
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == 4

    def test_zero_jobs_autosizes_to_cpu_count(self, monkeypatch):
        # The cores this process may run on, not the machine's.
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(executor_module.os, "sched_getaffinity", lambda pid: {0, 2, 5})
        executor = make_executor(0)
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == 3

    def test_zero_jobs_on_single_core_is_serial(self, monkeypatch):
        # ``taskset -c 0`` on a multi-core host.
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(executor_module.os, "sched_getaffinity", lambda pid: {0})
        assert isinstance(make_executor(0), SerialExecutor)

    def test_zero_jobs_without_an_affinity_mask_counts_cpus(self, monkeypatch):
        monkeypatch.delattr(executor_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 3)
        assert make_executor(0).jobs == 3
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: None)
        assert isinstance(make_executor(0), SerialExecutor)

    def test_rejects_negative_jobs(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            make_executor(-1)

    def test_parallel_requires_two_jobs(self):
        with pytest.raises(ValueError):
            ParallelExecutor(1)


class TestDataSourceProtocol:
    def test_world_implements_data_source(self, small_world):
        assert isinstance(small_world, DataSource)

    def test_file_dataset_implements_data_source(self, small_world, tmp_path):
        directory = export_dataset(
            small_world, tmp_path / "ds", corpora=("rapid7",),
            snapshots=(small_world.snapshots[-1],),
        )
        assert isinstance(FileDataset(directory), DataSource)

    def test_pipeline_rejects_non_source(self):
        with pytest.raises(TypeError, match="DataSource"):
            OffnetPipeline(object())


@pytest.fixture(scope="module")
def paired_runs():
    """Per seed, a world (scale 0.008) with its serial and ``jobs=4`` runs
    over ``SNAPSHOTS``, built once for the module."""
    pairs = {}

    def runs(seed):
        if seed not in pairs:
            world = build_world(seed=seed, scale=0.008)
            pairs[seed] = (
                world,
                OffnetPipeline(world, PipelineOptions(jobs=1)).run(snapshots=SNAPSHOTS),
                OffnetPipeline(world, PipelineOptions(jobs=4)).run(snapshots=SNAPSHOTS),
            )
        return pairs[seed]

    return runs


class TestParallelDeterminism:
    @pytest.mark.parametrize("seed", (7, 11))
    def test_jobs4_identical_to_jobs1(self, seed, paired_runs):
        _, serial, parallel = paired_runs(seed)

        assert serial == parallel
        # Spell out the variants the equality above already covers, so a
        # future field excluded from __eq__ cannot silently weaken this.
        for snapshot in SNAPSHOTS:
            left, right = serial.at(snapshot), parallel.at(snapshot)
            assert left.candidate_ases == right.candidate_ases
            assert left.confirmed_ases == right.confirmed_ases
            assert left.confirmed_and_ases == right.confirmed_and_ases
            assert left.onnet_ips == right.onnet_ips
            assert left.cloudflare_filtered_ases == right.cloudflare_filtered_ases
            assert left.netflix_with_expired_ases == right.netflix_with_expired_ases
            assert left.netflix_restored_ases == right.netflix_restored_ases

        serial_envelope = restore_netflix(serial)
        parallel_envelope = restore_netflix(parallel)
        assert serial_envelope.initial == parallel_envelope.initial
        assert serial_envelope.with_expired == parallel_envelope.with_expired
        assert (
            serial_envelope.with_expired_nontls
            == parallel_envelope.with_expired_nontls
        )

    def test_restoration_happens_in_subset(self, paired_runs):
        """The chosen snapshots actually exercise the cross-snapshot merge."""
        _, _, result = paired_runs(7)
        assert any(
            result.at(snapshot).netflix_restored_ases for snapshot in SNAPSHOTS
        ), "no snapshot restored Netflix ASes; the determinism test is vacuous"


class TestExecutionSurface:
    def test_timings_and_cache_surface(self, pipeline_result):
        assert STAGES <= set(pipeline_result.timings)
        assert all(seconds >= 0.0 for seconds in pipeline_result.timings.values())
        cache = pipeline_result.validation_cache
        # 31 snapshots share hypergiant chains heavily: the cross-snapshot
        # caches must be doing real work.
        assert cache.static_hits > 0 and cache.window_hits > 0
        assert 0.0 < cache.hit_rate <= 1.0

    def test_pure_phase_leaves_restoration_empty(self, small_world):
        """run_snapshot is the pure phase: no cross-snapshot state."""
        pipeline = OffnetPipeline(small_world)
        outcome = pipeline.run_snapshot(Snapshot(2019, 10))
        assert outcome.footprint.netflix_restored_ases == frozenset()
        assert STAGES - {"merge"} <= set(outcome.timings)

    def test_pure_phase_carries_its_own_registry(self, small_world):
        """Each outcome ships a per-snapshot metrics registry — the unit
        the merge barrier folds, and what the parallel executor pickles."""
        pipeline = OffnetPipeline(small_world)
        outcome = pipeline.run_snapshot(Snapshot(2019, 10))
        label = Snapshot(2019, 10).label
        valid = outcome.metrics.counter_value("funnel_valid", snapshot=label)
        assert valid == outcome.footprint.validation.valid > 0

    def test_executor_describe(self):
        assert SerialExecutor().describe()["kind"] == "serial"
        executor = ParallelExecutor(3)
        meta = executor.describe()
        assert meta["jobs"] == 3
        assert meta["workers"] == 0  # nothing mapped yet
        assert meta["shards"] == 0 and meta["shard_plan"] == []
        assert meta["cpu_count"] >= 1

    def test_run_records_executor_metadata(self, pipeline_result):
        assert pipeline_result.run_meta["executor"]["kind"] == "serial"
        assert pipeline_result.run_meta["options"]["corpus"] == "rapid7"


class TestShardedExecution:
    """The shard plan is an execution detail: any geometry, bit-identical
    results, and the executor's metadata tells the truth about what ran."""

    def test_uneven_shards_identical_to_serial(self, paired_runs):
        # jobs=4 over 7 snapshots whose probed costs (servers alive)
        # grow over time → shards of unequal length: the merge barrier
        # must flatten uneven shard outcomes back to run order.
        world, serial, sharded = paired_runs(7)
        assert serial == sharded
        executor = sharded.run_meta["executor"]
        costs = [world.shard_cost("rapid7", snapshot) for snapshot in SNAPSHOTS]
        assert executor["shard_plan"] == plan_shards(SNAPSHOTS, costs, jobs=4).describe()
        assert executor["shards"] == 4
        assert len({len(row["snapshots"]) for row in executor["shard_plan"]}) > 1

    def test_world_probe_counts_live_servers(self, small_world):
        first, last = small_world.snapshots[0], small_world.snapshots[-1]
        for snapshot in (first, last):
            assert small_world.shard_cost("rapid7", snapshot) == len(
                small_world.servers_at(snapshot)
            )
        assert small_world.shard_cost("rapid7", last) > small_world.shard_cost("rapid7", first)

    def test_describe_reports_plan_and_worker_stats(self):
        world = build_world(seed=7, scale=0.008)
        result = OffnetPipeline(world, PipelineOptions(jobs=3)).run(
            snapshots=SNAPSHOTS
        )
        meta = result.run_meta["executor"]
        assert meta["fallback_serial"] is False
        assert meta["shards"] == meta["workers"] == min(3, len(SNAPSHOTS))
        assert len(meta["shard_plan"]) == meta["shards"]
        planned = [s for row in meta["shard_plan"] for s in row["snapshots"]]
        assert planned == [s.label for s in SNAPSHOTS]
        assert len(meta["worker_stats"]) == meta["shards"]
        for stats in meta["worker_stats"]:
            assert stats["peak_rss_kb"] > 0
            assert stats["snapshots"] >= 1

    def test_single_shard_plan_falls_back_serial(self, small_world):
        # One snapshot plans one shard: forking it would be pure overhead.
        end = small_world.snapshots[-1]
        result = OffnetPipeline(small_world, PipelineOptions(jobs=2)).run(
            snapshots=(end,)
        )
        assert result.snapshots == (end,)
        meta = result.run_meta["executor"]
        assert meta["fallback_serial"] is True
        assert meta["shards"] == 0

    def test_file_dataset_shards_identical_to_serial(self, small_world, tmp_path):
        # The deployment shape sharding targets: cost-probed file shards.
        directory = export_dataset(
            small_world, tmp_path / "ds", corpora=("rapid7",),
            snapshots=SNAPSHOTS, corpus_format="columnar",
        )
        serial = OffnetPipeline(FileDataset(directory)).run()
        sharded = OffnetPipeline(
            FileDataset(directory), PipelineOptions(jobs=4)
        ).run()
        serial_report, sharded_report = serial.report(), sharded.report()
        assert deterministic_view(serial_report) == deterministic_view(sharded_report)
        for section in ("store", "ingest"):
            assert serial_report[section] == sharded_report[section], section
        plan = sharded.run_meta["executor"]["shard_plan"]
        assert all(row["cost"] > 0 for row in plan)

    def test_quarantining_shard_identical_to_serial(self, small_world, tmp_path):
        # A shard whose corpus file quarantines rows under the lenient
        # policy must ship the same ingest accounting home as a serial
        # run books in-process.
        directory = export_dataset(
            small_world, tmp_path / "ds-dirty", corpora=("rapid7",),
            snapshots=SNAPSHOTS,
        )
        corpus = directory / "corpora" / "rapid7" / f"{SNAPSHOTS[1].label}.jsonl"
        with corpus.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "tls", "ip": "not-an-ip"}\n')
            handle.write("this is not json\n")
        options = {"on_error": "lenient"}
        serial = OffnetPipeline(
            FileDataset(directory), PipelineOptions(jobs=1, **options)
        ).run()
        sharded = OffnetPipeline(
            FileDataset(directory), PipelineOptions(jobs=4, **options)
        ).run()
        serial_report, sharded_report = serial.report(), sharded.report()
        assert deterministic_view(serial_report) == deterministic_view(
            sharded_report
        )
        assert serial_report["ingest"] == sharded_report["ingest"]
        assert serial_report["ingest"]["quarantined"] > 0

    def test_interrupted_run_resumes_into_sharded_run(self, small_world, tmp_path):
        # A mid-run kill leaves a partial --cache-dir behind; a sharded
        # resume must compose with those artifacts and still match a
        # cacheless serial run byte for byte.  (Keys carry no shard
        # info, so a cache written at one geometry hits at any other.)
        directory = export_dataset(
            small_world, tmp_path / "ds-resume", corpora=("rapid7",),
            snapshots=SNAPSHOTS, corpus_format="columnar",
        )
        cache_dir = str(tmp_path / "stage-cache")
        interrupted = OffnetPipeline(
            FileDataset(directory), PipelineOptions(cache_dir=cache_dir)
        )
        # Simulate the interruption: only some snapshots' light stages
        # made it to disk before the worker died.
        interrupted.run_stages(("ingest", "vstats"), snapshots=SNAPSHOTS[:3])
        del interrupted

        resumed = OffnetPipeline(
            FileDataset(directory),
            PipelineOptions(jobs=2, cache_dir=cache_dir),
        )
        hits_before = resumed.probe_cache()
        assert any(flags["ingest"] for flags in hits_before.values())
        sharded = resumed.run()
        serial = OffnetPipeline(FileDataset(directory)).run()
        serial_report, sharded_report = serial.report(), sharded.report()
        assert deterministic_view(serial_report) == deterministic_view(sharded_report)
        for section in ("store", "ingest"):
            assert serial_report[section] == sharded_report[section], section
