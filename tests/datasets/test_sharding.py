"""Shard planning and cost probing.

Shards are an execution detail of the parallel executor; everything here
defends the invariants that keep them one: plans are deterministic pure
functions of their inputs, cover every snapshot exactly once in order,
and cost probes estimate without loading.
"""

import json

import pytest

from repro.datasets import (
    FileDataset,
    ShardPlan,
    export_dataset,
    plan_shards,
    probe_corpus_cost,
)
from repro.timeline import Snapshot

SNAPSHOTS = tuple(Snapshot(2019, month) for month in range(1, 8))


class TestPlanShards:
    def test_partitions_in_order_without_loss(self):
        plan = plan_shards(SNAPSHOTS, jobs=3)
        assert plan.snapshots() == SNAPSHOTS
        assert [shard.index for shard in plan.shards] == [0, 1, 2]
        # Contiguity: each shard starts where the previous one ended.
        flattened = [s for shard in plan.shards for s in shard.snapshots]
        assert flattened == list(SNAPSHOTS)

    def test_uniform_costs_balance_counts(self):
        plan = plan_shards(SNAPSHOTS, jobs=4)
        assert [len(shard) for shard in plan.shards] == [2, 2, 2, 1]

    def test_never_more_shards_than_snapshots(self):
        plan = plan_shards(SNAPSHOTS[:1], jobs=8)
        assert len(plan.shards) == 1
        assert plan.snapshots() == SNAPSHOTS[:1]

    def test_cost_balancing_splits_around_heavy_snapshot(self):
        # One snapshot dominating the corpus must not drag its whole half
        # along: the cut lands next to it, whichever side balances better.
        costs = [1.0, 1.0, 1.0, 1.0, 10.0, 1.0, 1.0]
        plan = plan_shards(SNAPSHOTS, costs, jobs=2)
        shard_costs = [shard.cost for shard in plan.shards]
        assert max(shard_costs) < sum(costs) - 1.0  # not all-but-one-side
        assert plan.snapshots() == SNAPSHOTS

    def test_deterministic(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        first = plan_shards(SNAPSHOTS, costs, jobs=3)
        second = plan_shards(SNAPSHOTS, costs, jobs=3)
        assert first == second

    def test_empty_input(self):
        assert plan_shards((), jobs=4) == ShardPlan(shards=())

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="jobs >= 1"):
            plan_shards(SNAPSHOTS, jobs=0)
        with pytest.raises(ValueError, match="costs"):
            plan_shards(SNAPSHOTS, [1.0], jobs=2)

    def test_describe_is_json_safe(self):
        plan = plan_shards(SNAPSHOTS, jobs=3)
        rows = plan.describe()
        assert json.loads(json.dumps(rows)) == rows
        assert [label for row in rows for label in row["snapshots"]] == [
            s.label for s in SNAPSHOTS
        ]


class TestCostProbes:
    @pytest.fixture(scope="class")
    def datasets(self, tmp_path_factory):
        from repro.world import build_world

        world = build_world(seed=7, scale=0.004)
        base = tmp_path_factory.mktemp("probe-datasets")
        jsonl = export_dataset(world, base / "jsonl", corpus_format="jsonl")
        rcc = export_dataset(world, base / "rcc", corpus_format="columnar")
        return FileDataset(jsonl), FileDataset(rcc)

    def test_columnar_probe_reads_headers_not_payloads(self, datasets):
        _, rcc = datasets
        snapshot = rcc.snapshots[-1]
        cost = rcc.shard_cost("rapid7", snapshot)
        path = rcc.directory / "corpora" / "rapid7" / f"{snapshot.label}.rcc"
        assert 0 < cost < path.stat().st_size
        # The probe tracks the loaded store's row volume: two u32 columns
        # per TLS row, three per HTTP row.
        store = rcc.scan("rapid7", snapshot).store
        assert cost == 4 * (2 * store.tls_row_count + 3 * store.http_row_count)

    def test_jsonl_probe_is_file_size(self, datasets):
        jsonl, _ = datasets
        snapshot = jsonl.snapshots[-1]
        path = jsonl.directory / "corpora" / "rapid7" / f"{snapshot.label}.jsonl"
        assert jsonl.shard_cost("rapid7", snapshot) == path.stat().st_size

    def test_costs_grow_with_the_corpus(self, datasets):
        # Fig. 2: late snapshots carry far more rows than early ones —
        # exactly the skew cost-balanced shards exist to absorb.
        for dataset in datasets:
            first = dataset.shard_cost("rapid7", dataset.snapshots[0])
            last = dataset.shard_cost("rapid7", dataset.snapshots[-1])
            assert last > first

    def test_garbage_file_falls_back_to_file_size(self, tmp_path):
        path = tmp_path / "busted.rcc"
        # Valid magic so the columnar codec claims it, then junk where
        # the block headers should be: the probe must fall back, never
        # raise — planning cannot be the thing that crashes on a corpus
        # the robust reader could still quarantine.
        path.write_bytes(b"\x89RCC\r\n\x1a\n" + b"\xff" * 64)
        assert probe_corpus_cost(path) == path.stat().st_size

    def test_missing_snapshot_raises(self, datasets):
        jsonl, _ = datasets
        with pytest.raises(FileNotFoundError):
            jsonl.shard_cost("rapid7", Snapshot(1999, 1))

    def test_scan_keeps_one_store_unless_asked_for_more(self, datasets):
        _, rcc = datasets
        dataset = FileDataset(rcc.directory)
        first, second, third = dataset.snapshots[:3]
        for snapshot in (first, second, third):
            dataset.scan("rapid7", snapshot)
        assert list(dataset._scan_cache) == [("rapid7", third)]
        assert dataset.scan("rapid7", third) is dataset._scan_cache["rapid7", third]
        for snapshot in (first, second, third):
            dataset.scan("rapid7", snapshot, cache_size=3)
        assert list(dataset._scan_cache) == [
            ("rapid7", first), ("rapid7", second), ("rapid7", third)
        ]

    def test_trim_for_fork_clears_scan_cache_keeps_chain_pool(self, datasets):
        _, rcc = datasets
        dataset = FileDataset(rcc.directory)
        dataset.scan("rapid7", dataset.snapshots[-1])
        assert dataset._scan_cache and dataset._chain_pool
        dataset.trim_for_fork()
        assert not dataset._scan_cache
        assert dataset._chain_pool  # cross-snapshot dedup survives the fork

