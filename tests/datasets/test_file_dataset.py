"""Tests: export a world's datasets, reload them, run the same pipeline."""

import pytest

from repro.core import OffnetPipeline, PipelineOptions
from repro.datasets import FileDataset, export_dataset
from repro.timeline import Snapshot

SNAPSHOTS = (Snapshot(2019, 10), Snapshot(2020, 10), Snapshot(2021, 4))


@pytest.fixture(scope="module")
def dataset_dir(small_world, tmp_path_factory):
    directory = tmp_path_factory.mktemp("dataset")
    export_dataset(small_world, directory, corpora=("rapid7",), snapshots=SNAPSHOTS)
    return directory


@pytest.fixture(scope="module")
def file_dataset(dataset_dir):
    return FileDataset(dataset_dir)


class TestExportLayout:
    def test_manifest(self, dataset_dir):
        assert (dataset_dir / "manifest.json").exists()
        assert (dataset_dir / "organizations.tsv").exists()
        assert (dataset_dir / "anchors.jsonl").exists()

    def test_corpus_files(self, dataset_dir):
        for snapshot in SNAPSHOTS:
            assert (dataset_dir / "corpora" / "rapid7" / f"{snapshot.label}.jsonl").exists()
            assert (dataset_dir / "ip2as" / f"{snapshot.label}.tsv").exists()

    def test_not_a_dataset_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FileDataset(tmp_path)


class TestFileDataset:
    def test_snapshots(self, file_dataset):
        assert file_dataset.snapshots == SNAPSHOTS

    def test_scanner_availability(self, file_dataset):
        profile = file_dataset.scanner("rapid7").profile
        assert profile.available_since == SNAPSHOTS[0]
        with pytest.raises(KeyError):
            file_dataset.scanner("censys")

    def test_scan_round_trip(self, small_world, file_dataset):
        original = small_world.scan("rapid7", SNAPSHOTS[0])
        loaded = file_dataset.scan("rapid7", SNAPSHOTS[0])
        assert loaded.ip_count == original.ip_count
        assert loaded.unique_certificates() == original.unique_certificates()

    def test_missing_snapshot_raises(self, file_dataset):
        with pytest.raises(FileNotFoundError):
            file_dataset.scan("rapid7", Snapshot(2014, 4))
        with pytest.raises(FileNotFoundError):
            file_dataset.ip2as(Snapshot(2014, 4))

    def test_organizations_search(self, small_world, file_dataset):
        assert file_dataset.topology.organizations.search_by_name("google") == \
            small_world.topology.organizations.search_by_name("google")


class TestFileBackedPipeline:
    def test_matches_world_backed_run(self, small_world, file_dataset):
        """The identical pipeline code, fed from files, infers the same
        footprints — the workflow real corpuses would use."""
        options = PipelineOptions(header_learning_snapshot=Snapshot(2020, 10))
        world_result = OffnetPipeline(small_world, options).run(snapshots=SNAPSHOTS)
        file_result = OffnetPipeline(file_dataset, options).run()
        assert file_result.snapshots == SNAPSHOTS
        for snapshot in SNAPSHOTS:
            for hypergiant in ("google", "netflix", "facebook", "akamai", "apple"):
                assert file_result.as_count(hypergiant, snapshot, "candidates") == \
                    world_result.as_count(hypergiant, snapshot, "candidates"), (
                        hypergiant, snapshot)
                assert file_result.as_count(hypergiant, snapshot, "confirmed") == \
                    world_result.as_count(hypergiant, snapshot, "confirmed")


class TestOneSnapshotInFlight:
    def test_a_serial_run_holds_only_the_last_snapshot(self, dataset_dir):
        dataset = FileDataset(dataset_dir)
        options = PipelineOptions(header_learning_snapshot=SNAPSHOTS[1])
        OffnetPipeline(dataset, options).run()
        assert list(dataset._scan_cache) == [("rapid7", SNAPSHOTS[-1])]
        assert list(dataset._ip2as_cache) == [SNAPSHOTS[-1]]
        last = dataset._scan_cache["rapid7", SNAPSHOTS[-1]]
        assert dataset._chain_pool == {
            chain.end_entity.fingerprint: chain for chain in last.store.chains
        }
        assert all(
            dataset._chain_pool[chain.end_entity.fingerprint] is chain
            for chain in last.store.chains
        )
