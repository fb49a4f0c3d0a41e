"""How one ingest pass maps its changed snapshots, and what keys them.

A pass on the process's only thread (a daemon's first pass, ``serve
--once``) forks one worker per core in the CPU affinity mask; a pass
beside a live thread (the watcher, next to the HTTP threads) stays
in-process.  Both must commit byte-identical state, fail a snapshot
whose files do not read alone, and run every snapshot once.  The
affinity mask is patched to two cores, so the forked path is taken on
any host.

The token tests pin what re-keys a snapshot: the §4.4 learning
snapshot's content, and a corpus file that disappeared.
"""

import shutil
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.core.executor as executor_module
from repro.core import OffnetPipeline, ParallelExecutor, PipelineOptions
from repro.core.stages.base import STAGE_SECONDS
from repro.datasets import export_dataset
from repro.serve import DeltaIngestor
from repro.world import build_world

SEED, SCALE = 5, 0.005
COUNT = 6  # snapshots exported


@pytest.fixture(scope="module")
def world():
    return build_world(seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def dataset(world, tmp_path_factory):
    """A JSONL export of the world's last ``COUNT`` snapshots."""
    directory = tmp_path_factory.mktemp("ingest-pass") / "dataset"
    snapshots = world.snapshots[-COUNT:]
    export_dataset(world, directory, snapshots=snapshots)
    return {"dir": directory, "snapshots": snapshots}


@pytest.fixture
def options(dataset):
    """Strict policy, the rules learned from the last exported snapshot."""
    return PipelineOptions(header_learning_snapshot=dataset["snapshots"][-1])


@pytest.fixture
def copy(dataset, tmp_path):
    """A private copy of the dataset a test may damage."""
    directory = tmp_path / "dataset"
    shutil.copytree(dataset["dir"], directory)
    return directory


@pytest.fixture
def forks(monkeypatch):
    """Two usable cores, and one entry per forked map (its snapshots)."""
    monkeypatch.setattr(executor_module.os, "sched_getaffinity", lambda pid: {0, 1})
    maps = []
    real = ParallelExecutor.map_snapshots

    def recording(self, pipeline, snapshots):
        outcomes = real(self, pipeline, snapshots)
        assert not self.last_fallback and self.last_workers == 2
        maps.append(tuple(snapshots))
        return outcomes

    monkeypatch.setattr(ParallelExecutor, "map_snapshots", recording)
    return maps


@pytest.fixture
def runs(monkeypatch, tmp_path):
    """Every ``run_snapshot`` call's label, forked workers' included
    (each appends one line to a shared file before it runs)."""
    log = tmp_path / "runs.log"
    real = OffnetPipeline.run_snapshot

    def logged(self, snapshot):
        with log.open("a", encoding="utf-8") as handle:
            handle.write(snapshot.label + "\n")
        return real(self, snapshot)

    monkeypatch.setattr(OffnetPipeline, "run_snapshot", logged)
    return lambda: sorted(log.read_text(encoding="utf-8").split()) if log.exists() else []


@contextmanager
def live_thread():
    """A second thread alive for the block, as a daemon's HTTP threads are."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join()


def state_files(state: Path) -> dict[str, bytes]:
    """Every byte of a state dir's committed index."""
    return {
        str(path.relative_to(state)): path.read_bytes()
        for path in sorted(state.rglob("*.json"))
    }


def break_corpus(directory: Path, snapshot) -> None:
    """Append a record a strict reader refuses."""
    path = directory / "corpora" / "rapid7" / f"{snapshot.label}.jsonl"
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"ip": "203.0.113.9", "truncated\n')


class TestForkedCatchUp:
    def test_forked_first_pass_commits_the_in_process_view(
        self, dataset, options, tmp_path, forks
    ):
        assert threading.active_count() == 1, "the forked path needs a lone thread"
        forked = DeltaIngestor(dataset["dir"], tmp_path / "forked", options=options)
        report = forked.ingest_once()
        assert forks == [dataset["snapshots"]]
        assert report.ingested == dataset["snapshots"] and report.committed

        with live_thread():
            threaded = DeltaIngestor(dataset["dir"], tmp_path / "threaded", options=options)
            assert threaded.ingest_once().ingested == dataset["snapshots"]
        assert len(forks) == 1

        assert state_files(tmp_path / "forked") == state_files(tmp_path / "threaded")
        for snapshot in dataset["snapshots"]:
            assert forked.view().at(snapshot) == threaded.view().at(snapshot)

    def test_a_pass_beside_a_live_thread_does_not_fork(
        self, dataset, options, tmp_path, forks
    ):
        with live_thread():
            report = DeltaIngestor(dataset["dir"], tmp_path / "state", options=options).ingest_once()
        assert report.ingested == dataset["snapshots"]
        assert forks == []

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
    def test_a_faulty_snapshot_fails_alone(
        self, dataset, options, copy, tmp_path, forks, runs, forked
    ):
        faulty = dataset["snapshots"][2]
        break_corpus(copy, faulty)
        ingestor = DeltaIngestor(copy, tmp_path / "state", options=options)
        if forked:
            report = ingestor.ingest_once()
            assert forks == [dataset["snapshots"]]
        else:
            with live_thread():
                report = ingestor.ingest_once()
            assert forks == []

        healthy = tuple(s for s in dataset["snapshots"] if s != faulty)
        assert report.failed == (faulty,)
        assert report.ingested == healthy
        assert ingestor.view().snapshots == healthy
        # Each snapshot ran once, the faulty one included, and each
        # healthy one ran every stage once: nothing was re-run.
        assert runs() == sorted(s.label for s in dataset["snapshots"])
        stage_runs = report.metrics.histograms_by_label(STAGE_SECONDS, "stage")
        assert stage_runs and {h.count for h in stage_runs.values()} == {len(healthy)}

    def test_rules_that_fail_to_learn_fail_every_snapshot(
        self, dataset, options, copy, tmp_path, forks, runs
    ):
        break_corpus(copy, options.header_learning_snapshot)
        ingestor = DeltaIngestor(copy, tmp_path / "state", options=options)
        report = ingestor.ingest_once()
        assert report.failed == dataset["snapshots"]
        assert report.ingested == () and not report.committed
        assert forks == [] and runs() == []


class TestIngestTokens:
    def test_a_changed_learning_snapshot_re_ingests_every_snapshot(
        self, dataset, options, copy, tmp_path
    ):
        """Every snapshot's §4.5 verdicts rest on the rules learned from
        the learning snapshot, so new content there re-keys them all."""
        state = tmp_path / "state"
        DeltaIngestor(copy, state, options=options).ingest_once()

        learning = options.header_learning_snapshot
        other = tmp_path / "other"
        export_dataset(build_world(seed=SEED, scale=2 * SCALE), other, snapshots=(learning,))
        corpus = Path("corpora") / "rapid7" / f"{learning.label}.jsonl"
        shutil.copyfile(other / corpus, copy / corpus)

        report = DeltaIngestor(copy, state, options=options).ingest_once()
        assert report.ingested == dataset["snapshots"]
        assert report.skipped == ()
        DeltaIngestor(copy, tmp_path / "fresh", options=options).ingest_once()
        assert state_files(state) == state_files(tmp_path / "fresh")

    def test_curated_rules_do_not_key_on_the_learning_snapshot(
        self, dataset, copy, tmp_path
    ):
        options = PipelineOptions(
            header_learning_snapshot=dataset["snapshots"][-1], learn_headers=False
        )
        state = tmp_path / "state"
        DeltaIngestor(copy, state, options=options).ingest_once()
        break_corpus(copy, options.header_learning_snapshot)
        report = DeltaIngestor(copy, state, options=options).ingest_once()
        assert report.ingested == () and report.failed == (options.header_learning_snapshot,)

    def test_a_missing_corpus_file_fails_its_snapshot_not_the_pass(
        self, dataset, options, copy, tmp_path
    ):
        victim = dataset["snapshots"][1]
        (copy / "corpora" / "rapid7" / f"{victim.label}.jsonl").unlink()
        ingestor = DeltaIngestor(copy, tmp_path / "state", options=options)
        first = ingestor.ingest_once()
        assert first.failed == (victim,)
        assert first.ingested == tuple(s for s in dataset["snapshots"] if s != victim)
        # Retried every pass, while the others stay skipped.
        second = ingestor.ingest_once()
        assert second.failed == (victim,)
        assert second.skipped == first.ingested and not second.committed

