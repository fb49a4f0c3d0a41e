"""The serve layer, end to end: delta ingestion, the daemon, the drill.

The drill starts a daemon over an exported dataset, queries a baseline,
drops **two** new snapshots into the directory — one clean, one with
malformed records (quarantined under the lenient policy) — and asserts
that

* only the two new snapshots are (re)analysed: everything already
  indexed is *skipped*, proven by the ``serve_ingest_events`` counters;
* queries keep answering while the ingest runs;
* the post-ingest answers equal a fresh batch run over the same files.
"""

import http.client
import json
import shutil
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest

from repro.core.pipeline import OffnetPipeline, PipelineOptions
from repro.datasets import FileDataset, export_dataset, export_snapshot
from repro.serve import DeltaIngestor, ServeDaemon, query_server, server_url
from repro.serve.ingest import INGEST_EVENTS
from repro.world import build_world

BASELINE = 6  # snapshots exported before the daemon starts


@pytest.fixture(scope="module")
def serve_world():
    """A small world whose corpus the serve tests export piecemeal."""
    return build_world(seed=5, scale=0.01)


@pytest.fixture(scope="module")
def dataset(serve_world, tmp_path_factory):
    """An exported dataset holding the first ``BASELINE`` snapshots, plus
    the two held-out snapshots the drill drops in later."""
    directory = tmp_path_factory.mktemp("serve-data")
    snapshots = serve_world.snapshots
    export_dataset(serve_world, directory, snapshots=snapshots[:BASELINE])
    return {
        "dir": directory,
        "baseline": snapshots[:BASELINE],
        "clean": snapshots[BASELINE],
        "faulty": snapshots[BASELINE + 1],
    }


@pytest.fixture(scope="module")
def daemon(dataset, tmp_path_factory):
    """A running daemon over the dataset, lenient policy + quarantine.

    The §4.4 learning snapshot is pinned to the last *baseline* snapshot
    (the paper's 2020-10 corpus is not exported here) — pinned once at
    daemon start, exactly like ``repro serve`` does, so ingest tokens
    stay stable as later snapshots land.
    """
    state = tmp_path_factory.mktemp("serve-state")
    quarantine = tmp_path_factory.mktemp("serve-quarantine")
    options = PipelineOptions(
        on_error="lenient",
        quarantine_dir=str(quarantine),
        header_learning_snapshot=dataset["baseline"][-1],
    )
    daemon = ServeDaemon(
        dataset["dir"],
        state,
        options=options,
        poll_interval=30.0,  # the drill drives ingest_now() explicitly
    )
    daemon.start()
    daemon.quarantine_dir = quarantine
    yield daemon
    daemon.stop()


def land_drop(world, dataset, directory):
    """Land the two held-out snapshots in ``directory``: the clean one,
    then the faulty one with a truncated record and a garbage line
    appended to its corpus file."""
    export_snapshot(world, directory, dataset["clean"])
    faulty_path = export_snapshot(world, directory, dataset["faulty"])
    with faulty_path.open("a", encoding="utf-8") as handle:
        handle.write('{"ip": "203.0.113.9", "truncated\n')
        handle.write("utter garbage, not even json\n")


def events(registry_dict: dict) -> dict[str, int]:
    """The ``serve_ingest_events`` counters by event label."""
    out: dict[str, int] = {}
    for entry in registry_dict.get("counters", []):
        if entry["name"] == INGEST_EVENTS:
            label = entry["labels"].get("event")
            out[label] = out.get(label, 0) + entry["value"]
    return out


class TestBaseline:
    def test_initial_ingest_indexed_everything(self, daemon, dataset):
        url = daemon.url()
        status = query_server(url, "status")
        assert status["corpus"] == "rapid7"
        assert status["snapshots"] == [s.label for s in dataset["baseline"]]

    def test_status_reports_the_confirmation_configuration(self, daemon):
        """Operators read the active ``--signals`` / ``--confirm-policy``
        off ``/status`` — here the dataclass defaults."""
        defaults = PipelineOptions()
        status = query_server(daemon.url(), "status")
        assert status["signals"] == list(defaults.signals)
        assert status["confirm_policy"] == defaults.confirm_policy

    def test_server_url_discovery(self, daemon):
        assert server_url(daemon.state_dir) == daemon.url()

    def test_endpoint_json_has_the_bound_address(self, daemon):
        payload = json.loads(
            (daemon.state_dir / "endpoint.json").read_text(encoding="utf-8")
        )
        assert payload["url"] == daemon.url()
        assert payload["port"] == daemon.address()[1]

    def test_idle_pass_skips_everything(self, daemon):
        report = daemon.ingest_now()
        assert not report.committed
        assert len(report.skipped) == BASELINE
        assert report.ingested == () and report.failed == ()

    def test_query_endpoints_answer(self, daemon, dataset):
        url = daemon.url()
        last = dataset["baseline"][-1].label
        ranked = query_server(url, "hypergiants")["hypergiants"]
        assert "google" in ranked
        series = query_server(url, "series", {"hg": "google"})
        assert len(series["counts"]) == BASELINE
        footprint = query_server(
            url, "footprint", {"hg": "google", "snapshot": last}
        )
        assert footprint["ases"] == sorted(footprint["ases"])
        diff = query_server(
            url,
            "diff",
            {"hg": "google", "from": dataset["baseline"][0].label, "to": last},
        )
        assert set(diff) >= {"added", "removed"}
        by_country = query_server(
            url, "slice", {"by": "country", "hg": "google", "snapshot": last}
        )
        assert sum(len(v) for v in by_country["countries"].values()) == len(
            footprint["ases"]
        )
        if footprint["ases"]:
            hosted = query_server(
                url,
                "slice",
                {"by": "as", "asn": str(footprint["ases"][0]), "snapshot": last},
            )
            assert "google" in hosted["hypergiants"]

    def test_bad_queries_get_400_bodies(self, daemon, dataset):
        url = daemon.url()
        last = dataset["baseline"][-1].label
        assert "missing" in query_server(url, "series")["error"]
        assert "YYYY-MM" in query_server(
            url, "footprint", {"hg": "google", "snapshot": "october"}
        )["error"]
        assert "no AS topology" in query_server(
            url, "slice", {"by": "cone", "snapshot": last}
        )["error"]
        assert "unknown endpoint" in query_server(url, "nonsense")["error"]
        assert "metric" in query_server(
            url, "series", {"hg": "google", "metric": "bogus"}
        )["error"]

    def test_answers_on_one_connection_do_not_stall(self, daemon):
        """The handler writes headers and body separately; with Nagle's
        algorithm on, every answer on a kept-alive connection waited for
        the client's delayed ACK (about 40 ms).  The ``/metrics`` answer
        is larger than one 8 KB write buffer."""
        with closing(http.client.HTTPConnection(*daemon.address(), timeout=10)) as connection:
            for path in ("/status", "/metrics"):
                seconds = []
                for _ in range(20):
                    started = time.perf_counter()
                    connection.request("GET", path)
                    body = connection.getresponse().read()
                    seconds.append(time.perf_counter() - started)
                assert statistics.median(seconds) < 0.020, (path, seconds)
        assert len(body) > 8192

    def test_a_burst_of_connects_is_answered_without_a_syn_retry(self, daemon):
        """32 clients connect at the same instant, three times over.  With
        socketserver's default listen backlog of 5, the connects that
        overflowed it waited out the kernel's 1 s SYN retry."""
        clients = 32

        def status(barrier):
            barrier.wait()
            started = time.perf_counter()
            with closing(http.client.HTTPConnection(*daemon.address(), timeout=10)) as connection:
                connection.request("GET", "/status")
                response = connection.getresponse()
                response.read()
            return response.status, time.perf_counter() - started

        with ThreadPoolExecutor(max_workers=clients) as pool:
            for _ in range(3):
                barrier = threading.Barrier(clients, timeout=10)
                answers = list(pool.map(status, [barrier] * clients))
                assert [code for code, _ in answers] == [200] * clients
                slowest = max(seconds for _, seconds in answers)
                assert slowest < 0.5, answers


class TestDrill:
    """The drill proper.  Ordered within the class: the drop
    happens once and later tests assert on the resulting state."""

    def test_drop_two_snapshots_ingests_only_the_delta(
        self, daemon, dataset, serve_world
    ):
        land_drop(serve_world, dataset, dataset["dir"])

        queries_during_ingest = []
        stop = threading.Event()

        def hammer():
            url = daemon.url()
            while not stop.is_set():
                body = query_server(url, "hypergiants")
                queries_during_ingest.append("error" not in body)
                time.sleep(0.01)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            report = daemon.ingest_now()
        finally:
            stop.set()
            thread.join()

        # Delta-only: the two new snapshots ran, every baseline snapshot
        # was skipped at the index level without touching its stages.
        assert {s.label for s in report.ingested} == {
            dataset["clean"].label,
            dataset["faulty"].label,
        }
        assert len(report.skipped) == BASELINE
        counted = events(report.metrics.to_dict())
        assert counted["ingested"] == 2
        assert counted["skipped"] == BASELINE
        # Availability: every query issued while the ingest ran succeeded.
        assert queries_during_ingest and all(queries_during_ingest)

    def test_faulty_records_were_quarantined(self, daemon, dataset):
        quarantined = daemon.registry.sum_counters("ingest_quarantined")
        assert quarantined >= 2
        quarantine_file = (
            daemon.quarantine_dir / "rapid7" / f"{dataset['faulty'].label}.jsonl"
        )
        assert quarantine_file.exists()
        entries = [
            json.loads(line)
            for line in quarantine_file.read_text(encoding="utf-8").splitlines()
        ]
        assert all(entry["action"] == "quarantined" for entry in entries)

    def test_post_ingest_equals_a_fresh_batch_run(self, daemon, dataset):
        options = PipelineOptions(
            on_error="lenient",
            quarantine_dir=str(daemon.quarantine_dir / "batch-rerun"),
            header_learning_snapshot=dataset["baseline"][-1],
        )
        batch = OffnetPipeline(FileDataset(dataset["dir"]), options).run()
        url = daemon.url()
        status = query_server(url, "status")
        assert status["snapshots"] == [s.label for s in batch.snapshots]
        for hg in batch.hypergiants():
            served = query_server(url, "series", {"hg": hg})["counts"]
            assert served == [count for _, count in batch.series(hg)], hg
        for metric in ("with_expired", "with_expired_nontls"):
            served = query_server(
                url, "series", {"hg": "netflix", "metric": metric}
            )["counts"]
            assert served == [count for _, count in batch.series("netflix", metric)]

    def test_metrics_endpoint_carries_the_serve_instruments(self, daemon):
        body = query_server(daemon.url(), "metrics")
        names = {entry["name"] for entry in body.get("counters", [])}
        assert "serve_queries" in names
        assert INGEST_EVENTS in names
        gauge_names = {entry["name"] for entry in body.get("gauges", [])}
        assert "serve_indexed_snapshots" in gauge_names
        assert "serve_ingest_lag_seconds" in gauge_names
        histogram_names = {entry["name"] for entry in body.get("histograms", [])}
        assert "serve_query_seconds" in histogram_names
        assert "serve_ingest_seconds" in histogram_names


class TestStrictFailureIsolation:
    @pytest.fixture(scope="class")
    def directory(self, serve_world, dataset, tmp_path_factory):
        """This class's own copy of the dataset, both held-out snapshots
        landed, whether or not the drill has run."""
        directory = tmp_path_factory.mktemp("strict-data") / "dataset"
        shutil.copytree(dataset["dir"], directory)
        land_drop(serve_world, dataset, directory)
        return directory

    @pytest.fixture
    def ingestor(self, dataset, directory, tmp_path):
        """A strict-policy ingestor over the copy, faulty snapshot included."""
        options = PipelineOptions(header_learning_snapshot=dataset["baseline"][-1])
        return DeltaIngestor(directory, tmp_path / "strict-state", options=options)

    def test_a_snapshot_that_refuses_to_parse_is_left_out(self, dataset, ingestor):
        """Under strict policy a faulty snapshot is reported as failed and
        excluded while the healthy timeline keeps serving."""
        report = ingestor.ingest_once()
        assert [s.label for s in report.failed] == [dataset["faulty"].label]
        assert dataset["faulty"] not in ingestor.view().snapshots
        assert dataset["clean"] in ingestor.view().snapshots
        counted = events(report.metrics.to_dict())
        assert counted["failed"] == 1

    def test_the_failed_snapshot_is_retried_every_pass(self, dataset, ingestor):
        first = ingestor.ingest_once()
        second = ingestor.ingest_once()
        assert [s.label for s in second.failed] == [dataset["faulty"].label]
        assert len(second.skipped) == len(first.skipped) + len(first.ingested)
        assert not second.committed  # nothing changed state the second time


class TestDamagedState:
    def test_a_missing_payload_is_reingested(self, dataset, tmp_path):
        """A state dir whose manifest lists a snapshot with no payload
        reopens without it, and the next pass re-ingests exactly that
        snapshot."""
        options = PipelineOptions(header_learning_snapshot=dataset["baseline"][-1])
        state = tmp_path / "state"
        first = DeltaIngestor(dataset["dir"], state, options=options).ingest_once()
        victim = first.ingested[0]
        (payload,) = (state / "snapshots").glob(f"{victim.label}-*.json")
        payload.unlink()
        reopened = DeltaIngestor(dataset["dir"], state, options=options)
        assert victim not in reopened.view().snapshots
        second = reopened.ingest_once()
        assert second.ingested == (victim,)
        assert second.committed
        assert victim in reopened.view().snapshots
