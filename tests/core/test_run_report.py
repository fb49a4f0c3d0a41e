"""The run report across executors: pickled worker registries must merge
into a report whose deterministic view is byte-identical to the serial
one, and the CLI ``--report`` flag must emit a schema-valid file for any
``--jobs`` value."""

import json

import pytest

from repro.cli import _print_resume_probe, main
from repro.core import OffnetPipeline, PipelineOptions
from repro.obs.report import (
    SCHEMA_VERSION,
    deterministic_view,
    load_report,
    validate_report,
)
from repro.timeline import Snapshot
from repro.world import build_world
from tools.check_report import compare_reports

#: Same era-spanning subset the executor determinism tests use.
SNAPSHOTS = (
    Snapshot(2016, 10),
    Snapshot(2017, 10),
    Snapshot(2019, 10),
    Snapshot(2020, 10),
    Snapshot(2021, 4),
)


@pytest.fixture(scope="module")
def reports():
    """Serial and jobs=2 reports over the same world."""
    world = build_world(seed=7, scale=0.008)
    serial = OffnetPipeline(world, PipelineOptions(jobs=1)).run(snapshots=SNAPSHOTS)
    parallel = OffnetPipeline(world, PipelineOptions(jobs=2)).run(snapshots=SNAPSHOTS)
    assert serial == parallel
    return serial.report(), parallel.report()


class TestReportSchema:
    def test_reports_are_schema_valid(self, reports):
        serial_report, parallel_report = reports
        assert validate_report(serial_report) == []
        assert validate_report(parallel_report) == []
        assert serial_report["schema"] == SCHEMA_VERSION

    def test_funnel_counts_are_internally_consistent(self, reports):
        serial_report, _ = reports
        for entry in serial_report["funnel"].values():
            assert (
                entry["valid"] + entry["expired_only"] + entry["rejected"]
                == entry["tls_records"]
            )
            for columns in entry["hypergiants"].values():
                # the funnel only narrows: candidates ⊇ confirmed
                assert columns["confirmed"] <= columns["candidates"]

    def test_stage_table_covers_every_stage(self, reports):
        serial_report, _ = reports
        stages = set(serial_report["stages"])
        assert {
            "scan", "validate", "match", "candidates", "confirm", "netflix", "merge",
        } <= stages
        assert all(serial_report["stages"][s]["seconds"] >= 0.0 for s in stages)

    def test_executor_sections_tell_the_truth(self, reports):
        serial_report, parallel_report = reports
        assert serial_report["executor"]["kind"] == "serial"
        assert parallel_report["executor"]["jobs"] == 2

    def test_options_exclude_execution_details(self, reports):
        """``jobs`` must not leak into options: the deterministic view
        compares options across executors."""
        serial_report, parallel_report = reports
        assert "jobs" not in serial_report["options"]
        assert serial_report["options"] == parallel_report["options"]


class TestCrossExecutorDeterminism:
    def test_merged_report_equals_serial_bit_for_bit(self, reports):
        """The satellite guarantee: worker registries pickled back and
        merged at the barrier produce the *same bytes* as a serial run
        for every deterministic section."""
        serial_report, parallel_report = reports
        serial_bytes = json.dumps(
            deterministic_view(serial_report), sort_keys=True
        ).encode()
        parallel_bytes = json.dumps(
            deterministic_view(parallel_report), sort_keys=True
        ).encode()
        assert serial_bytes == parallel_bytes

    def test_comparator_accepts_the_pair(self, reports):
        serial_report, parallel_report = reports
        assert compare_reports(serial_report, parallel_report) == []

    def test_comparator_catches_injected_drift(self, reports):
        serial_report, parallel_report = reports
        tampered = json.loads(json.dumps(parallel_report))
        label = serial_report["snapshots"][-1]
        tampered["funnel"][label]["valid"] += 1
        problems = compare_reports(serial_report, tampered)
        assert any("funnel drift" in p for p in problems)


class TestCLIReport:
    def test_run_report_flag_with_parallel_jobs(self, tmp_path, capsys):
        """`python -m repro run --jobs 2 --cache-dir D --report out.json`,
        scaled down for test time, then `run --cache-dir D --resume
        --report`: the resumed run reports the cold funnel and reuses
        the cold run's artifacts."""
        out = tmp_path / "run.json"
        cache_dir = str(tmp_path / "stage-cache")
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "0.008",
                    "--jobs",
                    "2",
                    "--cache-dir",
                    cache_dir,
                    "--report",
                    str(out),
                ]
            )
            == 0
        )
        assert "wrote run report" in capsys.readouterr().out
        report = load_report(out)
        assert validate_report(report) == []
        assert report["executor"]["jobs"] == 2

        resumed = tmp_path / "resumed.json"
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "0.008",
                    "--cache-dir",
                    cache_dir,
                    "--resume",
                    "--report",
                    str(resumed),
                ]
            )
            == 0
        )
        total = len(report["snapshots"])
        assert f"resume: {total}/{total} snapshots fully cached" in capsys.readouterr().out
        assert compare_reports(report, load_report(resumed), expect_cache_hits=True) == []

    def test_resume_line_counts_half_cached_snapshots(self, capsys):
        """One snapshot fully cached, one with only its first light
        stages: the ``--resume`` line tells them apart."""
        pipeline = OffnetPipeline(build_world(seed=7, scale=0.005))
        complete, partial = SNAPSHOTS[-2:]
        pipeline.run_snapshot(complete)
        pipeline.run_stages(("ingest", "vstats"), snapshots=(partial,))
        _print_resume_probe(pipeline)
        total = len(pipeline.select_snapshots())
        assert (
            f"resume: 1/{total} snapshots fully cached, 1 partially"
            in capsys.readouterr().out
        )
