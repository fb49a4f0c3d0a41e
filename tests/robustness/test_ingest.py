"""End-to-end ingestion robustness: policies, parity, cache coherence.

The contract under test (the PR's acceptance criteria):

* on a **clean** corpus, every policy and every execution shape
  (jobs=1/jobs=2, cache off/cold/warm) produces bit-identical funnels;
* on a **fault-injected** corpus, ``strict`` fails fast with position
  info, ``lenient`` completes and accounts for exactly the injected
  faults, and the off-nets it confirms are exactly those derivable from
  the surviving records (= a strict run over the physically cleaned
  corpus);
* ``on_error`` participates in stage cache keys, so artifacts computed
  under one policy are never served to a run under another.
"""

import json
import pickle
import shutil

import pytest

from repro.core import OffnetPipeline, PipelineOptions
from repro.core.stages import TERMINAL_STAGES
from repro.datasets import FileDataset, export_dataset
from repro.obs.report import build_report, deterministic_view
from repro.robustness import CorpusParseError, IngestPolicy
from repro.timeline import Snapshot
from tools.inject_faults import inject_faults

SNAPS = (Snapshot(2020, 7), Snapshot(2020, 10))
FAULTS = {
    "truncate": 1,
    "drop_field": 1,
    "string_ip": 1,
    "bad_chain_ref": 1,
    "break_cert": 1,
    "conflict_chain": 1,
}


@pytest.fixture(scope="module")
def clean_dir(small_world, tmp_path_factory):
    directory = tmp_path_factory.mktemp("robust-clean")
    export_dataset(small_world, directory, snapshots=SNAPS)
    return directory


@pytest.fixture(scope="module")
def injected(clean_dir, tmp_path_factory):
    directory = tmp_path_factory.mktemp("robust-injected") / "data"
    shutil.copytree(clean_dir, directory)
    faults = inject_faults(
        directory, snapshot=SNAPS[1].label, seed=7, counts=FAULTS
    )
    return directory, faults


def _run(directory, **overrides):
    options = PipelineOptions(corpus="rapid7", **overrides)
    return OffnetPipeline(FileDataset(directory), options).run()


class TestCleanCorpusParity:
    def test_policies_agree_on_clean_corpus(self, clean_dir):
        strict = _run(clean_dir, on_error="strict")
        lenient = _run(clean_dir, on_error="lenient")
        repair = _run(clean_dir, on_error="repair")
        funnels = [
            build_report(result)["funnel"] for result in (strict, lenient, repair)
        ]
        assert funnels[0] == funnels[1] == funnels[2]
        ingest = build_report(lenient)["ingest"]
        assert ingest["quarantined"] == 0 and ingest["repaired"] == 0
        assert ingest["seen"] == ingest["accepted"] > 0

    def test_jobs_parity_on_corrupted_corpus(self, injected):
        directory, _ = injected
        serial = _run(directory, on_error="lenient", jobs=1)
        parallel = _run(directory, on_error="lenient", jobs=2)
        assert deterministic_view(build_report(serial)) == deterministic_view(
            build_report(parallel)
        )
        assert build_report(serial)["ingest"] == build_report(parallel)["ingest"]

    def test_cache_parity_on_corrupted_corpus(self, injected, tmp_path):
        directory, _ = injected
        uncached = _run(directory, on_error="lenient")
        cache_dir = str(tmp_path / "cache")
        cold = _run(directory, on_error="lenient", cache_dir=cache_dir)
        warm = _run(directory, on_error="lenient", cache_dir=cache_dir)
        views = [
            deterministic_view(build_report(result))
            for result in (uncached, cold, warm)
        ]
        assert views[0] == views[1] == views[2]
        ingests = [
            build_report(result)["ingest"] for result in (uncached, cold, warm)
        ]
        assert ingests[0] == ingests[1] == ingests[2]
        # The warm run actually hit the cache (the parity is not vacuous).
        assert build_report(warm)["stage_cache"]["hits"] > 0


class TestDirtyCorpus:
    def test_strict_fails_fast_with_position(self, injected):
        directory, faults = injected
        with pytest.raises(CorpusParseError) as excinfo:
            _run(directory, on_error="strict")
        error = excinfo.value
        first_bad = min(
            line for lines in faults["lines"].values() for line in lines
        )
        assert error.line_number == first_bad
        assert error.byte_offset > 0
        assert f"{SNAPS[1].label}.jsonl" in error.path

    def test_lenient_accounts_for_every_fault(self, injected, tmp_path):
        directory, faults = injected
        quarantine_dir = tmp_path / "quarantine"
        result = _run(
            directory, on_error="lenient", quarantine_dir=str(quarantine_dir)
        )
        ingest = build_report(result)["ingest"]
        assert ingest["quarantined_by_class"] == faults["expected_classes"]
        assert ingest["repaired"] == 0
        quarantine_file = quarantine_dir / "rapid7" / f"{SNAPS[1].label}.jsonl"
        entries = [
            json.loads(line)
            for line in quarantine_file.read_text().splitlines()
        ]
        assert len(entries) == ingest["quarantined"]
        # The clean snapshot writes an empty quarantine file: positive
        # evidence that nothing was dropped there.
        clean_file = quarantine_dir / "rapid7" / f"{SNAPS[0].label}.jsonl"
        assert clean_file.exists() and clean_file.read_text() == ""

    def test_lenient_equals_strict_on_cleaned_corpus(self, injected, tmp_path):
        """Lenient must confirm exactly the off-nets derivable from the
        surviving records: physically delete the quarantined lines and a
        strict run over the result must produce the same funnel."""
        directory, _ = injected
        quarantine_dir = tmp_path / "quarantine"
        lenient = _run(
            directory, on_error="lenient", quarantine_dir=str(quarantine_dir)
        )
        quarantine_file = quarantine_dir / "rapid7" / f"{SNAPS[1].label}.jsonl"
        dropped = {
            json.loads(line)["line"]
            for line in quarantine_file.read_text().splitlines()
        }
        cleaned_dir = tmp_path / "cleaned"
        shutil.copytree(directory, cleaned_dir)
        corpus = cleaned_dir / "corpora" / "rapid7" / f"{SNAPS[1].label}.jsonl"
        survivors = [
            line
            for number, line in enumerate(
                corpus.read_text().splitlines(), start=1
            )
            if number not in dropped
        ]
        corpus.write_text("\n".join(survivors) + "\n")
        strict = _run(cleaned_dir, on_error="strict")
        assert build_report(strict)["funnel"] == build_report(lenient)["funnel"]

    def test_repair_restores_repairable_rows(self, injected):
        directory, faults = injected
        lenient = _run(directory, on_error="lenient")
        repair = _run(directory, on_error="repair")
        ingest = build_report(repair)["ingest"]
        assert ingest["repaired_by_class"] == {
            "string_ip": FAULTS["string_ip"],
            "conflicting_chain": FAULTS["conflict_chain"],
        }
        funnel_l = build_report(lenient)["funnel"][SNAPS[1].label]
        funnel_r = build_report(repair)["funnel"][SNAPS[1].label]
        # The repaired string_ip row returns to the TLS funnel; the
        # repaired conflict keeps the first chain, adding no rows.
        assert (
            funnel_r["tls_records"]
            == funnel_l["tls_records"] + FAULTS["string_ip"]
        )


class TestCacheKeys:
    def test_on_error_participates_in_cache_keys(self, clean_dir, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _run(clean_dir, on_error="strict", cache_dir=cache_dir)
        lenient_pipeline = OffnetPipeline(
            FileDataset(clean_dir),
            PipelineOptions(
                corpus="rapid7", on_error="lenient", cache_dir=cache_dir
            ),
        )
        probe = lenient_pipeline.probe_cache()
        assert all(
            not cached
            for stages in probe.values()
            for cached in stages.values()
        ), "artifacts keyed under strict must not serve a lenient run"

    def test_quarantine_dir_does_not_rekey(self, clean_dir, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _run(clean_dir, on_error="lenient", cache_dir=cache_dir)
        relocated = OffnetPipeline(
            FileDataset(clean_dir),
            PipelineOptions(
                corpus="rapid7",
                on_error="lenient",
                cache_dir=cache_dir,
                quarantine_dir=str(tmp_path / "elsewhere"),
            ),
        )
        probe = relocated.probe_cache()
        assert all(
            stages[name]
            for stages in probe.values()
            for name in TERMINAL_STAGES
        ), "moving the quarantine dir must not invalidate cached artifacts"


class TestPolicyGuards:
    def test_parse_error_pickles_whole(self):
        """A forked ingest worker sends its parse error home pickled."""
        error = CorpusParseError(
            "truncated record", path="c/2019-10.jsonl", line_number=7,
            byte_offset=311, error_class="malformed_json",
        )
        copy = pickle.loads(pickle.dumps(error))
        assert str(copy) == str(error)
        assert (copy.path, copy.line_number, copy.byte_offset, copy.error_class) == (
            "c/2019-10.jsonl", 7, 311, "malformed_json",
        )

    def test_memory_sources_refuse_non_strict(self, small_world):
        with pytest.raises(ValueError, match="configure_ingest"):
            OffnetPipeline(small_world, PipelineOptions(on_error="lenient"))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="strict, lenient, repair"):
            PipelineOptions(on_error="ignore")
        with pytest.raises(ValueError, match="strict, lenient, repair"):
            IngestPolicy(mode="ignore")

    def test_on_error_reported_in_options(self, clean_dir):
        result = _run(clean_dir, on_error="lenient")
        assert build_report(result)["options"]["on_error"] == "lenient"


class TestQuarantineWriteAtomicity:
    """Regression: the quarantine JSONL writer must be atomic — a mid-run
    kill leaves either the previous file or the complete new one, never a
    torn prefix an operator might grep as if complete."""

    def _sink(self):
        from repro.robustness import QuarantineSink

        sink = QuarantineSink(source="corpus.jsonl")
        sink.quarantine(2, 40, "malformed_json", "boom", '{"bad')
        sink.quarantine(5, 99, "string_ip", "stringly", '{"ip": "1.2.3.4"}')
        return sink

    def test_write_leaves_no_temp_files(self, tmp_path):
        path = self._sink().write(tmp_path / "q" / "2020-10.jsonl")
        assert path.exists()
        leftovers = [p for p in path.parent.iterdir() if p != path]
        assert leftovers == []
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["class"] for e in entries] == ["malformed_json", "string_ip"]

    def test_failed_write_preserves_previous_file(self, tmp_path, monkeypatch):
        import os as os_module

        import repro.robustness.quarantine as quarantine_module

        path = tmp_path / "2020-10.jsonl"
        path.write_text('{"previous": true}\n')

        def exploding_replace(src, dst):
            raise OSError("disk pulled")

        monkeypatch.setattr(
            quarantine_module.os, "replace", exploding_replace
        )
        with pytest.raises(OSError, match="disk pulled"):
            self._sink().write(path)
        monkeypatch.setattr(quarantine_module.os, "replace", os_module.replace)
        # The old file is untouched and the temp file was cleaned up.
        assert path.read_text() == '{"previous": true}\n'
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
