"""The persistent footprint index: one query surface, the durable store,
and parity.

The tentpole property: every analysis answer is **bit-identical** no
matter which backend produced it —

(a) the in-memory ``PipelineResult`` (the batch path, unchanged),
(b) the view of a ``DurableFootprintIndex`` built cold from the same
    outcomes in snapshot order, and
(c) the view of a ``DurableFootprintIndex`` built *incrementally* with
    the outcomes arriving in shuffled order, committing after every fold.

Case (c) is the serve daemon's life: snapshots land whenever corpora are
published, yet the §6.2 Netflix restoration is an ordered fold, so the
index must recompute it over the whole timeline at commit rather than
accumulate it in arrival order.
"""

import dataclasses
import json
import random
import shutil

import pytest

from repro.analysis import build_table3
from repro.analysis.growth import (
    covid_slowdown,
    ip_count_series,
    quarterly_additions,
    top4_effective_counts,
    top4_growth,
)
from repro.analysis.overlap import (
    newcomer_fractions,
    persistence_distribution,
    stable_host_distribution,
    top4_multiplicity,
    top4_share_of_all_hosts,
)
from repro.core import restore_netflix
from repro.core.footprint import PipelineResult
from repro.core.footprint_index import (
    INDEX_FORMAT,
    DurableFootprintIndex,
    FootprintIndex,
    IndexView,
)


@pytest.fixture(scope="module")
def outcomes(pipeline, pipeline_result):
    """One pure per-snapshot outcome per snapshot (the fold inputs)."""
    return [pipeline.run_snapshot(s) for s in pipeline_result.snapshots]


@pytest.fixture(scope="module")
def cold_index(tmp_path_factory, pipeline_result, outcomes):
    """Backend (b): folded in snapshot order, committed once."""
    index = DurableFootprintIndex(
        tmp_path_factory.mktemp("cold"), corpus=pipeline_result.corpus
    )
    for number, outcome in enumerate(outcomes):
        index.fold(outcome, f"token-{number}")
    index.commit()
    return index


@pytest.fixture(scope="module")
def shuffled_index(tmp_path_factory, pipeline_result, outcomes):
    """Backend (c): shuffled arrival, a commit after every fold — the
    daemon's incremental life, compressed."""
    index = DurableFootprintIndex(
        tmp_path_factory.mktemp("shuffled"), corpus=pipeline_result.corpus
    )
    arrival = list(enumerate(outcomes))
    random.Random(20210831).shuffle(arrival)
    for number, outcome in arrival:
        index.fold(outcome, f"token-{number}")
        index.commit()
    return index


@pytest.fixture(scope="module")
def backends(cold_index, shuffled_index):
    """The durable backends' committed views, plus the view of a cold
    *reload* — each is compared against the batch result."""
    return {
        "cold": cold_index.view(),
        "shuffled-incremental": shuffled_index.view(),
        "reloaded": DurableFootprintIndex(shuffled_index.state_dir).view(),
    }


def assert_footprints_identical(result, index):
    """Field-by-field equality of every footprint snapshot."""
    assert index.corpus == result.corpus
    assert index.snapshots == result.snapshots
    for snapshot in result.snapshots:
        assert index.at(snapshot) == result.at(snapshot), snapshot


class TestThreeWayParity:
    def test_timelines_and_footprints_match(self, pipeline_result, backends):
        for name, backend in backends.items():
            assert_footprints_identical(pipeline_result, backend)

    def test_query_surface_matches(self, pipeline_result, backends):
        last = pipeline_result.snapshots[-1]
        first = pipeline_result.snapshots[0]
        for backend in backends.values():
            assert backend.hypergiants() == pipeline_result.hypergiants()
            assert backend.hypergiants("candidates") == pipeline_result.hypergiants(
                "candidates"
            )
            for hg in pipeline_result.hypergiants():
                assert backend.series(hg) == pipeline_result.series(hg)
                assert backend.effective_footprint(
                    hg, last
                ) == pipeline_result.effective_footprint(hg, last)
                assert backend.diff(hg, first, last) == pipeline_result.diff(
                    hg, first, last
                )
            for metric in ("with_expired", "with_expired_nontls"):
                assert backend.series("netflix", metric) == pipeline_result.series(
                    "netflix", metric
                )

    def test_every_ported_analysis_function_is_bit_identical(
        self, pipeline_result, backends
    ):
        """The satellite property: analysis functions only see the
        ``FootprintIndex`` surface, so each must answer identically on
        all backends."""
        last = pipeline_result.snapshots[-1]
        functions = [
            lambda r: [row.format() for row in build_table3(r)],
            lambda r: restore_netflix(r),
            lambda r: ip_count_series(r),
            lambda r: top4_growth(r),
            lambda r: top4_effective_counts(r, last),
            lambda r: quarterly_additions(r, "google"),
            lambda r: covid_slowdown(r, "google"),
            lambda r: top4_multiplicity(r, last),
            lambda r: top4_share_of_all_hosts(r, last),
            lambda r: stable_host_distribution(r),
            lambda r: newcomer_fractions(r),
            lambda r: persistence_distribution(r, 0.5),
        ]
        for number, function in enumerate(functions):
            baseline = function(pipeline_result)
            for name, backend in backends.items():
                assert function(backend) == baseline, (number, name)


class TestAdapterAndCoercion:
    def test_result_is_a_virtual_index(self, pipeline_result, cold_index):
        """Two classes answer queries — the batch result and a committed
        view; the durable store itself only stores."""
        assert isinstance(pipeline_result, FootprintIndex)
        assert isinstance(cold_index.view(), FootprintIndex)
        assert not isinstance(cold_index, FootprintIndex)


class TestDurableMechanics:
    def test_new_index_requires_a_corpus(self, tmp_path):
        with pytest.raises(ValueError, match="corpus"):
            DurableFootprintIndex(tmp_path / "empty")

    def test_reload_rejects_corpus_mismatch(self, cold_index):
        with pytest.raises(ValueError, match="corpus"):
            DurableFootprintIndex(cold_index.state_dir, corpus="censys")

    def test_tokens_survive_reload(self, cold_index, pipeline_result):
        reloaded = DurableFootprintIndex(cold_index.state_dir)
        assert reloaded.tokens() == cold_index.tokens()
        assert reloaded.token(pipeline_result.snapshots[0]) == "token-0"
        assert reloaded.token(None) is None

    def test_view_is_immutable_across_commits(
        self, tmp_path, pipeline_result, outcomes
    ):
        """A reader's grabbed view must not change under a later commit."""
        index = DurableFootprintIndex(tmp_path / "idx", corpus=pipeline_result.corpus)
        index.fold(outcomes[0], "t0")
        index.commit()
        before = index.view()
        assert isinstance(before, IndexView)
        index.fold(outcomes[1], "t1")
        index.commit()
        assert before.snapshots == (outcomes[0].footprint.snapshot,)
        assert len(index.view().snapshots) == 2

    def test_remove_drops_snapshot_and_payload(
        self, tmp_path, pipeline_result, outcomes
    ):
        """A removal reaches disk at ``commit()``: a kill in between (the
        delta ingestor removes a snapshot that stopped parsing, then runs
        the rest of its pass) leaves a state dir that reopens at the last
        committed view."""
        index = DurableFootprintIndex(tmp_path / "idx", corpus=pipeline_result.corpus)
        index.fold(outcomes[0], "t0")
        index.fold(outcomes[1], "t1")
        committed = index.commit()
        victim = outcomes[0].footprint.snapshot
        assert index.remove(victim) is True
        assert index.remove(victim) is False
        assert_footprints_identical(committed, DurableFootprintIndex(index.state_dir).view())
        index.commit()
        assert victim not in index.view().snapshots
        reloaded = DurableFootprintIndex(index.state_dir)
        assert victim not in reloaded.view().snapshots
        payload_dir = index.state_dir / DurableFootprintIndex.SNAPSHOT_DIR
        assert not list(payload_dir.glob(f"{victim.label}*"))

    def test_kill_after_a_refold_reopens_the_committed_outcome(
        self, tmp_path, pipeline_result, outcomes
    ):
        """A re-fold writes beside the committed payload, not over it: a
        kill before the next commit reopens the last committed outcome
        under the token the manifest lists."""
        index = DurableFootprintIndex(tmp_path / "idx", corpus=pipeline_result.corpus)
        snapshot = outcomes[0].footprint.snapshot

        def with_raw_ips(count):
            footprint = dataclasses.replace(outcomes[0].footprint, raw_ip_count=count)
            return dataclasses.replace(outcomes[0], footprint=footprint)

        index.fold(with_raw_ips(100), "t-old")
        index.commit()
        index.fold(with_raw_ips(999), "t-new")
        reopened = DurableFootprintIndex(index.state_dir)
        assert reopened.token(snapshot) == "t-old"
        assert reopened.view().at(snapshot).raw_ip_count == 100
        index.commit()
        reopened = DurableFootprintIndex(index.state_dir)
        assert reopened.token(snapshot) == "t-new"
        assert reopened.view().at(snapshot).raw_ip_count == 999

    def test_commit_leaves_one_payload_per_indexed_snapshot(
        self, tmp_path, pipeline_result, outcomes
    ):
        """Superseded, removed and older-layout payloads are swept."""
        index = DurableFootprintIndex(tmp_path / "idx", corpus=pipeline_result.corpus)
        for number, outcome in enumerate(outcomes[:3]):
            index.fold(outcome, f"first-{number}")
        index.commit()
        payload_dir = index.state_dir / DurableFootprintIndex.SNAPSHOT_DIR
        legacy = payload_dir / f"{outcomes[0].footprint.snapshot.label}.json"
        legacy.write_text("{}")
        index.fold(outcomes[1], "second-1")
        index.remove(outcomes[2].footprint.snapshot)
        index.commit()
        names = sorted(path.name for path in payload_dir.iterdir())
        assert len(names) == len(index.tokens()) == 2
        for snapshot in index.tokens():
            assert sum(name.startswith(snapshot.label) for name in names) == 1

    @pytest.mark.parametrize("damage", ["missing", "unreadable", "other-token"])
    def test_a_damaged_payload_reads_as_absent(
        self, tmp_path, pipeline_result, outcomes, damage
    ):
        """A manifest entry whose payload is gone, unreadable or written
        for another token reopens as absent (so the delta ingestor
        re-ingests it), never as an error; the rest of the index loads."""
        index = DurableFootprintIndex(tmp_path / "idx", corpus=pipeline_result.corpus)
        index.fold(outcomes[0], "t0")
        index.fold(outcomes[1], "t1")
        index.commit()
        victim = outcomes[0].footprint.snapshot
        (path,) = (index.state_dir / DurableFootprintIndex.SNAPSHOT_DIR).glob(
            f"{victim.label}-*.json"
        )
        if damage == "missing":
            path.unlink()
        elif damage == "unreadable":
            path.write_text('{"format": ')
        else:
            payload = json.loads(path.read_text())
            payload["token"] = "t-elsewhere"
            path.write_text(json.dumps(payload))
        reopened = DurableFootprintIndex(index.state_dir)
        assert reopened.token(victim) is None
        assert reopened.view().snapshots == (outcomes[1].footprint.snapshot,)
        reopened.fold(outcomes[0], "t0")
        reopened.commit()
        assert DurableFootprintIndex(index.state_dir).tokens() == index.tokens()

    def test_indented_state_dir_still_loads(self, cold_index, tmp_path):
        """Index files are written compact; a state dir written with
        ``indent=2`` (the earlier layout of the same format) reloads."""
        state = tmp_path / "indented"
        shutil.copytree(cold_index.state_dir, state)
        for path in state.rglob("*.json"):
            text = path.read_text()
            assert "\n " not in text
            path.write_text(json.dumps(json.loads(text), indent=2, sort_keys=True))
        reloaded = DurableFootprintIndex(state)
        assert reloaded.tokens() == cold_index.tokens()
        assert_footprints_identical(cold_index.view(), reloaded.view())

    def test_manifest_records_the_format_version(self, cold_index):
        manifest = json.loads(
            (cold_index.state_dir / DurableFootprintIndex.MANIFEST).read_text()
        )
        assert manifest["format"] == INDEX_FORMAT

    def test_restoration_is_recomputed_not_persisted(self, cold_index):
        """``netflix_restored_ases`` never hits disk — it is an ordered
        cross-snapshot fold, so a partially-grown index must recompute it
        from scratch at every commit to stay order-independent."""
        for path in (cold_index.state_dir / DurableFootprintIndex.SNAPSHOT_DIR).iterdir():
            payload = json.loads(path.read_text())
            assert "netflix_restored_ases" not in payload["footprint"]


class TestAnalysisLayerDecoupling:
    def test_no_analysis_module_imports_result_internals(self):
        """The port's invariant: analysis code sees only the index
        surface — no ``PipelineResult`` imports, no ``by_snapshot``
        pokes, no ``repro.core.footprint`` imports at all."""
        from pathlib import Path

        import repro.analysis

        package = Path(repro.analysis.__file__).parent
        for path in sorted(package.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert "PipelineResult" not in text, path.name
            assert "by_snapshot" not in text, path.name
            assert "from repro.core.footprint import" not in text, path.name

    def test_pipeline_result_still_reports(self, pipeline_result):
        assert isinstance(pipeline_result, PipelineResult)
        report = pipeline_result.report()
        assert report["snapshots"]
