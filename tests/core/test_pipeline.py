"""Integration tests for the longitudinal pipeline."""

from repro.core import OffnetPipeline, PipelineOptions, SnapshotOutcome, restore_netflix
from repro.core.netflix import restore_http_only
from repro.hypergiants.profiles import TOP4
from repro.timeline import NETFLIX_EXPIRED_ERA, STUDY_SNAPSHOTS, Snapshot

END = STUDY_SNAPSHOTS[-1]
START = STUDY_SNAPSHOTS[0]


class TestPipelineAccuracy:
    def test_top4_recall(self, small_world, pipeline_result):
        """§5 survey: operators confirmed 89-95% of host ASes uncovered."""
        for hypergiant in TOP4:
            truth = small_world.true_offnet_ases(hypergiant, END)
            inferred = pipeline_result.effective_footprint(hypergiant, END)
            if not truth:
                continue
            recall = len(truth & inferred) / len(truth)
            assert recall > 0.75, f"{hypergiant} recall {recall:.2f}"

    def test_top4_precision(self, small_world, pipeline_result):
        for hypergiant in TOP4:
            inferred = pipeline_result.effective_footprint(hypergiant, END)
            truth = small_world.true_offnet_ases(hypergiant, END)
            if not inferred:
                continue
            precision = len(truth & inferred) / len(inferred)
            assert precision > 0.8, f"{hypergiant} precision {precision:.2f}"

    def test_rankings_match_table3(self, pipeline_result):
        """Google > Facebook ≥ Netflix > Akamai at the study's end."""
        counts = {
            hg: len(pipeline_result.effective_footprint(hg, END)) for hg in TOP4
        }
        assert counts["google"] > counts["facebook"]
        assert counts["google"] > counts["netflix"]
        assert counts["facebook"] > counts["akamai"]
        assert counts["netflix"] > counts["akamai"]

    def test_growth_since_2013(self, pipeline_result):
        """The number of host ASes grows severalfold over the study (the
        paper: ~3x; the tiny test world lands a little lower because its
        start footprint is proportionally larger)."""
        def union_size(snapshot):
            hosts = set()
            for hypergiant in TOP4:
                hosts |= pipeline_result.effective_footprint(hypergiant, snapshot)
            return len(hosts)

        assert union_size(END) >= 1.7 * union_size(START)

    def test_certs_only_at_least_confirmed(self, pipeline_result):
        for snapshot in (START, Snapshot(2017, 4), END):
            footprint = pipeline_result.at(snapshot)
            for hypergiant, confirmed in footprint.confirmed_ases.items():
                candidates = footprint.candidate_ases.get(hypergiant, frozenset())
                assert confirmed <= candidates

    def test_and_mode_subset_of_or_mode(self, pipeline_result):
        footprint = pipeline_result.at(END)
        for hypergiant, strict in footprint.confirmed_and_ases.items():
            assert strict <= footprint.confirmed_ases.get(hypergiant, frozenset())

    def test_apple_has_candidates_but_no_confirmations(self, pipeline_result):
        """Table 3: Apple 0 (267) at the end — service present, no metal."""
        assert pipeline_result.as_count("apple", END, "candidates") > 0
        assert pipeline_result.as_count("apple", END, "confirmed") == 0

    def test_hulu_never_confirmed(self, pipeline_result):
        """§7 Missing Headers: Hulu's off-nets cannot be confirmed."""
        for snapshot in pipeline_result.snapshots:
            assert pipeline_result.as_count("hulu", snapshot, "confirmed") == 0

    def test_mgmt_interfaces_not_confirmed(self, small_world, pipeline_result):
        """Azure-Stack-style appliances show up as candidates only."""
        assert pipeline_result.as_count("microsoft", END, "confirmed") == 0


class TestNetflixEnvelope:
    def test_initial_dips_inside_era(self, pipeline_result):
        envelope = restore_netflix(pipeline_result)
        era_indexes = [
            i
            for i, s in enumerate(pipeline_result.snapshots)
            if NETFLIX_EXPIRED_ERA[0] <= s < NETFLIX_EXPIRED_ERA[1]
        ]
        dips = [
            envelope.with_expired[i] - envelope.initial[i] for i in era_indexes
        ]
        assert max(dips) > 0, "expected the expired era to depress the raw series"

    def test_envelope_never_below_initial(self, pipeline_result):
        envelope = restore_netflix(pipeline_result)
        for raw, corrected in zip(envelope.initial, envelope.envelope()):
            assert corrected >= raw

    def test_no_gap_outside_era(self, pipeline_result):
        envelope = restore_netflix(pipeline_result)
        for index, snapshot in enumerate(pipeline_result.snapshots):
            if snapshot < NETFLIX_EXPIRED_ERA[0]:
                assert envelope.with_expired[index] == envelope.initial[index]

    def test_dip_depth_positive(self, pipeline_result):
        assert restore_netflix(pipeline_result).dip_depth() > 0.1

    def test_http_only_restoration_needs_an_earlier_sighting(self):
        """The one cross-snapshot fold: a port-80-only IP's ASes are
        restored in every snapshot after the IP presented a Netflix
        certificate, never in that snapshot or before it."""
        ports = {1: frozenset({10}), 2: frozenset({20})}
        outcomes = [
            SnapshotOutcome(None, netflix_seen=frozenset({1}), restorable=ports),
            SnapshotOutcome(None),
            SnapshotOutcome(None, restorable=ports),
        ]
        assert restore_http_only(outcomes) == [frozenset(), frozenset(), frozenset({10})]


class TestPipelineOptions:
    def test_no_validation_admits_more_candidates(self, small_world, pipeline_result):
        loose = OffnetPipeline(small_world, PipelineOptions(validate_certificates=False))
        result = loose.run(snapshots=(END,))
        # Expired-cert and self-signed impostors get through, so candidate
        # counts can only grow.
        for hypergiant in TOP4:
            assert result.as_count(hypergiant, END, "candidates") >= pipeline_result.as_count(
                hypergiant, END, "candidates"
            )

    def test_header_confirmation_off_equals_candidates(self, small_world):
        no_headers = OffnetPipeline(small_world, PipelineOptions(header_confirmation=False))
        result = no_headers.run(snapshots=(END,))
        footprint = result.at(END)
        for hypergiant in footprint.candidate_ases:
            assert footprint.confirmed_ases[hypergiant] == footprint.candidate_ases[hypergiant]

    def test_curated_rules_close_to_learned(self, small_world, pipeline_result):
        curated = OffnetPipeline(small_world, PipelineOptions(learn_headers=False))
        result = curated.run(snapshots=(END,))
        for hypergiant in TOP4:
            learned_count = pipeline_result.as_count(hypergiant, END)
            curated_count = result.as_count(hypergiant, END)
            assert abs(learned_count - curated_count) <= max(2, 0.1 * learned_count)

    def test_censys_pipeline_runs(self, small_world):
        censys = OffnetPipeline(small_world, PipelineOptions(corpus="censys"))
        result = censys.run()
        assert result.snapshots[0] >= Snapshot(2019, 10)
        assert result.as_count("google", END) > 0

    def test_run_subset_of_snapshots(self, small_world):
        pipeline = OffnetPipeline(small_world)
        result = pipeline.run(snapshots=(START, END))
        assert result.snapshots == (START, END)


class TestLearnedHeaderRules:
    def test_rules_match_table4_for_top4(self, pipeline, small_world):
        """The §4.4 learner rediscovers Table 4's fingerprints."""
        from repro.hypergiants.profiles import HEADER_RULES

        learned = pipeline.header_rules()
        for hypergiant in ("akamai", "facebook", "google"):
            names_learned = {r.name.lower().rstrip("*") for r in learned[hypergiant]}
            names_curated = {r.name.lower().rstrip("*") for r in HEADER_RULES[hypergiant]}
            overlap = names_learned & names_curated
            assert overlap, f"{hypergiant}: learned {names_learned} vs {names_curated}"

    def test_no_generic_server_rules(self, pipeline):
        for hypergiant, rules in pipeline.header_rules().items():
            for rule in rules:
                if rule.name.lower() == "server":
                    assert rule.value is not None, f"{hypergiant} learned a bare Server rule"
                    assert rule.value.lower().rstrip("*") not in ("nginx", "apache")
