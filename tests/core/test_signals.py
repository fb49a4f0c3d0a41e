"""The multi-signal confirmation framework (§4.5 refactored).

Covers the full stack of the signal layer: the verdict/evidence protocol,
the registry, the three combine-policy families, each built-in signal
(header with its per-port evidence, TLS stack, cert-dNSName
corroboration), the engine's funnel/signal counter booking, the
PipelineOptions validation surface, the ``signals`` run-report section,
and the cache re-keying contract (``--signals``/``--confirm-policy`` are
part of the confirm/netflix option subset).
"""

import pytest

from repro.core import OffnetPipeline, PipelineOptions
from repro.core.candidates import Candidate
from repro.core.confirm import ConfirmedOffnet, confirm_candidates
from repro.core.signals import (
    build_signal,
    build_signals,
    evaluate_candidates,
    parse_policy,
    policy_names,
    register_signal,
    signal_names,
)
from repro.core.signals.base import (
    ABSTAIN,
    CONFIRM,
    REJECT,
    ConfirmationSignal,
    SignalContext,
    SignalVerdict,
)
from repro.core.signals.cert_names import CertNamesSignal
from repro.core.signals.engine import SignalDecision
from repro.core.signals.header import HeaderSignal, is_default_nginx, rule_label
from repro.core.signals.policy import (
    PaperDefaultPolicy,
    PriorityPolicy,
    RequireKPolicy,
)
from repro.core.signals.registry import _FACTORIES
from repro.core.signals.tls_stack import TlsStackSignal
from repro.core.stages import build_offnet_graph
from repro.hypergiants.profiles import HeaderRule, STACK_PROFILES, stack_profile
from repro.obs.metrics import MetricsRegistry
from repro.scan.handshake import UNKNOWN_STACK, stack_features, stack_matches
from repro.scan.records import ScanSnapshot
from repro.timeline import STUDY_SNAPSHOTS, Snapshot
from repro.x509 import CertificateAuthority, SubjectName, build_chain

END = STUDY_SNAPSHOTS[-1]
EARLY = Snapshot(2012, 1)
LATE = Snapshot(2034, 1)

_AUTHORITY = CertificateAuthority.create_root("Signals Test Root", EARLY, LATE)


def _chain(org="Facebook, Inc.", dns=("edge.facebook.com",)):
    leaf = _AUTHORITY.issue(
        subject=SubjectName(common_name=dns[0] if dns else "", organization=org),
        dns_names=dns,
        not_before=EARLY,
        not_after=LATE,
    )
    return build_chain(leaf, _AUTHORITY)


def _candidate(ip=0x0A000001, org="Facebook, Inc.", dns=("edge.facebook.com",),
               expired_only=False):
    return Candidate(
        ip=ip,
        certificate=_chain(org=org, dns=dns).end_entity,
        ases=frozenset(),
        expired_only=expired_only,
    )


def _scan(https=None, http=None, stack=None, ip=0x0A000001):
    """An in-memory one-IP corpus: optional per-port headers + TLS stack."""
    snapshot = ScanSnapshot(scanner="test", snapshot=END)
    snapshot.store.add_tls(ip, _chain(), stack)
    if https is not None:
        snapshot.store.add_http(ip, 443, tuple(https.items()))
    if http is not None:
        snapshot.store.add_http(ip, 80, tuple(http.items()))
    return snapshot


FB_RULES = {
    "facebook": (
        HeaderRule("X-FB-Debug"),
        HeaderRule("Server", "proxygen"),
    ),
}


def _evaluate(scan, signals=("header",), policy="paper-default", registry=None):
    """The engine's decisions for one Facebook candidate."""
    return evaluate_candidates(
        "facebook",
        [_candidate()],
        scan,
        FB_RULES,
        signals=build_signals(signals),
        policy=parse_policy(policy),
        registry=registry,
    )


def _context(hypergiant="facebook", scan=None, rules=FB_RULES):
    return SignalContext(
        hypergiant=hypergiant,
        scan=scan if scan is not None else _scan(),
        rules=rules,
    )


class TestSignalVerdict:
    def test_invalid_verdict_rejected(self):
        with pytest.raises(ValueError):
            SignalVerdict("header", "maybe")

    def test_evidence_dict(self):
        verdict = SignalVerdict("header", CONFIRM, (("a", "1"), ("b", "2")))
        assert verdict.evidence_dict() == {"a": "1", "b": "2"}

    def test_verdicts_are_hashable(self):
        assert len({SignalVerdict("x", ABSTAIN), SignalVerdict("x", ABSTAIN)}) == 1


class TestRegistry:
    def test_builtins_registered_sorted(self):
        assert signal_names() == ("cert-names", "header", "tls-stack")

    def test_build_signal_returns_fresh_instances(self):
        first, second = build_signal("header"), build_signal("header")
        assert isinstance(first, HeaderSignal)
        assert first is not second

    def test_build_signals_preserves_order(self):
        names = tuple(s.name for s in build_signals(("tls-stack", "header")))
        assert names == ("tls-stack", "header")

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(KeyError, match="cert-names, header, tls-stack"):
            build_signal("banner")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_signal("", HeaderSignal)

    def test_last_registration_wins(self):
        class Double:
            name = "header"

            def evaluate(self, candidate, context):
                return SignalVerdict("header", ABSTAIN)

        try:
            register_signal("header", Double)
            assert isinstance(build_signal("header"), Double)
        finally:
            register_signal("header", HeaderSignal)
        assert isinstance(build_signal("header"), HeaderSignal)

    def test_signals_satisfy_the_protocol(self):
        for name in signal_names():
            assert isinstance(build_signal(name), ConfirmationSignal)
        assert _FACTORIES  # the registry is never empty


class TestPolicies:
    def test_parse_round_trip(self):
        for spec, kind in (
            ("paper-default", PaperDefaultPolicy),
            ("priority", PriorityPolicy),
            ("require-1", RequireKPolicy),
            ("require-3", RequireKPolicy),
        ):
            policy = parse_policy(spec)
            assert isinstance(policy, kind)
            assert policy.name == spec

    @pytest.mark.parametrize(
        "spec", ["", "majority", "require-", "require-0", "require--1", "require-x"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_policy(spec)

    def test_policy_names_catalogue(self):
        assert policy_names() == ("paper-default", "require-<k>", "priority")

    def _verdicts(self, *pairs):
        return tuple(SignalVerdict(signal, verdict) for signal, verdict in pairs)

    def test_paper_default_folds_on_header_alone(self):
        policy = PaperDefaultPolicy()
        assert policy.decide(
            self._verdicts(("header", CONFIRM), ("tls-stack", REJECT))
        )
        assert not policy.decide(
            self._verdicts(("header", REJECT), ("tls-stack", CONFIRM))
        )
        assert not policy.decide(self._verdicts(("tls-stack", CONFIRM)))

    def test_require_k_counts_confirms_rejections_do_not_veto(self):
        policy = RequireKPolicy(2)
        assert policy.decide(
            self._verdicts(
                ("header", REJECT), ("tls-stack", CONFIRM), ("cert-names", CONFIRM)
            )
        )
        assert not policy.decide(
            self._verdicts(
                ("header", CONFIRM), ("tls-stack", ABSTAIN), ("cert-names", ABSTAIN)
            )
        )

    def test_require_k_validates_k(self):
        with pytest.raises(ValueError):
            RequireKPolicy(0)

    def test_priority_first_non_abstain_decides(self):
        policy = PriorityPolicy()
        assert policy.decide(
            self._verdicts(("tls-stack", ABSTAIN), ("header", CONFIRM))
        )
        assert not policy.decide(
            self._verdicts(("tls-stack", REJECT), ("header", CONFIRM))
        )
        assert not policy.decide(
            self._verdicts(("tls-stack", ABSTAIN), ("header", ABSTAIN))
        )


class TestHeaderSignal:
    def test_https_only_match(self):
        scan = _scan(https={"X-FB-Debug": "abc"}, http={"Server": "other"})
        verdict = HeaderSignal().evaluate(_candidate(), _context(scan=scan))
        assert verdict.verdict == CONFIRM
        evidence = verdict.evidence_dict()
        assert evidence["matched_on"] == "https"
        assert evidence["https_rule"] == "X-FB-Debug"
        assert evidence["http_rule"] == "no-match"

    def test_both_ports_keep_distinct_rule_evidence(self):
        """The ``matched_on`` conflation regression: a ``both`` match that
        used *different* rules on the two ports must carry both rule
        identities, not one undifferentiated label."""
        scan = _scan(
            https={"Server": "proxygen"},
            http={"X-FB-Debug": "abc"},
        )
        verdict = HeaderSignal().evaluate(_candidate(), _context(scan=scan))
        assert verdict.verdict == CONFIRM
        evidence = verdict.evidence_dict()
        assert evidence["matched_on"] == "both"
        assert evidence["https_rule"] == "Server=proxygen"
        assert evidence["http_rule"] == "X-FB-Debug"
        assert evidence["https_rule"] != evidence["http_rule"]

    def test_confirmed_offnet_facade_exposes_per_port_evidence(self):
        """The same regression through the §4.5 façade: ConfirmedOffnet
        carries the signal's structured evidence alongside matched_on."""
        scan = _scan(https={"Server": "proxygen"}, http={"X-FB-Debug": "abc"})
        confirmed = confirm_candidates("facebook", [_candidate()], scan, FB_RULES)
        assert len(confirmed) == 1
        offnet = confirmed[0]
        assert isinstance(offnet, ConfirmedOffnet)
        assert offnet.matched_on == "both"
        evidence = offnet.evidence_dict()
        assert evidence["https_rule"] == "Server=proxygen"
        assert evidence["http_rule"] == "X-FB-Debug"

    def test_headers_present_but_unmatched_reject(self):
        scan = _scan(https={"Server": "nginx"})
        verdict = HeaderSignal().evaluate(_candidate(), _context(scan=scan))
        assert verdict.verdict == REJECT

    def test_no_headers_on_either_port_abstains(self):
        verdict = HeaderSignal().evaluate(_candidate(), _context(scan=_scan()))
        assert verdict.verdict == ABSTAIN
        assert verdict.evidence_dict() == {
            "https_rule": "no-headers",
            "http_rule": "no-headers",
        }

    def test_and_mode_requires_both_ports(self):
        """Figure 4's "and" variant comes out of the same engine pass: a
        one-port header match confirms only under "or", unless two other
        signals carry it under ``require-2``."""
        scan = _scan(https={"X-FB-Debug": "abc"}, stack=STACK_PROFILES["facebook"])
        (header_only,) = _evaluate(scan)
        assert header_only.confirmed and not header_only.confirmed_and
        registry = MetricsRegistry()
        (rescued,) = _evaluate(
            scan, ("header", "tls-stack", "cert-names"), "require-2", registry
        )
        assert rescued.confirmed and rescued.confirmed_and
        assert registry.counter_value(
            "confirm_passed_total", hg="facebook", mode="and", matched_on="tls-stack"
        ) == 1

    def test_edge_conflict_names_the_edge(self):
        rules = dict(FB_RULES)
        rules["akamai"] = (HeaderRule("X-Akamai-Request-ID"),)
        scan = _scan(https={"X-FB-Debug": "x", "X-Akamai-Request-ID": "y"})
        verdict = HeaderSignal().evaluate(
            _candidate(), _context(scan=scan, rules=rules)
        )
        assert verdict.verdict == REJECT
        assert verdict.evidence_dict()["https_rule"] == "edge-conflict:akamai"

    def test_netflix_default_nginx_label(self):
        scan = _scan(https={"Server": "nginx"})
        verdict = HeaderSignal().evaluate(
            _candidate(org="Netflix, Inc.", dns=("oca.netflix.com",)),
            _context(hypergiant="netflix", scan=scan, rules={}),
        )
        assert verdict.verdict == CONFIRM
        assert verdict.evidence_dict()["https_rule"] == "default-nginx"

    def test_rule_label_spelling(self):
        assert rule_label(HeaderRule("Server", "gws")) == "Server=gws"
        assert rule_label(HeaderRule("X-FB-Debug")) == "X-FB-Debug"


class TestIsDefaultNginx:
    def test_empty_header_dict(self):
        assert not is_default_nginx({})

    def test_plain_banner(self):
        assert is_default_nginx({"Server": "nginx"})

    def test_name_casing_is_ignored(self):
        assert is_default_nginx({"SERVER": "nginx"})
        assert is_default_nginx({"server": "NGINX"})

    def test_versioned_banner(self):
        assert is_default_nginx({"Server": "nginx/1.18.0"})

    def test_standard_extras_stay_stock(self):
        assert is_default_nginx(
            {"Server": "nginx", "Content-Type": "text/html", "Date": "x"}
        )

    def test_one_non_standard_header_disqualifies(self):
        assert not is_default_nginx({"Server": "nginx", "X-Custom-Farm": "a"})

    def test_other_banner_is_not_nginx(self):
        assert not is_default_nginx({"Server": "Apache/2.4"})


class TestStackFeatures:
    def test_alpn_canonicalised(self):
        assert stack_features(("h3", "h2", "h2"), "1.2", "gfe") == (
            "h2,h3",
            "1.2",
            "gfe",
        )

    def test_match_requires_same_class(self):
        gfe = stack_features(("h2",), "1.2", "gfe")
        ghost = stack_features(("h2",), "1.2", "ghost")
        assert not stack_matches(gfe, ghost)

    def test_observed_alpn_must_be_subset(self):
        expected = stack_features(("h2", "h3", "http/1.1"), "1.2", "proxygen")
        quic_only = stack_features(("h3",), "1.2", "proxygen")
        superset = stack_features(("h2", "h3", "spdy"), "1.2", "proxygen")
        assert stack_matches(quic_only, expected)
        assert not stack_matches(superset, expected)

    def test_floor_can_rise_never_fall(self):
        expected = stack_features(("h2",), "1.2", "gfe")
        assert stack_matches(stack_features(("h2",), "1.3", "gfe"), expected)
        assert not stack_matches(stack_features(("h2",), "1.0", "gfe"), expected)

    def test_unknown_never_matches(self):
        known = stack_features(("h2",), "1.2", "gfe")
        assert not stack_matches(UNKNOWN_STACK, known)
        assert not stack_matches(known, UNKNOWN_STACK)
        assert not stack_matches(UNKNOWN_STACK, UNKNOWN_STACK)


class TestTlsStackSignal:
    def test_unprofiled_hypergiant_abstains(self):
        assert stack_profile("wikipedia") == UNKNOWN_STACK
        verdict = TlsStackSignal().evaluate(
            _candidate(), _context(hypergiant="wikipedia")
        )
        assert verdict.verdict == ABSTAIN
        assert verdict.evidence_dict()["reason"] == "no-stack-profile"

    def test_no_observation_abstains(self):
        verdict = TlsStackSignal().evaluate(_candidate(), _context(scan=_scan()))
        assert verdict.verdict == ABSTAIN
        assert verdict.evidence_dict()["reason"] == "no-observation"

    def test_matching_stack_confirms(self):
        scan = _scan(stack=STACK_PROFILES["facebook"])
        verdict = TlsStackSignal().evaluate(_candidate(), _context(scan=scan))
        assert verdict.verdict == CONFIRM
        assert verdict.evidence_dict()["observed_class"] == "proxygen"

    def test_quic_only_subset_still_confirms(self):
        profile = STACK_PROFILES["facebook"]
        scan = _scan(stack=stack_features(("h3",), profile[1], profile[2]))
        verdict = TlsStackSignal().evaluate(_candidate(), _context(scan=scan))
        assert verdict.verdict == CONFIRM

    def test_foreign_stack_rejects(self):
        scan = _scan(stack=STACK_PROFILES["akamai"])
        verdict = TlsStackSignal().evaluate(_candidate(), _context(scan=scan))
        assert verdict.verdict == REJECT
        evidence = verdict.evidence_dict()
        assert evidence["observed_class"] == "ghost"
        assert evidence["expected_class"] == "proxygen"


class TestCertNamesSignal:
    def test_matching_certificate_corroborates(self):
        verdict = CertNamesSignal().evaluate(_candidate(), _context())
        assert verdict.verdict == CONFIRM
        assert verdict.evidence_dict()["organization"] == "Facebook, Inc."

    def test_expired_only_abstains(self):
        verdict = CertNamesSignal().evaluate(
            _candidate(expired_only=True), _context()
        )
        assert verdict.verdict == ABSTAIN

    def test_org_mismatch_abstains_never_rejects(self):
        verdict = CertNamesSignal().evaluate(
            _candidate(org="Example Site 7 LLC"), _context()
        )
        assert verdict.verdict == ABSTAIN
        assert verdict.evidence_dict()["reason"] == "org-mismatch"

    def test_no_dnsnames_abstains(self):
        verdict = CertNamesSignal().evaluate(_candidate(dns=()), _context())
        assert verdict.verdict == ABSTAIN
        assert verdict.evidence_dict()["reason"] == "no-dnsnames"


class TestEngine:
    def test_decisions_cover_rejections_too(self):
        (decision,) = _evaluate(_scan(https={"Server": "nginx"}))
        assert isinstance(decision, SignalDecision)
        assert not decision.confirmed
        assert decision.matched_on == ""
        assert decision.verdicts[0].verdict == REJECT

    def test_funnel_counters_match_legacy_names(self):
        """One call books both modes' funnel counters under their
        pre-framework names."""
        registry = MetricsRegistry()
        _evaluate(_scan(https={"X-FB-Debug": "x"}), registry=registry)
        for mode in ("or", "and"):
            assert registry.counter_value(
                "confirm_checked_total", hg="facebook", mode=mode
            ) == 1
        assert [
            (labels["mode"], labels["matched_on"], value)
            for labels, value in registry.counter_items("confirm_passed_total")
        ] == [("or", "https", 1)]

    def test_signal_counters_booked_only_when_asked(self):
        """Each signal verdict is booked once per candidate into the
        registry a call is given, not once per Figure 4 variant; a call
        without a registry books nothing."""
        scan = _scan(https={"X-FB-Debug": "x"}, stack=STACK_PROFILES["facebook"])
        booked = MetricsRegistry()
        _evaluate(scan, signals=("header", "tls-stack"), registry=booked)
        _evaluate(scan, signals=("header", "tls-stack"))
        assert sorted(
            (labels["signal"], labels["verdict"], labels["hg"], value)
            for labels, value in booked.counter_items("signal_verdicts_total")
        ) == [
            ("header", CONFIRM, "facebook", 1),
            ("tls-stack", CONFIRM, "facebook", 1),
        ]
        # The funnel counters are booked alongside.
        assert booked.counter_value(
            "confirm_checked_total", hg="facebook", mode="or"
        ) == 1

    def test_disagreement_counted_when_confirm_meets_reject(self):
        registry = MetricsRegistry()
        scan = _scan(https={"Server": "nginx"}, stack=STACK_PROFILES["facebook"])
        decisions = _evaluate(
            scan, signals=("header", "tls-stack", "cert-names"),
            policy="require-2", registry=registry,
        )
        assert decisions[0].confirmed  # tls-stack + cert-names outvote headers
        assert registry.counter_value(
            "signal_disagreements_total", hg="facebook"
        ) == 1

    def test_matched_on_prefers_header_port_label(self):
        scan = _scan(https={"X-FB-Debug": "x"}, stack=STACK_PROFILES["facebook"])
        decisions = _evaluate(
            scan, signals=("tls-stack", "header"), policy="require-1"
        )
        assert decisions[0].matched_on == "https"

    def test_matched_on_names_the_rescuing_signal(self):
        scan = _scan(stack=STACK_PROFILES["facebook"])
        decisions = _evaluate(
            scan, signals=("header", "tls-stack"), policy="require-1"
        )
        assert decisions[0].matched_on == "tls-stack"


class TestPipelineOptionsValidation:
    def test_defaults_are_the_paper(self):
        options = PipelineOptions()
        assert options.signals == ("header",)
        assert options.confirm_policy == "paper-default"

    def test_list_coerced_to_tuple(self):
        assert PipelineOptions(signals=["header"]).signals == ("header",)

    def test_empty_signals_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PipelineOptions(signals=())

    def test_duplicate_signals_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            PipelineOptions(signals=("header", "header"))

    def test_unknown_signal_rejected(self):
        with pytest.raises(ValueError, match="registered"):
            PipelineOptions(signals=("header", "banner"))

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="confirm policy"):
            PipelineOptions(confirm_policy="majority")

    def test_paper_default_needs_the_header_signal(self):
        with pytest.raises(ValueError, match="paper-default"):
            PipelineOptions(signals=("tls-stack", "cert-names"))

    def test_headerless_set_allowed_under_other_policies(self):
        options = PipelineOptions(
            signals=("tls-stack", "cert-names"), confirm_policy="require-2"
        )
        assert options.signals == ("tls-stack", "cert-names")


class TestCacheReKeying:
    TOKEN = "world:signals-test"

    def _keys(self, **overrides):
        return build_offnet_graph().keys_for(
            PipelineOptions(**overrides), self.TOKEN
        )

    def test_signals_flip_invalidates_only_the_confirm_suffix(self):
        base = self._keys()
        flipped = self._keys(
            signals=("header", "tls-stack", "cert-names"),
            confirm_policy="require-2",
        )
        unchanged = {
            "scan", "ingest", "validate", "vstats", "match", "onnet",
            "candidates",
        }
        for stage in unchanged:
            assert base[stage] == flipped[stage], f"{stage} key drifted"
        for stage in ("confirm", "netflix"):
            assert base[stage] != flipped[stage], f"{stage} key not re-keyed"

    def test_policy_alone_re_keys(self):
        base = self._keys()
        flipped = self._keys(confirm_policy="require-1")
        assert base["confirm"] != flipped["confirm"]


class TestRunReportSection:
    @pytest.fixture(scope="class")
    def multi_report(self, small_world):
        options = PipelineOptions(
            signals=("header", "tls-stack", "cert-names"),
            confirm_policy="require-2",
        )
        result = OffnetPipeline(small_world, options).run(snapshots=(END,))
        return result.report()

    def test_default_run_reports_header_only(self, pipeline_result):
        section = pipeline_result.report()["signals"]
        assert section["configured"] == ["header"]
        assert section["policy"] == "paper-default"
        assert set(section["verdicts"]) == {"header"}
        assert sum(section["verdicts"]["header"].values()) > 0

    def test_multi_signal_run_books_every_signal(self, multi_report):
        section = multi_report["signals"]
        assert section["configured"] == ["header", "tls-stack", "cert-names"]
        assert section["policy"] == "require-2"
        for signal in section["configured"]:
            booked = sum(section["verdicts"][signal].values())
            assert booked > 0, f"{signal} booked no verdicts"

    def test_options_meta_carries_the_confirm_configuration(self, multi_report):
        options = multi_report["options"]
        assert options["signals"] == ["header", "tls-stack", "cert-names"]
        assert options["confirm_policy"] == "require-2"

    def test_default_funnel_unchanged_by_extra_observability(self, small_world,
                                                             pipeline_result):
        """Adding signals under paper-default must keep the funnel
        bit-identical: the extra channels observe, they do not decide."""
        observed = OffnetPipeline(
            small_world,
            PipelineOptions(signals=("header", "tls-stack", "cert-names")),
        ).run()
        baseline_report = pipeline_result.report()
        observed_report = observed.report()
        assert observed_report["funnel"] == baseline_report["funnel"]
        assert set(observed_report["signals"]["verdicts"]) == {
            "header", "tls-stack", "cert-names",
        }
