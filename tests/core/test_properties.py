"""Property-based tests for methodology invariants."""

import string

from hypothesis import given
from hypothesis import strategies as st

from repro.core.candidates import Candidate
from repro.core.confirm import is_default_nginx
from repro.core.signals.base import ABSTAIN, CONFIRM, REJECT, SignalContext, SignalVerdict
from repro.core.signals.header import (
    EDGE_CDNS,
    HeaderSignal,
    and_reading,
    compile_rules,
    first_match,
    lowered_headers,
    rule_label,
)
from repro.core.tls_fingerprint import organization_matches
from repro.hypergiants.profiles import HEADER_RULES, HeaderRule, STANDARD_HEADERS
from repro.scan.handshake import dns_name_matches
from repro.scan.records import ScanSnapshot
from repro.timeline import Snapshot

label = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)
domains = st.lists(label, min_size=1, max_size=4).map(".".join)
header_names = st.text(
    alphabet=string.ascii_letters + "-", min_size=1, max_size=20
).filter(lambda s: not s.endswith("*"))
header_values = st.text(alphabet=string.printable.strip(), min_size=0, max_size=30)


class TestDnsNameProperties:
    @given(domains)
    def test_exact_match_is_reflexive(self, domain):
        assert dns_name_matches(domain, domain)

    @given(domains)
    def test_wildcard_covers_one_extra_label(self, domain):
        assert dns_name_matches(f"*.{domain}", f"www.{domain}")
        assert not dns_name_matches(f"*.{domain}", f"a.b.{domain}")
        assert not dns_name_matches(f"*.{domain}", domain)

    @given(domains, domains)
    def test_case_insensitive(self, pattern, domain):
        assert dns_name_matches(pattern, domain) == dns_name_matches(
            pattern.upper(), domain.upper()
        )

    @given(domains)
    def test_wildcard_requires_suffix_boundary(self, domain):
        """`*.foo.com` never matches `evilfoo.com`-style hosts."""
        assert not dns_name_matches(f"*.{domain}", f"evil{domain}")


class TestOrganizationMatchProperties:
    @given(st.text(max_size=40), st.text(min_size=1, max_size=10))
    def test_match_iff_lowercase_containment(self, organization, keyword):
        assert organization_matches(organization, keyword) == (
            keyword.lower() in organization.lower()
        )


class TestHeaderRuleProperties:
    @given(header_names, header_values)
    def test_exact_rule_matches_itself(self, name, value):
        rule = HeaderRule(name, value if not value.endswith("*") else value + ".")
        assert rule.matches(name, rule.value)
        assert rule.matches(name.upper(), rule.value)

    @given(header_names, header_values, header_values)
    def test_name_only_rule_ignores_value(self, name, value_a, value_b):
        rule = HeaderRule(name, None)
        assert rule.matches(name, value_a)
        assert rule.matches(name, value_b)

    @given(header_names, header_values)
    def test_prefix_rule_accepts_extensions(self, name, value):
        rule = HeaderRule(name, value + "*")
        assert rule.matches(name, value)
        assert rule.matches(name, value + "suffix")

    @given(st.dictionaries(header_names, header_values, max_size=6))
    def test_matches_any_consistent_with_matches(self, headers):
        for name, value in headers.items():
            rule = HeaderRule(name, None)
            assert rule.matches_any(headers)


class TestDefaultNginxProperties:
    @given(st.sampled_from(sorted(STANDARD_HEADERS)))
    def test_standard_headers_do_not_break_nginx_detection(self, standard_name):
        headers = {"Server": "nginx", standard_name: "x"}
        assert is_default_nginx(headers)

    @given(header_names.filter(lambda n: n.lower() not in STANDARD_HEADERS and n.lower() != "server"))
    def test_any_custom_header_breaks_nginx_detection(self, name):
        headers = {"Server": "nginx", name: "x"}
        assert not is_default_nginx(headers)


# -- the compiled §4.5 matcher against HeaderRule.matches_any ---------------------

#: Served header names: Table 4 names, standard ones and near misses.
_NAMES = (
    "Server", "X-FB-Debug", "X-Netflix.proxy", "X-Netflix", "CF-Ray", "Via",
    "X-Cache", "X-Amz-Cf-Id", "Date", "Content-Type", "X-Served-By",
)
_VALUES = ("nginx", "nginx/1.18", "NGINX", "gws", "gws/2.1", "AkamaiGHost",
           "cloudflare", "proxygen", "", "x")


def _cased(text):
    return st.sampled_from((text, text.lower(), text.upper(), text.swapcase()))


served_names = st.sampled_from(_NAMES).flatmap(_cased)
#: Header tuples as a corpus stores them; names repeat, in any case.
header_tuples = st.lists(
    st.tuples(served_names, st.sampled_from(_VALUES)), max_size=7
).map(tuple)
rule_names = st.one_of(
    served_names,
    st.sampled_from(("X-Netflix.*", "x-*", "X-FB-*", "*", "Cf-*", "server*")).flatmap(_cased),
)
rule_values = st.one_of(
    st.none(),
    st.sampled_from(_VALUES),
    st.sampled_from(("nginx*", "gws*", "Akamai*", "*", "cloud*")),
)
header_rules = st.builds(HeaderRule, rule_names, rule_values)
rule_sets = st.lists(header_rules, max_size=5).map(tuple)
#: Stock nginx answers (a ``Server: nginx...`` banner in any case, plus
#: standard headers), with now and then a non-standard header or a
#: non-nginx banner that spoils them.
nginx_tuples = st.tuples(
    st.tuples(
        st.sampled_from(("Server", "server", "SERVER")),
        st.sampled_from(("nginx", "nginx/1.18", "NGINX", "openresty")),
    ),
    st.lists(
        st.tuples(
            st.sampled_from(("Date", "Content-Type", "Server", "X-Cache")),
            st.sampled_from(_VALUES),
        ),
        max_size=3,
    ),
).map(lambda parts: (parts[0], *parts[1]))
port_answers = st.one_of(st.none(), header_tuples, nginx_tuples)


def _reference_port(hypergiant, rules, headers, nginx_rule, edge_priority):
    """One port's (matched, label) as the per-call matcher computed it."""
    if headers is None:
        return None, "no-headers"
    matched_rule = None
    for rule in rules.get(hypergiant, ()):
        if rule.matches_any(headers):
            matched_rule = rule_label(rule)
            break
    if (
        matched_rule is None
        and nginx_rule
        and hypergiant == "netflix"
        and is_default_nginx(headers)
    ):
        matched_rule = "default-nginx"
    if matched_rule is None:
        return False, "no-match"
    if edge_priority and hypergiant not in EDGE_CDNS:
        for edge in EDGE_CDNS:
            if any(rule.matches_any(headers) for rule in rules.get(edge, ())):
                return False, f"edge-conflict:{edge}"
    return True, matched_rule


def _reference_verdict(hypergiant, rules, https, http, mode, nginx_rule, edge_priority):
    https_match, https_label = _reference_port(
        hypergiant, rules, https, nginx_rule, edge_priority
    )
    http_match, http_label = _reference_port(
        hypergiant, rules, http, nginx_rule, edge_priority
    )
    https_ok, http_ok = bool(https_match), bool(http_match)
    ok = (https_ok and http_ok) if mode == "and" else (https_ok or http_ok)
    evidence = (("https_rule", https_label), ("http_rule", http_label))
    if ok:
        matched_on = "both" if (https_ok and http_ok) else ("https" if https_ok else "http")
        return SignalVerdict("header", CONFIRM, evidence + (("matched_on", matched_on),))
    if https_match is None and http_match is None:
        return SignalVerdict("header", ABSTAIN, evidence)
    return SignalVerdict("header", REJECT, evidence)


class TestCompiledHeaderMatcher:
    @given(rule_sets, header_tuples)
    def test_first_match_is_first_matching_rule(self, rules, served):
        headers = dict(served)
        expected = next((r for r in rules if r.matches_any(headers)), None)
        assert first_match(compile_rules(rules), lowered_headers(headers)) is expected

    @given(
        st.sampled_from(("netflix", "google", "facebook", "akamai", "fastly")),
        st.dictionaries(
            st.sampled_from(("netflix", "google", "facebook") + EDGE_CDNS), rule_sets
        ),
        st.lists(port_answers, min_size=4, max_size=4),
        st.booleans(),
        st.booleans(),
    )
    def test_judge_matches_per_call_reference(
        self, hypergiant, rules, ports, nginx_rule, edge_priority
    ):
        self._check_judge(hypergiant, rules, ports, nginx_rule, edge_priority)

    @given(
        rule_sets,
        st.lists(rule_sets, min_size=len(EDGE_CDNS), max_size=len(EDGE_CDNS)),
        st.lists(nginx_tuples, min_size=4, max_size=4),
    )
    def test_default_nginx_then_edge_order(self, netflix_rules, edge_rules, ports):
        """Netflix's stock-nginx acceptance still yields to an edge CDN's
        rule, and the first conflicting CDN in ``EDGE_CDNS`` order is the
        one named."""
        rules = {"netflix": netflix_rules, **dict(zip(EDGE_CDNS, edge_rules))}
        self._check_judge("netflix", rules, ports, True, True)

    def _check_judge(self, hypergiant, rules, ports, nginx_rule, edge_priority):
        """Three candidates per context (the third answers like the
        first, so it reuses the memoised verdict), with first-rule-wins,
        default nginx and edge-conflict order, judged (and read "and")
        as the per-call matcher judged them in either mode."""
        answers = (ports[:2], ports[2:], ports[:2])
        scan = ScanSnapshot(scanner="test", snapshot=Snapshot(2020, 10))
        for ip, (https, http) in enumerate(answers, start=1):
            if https is not None:
                scan.store.add_http(ip, 443, https)
            if http is not None:
                scan.store.add_http(ip, 80, http)
        context = SignalContext(
            hypergiant=hypergiant,
            scan=scan,
            rules=rules,
            netflix_nginx_rule=nginx_rule,
            edge_priority=edge_priority,
        )
        signal = HeaderSignal()
        for ip, (https, http) in enumerate(answers, start=1):
            candidate = Candidate(ip=ip, certificate=None, ases=frozenset())
            verdict = signal.evaluate(candidate, context)
            for reading, mode in ((verdict, "or"), (and_reading(verdict), "and")):
                assert reading == _reference_verdict(
                    hypergiant,
                    rules,
                    None if https is None else dict(https),
                    None if http is None else dict(http),
                    mode,
                    nginx_rule,
                    edge_priority,
                )

    @given(
        st.sampled_from(sorted(HEADER_RULES)),
        st.one_of(
            header_tuples,
            st.sampled_from(
                tuple(
                    ((rule.name, rule.value or "v"),)
                    for rules in HEADER_RULES.values()
                    for rule in rules
                )
            ),
        ),
    )
    def test_curated_rules(self, hypergiant, served):
        """The Table 4 rules themselves, served exactly or near-missed."""
        scan = ScanSnapshot(scanner="test", snapshot=Snapshot(2020, 10))
        scan.store.add_http(1, 443, served)
        context = SignalContext(hypergiant=hypergiant, scan=scan, rules=HEADER_RULES)
        verdict = HeaderSignal().evaluate(
            Candidate(ip=1, certificate=None, ases=frozenset()), context
        )
        assert verdict == _reference_verdict(
            hypergiant, HEADER_RULES, dict(served), None, "or", True, True
        )

