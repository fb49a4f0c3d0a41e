"""The header signal: §4.5's HTTP(S) fingerprint match, ported intact.

This is the original confirmation logic — Table 4 rule matching with
the Netflix default-nginx acceptance (§4.4) and the §7 edge-CDN
conflict priority — re-expressed as a :class:`ConfirmationSignal`.
Under the ``paper-default`` combine policy its verdicts reproduce the
pre-framework confirmations bit for bit.

What the port *adds* is per-port evidence: the verdict names which rule
matched on each of HTTPS (443) and HTTP (80) separately
(``https_rule`` / ``http_rule``), so a ``both`` match that used
different rules on the two ports keeps both identities instead of
collapsing them into one ``matched_on`` label.  That label is also
all Figure 4's stricter "http and https" variant needs: the signal
judges with "or" folding, and :func:`and_reading` re-reads a one-port
confirmation as a rejection, so one judging pass serves both variants.

Matching is compiled: :func:`compile_rules` lower-cases each rule
pattern once, :func:`lowered_headers` each response's names once, and
:func:`first_match` picks the first matching rule exactly as
:meth:`~repro.hypergiants.profiles.HeaderRule.matches_any` over the
rules in order would (that method stays the reference semantics).
Within one engine call each distinct interned header tuple is judged
once.
"""

from __future__ import annotations

from repro.core.candidates import Candidate
from repro.core.signals.base import (
    ABSTAIN,
    CONFIRM,
    REJECT,
    SignalContext,
    SignalVerdict,
)
from repro.hypergiants.profiles import STANDARD_HEADERS, HeaderRule

__all__ = [
    "EDGE_CDNS",
    "HeaderSignal",
    "and_reading",
    "compile_rules",
    "first_match",
    "is_default_nginx",
    "lowered_headers",
    "rule_label",
]

#: CDNs that operate edges on behalf of content owners (§7's conflict list).
EDGE_CDNS: tuple[str, ...] = (
    "akamai",
    "cloudflare",
    "fastly",
    "verizon",
    "cdnetworks",
    "limelight",
)


def is_default_nginx(headers: dict[str, str]) -> bool:
    """A stock nginx response: ``Server: nginx`` and nothing non-standard."""
    server = None
    for name, value in headers.items():
        lowered = name.lower()
        if lowered == "server":
            server = value
        elif lowered not in STANDARD_HEADERS:
            return False
    return server is not None and server.lower().startswith("nginx")


def rule_label(rule: HeaderRule) -> str:
    """A stable, human-auditable identity for one Table 4 rule."""
    if rule.value is None:
        return rule.name
    return f"{rule.name}={rule.value}"


def compile_rules(rules: tuple[HeaderRule, ...]) -> tuple[tuple, ...]:
    """``rules`` ready for :func:`first_match`: each rule as ``(name,
    name_is_prefix, value, value_is_prefix, rule)`` with the name pattern
    lower-cased and any trailing ``*`` stripped once, instead of on every
    :meth:`~repro.hypergiants.profiles.HeaderRule.matches` call."""
    compiled = []
    for rule in rules:
        name = rule.name.lower()
        name_is_prefix = name.endswith("*")
        value = rule.value
        value_is_prefix = value is not None and value.endswith("*")
        compiled.append((
            name[:-1] if name_is_prefix else name,
            name_is_prefix,
            value[:-1] if value_is_prefix else value,
            value_is_prefix,
            rule,
        ))
    return tuple(compiled)


def lowered_headers(headers: dict[str, str]) -> tuple[tuple[str, str], ...]:
    """A response's ``(lower-cased name, value)`` pairs, for
    :func:`first_match`."""
    return tuple((name.lower(), value) for name, value in headers.items())


def first_match(
    compiled: tuple[tuple, ...], headers: tuple[tuple[str, str], ...]
) -> HeaderRule | None:
    """The first rule (in rule order) any header matches, or ``None`` —
    ``next(r for r in rules if r.matches_any(headers))`` over
    :func:`compile_rules` output and :func:`lowered_headers` pairs."""
    for name, name_is_prefix, value, value_is_prefix, rule in compiled:
        for header_name, header_value in headers:
            if name_is_prefix:
                if not header_name.startswith(name):
                    continue
            elif header_name != name:
                continue
            if value is None:
                return rule
            if value_is_prefix:
                if header_value.startswith(value):
                    return rule
            elif header_value == value:
                return rule
    return None


class HeaderSignal:
    """§4.5 header confirmation as a signal (registry name ``header``)."""

    name = "header"

    def evaluate(
        self, candidate: Candidate, context: SignalContext
    ) -> SignalVerdict:
        """Judge the candidate's port-443 and port-80 header responses.

        Confirms when either port's headers match (Figure 4's "http or
        https"; :func:`and_reading` gives the "and" variant); rejects
        when headers were captured but did not match; abstains only
        when *neither* port produced headers at all (a certificate-only
        corpus has no header channel to judge by).

        A verdict depends on the candidate only through the interned
        header tuples its two ports answered with, so the context's
        :class:`_HeaderJudge` judges each tuple once and folds each
        (HTTPS, HTTP) pair once.
        """
        judge = context.memo.get(self.name)
        if judge is None:
            judge = context.memo[self.name] = _HeaderJudge(self.name, context)
        return judge.verdict(candidate.ip)


class _HeaderJudge:
    """One :class:`SignalContext`'s header matching, compiled.

    The hypergiant's and the edge CDNs' rules are compiled once, each
    distinct interned header tuple is judged once, and each pair of
    per-port answers becomes one shared :class:`SignalVerdict`.  It
    lives in the context's memo, so nothing outlives the engine call.
    """

    __slots__ = ("name", "store", "rules", "nginx", "edges", "ports", "verdicts")

    def __init__(self, name: str, context: SignalContext) -> None:
        hypergiant = context.hypergiant
        self.name = name
        self.store = context.scan.store
        self.rules = compile_rules(context.rules.get(hypergiant, ()))
        self.nginx = context.netflix_nginx_rule and hypergiant == "netflix"
        edges = []
        if context.edge_priority and hypergiant not in EDGE_CDNS:
            for edge in EDGE_CDNS:
                compiled = compile_rules(context.rules.get(edge, ()))
                if compiled:
                    edges.append((edge, compiled))
        self.edges = tuple(edges)
        self.ports: dict[int, tuple[bool, str]] = {}
        self.verdicts: dict[tuple[int | None, int | None], SignalVerdict] = {}

    def verdict(self, ip: int) -> SignalVerdict:
        store = self.store
        key = (store.http_header_index(ip, 443), store.http_header_index(ip, 80))
        verdict = self.verdicts.get(key)
        if verdict is None:
            verdict = self.verdicts[key] = self._fold(
                self._port(key[0]), self._port(key[1])
            )
        return verdict

    def _fold(
        self, https: tuple[bool | None, str], http: tuple[bool | None, str]
    ) -> SignalVerdict:
        (https_match, https_label), (http_match, http_label) = https, http
        https_ok = bool(https_match)
        http_ok = bool(http_match)
        evidence = (("https_rule", https_label), ("http_rule", http_label))
        if https_ok or http_ok:
            matched_on = (
                "both" if (https_ok and http_ok) else ("https" if https_ok else "http")
            )
            return SignalVerdict(
                self.name, CONFIRM, evidence + (("matched_on", matched_on),)
            )
        if https_match is None and http_match is None:
            return SignalVerdict(self.name, ABSTAIN, evidence)
        return SignalVerdict(self.name, REJECT, evidence)

    def _port(self, header_index: int | None) -> tuple[bool | None, str]:
        """One port's answer: ``(matched, rule label)``.

        ``matched`` is ``None`` when the corpus captured no headers for
        the port (distinct from a non-match: the channel was absent, not
        contradictory).
        """
        if header_index is None:
            return None, "no-headers"
        answer = self.ports.get(header_index)
        if answer is None:
            answer = self.ports[header_index] = self._judge(
                dict(self.store.header_table[header_index])
            )
        return answer

    def _judge(self, headers: dict[str, str]) -> tuple[bool, str]:
        lowered = lowered_headers(headers)
        rule = first_match(self.rules, lowered)
        if rule is not None:
            matched_rule = rule_label(rule)
        elif self.nginx and is_default_nginx(headers):
            matched_rule = "default-nginx"
        else:
            return False, "no-match"
        for edge, compiled in self.edges:
            if first_match(compiled, lowered) is not None:
                # The edge CDN operates this box, not the HG.
                return False, f"edge-conflict:{edge}"
        return True, matched_rule


def and_reading(verdict: SignalVerdict) -> SignalVerdict:
    """Figure 4's "http and https" reading of one signal verdict.

    A header confirmation whose ``matched_on`` is not ``both`` reads as
    a rejection carrying the same ``https_rule``/``http_rule``
    evidence; every other verdict reads unchanged.  This is exactly the
    verdict the header signal would give if it folded the two ports
    with "and" instead of "or".
    """
    if (
        verdict.signal != HeaderSignal.name
        or verdict.verdict != CONFIRM
        or verdict.evidence_dict()["matched_on"] == "both"
    ):
        return verdict
    return SignalVerdict(
        verdict.signal,
        REJECT,
        tuple(pair for pair in verdict.evidence if pair[0] != "matched_on"),
    )
