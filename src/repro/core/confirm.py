"""§4.5 — confirming candidate off-nets with HTTP(S) header fingerprints.

A candidate is confirmed when its response headers match the hypergiant's
fingerprint, with two paper-specific refinements:

* **Netflix default-nginx**: a server holding a Netflix certificate that
  answers with nothing but a stock ``Server: nginx`` banner counts as a
  Netflix off-net (§4.4's "interesting case").
* **Edge-CDN priority** (§7 Reverse Proxies): when a response matches both
  the candidate HG *and* a third-party delivery CDN (Akamai, Cloudflare,
  ...), the edge CDN is taken to be the server operator and the candidate
  is rejected — unless the candidate *is* that CDN.

Since the multi-signal refactor this module is a façade: the matching
logic lives in :mod:`repro.core.signals.header` (the ``header`` signal),
and :func:`confirm_candidates` runs the signal engine with the
``paper-default`` combine policy over the header signal alone — the
configuration that reproduces the original behaviour bit for bit — and
keeps its "http or https" confirmations.  Callers that want more
channels (TLS stacks, certificate corroboration), a different fold or
Figure 4's "and" variant use :func:`repro.core.signals.evaluate_candidates`
directly, as the confirm stage does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.candidates import Candidate
from repro.core.signals.engine import evaluate_candidates
from repro.core.signals.header import EDGE_CDNS, HeaderSignal, is_default_nginx
from repro.core.signals.policy import PaperDefaultPolicy
from repro.hypergiants.profiles import HeaderRule
from repro.scan.records import ScanSnapshot

__all__ = ["EDGE_CDNS", "ConfirmedOffnet", "confirm_candidates", "is_default_nginx"]


@dataclass(frozen=True, slots=True)
class ConfirmedOffnet:
    """A candidate that passed header confirmation."""

    candidate: Candidate
    #: Which port(s) produced the match: "http", "https", or "both".
    matched_on: str
    #: Structured per-port evidence from the header signal
    #: (``https_rule`` / ``http_rule``): a ``both`` match that used
    #: different rules on the two ports keeps both identities instead
    #: of conflating them behind one ``matched_on`` label.
    evidence: tuple[tuple[str, str], ...] = ()

    def evidence_dict(self) -> dict[str, str]:
        """The evidence pairs as a dict (keys are unique)."""
        return dict(self.evidence)


def confirm_candidates(
    hypergiant: str,
    candidates: list[Candidate],
    scan: ScanSnapshot,
    rules: dict[str, tuple[HeaderRule, ...]],
    netflix_nginx_rule: bool = True,
    edge_priority: bool = True,
) -> list[ConfirmedOffnet]:
    """Confirm candidates against the header corpus of ``scan``: a
    candidate passes when either its HTTP or its HTTPS response matches
    (Figure 4's default "or" variant).  Books no counters.
    """
    decisions = evaluate_candidates(
        hypergiant,
        candidates,
        scan,
        rules,
        signals=(HeaderSignal(),),
        policy=PaperDefaultPolicy(),
        netflix_nginx_rule=netflix_nginx_rule,
        edge_priority=edge_priority,
    )
    return [
        ConfirmedOffnet(
            candidate=decision.candidate,
            matched_on=decision.matched_on,
            evidence=decision.verdicts[0].evidence,
        )
        for decision in decisions
        if decision.confirmed
    ]
