"""The confirmation-signal protocol: verdicts, evidence, context.

A signal inspects one §4.3 candidate against one snapshot's corpus and
returns exactly one of three verdicts:

* ``confirm`` — the channel affirmatively supports the hypergiant
  operating this server;
* ``reject`` — the channel was observable and contradicts it;
* ``abstain`` — the channel has nothing to say (no observation, no
  profile for this hypergiant, a corpus predating the feature).

The three-way split is what makes combination policies meaningful: an
abstention must never count against a candidate (a certificate-only
corpus abstains on every header question), while a reject is real
evidence a different operator answered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.core.candidates import Candidate
from repro.hypergiants.profiles import HeaderRule
from repro.scan.records import ScanSnapshot

__all__ = [
    "ABSTAIN",
    "CONFIRM",
    "REJECT",
    "ConfirmationSignal",
    "SignalContext",
    "SignalVerdict",
]

#: The signal affirmatively supports the candidate.
CONFIRM = "confirm"
#: The signal was observable and contradicts the candidate.
REJECT = "reject"
#: The signal has no observation to judge the candidate by.
ABSTAIN = "abstain"


@dataclass(frozen=True, slots=True)
class SignalVerdict:
    """One signal's answer for one candidate.

    ``evidence`` is a tuple of ``(key, value)`` string pairs — hashable,
    deterministic, and precise enough to audit a verdict after the fact.
    The header signal, for example, carries *per-port* rule evidence
    (``https_rule`` / ``http_rule``), so a ``both`` match that used
    different rules on the two ports is no longer conflated into one
    undifferentiated label.
    """

    signal: str
    verdict: str  # one of CONFIRM / REJECT / ABSTAIN
    evidence: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in (CONFIRM, REJECT, ABSTAIN):
            raise ValueError(
                f"verdict must be {CONFIRM!r}, {REJECT!r} or {ABSTAIN!r}, "
                f"not {self.verdict!r}"
            )

    def evidence_dict(self) -> dict[str, str]:
        """The evidence pairs as a dict (keys are unique per signal)."""
        return dict(self.evidence)


@dataclass(slots=True)
class SignalContext:
    """Everything signals may read while judging one hypergiant's
    candidates against one snapshot.

    One context is built per (hypergiant, snapshot) evaluation; signals
    must treat it as read-only shared state, apart from their own entry
    in :attr:`memo`.
    """

    #: The candidate hypergiant's keyword (e.g. ``"google"``).
    hypergiant: str
    #: The snapshot's corpus (headers, TLS stacks, certificate rows).
    scan: ScanSnapshot
    #: The §4.4 header fingerprints in force, for every hypergiant.
    rules: dict[str, tuple[HeaderRule, ...]] = field(default_factory=dict)
    #: The Netflix default-nginx acceptance (§4.4).
    netflix_nginx_rule: bool = True
    #: The §7 edge-CDN conflict priority.
    edge_priority: bool = True
    #: Per-context scratch space, keyed by signal name: a signal keeps
    #: its compiled inputs and verdict memos here.  It lives exactly as
    #: long as the context (one engine call), so no memo outlives the
    #: confirm stage or keeps a scan alive.
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@runtime_checkable
class ConfirmationSignal(Protocol):
    """The protocol every registered confirmation signal implements."""

    #: The registry name (``header``, ``tls-stack``, ...); also the
    #: ``signal`` label on the observability counters.
    name: str

    def evaluate(
        self, candidate: Candidate, context: SignalContext
    ) -> SignalVerdict:
        """Judge one candidate under ``context``."""
        ...
