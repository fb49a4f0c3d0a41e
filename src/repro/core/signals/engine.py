"""The confirm-stage engine: evaluate signals, fold verdicts, book counters.

One :func:`evaluate_candidates` call judges every candidate of one
(hypergiant, snapshot) cell: each configured signal produces a
:class:`~repro.core.signals.base.SignalVerdict` once, and the combine
policy folds them twice — as given, for Figure 4's "http or https"
variant, and through :func:`~repro.core.signals.header.and_reading`,
for its "http and https" variant.  The historical funnel counters
(``confirm_checked_total``, ``confirm_passed_total``) are booked for
both modes with the same names, labels and values the pre-framework
implementation booked — that is what keeps the default configuration's
reports bit-identical.

On top of those, the engine books the signal-level observability
counters the run report's ``signals`` section folds at the merge
barrier:

* ``signal_verdicts_total{signal, verdict, hg}`` — one per signal per
  candidate (the "or" verdicts the signals returned);
* ``signal_disagreements_total{hg}`` — candidates where at least one
  signal confirmed while another rejected (the interesting rows: either
  an evasion caught by a second channel, or a signal misfiring).

Every counter is summed over the call and booked once per label set,
not once per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.candidates import Candidate
from repro.core.signals.base import (
    CONFIRM,
    REJECT,
    ConfirmationSignal,
    SignalContext,
    SignalVerdict,
)
from repro.core.signals.header import and_reading
from repro.core.signals.policy import CombinePolicy
from repro.hypergiants.profiles import HeaderRule
from repro.obs.metrics import MetricsRegistry
from repro.scan.records import ScanSnapshot

__all__ = ["SignalDecision", "evaluate_candidates"]


@dataclass(frozen=True, slots=True)
class SignalDecision:
    """One candidate's combined confirmation outcome."""

    candidate: Candidate
    #: Confirmed under Figure 4's "http or https" variant (the default).
    confirmed: bool
    #: Which channel produced the confirmation: the header signal's
    #: port label (``both``/``https``/``http``) when it confirmed, else
    #: the name of the first confirming signal; ``""`` when rejected.
    matched_on: str
    #: Every signal's verdict, in configured order, with evidence.
    verdicts: tuple[SignalVerdict, ...]
    #: Confirmed under Figure 4's stricter "http and https" variant.
    confirmed_and: bool


def evaluate_candidates(
    hypergiant: str,
    candidates: list[Candidate],
    scan: ScanSnapshot,
    rules: dict[str, tuple[HeaderRule, ...]],
    signals: tuple[ConfirmationSignal, ...],
    policy: CombinePolicy,
    netflix_nginx_rule: bool = True,
    edge_priority: bool = True,
    registry: MetricsRegistry | None = None,
) -> list[SignalDecision]:
    """Judge ``candidates`` with every signal and fold under ``policy``.

    Returns one :class:`SignalDecision` per candidate (confirmed or
    not, under either variant), so callers can audit rejections; the
    classic confirmed-only view is ``[d for d in decisions if d.confirmed]``.
    """
    context = SignalContext(
        hypergiant=hypergiant,
        scan=scan,
        rules=rules,
        netflix_nginx_rule=netflix_nginx_rule,
        edge_priority=edge_priority,
    )
    # Counts per label set, booked once after the loop.
    verdict_counts: dict[tuple[str, str], int] = {}
    passed: dict[tuple[str, str], int] = {}  # keyed (mode, matched_on)
    disagreements = 0
    decisions: list[SignalDecision] = []
    for candidate in candidates:
        verdicts = tuple(signal.evaluate(candidate, context) for signal in signals)
        verdicts_and = tuple(map(and_reading, verdicts))
        confirmed = policy.decide(verdicts)
        confirmed_and = policy.decide(verdicts_and)
        matched_on = _matched_on(verdicts) if confirmed else ""
        for verdict in verdicts:
            key = (verdict.signal, verdict.verdict)
            verdict_counts[key] = verdict_counts.get(key, 0) + 1
        outcomes = {v.verdict for v in verdicts}
        if CONFIRM in outcomes and REJECT in outcomes:
            disagreements += 1
        if confirmed:
            key = ("or", matched_on)
            passed[key] = passed.get(key, 0) + 1
        if confirmed_and:
            key = ("and", _matched_on(verdicts_and))
            passed[key] = passed.get(key, 0) + 1
        decisions.append(
            SignalDecision(
                candidate=candidate,
                confirmed=confirmed,
                matched_on=matched_on,
                verdicts=verdicts,
                confirmed_and=confirmed_and,
            )
        )
    if registry is not None:
        for mode in ("or", "and"):
            registry.counter("confirm_checked_total", hg=hypergiant, mode=mode).inc(
                len(candidates)
            )
        for (mode, matched_on), count in passed.items():
            registry.counter(
                "confirm_passed_total", hg=hypergiant, mode=mode, matched_on=matched_on
            ).inc(count)
        for (signal, verdict), count in verdict_counts.items():
            registry.counter(
                "signal_verdicts_total", signal=signal, verdict=verdict, hg=hypergiant
            ).inc(count)
        if disagreements:
            registry.counter("signal_disagreements_total", hg=hypergiant).inc(
                disagreements
            )
    return decisions


def _matched_on(verdicts: tuple[SignalVerdict, ...]) -> str:
    """The confirmation channel label for ``confirm_passed_total``.

    A confirming header verdict keeps its historical port label
    (``both``/``https``/``http``), preserving counter parity with the
    pre-framework implementation; otherwise the first confirming
    signal's name identifies the rescuing channel.
    """
    for verdict in verdicts:
        if verdict.signal == "header" and verdict.verdict == CONFIRM:
            return verdict.evidence_dict().get("matched_on", "header")
    for verdict in verdicts:
        if verdict.verdict == CONFIRM:
            return verdict.signal
    return "policy"
