"""The confirm-stage engine: evaluate signals, fold verdicts, book counters.

One :func:`evaluate_candidates` call judges every candidate of one
(hypergiant, snapshot, mode) cell: each configured signal produces a
:class:`~repro.core.signals.base.SignalVerdict`, the combine policy
folds them, and the historical funnel counters
(``confirm_checked_total``, ``confirm_passed_total``) are booked with
the same names, labels and values the pre-framework implementation
booked — that is what keeps the default configuration's reports
bit-identical.

On top of those, the engine books the signal-level observability
counters the run report's ``signals`` section folds at the merge
barrier:

* ``signal_verdicts_total{signal, verdict, hg}`` — one per signal per
  candidate;
* ``signal_disagreements_total{hg}`` — candidates where at least one
  signal confirmed while another rejected (the interesting rows: either
  an evasion caught by a second channel, or a signal misfiring).

Both are booked only when ``book_signals`` is set: the confirm stage
runs the engine twice (Figure 4's ``or`` and ``and`` variants) and only
the primary ``or`` pass books signal counters, so each candidate is
counted once.  Every counter is summed over the call and booked once
per label set, not once per candidate.
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
from repro.core.signals.policy import CombinePolicy
from repro.hypergiants.profiles import HeaderRule
from repro.obs.metrics import MetricsRegistry
from repro.scan.records import ScanSnapshot

__all__ = ["SignalDecision", "evaluate_candidates"]


@dataclass(frozen=True, slots=True)
class SignalDecision:
    """One candidate's combined confirmation outcome."""

    candidate: Candidate
    confirmed: bool
    #: Which channel produced the confirmation: the header signal's
    #: port label (``both``/``https``/``http``) when it confirmed, else
    #: the name of the first confirming signal; ``""`` when rejected.
    matched_on: str
    #: Every signal's verdict, in configured order, with evidence.
    verdicts: tuple[SignalVerdict, ...]


def evaluate_candidates(
    hypergiant: str,
    candidates: list[Candidate],
    scan: ScanSnapshot,
    rules: dict[str, tuple[HeaderRule, ...]],
    signals: tuple[ConfirmationSignal, ...],
    policy: CombinePolicy,
    mode: str = "or",
    netflix_nginx_rule: bool = True,
    edge_priority: bool = True,
    registry: MetricsRegistry | None = None,
    book_signals: bool = True,
) -> list[SignalDecision]:
    """Judge ``candidates`` with every signal and fold under ``policy``.

    Returns one :class:`SignalDecision` per candidate (confirmed or
    not), so callers can audit rejections; the classic confirmed-only
    view is ``[d for d in decisions if d.confirmed]``.
    """
    if mode not in ("or", "and"):
        raise ValueError(f"mode must be 'or' or 'and', not {mode!r}")
    context = SignalContext(
        hypergiant=hypergiant,
        scan=scan,
        rules=rules,
        mode=mode,
        netflix_nginx_rule=netflix_nginx_rule,
        edge_priority=edge_priority,
    )
    if registry is not None:
        registry.counter("confirm_checked_total", hg=hypergiant, mode=mode).inc(
            len(candidates)
        )
    # Counts per label set, booked once after the loop.
    book_signals = book_signals and registry is not None
    verdict_counts: dict[tuple[str, str], int] = {}
    disagreements = 0
    passed: dict[str, int] = {}
    decisions: list[SignalDecision] = []
    for candidate in candidates:
        verdicts = tuple(signal.evaluate(candidate, context) for signal in signals)
        confirmed = policy.decide(verdicts)
        matched_on = _matched_on(verdicts) if confirmed else ""
        if book_signals:
            for verdict in verdicts:
                key = (verdict.signal, verdict.verdict)
                verdict_counts[key] = verdict_counts.get(key, 0) + 1
            outcomes = {v.verdict for v in verdicts}
            if CONFIRM in outcomes and REJECT in outcomes:
                disagreements += 1
        if confirmed:
            passed[matched_on] = passed.get(matched_on, 0) + 1
        decisions.append(
            SignalDecision(
                candidate=candidate,
                confirmed=confirmed,
                matched_on=matched_on,
                verdicts=verdicts,
            )
        )
    if registry is not None:
        for (signal, verdict), count in verdict_counts.items():
            registry.counter(
                "signal_verdicts_total", signal=signal, verdict=verdict, hg=hypergiant
            ).inc(count)
        if disagreements:
            registry.counter("signal_disagreements_total", hg=hypergiant).inc(
                disagreements
            )
        for matched_on, count in passed.items():
            registry.counter(
                "confirm_passed_total", hg=hypergiant, mode=mode, matched_on=matched_on
            ).inc(count)
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
