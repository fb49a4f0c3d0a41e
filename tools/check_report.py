"""Diff two pipeline run reports; fail on funnel drift.

Usage::

    PYTHONPATH=src python tools/check_report.py baseline.json candidate.json

Exit status 0 means both reports are schema-valid and the candidate's
deterministic view (schema, corpus, snapshots, options, per-snapshot
funnel counts) is **byte-identical** to the baseline's.  Any drift is an
exact failure: candidate/confirmed/valid counts are deterministic
functions of the inputs and methodology, so *any* change means the
methodology changed.  Executor, cache state and timings are outside the
deterministic view, so a ``jobs=1`` report compares cleanly against a
``jobs=2`` one, and a cold run against its ``--resume``.

``--expect-cache-hits`` additionally requires the candidate to report a
nonzero stage-artifact cache hit ratio (its ``stage_cache`` section):
run the pipeline twice against one ``--cache-dir`` and check the second
report with it.

``--expect-signals`` additionally requires the candidate's ``signals``
section to prove the multi-signal confirm engine actually ran: every
signal configured in the report's options must have booked at least one
verdict (confirm + reject + abstain > 0).  A signal that was configured
but never consulted is a wiring bug, not a quiet no-op.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

from repro.obs.report import deterministic_view, load_report, validate_report

__all__ = ["build_parser", "compare_reports", "diff_deterministic", "main"]


def diff_deterministic(baseline: dict, candidate: dict, limit: int = 20) -> list[str]:
    """Human-readable paths where the deterministic views differ."""

    def walk(a, b, path: str) -> Iterator[str]:
        if type(a) is not type(b):
            yield f"{path}: type {type(a).__name__} != {type(b).__name__}"
        elif isinstance(a, dict):
            for key in sorted(set(a) | set(b)):
                if key not in a:
                    yield f"{path}.{key}: only in candidate"
                elif key not in b:
                    yield f"{path}.{key}: only in baseline"
                else:
                    yield from walk(a[key], b[key], f"{path}.{key}")
        elif isinstance(a, list):
            if a != b:
                yield f"{path}: {a!r} != {b!r}"
        elif a != b:
            yield f"{path}: baseline {a!r} != candidate {b!r}"

    differences = []
    for difference in walk(
        deterministic_view(baseline), deterministic_view(candidate), "report"
    ):
        differences.append(difference)
        if len(differences) >= limit:
            differences.append("... (further differences suppressed)")
            break
    return differences


def compare_reports(
    baseline: dict,
    candidate: dict,
    expect_cache_hits: bool = False,
    expect_signals: bool = False,
) -> list[str]:
    """Every reason the candidate fails the gate (empty = pass)."""
    problems = [f"baseline: {p}" for p in validate_report(baseline)]
    problems += [f"candidate: {p}" for p in validate_report(candidate)]
    if problems:
        return problems

    if json.dumps(deterministic_view(baseline), sort_keys=True) != json.dumps(
        deterministic_view(candidate), sort_keys=True
    ):
        problems.append(
            "funnel drift: deterministic views differ "
            "(counts must match exactly across runs/executors)"
        )
        problems += [f"  {d}" for d in diff_deterministic(baseline, candidate)]

    if expect_cache_hits:
        stage_cache = candidate.get("stage_cache", {})
        hits = stage_cache.get("hits", 0)
        hit_rate = stage_cache.get("hit_rate", 0.0)
        if not hits or not hit_rate:
            problems.append(
                "expected stage-cache hits but the candidate reports "
                f"hits={hits} hit_rate={hit_rate} — the warm run did not "
                "reuse any artifacts"
            )

    if expect_signals:
        section = candidate.get("signals", {})
        configured = candidate.get("options", {}).get("signals", [])
        if not configured:
            problems.append(
                "expected signal verdicts but the candidate's options name "
                "no configured signals"
            )
        verdicts = section.get("verdicts", {})
        for signal in configured:
            booked = sum(verdicts.get(signal, {}).values())
            if not booked:
                problems.append(
                    f"signal {signal!r} is configured but booked no verdicts "
                    "— the confirm stage never consulted it"
                )
    return problems


def build_parser() -> argparse.ArgumentParser:
    """The gate's argparse parser (exposed so the documentation tests
    can validate every flag against the docs)."""
    parser = argparse.ArgumentParser(
        prog="check_report",
        description="Compare two repro run reports (funnel drift is an "
        "exact failure)."
    )
    parser.add_argument("baseline", help="baseline report JSON")
    parser.add_argument("candidate", help="candidate report JSON")
    parser.add_argument(
        "--expect-cache-hits",
        action="store_true",
        help="fail unless the candidate reports a nonzero stage-artifact "
        "cache hit ratio (a warm or --resume run)",
    )
    parser.add_argument(
        "--expect-signals",
        action="store_true",
        help="fail unless every signal configured in the candidate's "
        "options booked at least one verdict in its signals section",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    baseline = load_report(args.baseline)
    candidate = load_report(args.candidate)
    problems = compare_reports(
        baseline,
        candidate,
        expect_cache_hits=args.expect_cache_hits,
        expect_signals=args.expect_signals,
    )
    if problems:
        print(f"FAIL: {args.candidate} vs baseline {args.baseline}")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"OK: {args.candidate} matches {args.baseline} (identical funnel)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
