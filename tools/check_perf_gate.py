"""CI gate over the serve-load summary.

**Serve mode** (``--expect-serve``) consumes ``perf_serve_summary.json``
(published by ``benchmarks/bench_serve_load.py``): a concurrent query
storm against a live delta ingest.  Enforced unconditionally: zero query
failures, served/batch parity in every cell, queries answered
(successfully) *during* the ingest, and the delta proof — the idle pass
skipped every indexed snapshot without committing, and the drop pass
re-analysed exactly one.  The latency/throughput bars (``--max-p99-ms``,
``--min-qps``) are enforced only on >= 2 recorded cores: a single-core
host serializes the daemon against its clients, and the gate says so
instead of failing on physics.

It is the one gate that reads a bench summary: other speed figures come
from ``perfbench/``, and every other correctness bar is asserted by the
test that produces it.

Usage::

    python tools/check_perf_gate.py benchmarks/output/perf_serve_summary.json \
        --expect-serve

Exit status: 0 when every bar holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["build_parser", "check_serve_summary", "main"]

#: Keys a serve summary must carry for the serve gate to be meaningful.
SERVE_REQUIRED_KEYS = (
    "kind",
    "cpu_count",
    "queries_total",
    "query_failures",
    "qps",
    "latency_p50_ms",
    "latency_p99_ms",
    "queries_during_ingest",
    "queries_during_ingest_all_ok",
    "ingest",
    "parity",
)


def check_serve_summary(
    summary: dict, max_p99_ms: float, min_qps: float
) -> list[str]:
    """Every serve-mode gate violation, as human-readable strings.

    Correctness (failures, parity, availability-during-ingest, the
    delta-only proof) always gates; the latency/throughput bars gate
    only when the summary records >= 2 CPU cores.
    """
    problems = [
        f"serve summary is missing required key {key!r}"
        for key in SERVE_REQUIRED_KEYS
        if key not in summary
    ]
    if problems:
        return problems
    if summary["kind"] != "serve-load":
        return [
            f"summary kind is {summary['kind']!r}, expected 'serve-load' "
            "(is this perf_serve_summary.json?)"
        ]
    if summary["query_failures"]:
        problems.append(
            f"{summary['query_failures']} of {summary['queries_total']} "
            "storm queries failed"
        )
    broken = [label for label, ok in summary["parity"].items() if not ok]
    if broken:
        problems.append(
            "served answers diverge from the fresh batch run for: "
            + ", ".join(sorted(broken))
        )
    if not summary["queries_during_ingest"]:
        problems.append(
            "no query completed during the ingest window — availability "
            "under ingest was not exercised"
        )
    elif not summary["queries_during_ingest_all_ok"]:
        problems.append(
            f"of {summary['queries_during_ingest']} queries answered during "
            "the ingest, at least one failed"
        )
    ingest = summary["ingest"]
    baseline = ingest.get("baseline_snapshots", 0)
    if ingest.get("idle_pass_skipped") != baseline or ingest.get(
        "idle_pass_committed"
    ):
        problems.append(
            f"idle pass was not a pure skip: skipped "
            f"{ingest.get('idle_pass_skipped')} of {baseline}, "
            f"committed={ingest.get('idle_pass_committed')}"
        )
    if len(ingest.get("delta_pass_ingested", ())) != 1 or (
        ingest.get("delta_pass_skipped") != baseline
    ):
        problems.append(
            "the drop pass was not delta-only: re-analysed "
            f"{ingest.get('delta_pass_ingested')} and skipped "
            f"{ingest.get('delta_pass_skipped')} of {baseline} unchanged "
            "snapshots (expected exactly 1 re-analysed, all others skipped)"
        )
    if summary["cpu_count"] < 2:
        # Wall-clock bars are not measurable; correctness gated above.
        return problems
    if summary["latency_p99_ms"] > max_p99_ms:
        problems.append(
            f"query latency p99 {summary['latency_p99_ms']}ms exceeds "
            f"{max_p99_ms}ms on {summary['cpu_count']} cores"
        )
    if summary["qps"] < min_qps:
        problems.append(
            f"throughput {summary['qps']} qps is below {min_qps} qps "
            f"on {summary['cpu_count']} cores"
        )
    return problems


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Enforce the serve-load summary bars in CI."
    )
    parser.add_argument(
        "summary",
        type=Path,
        help="path to perf_serve_summary.json",
    )
    parser.add_argument(
        "--expect-serve",
        action="store_true",
        help="serve mode: enforce the serve-load bars — zero query "
        "failures, served/batch parity, availability during ingest, and "
        "the delta-only ingest proof unconditionally; the latency and "
        "qps bars only when the summary records >= 2 CPU cores",
    )
    parser.add_argument(
        "--max-p99-ms",
        type=float,
        default=500.0,
        help="serve mode: maximum acceptable query latency p99 in "
        "milliseconds on multi-core hosts (default: 500)",
    )
    parser.add_argument(
        "--min-qps",
        type=float,
        default=50.0,
        help="serve mode: minimum acceptable aggregate throughput in "
        "queries per second on multi-core hosts (default: 50)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    try:
        summary = json.loads(args.summary.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"FAIL: perf summary not found: {args.summary}")
        return 1
    except json.JSONDecodeError as error:
        print(f"FAIL: perf summary is not valid JSON: {error}")
        return 1

    if not args.expect_serve:
        print("FAIL: --expect-serve is required (serve mode is this gate's only mode)")
        return 1

    problems = check_serve_summary(summary, args.max_p99_ms, args.min_qps)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    ingest = summary["ingest"]
    verdict = (
        f"OK: {summary['queries_total']} queries, 0 failures; "
        f"delta pass re-analysed {ingest['delta_pass_ingested']} and "
        f"skipped {ingest['delta_pass_skipped']} unchanged; "
        f"{summary['queries_during_ingest']} queries answered during "
        "the ingest; parity holds in "
        f"{len(summary['parity'])} cells"
    )
    if summary["cpu_count"] < 2:
        verdict += (
            f"; latency/qps bars SKIPPED — summary records "
            f"{summary['cpu_count']} CPU core(s) "
            f"(observed p99 {summary['latency_p99_ms']}ms, "
            f"{summary['qps']} qps, not gated)"
        )
    else:
        verdict += (
            f"; p99 {summary['latency_p99_ms']}ms <= {args.max_p99_ms}ms, "
            f"{summary['qps']} qps >= {args.min_qps} on "
            f"{summary['cpu_count']} cores"
        )
    print(verdict)
    return 0


if __name__ == "__main__":
    sys.exit(main())
