"""The repository benchmark: one workload, one seed, one line of results.

Run from the checkout root::

    python3 perfbench/run.py --workload world-serial --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload once untraced and once with every layer
wrapped, and reports the per-layer metrics instead (it also writes a
Chrome trace and a per-layer table under ``.perfbench-out/``).  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit).  The exit code is 0 only when
every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import harness
import workloads

WORKLOADS = ("world-serial", "files-cache", "serve-delta")

#: End-to-end metrics (name, unit); every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("warm_run_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    host = harness.host_info()
    if host["single_core"]:
        banner = (
            "WARNING: 1-core host (affinity %s): the parallel executor and "
            "ingest/query overlap cannot show here" % host["affinity"]
        )
        print(banner)
        print(banner, file=sys.stderr)
    harness.OUT_DIR.mkdir(exist_ok=True)
    work = harness.OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    ctx = workloads.Context(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        if args.workload == "serve-delta":
            result = workloads.run_serve(ctx)
        else:
            result = workloads.run_batch(ctx)
    except (harness.BenchError, ValueError, OSError) as error:
        print(f"error: {args.workload} seed {args.seed}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = workloads.PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result.metrics[name], "unit": unit} for name, unit in names}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": harness.SCALE,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "input": result.info,
        "metrics": metrics,
        "observed": result.observed,
        "error_rate": result.failed / max(result.attempted, 1),
        "problems": result.problems[:50],
        "warnings": result.warnings,
    }
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    (harness.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    _print_human(record, result)
    if args.trace:
        table = _layer_table(result.layer_rows, result.metrics, result.predictions)
        (harness.OUT_DIR / f"{stem}.chrome.json").write_text(json.dumps(result.trace_events))
        (harness.OUT_DIR / f"{stem}.layers.txt").write_text(table)
        print(table, end="")
    for warning in result.warnings:
        print(f"WARNING: {warning}")
        print(f"WARNING: {warning}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.failed == 0 else 1


def _print_human(record: dict, result) -> None:
    host = record["host"]
    print(
        f"host: {host['cpu_count']} cpus, affinity {host['affinity']}, "
        f"Python {host['python']}, rev {host['git_rev'] or 'n/a'}, src {host['src_digest']}"
    )
    print(
        f"input: {record['workload']} seed {record['seed']} scale {record['scale']} "
        + " ".join(f"{k}={v}" for k, v in sorted(record["input"].items()) if "digest" not in k)
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.6f} {metric['unit']}")
    units = dict(workloads.PER_LAYER)
    for name, value in record["observed"].items():
        print(f"  {name:28s} {value:14.6f} {units[name]} (not gated)")
    print(f"  {'error_rate':28s} {record['error_rate']:14.6f} fraction "
          f"({result.failed} of {result.attempted})")
    for problem in result.problems[:20]:
        print(f"  FAILED: {problem}")


def _layer_table(rows: list[dict], metrics: dict, predictions: list[str]) -> str:
    """Calls, inclusive and self seconds per span, with the tracing
    overhead, span coverage and idle-layer checks beside them."""
    lines = [f"{'span':28s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}"]
    for row in rows:
        lines.append(
            f"{row['name']:28s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}"
        )
    lines.append(
        f"trace.overhead {metrics['trace.overhead']:.3f} (traced / untraced timed wall), "
        f"trace.span_coverage {metrics['trace.span_coverage']:.3f}"
    )
    lines += predictions
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
