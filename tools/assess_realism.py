"""Score a generated world against the paper's distributions.

Builds a named scenario's world (any seed/scale) and runs the realism
scorer (:mod:`repro.scenario.realism`) over it: stub share, cone-census
mix, AS-census growth, regional mix, and the Fig. 3 growth-curve shapes.
Each metric is compared against a paper-anchored band; the world is
``realistic`` when every metric lands inside its band.

Usage::

    python tools/assess_realism.py                           # paper-default
    python tools/assess_realism.py --scenario skewed --scale 0.01
    python tools/assess_realism.py --seed 11 --out realism.json
    python tools/assess_realism.py --strict                  # exit 1 if flagged

The JSON report (``--out``) is versioned (schema
``repro.realism-report/1``); ``tests/tools/test_assess_realism.py`` runs
both verdicts (paper-default realistic, ``skewed`` flagged),
``docs/scenarios.md`` documents the runbook and ``docs/methodology.md``
maps every metric to its paper figure.

Exit status: 0 on success; with ``--strict``, 1 when the world is flagged
unrealistic.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # runnable without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.scenario import assess_world, get_scenario, scenario_names  # noqa: E402

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Score a generated world against the paper's distributions."
    )
    parser.add_argument(
        "--scenario",
        default="paper-default",
        help="named scenario to build and score "
        f"(registered: {', '.join(scenario_names())}; default: paper-default)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="world seed (default: the scenario's own default)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="Internet scale factor (default: the scenario's own default)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="OUT.json",
        help="also write the versioned realism report "
        "(schema repro.realism-report/1) as JSON",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when the world is flagged unrealistic",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = get_scenario(args.scenario)
    except KeyError as error:
        print(f"error: {error.args[0]}")
        return 2
    world = spec.build(seed=args.seed, scale=args.scale)
    report = assess_world(world)
    meta = report["scenario"]
    print(
        f"realism of scenario {meta['name']!r} "
        f"(seed={meta['seed']}, scale={meta['scale']}):"
    )
    for metric in report["metrics"]:
        low, high = metric["band"]
        flag = "ok  " if metric["ok"] else "FLAG"
        print(
            f"  {flag} {metric['name']:<24} {metric['value']:<8g} "
            f"band [{low:g}, {high:g}]  ({metric['paper_ref']})"
        )
    verdict = "realistic" if report["realistic"] else "UNREALISTIC"
    print(
        f"verdict: {verdict} — {report['passed']}/{report['total']} metrics "
        f"inside their paper bands (score {report['score']})"
    )
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote realism report to {path}")
    if args.strict and not report["realistic"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
