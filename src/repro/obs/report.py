"""The versioned JSON run report: one queryable artifact per pipeline run.

A run report is the pipeline's flight recorder, built from the merged
:class:`~repro.obs.metrics.MetricsRegistry` after
:meth:`~repro.core.pipeline.OffnetPipeline.merge_outcomes`:

* ``funnel`` — per snapshot, the §4 funnel shape (TLS/HTTP records →
  §4.1 valid → org-matched → §4.3 candidates → §4.5 confirmed, per HG);
* ``stages`` — wall-clock seconds and invocation counts per stage;
* ``store`` — the columnar snapshot store's deduplication accounting:
  TLS rows vs unique chains (the §4 redundancy ratio), intern-table
  entries, and the validation/match work the dedup saved;
* ``ingest`` — corpus ingestion robustness accounting: records seen /
  accepted / quarantined / repaired, with per-error-class breakdowns
  (all zero for clean corpuses and in-memory sources);
* ``signals`` — the §4.5 multi-signal confirmation accounting: which
  signals and combine policy were configured, per-signal confirm /
  reject / abstain verdict totals, and the per-HG disagreement counts
  (candidates where one signal confirmed while another rejected);
* ``scenario`` — the scenario engine's identity and effect: the named
  spec the world came from, its mid-timeline event schedule (every event
  with a one-line summary), and the suppression counters the scanners
  booked while events were active (all blank/zero for file datasets and
  event-free worlds);
* ``cache`` — the §4.1 cross-snapshot validation-cache counters;
* ``stage_cache`` — the stage-artifact cache's hit/miss/store counters,
  total and per stage (``tools/check_report.py --expect-cache-hits``
  asserts a nonzero hit ratio here);
* ``executor`` — how the run was mapped (jobs, workers, fallbacks);
* ``metrics`` — the full registry dump, for anything the sections above
  did not pre-digest.

The report splits cleanly into a **deterministic view** (schema, corpus,
snapshots, options, funnel) — identical for ``jobs=1`` and ``jobs=N``
runs of the same world, byte for byte — and environmental sections
(stages, cache, executor, metrics) that legitimately vary with hardware,
process count and scheduling.  ``tools/check_report.py`` compares the
deterministic views exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.timers import STAGE_SECONDS

__all__ = [
    "SCHEMA_VERSION",
    "build_report",
    "deterministic_view",
    "load_report",
    "validate_report",
    "write_report",
]

#: Bump the suffix when the report layout changes incompatibly.
SCHEMA_VERSION = "repro.run-report/1"

#: Top-level keys every valid report carries.
_REQUIRED_KEYS = (
    "schema",
    "corpus",
    "snapshots",
    "options",
    "executor",
    "stages",
    "funnel",
    "cache",
    "metrics",
)

#: The funnel totals recorded once per snapshot.
_SNAPSHOT_COUNTERS = (
    "tls_records",
    "http_records",
    "unique_certificates",
    "valid",
    "expired_only",
    "rejected",
)

#: The per-hypergiant funnel columns, in funnel order.
_HG_COUNTERS = ("org_matched", "onnet_ips", "candidates", "confirmed")


def build_report(result: Any) -> dict:
    """Assemble the report dict for a pipeline result.

    ``result`` is duck-typed (a :class:`~repro.core.footprint.PipelineResult`):
    it must offer ``corpus``, ``snapshots``, ``metrics`` (the merged
    registry) and ``run_meta`` (options + executor metadata captured by
    the pipeline).
    """
    registry: MetricsRegistry = result.metrics
    run_meta = dict(getattr(result, "run_meta", {}) or {})
    return {
        "schema": SCHEMA_VERSION,
        "corpus": result.corpus,
        "snapshots": [snapshot.label for snapshot in result.snapshots],
        "options": run_meta.get("options", {}),
        "executor": run_meta.get("executor", {}),
        "stages": _stages_section(registry),
        "funnel": _funnel_section(registry, result.snapshots),
        "store": _store_section(registry),
        "ingest": _ingest_section(registry),
        "signals": _signals_section(registry, run_meta.get("options", {})),
        "scenario": _scenario_section(registry, run_meta.get("scenario", {})),
        "cache": _cache_section(registry),
        "stage_cache": _stage_cache_section(registry),
        "metrics": registry.to_dict(),
    }


def _store_section(registry: MetricsRegistry) -> dict:
    """Columnar-store dedup accounting, summed across snapshots.

    Absent counters sum to zero, so reports from stores-less runs (older
    baselines) simply carry an all-zero section; ``store`` is deliberately
    not in ``_REQUIRED_KEYS`` and not in the deterministic view, keeping
    old and new reports comparable.
    """
    tls_rows = registry.sum_counters("store_tls_rows")
    unique_chains = registry.sum_counters("store_unique_chains")
    rows_validated = registry.counter_value("validation_work", unit="rows")
    chains_verified = registry.counter_value("validation_work", unit="unique_chains")
    return {
        "tls_rows": tls_rows,
        "unique_chains": unique_chains,
        "unique_chain_ratio": unique_chains / tls_rows if tls_rows else 0.0,
        "intern_entries": registry.counters_by_label("store_intern_entries", "table"),
        "validation_work": {
            "unique_chains_verified": chains_verified,
            "rows_broadcast": rows_validated,
            "verifications_saved": max(0, rows_validated - chains_verified),
        },
        "match_work": {
            "subset_tests_computed": registry.counter_value(
                "match_subset_tests", event="computed"
            ),
            "subset_tests_reused": registry.counter_value(
                "match_subset_tests", event="reused"
            ),
        },
    }


def _ingest_section(registry: MetricsRegistry) -> dict:
    """Ingestion robustness accounting, summed across snapshots.

    The counters are booked by the ``ingest`` stage from each snapshot's
    :class:`~repro.robustness.IngestReport` (absent for in-memory
    sources, so their reports carry an all-zero section).  Like
    ``store``, the section is not in ``_REQUIRED_KEYS`` and not in the
    deterministic view, keeping old and new reports comparable — the
    fault-injection tests assert on it directly instead.
    """
    records = registry.counters_by_label("ingest_records", "event")
    quarantined = registry.counters_by_label("ingest_quarantined", "error_class")
    repaired = registry.counters_by_label("ingest_repaired", "error_class")
    return {
        "seen": records.get("seen", 0),
        "accepted": records.get("accepted", 0),
        "quarantined": sum(quarantined.values()),
        "repaired": sum(repaired.values()),
        "quarantined_by_class": {k: quarantined[k] for k in sorted(quarantined)},
        "repaired_by_class": {k: repaired[k] for k in sorted(repaired)},
    }


def _signals_section(registry: MetricsRegistry, options: dict) -> dict:
    """§4.5 multi-signal confirmation accounting, summed across snapshots.

    The counters are booked by the confirm stage's signal engine
    (:func:`repro.core.signals.evaluate_candidates`), which runs each
    signal once per candidate, so each candidate counts once per
    signal.  Like ``store``/``ingest``, the section is deterministic
    (fragments replay on cache hits and fold at the merge barrier) but
    not in ``_REQUIRED_KEYS`` or the deterministic view, keeping
    pre-framework baselines comparable — ``tools/check_report.py
    --expect-signals`` gates on it directly instead.
    """
    per_signal: dict[str, dict[str, int]] = {}
    for labels, value in registry.counter_items("signal_verdicts_total"):
        signal = labels.get("signal", "?")
        verdict = labels.get("verdict", "?")
        entry = per_signal.setdefault(
            signal, {"confirm": 0, "reject": 0, "abstain": 0}
        )
        entry[verdict] = entry.get(verdict, 0) + value
    disagreements = registry.counters_by_label(
        "signal_disagreements_total", "hg"
    )
    return {
        "configured": list(options.get("signals", [])),
        "policy": options.get("confirm_policy", ""),
        "verdicts": {signal: per_signal[signal] for signal in sorted(per_signal)},
        "disagreements": sum(disagreements.values()),
        "disagreements_by_hg": {
            hg: disagreements[hg] for hg in sorted(disagreements)
        },
    }


def _stages_section(registry: MetricsRegistry) -> dict:
    stages = {}
    for stage, histogram in sorted(
        registry.histograms_by_label(STAGE_SECONDS, "stage").items()
    ):
        stages[stage] = {
            "seconds": histogram.total,
            "calls": histogram.count,
            "mean": histogram.mean,
            "max": histogram.maximum if histogram.count else 0.0,
        }
    return stages


def _funnel_section(registry: MetricsRegistry, snapshots) -> dict:
    by_snapshot: dict[str, dict[str, dict[str, int]]] = {}
    for name in _HG_COUNTERS:
        for labels, value in registry.counter_items(f"funnel_{name}"):
            hypergiants = by_snapshot.setdefault(labels.get("snapshot"), {})
            hg = labels.get("hg", "?")
            hypergiants.setdefault(hg, dict.fromkeys(_HG_COUNTERS, 0))[name] = value
    funnel: dict[str, dict] = {}
    for snapshot in snapshots:
        label = snapshot.label
        entry: dict[str, Any] = {
            name: registry.counter_value(f"funnel_{name}", snapshot=label)
            for name in _SNAPSHOT_COUNTERS
        }
        hypergiants = by_snapshot.get(label, {})
        entry["hypergiants"] = {hg: hypergiants[hg] for hg in sorted(hypergiants)}
        funnel[label] = entry
    return funnel


def _scenario_section(registry: MetricsRegistry, meta: dict) -> dict:
    """Scenario-engine accounting: which spec built the world and what
    its event schedule did to the corpuses.

    ``meta`` is the source's :meth:`~repro.world.world.World.scenario_meta`
    (empty for file datasets; a blank name for directly-built worlds).
    The event schedule is also booked into the merged registry at the
    merge barrier (``scenario_events_total{kind}``), and scans run with
    an explicit registry additionally book per-server suppressions
    (``scan_servers_total{outcome=withdrawn|scan_outage}``) — both are
    echoed here.  Like ``store``/``ingest``/``signals``, the section is
    not in ``_REQUIRED_KEYS`` and not in the deterministic view, so
    event-free reports stay comparable with pre-scenario baselines.
    """
    outcomes = registry.counters_by_label("scan_servers_total", "outcome")
    return {
        "name": meta.get("name", ""),
        "seed": meta.get("seed"),
        "scale": meta.get("scale"),
        "events": list(meta.get("events", ())),
        "event_counts": registry.counters_by_label("scenario_events_total", "kind"),
        "withdrawn_as_snapshots": meta.get("withdrawn_as_snapshots", 0),
        "scan_suppressions": {
            "withdrawn": outcomes.get("withdrawn", 0),
            "scan_outage": outcomes.get("scan_outage", 0),
        },
    }


def _cache_section(registry: MetricsRegistry) -> dict:
    def events(cache: str, event: str) -> int:
        return registry.counter_value(
            "validation_cache_events", cache=cache, event=event
        )

    section = {
        "static_hits": events("static", "hit"),
        "static_misses": events("static", "miss"),
        "window_hits": events("window", "hit"),
        "window_misses": events("window", "miss"),
    }
    hits = section["static_hits"] + section["window_hits"]
    total = hits + section["static_misses"] + section["window_misses"]
    section["hit_rate"] = hits / total if total else 0.0
    return section


def _stage_cache_section(registry: MetricsRegistry) -> dict:
    """Stage-artifact cache traffic, total and per stage.

    Like ``store``, this section is environmental (a warm run hits where
    a cold one misses) — not in ``_REQUIRED_KEYS`` and not in the
    deterministic view, so cached and uncached reports compare equal.
    """
    per_stage: dict[str, dict[str, int]] = {}
    for labels, value in registry.counter_items("stage_cache_events"):
        stage = labels.get("stage", "?")
        event = labels.get("event", "?")
        per_stage.setdefault(stage, {"hit": 0, "miss": 0, "store": 0})[event] = value
    totals = {
        event: sum(stage.get(event, 0) for stage in per_stage.values())
        for event in ("hit", "miss", "store")
    }
    lookups = totals["hit"] + totals["miss"]
    return {
        "hits": totals["hit"],
        "misses": totals["miss"],
        "stores": totals["store"],
        "hit_rate": totals["hit"] / lookups if lookups else 0.0,
        "stages": {stage: per_stage[stage] for stage in sorted(per_stage)},
    }


def deterministic_view(report: dict) -> dict:
    """The subset of a report that must be byte-identical across
    executors: everything counted, nothing timed.

    Stage timings, cache hit patterns (which depend on how snapshots are
    distributed over worker processes), executor metadata and the raw
    metrics dump (which embeds the timing histograms) are all excluded.
    """
    return {
        "schema": report["schema"],
        "corpus": report["corpus"],
        "snapshots": report["snapshots"],
        "options": report["options"],
        "funnel": report["funnel"],
    }


def validate_report(report: dict) -> list[str]:
    """Structural schema check; returns problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(report, dict):
        return [f"report must be a JSON object, got {type(report).__name__}"]
    for key in _REQUIRED_KEYS:
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems
    if report["schema"] != SCHEMA_VERSION:
        problems.append(
            f"schema {report['schema']!r} != expected {SCHEMA_VERSION!r}"
        )
    if not isinstance(report["snapshots"], list):
        problems.append("snapshots must be a list of YYYY-MM labels")
    funnel = report["funnel"]
    if not isinstance(funnel, dict):
        problems.append("funnel must be an object keyed by snapshot label")
    else:
        missing = [s for s in report["snapshots"] if s not in funnel]
        if missing:
            problems.append(f"funnel missing snapshots: {', '.join(missing)}")
        for label, entry in funnel.items():
            for name in _SNAPSHOT_COUNTERS:
                if not isinstance(entry.get(name), int):
                    problems.append(f"funnel[{label}].{name} must be an integer")
            for hg, columns in entry.get("hypergiants", {}).items():
                for name in _HG_COUNTERS:
                    if not isinstance(columns.get(name), int):
                        problems.append(
                            f"funnel[{label}].hypergiants[{hg}].{name} "
                            "must be an integer"
                        )
    stages = report["stages"]
    if not isinstance(stages, dict):
        problems.append("stages must be an object keyed by stage name")
    else:
        for stage, entry in stages.items():
            if not isinstance(entry, dict) or "seconds" not in entry:
                problems.append(f"stages[{stage}] must carry 'seconds'")
    return problems


def write_report(report: dict, path: str | Path) -> Path:
    """Write a report as deterministic, human-diffable JSON."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path) -> dict:
    """Read a report back (no validation; use :func:`validate_report`)."""
    return json.loads(Path(path).read_text())
