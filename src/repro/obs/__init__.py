"""Pipeline observability: metrics primitives, stage timings, run reports.

The subsystem has three deliberately small layers:

* :mod:`repro.obs.metrics` — counter/gauge/histogram primitives behind a
  process-local :class:`MetricsRegistry` with a deterministic merge and
  byte-stable JSON serialisation (no dependencies, picklable);
* :mod:`repro.obs.timers` — the ``stage_seconds`` histogram every stage
  timing feeds, and the :class:`Stopwatch` that laps into it;
* :mod:`repro.obs.report` — the versioned JSON run report
  (``repro.run-report/1``) every pipeline run can emit, and its
  deterministic view ``tools/check_report.py`` compares across executors.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import (
    SCHEMA_VERSION,
    build_report,
    deterministic_view,
    load_report,
    validate_report,
    write_report,
)
from repro.obs.timers import STAGE_SECONDS, Stopwatch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SCHEMA_VERSION",
    "STAGE_SECONDS",
    "Stopwatch",
    "build_report",
    "deterministic_view",
    "load_report",
    "validate_report",
    "write_report",
]
