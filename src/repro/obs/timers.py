"""Stage-scoped timing over a :class:`~repro.obs.metrics.MetricsRegistry`.

Every stage second lands in the ``stage_seconds`` histogram labelled with
the stage name (count = invocations, sum = total seconds), which is
exactly the shape the run report's per-stage table consumes.  The stage
scheduler (:meth:`repro.core.stages.base.StageGraph.execute`) books each
stage's self time there; work outside the stage graph laps a
:class:`Stopwatch`::

    watch = Stopwatch(metrics)
    ...  # fold the per-snapshot outcomes
    watch.lap("merge")

Timings are inherently non-deterministic, so they live in histograms the
report keeps *outside* its deterministic view — see
:mod:`repro.obs.report`.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs.metrics import MetricsRegistry

__all__ = ["STAGE_SECONDS", "Stopwatch"]

#: The histogram name every stage span observes into.
STAGE_SECONDS = "stage_seconds"


class Stopwatch:
    """A start/lap timer: each lap books the seconds since the previous
    one (or construction) as one stage."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._last = perf_counter()

    def lap(self, stage: str, **labels: str) -> float:
        """Record the time since construction/previous lap as ``stage``."""
        now = perf_counter()
        elapsed = now - self._last
        self._last = now
        self._registry.histogram(STAGE_SECONDS, stage=stage, **labels).observe(elapsed)
        return elapsed
