"""Stage-scoped timing spans over a :class:`~repro.obs.metrics.MetricsRegistry`.

One idiom replaces every scattered ``tick = perf_counter()`` pair in the
pipeline::

    with stage_timer(registry, "validate"):
        records, stats = validator.validate_snapshot(scan)

Each span records its wall-clock seconds into the ``stage_seconds``
histogram labelled with the stage name (count = invocations, sum = total
seconds), which is exactly the shape the run report's per-stage table
consumes.  Timings are inherently non-deterministic, so they live in
histograms the report keeps *outside* its deterministic view — see
:mod:`repro.obs.report`.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from repro.obs.metrics import MetricsRegistry

__all__ = ["STAGE_SECONDS", "stage_timer", "Stopwatch"]

#: The histogram name every stage span observes into.
STAGE_SECONDS = "stage_seconds"


@contextmanager
def stage_timer(
    registry: MetricsRegistry | None, stage: str, **labels: str
) -> Iterator[None]:
    """Time a ``with`` block into ``stage_seconds{stage=...}``.

    A ``None`` registry degrades to a no-op so call sites never need a
    conditional — standalone use of the stage functions stays unmetered.
    """
    if registry is None:
        yield
        return
    start = perf_counter()
    try:
        yield
    finally:
        registry.histogram(STAGE_SECONDS, stage=stage, **labels).observe(
            perf_counter() - start
        )


class Stopwatch:
    """An explicit start/lap timer for call sites a ``with`` block cannot
    wrap cleanly (e.g. timing successive phases of one loop)."""

    def __init__(self, registry: MetricsRegistry | None) -> None:
        self._registry = registry
        self._last = perf_counter()

    def lap(self, stage: str, **labels: str) -> float:
        """Record the time since construction/previous lap as ``stage``."""
        now = perf_counter()
        elapsed = now - self._last
        self._last = now
        if self._registry is not None:
            self._registry.histogram(STAGE_SECONDS, stage=stage, **labels).observe(
                elapsed
            )
        return elapsed
