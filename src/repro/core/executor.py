"""Snapshot execution strategies: serial and sharded multi-process parallel.

The longitudinal pipeline factors into a *pure* per-snapshot phase
(:meth:`~repro.core.pipeline.OffnetPipeline.run_snapshot`, returning a
picklable :class:`~repro.core.footprint.SnapshotOutcome`) and a cheap
ordered merge (:meth:`~repro.core.pipeline.OffnetPipeline.merge_outcomes`).
A :class:`SnapshotExecutor` decides how the pure phase is mapped over the
snapshots:

* :class:`SerialExecutor` — one snapshot after another in the calling
  process (``jobs=1``, the default);
* :class:`ParallelExecutor` — a ``fork``-based
  :class:`concurrent.futures.ProcessPoolExecutor` over **shards**:
  contiguous, cost-balanced snapshot groups planned by
  :meth:`~repro.core.pipeline.OffnetPipeline.shard_plan`.  One pool task
  per shard (not per snapshot) amortizes submission and pickle overhead,
  and a worker ingests only its own shard's corpus files.

Before forking, the parent drops what workers must not inherit
(:meth:`~repro.core.pipeline.OffnetPipeline.trim_for_fork` — e.g. the
§4.4 learning snapshot's store a file-backed source still holds, which
would otherwise be copy-on-write duplicated into every child); each
worker then ships home only *light* cargo: picklable outcomes, light
stage artifacts for the parent's cache
(:meth:`~repro.core.pipeline.OffnetPipeline.seed_artifacts`),
and a small stats fragment (peak RSS, snapshot count) that surfaces in
:meth:`ParallelExecutor.describe`.  Heavy per-row artifacts (the §4.2
match rows) never ride the pickle channel — workers of a shared
``--cache-dir`` run exchange those through the atomic on-disk tier
instead, and the §4.1 validated-record list is recomputed, never
stored.  A worker of a ``--cache-dir`` run has already written every
artifact it ships to that shared disk tier, so the parent adopts the
shipped copies into its memory tier only.

Because shards partition the snapshots *in order* and the merge is an
explicit ordered reduction over the flattened outcomes, both executors
produce bit-identical :class:`~repro.core.footprint.PipelineResult`
objects for every shard geometry — a property the test suite asserts.

``fork`` keeps the synthetic world out of pickle entirely; on platforms
without it (or for single-snapshot runs) :class:`ParallelExecutor` falls
back to serial execution rather than failing.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Sequence

from repro.core.footprint import SnapshotOutcome
from repro.datasets.sharding import Shard
from repro.timeline import Snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import OffnetPipeline

__all__ = [
    "SnapshotExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
]

#: The pipeline forked workers inherit (set in the parent immediately
#: before the pool is created; ``fork`` snapshots it copy-on-write).
_worker_pipeline: "OffnetPipeline | None" = None


def _run_shard_job(shard: Shard) -> tuple[list[SnapshotOutcome], list, dict]:
    """Module-level worker entry point (must be picklable by reference).

    Runs every snapshot of one shard in order and returns the outcomes,
    the light stage artifacts this worker computed (for the parent to
    seed its cache with — cache hits ship across the fork boundary
    instead of dying with the worker), and a per-worker stats fragment
    for the scaling bench (peak RSS via ``ru_maxrss``, KB on Linux).
    """
    assert _worker_pipeline is not None, "worker forked without a pipeline"
    outcomes, shipped = _worker_pipeline.run_shard(shard)
    stats = {
        "shard": shard.index,
        "snapshots": len(shard.snapshots),
        "pid": os.getpid(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    return outcomes, shipped, stats


class SnapshotExecutor:
    """Strategy interface: map the pure phase over many snapshots."""

    def map_snapshots(
        self, pipeline: "OffnetPipeline", snapshots: Sequence[Snapshot]
    ) -> list[SnapshotOutcome]:
        """One :class:`SnapshotOutcome` per snapshot, in input order."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Executor metadata for the run report's ``executor`` section.

        Reflects the *last* :meth:`map_snapshots` call, so a parallel
        executor that fell back to serial execution says so.  This
        section is environmental, never part of the deterministic view.
        """
        raise NotImplementedError


class SerialExecutor(SnapshotExecutor):
    """Run every snapshot in the calling process, in order."""

    def map_snapshots(
        self, pipeline: "OffnetPipeline", snapshots: Sequence[Snapshot]
    ) -> list[SnapshotOutcome]:
        """Run :meth:`~repro.core.pipeline.OffnetPipeline.run_snapshot`
        inline for each snapshot."""
        return [pipeline.run_snapshot(snapshot) for snapshot in snapshots]

    def describe(self) -> dict:
        """Serial execution is always one in-process worker."""
        return {
            "kind": "serial",
            "jobs": 1,
            "workers": 1,
            "fallback_serial": False,
            "cpu_count": os.cpu_count() or 1,
        }


class ParallelExecutor(SnapshotExecutor):
    """Fan shards of the pure phase out to ``jobs`` forked workers."""

    def __init__(self, jobs: int, shard_size: int | None = None) -> None:
        if jobs < 2:
            raise ValueError(f"ParallelExecutor needs jobs >= 2, got {jobs}")
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.jobs = jobs
        #: Fixed snapshots-per-shard override (the CLI's ``--shard-size``);
        #: ``None`` lets the plan cost-balance into ``jobs`` shards.
        self.shard_size = shard_size
        #: Workers the last map actually used (0 before the first map).
        self.last_workers = 0
        #: Whether the last map fell back to in-process serial execution.
        self.last_fallback = False
        #: Shards the last map submitted (0 when it fell back).
        self.last_shards = 0
        #: The last map's shard plan (``ShardPlan.describe()`` rows).
        self.last_plan: list[dict] = []
        #: One stats fragment per completed worker task (peak RSS etc.).
        self.last_worker_stats: list[dict] = []

    def map_snapshots(
        self, pipeline: "OffnetPipeline", snapshots: Sequence[Snapshot]
    ) -> list[SnapshotOutcome]:
        """Map the pure phase over a forked process pool, one task per
        planned shard, preserving snapshot order; falls back to serial
        for trivial inputs or when ``fork`` is unavailable.

        Worker outcomes carry their own per-snapshot metrics registries
        home through pickling; the pipeline folds them at the
        ``merge_outcomes`` barrier in snapshot order.  Shards partition
        the snapshots contiguously in that same order, so flattening
        shard results shard-by-shard *is* snapshot order — which is what
        makes ``jobs=N`` run reports count-identical to ``jobs=1`` ones
        at any shard geometry.
        """
        self.last_shards, self.last_plan, self.last_worker_stats = 0, [], []
        if len(snapshots) < 2 or "fork" not in multiprocessing.get_all_start_methods():
            self.last_workers, self.last_fallback = 1, True
            return SerialExecutor().map_snapshots(pipeline, snapshots)
        plan = pipeline.shard_plan(
            snapshots, jobs=self.jobs, shard_size=self.shard_size
        )
        if len(plan.shards) < 2:
            # One shard would be serial work plus fork overhead.
            self.last_workers, self.last_fallback = 1, True
            return SerialExecutor().map_snapshots(pipeline, snapshots)
        self.last_plan = plan.describe()
        self.last_shards = len(plan.shards)
        # Drop parent state workers must not duplicate (a held store);
        # everything else crosses the fork boundary copy-on-write.
        pipeline.trim_for_fork()
        global _worker_pipeline
        _worker_pipeline = pipeline
        try:
            context = multiprocessing.get_context("fork")
            workers = min(self.jobs, len(plan.shards))
            self.last_workers, self.last_fallback = workers, False
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                outcomes: list[SnapshotOutcome] = []
                for shard_outcomes, shipped, stats in pool.map(
                    _run_shard_job, plan.shards
                ):
                    # Adopt the worker's light artifacts: a later run in
                    # this process (an ablation flip, a warm re-run) hits
                    # them instead of recomputing.
                    pipeline.seed_artifacts(shipped)
                    self.last_worker_stats.append(stats)
                    outcomes.extend(shard_outcomes)
                return outcomes
        finally:
            _worker_pipeline = None

    def describe(self) -> dict:
        """Requested jobs plus what the last map actually did: workers
        used, fallback status, the shard plan and per-worker stats —
        all environmental metadata, safe to vary across runs."""
        return {
            "kind": "parallel",
            "jobs": self.jobs,
            "shard_size": self.shard_size,
            "workers": self.last_workers,
            "fallback_serial": self.last_fallback,
            "shards": self.last_shards,
            "shard_plan": self.last_plan,
            "worker_stats": self.last_worker_stats,
            "cpu_count": os.cpu_count() or 1,
        }


def make_executor(jobs: int, shard_size: int | None = None) -> SnapshotExecutor:
    """The executor for a ``PipelineOptions(jobs=..., shard_size=...)``
    setting.

    ``jobs=0`` auto-sizes to one worker per CPU core (``os.cpu_count()``);
    ``jobs=1`` is serial; ``jobs=N`` forks N workers over a cost-balanced
    shard plan (``shard_size`` fixes snapshots-per-shard instead).
    """
    if jobs < 0:
        raise ValueError(
            f"jobs must be >= 0, got {jobs} (0 = one worker per CPU core)"
        )
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs, shard_size)
