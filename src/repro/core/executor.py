"""Snapshot execution: serial, or sharded over forked worker processes.

The longitudinal pipeline factors into a *pure* per-snapshot phase
(:meth:`~repro.core.pipeline.OffnetPipeline.run_snapshot`, returning a
picklable :class:`~repro.core.footprint.SnapshotOutcome`) and a cheap
ordered merge (:meth:`~repro.core.pipeline.OffnetPipeline.merge_outcomes`).
``PipelineOptions.jobs`` decides how the pure phase is mapped over the
snapshots (:func:`make_executor`):

* :class:`SerialExecutor` — one snapshot after another in the calling
  process (``jobs=1``, the default);
* :class:`ParallelExecutor` — a ``fork``-based
  :class:`concurrent.futures.ProcessPoolExecutor` over **shards**:
  contiguous, cost-balanced snapshot groups planned by
  :meth:`~repro.core.pipeline.OffnetPipeline.shard_plan`, one per
  worker.  One pool task per shard (not per snapshot) amortizes
  submission and pickle overhead, and a worker ingests only its own
  shard's corpus files.

Before forking, the parent drops what workers must not inherit
(:meth:`~repro.core.pipeline.OffnetPipeline.trim_for_fork` — e.g. the
§4.4 learning snapshot's store a file-backed source still holds, which
would otherwise be copy-on-write duplicated into every child).  Each
worker returns only its outcomes and a small stats fragment (peak RSS,
snapshot count) that surfaces in :meth:`ParallelExecutor.describe`.  The
stage artifacts a worker computes outlive it only on a ``--cache-dir``
run, in the disk tier every worker shares; its memory tier dies with it.

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
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
]

#: The pipeline forked workers inherit (set in the parent immediately
#: before the pool is created; ``fork`` snapshots it copy-on-write).
_worker_pipeline: "OffnetPipeline | None" = None


def _run_shard_job(shard: Shard) -> tuple[list[SnapshotOutcome], dict]:
    """Module-level worker entry point (must be picklable by reference).

    Runs every snapshot of one shard in order and returns the outcomes
    plus a per-worker stats fragment (peak RSS via ``ru_maxrss``, KB on
    Linux).
    """
    assert _worker_pipeline is not None, "worker forked without a pipeline"
    outcomes = _worker_pipeline.run_shard(shard)
    stats = {
        "shard": shard.index,
        "snapshots": len(shard.snapshots),
        "pid": os.getpid(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    return outcomes, stats


class SerialExecutor:
    """Run every snapshot in the calling process, in order."""

    def map_snapshots(
        self, pipeline: "OffnetPipeline", snapshots: Sequence[Snapshot]
    ) -> list[SnapshotOutcome]:
        """Run :meth:`~repro.core.pipeline.OffnetPipeline.run_snapshot`
        inline for each snapshot."""
        return [pipeline.run_snapshot(snapshot) for snapshot in snapshots]

    def describe(self) -> dict:
        """The run report's ``executor`` section: serial execution is
        always one in-process worker."""
        return {
            "kind": "serial",
            "jobs": 1,
            "workers": 1,
            "fallback_serial": False,
            "cpu_count": os.cpu_count() or 1,
        }


class ParallelExecutor:
    """Fan shards of the pure phase out to ``jobs`` forked workers."""

    def __init__(self, jobs: int) -> None:
        if jobs < 2:
            raise ValueError(f"ParallelExecutor needs jobs >= 2, got {jobs}")
        self.jobs = jobs
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
        for fewer than two snapshots or when ``fork`` is unavailable.

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
        plan = pipeline.shard_plan(snapshots, jobs=self.jobs)
        self.last_plan = plan.describe()
        self.last_shards = len(plan.shards)
        # Drop parent state workers must not duplicate (a held store);
        # everything else crosses the fork boundary copy-on-write.
        pipeline.trim_for_fork()
        global _worker_pipeline
        _worker_pipeline = pipeline
        try:
            context = multiprocessing.get_context("fork")
            self.last_workers, self.last_fallback = self.last_shards, False
            with ProcessPoolExecutor(
                max_workers=self.last_shards, mp_context=context
            ) as pool:
                outcomes: list[SnapshotOutcome] = []
                for shard_outcomes, stats in pool.map(_run_shard_job, plan.shards):
                    self.last_worker_stats.append(stats)
                    outcomes.extend(shard_outcomes)
                return outcomes
        finally:
            _worker_pipeline = None

    def describe(self) -> dict:
        """The run report's ``executor`` section: requested jobs plus
        what the last map actually did (workers used, fallback status,
        the shard plan and per-worker stats).  All of it is
        environmental metadata, safe to vary across runs and never part
        of the deterministic view."""
        return {
            "kind": "parallel",
            "jobs": self.jobs,
            "workers": self.last_workers,
            "fallback_serial": self.last_fallback,
            "shards": self.last_shards,
            "shard_plan": self.last_plan,
            "worker_stats": self.last_worker_stats,
            "cpu_count": os.cpu_count() or 1,
        }


def make_executor(jobs: int) -> SerialExecutor | ParallelExecutor:
    """The executor for a ``PipelineOptions(jobs=...)`` setting.

    ``jobs=0`` auto-sizes to one worker per core this process may run on
    (its CPU affinity mask where the platform has one, so ``taskset``
    limits it, else ``os.cpu_count()``); ``jobs=1`` is serial;
    ``jobs=N`` forks up to N workers, one per shard of a cost-balanced
    plan.
    """
    if jobs < 0:
        raise ValueError(
            f"jobs must be >= 0, got {jobs} (0 = one worker per CPU core)"
        )
    if jobs == 0:
        if hasattr(os, "sched_getaffinity"):
            jobs = len(os.sched_getaffinity(0))
        else:
            jobs = os.cpu_count() or 1
    if jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs)
