"""Shard planning: contiguous snapshot groups for the parallel executor.

A *shard* is a contiguous group of snapshots, in snapshot order, that
one forked worker ingests and runs end to end.  The executor submits
one pool task per shard, so pickle and scheduling overhead amortize
over the shard, and a worker loads only its own shard's corpus files,
holding one snapshot's store at a time as every run does.

Planning is **cost-balanced**: per-snapshot ingest costs come from
:func:`~repro.datasets.formats.probe_corpus_cost` (for ``.rcc`` corpuses
that is a block-header-only scan that never reads a payload byte), and
:func:`plan_shards` cuts the snapshot sequence into one contiguous run
per worker, each of near-equal total cost.  Because shards are an
execution detail, nothing about them may reach cache keys or the
deterministic report view — the merge barrier flattens shard outcomes
back into snapshot order, and the test suite asserts bit-identical
results for every shard geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.timeline import Snapshot

__all__ = ["Shard", "ShardPlan", "plan_shards"]


@dataclass(frozen=True, slots=True)
class Shard:
    """One contiguous group of snapshots assigned to one worker task."""

    #: Position in the plan (shard 0 holds the earliest snapshots); the
    #: merge barrier concatenates outcomes in this order.
    index: int
    #: The snapshots this shard's worker runs, in snapshot order.
    snapshots: tuple[Snapshot, ...]
    #: Estimated total ingest cost (probe units: row-payload bytes for
    #: ``.rcc``, file bytes for JSONL, 1.0 per snapshot when unprobeable).
    cost: float = 0.0

    def __len__(self) -> int:
        """The number of snapshots in the shard."""
        return len(self.snapshots)


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """The full, ordered partition of a run's snapshots into shards."""

    shards: tuple[Shard, ...]

    def snapshots(self) -> tuple[Snapshot, ...]:
        """Every planned snapshot, flattened back into run order."""
        return tuple(s for shard in self.shards for s in shard.snapshots)

    def describe(self) -> list[dict]:
        """JSON-safe plan metadata for the run report's ``executor``
        section (environmental — never part of the deterministic view)."""
        return [
            {
                "shard": shard.index,
                "snapshots": [s.label for s in shard.snapshots],
                "cost": round(shard.cost, 3),
            }
            for shard in self.shards
        ]


def plan_shards(
    snapshots: Sequence[Snapshot],
    costs: Sequence[float] | None = None,
    *,
    jobs: int,
) -> ShardPlan:
    """Partition ``snapshots`` into ``min(jobs, len(snapshots))``
    contiguous shards of near-equal total ``costs``.

    The cut is the greedy linear partition: each cut lands where the
    accumulated cost reaches the remaining average, so a corpus whose
    late snapshots are much larger (Fig. 2 growth) still balances.

    ``costs`` defaults to uniform (1.0 per snapshot).  The plan is a pure
    function of its inputs — identical inputs give identical shards, a
    property the determinism tests rely on.
    """
    if jobs < 1:
        raise ValueError(f"plan_shards needs jobs >= 1, got {jobs}")
    snapshots = tuple(snapshots)
    if costs is None:
        costs = [1.0] * len(snapshots)
    elif len(costs) != len(snapshots):
        raise ValueError(
            f"got {len(costs)} costs for {len(snapshots)} snapshots"
        )
    if not snapshots:
        return ShardPlan(shards=())

    cuts: list[tuple[int, int]] = []
    pieces = min(jobs, len(snapshots))
    start = 0
    remaining_cost = float(sum(costs))
    for piece in range(pieces):
        remaining_pieces = pieces - piece
        if remaining_pieces == 1:
            cuts.append((start, len(snapshots)))
            break
        # Leave at least one snapshot for every shard still to come.
        last_start = len(snapshots) - (remaining_pieces - 1)
        target = remaining_cost / remaining_pieces
        end, accumulated = start, 0.0
        while end < last_start:
            accumulated += costs[end]
            end += 1
            if accumulated >= target:
                break
        # Cutting just before a heavy snapshot can balance better than
        # cutting just after it; take whichever lands closer to the
        # target (the shard must keep at least one snapshot).
        if end - start > 1 and accumulated - target > target - (
            accumulated - costs[end - 1]
        ):
            end -= 1
            accumulated -= costs[end]
        cuts.append((start, end))
        remaining_cost -= accumulated
        start = end

    return ShardPlan(
        shards=tuple(
            Shard(
                index=index,
                snapshots=snapshots[start:end],
                cost=float(sum(costs[start:end])),
            )
            for index, (start, end) in enumerate(cuts)
        )
    )
