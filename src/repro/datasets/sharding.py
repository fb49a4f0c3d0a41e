"""Shard planning: disjoint snapshot groups for the parallel executor.

The parallel path used to fan out one pool task *per snapshot*: 31 tasks
for a full run, each paying a pickle round-trip for its outcome, with
every forked worker inheriting the parent's whole warm corpus state by
copy-on-write.  At small per-snapshot cost the overhead dominated: a
full run once measured ``jobs=4`` at 0.67x serial.

A *shard* is the fix: a contiguous group of snapshots, in snapshot
order, that one worker task ingests and runs end to end.  The executor
submits one task per shard, so the pickle/scheduling overhead amortizes
over the shard, and a worker only ever loads the corpus files of its own
shard, holding one snapshot's store at a time as every run does.

Planning is **cost-balanced**: per-snapshot ingest costs come from
:func:`~repro.datasets.formats.probe_corpus_cost` (for ``.rcc`` corpuses
that is a block-header-only scan that never reads a payload byte), and
:func:`plan_shards` cuts the snapshot sequence into contiguous runs of
near-equal total cost.  Because shards are an execution detail, nothing
about them may reach cache keys or the deterministic report view — the
merge barrier flattens shard outcomes back into snapshot order, and the
test suite asserts bit-identical results for every shard geometry.

:func:`partition_store` / :func:`merge_stores` are the row-level
verification helpers behind the shard-merge property test: *any*
partition of a snapshot's rows, re-ingested piecewise and merged via
:meth:`~repro.store.SnapshotStore.extend`, must land in a store of the
same shape (same row counts, same unique-chain and intern-table sizes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.store import SnapshotStore
from repro.timeline import Snapshot

__all__ = [
    "Shard",
    "ShardPlan",
    "merge_stores",
    "partition_store",
    "plan_shards",
]


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
        """Snapshot count (shards are sized in snapshots, not bytes)."""
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
    shard_size: int | None = None,
) -> ShardPlan:
    """Partition ``snapshots`` into contiguous shards for ``jobs`` workers.

    With ``shard_size`` set, snapshots are chunked into fixed groups of at
    most that many (the CLI's ``--shard-size``, for explicit control over
    task granularity).  Otherwise the sequence is cut into at most
    ``jobs`` contiguous groups of near-equal total ``costs`` — the greedy
    linear partition: each cut lands where the accumulated cost reaches
    the remaining average, so a corpus whose late snapshots are much
    larger (Fig. 2 growth) still balances.

    ``costs`` defaults to uniform (1.0 per snapshot).  The plan is a pure
    function of its inputs — identical inputs give identical shards, a
    property the determinism tests rely on.
    """
    if jobs < 1:
        raise ValueError(f"plan_shards needs jobs >= 1, got {jobs}")
    if shard_size is not None and shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
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
    if shard_size is not None:
        cuts = [
            (start, min(start + shard_size, len(snapshots)))
            for start in range(0, len(snapshots), shard_size)
        ]
    else:
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
            # Cutting just before a heavy snapshot can balance better
            # than cutting just after it; take whichever lands closer
            # to the target (the shard must keep at least one snapshot).
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


def partition_store(store: SnapshotStore, pieces: int) -> list[SnapshotStore]:
    """Split a store's rows into ``pieces`` contiguous sub-stores.

    Each piece re-interns only the chains/headers its own rows reference
    — exactly what a shard worker holds for its slice of a corpus.  The
    shard-merge property test feeds the pieces back through
    :func:`merge_stores` and asserts the shape is unchanged.
    """
    if pieces < 1:
        raise ValueError(f"partition_store needs pieces >= 1, got {pieces}")

    def bounds(count: int) -> list[tuple[int, int]]:
        base, extra = divmod(count, pieces)
        edges, start = [], 0
        for piece in range(pieces):
            size = base + (1 if piece < extra else 0)
            edges.append((start, start + size))
            start += size
        return edges

    parts: list[SnapshotStore] = []
    for (tls_start, tls_end), (http_start, http_end) in zip(
        bounds(store.tls_row_count), bounds(store.http_row_count)
    ):
        part = SnapshotStore()
        for row in range(tls_start, tls_end):
            part.add_tls(
                store.tls_ip[row],
                store.chains[store.tls_chain[row]],
                store.stack_table[store.tls_stack[row]],
            )
        for row in range(http_start, http_end):
            part.add_http(
                store.http_ip[row],
                store.http_port[row],
                store.header_table[store.http_header[row]],
            )
        parts.append(part)
    return parts


def merge_stores(parts: Sequence[SnapshotStore]) -> SnapshotStore:
    """Fold sub-stores into one, re-interning across the pieces — the
    row-level analogue of the executor's ordered merge barrier."""
    merged = SnapshotStore()
    for part in parts:
        merged.extend(part)
    return merged
