"""The persistent footprint index — footprints as a queryable store.

The batch pipeline's output is a single in-memory
:class:`~repro.core.footprint.PipelineResult`.  That is the wrong shape
for a long-running service: it exists only for the duration of one run,
and rebuilding it means re-running every snapshot.  This module keeps the
per-snapshot footprint data in a durable store instead.  One query
surface, :class:`~repro.core.footprint.FootprintIndex` (re-exported
here), has two implementations:

* ``PipelineResult`` — the batch result, queried as-is;
* :class:`IndexView` — an immutable committed view of a
  :class:`DurableFootprintIndex`.

:class:`DurableFootprintIndex` is the store: an on-disk, per-snapshot
record under a *state directory*, updated incrementally.  Each
snapshot's pure outcome (:class:`~repro.core.footprint.SnapshotOutcome`)
is folded in under a content-addressed token, and
:meth:`~DurableFootprintIndex.commit` recomputes the one piece of
cross-snapshot state (the §6.2 Netflix restoration,
:func:`~repro.core.netflix.restore_http_only`) over the ordered
timeline and publishes a new view.  Because the restoration fold runs at
commit time, snapshots may arrive in **any order** — shuffled
incremental ingestion produces a view bit-identical to a from-scratch
batch run, a property the test suite asserts.

Analysis modules import their query surface from here (never from
``PipelineResult`` internals — a lint test enforces it), so every
analysis runs identically against a live batch result, a cold-loaded
index, or a daemon's incrementally-maintained one.

On-disk layout of a state directory::

    state/
      index.json                              # manifest: format, corpus, {label -> token}
      snapshots/2019-10-<sha256(token)[:16]>.json  # one outcome payload per snapshot

All writes are atomic (temp file + ``os.replace``), and JSON payloads
serialize sets as sorted lists, so identical data produces identical
bytes.  A payload is named by its snapshot *and* its token, so a re-fold
under a new token writes a new file beside the committed one; only the
commit whose manifest names the new token sweeps the files it no longer
lists (superseded, removed or left by an older layout).  A kill at any
point therefore reopens at the last commit, and a manifest entry whose
payload is missing, unreadable or carries another token reads as absent
— the delta ingestor re-ingests that snapshot instead of failing.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Mapping

from repro.core.footprint import FootprintIndex, FootprintSnapshot, SnapshotOutcome
from repro.core.netflix import restore_http_only
from repro.core.validation import ValidationStats
from repro.timeline import Snapshot, ordered_snapshots

__all__ = [
    "INDEX_FORMAT",
    "FootprintIndex",
    "IndexView",
    "DurableFootprintIndex",
]

#: Version tag written into every manifest and payload file; bump on any
#: incompatible layout change so stale state directories fail loudly.
INDEX_FORMAT = "repro.footprint-index/1"


class IndexView(FootprintIndex):
    """An immutable point-in-time view over a footprint mapping.

    :class:`DurableFootprintIndex` publishes one of these per commit;
    because a view never mutates, a reader thread that grabbed it keeps a
    consistent timeline no matter how many ingests land afterwards.
    """

    __slots__ = ("_corpus", "_snapshots", "_by_snapshot")

    def __init__(
        self,
        corpus: str,
        snapshots: tuple[Snapshot, ...],
        by_snapshot: Mapping[Snapshot, FootprintSnapshot],
    ) -> None:
        self._corpus = corpus
        self._snapshots = snapshots
        self._by_snapshot = dict(by_snapshot)

    @property
    def corpus(self) -> str:
        """The corpus this view indexes."""
        return self._corpus

    @property
    def snapshots(self) -> tuple[Snapshot, ...]:
        """The view's snapshot timeline, in order."""
        return self._snapshots

    def at(self, snapshot: Snapshot) -> FootprintSnapshot:
        """The footprint snapshot for one date."""
        return self._by_snapshot[snapshot]


# -- serialization ------------------------------------------------------------


def _sets_to_json(table: Mapping[str, frozenset[int]]) -> dict[str, list[int]]:
    return {key: sorted(values) for key, values in sorted(table.items())}


def _sets_from_json(payload: Mapping[str, list[int]]) -> dict[str, frozenset[int]]:
    return {key: frozenset(values) for key, values in payload.items()}


def _outcome_to_payload(outcome: SnapshotOutcome, token: str) -> dict:
    """One snapshot's pure outcome as a JSON-safe payload.

    ``netflix_restored_ases`` is deliberately **not** persisted: it is
    cross-snapshot state, recomputed by the commit-time restoration fold
    (which is what makes shuffled incremental ingestion order-independent).
    """
    footprint = outcome.footprint
    return {
        "format": INDEX_FORMAT,
        "snapshot": footprint.snapshot.label,
        "token": token,
        "footprint": {
            "raw_ip_count": footprint.raw_ip_count,
            "raw_certificate_count": footprint.raw_certificate_count,
            "validation": {
                "total": footprint.validation.total,
                "valid": footprint.validation.valid,
                "expired_only": footprint.validation.expired_only,
                "rejected": footprint.validation.rejected,
            },
            "candidate_ips": _sets_to_json(footprint.candidate_ips),
            "candidate_ases": _sets_to_json(footprint.candidate_ases),
            "confirmed_ips": _sets_to_json(footprint.confirmed_ips),
            "confirmed_ases": _sets_to_json(footprint.confirmed_ases),
            "confirmed_and_ases": _sets_to_json(footprint.confirmed_and_ases),
            "onnet_ips": _sets_to_json(footprint.onnet_ips),
            "cloudflare_filtered_ases": sorted(footprint.cloudflare_filtered_ases),
            "netflix_with_expired_ases": sorted(footprint.netflix_with_expired_ases),
        },
        "netflix_seen": sorted(outcome.netflix_seen),
        "restorable": {
            str(ip): sorted(ases) for ip, ases in sorted(outcome.restorable.items())
        },
    }


def _outcome_from_payload(payload: Mapping) -> SnapshotOutcome:
    """Rebuild a pure outcome from its payload (restoration left empty)."""
    if payload.get("format") != INDEX_FORMAT:
        raise ValueError(
            f"unsupported footprint-index payload format {payload.get('format')!r} "
            f"(this build reads {INDEX_FORMAT!r})"
        )
    data = payload["footprint"]
    footprint = FootprintSnapshot(
        snapshot=Snapshot.parse(payload["snapshot"]),
        raw_ip_count=data["raw_ip_count"],
        raw_certificate_count=data["raw_certificate_count"],
        validation=ValidationStats(**data["validation"]),
        candidate_ips=_sets_from_json(data["candidate_ips"]),
        candidate_ases=_sets_from_json(data["candidate_ases"]),
        confirmed_ips=_sets_from_json(data["confirmed_ips"]),
        confirmed_ases=_sets_from_json(data["confirmed_ases"]),
        confirmed_and_ases=_sets_from_json(data["confirmed_and_ases"]),
        onnet_ips=_sets_from_json(data["onnet_ips"]),
        cloudflare_filtered_ases=frozenset(data["cloudflare_filtered_ases"]),
        netflix_with_expired_ases=frozenset(data["netflix_with_expired_ases"]),
    )
    return SnapshotOutcome(
        footprint=footprint,
        netflix_seen=frozenset(payload["netflix_seen"]),
        restorable={
            int(ip): frozenset(ases) for ip, ases in payload["restorable"].items()
        },
    )


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write compact JSON so readers only ever see a complete file.

    Compact output keeps :func:`json.dumps` on its C encoder (``indent``
    selects the pure-Python one); the readers take either layout."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


# -- the durable backend ------------------------------------------------------


class DurableFootprintIndex:
    """An on-disk footprint store updated one snapshot at a time.

    Mutation protocol: :meth:`fold` (or :meth:`remove`) any number of
    snapshots, then :meth:`commit`.  A commit recomputes the §6.2 Netflix
    restoration over the full ordered timeline, atomically rewrites the
    manifest, and publishes a fresh immutable :class:`IndexView` — the
    reference swap is the only thing concurrent readers observe, so
    queries stay consistent (and available) throughout an ingest.  The
    store answers no footprint queries itself: readers take
    :meth:`view`.

    The ``token`` recorded per snapshot is a content-addressed identity
    of that snapshot's inputs (see
    :meth:`~repro.datasets.FileDataset.snapshot_fingerprint`); the delta
    ingestor skips any snapshot whose token already matches.
    """

    MANIFEST = "index.json"
    SNAPSHOT_DIR = "snapshots"

    def __init__(self, state_dir: str | Path, corpus: str | None = None) -> None:
        self._dir = Path(state_dir)
        self._outcomes: dict[Snapshot, SnapshotOutcome] = {}
        self._tokens: dict[Snapshot, str] = {}
        manifest_path = self._dir / self.MANIFEST
        if manifest_path.exists():
            self._load(manifest_path, corpus)
        elif corpus is None:
            raise ValueError(
                f"no index manifest under {self._dir} — creating a new index "
                "needs an explicit corpus name"
            )
        else:
            self._corpus = corpus
        self._view = self._build_view()

    @property
    def state_dir(self) -> Path:
        """The directory the index persists itself under."""
        return self._dir

    def view(self) -> IndexView:
        """The current immutable committed view.  Server threads answer
        queries from a grabbed view, so an in-flight ingest can never
        show them a half-updated timeline."""
        return self._view

    def token(self, snapshot: Snapshot) -> str | None:
        """The content token a snapshot was folded under (None = absent)."""
        return self._tokens.get(snapshot)

    def tokens(self) -> dict[Snapshot, str]:
        """Every indexed snapshot's content token — the delta ingestor's
        view of "what the index already knows"."""
        return dict(self._tokens)

    # -- mutation -----------------------------------------------------------------

    def fold(self, outcome: SnapshotOutcome, token: str) -> None:
        """Persist one snapshot's pure outcome under its content token.

        The payload goes to a file named by the snapshot and the token, so
        a committed payload of the same snapshot under another token stays
        on disk — and stays the one a reopen reads — until :meth:`commit`
        writes a manifest naming the new token.  The write is atomic, but
        the in-memory view is only republished by :meth:`commit` — fold as
        many snapshots as arrived, then commit once.
        """
        snapshot = outcome.footprint.snapshot
        payload = _outcome_to_payload(outcome, token)
        _atomic_write_json(self._payload_path(snapshot, token), payload)
        # Re-read through the serializer so the in-memory entry is exactly
        # what a cold load would produce (and fold() can't leak shared
        # mutable state with the caller's outcome).
        self._outcomes[snapshot] = _outcome_from_payload(payload)
        self._tokens[snapshot] = token

    def remove(self, snapshot: Snapshot) -> bool:
        """Drop one snapshot from the index (its corpus file vanished).
        Returns whether anything was removed.  The payload stays on disk
        until :meth:`commit` writes a manifest that no longer lists it."""
        present = snapshot in self._outcomes
        self._outcomes.pop(snapshot, None)
        self._tokens.pop(snapshot, None)
        return present

    def commit(self) -> IndexView:
        """Recompute the cross-snapshot state, persist the manifest, then
        unlink every file under ``snapshots/`` the manifest does not name
        (superseded, removed and older-layout payloads), and publish (and
        return) the new immutable view.  The manifest is written first,
        so a kill during the sweep leaves only unlisted files behind."""
        view = self._build_view()
        _atomic_write_json(
            self._dir / self.MANIFEST,
            {
                "format": INDEX_FORMAT,
                "corpus": self._corpus,
                "snapshots": {
                    snapshot.label: self._tokens[snapshot]
                    for snapshot in sorted(self._tokens)
                },
            },
        )
        listed = {
            self._payload_path(snapshot, token).name
            for snapshot, token in self._tokens.items()
        }
        payload_dir = self._dir / self.SNAPSHOT_DIR
        if payload_dir.is_dir():
            for path in payload_dir.iterdir():
                if path.name not in listed:
                    path.unlink(missing_ok=True)
        self._view = view
        return view

    # -- internals ----------------------------------------------------------------

    def _payload_path(self, snapshot: Snapshot, token: str) -> Path:
        digest = hashlib.sha256(token.encode("utf-8")).hexdigest()[:16]
        return self._dir / self.SNAPSHOT_DIR / f"{snapshot.label}-{digest}.json"

    def _load(self, manifest_path: Path, corpus: str | None) -> None:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("format") != INDEX_FORMAT:
            raise ValueError(
                f"unsupported footprint-index format {manifest.get('format')!r} "
                f"under {self._dir} (this build reads {INDEX_FORMAT!r})"
            )
        self._corpus = manifest["corpus"]
        if corpus is not None and corpus != self._corpus:
            raise ValueError(
                f"index under {self._dir} accumulates corpus "
                f"{self._corpus!r}, not {corpus!r}"
            )
        for snapshot in ordered_snapshots(manifest["snapshots"]):
            token = manifest["snapshots"][snapshot.label]
            outcome = self._load_payload(snapshot, token)
            if outcome is not None:
                self._outcomes[snapshot] = outcome
                self._tokens[snapshot] = token

    def _load_payload(self, snapshot: Snapshot, token: str) -> SnapshotOutcome | None:
        """The outcome a manifest entry names, or ``None`` when its payload
        is missing, unreadable, of another format or written for another
        snapshot or token — the entry then reads as absent, so the delta
        ingestor re-ingests the snapshot."""
        try:
            payload = json.loads(
                self._payload_path(snapshot, token).read_text(encoding="utf-8")
            )
            if payload["token"] != token or payload["snapshot"] != snapshot.label:
                return None
            return _outcome_from_payload(payload)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def _build_view(self) -> IndexView:
        """The §6.2 restoration fold over the ordered timeline — the same
        :func:`~repro.core.netflix.restore_http_only` call
        :meth:`~repro.core.pipeline.OffnetPipeline.merge_outcomes` makes,
        which is what makes an incrementally-built index bit-identical to
        a batch run regardless of arrival order."""
        order = tuple(sorted(self._outcomes))
        outcomes = [self._outcomes[snapshot] for snapshot in order]
        by_snapshot: dict[Snapshot, FootprintSnapshot] = {}
        for snapshot, outcome, restored in zip(
            order, outcomes, restore_http_only(outcomes)
        ):
            # Fresh copy per commit: the published views must be immutable.
            footprint = _outcome_from_payload(
                _outcome_to_payload(outcome, self._tokens[snapshot])
            ).footprint
            footprint.netflix_restored_ases = restored
            by_snapshot[snapshot] = footprint
        return IndexView(self._corpus, order, by_snapshot)
