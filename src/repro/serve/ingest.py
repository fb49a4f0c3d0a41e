"""Delta ingestion: reconcile a durable footprint index with a dataset dir.

One :meth:`DeltaIngestor.ingest_once` pass:

1. re-reads the dataset manifest (a fresh
   :class:`~repro.datasets.FileDataset` per pass, so newly-landed
   snapshots are seen);
2. computes each snapshot's **ingest token** — its content fingerprint
   (:meth:`~repro.datasets.FileDataset.snapshot_fingerprint`, memoised
   per file stat, so polling an unchanged directory is cheap) mixed with
   the methodology options' identity
   (:meth:`~repro.core.pipeline.OffnetPipeline.options_meta`) and, when
   §4.5 confirms on rules learned from the corpus, the §4.4 learning
   snapshot's content fingerprint;
3. **skips** every snapshot whose token the index already holds — its
   stage work is never invoked, which is the whole point;
4. runs the pure per-snapshot phase for the new/changed ones
   (:meth:`~repro.core.pipeline.OffnetPipeline.run_snapshots`: the §4.4
   rules are learned once, then the snapshots are mapped), folds each
   outcome into the index in snapshot order, and removes snapshots
   whose files vanished;
5. commits once, atomically publishing the new view.

A pass on the process's only thread — the daemon's first pass, before it
binds or starts a thread, ``serve --once`` and scripts — maps step 4
over one forked worker per core in the CPU affinity mask, as
``run --jobs 0`` does; a pass beside live threads (the daemon's watcher)
runs in-process, since a child forked there can deadlock on a lock
another thread held.

A snapshot whose files fail to read under the configured policy
(``on_error=strict`` meeting a dirty file, or a corpus file the manifest
lists but the directory lacks) is recorded as *failed* and left out of
the index, where it is raised, in a worker too — a daemon must keep
serving the healthy timeline, and the rest of the pass still lands.
Under ``lenient``/``repair`` the quarantine machinery applies per-record
inside ``run_snapshot`` instead, and the snapshot still lands.

Everything books into a :class:`~repro.obs.metrics.MetricsRegistry`
(shared with the daemon, guarded by its lock): ``serve_ingest_events``
counters (``event=ingested|skipped|removed|failed``), the
``serve_ingest_seconds`` histogram, and the ``serve_ingest_lag_seconds``
/ ``serve_indexed_snapshots`` gauges.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.executor import make_executor
from repro.core.footprint import SnapshotOutcome
from repro.core.footprint_index import DurableFootprintIndex, IndexView
from repro.core.gcpause import gc_paused
from repro.core.pipeline import OffnetPipeline, PipelineOptions
from repro.datasets.fileview import FileDataset
from repro.obs.metrics import MetricsRegistry
from repro.robustness import CorpusParseError
from repro.timeline import Snapshot

__all__ = [
    "INGEST_EVENTS",
    "INGEST_SECONDS",
    "INGEST_LAG",
    "INDEXED_SNAPSHOTS",
    "IngestReport",
    "DeltaIngestor",
]

#: Counter: one increment per snapshot per pass, labelled
#: ``event=ingested|skipped|removed|failed``.
INGEST_EVENTS = "serve_ingest_events"
#: Histogram: wall-clock seconds per ingest pass that changed anything.
INGEST_SECONDS = "serve_ingest_seconds"
#: Gauge: seconds from change detection to commit for the latest
#: delta-carrying pass — the daemon's ingest lag.
INGEST_LAG = "serve_ingest_lag_seconds"
#: Gauge: snapshots currently committed in the index.
INDEXED_SNAPSHOTS = "serve_indexed_snapshots"


@dataclass(frozen=True, slots=True)
class IngestReport:
    """What one :meth:`DeltaIngestor.ingest_once` pass did."""

    ingested: tuple[Snapshot, ...]
    skipped: tuple[Snapshot, ...]
    removed: tuple[Snapshot, ...]
    failed: tuple[Snapshot, ...]
    #: Wall-clock seconds for the whole pass (fingerprinting included).
    duration_seconds: float
    #: Whether a commit republished the view this pass.
    committed: bool
    #: The per-pass registry: the folded snapshots' own pipeline metrics
    #: (stage timings, funnel and stage-cache counters) plus this pass's
    #: serve counters — what the delta-only property is asserted against.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def to_dict(self) -> dict:
        """JSON-safe summary (the ``/status`` endpoint's ``last_ingest``)."""
        return {
            "ingested": [s.label for s in self.ingested],
            "skipped": [s.label for s in self.skipped],
            "removed": [s.label for s in self.removed],
            "failed": [s.label for s in self.failed],
            "duration_seconds": round(self.duration_seconds, 6),
            "committed": self.committed,
        }


class DeltaIngestor:
    """Keeps a :class:`~repro.core.footprint_index.DurableFootprintIndex`
    in sync with a dataset directory, one delta pass at a time.

    ``options`` are the batch pipeline's :class:`PipelineOptions` — the
    ingestor runs the *same* per-snapshot phase the batch path does, so
    an incrementally-built index is bit-identical to a batch run with
    the same options.  Their ``jobs`` is not read: a pass sizes its
    workers by the threads alive and the CPU affinity mask (see the
    module docstring).  ``registry``/``registry_lock`` let a daemon
    share its metrics registry; standalone use gets a private pair.
    """

    def __init__(
        self,
        directory: str | Path,
        state_dir: str | Path,
        options: PipelineOptions | None = None,
        registry: MetricsRegistry | None = None,
        registry_lock: threading.Lock | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.options = options or PipelineOptions()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = registry_lock if registry_lock is not None else threading.Lock()
        Path(state_dir).mkdir(parents=True, exist_ok=True)
        self.index = DurableFootprintIndex(state_dir, corpus=self.options.corpus)
        #: The last pass's organization dataset — the daemon's country
        #: slices read it (reference swap per pass, safe across threads).
        self.organizations = None

    def view(self) -> IndexView:
        """The index's current committed view."""
        return self.index.view()

    def ingest_tokens(
        self, source: FileDataset, pipeline: OffnetPipeline, snapshots: tuple[Snapshot, ...]
    ) -> dict[Snapshot, str]:
        """The identity each snapshot is indexed under: the content
        fingerprint of its input files, the methodology options in
        force and, when §4.5 confirms on rules learned from the corpus
        (§4.4), the learning snapshot's content fingerprint — every
        snapshot's verdicts depend on those rules.  Matching token ⇒ the
        indexed outcome is still exact ⇒ skip."""
        options = self.options
        methodology: dict = {"options": pipeline.options_meta()}
        if options.header_confirmation and options.learn_headers:
            methodology["learning"] = source.snapshot_fingerprint(
                options.corpus, options.header_learning_snapshot
            )
        tokens = {}
        for snapshot in snapshots:
            document = json.dumps(
                {
                    "content": source.snapshot_fingerprint(options.corpus, snapshot),
                    **methodology,
                },
                sort_keys=True,
            )
            digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
            tokens[snapshot] = "ingest:" + digest
        return tokens

    def ingest_once(self) -> IngestReport:
        """One reconcile pass (see the module docstring for the steps),
        with the cycle collector paused (:mod:`repro.core.gcpause`)."""
        with gc_paused():
            return self._reconcile()

    def _reconcile(self) -> IngestReport:
        started = time.perf_counter()
        source = FileDataset(self.directory)
        pipeline = _IngestPipeline(source, self.options)
        self.organizations = source.topology.organizations
        snapshots = pipeline.select_snapshots()
        tokens = self.ingest_tokens(source, pipeline, snapshots)
        known = self.index.tokens()

        changed = tuple(s for s in snapshots if known.get(s) != tokens[s])
        skipped = tuple(s for s in snapshots if known.get(s) == tokens[s])
        stale = tuple(sorted(set(known) - set(snapshots)))

        pass_metrics = MetricsRegistry()
        ingested: list[Snapshot] = []
        failed: list[Snapshot] = []
        dirty = False
        for snapshot, outcome in zip(changed, self._outcomes(pipeline, changed), strict=True):
            if isinstance(outcome, Exception):
                failed.append(snapshot)
                # A snapshot that used to index fine but now refuses to
                # parse must stop being served from its stale outcome.
                dirty |= self.index.remove(snapshot)
                continue
            self.index.fold(outcome, tokens[snapshot])
            pass_metrics.merge(outcome.metrics)
            ingested.append(snapshot)
            dirty = True
        for snapshot in stale:
            dirty |= self.index.remove(snapshot)

        committed = dirty
        if committed:
            self.index.commit()
        duration = time.perf_counter() - started

        for event, group in (
            ("ingested", ingested),
            ("skipped", skipped),
            ("removed", stale),
            ("failed", failed),
        ):
            if group:
                pass_metrics.counter(INGEST_EVENTS, event=event).inc(len(group))
        if committed:
            pass_metrics.histogram(INGEST_SECONDS).observe(duration)
        with self._lock:
            self.registry.merge(pass_metrics)
            if committed:
                self.registry.gauge(INGEST_LAG).set(duration)
            self.registry.gauge(INDEXED_SNAPSHOTS).set(len(self.view().snapshots))

        return IngestReport(
            ingested=tuple(ingested),
            skipped=skipped,
            removed=stale,
            failed=tuple(failed),
            duration_seconds=duration,
            committed=committed,
            metrics=pass_metrics,
        )

    @staticmethod
    def _outcomes(
        pipeline: "_IngestPipeline", changed: tuple[Snapshot, ...]
    ) -> list[SnapshotOutcome | Exception]:
        """Each changed snapshot's outcome or read error, in order.

        A pass on the process's only thread forks one worker per usable
        core, as ``run --jobs 0`` does; a pass beside other live threads
        (the daemon's watcher, next to its HTTP threads) stays
        in-process, because a child forked there could inherit a lock
        another thread holds and deadlock on it.  If learning the §4.4
        rules fails to read, every changed snapshot fails with it."""
        executor = make_executor(0 if threading.active_count() == 1 else 1)
        try:
            return pipeline.run_snapshots(changed, executor)
        except (CorpusParseError, FileNotFoundError) as error:
            return [error] * len(changed)


class _IngestPipeline(OffnetPipeline):
    """The batch pipeline, except that a snapshot whose files fail to
    read returns its error instead of raising it, in a forked worker as
    in-process: one bad snapshot fails alone and the rest of its shard
    still lands, each snapshot run once."""

    def run_snapshot(self, snapshot: Snapshot) -> SnapshotOutcome | Exception:
        try:
            return super().run_snapshot(snapshot)
        except (CorpusParseError, FileNotFoundError) as error:
            return error
