"""Load an exported dataset directory and drive the pipeline from it.

:class:`FileDataset` implements the :class:`~repro.datasets.DataSource`
protocol :class:`~repro.core.pipeline.OffnetPipeline` consumes:

* ``snapshots`` and ``scanner(name).profile.available_since``,
* ``scan(corpus, snapshot)``,
* ``ip2as(snapshot)``,
* ``topology.organizations`` (for the Appendix A.2 reverse lookup),
* ``root_store`` (for §4.1 validation).

No ground truth is present in a dataset directory — file-backed runs are
inference-only, exactly like running on real archived corpuses.

Corpus snapshots are read via :func:`repro.datasets.formats.read_corpus`,
which sniffs each file and dispatches to the registered codec — the
packed binary columnar format (``.rcc``) loads near zero-copy through
:meth:`~repro.store.SnapshotStore.from_columns`, while JSONL streams one
line at a time into the store; either way loading never materializes
per-row record objects.  The dataset keeps a **chain pool** (end-entity
fingerprint → chain) of the last snapshot it read, so a columnar snapshot
only decodes the chains the previous month didn't already carry.

The dataset holds one snapshot in flight: by default it keeps only the
last corpus store, the last IP-to-AS map and that last snapshot's chains,
so what a long run or a serve daemon retains does not grow with the
number of snapshots.

Reads honour an :class:`~repro.robustness.IngestPolicy` (strict by
default; installed per run by the pipeline via :meth:`configure_ingest`),
so a dirty corpus can be quarantined instead of aborting the run.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.bgp.ip2as import IPToASMap
from repro.datasets.formats import corpus_candidates, probe_corpus_cost, read_corpus
from repro.net.ipv4 import IPv4Prefix
from repro.robustness import IngestPolicy
from repro.scan.corpus import _cert_from_json
from repro.scan.records import ScanSnapshot
from repro.timeline import Snapshot, ordered_snapshots
from repro.topology.geography import country_by_code
from repro.topology.organizations import Organization, OrganizationDataset
from repro.x509.store import RootStore

__all__ = ["FileDataset"]

#: Per-file digest memo for :meth:`FileDataset.snapshot_fingerprint`,
#: keyed on ``(resolved path, size, mtime_ns)`` so an edited file can
#: never serve a stale digest.  Module-level (shared by the fresh
#: ``FileDataset`` a watcher poll constructs) and bounded.
_DIGEST_CACHE: OrderedDict[tuple[str, int, int], str] = OrderedDict()
_DIGEST_CACHE_MAX = 4096


def _file_digest(path: Path) -> str:
    """SHA-256 of one file's bytes, memoised on its stat identity.
    Missing files digest to ``"absent"`` — their absence is still part
    of the snapshot's content identity."""
    try:
        stat = path.stat()
    except FileNotFoundError:
        return "absent"
    key = (str(path.resolve()), stat.st_size, stat.st_mtime_ns)
    cached = _DIGEST_CACHE.get(key)
    if cached is not None:
        _DIGEST_CACHE.move_to_end(key)
        return cached
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    value = digest.hexdigest()
    _DIGEST_CACHE[key] = value
    while len(_DIGEST_CACHE) > _DIGEST_CACHE_MAX:
        _DIGEST_CACHE.popitem(last=False)
    return value


@dataclass(frozen=True, slots=True)
class _FileScannerProfile:
    """The slice of a scanner profile a file-backed run needs."""

    name: str
    available_since: Snapshot


@dataclass(frozen=True, slots=True)
class _FileScanner:
    profile: _FileScannerProfile


class _TopologyShim:
    """Exposes ``.organizations`` the way ``world.topology`` does."""

    def __init__(self, organizations: OrganizationDataset) -> None:
        self.organizations = organizations


class FileDataset:
    """A dataset directory, pipeline-ready.

    Construct it over a directory produced by ``repro export`` (or the
    fault-injection harness) and hand it to
    :class:`~repro.core.pipeline.OffnetPipeline`.  ``ingest_policy``
    selects how dirty corpus records are handled (see
    :class:`~repro.robustness.IngestPolicy`); the pipeline overrides it
    per run through :meth:`configure_ingest` when ``on_error`` /
    ``quarantine_dir`` options are set.
    """

    def __init__(
        self, directory: str | Path, ingest_policy: IngestPolicy | None = None
    ) -> None:
        self.directory = Path(directory)
        self.ingest_policy = ingest_policy or IngestPolicy()
        manifest_path = self.directory / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(f"not a dataset directory (no manifest): {directory}")
        self.manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

        self._corpora: dict[str, tuple[Snapshot, ...]] = {
            corpus: ordered_snapshots(labels)
            for corpus, labels in self.manifest["corpora"].items()
        }
        if not self._corpora:
            raise ValueError(f"dataset has no corpora: {directory}")

        all_snapshots: set[Snapshot] = set()
        for snapshots in self._corpora.values():
            all_snapshots.update(snapshots)
        self.snapshots: tuple[Snapshot, ...] = tuple(sorted(all_snapshots))

        self.topology = _TopologyShim(self._load_organizations())
        self.root_store = self._load_anchors()
        self._scan_cache: OrderedDict[tuple[str, Snapshot], ScanSnapshot] = OrderedDict()
        self._ip2as_cache: dict[Snapshot, IPToASMap] = {}
        #: The last read snapshot's chains (end-entity fingerprint ->
        #: chain): codecs that can skip decoding already-materialized
        #: chains (the columnar format) reuse them for the next read.
        self._chain_pool: dict = {}

    def configure_ingest(self, policy: IngestPolicy) -> None:
        """Install the ingestion error policy for subsequent corpus reads.

        Called by :class:`~repro.core.pipeline.OffnetPipeline` when its
        options carry ``on_error``/``quarantine_dir``.  Clears the scan
        cache: a snapshot loaded under one policy must not be served to a
        run that asked for another.
        """
        self.ingest_policy = policy
        self._scan_cache.clear()

    def fingerprint(self) -> str:
        """A stable identity for this dataset's data, for the stage-artifact
        cache (:mod:`repro.core.stages.keys`): the manifest names every
        corpus file the dataset can serve, so its canonical JSON hash
        changes whenever the dataset's contents do."""
        document = json.dumps(self.manifest, sort_keys=True)
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
        return f"dataset:{digest}"

    def snapshot_fingerprint(self, name: str, snapshot: Snapshot) -> str:
        """A content identity for **one** snapshot's inputs — the delta
        detector behind ``repro serve``.

        Unlike :meth:`fingerprint` (which hashes the whole manifest, so
        *any* dataset change invalidates *every* snapshot), this digests
        exactly the files one snapshot's inference reads: its corpus
        file, its ip2as table, and the dataset-wide organization and
        trust-anchor files.  Adding snapshot N+1 therefore leaves
        snapshots 1..N's fingerprints untouched, which is what lets the
        serve-layer ingestor skip them entirely.  Per-file digests are
        memoised on ``(path, size, mtime_ns)``, so a watcher poll over an
        unchanged dataset costs a handful of ``stat`` calls.  A corpus
        file that no codec suffix resolves digests to ``"absent"``, like
        any missing file: the fingerprint never raises, and :meth:`scan`
        still does.
        """
        try:
            corpus = _file_digest(self._corpus_path(name, snapshot))
        except FileNotFoundError:
            corpus = "absent"
        parts = {
            "corpus": corpus,
            "ip2as": _file_digest(self.directory / "ip2as" / f"{snapshot.label}.tsv"),
            "organizations": _file_digest(self.directory / "organizations.tsv"),
            "anchors": _file_digest(self.directory / "anchors.jsonl"),
        }
        document = json.dumps(parts, sort_keys=True)
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
        return f"snapshot-content:{digest}"

    def _corpus_path(self, name: str, snapshot: Snapshot) -> Path:
        """The file holding one corpus snapshot: the snapshot label
        resolved against every registered codec suffix (``.rcc`` before
        ``.jsonl``)."""
        corpus_dir = self.directory / "corpora" / name
        for path in corpus_candidates(corpus_dir, snapshot.label):
            if path.exists():
                return path
        raise FileNotFoundError(
            f"no {name} corpus for {snapshot} under {corpus_dir}"
        )

    # -- loading ----------------------------------------------------------

    def _load_organizations(self) -> OrganizationDataset:
        dataset = OrganizationDataset()
        path = self.directory / "organizations.tsv"
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            asn_text, name, country_code = line.split("\t")
            organization = Organization(
                org_id=f"ORG-AS{asn_text}",
                name=name,
                country=country_by_code(country_code),
            )
            dataset.add_organization(organization)
            dataset.assign(int(asn_text), organization.org_id)
        return dataset

    def _load_anchors(self) -> RootStore:
        store = RootStore()
        path = self.directory / "anchors.jsonl"
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                store.add(_cert_from_json(json.loads(line)))
        return store

    # -- the pipeline interface -----------------------------------------------

    def corpus_snapshots(self, name: str) -> tuple[Snapshot, ...]:
        """The snapshots the dataset holds for one corpus (sorted)."""
        snapshots = self._corpora.get(name)
        if not snapshots:
            raise KeyError(
                f"corpus {name!r} not in dataset; available: {sorted(self._corpora)}"
            )
        return snapshots

    def scanner(self, name: str) -> _FileScanner:
        """Availability info for one corpus in the dataset."""
        snapshots = self._corpora.get(name)
        if not snapshots:
            raise KeyError(
                f"corpus {name!r} not in dataset; available: {sorted(self._corpora)}"
            )
        return _FileScanner(_FileScannerProfile(name=name, available_since=snapshots[0]))

    def scan(self, name: str, snapshot: Snapshot, cache_size: int = 1) -> ScanSnapshot:
        """Load one corpus snapshot from disk into a columnar store
        under the configured ingestion policy, keeping the last
        ``cache_size`` stores (LRU).

        The file's format is autodetected: the snapshot label is resolved
        against every registered codec suffix (``.rcc`` before
        ``.jsonl``) and the content is sniffed by
        :func:`~repro.datasets.formats.read_corpus`.  When the policy
        names a ``quarantine_dir``, rejected records are written to
        ``<quarantine_dir>/<corpus>/<label>.jsonl`` whatever the corpus
        format — quarantine files are always JSONL.
        """
        key = (name, snapshot)
        cached = self._scan_cache.get(key)
        if cached is not None:
            self._scan_cache.move_to_end(key)
            return cached
        path = self._corpus_path(name, snapshot)
        policy = self.ingest_policy
        quarantine_path = None
        if policy.quarantine_dir is not None and not policy.strict:
            quarantine_path = (
                Path(policy.quarantine_dir) / name / f"{snapshot.label}.jsonl"
            )
        loaded = read_corpus(
            path, policy, quarantine_path, chain_pool=self._chain_pool
        )
        # Consecutive months mostly repeat each other's chains, so the
        # pool keeps exactly this snapshot's for the next read.
        self._chain_pool = {
            chain.end_entity.fingerprint: chain for chain in loaded.store.chains
        }
        self._scan_cache[key] = loaded
        while len(self._scan_cache) > cache_size:
            self._scan_cache.popitem(last=False)
        return loaded

    def shard_cost(self, name: str, snapshot: Snapshot) -> float:
        """Estimated ingest cost of one corpus snapshot, without loading
        it — the input :meth:`~repro.core.pipeline.OffnetPipeline.shard_plan`
        balances shards by.  Resolves the snapshot's file exactly like
        :meth:`scan` and probes it via
        :func:`~repro.datasets.formats.probe_corpus_cost` (block headers
        only for ``.rcc``, file size for JSONL)."""
        return probe_corpus_cost(self._corpus_path(name, snapshot))

    def trim_for_fork(self) -> None:
        """Drop the scan LRU before the parallel executor forks workers.

        What it holds then (the §4.4 header-learning snapshot's store)
        would be copy-on-write duplicated into every worker; shard
        workers read exactly the snapshots they own instead.  The chain
        pool survives: it is one snapshot's chains, which a worker's
        first read may reuse and then replaces."""
        self._scan_cache.clear()

    def ip2as(self, snapshot: Snapshot) -> IPToASMap:
        """Load the prefix-to-AS table for one snapshot from disk (the
        last snapshot's map is kept)."""
        cached = self._ip2as_cache.get(snapshot)
        if cached is not None:
            return cached
        self._ip2as_cache.clear()
        path = self.directory / "ip2as" / f"{snapshot.label}.tsv"
        if not path.exists():
            raise FileNotFoundError(f"no ip2as table for {snapshot}: {path}")
        mapping = IPToASMap.from_pairs(_table_rows(path))
        self._ip2as_cache[snapshot] = mapping
        return mapping


def _table_rows(path: Path):
    """The ``(prefix, origin)`` rows of an exported ip2as table: one line
    per prefix, its origins comma-separated (several means MOAS)."""
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        prefix_text, origins_text = line.split("\t")
        prefix = IPv4Prefix.parse(prefix_text)
        for origin in origins_text.split(","):
            yield prefix, int(origin)
