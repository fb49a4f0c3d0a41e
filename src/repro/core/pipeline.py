"""The longitudinal off-net pipeline — §4 end to end, per snapshot.

For every snapshot of a corpus the pipeline:

1. validates certificates (§4.1), keeping an expired-but-structurally-sound
   side channel for the Netflix analysis;
2. learns each hypergiant's TLS fingerprint from its own address space
   (§4.2, with the HG AS sets from the Appendix A.2 reverse org lookup);
3. finds candidate off-nets with the all-dNSNames rule (§4.3);
4. confirms candidates against HTTP(S) header fingerprints (§4.5) learned
   once from the configured learning snapshot (§4.4; the paper uses the
   September 2020 Rapid7 corpus);
5. maps confirmed IPs to ASes (Appendix A.1) and records every variant the
   evaluation section needs (certs-only, or/and header modes, the Netflix
   expired and HTTP-only restorations, the Cloudflare filter).

The pipeline consumes any :class:`~repro.datasets.DataSource` — the live
synthetic :class:`~repro.world.World` or a file-backed
:class:`~repro.datasets.FileDataset` — and factors into a *pure*
per-snapshot phase (:meth:`OffnetPipeline.run_snapshot`) plus an ordered
cross-snapshot merge (:meth:`OffnetPipeline.merge_outcomes`; the §6.2
Netflix "ever a candidate" accumulator is the only cross-snapshot state).
``PipelineOptions(jobs=N)`` maps the pure phase over N worker processes
via :class:`~repro.core.executor.ParallelExecutor`; because the merge is an
explicit ordered reduction, parallel results are bit-identical to serial
ones — a property the test suite asserts.

The per-snapshot phase itself is a typed stage graph
(:mod:`repro.core.stages`): §4's dataflow as declared stages with
content-addressed artifacts, so re-runs reuse every stage whose inputs,
option subset and code version are unchanged.  The cache is pluggable —
in-memory by default, tiered onto disk under ``PipelineOptions.cache_dir``
(the CLI's ``--cache-dir``), which is also what ``--resume`` reads after an
interrupted run.  Funnel counters travel inside the cached artifacts, so
runs are bit-identical with the cache on or off — a property the test
suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.candidates import Candidate
from repro.core.confirm import confirm_candidates
from repro.core.executor import ParallelExecutor, SerialExecutor, make_executor
from repro.core.footprint import FootprintSnapshot, PipelineResult, SnapshotOutcome
from repro.core.gcpause import gc_paused
from repro.core.header_fingerprint import learn_header_fingerprints
from repro.core.netflix import restore_http_only
from repro.core.signals import parse_policy, signal_names
from repro.core.stages import (
    RULE_STAGES,
    TERMINAL_STAGES,
    ArtifactCache,
    DiskCache,
    MemoryCache,
    StageContext,
    TieredCache,
    assemble_outcome,
    build_offnet_graph,
    snapshot_fingerprint,
    source_fingerprint,
)
from repro.core.validation import (
    CertificateValidator,
    ValidatedRecord,
    ValidationStats,
    passthrough_records,
)
from repro.datasets.sharding import Shard, ShardPlan, plan_shards
from repro.datasets.source import DataSource
from repro.hypergiants.profiles import HEADER_RULES, HYPERGIANTS, HeaderRule
from repro.robustness import IngestPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.timers import Stopwatch
from repro.scan.records import ScanSnapshot
from repro.net.asn import ASN
from repro.timeline import Snapshot

__all__ = ["PipelineOptions", "OffnetPipeline"]


@dataclass(frozen=True, slots=True)
class PipelineOptions:
    """Pipeline switches (defaults = the paper's methodology; each switch
    exists for an ablation bench).

    Three kinds of field live here:

    * **methodology switches** (``validate_certificates``,
      ``require_all_dnsnames``, ``header_confirmation``, ...) — each
      maps to one §4 rule and changes the inferred numbers;
    * **execution knobs** (``jobs``, ``cache_dir``, ``quarantine_dir``) —
      change how the run executes, never what it computes; results are
      bit-identical across their settings;
    * **ingestion policy** (``on_error``) — methodology on a dirty
      corpus (it decides which records are inferred from), a no-op on
      a clean one.
    """

    corpus: str = "rapid7"
    #: §4.1 on/off (off admits expired/self-signed/untrusted certificates).
    validate_certificates: bool = True
    #: §4.3's all-dNSNames-subset rule on/off.
    require_all_dnsnames: bool = True
    #: §4.5 header confirmation on/off (off reports candidates as final).
    header_confirmation: bool = True
    #: Learn Table 4 from the corpus (§4.4) or use the curated rules.
    learn_headers: bool = True
    #: Which snapshot to learn header fingerprints from (paper: Sep. 2020).
    header_learning_snapshot: Snapshot = Snapshot(2020, 10)
    #: The Netflix default-nginx acceptance (§4.4).
    netflix_nginx_rule: bool = True
    #: The §7 edge-CDN conflict priority.
    edge_priority: bool = True
    #: Which confirmation signals the §4.5 step runs (the CLI's
    #: ``--signals``), in priority order, from the signal registry
    #: (:func:`repro.core.signals.signal_names`).  The default runs the
    #: header signal alone — the paper's methodology.
    signals: tuple[str, ...] = ("header",)
    #: How signal verdicts fold into a confirmation (the CLI's
    #: ``--confirm-policy``): ``paper-default`` (header decides, the
    #: original behaviour), ``require-<k>`` or ``priority`` — see
    #: :mod:`repro.core.signals.policy`.
    confirm_policy: str = "paper-default"
    #: §7 future work: merge the IPv6 research corpus and use dual-stack
    #: IP-to-AS lookups ("our inference approach is IP protocol-agnostic").
    include_ipv6: bool = False
    #: Worker processes for the per-snapshot phase (1 = serial; N > 1 forks
    #: a process pool; 0 = auto, one worker per core in the process's CPU
    #: affinity mask; output is identical for every setting).
    jobs: int = 1
    #: Directory for the on-disk stage-artifact cache (the CLI's
    #: ``--cache-dir``).  ``None`` keeps artifacts in memory only.  Like
    #: ``jobs``, this is an execution detail: results are bit-identical
    #: with any cache configuration.
    cache_dir: str | None = None
    #: How corpus ingestion reacts to malformed records (the CLI's
    #: ``--on-error``): ``"strict"`` fails fast with the file/line/offset
    #: of the first bad record, ``"lenient"`` quarantines bad records and
    #: infers from the survivors, ``"repair"`` additionally applies the
    #: deterministic fixes in
    #: :data:`~repro.robustness.REPAIRABLE_CLASSES`.  On a clean corpus
    #: all three modes produce bit-identical results.  Unlike ``jobs``
    #: this is methodology, not an execution detail — on a dirty corpus
    #: it changes which records are inferred from — so it participates in
    #: stage cache keys and the report's ``options`` section.
    on_error: str = "strict"
    #: Where lenient/repair runs write quarantine JSONL files, one per
    #: corpus snapshot (the CLI's ``--quarantine-dir``).  ``None`` keeps
    #: quarantine accounting in memory (it still reaches the run
    #: report).  An execution detail: never part of cache keys.
    quarantine_dir: str | None = None

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError(
                f"PipelineOptions.jobs must be >= 0, got {self.jobs} "
                "(0 selects one worker per CPU core, 1 runs serially, "
                "N > 1 forks N workers)"
            )
        if not isinstance(self.signals, tuple):
            object.__setattr__(self, "signals", tuple(self.signals))
        if not self.signals:
            raise ValueError(
                "PipelineOptions.signals must name at least one signal; "
                f"registered: {', '.join(signal_names())}"
            )
        if len(set(self.signals)) != len(self.signals):
            raise ValueError(
                f"PipelineOptions.signals has duplicates: {self.signals}"
            )
        registered = set(signal_names())
        for name in self.signals:
            if name not in registered:
                raise ValueError(
                    f"unknown confirmation signal {name!r}; "
                    f"registered: {', '.join(signal_names())}"
                )
        # Delegates policy-spec validation so the two surfaces cannot
        # drift; paper-default folds on the header verdict, so it needs
        # the header signal configured.
        parse_policy(self.confirm_policy)
        if self.confirm_policy == "paper-default" and "header" not in self.signals:
            raise ValueError(
                "confirm_policy='paper-default' folds on the header signal's "
                f"verdict, but signals={self.signals} does not include it"
            )
        # Delegates mode validation (strict|lenient|repair) so the two
        # surfaces cannot drift.
        IngestPolicy(mode=self.on_error)

    def ingest_policy(self) -> IngestPolicy:
        """The :class:`~repro.robustness.IngestPolicy` these options select."""
        return IngestPolicy(mode=self.on_error, quarantine_dir=self.quarantine_dir)


class OffnetPipeline:
    """Runs the §4 methodology over a data source's scan corpuses.

    Usage::

        result = OffnetPipeline(source).run()            # all snapshots
        result = OffnetPipeline(source, PipelineOptions(jobs=4)).run()

    ``source`` is any :class:`~repro.datasets.DataSource` — a synthetic
    :class:`~repro.world.World` or a file-backed
    :class:`~repro.datasets.FileDataset`.  ``options`` holds the
    methodology switches and execution knobs (see
    :class:`PipelineOptions`); ``cache`` overrides the stage-artifact
    cache (default: in-memory, or memory+disk when
    ``options.cache_dir`` is set).

    The main entry points: :meth:`run` (the longitudinal result),
    :meth:`run_snapshot` (the pure per-snapshot phase),
    :meth:`run_stages`/:meth:`probe_cache`/:meth:`describe_stages`
    (the stage-graph surface behind the CLI's ``--stages`` and
    ``--resume``), and :meth:`header_rules` (the §4.4 fingerprints in
    force).
    """

    def __init__(
        self,
        source: DataSource,
        options: PipelineOptions | None = None,
        cache: ArtifactCache | None = None,
    ) -> None:
        if not isinstance(source, DataSource):
            missing = [
                name
                for name in ("snapshots", "root_store", "topology", "scanner", "scan", "ip2as")
                if not hasattr(source, name)
            ]
            raise TypeError(
                f"{type(source).__name__} does not implement the DataSource "
                f"protocol (missing: {', '.join(missing) or 'structural members'})"
            )
        self.source = source
        self.options = options or PipelineOptions()
        # Thread the ingestion error policy into the source.  Only parsing
        # sources (FileDataset and friends) expose configure_ingest();
        # in-memory sources never meet a parser, so a non-strict policy
        # there would silently do nothing — refuse it instead.
        configure_ingest = getattr(source, "configure_ingest", None)
        if configure_ingest is not None:
            configure_ingest(self.options.ingest_policy())
        elif self.options.on_error != "strict" or self.options.quarantine_dir:
            raise ValueError(
                f"on_error={self.options.on_error!r} needs a data source "
                "that parses corpus files (one with configure_ingest(), "
                f"like FileDataset); {type(source).__name__} builds "
                "snapshots in memory and has no records to quarantine"
            )
        self._validator = CertificateValidator(source.root_store)
        self._keywords = tuple(hg.key for hg in HYPERGIANTS)
        # Appendix A.2: reverse org lookup per HG keyword.
        organizations = source.topology.organizations
        self._hg_ases: dict[str, frozenset[ASN]] = {
            key: organizations.search_by_name(key) for key in self._keywords
        }
        self._all_hg_ases = frozenset(
            asn for ases in self._hg_ases.values() for asn in ases
        )
        self._header_rules: dict[str, tuple[HeaderRule, ...]] | None = None
        # The per-snapshot phase as a stage graph with content-addressed
        # artifacts.  Disk caching needs the source to name its own data
        # (a stale hit against different data would be silent corruption);
        # sources without a fingerprint() still get in-process caching
        # under an object-identity token.
        self._graph = build_offnet_graph()
        fingerprint = source_fingerprint(source)
        self._source_token = fingerprint or f"mem:{id(source):x}"
        if cache is not None:
            self._cache: ArtifactCache = cache
        elif self.options.cache_dir is not None:
            if fingerprint is None:
                raise ValueError(
                    "cache_dir requires a data source with a fingerprint() "
                    f"({type(source).__name__} cannot name its data across "
                    "processes, so on-disk artifacts could go stale silently)"
                )
            self._cache = TieredCache(MemoryCache(), DiskCache(self.options.cache_dir))
        else:
            self._cache = MemoryCache()

    # -- public API ------------------------------------------------------------

    def run(self, snapshots: tuple[Snapshot, ...] | None = None) -> PipelineResult:
        """Run the full pipeline over ``snapshots`` (default: all the corpus
        offers) and return the longitudinal result.

        The per-snapshot phase is mapped by the executor ``options.jobs``
        selects (:meth:`run_snapshots`), then merged in snapshot order.
        """
        snapshots = self.select_snapshots(snapshots)
        executor = make_executor(self.options.jobs)
        outcomes = self.run_snapshots(snapshots, executor)
        return self.merge_outcomes(
            snapshots, outcomes, executor_meta=executor.describe()
        )

    def run_snapshots(
        self,
        snapshots: tuple[Snapshot, ...],
        executor: SerialExecutor | ParallelExecutor,
    ) -> list[SnapshotOutcome]:
        """The pure phase over many snapshots: learn the §4.4 rules once,
        in this process, then map :meth:`run_snapshot` over ``snapshots``
        with ``executor``; outcomes come back in snapshot order.

        Learning here lets forked workers inherit the rules instead of
        re-learning them per process.  It is skipped when every
        rule-reading artifact is already cached, so that a warm run
        never rescans the learning snapshot; a cached artifact that then
        reads as a miss (stale, corrupt) still learns the rules lazily
        inside its stage.  The cycle collector is paused over both steps
        (:mod:`repro.core.gcpause`): every value of the phase dies by
        reference count, so it would only re-traverse the live heap.
        """
        with gc_paused():
            self._learn_unless_cached(snapshots, RULE_STAGES)
            return executor.map_snapshots(self, snapshots)

    def select_snapshots(
        self, snapshots: tuple[Snapshot, ...] | None = None
    ) -> tuple[Snapshot, ...]:
        """The snapshots a run would cover: the requested ones, or every
        snapshot the corpus scanner was live for."""
        if snapshots is not None:
            return tuple(snapshots)
        profile = self.source.scanner(self.options.corpus).profile
        return tuple(
            s for s in self.source.snapshots if s >= profile.available_since
        )

    def header_rules(self) -> dict[str, tuple[HeaderRule, ...]]:
        """The header fingerprints in force: learned from the learning
        snapshot when possible (§4.4), else the curated Table 4."""
        if self._header_rules is not None:
            return self._header_rules
        rules: dict[str, tuple[HeaderRule, ...]] = dict(HEADER_RULES)
        if self.options.learn_headers:
            learned = self._learn_rules()
            if learned is not None:
                # Keep curated rules for HGs the learning pass missed
                # entirely (no on-net header responses in the corpus).
                for hypergiant, hg_rules in learned.items():
                    if hg_rules:
                        rules[hypergiant] = hg_rules
        self._header_rules = rules
        return rules

    # -- the stage graph surface ---------------------------------------------------

    def stage_names(self) -> tuple[str, ...]:
        """Every stage of the per-snapshot graph, in topological order."""
        return self._graph.order

    def describe_stages(self) -> list[dict]:
        """One row per stage (name, deps, option subset, artifact notes) —
        what the CLI's ``--stages list`` prints."""
        return [
            {
                "name": stage.name,
                "deps": list(stage.deps),
                "options": list(stage.option_keys),
                "version": stage.version,
                "cacheable": stage.cacheable,
                "heavy": stage.heavy,
                "produces": stage.produces,
            }
            for name in self._graph.order
            for stage in (self._graph.stages[name],)
        ]

    def probe_cache(
        self, snapshots: tuple[Snapshot, ...] | None = None
    ) -> dict[Snapshot, dict[str, bool]]:
        """Which stage artifacts are already cached, per snapshot, without
        executing anything — what ``--resume`` reports before restarting."""
        return {
            snapshot: self._graph.probe(
                self.options, self.snapshot_token(snapshot), self._cache
            )
            for snapshot in self.select_snapshots(snapshots)
        }

    def run_stages(
        self,
        targets: tuple[str, ...],
        snapshots: tuple[Snapshot, ...] | None = None,
    ) -> MetricsRegistry:
        """Force only ``targets`` (plus dependencies) per snapshot — the
        CLI's ``--stages``, for warming a cache or debugging a subgraph —
        and return the merged metrics (stage timings + cache events)."""
        snapshots = self.select_snapshots(snapshots)
        closure = self._graph.closure(targets)
        self._learn_unless_cached(
            snapshots, tuple(name for name in RULE_STAGES if name in closure)
        )
        merged = MetricsRegistry()
        for snapshot in snapshots:
            registry = MetricsRegistry()
            self._graph.execute(
                StageContext(pipeline=self, snapshot=snapshot, options=self.options),
                self.snapshot_token(snapshot),
                registry,
                cache=self._cache,
                targets=targets,
            )
            merged.merge(registry)
        return merged

    # -- the shard surface (the parallel executor's unit of work) ----------------

    def shard_plan(
        self,
        snapshots: tuple[Snapshot, ...] | None = None,
        *,
        jobs: int | None = None,
    ) -> ShardPlan:
        """Partition a run's snapshots into contiguous, cost-balanced
        shards for ``jobs`` workers (see :func:`~repro.datasets.plan_shards`).

        Per-snapshot costs come from the source's ``shard_cost`` probe
        when it has one (:class:`~repro.datasets.FileDataset` answers
        from corpus file headers without loading anything, a
        :class:`~repro.world.World` counts the servers alive at the
        snapshot); sources without a probe — or snapshots whose files
        the probe cannot reach — fall back to uniform costs.  Planning
        must never be the thing that fails: a missing file surfaces
        later, in the scan stage, with its usual error.
        """
        snapshots = self.select_snapshots(snapshots)
        if jobs is None:
            jobs = max(self.options.jobs, 1)
        costs: list[float] | None = None
        probe = getattr(self.source, "shard_cost", None)
        if probe is not None:
            try:
                costs = [
                    probe(self.options.corpus, snapshot) for snapshot in snapshots
                ]
            except (FileNotFoundError, OSError):
                costs = None
        return plan_shards(snapshots, costs, jobs=jobs)

    def run_shard(self, shard: Shard) -> list[SnapshotOutcome]:
        """Run one shard's snapshots in order — the parallel executor's
        per-worker task body."""
        return [self.run_snapshot(snapshot) for snapshot in shard.snapshots]

    def trim_for_fork(self) -> None:
        """Drop state forked workers must not inherit copy-on-write —
        delegates to the source's ``trim_for_fork`` when it has one
        (:class:`~repro.datasets.FileDataset` drops the store it still
        holds, the §4.4 learning snapshot's; a
        :class:`~repro.world.World` keeps its one store and map, which
        workers share copy-on-write)."""
        trim = getattr(self.source, "trim_for_fork", None)
        if trim is not None:
            trim()

    def snapshot_token(self, snapshot: Snapshot) -> str:
        """The content-addressed cache token for one snapshot's stage
        artifacts — ``snapshot_fingerprint(source, corpus, snapshot)``.
        The serve layer's delta ingestor compares these against an index's
        recorded tokens to decide which snapshots actually changed."""
        return snapshot_fingerprint(self._source_token, self.options.corpus, snapshot)

    # -- internals ---------------------------------------------------------------

    def _learn_unless_cached(
        self, snapshots: tuple[Snapshot, ...], stages: tuple[str, ...]
    ) -> None:
        """Learn the §4.4 rules up front unless every ``stages`` artifact
        of every snapshot is already cached, so that no stage reading
        the rules can run (see :meth:`run_snapshots`)."""
        if not self.options.header_confirmation or not stages:
            return
        probe = self.probe_cache(snapshots)
        if not all(flags[name] for flags in probe.values() for name in stages):
            self.header_rules()

    def _learn_rules(self) -> dict[str, tuple[HeaderRule, ...]] | None:
        options = self.options
        profile = self.source.scanner(options.corpus).profile
        learning_snapshot = options.header_learning_snapshot
        if learning_snapshot < profile.available_since:
            return None
        scan = self.source.scan(options.corpus, learning_snapshot)
        store = scan.store
        if not store.http_ip:
            return None
        records, _ = self._validated(scan)
        ip2as = self.source.ip2as(learning_snapshot)
        # One pass over the validated records, with the org→HG keyword
        # scan done once per interned Organization, as the match stage
        # does it.
        org_hgs = self._org_table_hgs(store)
        chain_hgs = [org_hgs[org_index] for org_index in store.chain_org]
        hg_ases = self._hg_ases
        onnet: dict[str, set[int]] = {keyword: set() for keyword in self._keywords}
        for record in records:
            if record.expired_only:
                continue
            hgs = chain_hgs[record.chain_index]
            if not hgs:
                continue
            origins = ip2as.lookup(record.ip)
            for keyword in hgs:
                if origins & hg_ases[keyword]:
                    onnet[keyword].add(record.ip)
        onnet_ips = {keyword: frozenset(ips) for keyword, ips in onnet.items()}
        all_onnet = frozenset().union(*onnet_ips.values())
        background = frozenset(
            ip for ip in store.http_ip[::3] if ip not in all_onnet
        )
        return learn_header_fingerprints(scan, onnet_ips, background)

    def _validated(
        self, scan, registry: MetricsRegistry | None = None
    ) -> tuple[list[ValidatedRecord], ValidationStats]:
        if not self.options.validate_certificates:
            return passthrough_records(scan.store, registry)
        return self._validator.validate_snapshot(
            scan, allow_expired=True, registry=registry
        )

    def _org_table_hgs(self, store) -> list[tuple[str, ...]]:
        """HG keyword matches for every entry of a store's interned
        Organization table — the whole snapshot's org matching in
        O(unique organisations), no cross-snapshot state."""
        matches = []
        for organization in store.org_table:
            lowered = organization.lower()
            matches.append(tuple(k for k in self._keywords if k in lowered))
        return matches

    def _scan_and_map(self, snapshot: Snapshot):
        """The corpus and IP-to-AS view for one snapshot, optionally merged
        with the IPv6 research corpus (§7 future work)."""
        source = self.source
        scan = source.scan(self.options.corpus, snapshot)
        ip2as = source.ip2as(snapshot)
        if self.options.include_ipv6:
            ipv6_scan = getattr(source, "ipv6_scan", None)
            if ipv6_scan is None:
                raise ValueError(
                    "include_ipv6 requires a world with an IPv6 corpus "
                    "(file-backed datasets are IPv4-only)"
                )
            v6 = ipv6_scan(snapshot)
            merged = ScanSnapshot(
                scanner=f"{scan.scanner}+ipv6", snapshot=snapshot
            )
            # Store-level merge: rows re-intern into one combined table, so
            # chains shared across the v4 and v6 corpuses dedup too.
            merged.store.extend(scan.store)
            merged.store.extend(v6.store)
            scan = merged
            ip2as = source.ip2as_dual(snapshot)
        return scan, ip2as

    # -- the pure per-snapshot phase ---------------------------------------------

    def run_snapshot(self, snapshot: Snapshot) -> SnapshotOutcome:
        """Everything §4 infers from one snapshot, with no cross-snapshot
        state: safe to execute for any subset of snapshots, in any order,
        in any process.  The Netflix restoration inputs ride along for
        :meth:`merge_outcomes`.

        The body is the stage graph of :mod:`repro.core.stages.offnet`:
        the scheduler forces the terminal stages, reusing every cached
        artifact whose key still matches, and every stage books its spans
        and funnel counts into a *fresh* per-snapshot
        :class:`~repro.obs.metrics.MetricsRegistry` that travels home
        inside the outcome — the unit the merge barrier folds
        deterministically.  Cache hits replay the counter fragment the
        original computation recorded, so the funnel is bit-identical
        whether a stage ran or hit.
        """
        registry = MetricsRegistry()
        values = self._graph.execute(
            StageContext(pipeline=self, snapshot=snapshot, options=self.options),
            self.snapshot_token(snapshot),
            registry,
            cache=self._cache,
            targets=TERMINAL_STAGES,
        )
        return assemble_outcome(snapshot, values, registry)

    # -- the ordered cross-snapshot merge ------------------------------------------

    def merge_outcomes(
        self,
        snapshots: tuple[Snapshot, ...],
        outcomes: list[SnapshotOutcome],
        executor_meta: dict | None = None,
    ) -> PipelineResult:
        """Reduce per-snapshot outcomes, in snapshot order, into the
        longitudinal result.  The only cross-snapshot state is the §6.2
        Netflix "ever a candidate" fold
        (:func:`~repro.core.netflix.restore_http_only`); folding it here
        (rather than inside the per-snapshot phase) is what makes the
        phase pure and the parallel run bit-identical to the serial one.

        The same barrier folds the per-snapshot metrics registries:
        counters and histograms merge commutatively, and the snapshot
        ordering here is the one ordering both executors can honour, so
        a ``jobs=N`` run's merged registry counts exactly what the
        ``jobs=1`` run's does.
        """
        by_snapshot: dict[Snapshot, FootprintSnapshot] = {}
        metrics = MetricsRegistry()
        watch = Stopwatch(metrics)
        restored = restore_http_only(outcomes)
        for snapshot, outcome, ases in zip(snapshots, outcomes, restored, strict=True):
            outcome.footprint.netflix_restored_ases = ases
            by_snapshot[snapshot] = outcome.footprint
            metrics.merge(outcome.metrics)
        watch.lap("merge")
        scenario = self._scenario_meta()
        for event in scenario.get("events", ()):
            # Book the schedule at the merge barrier: it is pure config,
            # and the barrier runs once in the parent for every executor
            # and cache state, so eventful runs stay bit-identical too.
            metrics.counter("scenario_events_total", kind=event["kind"]).inc()
        return PipelineResult(
            corpus=self.options.corpus,
            snapshots=tuple(snapshots),
            by_snapshot=by_snapshot,
            metrics=metrics,
            run_meta={
                "options": self.options_meta(),
                "executor": dict(executor_meta or {}),
                "scenario": scenario,
            },
        )

    def _scenario_meta(self) -> dict:
        """The source's scenario identity (duck-typed: file datasets and
        plain worlds without events report an empty schedule)."""
        meta = getattr(self.source, "scenario_meta", None)
        return meta() if callable(meta) else {}

    def options_meta(self) -> dict:
        """The methodology switches for the run report's ``options``
        section — also the options identity the serve layer's delta
        ingestor mixes into index tokens (changed methodology must
        invalidate indexed outcomes).  ``jobs``, ``cache_dir`` and
        ``quarantine_dir`` are deliberately absent: they are execution
        details (reported under ``executor`` / the cache counters / the
        ``ingest`` section), and the deterministic view must compare
        equal across ``jobs`` and cache configurations.  ``on_error``
        *is* present: on a dirty corpus it changes which records the run
        infers from."""
        options = self.options
        return {
            "corpus": options.corpus,
            "validate_certificates": options.validate_certificates,
            "require_all_dnsnames": options.require_all_dnsnames,
            "header_confirmation": options.header_confirmation,
            "learn_headers": options.learn_headers,
            "header_learning_snapshot": options.header_learning_snapshot.label,
            "netflix_nginx_rule": options.netflix_nginx_rule,
            "edge_priority": options.edge_priority,
            "signals": list(options.signals),
            "confirm_policy": options.confirm_policy,
            "include_ipv6": options.include_ipv6,
            "on_error": options.on_error,
        }

    def _netflix_with_expired(
        self,
        snapshot: Snapshot,
        scan,
        valid_candidates: list[Candidate],
        expired_candidates: list[Candidate],
        rules,
    ) -> frozenset[ASN]:
        """Confirmed Netflix ASes when expired certificates are admitted."""
        merged = valid_candidates + expired_candidates
        if not merged:
            return frozenset()
        if not self.options.header_confirmation:
            return _ases_of(merged)
        confirmed = confirm_candidates(
            "netflix", merged, scan, rules,
            netflix_nginx_rule=self.options.netflix_nginx_rule,
            edge_priority=self.options.edge_priority,
        )
        return _ases_of([c.candidate for c in confirmed])


def _ases_of(candidates: list[Candidate]) -> frozenset[ASN]:
    ases: set[ASN] = set()
    for candidate in candidates:
        ases |= candidate.ases
    return frozenset(ases)
