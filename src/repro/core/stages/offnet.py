"""The §4 methodology as a typed stage graph.

This module decomposes what used to be the fused body of
``OffnetPipeline.run_snapshot`` into declared stages with explicit
edges, typed artifacts, and per-stage option subsets:

.. code-block:: text

    scan ──┬── ingest                       (corpus shape counters)
           ├── validate ── vstats           (§4.1, recomputed / light)
           └──┬───────┘
              match ──┬── onnet             (§4.2 + org→HG matching)
                      └── candidates        (§4.3 + Cloudflare filter)
    scan ─────────────────┬── confirm       (§4.5 signal confirmation)
                          └── netflix       (§6.2 per-snapshot inputs)

Design rules the cache correctness rests on:

* **Uncached stages** — ``scan`` (the live corpus view) and ``validate``
  (the §4.1 per-row verdicts) are recomputed, never stored.  Every
  consumer of ``validate`` also depends on ``scan``, so any run that
  needs the verdicts has already loaded the corpus, and the §4.1 verdict
  depends only on (chain, scan date): the validator's cross-snapshot
  caches recompute the list faster than a pickle of it would load.
* **Heavy/light split** — ``match``, whose value scales with the corpus
  row count, is marked ``heavy``: disk-tier only, and *not* consumed by
  the terminal artifacts, so a warm run reuses the light suffix without
  unpickling per-row payloads.
* **Funnel counters live in light stages** — every counter the run
  report's deterministic ``funnel`` section reads (``funnel_*``) is
  emitted by a terminal light stage (``ingest``, ``vstats``, ``onnet``,
  ``candidates``, ``confirm``), so replaying cached fragments books
  bit-identical funnel counts whether a stage ran or hit.
* **Option subsets are minimal** — flipping ``require_all_dnsnames``
  re-keys ``candidates`` and its dependents only; ``ingest`` through
  ``onnet`` keep their artifacts.

The pipeline façade targets :data:`TERMINAL_STAGES` and assembles the
:class:`~repro.core.footprint.SnapshotOutcome` from their values via
:func:`assemble_outcome`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.candidates import Candidate
from repro.core.cloudflare import is_cloudflare_customer_cert
from repro.core.footprint import FootprintSnapshot, SnapshotOutcome
from repro.core.signals import build_signals, evaluate_candidates, parse_policy
from repro.core.stages.base import Stage, StageContext, StageGraph
from repro.core.validation import ValidatedRecord, ValidationStats
from repro.net.asn import ASN
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "RULE_STAGES",
    "TERMINAL_STAGES",
    "CandidateSet",
    "ConfirmResult",
    "IngestStats",
    "MatchResult",
    "NetflixResult",
    "assemble_outcome",
    "build_offnet_graph",
]

#: The §4.4/§4.5 switches that determine the confirmation evidence in
#: force and how it folds — the option subset of both confirm-driven
#: stages.  ``signals`` and ``confirm_policy`` joined with the
#: multi-signal framework so that changing either re-keys the cached
#: confirm/netflix artifacts.
_CONFIRM_OPTIONS = (
    "header_confirmation",
    "learn_headers",
    "header_learning_snapshot",
    "netflix_nginx_rule",
    "edge_priority",
    "signals",
    "confirm_policy",
)

#: The light stages the pipeline forces every run; their artifacts carry
#: every deterministic funnel counter and everything outcome assembly
#: reads, so a fully warm run touches nothing else.
TERMINAL_STAGES = ("ingest", "vstats", "onnet", "candidates", "confirm", "netflix")

#: The stages whose bodies read the learned §4.4 header rules
#: (``pipeline.header_rules()``): a run whose artifacts for these are all
#: cached never needs the rules.
RULE_STAGES = ("confirm", "netflix")


# -- typed artifacts -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IngestStats:
    """The raw corpus shape Figure 2 reads (everything else about the
    store travels as counters in the stage fragment)."""

    raw_ip_count: int
    raw_certificate_count: int


@dataclass(slots=True)
class MatchResult:
    """§4.2 + org matching over one snapshot (heavy: row-scale lists)."""

    #: Org-matched rows: ``(record, origin ASes, HG keywords)``.
    matching: list[tuple[ValidatedRecord, frozenset[ASN], tuple[str, ...]]]
    #: Lowercased dNSName tuples for every chain appearing in ``matching``.
    chain_dns: dict[int, tuple[str, ...]]
    #: §4.2 learned TLS fingerprints (dNSNames seen on-net) per HG.
    fingerprints: dict[str, frozenset[str]]
    #: On-net IPs per HG (unfiltered; the ``onnet`` stage publishes the
    #: nonempty subset the footprint keeps).
    onnet_ips: dict[str, frozenset[int]]


@dataclass(slots=True)
class CandidateSet:
    """§4.3 candidates per HG plus the §6.2/§7 side channels."""

    by_hg: dict[str, list[Candidate]]
    netflix_expired: list[Candidate]
    cloudflare_filtered_ases: frozenset[ASN]


@dataclass(slots=True)
class ConfirmResult:
    """§4.5 confirmation verdicts per HG (only HGs with candidates)."""

    candidate_ips: dict[str, frozenset[int]] = field(default_factory=dict)
    candidate_ases: dict[str, frozenset[ASN]] = field(default_factory=dict)
    confirmed_ips: dict[str, frozenset[int]] = field(default_factory=dict)
    confirmed_ases: dict[str, frozenset[ASN]] = field(default_factory=dict)
    confirmed_and_ases: dict[str, frozenset[ASN]] = field(default_factory=dict)


@dataclass(slots=True)
class NetflixResult:
    """The per-snapshot half of the §6.2 Netflix restorations."""

    with_expired_ases: frozenset[ASN]
    #: IPs that presented a Netflix certificate (valid or expired-only).
    seen: frozenset[int]
    #: Port-80-only IPs mapped to origin ASes (restoration candidates).
    restorable: dict[int, frozenset[ASN]]


# -- stage bodies --------------------------------------------------------------


def _run_scan(ctx: StageContext, inputs: Mapping, counters: MetricsRegistry):
    """Load the corpus + IP-to-AS view (non-cacheable: live objects).

    Every executor reads through the source's one ``scan`` path; the
    source keeps only the last snapshot's store and map, so a run holds
    one snapshot's corpus at a time."""
    return ctx.pipeline._scan_and_map(ctx.snapshot)


def _run_ingest(
    ctx: StageContext, inputs: Mapping, counters: MetricsRegistry
) -> IngestStats:
    scan, _ = inputs["scan"]
    label = ctx.snapshot.label
    store_stats = scan.store.stats()
    # Ingestion robustness accounting: file-backed snapshots carry the
    # reader's IngestReport (records seen/accepted/quarantined/repaired,
    # per error class).  Booked here — in a cacheable light stage — so a
    # warm run replays the same ingest section the cold run reported.
    ingest_report = getattr(scan, "ingest", None)
    if ingest_report is not None:
        counters.counter("ingest_records", event="seen", snapshot=label).inc(
            ingest_report.seen
        )
        counters.counter("ingest_records", event="accepted", snapshot=label).inc(
            ingest_report.accepted
        )
        for error_class, count in sorted(ingest_report.quarantined_by_class.items()):
            counters.counter(
                "ingest_quarantined", error_class=error_class, snapshot=label
            ).inc(count)
        for error_class, count in sorted(ingest_report.repaired_by_class.items()):
            counters.counter(
                "ingest_repaired", error_class=error_class, snapshot=label
            ).inc(count)
    counters.counter("funnel_tls_records", snapshot=label).inc(store_stats.tls_rows)
    counters.counter("funnel_http_records", snapshot=label).inc(store_stats.http_rows)
    counters.counter("funnel_unique_certificates", snapshot=label).inc(
        store_stats.unique_chains
    )
    # Columnar-store shape metrics: how much §4's "few certificates,
    # many IPs" redundancy the intern tables absorbed this snapshot.
    counters.counter("store_tls_rows", snapshot=label).inc(store_stats.tls_rows)
    counters.counter("store_unique_chains", snapshot=label).inc(
        store_stats.unique_chains
    )
    for table, entries in (
        ("org", store_stats.org_entries),
        ("dns", store_stats.dns_entries),
        ("header", store_stats.header_entries),
    ):
        counters.counter("store_intern_entries", table=table, snapshot=label).inc(
            entries
        )
    return IngestStats(
        raw_ip_count=scan.ip_count,
        raw_certificate_count=scan.unique_certificates(),
    )


def _run_validate(ctx: StageContext, inputs: Mapping, counters: MetricsRegistry):
    scan, _ = inputs["scan"]
    return ctx.pipeline._validated(scan, counters)


def _run_vstats(
    ctx: StageContext, inputs: Mapping, counters: MetricsRegistry
) -> ValidationStats:
    scan, _ = inputs["scan"]
    _, stats = inputs["validate"]
    label = ctx.snapshot.label
    counters.counter("funnel_valid", snapshot=label).inc(stats.valid)
    counters.counter("funnel_expired_only", snapshot=label).inc(stats.expired_only)
    counters.counter("funnel_rejected", snapshot=label).inc(stats.rejected)
    # The §4.1 dedup payoff (one verification per unique chain, verdicts
    # broadcast over the rows) is booked here — in a light, cacheable
    # stage — so the report's store section replays bit-identically on
    # warm-cache runs; the uncached validate stage never runs on them.
    if ctx.options.validate_certificates:
        counters.counter("validation_work", unit="unique_chains").inc(
            len(scan.store.chains)
        )
        counters.counter("validation_work", unit="rows").inc(
            scan.store.tls_row_count
        )
    return stats


def _run_match(
    ctx: StageContext, inputs: Mapping, counters: MetricsRegistry
) -> MatchResult:
    pipeline = ctx.pipeline
    scan, ip2as = inputs["scan"]
    records, _ = inputs["validate"]
    store = scan.store

    # Single pass over rows, but all per-unique-certificate work — the
    # org→HG keyword scan and the lowered dNSName tuples — was computed
    # once per intern-table entry, not once per record.
    org_hgs = pipeline._org_table_hgs(store)
    chain_hgs: list[tuple[str, ...]] = [
        org_hgs[org_index] for org_index in store.chain_org
    ]
    chain_dns_table: list[tuple[str, ...]] = [
        store.dns_table[dns_index] for dns_index in store.chain_dns
    ]
    counters.counter("match_org_scans", unit="unique_orgs").inc(len(org_hgs))
    counters.counter("match_org_scans", unit="rows").inc(len(records))

    keywords = pipeline._keywords
    hg_ases = pipeline._hg_ases
    onnet_ips: dict[str, set[int]] = {k: set() for k in keywords}
    fingerprints: dict[str, set[str]] = {k: set() for k in keywords}
    matching: list[tuple[ValidatedRecord, frozenset[ASN], tuple[str, ...]]] = []
    for record in records:
        hgs = chain_hgs[record.chain_index]
        if not hgs:
            continue
        origins = ip2as.lookup(record.ip)
        if not origins:
            continue
        matching.append((record, origins, hgs))
        if record.expired_only:
            continue
        for keyword in hgs:
            if origins & hg_ases[keyword]:
                onnet_ips[keyword].add(record.ip)
                fingerprints[keyword].update(chain_dns_table[record.chain_index])
    return MatchResult(
        matching=matching,
        chain_dns={
            record.chain_index: chain_dns_table[record.chain_index]
            for record, _, _ in matching
        },
        fingerprints={k: frozenset(v) for k, v in fingerprints.items()},
        onnet_ips={k: frozenset(v) for k, v in onnet_ips.items()},
    )


def _run_onnet(
    ctx: StageContext, inputs: Mapping, counters: MetricsRegistry
) -> dict[str, frozenset[int]]:
    match: MatchResult = inputs["match"]
    label = ctx.snapshot.label
    # The org-matched funnel column is booked here, in a light stage, so
    # warm runs replay it without materializing the heavy match artifact.
    org_matched: dict[str, int] = {}
    for _, _, hgs in match.matching:
        for keyword in hgs:
            org_matched[keyword] = org_matched.get(keyword, 0) + 1
    for keyword, count in org_matched.items():
        counters.counter("funnel_org_matched", hg=keyword, snapshot=label).inc(count)
    onnet = {k: ips for k, ips in match.onnet_ips.items() if ips}
    for keyword, ips in onnet.items():
        counters.counter("funnel_onnet_ips", hg=keyword, snapshot=label).inc(len(ips))
    return onnet


def _run_candidates(
    ctx: StageContext, inputs: Mapping, counters: MetricsRegistry
) -> CandidateSet:
    """§4.3 candidates per HG (plus the Netflix expired variant).  The
    all-dNSNames-subset test depends only on (unique certificate, HG),
    so its result is memoised per (chain_index, keyword) and every
    further row presenting the same certificate reuses it."""
    pipeline = ctx.pipeline
    options = ctx.options
    match: MatchResult = inputs["match"]
    keywords = pipeline._keywords
    hg_ases = pipeline._hg_ases

    by_hg: dict[str, list[Candidate]] = {k: [] for k in keywords}
    netflix_expired: list[Candidate] = []
    subset_ok: dict[tuple[int, str], bool] = {}
    subset_computed = subset_reused = 0
    for record, origins, hgs in match.matching:
        chain_index = record.chain_index
        for keyword in hgs:
            names = match.fingerprints[keyword]
            if not names:
                continue
            if origins & hg_ases[keyword]:
                continue
            if options.require_all_dnsnames:
                key = (chain_index, keyword)
                ok = subset_ok.get(key)
                if ok is None:
                    ok = all(n in names for n in match.chain_dns[chain_index])
                    subset_ok[key] = ok
                    subset_computed += 1
                else:
                    subset_reused += 1
                if not ok:
                    continue
            candidate = Candidate(
                ip=record.ip,
                certificate=record.certificate,
                ases=origins,
                expired_only=record.expired_only,
            )
            if record.expired_only:
                if keyword == "netflix":
                    netflix_expired.append(candidate)
                continue
            by_hg[keyword].append(candidate)
    counters.counter("match_subset_tests", event="computed").inc(subset_computed)
    counters.counter("match_subset_tests", event="reused").inc(subset_reused)

    # §7: the Cloudflare customer-certificate filter rides along here —
    # it reads no options, only the candidate set.
    surviving = [
        c
        for c in by_hg.get("cloudflare", [])
        if not is_cloudflare_customer_cert(c.certificate)
    ]
    return CandidateSet(
        by_hg=by_hg,
        netflix_expired=netflix_expired,
        cloudflare_filtered_ases=_ases_of(surviving),
    )


def _run_confirm(
    ctx: StageContext, inputs: Mapping, counters: MetricsRegistry
) -> ConfirmResult:
    pipeline = ctx.pipeline
    options = ctx.options
    scan, _ = inputs["scan"]
    candidates: CandidateSet = inputs["candidates"]
    label = ctx.snapshot.label
    result = ConfirmResult()
    rules = pipeline.header_rules() if options.header_confirmation else {}
    signals = build_signals(options.signals)
    policy = parse_policy(options.confirm_policy)
    for keyword in pipeline._keywords:
        found = candidates.by_hg[keyword]
        if not found:
            continue
        result.candidate_ips[keyword] = frozenset(c.ip for c in found)
        result.candidate_ases[keyword] = _ases_of(found)
        if options.header_confirmation:
            decisions = evaluate_candidates(
                keyword, found, scan, rules,
                signals=signals,
                policy=policy,
                netflix_nginx_rule=options.netflix_nginx_rule,
                edge_priority=options.edge_priority,
                registry=counters,
            )
            confirmed = [d.candidate for d in decisions if d.confirmed]
            result.confirmed_ips[keyword] = frozenset(c.ip for c in confirmed)
            result.confirmed_ases[keyword] = _ases_of(confirmed)
            result.confirmed_and_ases[keyword] = _ases_of(
                [d.candidate for d in decisions if d.confirmed_and]
            )
        else:
            result.confirmed_ips[keyword] = result.candidate_ips[keyword]
            result.confirmed_ases[keyword] = result.candidate_ases[keyword]
            result.confirmed_and_ases[keyword] = result.candidate_ases[keyword]
        counters.counter("funnel_candidates", hg=keyword, snapshot=label).inc(
            len(result.candidate_ips[keyword])
        )
        counters.counter("funnel_confirmed", hg=keyword, snapshot=label).inc(
            len(result.confirmed_ips[keyword])
        )
    return result


def _run_netflix(
    ctx: StageContext, inputs: Mapping, counters: MetricsRegistry
) -> NetflixResult:
    """§6.2: the per-snapshot half of the Netflix restorations.  The
    non-TLS restoration needs the cross-snapshot "ever a candidate"
    set, so this stage only gathers its inputs: which IPs presented
    Netflix certificates now, and which port-80-only IPs could be
    restored (with their origin ASes resolved while the snapshot's
    ip2as view is at hand)."""
    pipeline = ctx.pipeline
    options = ctx.options
    scan, ip2as = inputs["scan"]
    candidates: CandidateSet = inputs["candidates"]
    rules = pipeline.header_rules() if options.header_confirmation else {}
    with_expired = pipeline._netflix_with_expired(
        ctx.snapshot,
        scan,
        candidates.by_hg.get("netflix", []),
        candidates.netflix_expired,
        rules,
    )
    seen = frozenset(
        {c.ip for c in candidates.by_hg.get("netflix", [])}
        | {c.ip for c in candidates.netflix_expired}
    )
    current_tls_ips = scan.unique_ips()
    restorable: dict[int, frozenset[ASN]] = {}
    for ip, port in zip(scan.store.http_ip, scan.store.http_port, strict=True):
        if port != 80:
            continue
        if ip in current_tls_ips or ip in restorable:
            continue
        origins = ip2as.lookup(ip)
        if origins:
            restorable[ip] = origins
    return NetflixResult(
        with_expired_ases=with_expired, seen=seen, restorable=restorable
    )


def _ases_of(candidates: list[Candidate]) -> frozenset[ASN]:
    ases: set[ASN] = set()
    for candidate in candidates:
        ases |= candidate.ases
    return frozenset(ases)


# -- the graph -----------------------------------------------------------------


def build_offnet_graph() -> StageGraph:
    """The §4 per-snapshot dataflow as a :class:`StageGraph`."""
    return StageGraph(
        (
            Stage(
                name="scan",
                deps=(),
                # on_error is part of the key: on a dirty corpus the error
                # policy decides which records survive ingestion, so every
                # downstream artifact (all stages depend on scan) must
                # re-key when it changes.  quarantine_dir is not: where
                # the quarantine log lands never changes the data.
                option_keys=("corpus", "include_ipv6", "on_error"),
                run=_run_scan,
                cacheable=False,
                produces="(ScanSnapshot, IPToASMap) — the live corpus view",
            ),
            Stage(
                name="ingest",
                deps=("scan",),
                option_keys=(),
                run=_run_ingest,
                version="3",  # v3: format-autodetecting corpus reads (registry)
                produces="IngestStats + corpus/store/ingest shape counters",
            ),
            Stage(
                name="validate",
                deps=("scan",),
                option_keys=("validate_certificates",),
                run=_run_validate,
                # Recomputed, like scan: the validator's cross-snapshot
                # caches rebuild the row list faster than a pickle loads.
                cacheable=False,
                produces="(list[ValidatedRecord], ValidationStats) — §4.1",
            ),
            Stage(
                name="vstats",
                deps=("scan", "validate"),
                # validate_certificates gates the validation_work booking
                # (a passthrough run performs no verifications to count).
                option_keys=("validate_certificates",),
                run=_run_vstats,
                version="2",  # v2: books the validation_work counters
                produces="ValidationStats + the §4.1 funnel/work counters",
            ),
            Stage(
                name="match",
                deps=("scan", "validate"),
                option_keys=(),
                run=_run_match,
                heavy=True,
                produces="MatchResult — org→HG rows + §4.2 fingerprints",
            ),
            Stage(
                name="onnet",
                deps=("match",),
                option_keys=(),
                run=_run_onnet,
                produces="on-net IPs per HG + org-matched funnel counters",
            ),
            Stage(
                name="candidates",
                deps=("match",),
                option_keys=("require_all_dnsnames",),
                run=_run_candidates,
                produces="CandidateSet — §4.3 + the §7 Cloudflare filter",
            ),
            Stage(
                name="confirm",
                deps=("scan", "candidates"),
                option_keys=_CONFIRM_OPTIONS,
                run=_run_confirm,
                version="2",  # v2: multi-signal engine + signal counters
                produces="ConfirmResult — §4.5 per-HG verdict sets",
            ),
            Stage(
                name="netflix",
                deps=("scan", "candidates"),
                option_keys=_CONFIRM_OPTIONS,
                run=_run_netflix,
                version="2",  # v2: option subset gained signals/confirm_policy
                produces="NetflixResult — §6.2 restoration inputs",
            ),
        )
    )


def assemble_outcome(
    snapshot, values: Mapping[str, object], registry: MetricsRegistry
) -> SnapshotOutcome:
    """Fold the terminal stage artifacts into a fresh
    :class:`~repro.core.footprint.SnapshotOutcome`.

    Always builds new footprint/dict objects: cached artifacts may be
    shared across runs (the memory tier returns the same objects), and
    the cross-snapshot merge mutates the footprint it receives.
    """
    ingest: IngestStats = values["ingest"]  # type: ignore[assignment]
    stats: ValidationStats = values["vstats"]  # type: ignore[assignment]
    onnet: dict[str, frozenset[int]] = values["onnet"]  # type: ignore[assignment]
    candidates: CandidateSet = values["candidates"]  # type: ignore[assignment]
    confirm: ConfirmResult = values["confirm"]  # type: ignore[assignment]
    netflix: NetflixResult = values["netflix"]  # type: ignore[assignment]

    footprint = FootprintSnapshot(
        snapshot=snapshot,
        raw_ip_count=ingest.raw_ip_count,
        raw_certificate_count=ingest.raw_certificate_count,
        validation=stats,
    )
    footprint.onnet_ips = dict(onnet)
    footprint.candidate_ips = dict(confirm.candidate_ips)
    footprint.candidate_ases = dict(confirm.candidate_ases)
    footprint.confirmed_ips = dict(confirm.confirmed_ips)
    footprint.confirmed_ases = dict(confirm.confirmed_ases)
    footprint.confirmed_and_ases = dict(confirm.confirmed_and_ases)
    footprint.cloudflare_filtered_ases = candidates.cloudflare_filtered_ases
    footprint.netflix_with_expired_ases = netflix.with_expired_ases
    return SnapshotOutcome(
        footprint=footprint,
        netflix_seen=netflix.seen,
        restorable=dict(netflix.restorable),
        metrics=registry,
    )
