"""Result containers for the longitudinal pipeline.

:class:`SnapshotOutcome` is the output of the *pure* per-snapshot phase:
everything a snapshot's footprint needs plus the two inputs the ordered
cross-snapshot merge consumes (the Netflix §6.2 restoration is the only
cross-snapshot state).  Outcomes are plain picklable data, which is what
lets :class:`~repro.core.executor.ParallelExecutor` compute them in worker
processes and merge them in the parent in snapshot order — bit-identical
to a sequential run.

:class:`FootprintIndex` is the longitudinal query surface every
analysis module consumes.  It is deliberately defined here (next to the
data it reads) and is the one base class of both implementations: the
batch :class:`PipelineResult` and the durable index's committed
:class:`~repro.core.footprint_index.IndexView`, so batch results and
persistent indexes answer the same questions identically.  Analysis
code imports the surface from :mod:`repro.core.footprint_index`;
nothing outside the core should touch ``PipelineResult.by_snapshot``
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.validation import ValidationCacheStats, ValidationStats
from repro.net.asn import ASN
from repro.obs.metrics import MetricsRegistry
from repro.obs.timers import STAGE_SECONDS
from repro.timeline import Snapshot

__all__ = [
    "FootprintSnapshot",
    "SnapshotOutcome",
    "FootprintIndex",
    "PipelineResult",
]


@dataclass(slots=True)
class FootprintSnapshot:
    """Everything the pipeline inferred for one corpus snapshot."""

    snapshot: Snapshot
    #: Raw corpus size: IPs presenting any certificate (Fig. 2 left axis).
    raw_ip_count: int
    #: Distinct end-entity certificates in the raw corpus.
    raw_certificate_count: int
    validation: ValidationStats
    #: §4.3 candidates per HG (the "only certs" numbers).
    candidate_ips: dict[str, frozenset[int]] = field(default_factory=dict)
    candidate_ases: dict[str, frozenset[ASN]] = field(default_factory=dict)
    #: §4.5 confirmed off-nets per HG, "http or https" headers (default).
    confirmed_ips: dict[str, frozenset[int]] = field(default_factory=dict)
    confirmed_ases: dict[str, frozenset[ASN]] = field(default_factory=dict)
    #: Figure 4's stricter "http AND https" variant.
    confirmed_and_ases: dict[str, frozenset[ASN]] = field(default_factory=dict)
    #: On-net IPs per HG (learned fingerprint support, Fig. 2 dashed line).
    onnet_ips: dict[str, frozenset[int]] = field(default_factory=dict)
    #: Cloudflare candidates surviving the §7 customer-cert filter.
    cloudflare_filtered_ases: frozenset[ASN] = frozenset()
    #: Netflix variants (§6.2): candidates/confirmed including expired
    #: certificates, and ASes restored via the HTTP-only evidence.
    netflix_with_expired_ases: frozenset[ASN] = frozenset()
    netflix_restored_ases: frozenset[ASN] = frozenset()

    def hg_ip_share_onnet(self) -> float:
        """% of corpus IPs holding a HG certificate inside HG ASes."""
        if self.raw_ip_count == 0:
            return 0.0
        ips = set().union(*self.onnet_ips.values()) if self.onnet_ips else set()
        return len(ips) / self.raw_ip_count * 100.0

    def hg_ip_share_offnet(self) -> float:
        """% of corpus IPs holding a HG certificate outside HG ASes."""
        if self.raw_ip_count == 0:
            return 0.0
        ips = set().union(*self.candidate_ips.values()) if self.candidate_ips else set()
        return len(ips) / self.raw_ip_count * 100.0


@dataclass(slots=True)
class SnapshotOutcome:
    """The pure per-snapshot phase's output, before the cross-snapshot merge.

    ``footprint.netflix_restored_ases`` is left empty here; the merge phase
    fills it in snapshot order from ``netflix_seen`` / ``restorable``.
    """

    footprint: FootprintSnapshot
    #: IPs that presented a Netflix certificate (valid or expired-only) in
    #: this snapshot — the contribution to the "ever a candidate" set.
    netflix_seen: frozenset[int] = frozenset()
    #: Port-80-only IPs (answering HTTP but silent on 443) mapped to their
    #: origin ASes — restoration candidates if they ever served Netflix.
    restorable: dict[int, frozenset[ASN]] = field(default_factory=dict)
    #: Everything this snapshot measured about itself — stage timing
    #: spans, funnel counters, validation-cache deltas.  Built fresh per
    #: snapshot so the merge phase can fold worker registries in snapshot
    #: order and make ``jobs=N`` counters identical to ``jobs=1``.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def timings(self) -> dict[str, float]:
        """Wall-clock seconds per pipeline stage for this snapshot
        (a view over the ``stage_seconds`` histograms)."""
        return _stage_totals(self.metrics)

    @property
    def cache(self) -> ValidationCacheStats:
        """Validation-cache hit/miss deltas incurred by this snapshot
        (a view over the ``validation_cache_events`` counters)."""
        return _cache_stats(self.metrics)


class FootprintIndex:
    """The longitudinal query surface over per-snapshot footprints: an
    ordered corpus of footprint snapshots.

    Implementations provide ``corpus``, ``snapshots`` (ordered) and
    :meth:`at`; every derived query — counts, series, AS sets, diffs —
    is defined once here so an in-memory batch result and a durable
    on-disk index cannot drift apart.
    """

    corpus: str
    snapshots: tuple[Snapshot, ...]

    def at(self, snapshot: Snapshot) -> FootprintSnapshot:
        """The footprint snapshot for one date."""
        raise NotImplementedError

    def footprints(self) -> Iterator[FootprintSnapshot]:
        """Every footprint snapshot, in snapshot order."""
        for snapshot in self.snapshots:
            yield self.at(snapshot)

    def as_count(self, hypergiant: str, snapshot: Snapshot, metric: str = "confirmed") -> int:
        """Off-net AS count for one HG at one snapshot.

        ``metric``: ``"confirmed"`` (certs + headers, the headline numbers),
        ``"candidates"`` (certs only — Table 3's parenthesised values),
        ``"confirmed_and"`` (headers on both ports), or the Netflix
        variants ``"with_expired"`` / ``"with_expired_nontls"``.
        """
        footprint = self.at(snapshot)
        if metric == "confirmed":
            return len(footprint.confirmed_ases.get(hypergiant, ()))
        if metric == "candidates":
            return len(footprint.candidate_ases.get(hypergiant, ()))
        if metric == "confirmed_and":
            return len(footprint.confirmed_and_ases.get(hypergiant, ()))
        if metric == "with_expired":
            if hypergiant != "netflix":
                raise ValueError("the with_expired metric is Netflix-specific (§6.2)")
            return len(footprint.netflix_with_expired_ases)
        if metric == "with_expired_nontls":
            if hypergiant != "netflix":
                raise ValueError("the with_expired_nontls metric is Netflix-specific (§6.2)")
            return len(footprint.netflix_with_expired_ases | footprint.netflix_restored_ases)
        raise ValueError(f"unknown metric {metric!r}")

    def series(
        self, hypergiant: str, metric: str = "confirmed"
    ) -> list[tuple[Snapshot, int]]:
        """(snapshot, AS count) series for one HG across the corpus."""
        return [
            (snapshot, self.as_count(hypergiant, snapshot, metric))
            for snapshot in self.snapshots
        ]

    def footprint_ases(
        self, hypergiant: str, snapshot: Snapshot, metric: str = "confirmed"
    ) -> frozenset[ASN]:
        """The inferred host-AS set itself (for demographic analyses)."""
        footprint = self.at(snapshot)
        if metric == "confirmed":
            return footprint.confirmed_ases.get(hypergiant, frozenset())
        if metric == "candidates":
            return footprint.candidate_ases.get(hypergiant, frozenset())
        if metric == "confirmed_and":
            return footprint.confirmed_and_ases.get(hypergiant, frozenset())
        if metric == "envelope" and hypergiant == "netflix":
            # §6.2: "the envelope of these two lines" is Netflix's footprint.
            return (
                footprint.netflix_with_expired_ases
                | footprint.netflix_restored_ases
                | footprint.confirmed_ases.get("netflix", frozenset())
            )
        raise ValueError(f"unknown metric {metric!r}")

    def effective_footprint(self, hypergiant: str, snapshot: Snapshot) -> frozenset[ASN]:
        """The footprint the paper uses downstream: the Netflix envelope for
        Netflix, plain confirmed for everyone else."""
        if hypergiant == "netflix":
            return self.footprint_ases("netflix", snapshot, "envelope")
        return self.footprint_ases(hypergiant, snapshot, "confirmed")

    def hypergiants(self, metric: str = "confirmed") -> tuple[str, ...]:
        """HGs with a nonzero footprint anywhere in the corpus.

        ``metric`` selects the footprint table consulted: ``"confirmed"``
        (the default headline set) or ``"candidates"`` (cert-only — the
        superset Table 3 reports in parentheses)."""
        if metric not in ("confirmed", "candidates"):
            raise ValueError(f"unknown metric {metric!r}")
        seen: set[str] = set()
        for footprint in self.footprints():
            table = (
                footprint.confirmed_ases
                if metric == "confirmed"
                else footprint.candidate_ases
            )
            for hypergiant, ases in table.items():
                if ases:
                    seen.add(hypergiant)
        return tuple(sorted(seen))

    def diff(
        self,
        hypergiant: str,
        earlier: Snapshot,
        later: Snapshot,
        metric: str = "confirmed",
    ) -> tuple[frozenset[ASN], frozenset[ASN]]:
        """``(added, removed)`` host ASes for one HG between two snapshots.

        ``metric`` accepts everything :meth:`footprint_ases` does plus
        ``"effective"`` (the paper's downstream footprint choice)."""

        def ases(snapshot: Snapshot) -> frozenset[ASN]:
            if metric == "effective":
                return self.effective_footprint(hypergiant, snapshot)
            return self.footprint_ases(hypergiant, snapshot, metric)

        before, after = ases(earlier), ases(later)
        return frozenset(after - before), frozenset(before - after)


@dataclass(slots=True)
class PipelineResult(FootprintIndex):
    """The pipeline's output across a corpus's snapshots."""

    corpus: str
    snapshots: tuple[Snapshot, ...]
    by_snapshot: dict[Snapshot, FootprintSnapshot]
    #: Per-snapshot registries folded in snapshot order at the merge
    #: barrier, plus the merge stage's own span.  Excluded from equality
    #: so serial and parallel runs of the same world compare equal
    #: (timing histograms and cache-event counters legitimately differ).
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry, compare=False)
    #: How the run was produced: the pipeline options in force and the
    #: executor's self-description (jobs, workers, serial fallbacks).
    run_meta: dict = field(default_factory=dict, compare=False)

    @property
    def timings(self) -> dict[str, float]:
        """Wall-clock seconds per pipeline stage, summed over snapshots
        (the parallel executor sums worker-side timings, so this is
        CPU-style aggregate work, not elapsed time)."""
        return _stage_totals(self.metrics)

    @property
    def validation_cache(self) -> ValidationCacheStats:
        """Aggregated §4.1 validation-cache counters across snapshots."""
        return _cache_stats(self.metrics)

    def report(self) -> dict:
        """The versioned JSON-safe run report (``repro.run-report/1``) —
        see :mod:`repro.obs.report` for the schema and its deterministic
        view."""
        from repro.obs.report import build_report

        return build_report(self)

    def at(self, snapshot: Snapshot) -> FootprintSnapshot:
        """The footprint snapshot for one date."""
        return self.by_snapshot[snapshot]


def _stage_totals(metrics: MetricsRegistry) -> dict[str, float]:
    """``{stage: total seconds}`` over the ``stage_seconds`` histograms."""
    return {
        stage: histogram.total
        for stage, histogram in metrics.histograms_by_label(
            STAGE_SECONDS, "stage"
        ).items()
    }


def _cache_stats(metrics: MetricsRegistry) -> ValidationCacheStats:
    """The ``validation_cache_events`` counters as the legacy stats type."""

    def events(cache: str, event: str) -> int:
        return metrics.counter_value("validation_cache_events", cache=cache, event=event)

    return ValidationCacheStats(
        static_hits=events("static", "hit"),
        static_misses=events("static", "miss"),
        window_hits=events("window", "hit"),
        window_misses=events("window", "miss"),
    )
