"""The three scan corpuses: Rapid7, Censys, and the authors' certigo scan.

Each scanner walks every live server in the world and records what a real
no-SNI port-443 handshake (and HTTP(S) GETs) would capture, with the
idiosyncrasies the paper documents in §5 and Table 2:

* **Rapid7** and **Censys** are long-running services with complaint-driven
  exclusion lists that grow over the years, plus per-scan response loss from
  rate limiting.
* **certigo** (the authors' own four-day scan) has no exclusion history and
  triggers less rate limiting, so it finds ~20% more IPs.
* Rapid7's HTTP header corpus exists from the study's start; its **HTTPS**
  header corpus only from July 2016 (§6.2); Censys corpuses from late 2019.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.scan.exclusions import ExclusionList
from repro.scan.records import ScanSnapshot
from repro.store import SnapshotStore
from repro.timeline import CENSYS_AVAILABLE, HTTPS_HEADERS_AVAILABLE, Snapshot

__all__ = ["ScannerProfile", "Scanner", "ScanRows", "RAPID7", "CENSYS", "CERTIGO"]

_HASH_A = 2654435761
_HASH_B = 2246822519


def _uniform(ip: int, tag: int, snapshot_index: int) -> float:
    """Cheap deterministic uniform(0,1) per (ip, scanner, snapshot)."""
    x = (ip * _HASH_A) ^ (snapshot_index * _HASH_B) ^ (tag * 0x9E3779B9)
    x &= 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x45D9F3B) & 0xFFFFFFFF
    x ^= x >> 16
    return x / 2**32


@dataclass(frozen=True, slots=True)
class ScannerProfile:
    """Static description of one scan corpus."""

    name: str
    #: Per-server response probability (rate limiting, transient loss).
    visibility: float
    #: Complaint-list growth per year of operation (None: one-off scan).
    exclusion_growth_per_year: float | None
    #: Scanner start of operation (exclusions accrue from here).
    operating_since: Snapshot
    #: First snapshot with data at all (Censys corpuses start late 2019).
    available_since: Snapshot
    #: First snapshot with HTTPS response headers.
    https_headers_since: Snapshot | None
    #: First snapshot with plain-HTTP (port 80) response headers.
    http_headers_since: Snapshot | None


RAPID7 = ScannerProfile(
    name="rapid7",
    visibility=0.93,
    exclusion_growth_per_year=0.012,
    operating_since=Snapshot(2013, 6),
    available_since=Snapshot(2013, 10),
    https_headers_since=HTTPS_HEADERS_AVAILABLE,
    http_headers_since=Snapshot(2013, 10),
)

CENSYS = ScannerProfile(
    name="censys",
    visibility=0.935,
    exclusion_growth_per_year=0.010,
    operating_since=Snapshot(2015, 10),
    available_since=CENSYS_AVAILABLE,
    https_headers_since=CENSYS_AVAILABLE,
    http_headers_since=CENSYS_AVAILABLE,
)

CERTIGO = ScannerProfile(
    name="certigo",
    visibility=0.995,
    exclusion_growth_per_year=None,  # fresh scan, no complaint history
    operating_since=Snapshot(2019, 10),
    available_since=Snapshot(2019, 10),
    https_headers_since=None,  # certificate-only active scan
    http_headers_since=None,
)


class ScanRows:
    """One snapshot's scan rows, gathered column by column and landed in
    a store with one :meth:`~repro.store.SnapshotStore.add_rows` call.

    :meth:`add` files one server's observation (what
    :meth:`~repro.world.policy.ServingPolicy.observe` returns).  Columns
    instead of row tuples: no per-row object outlives the scan, so the
    rows never reach the collector's older generations.
    """

    __slots__ = ("tls_ip", "tls_chain", "tls_stack", "http_ip", "http_port", "http_headers")

    def __init__(self) -> None:
        self.tls_ip: list[int] = []
        self.tls_chain: list = []
        self.tls_stack: list = []
        self.http_ip: list[int] = []
        self.http_port: list[int] = []
        self.http_headers: list = []

    def add(self, ip: int, chain, stack, https_headers, http_headers) -> None:
        """A TLS row when ``chain`` is set, then one HTTP row per port
        whose headers are set (443 before 80)."""
        if chain is not None:
            self.tls_ip.append(ip)
            self.tls_chain.append(chain)
            self.tls_stack.append(stack)
            if https_headers is not None:
                self.http_ip.append(ip)
                self.http_port.append(443)
                self.http_headers.append(https_headers)
        if http_headers is not None:
            self.http_ip.append(ip)
            self.http_port.append(80)
            self.http_headers.append(http_headers)

    def land(self, store: SnapshotStore) -> None:
        """Append every gathered row to ``store``."""
        store.add_rows(
            zip(self.tls_ip, self.tls_chain, self.tls_stack),
            zip(self.http_ip, self.http_port, self.http_headers),
        )


class Scanner:
    """Runs one scanner profile against a world."""

    def __init__(self, profile: ScannerProfile, seed: int = 0) -> None:
        self.profile = profile
        # Stable across processes (unlike hash() on strings).
        self._tag = (zlib.crc32(profile.name.encode()) ^ seed) & 0xFFFFFF
        if profile.exclusion_growth_per_year is None:
            self._exclusions = None
        else:
            self._exclusions = ExclusionList(
                growth_per_year=profile.exclusion_growth_per_year,
                operating_since=profile.operating_since,
                seed=self._tag,
            )

    def scan(
        self,
        world,
        snapshot: Snapshot,
        registry: MetricsRegistry | None = None,
    ) -> ScanSnapshot:
        """Produce this scanner's corpus for ``snapshot``.

        ``world`` is a :class:`repro.world.World` (duck-typed: needs
        ``servers``, ``policy`` and ``prefix_universe``).  What each
        reached server answers comes from ``policy.observe``, memoised per
        server and epoch (:meth:`~repro.world.policy.ServingPolicy.epoch`),
        so sweeping the timeline derives an ordinary web server's rows
        once per year; the snapshot's rows land in the store with one
        :meth:`~repro.store.SnapshotStore.add_rows` call.

        With a ``registry``, the sweep accounts for where coverage went:
        ``scan_servers_total{scanner, outcome}`` counts every live server
        as reached / excluded (complaint lists) / unresponsive (rate
        limiting) / ipv6_only — plus, in scenario worlds, withdrawn
        (cache-withdrawal events) and scan_outage (regional blackouts) —
        and ``scan_records_total{scanner, kind}`` the TLS and HTTP records
        the corpus ends up with.  Outcomes are tallied in the loop and
        each nonzero one is booked once at the end.
        """
        profile = self.profile
        if snapshot < profile.available_since:
            raise ValueError(
                f"{profile.name} has no data before {profile.available_since}; "
                f"requested {snapshot}"
            )
        excluded: frozenset[int] = frozenset()
        if self._exclusions is not None:
            excluded = self._exclusions.excluded_blocks(world.prefix_universe, snapshot)

        record_https = (
            profile.https_headers_since is not None and snapshot >= profile.https_headers_since
        )
        record_http = (
            profile.http_headers_since is not None and snapshot >= profile.http_headers_since
        )

        observe = world.policy.observe
        # Scenario worlds carry an event overlay; the default world carries
        # none, so the per-server loop below pays nothing for it.
        overlay = getattr(world, "event_overlay", None)
        index = snapshot.index
        tag = self._tag
        visibility = profile.visibility
        rows = ScanRows()
        add_row = rows.add
        ipv6_only = outage = withdrawn = excluded_count = unresponsive = reached = 0
        for server in world.servers:
            if not server.birth_index <= index <= server.death_index:
                continue
            if server.ipv6_only:
                ipv6_only += 1
                continue  # IPv4-wide scans never reach IPv6-only hosts (§7)
            if overlay is not None:
                if overlay.scan_suppressed(profile.name, server.asn, snapshot):
                    outage += 1
                    continue
                if overlay.withdrawal_suppressed(server, snapshot):
                    withdrawn += 1
                    continue
            ip = server.ip
            if excluded and (ip & ~0xFF) in excluded:
                excluded_count += 1
                continue
            if _uniform(ip, tag, index) >= visibility:
                unresponsive += 1
                continue
            reached += 1
            add_row(ip, *observe(server, snapshot, record_https, record_http))

        result = ScanSnapshot(scanner=profile.name, snapshot=snapshot)
        rows.land(result.store)
        if registry is not None:
            outcomes = {
                "ipv6_only": ipv6_only,
                "scan_outage": outage,
                "withdrawn": withdrawn,
                "excluded": excluded_count,
                "unresponsive": unresponsive,
                "reached": reached,
            }
            for outcome, count in outcomes.items():
                if count:
                    registry.counter(
                        "scan_servers_total", scanner=profile.name, outcome=outcome
                    ).inc(count)
            registry.counter(
                "scan_records_total", scanner=profile.name, kind="tls"
            ).inc(result.store.tls_row_count)
            registry.counter(
                "scan_records_total", scanner=profile.name, kind="http"
            ).inc(result.store.http_row_count)
        return result
