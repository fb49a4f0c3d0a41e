"""The :class:`World` facade: corpuses, BGP, ground truth — one object.

A world is fully determined by its :class:`~repro.world.config.WorldConfig`
(seed + scale).  It exposes:

* ``scan(name, snapshot)`` — the Rapid7 / Censys / certigo corpus for a
  snapshot;
* ``ip2as(snapshot)`` — the merged, filtered Appendix A.1 mapping;
* ground-truth accessors the validation layer compares inferences against.

Corpora, RIBs and maps are large and rebuilt bit-identically from the
seed, so the world keeps only the last one of each it built: what a run
retains does not grow with the number of snapshots.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import OrderedDict
from dataclasses import asdict

from repro.bgp.collector import build_ribs
from repro.bgp.ip2as import IPToASMap
from repro.bgp.rib import RibSnapshot
from repro.hypergiants.deployment import DeploymentPlan
from repro.net.asn import ASN
from repro.net.ipv4 import IPv4Prefix
from repro.scan.records import ScanSnapshot
from repro.scan.scanner import CENSYS, CERTIGO, RAPID7, ScanRows, Scanner, ScannerProfile
from repro.scan.server import SimulatedServer
from repro.timeline import Snapshot
from repro.world.build import WorldParts, build_world_parts
from repro.world.config import WorldConfig
from repro.world.events import EventOverlay
from repro.world.policy import ServingPolicy

__all__ = ["World", "build_world"]

_SCANNER_PROFILES: dict[str, ScannerProfile] = {
    "rapid7": RAPID7,
    "censys": CENSYS,
    "certigo": CERTIGO,
}


class World:
    """The fully built synthetic Internet."""

    def __init__(self, parts: WorldParts) -> None:
        self.config = parts.config
        self.topology = parts.topology
        self.plan: DeploymentPlan = parts.plan
        self.servers: list[SimulatedServer] = parts.servers
        self.hg_onnet_ases = parts.hg_onnet_ases
        self.root_store = parts.root_store
        self.cert_book = parts.cert_book
        self.header_book = parts.header_book
        # Scenario events ride on an overlay consulted by the scanners and
        # the serving policy; event-free worlds carry no overlay at all, so
        # the default hot paths are untouched.
        self.event_overlay: EventOverlay | None = (
            EventOverlay(parts.config.events, parts.topology, parts.plan)
            if parts.config.events
            else None
        )
        self.policy = ServingPolicy(
            parts.cert_book,
            parts.header_book,
            evading_hypergiant=parts.config.evading_hypergiant,
            evasion_strategies=parts.config.evasion_strategies,
            overlay=self.event_overlay,
        )
        self.snapshots = parts.topology.snapshots

        self._server_by_ip = {server.ip: server for server in self.servers}
        self._scanners: dict[str, Scanner] = {}
        self._scan_cache: OrderedDict[tuple[str, Snapshot], ScanSnapshot] = OrderedDict()
        self._rib_cache: dict[Snapshot, list[RibSnapshot]] = {}
        self._ip2as_cache: dict[Snapshot, IPToASMap] = {}
        self._prefix_universe: tuple[IPv4Prefix, ...] | None = None
        self.ipv6_prefixes = parts.ipv6_prefixes
        self._ground_truth_tree = None
        self._dns = None
        self._anycast = None
        self._ip2as6_cache = None
        self._ipv6_scan_cache: dict[Snapshot, ScanSnapshot] = {}

    def fingerprint(self) -> str:
        """A stable identity for this world's data, for the stage-artifact
        cache (:mod:`repro.core.stages.keys`): a world is fully determined
        by its config, so hashing the config fields names every corpus
        byte it can ever serve."""
        document = json.dumps(asdict(self.config), sort_keys=True, default=list)
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
        return f"world:{digest}"

    # -- corpus access -------------------------------------------------------

    @property
    def prefix_universe(self) -> tuple[IPv4Prefix, ...]:
        """Every allocated prefix (the scanners' exclusion universe)."""
        if self._prefix_universe is None:
            prefixes: list[IPv4Prefix] = []
            for per_as in self.topology.prefixes.values():
                prefixes.extend(per_as)
            self._prefix_universe = tuple(sorted(prefixes, key=lambda p: p.network))
        return self._prefix_universe

    def scanner(self, name: str) -> Scanner:
        """The scanner instance for a corpus name."""
        scanner = self._scanners.get(name)
        if scanner is None:
            try:
                profile = _SCANNER_PROFILES[name]
            except KeyError:
                raise KeyError(
                    f"unknown scanner {name!r}; choose from {sorted(_SCANNER_PROFILES)}"
                ) from None
            scanner = Scanner(profile, seed=self.config.seed)
            self._scanners[name] = scanner
        return scanner

    def scan(self, name: str, snapshot: Snapshot, cache_size: int = 1) -> ScanSnapshot:
        """One scanner's corpus for one snapshot, keeping the last
        ``cache_size`` corpora built (LRU)."""
        key = (name, snapshot)
        cached = self._scan_cache.get(key)
        if cached is not None:
            self._scan_cache.move_to_end(key)
            return cached
        result = self.scanner(name).scan(self, snapshot)
        self._scan_cache[key] = result
        while len(self._scan_cache) > cache_size:
            self._scan_cache.popitem(last=False)
        return result

    def shard_cost(self, name: str, snapshot: Snapshot) -> float:
        """Estimated cost of one corpus snapshot, without scanning it —
        the input :meth:`~repro.core.pipeline.OffnetPipeline.shard_plan`
        balances shards by: the servers alive at the snapshot, which
        grow about threefold over the study (Fig. 2).  Every corpus
        sweeps the same servers, so ``name`` does not change it."""
        return float(len(self.servers_at(snapshot)))

    def server_by_ip(self, ip: int) -> SimulatedServer | None:
        """Ground-truth lookup of the server at an address."""
        return self._server_by_ip.get(ip)

    def ground_truth_asn(self, ip: int):
        """The AS that truly owns an address (by prefix assignment) —
        infrastructure-side knowledge (DNS authorities use it), never the
        inference pipeline."""
        from repro.net.ipv6 import is_ipv6_int

        if is_ipv6_int(ip):
            for asn, prefix in self.ipv6_prefixes.items():
                if ip in prefix:
                    return asn
            return None
        if self._ground_truth_tree is None:
            from repro.net.radix import RadixTree

            tree: RadixTree = RadixTree()
            for asn, prefixes in self.topology.prefixes.items():
                for prefix in prefixes:
                    tree.insert(prefix, asn)
            self._ground_truth_tree = tree
        return self._ground_truth_tree.lookup_value(ip)

    @property
    def dns(self):
        """The hypergiants' authoritative DNS (lazy)."""
        if self._dns is None:
            from repro.dns.authority import HypergiantDNS

            self._dns = HypergiantDNS(self)
        return self._dns

    @property
    def anycast(self):
        """The anycast serving model (§3/§7; lazy)."""
        if self._anycast is None:
            from repro.world.anycast import AnycastSystem

            self._anycast = AnycastSystem(self)
        return self._anycast

    # -- BGP / IP-to-AS -------------------------------------------------------

    def ribs(self, snapshot: Snapshot) -> list[RibSnapshot]:
        """Both collectors' monthly RIBs for ``snapshot`` (the last
        snapshot's are kept; each is seeded by its label, so a rebuild is
        identical)."""
        cached = self._rib_cache.get(snapshot)
        if cached is None:
            self._rib_cache.clear()
            rng = random.Random(f"{self.config.seed}:ribs:{snapshot.label}")
            cached = build_ribs(self.topology, snapshot, rng)
            self._rib_cache[snapshot] = cached
        return cached

    def ip2as(self, snapshot: Snapshot) -> IPToASMap:
        """The merged Appendix A.1 IP-to-AS map for ``snapshot`` (the last
        snapshot's is kept)."""
        cached = self._ip2as_cache.get(snapshot)
        if cached is None:
            self._ip2as_cache.clear()
            cached = IPToASMap.from_ribs(self.ribs(snapshot))
            self._ip2as_cache[snapshot] = cached
        return cached

    def ip2as6(self, snapshot: Snapshot):
        """The IPv6 prefix-to-AS map (§7 future work; time-invariant —
        every v6-enabled AS announces its /48 from birth)."""
        if self._ip2as6_cache is None:
            from repro.bgp.ip2as6 import IPv6ToASMap

            mapping = IPv6ToASMap()
            for asn, prefix in self.ipv6_prefixes.items():
                mapping.insert(prefix, frozenset({asn}))
            self._ip2as6_cache = mapping
        return self._ip2as6_cache

    def ip2as_dual(self, snapshot: Snapshot):
        """Both address families behind one lookup (§7 future work)."""
        from repro.bgp.ip2as6 import DualStackMap

        return DualStackMap(self.ip2as(snapshot), self.ip2as6(snapshot))

    def ipv6_scan(self, snapshot: Snapshot) -> ScanSnapshot:
        """A research IPv6 hitlist scan: the §7 future-work corpus.

        Sweeping all of v6 space is infeasible, but a hitlist of announced
        /48s (here: one per v6-enabled AS) captures the IPv6-only servers
        the IPv4 corpuses miss.
        """
        cached = self._ipv6_scan_cache.get(snapshot)
        if cached is not None:
            return cached
        rows = ScanRows()
        for server in self.servers:
            if server.ipv6_only and server.alive_at(snapshot):
                observation = self.policy.observe(
                    server, snapshot, record_https=True, record_http=True
                )
                rows.add(server.ip, *observation)
        result = ScanSnapshot(scanner="ipv6-research", snapshot=snapshot)
        rows.land(result.store)
        self._ipv6_scan_cache[snapshot] = result
        return result

    # -- scenario metadata -----------------------------------------------------

    def scenario_meta(self) -> dict:
        """The scenario identity of this world for the run report's
        ``scenario`` section: the named spec it came from (if any) and its
        event schedule.  Pure config — identical across executors and
        cache states by construction."""
        overlay = self.event_overlay
        return {
            "name": self.config.scenario,
            "seed": self.config.seed,
            "scale": self.config.scale,
            "events": overlay.meta() if overlay is not None else [],
            # Ground-truth effect of cache-withdrawal events: how many
            # (AS, snapshot) cells the plan marked dark.  Pure plan
            # arithmetic, so it needs no scan to have run.
            "withdrawn_as_snapshots": sum(
                len(ases)
                for per_snapshot in self.plan.withdrawn.values()
                for ases in per_snapshot.values()
            ),
        }

    # -- ground truth ----------------------------------------------------------

    def hypergiant_keys(self) -> tuple[str, ...]:
        """Every hypergiant with any ground-truth footprint."""
        return self.plan.hypergiants()

    def true_offnet_ases(self, hypergiant: str, snapshot: Snapshot) -> frozenset[ASN]:
        """Ground truth: ASes hosting the HG's hardware at ``snapshot``.

        For Cloudflare this is empty by definition — its "deployment" is
        customer back-ends, not Cloudflare hardware (§6.1).
        """
        if hypergiant == "cloudflare":
            return frozenset()
        return self.plan.deployed_at(hypergiant, snapshot)

    def true_service_ases(self, hypergiant: str, snapshot: Snapshot) -> frozenset[ASN]:
        """Ground truth: cert-only (service-present) ASes at ``snapshot``."""
        extra = self.plan.service_present_at(hypergiant, snapshot)
        if hypergiant == "cloudflare":
            return extra | self.plan.deployed_at("cloudflare", snapshot)
        return extra

    def onnet_ases(self, hypergiant: str) -> frozenset[ASN]:
        """The HG's own ASes."""
        return self.hg_onnet_ases.get(hypergiant, frozenset())

    def all_hg_ases(self) -> frozenset[ASN]:
        """Every AS owned by any examined hypergiant."""
        result: set[ASN] = set()
        for ases in self.hg_onnet_ases.values():
            result |= ases
        return frozenset(result)

    def servers_at(self, snapshot: Snapshot) -> list[SimulatedServer]:
        """All servers alive at ``snapshot``."""
        return [server for server in self.servers if server.alive_at(snapshot)]


def build_world(
    seed: int = 7,
    scale: float = 0.02,
    config: WorldConfig | None = None,
) -> World:
    """Build a world from a seed and scale (or a full config)."""
    if config is None:
        config = WorldConfig(seed=seed, scale=scale)
    return World(build_world_parts(config))
