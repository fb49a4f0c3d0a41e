"""World construction: populate the topology with every server kind.

The builder is the single place where ground truth is decided; everything
downstream (scanners, pipeline, validation) either observes or infers it.
"""

from __future__ import annotations

import itertools
import random
from repro.hypergiants.certs import CertificateBook
from repro.hypergiants.deployment import DeploymentEngine, DeploymentPlan
from repro.hypergiants.headers import HeaderBook
from repro.hypergiants.profiles import HYPERGIANTS, TOP4, HypergiantProfile
from repro.net.asn import ASN
from repro.scan.server import ServerKind, SimulatedServer
from repro.timeline import STUDY_SNAPSHOTS, Snapshot
from repro.topology.generator import GeneratedTopology, TopologyConfig, generate_topology
from repro.topology.geography import country_by_code
from repro.topology.organizations import Organization
from repro.topology.categories import ConeCategory
from repro.world.config import WorldConfig
from repro.x509.store import build_web_pki

__all__ = ["WorldParts", "build_world_parts"]

#: First ASN handed to hypergiant on-net networks (clearly separated from
#: the generated ASes, well below the reserved 64496+ ranges).
_HG_ASN_BASE = 60001

#: Off-net server IPs per hosting AS, per HG.  Akamai famously uses an
#: order of magnitude more IPs per AS than Facebook (§5 / Table 2).
_OFFNET_IPS_PER_AS: dict[str, int] = {
    "akamai": 8,
    "google": 4,
    "facebook": 3,
    "netflix": 2,
}
_OFFNET_IPS_DEFAULT = 2

#: Background servers per AS at the study's end, by intended cone category.
_BACKGROUND_BASE: dict[ConeCategory, int] = {
    ConeCategory.STUB: 4,
    ConeCategory.SMALL: 8,
    ConeCategory.MEDIUM: 14,
    ConeCategory.LARGE: 28,
    ConeCategory.XLARGE: 44,
}

#: Fraction of background servers alive at the study's start (Fig. 2's
#: TLS-adoption growth: ~8M of ~35M certificates existed in 2013).
_BACKGROUND_START_FRACTION = 0.23

#: HGs whose cert-only ASes are cloud appliances, not CDN edges.
_MGMT_STYLE_HGS = frozenset({"amazon", "microsoft"})


class _IPAllocator:
    """Hands out addresses from each AS's prefixes, striding across them.

    Consecutive allocations within an AS land in *different* /24 blocks:
    real deployments (a hypergiant's caches, an ISP's web servers) are
    scattered through the network's address plan, and a scanner's
    /24-granular exclusion list must never be able to silently erase a
    whole AS's servers — or a whole hypergiant's on-net presence — in one
    bite.  The stride is a prime chosen coprime to the AS's capacity, so
    allocation is collision-free until the space is exhausted.
    """

    _STRIDE_CANDIDATES = (199, 197, 193, 191, 181)

    def __init__(self, topology: GeneratedTopology) -> None:
        self._topology = topology
        self._counters: dict[ASN, int] = {}
        self._plans: dict[ASN, tuple[int, int, tuple]] = {}

    def _plan(self, asn: ASN) -> tuple[int, int, tuple]:
        plan = self._plans.get(asn)
        if plan is None:
            prefixes = self._topology.prefixes.get(asn, ())
            if not prefixes:
                raise RuntimeError(f"AS{asn} has no prefixes")
            # Usable capacity per prefix (network/broadcast skipped).
            sizes = tuple(prefix.num_addresses - 2 for prefix in prefixes)
            capacity = sum(sizes)
            stride = next(
                (s for s in self._STRIDE_CANDIDATES if capacity % s != 0), 1
            )
            plan = (capacity, stride, tuple(zip(prefixes, sizes)))
            self._plans[asn] = plan
        return plan

    def next_ip(self, asn: ASN) -> int:
        capacity, stride, segments = self._plan(asn)
        counter = self._counters.get(asn, 0)
        if counter >= capacity:
            raise RuntimeError(f"AS{asn} ran out of addresses")
        self._counters[asn] = counter + 1
        index = (counter * stride) % capacity
        for prefix, size in segments:
            if index < size:
                return prefix.network + 1 + index
            index -= size
        raise AssertionError("unreachable: index within capacity")

    def next_ip_spread(self, asn: ASN) -> int:
        """Alias kept for call-site clarity: all allocation strides."""
        return self.next_ip(asn)


class WorldParts:
    """Everything the :class:`~repro.world.world.World` facade wraps."""

    def __init__(
        self,
        config: WorldConfig,
        topology: GeneratedTopology,
        plan: DeploymentPlan,
        servers: list[SimulatedServer],
        hg_onnet_ases: dict[str, frozenset[ASN]],
        root_store,
        cert_book: CertificateBook,
        header_book: HeaderBook,
        ipv6_prefixes: dict[ASN, object] | None = None,
    ) -> None:
        self.config = config
        self.topology = topology
        self.plan = plan
        self.servers = servers
        self.hg_onnet_ases = hg_onnet_ases
        self.root_store = root_store
        self.cert_book = cert_book
        self.header_book = header_book
        self.ipv6_prefixes = ipv6_prefixes or {}


def build_world_parts(config: WorldConfig) -> WorldParts:
    """Generate topology, run the deployment engine, create all servers."""
    rng = random.Random(config.seed)

    topology = generate_topology(
        TopologyConfig(
            seed=config.seed,
            n_ases_start=config.n_ases_start,
            n_ases_end=config.n_ases_end,
            region_weights=config.region_weights,
            category_shares=config.cone_shares,
        )
    )

    # One serial counter per world: the same config issues the same
    # certificates, whatever else the process issued before.
    serials = itertools.count(1)
    root_store, issuers = build_web_pki(serials=serials)
    cert_book = CertificateBook(issuers, seed=config.seed, serials=serials)
    header_book = HeaderBook(seed=config.seed)

    hg_onnet_ases = _add_hypergiant_ases(topology, rng, config.hypergiant_roster)
    excluded = frozenset(asn for ases in hg_onnet_ases.values() for asn in ases)

    plan = DeploymentEngine(
        topology,
        scale=config.scale,
        seed=config.seed,
        excluded_ases=excluded,
        events=config.events,
        roster=config.hypergiant_roster,
    ).run()

    allocator = _IPAllocator(topology)
    servers: list[SimulatedServer] = []
    servers.extend(_build_onnet_servers(config, topology, hg_onnet_ases, allocator, rng))
    servers.extend(_build_offnet_servers(config, topology, plan, allocator, rng))
    servers.extend(_build_service_servers(config, topology, plan, allocator, rng))
    servers.extend(_build_adversarial_servers(config, topology, excluded, allocator, rng))
    servers.extend(_build_background_servers(config, topology, excluded, allocator, rng))

    ipv6_only_ases = _select_ipv6_only_ases(config, topology)
    ipv6_prefixes = _assign_ipv6_prefixes(ipv6_only_ases)
    if ipv6_only_ases:
        counters: dict[ASN, int] = {}
        for server in servers:
            if server.asn in ipv6_only_ases:
                server.ipv6_only = True
                # Re-address onto the AS's /48: IPv6-only hosts have no v4.
                counters[server.asn] = counters.get(server.asn, 0) + 1
                server.ip = ipv6_prefixes[server.asn].network + counters[server.asn]

    return WorldParts(
        config=config,
        topology=topology,
        plan=plan,
        servers=servers,
        hg_onnet_ases=hg_onnet_ases,
        root_store=root_store,
        cert_book=cert_book,
        header_book=header_book,
        ipv6_prefixes=ipv6_prefixes,
    )


def _assign_ipv6_prefixes(ipv6_only_ases: frozenset[ASN]):
    """One /48 under 2001::/16 per IPv6-enabled AS."""
    from repro.net.ipv6 import IPv6Prefix

    prefixes = {}
    for index, asn in enumerate(sorted(ipv6_only_ases), start=1):
        prefixes[asn] = IPv6Prefix((0x2001 << 112) | (index << 80), 48)
    return prefixes


def _select_ipv6_only_ases(config: WorldConfig, topology: GeneratedTopology) -> frozenset[ASN]:
    """§7: late-arriving eyeball ASes that never deploy IPv4 services.

    Deterministic in the seed; only ASes born after 2016 qualify (the
    IPv6-only mobile-operator phenomenon is recent).
    """
    if config.ipv6_only_fraction <= 0:
        return frozenset()
    import zlib

    cutoff = Snapshot(2016, 1)
    chosen: set[ASN] = set()
    for asn in sorted(topology.eyeballs):
        if topology.births.get(asn, cutoff) <= cutoff:
            continue
        draw = zlib.crc32(f"ipv6only:{config.seed}:{asn}".encode()) / 2**32
        if draw < config.ipv6_only_fraction:
            chosen.add(asn)
    return frozenset(chosen)


def _add_hypergiant_ases(
    topology: GeneratedTopology,
    rng: random.Random,
    roster: tuple[str, ...] = (),
) -> dict[str, frozenset[ASN]]:
    """Register each HG's own ASes, named after its organisation (A.2).

    A non-empty scenario ``roster`` keeps only those HGs in the world — the
    rest get no on-net ASes (and hence no on-net servers either).
    """
    next_asn = _HG_ASN_BASE
    result: dict[str, frozenset[ASN]] = {}
    for hg in HYPERGIANTS:
        if roster and hg.key not in roster:
            continue
        ases: list[ASN] = []
        for index in range(hg.on_net_as_count):
            asn = next_asn
            next_asn += 1
            organization = Organization(
                org_id=f"ORG-HG-{hg.key}-{index}",
                name=hg.organization,
                country=country_by_code(hg.home_country),
            )
            # Two prefixes per AS: real HG address space spans many blocks,
            # and no single unannounced prefix may erase a HG from BGP.
            lengths = (
                (19, 20)
                if hg.key in set(TOP4) | {"amazon", "microsoft", "cloudflare"}
                else (21, 22)
            )
            topology.add_as(
                asn, organization, birth=STUDY_SNAPSHOTS[0], prefix_lengths=lengths
            )
            ases.append(asn)
        result[hg.key] = frozenset(ases)
    return result


def _salt(rng: random.Random) -> float:
    return rng.random()


def _staggered_birth(rng: random.Random, start_fraction: float) -> Snapshot:
    """Birth drawn so the population ramps linearly from ``start_fraction``."""
    u = rng.random()
    if u < start_fraction:
        return STUDY_SNAPSHOTS[0]
    span = STUDY_SNAPSHOTS[-1].months_since(STUDY_SNAPSHOTS[0])
    progress = (u - start_fraction) / (1.0 - start_fraction)
    return STUDY_SNAPSHOTS[0].plus_months(max(1, round(progress * span)))


def _group_for(hg: HypergiantProfile, rng: random.Random) -> int:
    """Domain-group assignment: the off-net group dominates (Fig. 11)."""
    n = len(hg.domain_groups)
    if n == 1 or rng.random() < 0.55:
        return 0
    return rng.randrange(1, n)


def _build_onnet_servers(
    config: WorldConfig,
    topology: GeneratedTopology,
    hg_onnet_ases: dict[str, frozenset[ASN]],
    allocator: _IPAllocator,
    rng: random.Random,
) -> list[SimulatedServer]:
    servers: list[SimulatedServer] = []
    majors = set(TOP4) | {"amazon", "microsoft", "cloudflare", "apple"}
    for hg in HYPERGIANTS:
        if hg.key not in hg_onnet_ases:
            continue  # outside the scenario roster: no on-net presence
        total = config.onnet_ips_per_hg if hg.key in majors else max(8, config.onnet_ips_per_hg // 3)
        ases = sorted(hg_onnet_ases[hg.key])
        for index in range(total):
            asn = ases[index % len(ases)]
            servers.append(
                SimulatedServer(
                    ip=allocator.next_ip_spread(asn),
                    asn=asn,
                    kind=ServerKind.HG_ONNET,
                    birth=_staggered_birth(rng, 0.4),
                    hypergiant=hg.key,
                    domain_group=_group_for(hg, rng),
                    salt=_salt(rng),
                )
            )
        if hg.key == "cloudflare":
            servers.extend(_build_cloudflare_bundle_edges(config, ases, allocator, rng))
    return servers


def _cf_customer_count(config: WorldConfig) -> int:
    """How many Cloudflare customer back-ends the world contains."""
    from repro.hypergiants.schedules import SCHEDULES, scaled_target

    schedule = SCHEDULES["cloudflare"]
    end = STUDY_SNAPSHOTS[-1]
    return scaled_target(
        schedule.deployed_target(end) + schedule.service_extra_target(end), config.scale
    )


def _build_cloudflare_bundle_edges(
    config: WorldConfig,
    onnet_ases: list[ASN],
    allocator: _IPAllocator,
    rng: random.Random,
) -> list[SimulatedServer]:
    """Cloudflare edges serving the Universal SSL bundles on-net, so the
    §4.2 on-net dNSName set includes every customer domain."""
    bundles = _cf_customer_count(config) // 20 + 1
    servers: list[SimulatedServer] = []
    for bundle in range(bundles):
        for group_offset, base in ((100, bundle), (200, bundle)):
            asn = onnet_ases[bundle % len(onnet_ases)]
            servers.append(
                SimulatedServer(
                    ip=allocator.next_ip_spread(asn),
                    asn=asn,
                    kind=ServerKind.HG_ONNET,
                    birth=STUDY_SNAPSHOTS[0],
                    hypergiant="cloudflare",
                    domain_group=group_offset + base,
                    salt=_salt(rng),
                )
            )
    return servers


def _hosting_interval(
    plan: DeploymentPlan, hypergiant: str, asn: ASN, service: bool = False
) -> tuple[Snapshot, Snapshot | None] | None:
    """(first, last-or-None) snapshot the AS appears in the HG's set."""
    accessor = plan.service_present_at if service else plan.deployed_at
    first: Snapshot | None = None
    last: Snapshot | None = None
    for snapshot in plan.snapshots:
        if asn in accessor(hypergiant, snapshot):
            if first is None:
                first = snapshot
            last = snapshot
    if first is None:
        return None
    death = None if last == plan.snapshots[-1] else last
    return first, death


def _build_offnet_servers(
    config: WorldConfig,
    topology: GeneratedTopology,
    plan: DeploymentPlan,
    allocator: _IPAllocator,
    rng: random.Random,
) -> list[SimulatedServer]:
    from repro.hypergiants.profiles import profile as hg_profile

    servers: list[SimulatedServer] = []
    for hypergiant, per_snapshot in plan.deployed.items():
        if hypergiant == "cloudflare":
            continue  # materialised as CF_CUSTOMER back-ends instead
        profile = hg_profile(hypergiant)
        ever_hosting = sorted(set().union(*per_snapshot.values()) if per_snapshot else set())
        per_as = config.offnet_ips_per_as or _OFFNET_IPS_PER_AS.get(
            hypergiant, _OFFNET_IPS_DEFAULT
        )
        for asn in ever_hosting:
            interval = _hosting_interval(plan, hypergiant, asn)
            if interval is None:
                continue
            birth, death = interval
            for index in range(per_as):
                # Deployments densify over time: the first server appears
                # when the AS starts hosting, the rest ramp in later — this
                # is what makes the off-net IP share of Figure 2 *grow*
                # faster than the corpus itself.
                server_birth = birth
                if index > 0:
                    ramp = _staggered_birth(rng, 0.15)
                    server_birth = max(birth, ramp)
                if death is not None and server_birth > death:
                    server_birth = birth
                salt = _salt(rng)
                headerless = False
                nginx_default = False
                if hypergiant == "netflix":
                    nginx_default = salt < profile.default_nginx_fraction
                    headerless = (
                        profile.default_nginx_fraction
                        <= salt
                        < profile.default_nginx_fraction + profile.headerless_fraction
                    )
                elif profile.headerless_fraction:
                    headerless = salt < profile.headerless_fraction
                servers.append(
                    SimulatedServer(
                        ip=allocator.next_ip(asn),
                        asn=asn,
                        kind=ServerKind.HG_OFFNET,
                        birth=server_birth,
                        death=death,
                        hypergiant=hypergiant,
                        headerless=headerless,
                        nginx_default=nginx_default,
                        domain_group=0,
                        salt=salt,
                    )
                )
    return servers


def _build_service_servers(
    config: WorldConfig,
    topology: GeneratedTopology,
    plan: DeploymentPlan,
    allocator: _IPAllocator,
    rng: random.Random,
) -> list[SimulatedServer]:
    """Cert-only ASes: third-party edges, cloud appliances, CF customers."""
    servers: list[SimulatedServer] = []
    edge_pool = ("akamai", "fastly", "verizon")
    cf_customer_id = 0

    # Cloudflare's *deployed* set is, in ground truth, customer back-ends.
    for asn in sorted(set().union(*plan.deployed.get("cloudflare", {}).values() or [set()])):
        interval = _hosting_interval(plan, "cloudflare", asn)
        if interval is None:
            continue
        birth, death = interval
        salt = _salt(rng)
        dedicated = salt < 0.25
        servers.append(
            SimulatedServer(
                ip=allocator.next_ip(asn),
                asn=asn,
                kind=ServerKind.CF_CUSTOMER,
                birth=birth,
                death=death,
                hypergiant="cloudflare",
                dedicated_cert=dedicated,
                domain_group=cf_customer_id if dedicated else cf_customer_id // 20,
                salt=salt,
            )
        )
        cf_customer_id += 1

    for hypergiant, per_snapshot in plan.service_present.items():
        ever = sorted(set().union(*per_snapshot.values()) if per_snapshot else set())
        for asn in ever:
            interval = _hosting_interval(plan, hypergiant, asn, service=True)
            if interval is None:
                continue
            birth, death = interval
            salt = _salt(rng)
            if hypergiant == "cloudflare":
                dedicated = salt < 0.25
                servers.append(
                    SimulatedServer(
                        ip=allocator.next_ip(asn),
                        asn=asn,
                        kind=ServerKind.CF_CUSTOMER,
                        birth=birth,
                        death=death,
                        hypergiant="cloudflare",
                        dedicated_cert=dedicated,
                        domain_group=cf_customer_id if dedicated else cf_customer_id // 20,
                        salt=salt,
                    )
                )
                cf_customer_id += 1
                continue
            if hypergiant in _MGMT_STYLE_HGS:
                kind = ServerKind.MGMT_INTERFACE
                edge = ""
            else:
                kind = ServerKind.HG_SERVICE
                edge = edge_pool[int(salt * len(edge_pool))]
            servers.append(
                SimulatedServer(
                    ip=allocator.next_ip(asn),
                    asn=asn,
                    kind=kind,
                    birth=birth,
                    death=death,
                    hypergiant=hypergiant,
                    edge_hypergiant=edge,
                    salt=salt,
                )
            )
    return servers


def _build_adversarial_servers(
    config: WorldConfig,
    topology: GeneratedTopology,
    excluded: frozenset[ASN],
    allocator: _IPAllocator,
    rng: random.Random,
) -> list[SimulatedServer]:
    """Forged-DV and shared-certificate servers (§3/§4 noise cases)."""
    servers: list[SimulatedServer] = []
    candidate_ases = sorted(topology.graph.ases - excluded)
    for index in range(config.fake_dv_servers):
        asn = rng.choice(candidate_ases)
        servers.append(
            SimulatedServer(
                ip=allocator.next_ip(asn),
                asn=asn,
                kind=ServerKind.FAKE_DV,
                birth=_staggered_birth(rng, 0.3),
                hypergiant=rng.choice(TOP4),
                domain_group=index,
                salt=_salt(rng),
            )
        )
    for index in range(config.shared_cert_servers):
        asn = rng.choice(candidate_ases)
        servers.append(
            SimulatedServer(
                ip=allocator.next_ip(asn),
                asn=asn,
                kind=ServerKind.SHARED_CERT,
                birth=_staggered_birth(rng, 0.3),
                hypergiant=rng.choice(("twitter", "microsoft", "apple")),
                domain_group=index,
                salt=_salt(rng),
            )
        )
    return servers


def _build_background_servers(
    config: WorldConfig,
    topology: GeneratedTopology,
    hg_ases: frozenset[ASN],
    allocator: _IPAllocator,
    rng: random.Random,
) -> list[SimulatedServer]:
    servers: list[SimulatedServer] = []
    site_id = 0
    for asn in sorted(topology.graph.ases - hg_ases):
        category = topology.intended_category.get(asn, ConeCategory.STUB)
        count = max(1, round(_BACKGROUND_BASE[category] * config.background_density))
        as_birth = topology.births[asn]
        for _ in range(count):
            birth = _staggered_birth(rng, _BACKGROUND_START_FRACTION)
            if birth < as_birth:
                birth = as_birth
            invalid_mode = ""
            draw = rng.random()
            if draw < config.invalid_fraction:
                slice_ = draw / config.invalid_fraction
                if slice_ < 0.5:
                    invalid_mode = "expired"
                elif slice_ < 0.8:
                    invalid_mode = "self-signed"
                else:
                    invalid_mode = "untrusted"
            servers.append(
                SimulatedServer(
                    ip=allocator.next_ip(asn),
                    asn=asn,
                    kind=ServerKind.BACKGROUND,
                    birth=birth,
                    domain_group=site_id,
                    invalid_mode=invalid_mode,
                    salt=_salt(rng),
                )
            )
            site_id += 1
    return servers
