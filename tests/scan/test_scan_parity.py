"""The memoised world scan against a per-row reference.

``Scanner.scan`` and ``World.ipv6_scan`` take each server's rows from
``ServingPolicy.observe`` — memoised per server and epoch — and land a
snapshot's rows with one ``SnapshotStore.add_rows`` call.  The reference
below is the per-row loop they replaced: every reached server asks
``https_enabled``, ``default_chain``, ``stack_profile`` and ``headers``
afresh, and every row goes through ``add_tls``/``add_http``; its
exclusion set is rebuilt and reshuffled per snapshot.

Chains are issued lazily, and every certificate a world issues draws its
serial from that world's one counter, so a memo that skipped or reordered
a first issuance would shift serials and fingerprints.  Each comparison
therefore runs on two worlds built from one config: equal stores — every
column, intern table, and each chain certificate's fingerprint, serial
and provenance — mean equal issuance order too.
"""

import random
import zlib

import pytest

from repro.scan import scanner as scanner_module
from repro.scan.server import ServerKind
from repro.scenario.registry import get_scenario
from repro.store import SnapshotStore
from repro.timeline import STUDY_SNAPSHOTS, Snapshot
from repro.world import build_world
from repro.world.config import WorldConfig

LATE = tuple(s for s in STUDY_SNAPSHOTS if s >= Snapshot(2019, 10))

#: The default world: all three scanners and the IPv6 hitlist over the
#: whole timeline, then out-of-order and repeated scans.
DEFAULT_PLAN = (
    tuple(("rapid7", s) for s in STUDY_SNAPSHOTS)
    + tuple(("ipv6", s) for s in STUDY_SNAPSHOTS)
    + tuple((name, s) for s in LATE for name in ("censys", "certigo", "rapid7"))
    + (
        ("rapid7", Snapshot(2016, 4)),
        ("rapid7", Snapshot(2014, 1)),
        ("certigo", Snapshot(2021, 4)),
        ("rapid7", Snapshot(2016, 7)),
        ("rapid7", Snapshot(2016, 4)),
        ("censys", Snapshot(2020, 1)),
        ("censys", Snapshot(2020, 1)),
    )
)
#: Event worlds: every other Rapid7 snapshot, which crosses every event
#: window and still scans each year twice.
EVENT_PLAN = tuple(("rapid7", s) for s in STUDY_SNAPSHOTS[::2]) + (
    ("censys", Snapshot(2020, 1)),
    ("rapid7", Snapshot(2015, 1)),
)
#: Evasion worlds: the evader's off-nets are snapshot-epoch servers, so
#: the late scanners interleaved on shared snapshots are what matter.
EVASION_PLAN = tuple(
    (name, s) for s in LATE[:2] for name in ("rapid7", "censys", "certigo")
) + (("rapid7", Snapshot(2017, 4)), ("rapid7", Snapshot(2019, 10)))

EVENT_SCENARIOS = ("cert-rotation", "flash-crowd", "netflix-withdrawal", "regional-outage")
CONFIGS = {
    "default": (
        WorldConfig(seed=11, scale=0.004, ipv6_only_fraction=0.3),
        DEFAULT_PLAN,
    ),
    **{
        name: (get_scenario(name).world_config(seed=5, scale=0.004), EVENT_PLAN)
        for name in EVENT_SCENARIOS
    },
    **{
        strategy: (
            WorldConfig(
                seed=5,
                scale=0.004,
                evading_hypergiant="google",
                evasion_strategies=(strategy,),
            ),
            EVASION_PLAN,
        )
        for strategy in WorldConfig._KNOWN_EVASIONS
    },
}


def reference_excluded_blocks(profile, seed, universe, snapshot):
    """The complaint list rebuilt from scratch for one snapshot."""
    if profile.exclusion_growth_per_year is None:
        return frozenset()
    months = max(0, snapshot.months_since(profile.operating_since))
    fraction = min(0.5, profile.exclusion_growth_per_year * months / 12.0)
    blocks = []
    for prefix in universe:
        if prefix.length > 24:
            blocks.append(prefix.network & ~0xFF)
        else:
            blocks.extend(range(prefix.network, prefix.network + prefix.num_addresses, 256))
    ordering = sorted(blocks)
    random.Random(seed).shuffle(ordering)
    return frozenset(ordering[: int(len(ordering) * fraction)])


def alive(server, snapshot) -> bool:
    """Liveness by comparing snapshots, as the per-row loop did."""
    return server.birth <= snapshot and (server.death is None or snapshot <= server.death)


def reference_scan(world, name, snapshot) -> SnapshotStore:
    """One scanner's snapshot, derived per row."""
    profile = world.scanner(name).profile
    tag = (zlib.crc32(profile.name.encode()) ^ world.config.seed) & 0xFFFFFF
    excluded = reference_excluded_blocks(profile, tag, world.prefix_universe, snapshot)
    https_headers = (
        profile.https_headers_since is not None and snapshot >= profile.https_headers_since
    )
    http_headers = (
        profile.http_headers_since is not None and snapshot >= profile.http_headers_since
    )
    policy = world.policy
    overlay = world.event_overlay
    store = SnapshotStore()
    for server in world.servers:
        if not alive(server, snapshot) or server.ipv6_only:
            continue
        if overlay is not None and (
            overlay.scan_suppressed(profile.name, server.asn, snapshot)
            or overlay.withdrawal_suppressed(server, snapshot)
        ):
            continue
        if (server.ip & ~0xFF) in excluded:
            continue
        if scanner_module._uniform(server.ip, tag, snapshot.index) >= profile.visibility:
            continue
        if policy.https_enabled(server, snapshot):
            chain = policy.default_chain(server, snapshot)
            if chain is not None:
                store.add_tls(server.ip, chain, policy.stack_profile(server, snapshot))
                if https_headers:
                    headers = policy.headers(server, snapshot, port=443)
                    if headers:
                        store.add_http(server.ip, 443, headers)
        if http_headers:
            headers = policy.headers(server, snapshot, port=80)
            if headers:
                store.add_http(server.ip, 80, headers)
    return store


def reference_ipv6_scan(world, snapshot) -> SnapshotStore:
    """The IPv6 hitlist scan, derived per row."""
    policy = world.policy
    store = SnapshotStore()
    for server in world.servers:
        if not server.ipv6_only or not alive(server, snapshot):
            continue
        if policy.https_enabled(server, snapshot):
            chain = policy.default_chain(server, snapshot)
            if chain is not None:
                store.add_tls(server.ip, chain, policy.stack_profile(server, snapshot))
                headers = policy.headers(server, snapshot, port=443)
                if headers:
                    store.add_http(server.ip, 443, headers)
        headers = policy.headers(server, snapshot, port=80)
        if headers:
            store.add_http(server.ip, 80, headers)
    return store


def store_dump(store: SnapshotStore) -> dict:
    """Every column and intern table, plus each chain certificate's
    fingerprint, serial and provenance."""
    return {
        "tls": (store.tls_ip, store.tls_chain, store.tls_stack, store.stack_table),
        "http": (store.http_ip, store.http_port, store.http_header, store.header_table),
        "tables": (store.org_table, store.dns_table, store.chain_org, store.chain_dns),
        "chains": [
            [(cert.fingerprint, cert.serial, cert.provenance) for cert in chain]
            for chain in store.chains
        ],
        "ips": sorted(store.unique_ips()),
        "stats": store.stats(),
    }


def plan_dumps(config, plan, memoised: bool) -> list[dict]:
    world = build_world(config=config)
    dumps = []
    for name, snapshot in plan:
        if name == "ipv6":
            store = (
                world.ipv6_scan(snapshot).store
                if memoised
                else reference_ipv6_scan(world, snapshot)
            )
        elif memoised:
            store = world.scanner(name).scan(world, snapshot).store
        else:
            store = reference_scan(world, name, snapshot)
        dumps.append(store_dump(store))
    return dumps


class TestScanParity:
    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_memoised_scans_build_the_reference_stores(self, case):
        config, plan = CONFIGS[case]
        reference = plan_dumps(config, plan, memoised=False)
        memoised = plan_dumps(config, plan, memoised=True)
        # Every scanner of the plan (the IPv6 hitlist included) compares
        # real rows somewhere.
        scanned = {name for (name, _), dump in zip(plan, reference) if dump["tls"][0]}
        assert scanned == {name for name, _ in plan}
        for (name, snapshot), expected, got in zip(plan, reference, memoised):
            assert got == expected, (case, name, snapshot.label)


class TestSerialsPerWorld:
    def test_two_builds_of_one_config_issue_identical_certificates(self):
        """A world is determined by its config: the second build in a
        process issues the first one's certificates, down to every
        anchor's and every chain certificate's fingerprint and serial."""
        config = WorldConfig(seed=5, scale=0.004)
        snapshot = Snapshot(2020, 10)
        dumps = []
        for _ in range(2):
            world = build_world(config=config)
            store = world.scanner("rapid7").scan(world, snapshot).store
            anchors = [(cert.fingerprint, cert.serial) for cert in world.root_store.anchors()]
            dumps.append((anchors, store_dump(store)))
        assert dumps[0][1]["chains"]
        assert dumps[0] == dumps[1]


class TestEpochContract:
    # Evasions only change the evader's off-nets, which are snapshot-epoch
    # servers; two of them stand for the rest.
    @pytest.mark.parametrize(
        "case", ["default", *EVENT_SCENARIOS, "null-default-certificate", "quic-only"]
    )
    def test_equal_epochs_give_equal_answers(self, case):
        """Per server, the snapshots of one epoch it is alive at get equal
        answers from every per-question method."""
        world = build_world(config=CONFIGS[case][0])
        policy = world.policy

        def answers(server, snapshot):
            return (
                policy.https_enabled(server, snapshot),
                policy.default_chain(server, snapshot),
                policy.stack_profile(server, snapshot),
                policy.headers(server, snapshot, port=443),
                policy.headers(server, snapshot, port=80),
            )

        compared = 0
        for server in world.servers:
            epochs: dict = {}
            for snapshot in STUDY_SNAPSHOTS:
                if server.alive_at(snapshot):
                    epochs.setdefault(policy.epoch(server, snapshot), []).append(snapshot)
            for epoch, snapshots in epochs.items():
                first = answers(server, snapshots[0])
                for snapshot in snapshots[1:]:
                    assert answers(server, snapshot) == first, (
                        server.kind,
                        server.ip,
                        snapshot.label,
                    )
                    compared += 1
        assert compared > 0

    def test_a_sweep_derives_each_year_epoch_server_once_per_year(self):
        """Censys records the same header ports on every snapshot it
        covers, so a time-ordered sweep derives a background, fake-DV or
        shared-certificate server exactly once per year it is reached."""
        world = build_world(config=CONFIGS["default"][0])
        policy = world.policy
        derived: dict[int, int] = {}
        default_chain = policy.default_chain

        def counting(server, snapshot):
            derived[server.ip] = derived.get(server.ip, 0) + 1
            return default_chain(server, snapshot)

        policy.default_chain = counting
        reached_years: dict[int, set[int]] = {}
        for snapshot in LATE:
            scan = world.scanner("censys").scan(world, snapshot)
            for ip in scan.store.unique_ips():
                reached_years.setdefault(ip, set()).add(snapshot.year)
        year_kinds = (ServerKind.BACKGROUND, ServerKind.FAKE_DV, ServerKind.SHARED_CERT)
        checked = 0
        for server in world.servers:
            if server.kind in year_kinds and server.ip in reached_years:
                assert derived[server.ip] == len(reached_years[server.ip]), server.ip
                checked += 1
        assert checked > 0
