"""Integration tests for the built world: invariants and ground truth."""

import pytest

from repro.core import OffnetPipeline, PipelineOptions
from repro.net import IPv4Address, is_bogon
from repro.scan.server import ServerKind
from repro.timeline import NETFLIX_HTTP_ERA, STUDY_SNAPSHOTS, Snapshot
from repro.world import WorldConfig, build_world

END = STUDY_SNAPSHOTS[-1]
START = STUDY_SNAPSHOTS[0]


class TestWorldInvariants:
    def test_server_ips_unique(self, small_world):
        ips = [server.ip for server in small_world.servers]
        assert len(ips) == len(set(ips))

    def test_server_ips_inside_their_as(self, small_world):
        for server in small_world.servers[:500]:
            prefixes = small_world.topology.prefixes[server.asn]
            assert any(server.ip in prefix for prefix in prefixes)
            assert not is_bogon(IPv4Address(server.ip))

    def test_offnet_servers_match_plan(self, small_world):
        """Every deployed (HG, AS) pair has at least one off-net server."""
        plan = small_world.plan
        by_key = {}
        for server in small_world.servers:
            if server.kind is ServerKind.HG_OFFNET:
                by_key.setdefault((server.hypergiant, server.asn), []).append(server)
        for hypergiant in ("google", "netflix", "facebook", "akamai"):
            for asn in plan.deployed_at(hypergiant, END):
                servers = by_key.get((hypergiant, asn), [])
                assert servers, f"no off-net servers for {hypergiant} in AS{asn}"
                assert any(server.alive_at(END) for server in servers)

    def test_offnets_never_in_hg_ases(self, small_world):
        hg_ases = small_world.all_hg_ases()
        for server in small_world.servers:
            if server.kind is ServerKind.HG_OFFNET:
                assert server.asn not in hg_ases

    def test_onnets_only_in_hg_ases(self, small_world):
        for server in small_world.servers:
            if server.kind is ServerKind.HG_ONNET:
                assert server.asn in small_world.onnet_ases(server.hypergiant)

    def test_server_lookup(self, small_world):
        server = small_world.servers[0]
        assert small_world.server_by_ip(server.ip) is server
        assert small_world.server_by_ip(1) is None

    def test_cloudflare_truth_is_empty(self, small_world):
        """§6.1: Cloudflare has no true off-net footprint."""
        assert small_world.true_offnet_ases("cloudflare", END) == frozenset()
        assert small_world.true_service_ases("cloudflare", END)

    def test_scan_caching(self, small_world):
        a = small_world.scan("rapid7", END)
        b = small_world.scan("rapid7", END)
        assert a is b

    def test_a_serial_run_holds_only_the_last_snapshot(self, small_world):
        snapshots = (Snapshot(2019, 10), Snapshot(2020, 10), Snapshot(2021, 4))
        options = PipelineOptions(header_learning_snapshot=snapshots[1])
        OffnetPipeline(small_world, options).run(snapshots=snapshots)
        assert list(small_world._scan_cache) == [("rapid7", snapshots[-1])]
        assert list(small_world._ip2as_cache) == [snapshots[-1]]
        assert list(small_world._rib_cache) == [snapshots[-1]]

    def test_rebuilt_ribs_and_maps_are_identical(self, small_world):
        ribs = small_world.ribs(START)
        mapping = small_world.ip2as(START)
        small_world.ip2as(END)
        assert small_world.ribs(START) is not ribs
        assert small_world.ribs(START) == ribs
        rebuilt = small_world.ip2as(START)
        assert rebuilt is not mapping
        assert rebuilt.prefixes() == mapping.prefixes()
        assert all(
            rebuilt.lookup(prefix.first) == mapping.lookup(prefix.first)
            for prefix in mapping.prefixes()
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(scale=0.0001)
        with pytest.raises(ValueError):
            WorldConfig(invalid_fraction=1.5)

    def test_determinism_across_builds(self):
        a = build_world(seed=3, scale=0.01)
        b = build_world(seed=3, scale=0.01)
        assert [s.ip for s in a.servers] == [s.ip for s in b.servers]
        assert a.plan.deployed_at("google", END) == b.plan.deployed_at("google", END)


class TestServingPolicy:
    def test_google_sni_only_onnets_have_null_default(self, small_world):
        policy = small_world.policy
        sni_only = [
            s
            for s in small_world.servers
            if s.kind is ServerKind.HG_ONNET
            and s.hypergiant == "google"
            and s.domain_group == 1
        ]
        assert sni_only, "expected some SNI-only Google front-ends"
        server = sni_only[0]
        assert policy.default_chain(server, END) is None
        assert policy.sni_chain(server, "www.google.com", END) is not None

    def test_netflix_http_only_era(self, small_world):
        policy = small_world.policy
        victims = [
            s
            for s in small_world.servers
            if s.kind is ServerKind.HG_OFFNET
            and s.hypergiant == "netflix"
            and s.salt < 0.268
        ]
        assert victims
        inside = Snapshot(2018, 4)
        server = victims[0]
        if server.alive_at(inside):
            assert not policy.https_enabled(server, inside)
            assert policy.headers(server, inside, port=443) is None
            assert policy.headers(server, inside, port=80) is not None
        assert policy.https_enabled(server, NETFLIX_HTTP_ERA[1])

    def test_akamai_offnet_serves_customer_domains(self, small_world):
        """§5: Akamai off-nets validate for Akamai-delivered HG content."""
        policy = small_world.policy
        akamai = [
            s
            for s in small_world.servers
            if s.kind is ServerKind.HG_OFFNET and s.hypergiant == "akamai" and s.alive_at(END)
        ]
        assert akamai
        chain = policy.sni_chain(akamai[0], "www.apple.com", END)
        assert chain is not None
        assert "apple" in chain.end_entity.subject.organization.lower()

    def test_google_offnet_does_not_serve_other_hg_domains(self, small_world):
        policy = small_world.policy
        google = [
            s
            for s in small_world.servers
            if s.kind is ServerKind.HG_OFFNET and s.hypergiant == "google" and s.alive_at(END)
        ]
        assert policy.sni_chain(google[0], "www.netflix.com", END) is None

    def test_mgmt_interface_serves_hg_cert_with_generic_headers(self, small_world):
        policy = small_world.policy
        boxes = [s for s in small_world.servers if s.kind is ServerKind.MGMT_INTERFACE]
        if not boxes:
            pytest.skip("no management interfaces at this scale")
        box = boxes[0]
        snapshot = box.birth
        chain = policy.default_chain(box, snapshot)
        assert chain is not None
        headers = dict(policy.headers(box, snapshot, port=443))
        assert headers.get("Server") == "Apache"
