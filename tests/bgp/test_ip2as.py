"""Tests for the BGP substrate and the Appendix A.1 IP-to-AS mapping."""

import random

import pytest

from repro.bgp import IPToASMap, NoiseConfig, RibEntry, RibSnapshot, build_ribs
from repro.bgp.noise import inject_noise
from repro.net import IPv4Address, IPv4Prefix
from repro.timeline import STUDY_END, STUDY_START, Snapshot
from repro.topology import TopologyConfig, generate_topology

SNAP = Snapshot(2019, 10)


def rib(collector, *entries):
    return RibSnapshot(
        collector=collector,
        snapshot=SNAP,
        entries=tuple(RibEntry(IPv4Prefix.parse(p), asn, frac) for p, asn, frac in entries),
    )


class TestIPToASMap:
    def test_basic_lookup(self):
        mapping = IPToASMap.from_ribs([rib("a", ("1.0.0.0/24", 64, 1.0))])
        assert mapping.lookup(IPv4Address.parse("1.0.0.7")) == {64}
        assert mapping.origin_of(IPv4Address.parse("1.0.0.7")) == 64
        assert mapping.lookup(IPv4Address.parse("2.0.0.1")) == frozenset()
        assert mapping.origin_of(IPv4Address.parse("2.0.0.1")) is None

    def test_persistence_filter_drops_flickers(self):
        mapping = IPToASMap.from_ribs(
            [rib("a", ("1.0.0.0/24", 64, 1.0), ("1.0.0.0/24", 666, 0.1))]
        )
        assert mapping.lookup(IPv4Address.parse("1.0.0.1")) == {64}

    def test_persistence_filter_boundary_is_exclusive(self):
        """'more than 25% of the total time' — exactly 25% is dropped."""
        mapping = IPToASMap.from_ribs([rib("a", ("1.0.0.0/24", 64, 0.25))])
        assert mapping.lookup(IPv4Address.parse("1.0.0.1")) == frozenset()

    def test_ablation_disables_filter(self):
        mapping = IPToASMap.from_ribs(
            [rib("a", ("1.0.0.0/24", 64, 1.0), ("1.0.0.0/24", 666, 0.1))],
            min_persistence=0.0,
        )
        assert mapping.lookup(IPv4Address.parse("1.0.0.1")) == {64, 666}

    def test_collectors_merge_to_moas(self):
        mapping = IPToASMap.from_ribs(
            [rib("ris", ("1.0.0.0/24", 64, 1.0)), rib("rv", ("1.0.0.0/24", 65, 0.9))]
        )
        assert mapping.lookup(IPv4Address.parse("1.0.0.1")) == {64, 65}
        assert mapping.origin_of(IPv4Address.parse("1.0.0.1")) == 64
        assert mapping.moas_prefixes() == (IPv4Prefix.parse("1.0.0.0/24"),)

    def test_bogon_prefixes_filtered(self):
        mapping = IPToASMap.from_ribs([rib("a", ("10.0.0.0/8", 64, 1.0))])
        assert mapping.prefix_count == 0

    def test_reserved_asn_filtered(self):
        mapping = IPToASMap.from_ribs([rib("a", ("1.0.0.0/24", 64512, 1.0))])
        assert mapping.prefix_count == 0

    def test_longest_prefix_wins(self):
        mapping = IPToASMap.from_ribs(
            [rib("a", ("1.0.0.0/16", 64, 1.0), ("1.0.7.0/24", 65, 1.0))]
        )
        assert mapping.lookup(IPv4Address.parse("1.0.7.1")) == {65}
        assert mapping.lookup(IPv4Address.parse("1.0.8.1")) == {64}
        assert str(mapping.prefix_of(IPv4Address.parse("1.0.7.1"))) == "1.0.7.0/24"

    def test_pair_builder_equals_from_ribs(self):
        rows = (
            ("1.0.0.0/16", 64),
            ("1.0.7.0/24", 65),
            ("1.0.7.0/24", 66),  # MOAS
            ("10.0.0.0/8", 64),  # bogon prefix
            ("2.0.0.0/24", 64512),  # reserved origin
            ("2.0.0.0/24", 67),
        )
        from_ribs = IPToASMap.from_ribs([rib("a", *((p, asn, 1.0) for p, asn in rows))])
        from_pairs = IPToASMap.from_pairs(
            (IPv4Prefix.parse(prefix), asn) for prefix, asn in rows
        )
        assert from_pairs.prefixes() == from_ribs.prefixes() == tuple(
            IPv4Prefix.parse(text) for text in ("1.0.0.0/16", "1.0.7.0/24", "2.0.0.0/24")
        )
        for prefix in from_ribs.prefixes():
            assert from_pairs.lookup(prefix.first) == from_ribs.lookup(prefix.first)
        assert from_pairs.lookup(IPv4Address.parse("1.0.7.1")) == {65, 66}
        assert from_pairs.lookup(IPv4Address.parse("2.0.0.1")) == {67}
        assert from_pairs.prefix_count == from_ribs.prefix_count == 3
        assert from_pairs.moas_prefixes() == from_ribs.moas_prefixes()

    def test_covered_fraction(self):
        mapping = IPToASMap.from_ribs([rib("a", ("1.0.0.0/24", 64, 1.0))])
        assert mapping.covered_fraction_of(512) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            mapping.covered_fraction_of(0)


class TestRibEntry:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            RibEntry(IPv4Prefix.parse("1.0.0.0/24"), 64, 1.5)

    def test_origins_of(self):
        snapshot = rib("a", ("1.0.0.0/24", 64, 1.0), ("1.0.0.0/24", 65, 0.1))
        assert snapshot.origins_of(IPv4Prefix.parse("1.0.0.0/24")) == {64, 65}


class TestNoise:
    def test_noise_rates_validated(self):
        with pytest.raises(ValueError):
            NoiseConfig(hijack_rate=2.0)

    def test_inject_noise_empty_inputs(self):
        assert inject_noise([], (1, 2), NoiseConfig(), random.Random(0)) == []

    def test_short_hijacks_filtered_long_survive(self):
        rng = random.Random(1)
        legit = [RibEntry(IPv4Prefix.parse(f"1.0.{i}.0/24"), 100 + i, 1.0) for i in range(200)]
        noise = inject_noise(
            legit, tuple(range(1, 50)), NoiseConfig(hijack_rate=0.5, long_hijack_fraction=0.1), rng
        )
        assert noise  # hijacks were injected
        short = [e for e in noise if e.seen_fraction <= 0.25]
        assert short  # most hijacks are short-lived
        mapping = IPToASMap.from_ribs(
            [RibSnapshot("a", SNAP, tuple(legit + noise))]
        )
        # Short-lived hijacks never pollute the filtered map.
        for hijack in short:
            origins = mapping.lookup(hijack.prefix.first)
            assert hijack.origin not in origins or any(
                e.origin == hijack.origin and e.seen_fraction > 0.25 for e in noise + legit
                if e.prefix == hijack.prefix
            )


class TestBuildRibs:
    @pytest.fixture(scope="class")
    def topo(self):
        return generate_topology(TopologyConfig(seed=2, n_ases_start=300, n_ases_end=400))

    def test_two_collectors(self, topo):
        ribs = build_ribs(topo, STUDY_END, random.Random(9))
        assert [r.collector for r in ribs] == ["ripe-ris", "routeviews"]
        assert all(len(r) > 0 for r in ribs)

    def test_mapping_mostly_correct(self, topo):
        """The merged map should recover the true prefix owners."""
        ribs = build_ribs(topo, STUDY_END, random.Random(9))
        mapping = IPToASMap.from_ribs(ribs)
        correct = total = 0
        for asn in sorted(topo.alive(STUDY_END)):
            for prefix in topo.prefixes[asn]:
                total += 1
                if asn in mapping.lookup(prefix.first):
                    correct += 1
        assert correct / total > 0.95

    def test_earlier_snapshot_has_fewer_prefixes(self, topo):
        early = build_ribs(topo, STUDY_START, random.Random(9))
        late = build_ribs(topo, STUDY_END, random.Random(9))
        assert sum(len(r) for r in early) < sum(len(r) for r in late)
