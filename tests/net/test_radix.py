"""Tests for the longest-prefix-match radix trie."""

from hypothesis import given
from hypothesis import strategies as st

from repro.net import IPv4Address, IPv4Prefix, RadixTree


def make_tree(entries):
    tree = RadixTree()
    for text, value in entries:
        tree.insert(IPv4Prefix.parse(text), value)
    return tree


class TestRadixTree:
    def test_exact_and_lookup(self):
        tree = make_tree([("10.0.0.0/8", "big"), ("10.1.0.0/16", "small")])
        assert tree.exact(IPv4Prefix.parse("10.0.0.0/8")) == "big"
        assert tree.exact(IPv4Prefix.parse("10.2.0.0/16")) is None
        prefix, value = tree.lookup(IPv4Address.parse("10.1.2.3"))
        assert value == "small" and str(prefix) == "10.1.0.0/16"
        prefix, value = tree.lookup(IPv4Address.parse("10.2.2.3"))
        assert value == "big" and str(prefix) == "10.0.0.0/8"

    def test_lookup_miss(self):
        tree = make_tree([("10.0.0.0/8", "big")])
        assert tree.lookup(IPv4Address.parse("11.0.0.1")) is None
        assert tree.lookup_value(IPv4Address.parse("11.0.0.1")) is None

    def test_replace_value(self):
        tree = make_tree([("10.0.0.0/8", "old")])
        tree.insert(IPv4Prefix.parse("10.0.0.0/8"), "new")
        assert len(tree) == 1
        assert tree.lookup_value(IPv4Address.parse("10.0.0.1")) == "new"

    def test_default_route(self):
        tree = make_tree([("0.0.0.0/0", "default"), ("10.0.0.0/8", "ten")])
        assert tree.lookup_value(IPv4Address.parse("1.1.1.1")) == "default"
        assert tree.lookup_value(IPv4Address.parse("10.1.1.1")) == "ten"

    def test_host_route(self):
        tree = make_tree([("192.0.2.0/24", "net"), ("192.0.2.7/32", "host")])
        assert tree.lookup_value(IPv4Address.parse("192.0.2.7")) == "host"
        assert tree.lookup_value(IPv4Address.parse("192.0.2.8")) == "net"

    def test_items_yields_all(self):
        entries = [("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("192.0.2.0/24", 3), ("0.0.0.0/0", 0)]
        tree = make_tree(entries)
        found = {(str(p), v) for p, v in tree.items()}
        assert found == {(t, v) for t, v in entries}

    def test_covered_space(self):
        tree = make_tree([("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("192.0.2.0/24", 3)])
        # the /16 nests inside the /8 so only /8 + /24 count.
        assert tree.covered_space() == 2**24 + 2**8

    def test_empty_tree(self):
        tree = RadixTree()
        assert len(tree) == 0
        assert tree.lookup(IPv4Address(0)) is None
        assert tree.covered_space() == 0
        assert list(tree.items()) == []


prefixes = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=32)
).map(lambda pair: IPv4Prefix.from_address(pair[0], pair[1]))


class TestRadixProperties:
    @given(
        st.lists(st.tuples(prefixes, st.integers()), max_size=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_linear_scan(self, entries, probe):
        """LPM result always equals a brute-force longest-match scan."""
        tree = RadixTree()
        table = {}
        for prefix, value in entries:
            tree.insert(prefix, value)
            table[prefix] = value

        best = None
        for prefix, value in table.items():
            if probe in prefix and (best is None or prefix.length > best[0].length):
                best = (prefix, value)

        got = tree.lookup(probe)
        if best is None:
            assert got is None
        else:
            assert got == best

    @given(st.lists(st.tuples(prefixes, st.integers()), max_size=40))
    def test_items_round_trip(self, entries):
        tree = RadixTree()
        table = {}
        for prefix, value in entries:
            tree.insert(prefix, value)
            table[prefix] = value
        assert dict(tree.items()) == table
        assert len(tree) == len(table)

    @given(st.lists(st.tuples(prefixes, st.integers()), max_size=40))
    def test_items_in_export_order(self, entries):
        """Address order, a covering prefix before its more-specifics —
        the order ``export_dataset`` writes a table in."""
        tree = RadixTree()
        table = {}
        for prefix, value in entries:
            tree.insert(prefix, value)
            table[prefix] = value
        expected = sorted(table.items(), key=lambda item: (item[0].network, item[0].length))
        assert list(tree.items()) == expected

    @given(st.lists(prefixes, max_size=40))
    def test_covered_space_is_the_interval_union(self, inserted):
        tree = RadixTree()
        for prefix in inserted:
            tree.insert(prefix, None)
        # Cut the address line at every interval end; an elementary
        # segment counts when any inserted interval spans it.
        intervals = [(p.network, p.network + p.num_addresses) for p in inserted]
        cuts = sorted({point for interval in intervals for point in interval})
        covered = sum(
            high - low
            for low, high in zip(cuts, cuts[1:])
            if any(start <= low and high <= stop for start, stop in intervals)
        )
        assert tree.covered_space() == covered
