"""Tests for IPv4 address/prefix machinery."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import IPv4Address, IPv4Prefix, is_bogon
from repro.net.ipv4 import SPECIAL_PURPOSE_PREFIXES

addresses = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)
prefix_lengths = st.integers(min_value=0, max_value=32)


class TestIPv4Address:
    def test_parse_and_str_round_trip(self):
        for text in ("0.0.0.0", "192.0.2.1", "255.255.255.255", "8.8.8.8"):
            assert str(IPv4Address.parse(text)) == text

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "01.2.3.4", "-1.2.3.4", ""]
    )
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            IPv4Address.parse(bad)

    def test_out_of_range_value(self):
        with pytest.raises(ValueError):
            IPv4Address(2**32)
        with pytest.raises(ValueError):
            IPv4Address(-1)

    @given(addresses)
    def test_str_parse_round_trip(self, address):
        assert IPv4Address.parse(str(address)) == address

    def test_ordering_matches_integers(self):
        assert IPv4Address.parse("10.0.0.1") < IPv4Address.parse("10.0.0.2")


class TestIPv4Prefix:
    def test_parse(self):
        prefix = IPv4Prefix.parse("198.51.100.0/24")
        assert prefix.length == 24
        assert str(prefix) == "198.51.100.0/24"
        assert prefix.num_addresses == 256

    def test_rejects_host_bits(self):
        with pytest.raises(ValueError):
            IPv4Prefix.parse("198.51.100.1/24")

    def test_rejects_missing_length(self):
        with pytest.raises(ValueError):
            IPv4Prefix.parse("198.51.100.0")

    def test_from_address_masks_host_bits(self):
        prefix = IPv4Prefix.from_address(IPv4Address.parse("198.51.100.77"), 24)
        assert str(prefix) == "198.51.100.0/24"

    def test_contains_address(self):
        prefix = IPv4Prefix.parse("10.0.0.0/8")
        assert IPv4Address.parse("10.255.0.1") in prefix
        assert IPv4Address.parse("11.0.0.0") not in prefix

    def test_contains_subprefix(self):
        outer = IPv4Prefix.parse("10.0.0.0/8")
        assert IPv4Prefix.parse("10.1.0.0/16") in outer
        assert outer not in IPv4Prefix.parse("10.1.0.0/16")
        assert outer in outer

    def test_first_last(self):
        prefix = IPv4Prefix.parse("192.0.2.0/30")
        assert str(prefix.first) == "192.0.2.0"
        assert str(prefix.last) == "192.0.2.3"

    def test_address_at(self):
        prefix = IPv4Prefix.parse("192.0.2.0/24")
        assert str(prefix.address_at(5)) == "192.0.2.5"
        with pytest.raises(IndexError):
            prefix.address_at(256)

    def test_hosts_enumeration(self):
        prefix = IPv4Prefix.parse("192.0.2.0/30")
        assert [str(a) for a in prefix.hosts()] == [
            "192.0.2.0",
            "192.0.2.1",
            "192.0.2.2",
            "192.0.2.3",
        ]

    def test_subnets(self):
        prefix = IPv4Prefix.parse("10.0.0.0/8")
        subnets = list(prefix.subnets(10))
        assert len(subnets) == 4
        assert all(s in prefix for s in subnets)
        with pytest.raises(ValueError):
            list(prefix.subnets(7))

    @given(addresses, prefix_lengths)
    def test_from_address_always_contains_address(self, address, length):
        prefix = IPv4Prefix.from_address(address, length)
        assert address in prefix

    @given(addresses, prefix_lengths)
    def test_num_addresses_matches_bounds(self, address, length):
        prefix = IPv4Prefix.from_address(address, length)
        assert prefix.last.value - prefix.first.value + 1 == prefix.num_addresses


class TestBogons:
    def test_private_space_is_bogon(self):
        assert is_bogon(IPv4Address.parse("10.1.2.3"))
        assert is_bogon(IPv4Address.parse("192.168.1.1"))
        assert is_bogon(IPv4Prefix.parse("172.16.0.0/12"))

    def test_public_space_is_not_bogon(self):
        assert not is_bogon(IPv4Address.parse("8.8.8.8"))
        assert not is_bogon(IPv4Prefix.parse("104.16.0.0/12"))

    def test_covering_prefix_is_bogon(self):
        # A /6 that covers 10/8 overlaps special space.
        assert is_bogon(IPv4Prefix.parse("8.0.0.0/6"))


def _contains_bogon(item) -> bool:
    """The containment definition of a bogon: a special block contains
    the item, or (for a prefix) the item covers the block."""
    if isinstance(item, IPv4Prefix):
        return any(
            special.contains(item) or item.contains(special.first)
            for special in SPECIAL_PURPOSE_PREFIXES
        )
    return any(special.contains(item) for special in SPECIAL_PURPOSE_PREFIXES)


def _near_special(draw_index, edge, delta):
    """An address at, or one off, an edge of one special block."""
    special = SPECIAL_PURPOSE_PREFIXES[draw_index]
    anchor = special.network if edge == "first" else special.last.value
    return min(max(anchor + delta, 0), 2**32 - 1)


#: Addresses anywhere, plus addresses at and just outside each special
#: block's first and last address, so prefixes built on them cover, sit
#: inside or abut the block.
bogon_probe_addresses = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.builds(
        _near_special,
        st.integers(min_value=0, max_value=len(SPECIAL_PURPOSE_PREFIXES) - 1),
        st.sampled_from(("first", "last")),
        st.integers(min_value=-1, max_value=1),
    ),
)


class TestBogonRanges:
    """The integer-range filter against the containment definition."""

    @given(bogon_probe_addresses, prefix_lengths)
    def test_prefix_agrees_with_containment(self, value, length):
        prefix = IPv4Prefix.from_address(value, length)
        assert is_bogon(prefix) == _contains_bogon(prefix)

    @given(bogon_probe_addresses)
    def test_address_and_int_agree_with_containment(self, value):
        expected = _contains_bogon(value)
        assert is_bogon(value) == expected
        assert is_bogon(IPv4Address(value)) == expected

    @pytest.mark.parametrize("special", SPECIAL_PURPOSE_PREFIXES, ids=str)
    def test_every_length_at_block_edges(self, special):
        """Prefixes of every length on each block's first and last
        address and on the addresses just outside them: they cover the
        block, sit inside it or abut it."""
        for anchor in (
            special.network - 1,
            special.network,
            special.last.value,
            special.last.value + 1,
        ):
            if not 0 <= anchor < 2**32:
                continue
            assert is_bogon(anchor) == _contains_bogon(anchor)
            for length in range(33):
                prefix = IPv4Prefix.from_address(anchor, length)
                assert is_bogon(prefix) == _contains_bogon(prefix), prefix
