"""Longest-prefix-match tables for IPv4 — the IP-to-AS lookup structure.

This is the data structure behind the IP-to-AS mapping (Appendix A.1): BGP
RIB entries are inserted keyed by prefix and IP addresses are resolved to the
most specific covering prefix, exactly as a router's FIB would.

The table keeps one hash table per prefix length (network address →
value) and answers a lookup by masking the address to each populated
length, longest first: the first hit is the longest match.  A routing
table populates a handful of lengths, so an insert is one dict store and
a lookup a few dict probes, with no per-bit nodes to build or walk.  The
property tests compare it against a brute-force linear scan.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, TypeVar

from repro.net.ipv4 import IPv4Address, IPv4Prefix, _netmask

__all__ = ["RadixTree"]

V = TypeVar("V")

_MISSING = object()


class RadixTree(Generic[V]):
    """Map IPv4 prefixes to values with longest-prefix-match lookups."""

    def __init__(self) -> None:
        #: Prefix length -> {network address: value}.
        self._tables: dict[int, dict[int, V]] = {}
        #: ``(length, netmask, table)`` per populated length, longest first.
        self._probes: list[tuple[int, int, dict[int, V]]] = []

    def __len__(self) -> int:
        return sum(map(len, self._tables.values()))

    def insert(self, prefix: IPv4Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        table = self._tables.get(prefix.length)
        if table is None:
            table = self._tables[prefix.length] = {}
            self._probes = [
                (length, _netmask(length), self._tables[length])
                for length in sorted(self._tables, reverse=True)
            ]
        table[prefix.network] = value

    def exact(self, prefix: IPv4Prefix) -> Optional[V]:
        """The value stored exactly at ``prefix``, or None."""
        table = self._tables.get(prefix.length)
        return None if table is None else table.get(prefix.network)

    def lookup(self, address: IPv4Address | int) -> Optional[tuple[IPv4Prefix, V]]:
        """Longest-prefix match: the most specific covering prefix and value."""
        value = address.value if isinstance(address, IPv4Address) else address
        for length, mask, table in self._probes:
            found = table.get(value & mask, _MISSING)
            if found is not _MISSING:
                return IPv4Prefix(value & mask, length), found  # type: ignore[return-value]
        return None

    def lookup_value(self, address: IPv4Address | int) -> Optional[V]:
        """Longest-prefix match returning only the stored value."""
        value = address.value if isinstance(address, IPv4Address) else address
        for _, mask, table in self._probes:
            found = table.get(value & mask, _MISSING)
            if found is not _MISSING:
                return found  # type: ignore[return-value]
        return None

    def _keys(self) -> list[tuple[int, int]]:
        """Every stored ``(network, length)``, sorted: address order, with
        a covering prefix before its more-specifics."""
        return sorted(
            (network, length)
            for length, table in self._tables.items()
            for network in table
        )

    def items(self) -> Iterator[tuple[IPv4Prefix, V]]:
        """Iterate over all (prefix, value) pairs in address order, each
        covering prefix before its more-specifics."""
        tables = self._tables
        for network, length in self._keys():
            yield IPv4Prefix(network, length), tables[length][network]

    def covered_space(self) -> int:
        """Number of IPv4 addresses covered by at least one stored prefix."""
        total = 0
        covered_to = 0  # one past the last address counted so far
        for network, length in self._keys():
            stop = network + (1 << (32 - length))
            if stop > covered_to:
                total += stop - max(network, covered_to)
                covered_to = stop
        return total
