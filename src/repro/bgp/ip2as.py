"""IP-to-AS mapping — the Appendix A.1 algorithm.

Steps, exactly as the paper describes them:

1. take the monthly aggregated RIBs of RIPE RIS and RouteViews;
2. filter out reserved (bogon) prefixes and special-purpose ASNs;
3. keep only (prefix → origin) mappings seen for **more than 25% of the
   month** (hijack/leak suppression: <2% of hijacks last past a week);
4. merge the two collectors; prefixes with conflicting origins keep *all*
   origins and are treated as MOAS.

:meth:`IPToASMap.from_ribs` applies step 3 and hands the surviving
``(prefix, origin)`` pairs to :meth:`IPToASMap.from_pairs`, the one place
steps 2 and 4 happen; an exported table, filtered when it was written,
enters at ``from_pairs`` directly.  Lookups use longest-prefix match over
the merged table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.bgp.rib import RibSnapshot
from repro.net.asn import ASN, is_reserved_asn
from repro.net.ipv4 import IPv4Address, IPv4Prefix, is_bogon
from repro.net.radix import RadixTree

__all__ = ["IPToASMap"]


def _routable_space() -> int:
    """Publicly routable IPv4 address count (2^32 minus special space)."""
    from repro.net.ipv4 import SPECIAL_PURPOSE_PREFIXES

    special = sum(p.num_addresses for p in SPECIAL_PURPOSE_PREFIXES)
    return 2**32 - special


@dataclass(slots=True)
class IPToASMap:
    """The merged, filtered longest-prefix-match IP-to-AS table."""

    min_persistence: float = 0.25
    _tree: RadixTree = field(default_factory=RadixTree)
    _prefix_count: int = 0

    @classmethod
    def from_ribs(
        cls,
        ribs: Iterable[RibSnapshot],
        min_persistence: float = 0.25,
    ) -> "IPToASMap":
        """Build the map from collector RIBs (set ``min_persistence=0.0`` to
        ablate the persistence filter)."""
        mapping = cls.from_pairs(
            (entry.prefix, entry.origin)
            for rib in ribs
            for entry in rib
            if entry.seen_fraction > min_persistence
        )
        mapping.min_persistence = min_persistence
        return mapping

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[IPv4Prefix, ASN]]) -> "IPToASMap":
        """Build the map from ``(prefix, origin)`` announcements that
        already passed the persistence filter: drop bogon prefixes and
        reserved origin ASNs, then merge by prefix, a prefix announced by
        several origins keeping them all (MOAS)."""
        mapping = cls()
        origins: dict[IPv4Prefix, set[ASN]] = {}
        for prefix, origin in pairs:
            if is_reserved_asn(origin):
                continue
            asns = origins.get(prefix)
            if asns is None:
                if is_bogon(prefix):
                    continue
                asns = origins[prefix] = set()
            asns.add(origin)
        tree = mapping._tree
        for prefix, asns in origins.items():
            tree.insert(prefix, frozenset(asns))
        mapping._prefix_count = len(origins)
        return mapping

    def lookup(self, address: IPv4Address | int) -> frozenset[ASN]:
        """All origin ASes for the most specific covering prefix.

        Returns an empty set for unmapped addresses; multiple members mean
        MOAS (the paper treats all of them as valid mappings).
        """
        result = self._tree.lookup_value(address)
        return frozenset() if result is None else result

    def origin_of(self, address: IPv4Address | int) -> ASN | None:
        """A single origin: the deterministic minimum for MOAS prefixes."""
        origins = self.lookup(address)
        return min(origins) if origins else None

    def prefix_of(self, address: IPv4Address | int) -> IPv4Prefix | None:
        """The matched prefix for an address, if mapped."""
        match = self._tree.lookup(address)
        return None if match is None else match[0]

    @property
    def prefix_count(self) -> int:
        """Number of mapped prefixes."""
        return self._prefix_count

    def prefixes(self) -> tuple[IPv4Prefix, ...]:
        """All mapped prefixes — the routed-prefix list a measurer sees."""
        return tuple(prefix for prefix, _ in self._tree.items())

    def moas_prefixes(self) -> tuple[IPv4Prefix, ...]:
        """All prefixes mapped to more than one origin."""
        return tuple(prefix for prefix, asns in self._tree.items() if len(asns) > 1)

    def covered_fraction_of(self, universe: int) -> float:
        """Fraction of ``universe`` addresses covered by the map."""
        if universe <= 0:
            raise ValueError("universe must be positive")
        return min(1.0, self._tree.covered_space() / universe)

    def coverage_of_routable_space(self) -> float:
        """Fraction of the full publicly routable IPv4 space covered.

        For the paper this is ~75.8%; for the scaled synthetic world it is
        proportionally tiny, so benchmarks instead report
        :meth:`covered_fraction_of` the world's allocated space.
        """
        return self.covered_fraction_of(_routable_space())
