"""Complaint-driven scan exclusion lists.

§5: "both Rapid7 and Censys have to respond to complaints and remove IP
addresses from their scans ... As both scans have run for years, more
address space is excluded over time."  This is one of the two reasons the
authors' slow certigo scan found ~20% more IPs than either corpus.

The model: each long-running scanner accrues excluded /24 blocks at a
steady monthly rate, deterministically drawn from the world's allocated
space.  Fresh one-off scans (certigo) have an empty list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.net.ipv4 import IPv4Prefix
from repro.timeline import Snapshot

__all__ = ["ExclusionList"]


@dataclass(slots=True)
class ExclusionList:
    """A growing set of /24 blocks a scanner must skip."""

    #: Fraction of candidate blocks excluded *per year* of scanner operation.
    growth_per_year: float
    #: When the scanner started operating (exclusions accrue from here).
    operating_since: Snapshot
    seed: int = 0
    _cache: dict[Snapshot, frozenset[int]] = field(default_factory=dict, repr=False)
    #: Every candidate /24, shuffled once with ``seed``; each snapshot's
    #: exclusion set is a prefix of it.
    _order: list[int] | None = field(default=None, repr=False)

    def excluded_blocks(
        self, universe: tuple[IPv4Prefix, ...], snapshot: Snapshot
    ) -> frozenset[int]:
        """The /24 networks (as ints) excluded at ``snapshot``.

        The exclusion set is monotone over time: blocks excluded at one
        snapshot stay excluded at every later one (complaints persist).
        """
        cached = self._cache.get(snapshot)
        if cached is not None:
            return cached
        if self._order is None:
            self._order = self._shuffled_blocks(universe)
        months = max(0, snapshot.months_since(self.operating_since))
        fraction = min(0.5, self.growth_per_year * months / 12.0)
        excluded = frozenset(self._order[: int(len(self._order) * fraction)])
        self._cache[snapshot] = excluded
        return excluded

    def _shuffled_blocks(self, universe: tuple[IPv4Prefix, ...]) -> list[int]:
        """Deterministic choice: shuffle the universe's /24s once with the
        scanner's seed, so taking a growing prefix of the order grows the
        set monotonically."""
        blocks: list[int] = []
        for prefix in universe:
            if prefix.length > 24:
                blocks.append(prefix.network & ~0xFF)
            else:
                step = 256
                blocks.extend(
                    prefix.network + offset for offset in range(0, prefix.num_addresses, step)
                )
        ordering = sorted(blocks)
        random.Random(self.seed).shuffle(ordering)
        return ordering

    def is_excluded(self, ip: int, excluded_blocks: frozenset[int]) -> bool:
        """Does ``ip`` fall inside an excluded /24?"""
        return (ip & ~0xFF) in excluded_blocks
