"""§6.2 — the Netflix envelope.

Netflix's curve needed manual investigation: from 2017-04 a large share of
its off-nets answered with an *expired* certificate, and from 2017-10 about
a quarter stopped answering HTTPS entirely, serving plain HTTP instead.
The paper restores both populations — "for the rest of the paper, we will
use the envelope of these two lines" — and this module holds both halves of
that restoration:

* :func:`restore_http_only` — the HTTP-only restoration itself, the one
  cross-snapshot fold of the methodology.  A port-80-only IP is restored
  when it presented a Netflix certificate in some *earlier* snapshot, so
  the fold walks the timeline in order.  The batch merge
  (:meth:`~repro.core.pipeline.OffnetPipeline.merge_outcomes`) and the
  durable index's commit
  (:class:`~repro.core.footprint_index.DurableFootprintIndex`) both run
  it, which is what makes an incrementally built index bit-identical to
  a batch run;
* :func:`restore_netflix` — the three Figure 3 series read back from any
  footprint query surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.footprint import FootprintIndex, SnapshotOutcome
from repro.net.asn import ASN
from repro.timeline import Snapshot

__all__ = ["NetflixEnvelope", "restore_http_only", "restore_netflix"]


def restore_http_only(outcomes: Sequence[SnapshotOutcome]) -> list[frozenset[ASN]]:
    """The ASes §6.2 restores for each outcome, in the order given (which
    must be snapshot order): the origin ASes of every port-80-only IP
    (``restorable``) that presented a Netflix certificate in an earlier
    outcome (``netflix_seen``) — the "ever a candidate" fold."""
    restored: list[frozenset[ASN]] = []
    ever_seen: set[int] = set()
    for outcome in outcomes:
        ases: set[ASN] = set()
        if ever_seen:
            for ip, origins in outcome.restorable.items():
                if ip in ever_seen:
                    ases.update(origins)
        restored.append(frozenset(ases))
        ever_seen.update(outcome.netflix_seen)
    return restored


@dataclass(frozen=True, slots=True)
class NetflixEnvelope:
    """The three Netflix series of Figure 3 plus their envelope."""

    snapshots: tuple[Snapshot, ...]
    initial: tuple[int, ...]
    with_expired: tuple[int, ...]
    with_expired_nontls: tuple[int, ...]

    def envelope(self) -> tuple[int, ...]:
        """Pointwise maximum — the footprint used for the rest of the paper."""
        return tuple(
            max(a, b, c)
            for a, b, c in zip(self.initial, self.with_expired, self.with_expired_nontls)
        )

    def dip_depth(self) -> float:
        """How far the uncorrected series falls below the envelope at its
        worst, as a fraction (0 = never dips; 0.6 = drops to 40%)."""
        worst = 0.0
        for raw, restored in zip(self.initial, self.envelope()):
            if restored > 0:
                worst = max(worst, 1.0 - raw / restored)
        return worst


def restore_netflix(result: FootprintIndex) -> NetflixEnvelope:
    """Assemble the three Netflix series from any footprint query surface
    (a batch result or a durable index's view)."""
    snapshots = result.snapshots
    initial = tuple(result.as_count("netflix", s, "confirmed") for s in snapshots)
    with_expired = tuple(result.as_count("netflix", s, "with_expired") for s in snapshots)
    with_nontls = tuple(
        result.as_count("netflix", s, "with_expired_nontls") for s in snapshots
    )
    return NetflixEnvelope(
        snapshots=snapshots,
        initial=initial,
        with_expired=with_expired,
        with_expired_nontls=with_nontls,
    )
