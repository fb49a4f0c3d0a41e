"""The simulated server: one TLS/HTTP endpoint at one IPv4 address.

A server is a small record; its *behaviour* (which certificate chain it
presents for a given SNI at a given snapshot, which headers it returns) is
resolved by the world's :class:`~repro.world.policy.ServingPolicy`, so a
hundred thousand servers stay cheap to hold in memory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.net.asn import ASN
from repro.timeline import Snapshot

__all__ = ["ServerKind", "SimulatedServer"]

#: A month index past every snapshot: the ``death_index`` of a server
#: that never dies.
_NEVER = 1 << 62


class ServerKind(enum.Enum):
    """What a server is, in ground truth.

    The inference pipeline never sees this — it is what validation compares
    inferences against.
    """

    #: A hypergiant server inside the hypergiant's own AS.
    HG_ONNET = "hg-onnet"
    #: A hypergiant cache inside another network — the paper's subject.
    HG_OFFNET = "hg-offnet"
    #: A third-party CDN edge serving a hypergiant's certificate
    #: (e.g. Apple content on an Akamai edge): service present, no HG metal.
    HG_SERVICE = "hg-service"
    #: A Cloudflare customer's back-end holding a Cloudflare-issued cert.
    CF_CUSTOMER = "cf-customer"
    #: An on-premise cloud appliance exposing a management interface with
    #: the cloud provider's certificate (AWS Outposts / Azure Stack style).
    MGMT_INTERFACE = "mgmt-interface"
    #: A server presenting a certificate a HG shares with a partner
    #: organisation (mixed dNSNames — filtered by the §4.3 subset rule).
    SHARED_CERT = "shared-cert"
    #: An ordinary web server unrelated to any hypergiant.
    BACKGROUND = "background"
    #: A background server with a *forged* DV certificate whose Organization
    #: imitates a hypergiant (§4.2's attack on the Organization field).
    FAKE_DV = "fake-dv"


@dataclass(slots=True)
class SimulatedServer:
    """One simulated endpoint.

    ``hypergiant`` names the related HG for HG-flavoured kinds (for
    :attr:`ServerKind.HG_SERVICE` it is the *origin* HG whose certificate is
    served; ``edge_hypergiant`` then names the CDN actually running the box).
    """

    ip: int
    asn: ASN
    kind: ServerKind
    birth: Snapshot
    hypergiant: str = ""
    edge_hypergiant: str = ""
    death: Snapshot | None = None
    #: Never sends fingerprint headers (Netflix/Hulu logged-in-only headers).
    headerless: bool = False
    #: Replies with a bare default-nginx header (the Netflix quirk, §4.4).
    nginx_default: bool = False
    #: Serves an invalid certificate: "expired", "self-signed", "untrusted",
    #: or "" for a valid one.
    invalid_mode: str = ""
    #: Index of the domain group this server serves (on-nets spread over
    #: groups; Figure 11's certificate IP groups).
    domain_group: int = 0
    #: Cloudflare customers: True for paid dedicated certificates (no
    #: ``sniNNN.cloudflaressl.com`` SAN — survives the §7 filter).
    dedicated_cert: bool = False
    #: The server answers on IPv6 only (§7): IPv4-wide scans never see it.
    ipv6_only: bool = False
    #: Stable per-server noise in [0, 1), assigned at build time.
    salt: float = 0.0
    #: ``birth`` and ``death`` as :attr:`Snapshot.index` month counts, set
    #: at construction, so a scan's liveness test compares integers
    #: (``death`` unset: never).
    birth_index: int = field(init=False, repr=False, compare=False)
    death_index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.birth_index = self.birth.index
        self.death_index = _NEVER if self.death is None else self.death.index

    def alive_at(self, snapshot: Snapshot) -> bool:
        """Is the server up at ``snapshot``?"""
        return self.birth_index <= snapshot.index <= self.death_index

    @property
    def is_hypergiant_metal(self) -> bool:
        """True when the box is operated by a hypergiant (on- or off-net)."""
        return self.kind in (ServerKind.HG_ONNET, ServerKind.HG_OFFNET)
