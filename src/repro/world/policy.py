"""The serving policy: what every server presents, resolved on demand.

One shared :class:`ServingPolicy` instance answers, for any server at any
snapshot:

* is HTTPS up at all? (Netflix's 2017-2019 HTTP-only fraction, §6.2)
* which default chain does a no-SNI handshake get? (including Google
  on-nets that answer only to first-party SNI — the §8 hide-and-seek case)
* which chain does a given SNI get? (used by ZGrab validation; Akamai
  off-nets also answer for their delivery customers' domains, which is the
  §5 cross-validation anomaly)
* which response headers come back?

A no-SNI scan asks all of these at once through :meth:`ServingPolicy.observe`,
memoised per server and *epoch* — the span of snapshots over which a
server's answers cannot change (:meth:`ServingPolicy.epoch`) — so a sweep
derives each ordinary web server's rows once per year, not once per
snapshot.
"""

from __future__ import annotations

from repro.hypergiants.certs import CertificateBook
from repro.hypergiants.headers import HeaderBook, Headers
from repro.hypergiants.profiles import STOCK_STACKS, profile, stack_profile
from repro.scan.handshake import (
    UNKNOWN_STACK,
    StackFeatures,
    certificate_covers_domain,
    dns_name_matches,
    stack_features,
)
from repro.scan.server import ServerKind, SimulatedServer
from repro.timeline import NETFLIX_HTTP_ERA, Snapshot
from repro.world.events import EventOverlay
from repro.x509.chain import CertificateChain

__all__ = [
    "ServingPolicy",
    "Observation",
    "NETFLIX_HTTP_ONLY_FRACTION",
    "AKAMAI_DELIVERY_CUSTOMERS",
]

#: What a no-SNI scan records from one server: the default chain
#: (``None``: no TLS row), its TLS stack features (``None`` without a
#: chain), and the port-443 and port-80 response headers (``None``: no
#: row for that port).
Observation = tuple[
    CertificateChain | None, StackFeatures | None, Headers | None, Headers | None
]

#: 26.8% of Netflix off-net IPs stopped answering HTTPS in the era (§6.2).
NETFLIX_HTTP_ONLY_FRACTION = 0.268

#: Hypergiants whose content Akamai also delivers; genuine Akamai off-nets
#: answer (and validate) SNI requests for these HGs' domains (§5).
AKAMAI_DELIVERY_CUSTOMERS: tuple[str, ...] = ("apple", "microsoft", "twitter", "disney")

#: Fraction of Google on-net front-ends that answer only first-party SNI
#: (null default certificate — §8 hide-and-seek, case observed for Google).
_GOOGLE_SNI_ONLY_GROUP = 1


def _offnet_shard(server: SimulatedServer, snapshot: Snapshot) -> int:
    """Which certificate shard an off-net server belongs to (Fig. 11).

    Google keeps a dominant certificate (~55% of IPs) with a small tail;
    Facebook started fully aggregated in 2014 and disaggregated over the
    years; other HGs run a few shards.
    """
    hg = server.hypergiant
    salt = server.salt
    if hg == "google":
        # 55% / 20% / 15% / 10% — a dominant *.googlevideo.com group.
        for shard, threshold in enumerate((0.55, 0.75, 0.90, 1.01)):
            if salt < threshold:
                return shard
    if hg == "facebook":
        # Sharding grows roughly twice a year after the CDN launch.
        months = max(0, snapshot.months_since(Snapshot(2016, 7)))
        shards = 1 + months // 6
        return int(salt * shards)
    return int(salt * 3)


class _Observed:
    """One server's memo entry, overwritten in place on a miss, so the
    memo allocates one entry per server however many epochs it sees."""

    __slots__ = (
        "server",
        "epoch",
        "record_https",
        "record_http",
        "chain",
        "stack",
        "https_headers",
        "http_headers",
    )

    def __init__(self, server: SimulatedServer) -> None:
        self.server = server
        self.epoch = self.record_https = self.record_http = None


class ServingPolicy:
    """Resolves server behaviour against the certificate and header books.

    ``evading_hypergiant``/``evasion_strategies`` implement the §8
    hide-and-seek options for one hypergiant's off-nets.

    The per-question methods (:meth:`https_enabled`,
    :meth:`default_chain`, :meth:`stack_profile`, :meth:`headers`) derive
    an answer afresh on every call.  :meth:`observe` is the one place the
    no-SNI scan sequence — HTTPS up? default chain, stack, headers — is
    written; it keeps one memo entry per server, keyed by
    :meth:`epoch`.
    """

    def __init__(
        self,
        cert_book: CertificateBook,
        header_book: HeaderBook,
        evading_hypergiant: str = "",
        evasion_strategies: tuple[str, ...] = (),
        overlay: EventOverlay | None = None,
    ) -> None:
        self._certs = cert_book
        self._headers = header_book
        self._evader = evading_hypergiant
        self._evasions = frozenset(evasion_strategies)
        # Scenario-event overlay: mass cert-rotation events bump the
        # generation every hypergiant chain is issued under.  ``None``
        # (event-free worlds) keeps all call sites on generation 0.
        self._overlay = overlay
        # server IP -> the server's last observation and its key.  IPs are
        # unique within a world; the server check keeps a stray duplicate
        # from reading another server's entry.
        self._observed: dict[int, _Observed] = {}

    def _evades(self, server: SimulatedServer, strategy: str) -> bool:
        return (
            strategy in self._evasions
            and server.kind is ServerKind.HG_OFFNET
            and server.hypergiant == self._evader
        )

    def _generation(self, hypergiant: str, snapshot: Snapshot) -> int:
        """The cert-rotation generation for a HG's chains at ``snapshot``."""
        if self._overlay is None:
            return 0
        return self._overlay.cert_generation(hypergiant, snapshot)

    # -- the memoised scan observation ------------------------------------

    def epoch(self, server: SimulatedServer, snapshot: Snapshot) -> Snapshot | int:
        """The epoch of ``snapshot`` for ``server``: snapshots with equal
        epochs get equal answers from :meth:`https_enabled`,
        :meth:`default_chain` (the same chain object), :meth:`stack_profile`
        and :meth:`headers` on both ports.

        * Background, fake-DV and shared-certificate servers: the calendar
          year.  Their chains are issued per year (``background_chain``,
          ``fake_dv_chain`` and ``shared_chain`` key on January of the
          snapshot's year), no evasion strategy, cert-rotation event or
          Netflix era applies to them, and their stack and headers never
          change.
        * Every other kind: the snapshot itself.  Hypergiant header values
          carry per-snapshot request tokens, and hypergiant chains follow
          validity eras, rotation generations and Netflix's eras.
        """
        kind = server.kind
        if (
            kind is ServerKind.BACKGROUND
            or kind is ServerKind.FAKE_DV
            or kind is ServerKind.SHARED_CERT
        ):
            return snapshot.year
        return snapshot

    def observe(
        self,
        server: SimulatedServer,
        snapshot: Snapshot,
        record_https: bool,
        record_http: bool,
    ) -> Observation:
        """What a no-SNI port-443 handshake plus the recorded GETs capture
        from ``server`` at ``snapshot``: ``(chain, stack, https_headers,
        http_headers)`` (see :data:`Observation`).  HTTPS headers are only
        taken from a server that presented a chain, and only when
        ``record_https``; port-80 headers only when ``record_http``; an
        empty header set records no row.

        Memoised: each server keeps its last ``(epoch, record_https,
        record_http)`` key and observation, so a sweep in time order
        derives a year-epoch server once per year and never derives a
        header the caller does not record.  A hit only skips book calls
        for chains already issued, so the order in which chains are first
        issued — and with it every serial and fingerprint — is the one
        the per-question methods would produce.
        """
        epoch = self.epoch(server, snapshot)
        memo = self._observed.get(server.ip)
        if memo is None or memo.server is not server:
            memo = self._observed[server.ip] = _Observed(server)
        elif (
            memo.epoch == epoch
            and memo.record_https == record_https
            and memo.record_http == record_http
        ):
            return memo.chain, memo.stack, memo.https_headers, memo.http_headers
        chain = stack = https_headers = http_headers = None
        if self.https_enabled(server, snapshot):
            chain = self.default_chain(server, snapshot)
            if chain is not None:
                stack = self.stack_profile(server, snapshot)
                if record_https:
                    https_headers = self.headers(server, snapshot, port=443) or None
        if record_http:
            http_headers = self.headers(server, snapshot, port=80) or None
        memo.epoch, memo.record_https, memo.record_http = epoch, record_https, record_http
        memo.chain, memo.stack = chain, stack
        memo.https_headers, memo.http_headers = https_headers, http_headers
        return chain, stack, https_headers, http_headers

    # -- availability -----------------------------------------------------

    def https_enabled(self, server: SimulatedServer, snapshot: Snapshot) -> bool:
        """Is port 443 answering at all?"""
        if (
            server.kind is ServerKind.HG_OFFNET
            and server.hypergiant == "netflix"
            and server.salt < NETFLIX_HTTP_ONLY_FRACTION
            and NETFLIX_HTTP_ERA[0] <= snapshot < NETFLIX_HTTP_ERA[1]
        ):
            return False
        return True

    # -- certificates ------------------------------------------------------

    def default_chain(
        self, server: SimulatedServer, snapshot: Snapshot
    ) -> CertificateChain | None:
        """The chain a no-SNI handshake receives (``None`` = null default)."""
        kind = server.kind
        book = self._certs
        if kind is ServerKind.HG_ONNET:
            if (
                server.hypergiant == "google"
                and server.domain_group == _GOOGLE_SNI_ONLY_GROUP
            ):
                # www.google.com front-ends: certificate only with SNI.
                return None
            if server.hypergiant == "cloudflare" and server.domain_group >= 100:
                # Universal SSL edges: domain_group encodes the bundle
                # (100+b = customer bundle, 200+b = the www-alias bundle).
                if server.domain_group >= 200:
                    return book.cloudflare_www_bundle_chain(
                        server.domain_group - 200, snapshot
                    )
                return book.cloudflare_bundle_chain(server.domain_group - 100, snapshot)
            return book.hypergiant_chain(
                server.hypergiant,
                server.domain_group,
                snapshot,
                generation=self._generation(server.hypergiant, snapshot),
            )
        if kind is ServerKind.HG_OFFNET:
            if self._evades(server, "null-default-certificate"):
                return None  # §8 (1): certificate only with first-party SNI
            if self._evades(server, "unique-domains"):
                return book.unique_domain_chain(server.hypergiant, server.asn, snapshot)
            if self._evades(server, "strip-organization"):
                return book.stripped_organization_chain(server.hypergiant, snapshot)
            # A quarter of Netflix off-net IPs kept serving fresh valid
            # certificates through the expired era (§6.2's surviving base).
            offnet_era_behaviour = not (
                server.hypergiant == "netflix" and server.salt >= 0.75
            )
            return book.hypergiant_chain(
                server.hypergiant,
                server.domain_group,
                snapshot,
                offnet=offnet_era_behaviour,
                shard=_offnet_shard(server, snapshot),
                generation=self._generation(server.hypergiant, snapshot),
            )
        if kind is ServerKind.HG_SERVICE:
            return book.hypergiant_chain(
                server.hypergiant,
                0,
                snapshot,
                generation=self._generation(server.hypergiant, snapshot),
            )
        if kind is ServerKind.CF_CUSTOMER:
            if server.dedicated_cert:
                return book.cloudflare_dedicated_chain(server.domain_group, snapshot)
            return book.cloudflare_bundle_chain(server.domain_group, snapshot)
        if kind is ServerKind.MGMT_INTERFACE:
            hg = profile(server.hypergiant)
            group = min(1, len(hg.domain_groups) - 1)
            return book.hypergiant_chain(server.hypergiant, group, snapshot)
        if kind is ServerKind.SHARED_CERT:
            return book.shared_chain(server.hypergiant, server.domain_group, snapshot)
        if kind is ServerKind.FAKE_DV:
            return book.fake_dv_chain(server.hypergiant, server.domain_group, snapshot)
        # Background web.
        return book.background_chain(
            server.domain_group, f"Example Site {server.domain_group} LLC",
            snapshot, server.invalid_mode,
        )

    def sni_chain(
        self, server: SimulatedServer, domain: str, snapshot: Snapshot
    ) -> CertificateChain | None:
        """The chain returned for an explicit SNI, or ``None`` if the server
        has no matching certificate (the client then gets the default)."""
        kind = server.kind
        book = self._certs
        if kind in (ServerKind.HG_ONNET, ServerKind.HG_OFFNET):
            hg = profile(server.hypergiant)
            groups = (
                range(len(hg.domain_groups))
                if kind is ServerKind.HG_ONNET
                else (server.domain_group,)
            )
            for group in groups:
                if any(dns_name_matches(p, domain) for p in hg.domain_groups[group]):
                    return book.hypergiant_chain(
                        server.hypergiant, group, snapshot,
                        offnet=kind is ServerKind.HG_OFFNET,
                        generation=self._generation(server.hypergiant, snapshot),
                    )
            if kind is ServerKind.HG_OFFNET and server.hypergiant == "akamai":
                # Akamai delivers other HGs' content from the same caches.
                for customer in AKAMAI_DELIVERY_CUSTOMERS:
                    customer_profile = profile(customer)
                    for group, names in enumerate(customer_profile.domain_groups):
                        if any(dns_name_matches(p, domain) for p in names):
                            return book.hypergiant_chain(customer, group, snapshot)
            return None
        default = self.default_chain(server, snapshot)
        if default is not None and certificate_covers_domain(default.end_entity, domain):
            return default
        return None

    # -- headers ------------------------------------------------------------

    def headers(
        self, server: SimulatedServer, snapshot: Snapshot, port: int
    ) -> Headers | None:
        """Response headers for a GET on ``port`` (None = no HTTP service)."""
        if port == 443 and not self.https_enabled(server, snapshot):
            return None
        if self._evades(server, "strip-headers") or self._evades(server, "quic-only"):
            # No TCP HTTP service at all: stripped endpoints refuse the
            # GET, QUIC-only endpoints never listen on TCP 80/443.
            return None
        if self._evades(server, "spoof-headers"):
            return self._headers.spoofed_headers(server)
        if self._evades(server, "middlebox-rewrite"):
            return self._headers.middlebox_headers(server, snapshot)
        if self._evades(server, "anonymize-headers"):
            return self._headers.anonymous_headers(server)  # §8 (4)
        return self._headers.headers_for(server, snapshot, port)

    # -- TLS stack features --------------------------------------------------

    def stack_profile(
        self, server: SimulatedServer, snapshot: Snapshot
    ) -> StackFeatures:
        """The TLS stack features a handshake with the server elicits.

        Hypergiant metal exhibits its operator's stack (an in-path
        middlebox or header games cannot change how the TLS stack itself
        negotiates); third-party edges exhibit the *edge* CDN's stack;
        everything else draws a stock stack from the server's salt.  A
        QUIC-only evader still completes a QUIC handshake, so its stack
        stays observable — with an ALPN set collapsed to ``h3``.
        """
        kind = server.kind
        if kind is ServerKind.HG_ONNET or kind is ServerKind.HG_OFFNET:
            stack = stack_profile(server.hypergiant)
            if stack == UNKNOWN_STACK:
                return self._stock_stack(server)
            if self._evades(server, "quic-only"):
                return stack_features(("h3",), stack[1], stack[2])
            return stack
        if kind is ServerKind.HG_SERVICE:
            edge = stack_profile(server.edge_hypergiant or "akamai")
            return edge if edge != UNKNOWN_STACK else self._stock_stack(server)
        if kind is ServerKind.CF_CUSTOMER:
            return stack_profile("cloudflare")
        return self._stock_stack(server)

    @staticmethod
    def _stock_stack(server: SimulatedServer) -> StackFeatures:
        return STOCK_STACKS[int(server.salt * len(STOCK_STACKS)) % len(STOCK_STACKS)]
