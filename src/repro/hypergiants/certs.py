"""Certificate issuance for every server kind — the CertificateBook.

Certificates are issued lazily and cached per era, so thousands of servers
share a handful of chains exactly the way Figure 11 shows real hypergiant
IP groups sharing certificates.  The book covers:

* **hypergiant era certificates** — one chain per (HG, domain group, era);
  era length follows the HG's validity policy (Appendix A.3: Google ~3
  months, Microsoft 1-2 years, Netflix's 2019 shift to ~1 month);
* **Netflix's expired-certificate episode** (§6.2): between 2017-04 and
  2019-10 most Netflix off-nets present a certificate frozen at its
  pre-2017 window, i.e. expired at scan time;
* **Cloudflare customer certificates** (§3, §7): Universal SSL bundles
  ~20 customer domains plus a ``sniNNN.cloudflaressl.com`` marker SAN;
  paid dedicated certificates omit the marker (and therefore survive the
  paper's Cloudflare filter);
* **forged DV certificates** with a hypergiant Organization but foreign
  domains (caught by the §4.3 all-dNSNames rule);
* **shared certificates** mixing HG and partner domains (likewise caught);
* **background certificates** for ordinary sites, with optional invalid
  modes (expired / self-signed / untrusted issuer) so that, as in the real
  corpuses, more than a third of hosts fail §4.1 validation.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from repro.hypergiants.profiles import HypergiantProfile, profile
from repro.timeline import NETFLIX_EXPIRED_ERA, Snapshot
from repro.x509.authority import CertificateAuthority, make_self_signed
from repro.x509.certificate import SubjectName
from repro.x509.chain import CertificateChain, build_chain

__all__ = ["CertificateBook", "CLOUDFLARE_SNI_SUFFIX"]

#: Marker SAN on Cloudflare Universal SSL certificates (§7).
CLOUDFLARE_SNI_SUFFIX = ".cloudflaressl.com"

#: The epoch from which certificate eras are counted.
_ERA_EPOCH = Snapshot(2012, 1)

#: Customers per Cloudflare Universal SSL bundle certificate.
_CF_BUNDLE_SIZE = 20


class CertificateBook:
    """Lazily issues and caches every chain the world serves."""

    def __init__(
        self,
        issuers: dict[str, CertificateAuthority],
        seed: int = 0,
        serials: Iterator[int] | None = None,
    ) -> None:
        """``serials`` numbers the book's own certificates — its rogue
        root's and the self-signed leaves'; the world passes the counter
        its WebPKI draws from, so one world issues from one counter."""
        if not issuers:
            raise ValueError("need at least one issuing authority")
        self._issuer_names = sorted(issuers)
        self._issuers = issuers
        self._seed = seed
        self._serials = itertools.count(1) if serials is None else serials
        self._chain_cache: dict[tuple, CertificateChain] = {}
        # Issuance inputs, memoised: an issuer per label, a validity window
        # per (hypergiant, snapshot) and one Snapshot per validity bound
        # month, so a cache hit above builds no ``random.Random`` and no
        # ``Snapshot``, and the chains of one era or year share their
        # bounds instead of each holding two fresh ones.
        self._issuers_by_label: dict[str, CertificateAuthority] = {}
        self._era_windows: dict[tuple[str, Snapshot], tuple[Snapshot, Snapshot]] = {}
        self._months: dict[int, Snapshot] = {}
        self._rogue_authority = CertificateAuthority.create_root(
            "Rogue Self-Managed CA",
            Snapshot(2000, 1),
            Snapshot(2040, 1),
            serials=self._serials,
        )

    # -- issuer selection ----------------------------------------------------

    def _issuer_for(self, label: str) -> CertificateAuthority:
        """A stable issuing intermediate per label."""
        issuer = self._issuers_by_label.get(label)
        if issuer is None:
            rng = random.Random(f"{self._seed}:issuer:{label}")
            issuer = self._issuers[rng.choice(self._issuer_names)]
            self._issuers_by_label[label] = issuer
        return issuer

    def _month(self, year: int, offset: int = 0) -> Snapshot:
        """January of ``year`` moved by ``offset`` months."""
        index = year * 12 + offset
        month = self._months.get(index)
        if month is None:
            month = self._months[index] = Snapshot(index // 12, index % 12 + 1)
        return month

    # -- hypergiant certificates ----------------------------------------------

    def _era_window(self, hg: HypergiantProfile, when: Snapshot) -> tuple[Snapshot, Snapshot]:
        key = (hg.key, when)
        window = self._era_windows.get(key)
        if window is None:
            months = max(1, hg.validity_months(when))
            delta = when.months_since(_ERA_EPOCH)
            era_start = _ERA_EPOCH.plus_months((delta // months) * months)
            window = era_start, era_start.plus_months(months)
            self._era_windows[key] = window
        return window

    def hypergiant_chain(
        self,
        hg_key: str,
        group: int,
        when: Snapshot,
        offnet: bool = False,
        shard: int = 0,
        generation: int = 0,
    ) -> CertificateChain:
        """The chain a HG server of domain-group ``group`` presents at
        ``when``.

        Off-net Netflix servers inside the expired era return the frozen
        pre-era certificate (§6.2) instead of a fresh one.  ``shard``
        selects among operationally distinct certificates covering the same
        domain group — HG fleets split their population over several
        certificates (Figure 11's IP groups), and Facebook's sharding grew
        over time.  ``generation`` counts scenario-event mass rotations: a
        non-zero generation reissues the chain (same names, same validity
        era, fresh serial and fingerprint) without disturbing the
        generation-0 issuance stream the default world depends on.
        """
        hg = profile(hg_key)
        group = group % len(hg.domain_groups)
        if (
            offnet
            and hg_key == "netflix"
            and group == 0
            and NETFLIX_EXPIRED_ERA[0] <= when < NETFLIX_EXPIRED_ERA[1]
        ):
            return self._netflix_frozen_chain()
        return self._issue_group_chain(hg, group, when, shard, generation)

    def _netflix_frozen_chain(self) -> CertificateChain:
        """The certificate Netflix off-nets kept serving after it expired:
        valid for the year *before* the era, hence expired throughout it."""
        key = ("netflix-frozen",)
        chain = self._chain_cache.get(key)
        if chain is None:
            netflix = profile("netflix")
            issuer = self._issuer_for("hg:netflix:0")
            era_start = NETFLIX_EXPIRED_ERA[0]
            leaf = issuer.issue(
                subject=SubjectName(
                    common_name=netflix.domain_groups[0][0],
                    organization=netflix.organization,
                ),
                dns_names=netflix.domain_groups[0],
                not_before=era_start.plus_months(-13),
                not_after=era_start.plus_months(-1),
                provenance="hg:netflix:frozen-expired",
            )
            chain = build_chain(leaf, issuer)
            self._chain_cache[key] = chain
        return chain

    def _issue_group_chain(
        self,
        hg: HypergiantProfile,
        group: int,
        when: Snapshot,
        shard: int = 0,
        generation: int = 0,
    ) -> CertificateChain:
        not_before, not_after = self._era_window(hg, when)
        key = ("hg", hg.key, group, shard, generation, not_before.label, not_after.label)
        chain = self._chain_cache.get(key)
        if chain is None:
            issuer = self._issuer_for(f"hg:{hg.key}:{group}")
            names = hg.domain_groups[group]
            provenance = f"hg:{hg.key}:group{group}:shard{shard}"
            if generation:
                provenance += f":gen{generation}"
            leaf = issuer.issue(
                subject=SubjectName(common_name=names[0], organization=hg.organization),
                dns_names=names,
                not_before=not_before,
                not_after=not_after,
                provenance=provenance,
            )
            chain = build_chain(leaf, issuer)
            self._chain_cache[key] = chain
        return chain

    # -- §8 hide-and-seek variants ----------------------------------------------

    def stripped_organization_chain(self, hg_key: str, when: Snapshot) -> CertificateChain:
        """§8 strategy (3): the off-net certificate without an Organization
        entry — the keyword search has nothing to match."""
        hg = profile(hg_key)
        not_before, not_after = self._era_window(hg, when)
        key = ("hg-stripped", hg_key, not_before.label)
        chain = self._chain_cache.get(key)
        if chain is None:
            issuer = self._issuer_for(f"hg:{hg_key}:0")
            names = hg.domain_groups[0]
            leaf = issuer.issue(
                subject=SubjectName(common_name=names[0], organization=""),
                dns_names=names,
                not_before=not_before,
                not_after=not_after,
                provenance=f"hg:{hg_key}:stripped-org",
            )
            chain = build_chain(leaf, issuer)
            self._chain_cache[key] = chain
        return chain

    def unique_domain_chain(
        self, hg_key: str, asn: int, when: Snapshot
    ) -> CertificateChain:
        """§8 strategy (3b): a per-deployment hostname that never appears
        on-net, so the §4.3 subset rule rejects the candidate."""
        hg = profile(hg_key)
        not_before, not_after = self._era_window(hg, when)
        key = ("hg-unique", hg_key, asn, not_before.label)
        chain = self._chain_cache.get(key)
        if chain is None:
            issuer = self._issuer_for(f"hg:{hg_key}:0")
            domain = f"cache-as{asn}.{hg_key}-edge.example"
            leaf = issuer.issue(
                subject=SubjectName(common_name=domain, organization=hg.organization),
                dns_names=(domain,),
                not_before=not_before,
                not_after=not_after,
                provenance=f"hg:{hg_key}:unique:{asn}",
            )
            chain = build_chain(leaf, issuer)
            self._chain_cache[key] = chain
        return chain

    # -- Cloudflare customers --------------------------------------------------

    def cloudflare_customer_domain(self, customer_id: int) -> str:
        """The synthetic domain of Cloudflare customer ``customer_id``."""
        return f"customer{customer_id}.example.org"

    def cloudflare_bundle_chain(self, bundle: int, when: Snapshot) -> CertificateChain:
        """A Universal SSL bundle: ~20 customer domains + the marker SAN.

        Served both by Cloudflare's on-net edges and by free-tier customer
        back-ends — which is exactly what misleads the candidate rule.
        """
        cloudflare = profile("cloudflare")
        not_before, not_after = self._era_window(cloudflare, when)
        key = ("cf-bundle", bundle, not_before.label)
        chain = self._chain_cache.get(key)
        if chain is None:
            issuer = self._issuer_for(f"cf-bundle:{bundle}")
            customers = tuple(
                self.cloudflare_customer_domain(bundle * _CF_BUNDLE_SIZE + i)
                for i in range(_CF_BUNDLE_SIZE)
            )
            names = (f"sni{100000 + bundle}{CLOUDFLARE_SNI_SUFFIX}",) + customers
            leaf = issuer.issue(
                subject=SubjectName(
                    common_name=names[0], organization=cloudflare.organization
                ),
                dns_names=names,
                not_before=not_before,
                not_after=not_after,
                provenance=f"cf-bundle:{bundle}",
            )
            chain = build_chain(leaf, issuer)
            self._chain_cache[key] = chain
        return chain

    def cloudflare_dedicated_chain(self, customer_id: int, when: Snapshot) -> CertificateChain:
        """A paid dedicated certificate: customer domains only, **no**
        ``cloudflaressl.com`` marker — it survives the §7 filter."""
        cloudflare = profile("cloudflare")
        not_before, not_after = self._era_window(cloudflare, when)
        key = ("cf-dedicated", customer_id, not_before.label)
        chain = self._chain_cache.get(key)
        if chain is None:
            issuer = self._issuer_for(f"cf-dedicated:{customer_id}")
            domain = self.cloudflare_customer_domain(customer_id)
            leaf = issuer.issue(
                subject=SubjectName(common_name=domain, organization=cloudflare.organization),
                dns_names=(domain, f"www.{domain}"),
                not_before=not_before,
                not_after=not_after,
                provenance=f"cf-dedicated:{customer_id}",
            )
            chain = build_chain(leaf, issuer)
            self._chain_cache[key] = chain
        return chain

    def cloudflare_onnet_customer_names(self, bundles: int) -> tuple[str, ...]:
        """All customer-facing names Cloudflare's edges serve (bundles 0..n).

        Used by the world builder to make on-net edges present every bundle,
        so the §4.3 subset rule sees customer domains as "served on-net".
        Dedicated-customer ``www.`` aliases are included too.
        """
        names: list[str] = []
        for bundle in range(bundles):
            for i in range(_CF_BUNDLE_SIZE):
                domain = self.cloudflare_customer_domain(bundle * _CF_BUNDLE_SIZE + i)
                names.append(domain)
                names.append(f"www.{domain}")
        return tuple(names)

    def cloudflare_www_bundle_chain(self, bundle: int, when: Snapshot) -> CertificateChain:
        """The companion on-net bundle covering ``www.`` aliases, so
        dedicated certificates' SANs are all present on-net."""
        cloudflare = profile("cloudflare")
        not_before, not_after = self._era_window(cloudflare, when)
        key = ("cf-www-bundle", bundle, not_before.label)
        chain = self._chain_cache.get(key)
        if chain is None:
            issuer = self._issuer_for(f"cf-www-bundle:{bundle}")
            aliases = tuple(
                f"www.{self.cloudflare_customer_domain(bundle * _CF_BUNDLE_SIZE + i)}"
                for i in range(_CF_BUNDLE_SIZE)
            )
            names = (f"sni{200000 + bundle}{CLOUDFLARE_SNI_SUFFIX}",) + aliases
            leaf = issuer.issue(
                subject=SubjectName(
                    common_name=names[0], organization=cloudflare.organization
                ),
                dns_names=names,
                not_before=not_before,
                not_after=not_after,
                provenance=f"cf-www-bundle:{bundle}",
            )
            chain = build_chain(leaf, issuer)
            self._chain_cache[key] = chain
        return chain

    # -- adversarial / odd certificates ---------------------------------------

    def fake_dv_chain(self, hg_key: str, attacker_id: int, when: Snapshot) -> CertificateChain:
        """A WebPKI-valid DV certificate whose unvalidated Organization
        imitates ``hg_key`` but whose domains are the attacker's own."""
        hg = profile(hg_key)
        key = ("fake-dv", hg_key, attacker_id, when.year)
        chain = self._chain_cache.get(key)
        if chain is None:
            issuer = self._issuer_for(f"fake-dv:{attacker_id}")
            domain = f"totally-not-{hg.key}-{attacker_id}.example.net"
            leaf = issuer.issue(
                subject=SubjectName(common_name=domain, organization=hg.organization),
                dns_names=(domain,),
                not_before=self._month(when.year),
                not_after=self._month(when.year, 14),
                provenance=f"fake-dv:{hg.key}:{attacker_id}",
            )
            chain = build_chain(leaf, issuer)
            self._chain_cache[key] = chain
        return chain

    def shared_chain(self, hg_key: str, partner_id: int, when: Snapshot) -> CertificateChain:
        """A certificate a HG shares with a partner organisation: HG domains
        plus partner domains that never appear on-net (§4.3 filters it)."""
        hg = profile(hg_key)
        key = ("shared", hg_key, partner_id, when.year)
        chain = self._chain_cache.get(key)
        if chain is None:
            issuer = self._issuer_for(f"shared:{hg_key}:{partner_id}")
            names = hg.offnet_domains + (f"partner{partner_id}.example.com",)
            leaf = issuer.issue(
                subject=SubjectName(common_name=names[0], organization=hg.organization),
                dns_names=names,
                not_before=self._month(when.year),
                not_after=self._month(when.year, 14),
                provenance=f"shared:{hg_key}:{partner_id}",
            )
            chain = build_chain(leaf, issuer)
            self._chain_cache[key] = chain
        return chain

    # -- background sites -------------------------------------------------------

    def background_chain(
        self,
        site_id: int,
        organization: str,
        when: Snapshot,
        invalid_mode: str = "",
    ) -> CertificateChain:
        """An ordinary site's chain; ``invalid_mode`` selects §4.1 rejects:
        ``"expired"``, ``"self-signed"``, or ``"untrusted"``."""
        key = ("bg", site_id, invalid_mode, when.year)
        chain = self._chain_cache.get(key)
        if chain is not None:
            return chain
        year = when.year
        domain = f"site{site_id}.example.com"
        subject = SubjectName(common_name=domain, organization=organization)
        names = (domain, f"www.{domain}")
        if invalid_mode == "self-signed":
            leaf = make_self_signed(
                subject, names, self._month(year), self._month(year, 120),
                provenance=f"bg-selfsigned:{site_id}",
                serials=self._serials,
            )
            chain = CertificateChain((leaf,))
        elif invalid_mode == "expired":
            issuer = self._issuer_for(f"bg:{site_id}")
            leaf = issuer.issue(
                subject=subject,
                dns_names=names,
                not_before=self._month(year, -36),
                not_after=self._month(year, -12),
                provenance=f"bg-expired:{site_id}",
            )
            chain = build_chain(leaf, issuer)
        elif invalid_mode == "untrusted":
            leaf = self._rogue_authority.issue(
                subject=subject,
                dns_names=names,
                not_before=self._month(year),
                not_after=self._month(year, 24),
                provenance=f"bg-untrusted:{site_id}",
            )
            chain = build_chain(leaf, self._rogue_authority, include_root=True)
        elif invalid_mode == "":
            issuer = self._issuer_for(f"bg:{site_id}")
            leaf = issuer.issue(
                subject=subject,
                dns_names=names,
                not_before=self._month(year),
                not_after=self._month(year, 15),
                provenance=f"bg:{site_id}",
            )
            chain = build_chain(leaf, issuer)
        else:
            raise ValueError(f"unknown invalid_mode {invalid_mode!r}")
        self._chain_cache[key] = chain
        return chain
