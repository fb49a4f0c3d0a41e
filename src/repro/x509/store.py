"""The trusted root/intermediate store — a Common CA Database substitute.

§4.1 verifies every scanned chain "against a list of well-trusted root and
intermediate certificates which form the WebPKI (extracted from the Common CA
Database)".  :class:`RootStore` is that list; :func:`build_web_pki` creates a
deterministic synthetic WebPKI with a handful of commercial root programs and
per-root intermediates, mirroring how real hypergiants obtain certificates
from a small set of public CAs (DigiCert, GlobalSign, Let's Encrypt, ...).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.timeline import STUDY_END, STUDY_START, Snapshot
from repro.x509.authority import CertificateAuthority
from repro.x509.certificate import Certificate

__all__ = ["RootStore", "build_web_pki", "WEB_PKI_ROOT_NAMES"]

#: Synthetic stand-ins for the large commercial root programs.
WEB_PKI_ROOT_NAMES: tuple[str, ...] = (
    "Synthetic DigiCert Global Root",
    "Synthetic GlobalSign Root",
    "Synthetic ISRG Root (Let's Encrypt)",
    "Synthetic Sectigo Root",
    "Synthetic GTS Root (Google Trust Services)",
    "Synthetic Baltimore CyberTrust Root",
)


@dataclass(slots=True)
class RootStore:
    """Trusted anchors keyed by subject key identifier.

    Both roots and intermediates can be anchors (the CCADB publishes both),
    so chains missing an intermediate can still verify if that intermediate
    is independently trusted — exactly the recommendation of the prior
    studies the paper cites.
    """

    _anchors: dict[str, Certificate] = field(default_factory=dict)

    def add(self, certificate: Certificate) -> None:
        """Trust ``certificate`` as an anchor.  Only CA certs are allowed."""
        if not certificate.is_ca:
            raise ValueError("only CA certificates can be trust anchors")
        self._anchors[certificate.subject_key_id] = certificate

    def add_authority(self, authority: CertificateAuthority) -> None:
        """Trust an authority's certificate."""
        self.add(authority.certificate)

    def get(self, subject_key_id: str) -> Certificate | None:
        """The trusted anchor with this subject key id, if any."""
        return self._anchors.get(subject_key_id)

    def __contains__(self, certificate: Certificate) -> bool:
        anchored = self._anchors.get(certificate.subject_key_id)
        return anchored is not None and anchored.fingerprint == certificate.fingerprint

    def __len__(self) -> int:
        return len(self._anchors)

    def anchors(self) -> tuple[Certificate, ...]:
        """All trusted anchor certificates."""
        return tuple(self._anchors.values())


def build_web_pki(
    not_before: Snapshot = STUDY_START.plus_months(-60),
    not_after: Snapshot = STUDY_END.plus_months(120),
    intermediates_per_root: int = 2,
    serials: Iterator[int] | None = None,
) -> tuple[RootStore, dict[str, CertificateAuthority]]:
    """Create the synthetic WebPKI.

    Returns the trust store plus a name → issuing-authority map.  Issuing
    authorities are the *intermediates* (as in the real WebPKI, roots rarely
    sign end-entity certificates directly); they are named
    ``"<root name> / Intermediate <n>"`` and all of them — and their roots —
    are anchored in the store.  Every authority, and every certificate
    they issue, draws its serial from ``serials`` (a fresh counter by
    default).
    """
    serials = itertools.count(1) if serials is None else serials
    store = RootStore()
    issuers: dict[str, CertificateAuthority] = {}
    for root_name in WEB_PKI_ROOT_NAMES:
        root = CertificateAuthority.create_root(
            root_name, not_before, not_after, serials=serials
        )
        store.add_authority(root)
        for index in range(1, intermediates_per_root + 1):
            name = f"{root_name} / Intermediate {index}"
            intermediate = root.create_intermediate(name, not_before, not_after)
            store.add_authority(intermediate)
            issuers[name] = intermediate
    return store, issuers
