"""Certificate authorities with simulated (but checkable) signatures.

Real signature verification needs big-integer crypto that adds nothing to the
reproduction, so signatures are simulated with a keyed BLAKE2 digest: a CA
signs ``cert.tbs_digest_input()`` with its private key, and a verifier who
knows the CA's *public* key can recompute the expected digest.  The scheme
keeps the essential property the pipeline relies on — a certificate chain
can only verify if every link was actually produced by the named issuer —
while remaining fast and dependency-free.

Forged certificates (e.g. a DV certificate with "Google LLC" in the
Organization field, §4.2) are modelled simply by having a *different* CA sign
them: they verify as WebPKI-valid but carry a misleading Organization, which
is exactly the attack the dNSName-subset rule defends against.

Serials come from a counter the caller owns: a root draws from the one it
is created with (a fresh one by default) and its intermediates share it,
so a world whose every authority and self-signed leaf draws from one
counter issues the same serials, and therefore the same fingerprints,
however many worlds the process built before it.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.timeline import Snapshot
from repro.x509.certificate import Certificate, SubjectName

__all__ = ["KeyPair", "CertificateAuthority", "sign_digest"]


def sign_digest(private_key: str, message: str) -> str:
    """Simulated signature: a BLAKE2 digest keyed by the private key."""
    key_bytes = private_key.encode()[:64] or b"\x00"
    return hashlib.blake2b(message.encode(), key=key_bytes, digest_size=16).hexdigest()


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A simulated asymmetric key pair.

    Verification only needs the *public* half: because
    ``private_key = "priv:" + public_key`` by construction, a verifier can
    recompute the signing key from the public identifier.  (This obviously is
    not secure cryptography; it is a deterministic stand-in with the same
    verification API shape.)
    """

    public_key: str

    @property
    def private_key(self) -> str:
        return "priv:" + self.public_key

    @classmethod
    def generate(cls, label: str) -> "KeyPair":
        digest = hashlib.blake2b(label.encode(), digest_size=12).hexdigest()
        return cls(public_key=f"key-{digest}")


def _fingerprint(tbs: str, signature: str) -> str:
    return hashlib.blake2b(f"{tbs}#{signature}".encode(), digest_size=20).hexdigest()


@dataclass(slots=True)
class CertificateAuthority:
    """An issuing authority: either a root CA or an intermediate.

    Roots are self-signed; intermediates carry the certificate their parent
    issued for them and a reference to the parent authority, so server
    chains can be assembled by walking up.  ``issue()`` produces end-entity
    (or subordinate CA) certificates signed with this authority's key,
    drawing their serials from ``serials``.
    """

    name: str
    key: KeyPair
    certificate: Certificate
    serials: Iterator[int] = field(repr=False, compare=False)
    parent: "CertificateAuthority | None" = None

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def ancestors(self) -> list["CertificateAuthority"]:
        """This authority followed by its parents, root last."""
        chain: list[CertificateAuthority] = []
        node: CertificateAuthority | None = self
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain

    @classmethod
    def create_root(
        cls,
        name: str,
        not_before: Snapshot,
        not_after: Snapshot,
        serials: Iterator[int] | None = None,
    ) -> "CertificateAuthority":
        """Create a self-signed root CA valid over the given window.

        The root and everything it (or its intermediates) issues draw
        serials from ``serials``; without one it gets its own counter.
        """
        serials = itertools.count(1) if serials is None else serials
        key = KeyPair.generate(f"root:{name}")
        subject = SubjectName(common_name=name, organization=name)
        certificate = _build_signed(
            subject=subject,
            issuer=subject,
            dns_names=(),
            not_before=not_before,
            not_after=not_after,
            is_ca=True,
            subject_key_id=key.public_key,
            authority_key_id=key.public_key,
            signing_key=key,
            provenance=f"root-ca:{name}",
            serial=next(serials),
        )
        return cls(name=name, key=key, certificate=certificate, serials=serials)

    def create_intermediate(
        self,
        name: str,
        not_before: Snapshot,
        not_after: Snapshot,
    ) -> "CertificateAuthority":
        """Issue a subordinate CA signed by this authority."""
        key = KeyPair.generate(f"intermediate:{self.name}:{name}")
        certificate = _build_signed(
            subject=SubjectName(common_name=name, organization=name),
            issuer=self.certificate.subject,
            dns_names=(),
            not_before=not_before,
            not_after=not_after,
            is_ca=True,
            subject_key_id=key.public_key,
            authority_key_id=self.key.public_key,
            signing_key=self.key,
            provenance=f"intermediate-ca:{name}",
            serial=next(self.serials),
        )
        return CertificateAuthority(
            name=name, key=key, certificate=certificate, parent=self, serials=self.serials
        )

    def issue(
        self,
        subject: SubjectName,
        dns_names: tuple[str, ...],
        not_before: Snapshot,
        not_after: Snapshot,
        is_ca: bool = False,
        provenance: str = "",
    ) -> Certificate:
        """Issue a certificate signed by this authority's key."""
        subject_key = KeyPair.generate(
            f"ee:{subject}:{','.join(dns_names)}:{not_before.label}:{next(self.serials)}"
        )
        return _build_signed(
            subject=subject,
            issuer=self.certificate.subject,
            dns_names=dns_names,
            not_before=not_before,
            not_after=not_after,
            is_ca=is_ca,
            subject_key_id=subject_key.public_key,
            authority_key_id=self.key.public_key,
            signing_key=self.key,
            provenance=provenance,
            serial=next(self.serials),
        )


def _build_signed(
    subject: SubjectName,
    issuer: SubjectName,
    dns_names: tuple[str, ...],
    not_before: Snapshot,
    not_after: Snapshot,
    is_ca: bool,
    subject_key_id: str,
    authority_key_id: str,
    signing_key: KeyPair,
    provenance: str,
    serial: int,
) -> Certificate:
    unsigned = Certificate(
        fingerprint="",
        subject=subject,
        issuer=issuer,
        dns_names=dns_names,
        not_before=not_before,
        not_after=not_after,
        is_ca=is_ca,
        subject_key_id=subject_key_id,
        authority_key_id=authority_key_id,
        signature="",
        serial=serial,
        provenance=provenance,
    )
    tbs = unsigned.tbs_digest_input()
    signature = sign_digest(signing_key.private_key, tbs)
    return Certificate(
        fingerprint=_fingerprint(tbs, signature),
        subject=subject,
        issuer=issuer,
        dns_names=dns_names,
        not_before=not_before,
        not_after=not_after,
        is_ca=is_ca,
        subject_key_id=subject_key_id,
        authority_key_id=authority_key_id,
        signature=signature,
        serial=serial,
        provenance=provenance,
    )


def make_self_signed(
    subject: SubjectName,
    dns_names: tuple[str, ...],
    not_before: Snapshot,
    not_after: Snapshot,
    provenance: str = "self-signed",
    serials: Iterator[int] | None = None,
) -> Certificate:
    """Create a self-signed end-entity certificate (rejected by §4.1),
    its serial drawn from ``serials`` (serial 1 without one)."""
    key = KeyPair.generate(f"selfsigned:{subject}:{','.join(dns_names)}:{not_before.label}")
    return _build_signed(
        subject=subject,
        issuer=subject,
        dns_names=dns_names,
        not_before=not_before,
        not_after=not_after,
        is_ca=False,
        subject_key_id=key.public_key,
        authority_key_id=key.public_key,
        signing_key=key,
        provenance=provenance,
        serial=next(serials) if serials is not None else 1,
    )
