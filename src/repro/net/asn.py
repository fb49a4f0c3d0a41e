"""Autonomous System Numbers and the IANA special-purpose ASN registry.

ASNs are represented as plain ``int`` throughout the library; the ``ASN``
alias exists to make signatures self-documenting.  The reserved ranges mirror
the IANA Special-Purpose AS Numbers registry referenced in Appendix A.1,
which the IP-to-AS mapping uses to filter tainted announcements.
"""

from __future__ import annotations

__all__ = ["ASN", "RESERVED_ASNS", "is_reserved_asn"]

#: Type alias: AS numbers are plain integers.
ASN = int

#: IANA special-purpose AS number ranges (inclusive), 32-bit aware.
RESERVED_ASNS: tuple[tuple[int, int], ...] = (
    (0, 0),                      # reserved (RFC 7607)
    (23456, 23456),              # AS_TRANS (RFC 6793)
    (64496, 64511),              # documentation (RFC 5398)
    (64512, 65534),              # private use (RFC 6996)
    (65535, 65535),              # reserved (RFC 7300)
    (65536, 65551),              # documentation (RFC 5398)
    (4200000000, 4294967294),    # private use (RFC 6996)
    (4294967295, 4294967295),    # reserved (RFC 7300)
)


def is_reserved_asn(asn: ASN) -> bool:
    """True if the AS number falls in a special-purpose / private range."""
    if asn < 0 or asn > 4294967295:
        return True
    for low, high in RESERVED_ASNS:
        if low <= asn <= high:
            return True
    return False
