"""Low-level network value types: IPv4 addresses, prefixes, ASNs, and
longest-prefix-match tables.

These are the building blocks shared by the BGP substrate, the scan
simulators, and the IP-to-AS mapping.  Addresses and prefixes are backed by
plain integers so the hot paths (containment checks, trie walks) stay cheap.
"""

from repro.net.asn import ASN, RESERVED_ASNS, is_reserved_asn
from repro.net.ipv4 import (
    IPv4Address,
    IPv4Prefix,
    SPECIAL_PURPOSE_PREFIXES,
    is_bogon,
)
from repro.net.radix import RadixTree

__all__ = [
    "ASN",
    "RESERVED_ASNS",
    "is_reserved_asn",
    "IPv4Address",
    "IPv4Prefix",
    "SPECIAL_PURPOSE_PREFIXES",
    "is_bogon",
    "RadixTree",
]
