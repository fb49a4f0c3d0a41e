"""IPv4 addresses and prefixes backed by plain integers.

The scan simulators touch hundreds of thousands of addresses per snapshot, so
these types are deliberately small: an :class:`IPv4Address` wraps one ``int``
and an :class:`IPv4Prefix` wraps ``(network_int, length)``.  Both are frozen,
hashable, and totally ordered.

The module also carries the IANA special-purpose (bogon) registry used by the
IP-to-AS mapping to filter reserved prefixes (Appendix A.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "IPv4Address",
    "IPv4Prefix",
    "SPECIAL_PURPOSE_PREFIXES",
    "is_bogon",
]

_MAX_IPV4 = 2**32 - 1


@dataclass(frozen=True, order=True, slots=True)
class IPv4Address:
    """A single IPv4 address, stored as an unsigned 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX_IPV4:
            raise ValueError(f"IPv4 address out of range: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad notation, e.g. ``"192.0.2.1"``."""
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"invalid IPv4 address: {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
                raise ValueError(f"invalid IPv4 address: {text!r}")
            octet = int(part)
            if octet > 255:
                raise ValueError(f"invalid IPv4 address: {text!r}")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True, order=True, slots=True)
class IPv4Prefix:
    """An IPv4 prefix (CIDR block) with a canonical network address.

    The network address must have all host bits zero; :meth:`parse` and the
    constructor both enforce this so two equal prefixes always compare equal.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= _MAX_IPV4:
            raise ValueError(f"network address out of range: {self.network}")
        if self.network & self.host_mask:
            raise ValueError(
                f"host bits set in network address: {IPv4Address(self.network)}/{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        """Parse CIDR notation, e.g. ``"198.51.100.0/24"``."""
        address_text, _, length_text = text.partition("/")
        if not length_text:
            raise ValueError(f"missing prefix length: {text!r}")
        return cls(IPv4Address.parse(address_text).value, int(length_text))

    @classmethod
    def from_address(cls, address: IPv4Address | int, length: int) -> "IPv4Prefix":
        """Build the prefix of ``length`` bits containing ``address``."""
        value = address.value if isinstance(address, IPv4Address) else address
        mask = _netmask(length)
        return cls(value & mask, length)

    @property
    def netmask(self) -> int:
        """The network mask as an integer (e.g. ``0xFFFFFF00`` for /24)."""
        return _netmask(self.length)

    @property
    def host_mask(self) -> int:
        """The inverse mask covering the host bits."""
        return _MAX_IPV4 ^ self.netmask

    @property
    def num_addresses(self) -> int:
        """Total number of addresses covered (including network/broadcast)."""
        return 1 << (32 - self.length)

    @property
    def first(self) -> IPv4Address:
        """The lowest address in the prefix (the network address)."""
        return IPv4Address(self.network)

    @property
    def last(self) -> IPv4Address:
        """The highest address in the prefix."""
        return IPv4Address(self.network | self.host_mask)

    def contains(self, item: "IPv4Address | IPv4Prefix | int") -> bool:
        """True if ``item`` (address or sub-prefix) falls inside this prefix."""
        if isinstance(item, IPv4Prefix):
            return item.length >= self.length and (item.network & self.netmask) == self.network
        value = item.value if isinstance(item, IPv4Address) else item
        return (value & self.netmask) == self.network

    def __contains__(self, item: "IPv4Address | IPv4Prefix | int") -> bool:
        return self.contains(item)

    def address_at(self, offset: int) -> IPv4Address:
        """The address ``offset`` positions into the prefix (0 = network)."""
        if not 0 <= offset < self.num_addresses:
            raise IndexError(f"offset {offset} outside /{self.length}")
        return IPv4Address(self.network + offset)

    def hosts(self) -> Iterator[IPv4Address]:
        """Iterate over every address in the prefix (including edges)."""
        return (IPv4Address(self.network + i) for i in range(self.num_addresses))

    def subnets(self, new_length: int) -> Iterator["IPv4Prefix"]:
        """Split into sub-prefixes of ``new_length`` bits."""
        if new_length < self.length:
            raise ValueError("new_length must not be shorter than the prefix")
        if new_length > 32:
            raise ValueError("new_length must be at most 32")
        step = 1 << (32 - new_length)
        return (
            IPv4Prefix(self.network + i * step, new_length)
            for i in range(1 << (new_length - self.length))
        )

    def __str__(self) -> str:
        return f"{IPv4Address(self.network)}/{self.length}"


def _netmask(length: int) -> int:
    if length == 0:
        return 0
    return (_MAX_IPV4 << (32 - length)) & _MAX_IPV4


#: IANA IPv4 Special-Purpose Address Registry (the bogon list used to filter
#: BGP announcements in Appendix A.1).
SPECIAL_PURPOSE_PREFIXES: tuple[IPv4Prefix, ...] = tuple(
    IPv4Prefix.parse(text)
    for text in (
        "0.0.0.0/8",        # "this network"
        "10.0.0.0/8",       # private-use
        "100.64.0.0/10",    # shared address space (CGN)
        "127.0.0.0/8",      # loopback
        "169.254.0.0/16",   # link local
        "172.16.0.0/12",    # private-use
        "192.0.0.0/24",     # IETF protocol assignments
        "192.0.2.0/24",     # TEST-NET-1
        "192.88.99.0/24",   # 6to4 relay anycast (deprecated)
        "192.168.0.0/16",   # private-use
        "198.18.0.0/15",    # benchmarking
        "198.51.100.0/24",  # TEST-NET-2
        "203.0.113.0/24",   # TEST-NET-3
        "224.0.0.0/4",      # multicast
        "240.0.0.0/4",      # reserved
    )
)


#: :data:`SPECIAL_PURPOSE_PREFIXES` as inclusive integer ``(first, last)``
#: address ranges, computed once for :func:`is_bogon`.
_SPECIAL_RANGES: tuple[tuple[int, int], ...] = tuple(
    (special.network, special.network | special.host_mask)
    for special in SPECIAL_PURPOSE_PREFIXES
)


def is_bogon(item: IPv4Address | IPv4Prefix | int) -> bool:
    """True if the address or prefix falls inside any special-purpose block.

    A prefix is a bogon if it overlaps a special block in either direction
    (covers it or is covered by it).  CIDR blocks overlap only by nesting,
    so that is exactly when their address ranges intersect.
    """
    if isinstance(item, IPv4Prefix):
        first = item.network
        last = first | (_MAX_IPV4 >> item.length)
        for low, high in _SPECIAL_RANGES:
            if first <= high and low <= last:
                return True
        return False
    # An int outside the 32-bit range is judged by its low 32 bits, as
    # a netmask test judges it.
    value = (item.value if isinstance(item, IPv4Address) else item) & _MAX_IPV4
    for low, high in _SPECIAL_RANGES:
        if low <= value <= high:
            return True
    return False
