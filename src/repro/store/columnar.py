"""The columnar, deduplicated snapshot store.

The paper's §4 observation is that millions of IPs present a *tiny* set of
distinct certificates — the redundancy at-scale scanners exploit by
deduplicating before analysis.  :class:`SnapshotStore` is that idea as a
data structure: instead of one row object per observation, a snapshot is

* a **unique-chain table** — each distinct certificate chain stored once,
  interned by its end-entity fingerprint (the identity convention the
  validator caches, the JSONL format and ``unique_certificates()`` already
  share);
* per unique chain, indices into **interned side tables**: the
  ``Subject.Organization`` string table and the lowercased dNSName tuple
  table (the two fields §4.2/§4.3 matching reads);
* the TLS rows reduced to parallel ``(ip, chain_index)`` columns and the
  HTTP rows to ``(ip, port, header_index)`` columns over an interned
  header-tuple table.

Downstream stages then do per-*unique-chain* work exactly once (§4.1
verification verdicts, org→HG keyword matches, the §4.3 dNSName-subset
test) and broadcast results over the rows — while
:class:`~repro.scan.records.ScanSnapshot` keeps serving lazy row-object
views so every existing per-record consumer still works unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.x509.chain import CertificateChain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.records import HTTPRecord, TLSRecord

__all__ = ["SnapshotStore", "StoreStats"]

#: Slot 0 of every stack table: "no TLS stack observed".  Mirrors
#: :data:`repro.scan.handshake.UNKNOWN_STACK` (the store sits below the
#: scan layer, so the sentinel is restated rather than imported).
_UNKNOWN_STACK: tuple[str, str, str] = ("", "", "")


@dataclass(frozen=True, slots=True)
class StoreStats:
    """Size accounting for one store — the obs layer's raw material."""

    tls_rows: int
    http_rows: int
    unique_chains: int
    unique_ips: int
    org_entries: int
    dns_entries: int
    header_entries: int

    @property
    def unique_chain_ratio(self) -> float:
        """Unique chains per TLS row (1.0 = no sharing; → 0 = heavy reuse)."""
        return self.unique_chains / self.tls_rows if self.tls_rows else 0.0


class SnapshotStore:
    """Columnar storage for one scan snapshot's TLS and HTTP observations.

    Chains, Organization strings, dNSName tuples and header tuples are
    interned once each (``intern_chain`` et al.); observations append to
    parallel row columns, a whole snapshot at a time (``add_rows``) or
    one row at a time for streaming readers
    (``add_tls``/``add_tls_row``/``add_http``).  Readers
    either walk the intern tables directly (the §4 hot paths) or use
    the lazy row views on :class:`~repro.scan.records.ScanSnapshot`.
    ``stats()`` summarises the dedup payoff for the run report.
    """

    __slots__ = (
        "chains",
        "chain_org",
        "chain_dns",
        "org_table",
        "dns_table",
        "header_table",
        "tls_ip",
        "tls_chain",
        "tls_stack",
        "stack_table",
        "http_ip",
        "http_port",
        "http_header",
        "_chain_index",
        "_org_index",
        "_dns_index",
        "_header_index",
        "_stack_index",
        "_tls_ip_set",
        "_frozen_ips",
        "_http_by_key",
        "_stack_by_ip",
    )

    def __init__(self) -> None:
        #: The unique-chain table (end-entity fingerprint is the intern key).
        self.chains: list[CertificateChain] = []
        #: chain index -> index into :attr:`org_table`.
        self.chain_org: list[int] = []
        #: chain index -> index into :attr:`dns_table`.
        self.chain_dns: list[int] = []
        #: Interned ``Subject.Organization`` strings.
        self.org_table: list[str] = []
        #: Interned lowercased dNSName tuples.
        self.dns_table: list[tuple[str, ...]] = []
        #: Interned response-header tuples.
        self.header_table: list[tuple[tuple[str, str], ...]] = []
        #: TLS rows as parallel columns (``tls_stack`` refs
        #: :attr:`stack_table`; slot 0 is the unknown-stack sentinel).
        self.tls_ip: list[int] = []
        self.tls_chain: list[int] = []
        self.tls_stack: list[int] = []
        #: Interned TLS stack-feature triples; slot 0 is always unknown.
        self.stack_table: list[tuple[str, str, str]] = [_UNKNOWN_STACK]
        #: HTTP rows as parallel columns.
        self.http_ip: list[int] = []
        self.http_port: list[int] = []
        self.http_header: list[int] = []
        self._chain_index: dict[str, int] = {}
        self._org_index: dict[str, int] = {}
        self._dns_index: dict[tuple[str, ...], int] = {}
        self._header_index: dict[tuple[tuple[str, str], ...], int] = {}
        self._stack_index: dict[tuple[str, str, str], int] = {_UNKNOWN_STACK: 0}
        self._tls_ip_set: set[int] = set()
        self._frozen_ips: frozenset[int] | None = None
        self._http_by_key: dict[tuple[int, int], int] | None = None
        self._stack_by_ip: dict[int, int] | None = None

    # -- bulk construction -------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        *,
        chains: list[CertificateChain],
        chain_org: list[int],
        chain_dns: list[int],
        org_table: list[str],
        dns_table: list[tuple[str, ...]],
        header_table: list[tuple[tuple[str, str], ...]],
        tls_ip: list[int],
        tls_chain: list[int],
        http_ip: list[int],
        http_port: list[int],
        http_header: list[int],
        stack_table: list[tuple[str, str, str]] | None = None,
        tls_stack: list[int] | None = None,
    ) -> SnapshotStore:
        """Adopt pre-built columns wholesale (the binary-corpus load path).

        The caller supplies exactly the store's persisted layout — intern
        side tables plus parallel row columns — and this constructor only
        rebuilds the derived lookup indexes, each as a single C-speed
        comprehension.  No per-row method calls, no re-interning: this is
        what lets :mod:`repro.datasets.columnar` land a snapshot in the
        store at memcpy-like cost.  Referential integrity (row indexes in
        range, equal column lengths) is the caller's contract; the
        columnar reader enforces it before calling.
        """
        store = cls()
        store.chains = chains
        store.chain_org = chain_org
        store.chain_dns = chain_dns
        store.org_table = org_table
        store.dns_table = dns_table
        store.header_table = header_table
        store.tls_ip = tls_ip
        store.tls_chain = tls_chain
        store.http_ip = http_ip
        store.http_port = http_port
        store.http_header = http_header
        if stack_table is not None and tls_stack is not None:
            # The reader guarantees slot 0 is the unknown sentinel.
            store.stack_table = stack_table
            store.tls_stack = tls_stack
        else:
            # Stack-less columns (old corpus files): every row unknown.
            store.tls_stack = [0] * len(tls_ip)
        store._stack_index = {
            value: index for index, value in enumerate(store.stack_table)
        }
        store._chain_index = {
            chain.end_entity.fingerprint: index for index, chain in enumerate(chains)
        }
        store._org_index = {value: index for index, value in enumerate(org_table)}
        store._dns_index = {value: index for index, value in enumerate(dns_table)}
        store._header_index = {
            value: index for index, value in enumerate(header_table)
        }
        store._tls_ip_set = set(tls_ip)
        return store

    # -- interning ---------------------------------------------------------

    def intern_chain(self, chain: CertificateChain) -> int:
        """The chain's index in the unique-chain table (interning it on
        first sight, along with its Organization string and lowercased
        dNSName tuple)."""
        leaf = chain.end_entity
        fingerprint = leaf.fingerprint
        index = self._chain_index.get(fingerprint)
        if index is not None:
            return index
        index = len(self.chains)
        self._chain_index[fingerprint] = index
        self.chains.append(chain)
        self.chain_org.append(self._intern_org(leaf.subject.organization))
        self.chain_dns.append(self._intern_dns(tuple(map(str.lower, leaf.dns_names))))
        return index

    def _intern_org(self, organization: str) -> int:
        index = self._org_index.get(organization)
        if index is None:
            index = len(self.org_table)
            self._org_index[organization] = index
            self.org_table.append(organization)
        return index

    def _intern_dns(self, names: tuple[str, ...]) -> int:
        index = self._dns_index.get(names)
        if index is None:
            index = len(self.dns_table)
            self._dns_index[names] = index
            self.dns_table.append(names)
        return index

    def _intern_headers(self, headers: tuple[tuple[str, str], ...]) -> int:
        index = self._header_index.get(headers)
        if index is None:
            index = len(self.header_table)
            self._header_index[headers] = index
            self.header_table.append(headers)
        return index

    def chain_index_of(self, fingerprint: str) -> int:
        """The chain table index for an already-interned fingerprint."""
        return self._chain_index[fingerprint]

    def intern_stack(self, stack: tuple[str, str, str]) -> int:
        """The stack-feature triple's index in the stack table."""
        index = self._stack_index.get(stack)
        if index is None:
            index = len(self.stack_table)
            self._stack_index[stack] = index
            self.stack_table.append(stack)
        return index

    # -- ingestion ---------------------------------------------------------

    def add_tls(
        self,
        ip: int,
        chain: CertificateChain,
        stack: tuple[str, str, str] | None = None,
    ) -> int:
        """Append one TLS row, interning the chain (and the optional stack
        feature triple); returns the chain index."""
        index = self.intern_chain(chain)
        stack_index = 0 if stack is None else self.intern_stack(stack)
        self.add_tls_row(ip, index, stack_index)
        return index

    def add_tls_row(self, ip: int, chain_index: int, stack_index: int = 0) -> None:
        """Append one TLS row referencing already-interned chain/stack."""
        self.tls_ip.append(ip)
        self.tls_chain.append(chain_index)
        self.tls_stack.append(stack_index)
        self._tls_ip_set.add(ip)
        self._frozen_ips = None
        self._stack_by_ip = None

    def add_http(self, ip: int, port: int, headers: tuple[tuple[str, str], ...]) -> None:
        """Append one HTTP row, interning the header tuple."""
        self.http_ip.append(ip)
        self.http_port.append(port)
        self.http_header.append(self._intern_headers(headers))
        self._http_by_key = None

    def add_rows(
        self,
        tls_rows: Iterable[tuple[int, CertificateChain, tuple[str, str, str] | None]],
        http_rows: Iterable[tuple[int, int, tuple[tuple[str, str], ...]]],
    ) -> None:
        """Append TLS rows ``(ip, chain, stack or None)`` and HTTP rows
        ``(ip, port, headers)`` in one pass.  The tables, columns and
        their order equal those of an ``add_tls`` call per TLS row
        followed by an ``add_http`` call per HTTP row."""
        chain_index = self._chain_index
        stack_index = self._stack_index
        tls_ip = self.tls_ip
        tls_chain = self.tls_chain
        tls_stack = self.tls_stack
        first_new_row = len(tls_ip)
        for ip, chain, stack in tls_rows:
            index = chain_index.get(chain.end_entity.fingerprint)
            if index is None:
                index = self.intern_chain(chain)
            tls_ip.append(ip)
            tls_chain.append(index)
            if stack is None:
                tls_stack.append(0)
            else:
                slot = stack_index.get(stack)
                tls_stack.append(self.intern_stack(stack) if slot is None else slot)
        header_index = self._header_index
        http_ip = self.http_ip
        http_port = self.http_port
        http_header = self.http_header
        for ip, port, headers in http_rows:
            index = header_index.get(headers)
            if index is None:
                index = self._intern_headers(headers)
            http_ip.append(ip)
            http_port.append(port)
            http_header.append(index)
        self._tls_ip_set.update(tls_ip[first_new_row:])
        self._frozen_ips = None
        self._stack_by_ip = None
        self._http_by_key = None

    def extend(self, other: "SnapshotStore") -> None:
        """Append every row of ``other``, re-interning into this store's
        tables (the IPv6 corpus-merge path)."""
        chains, stacks, headers = other.chains, other.stack_table, other.header_table
        self.add_rows(
            [
                (ip, chains[chain_index], stacks[stack_index])
                for ip, chain_index, stack_index in zip(
                    other.tls_ip, other.tls_chain, other.tls_stack
                )
            ],
            [
                (ip, port, headers[header_index])
                for ip, port, header_index in zip(
                    other.http_ip, other.http_port, other.http_header
                )
            ],
        )

    def reset_tls(self) -> None:
        """Drop every TLS row and the chain/org/dns tables they intern."""
        self.chains.clear()
        self.chain_org.clear()
        self.chain_dns.clear()
        self.org_table.clear()
        self.dns_table.clear()
        self.tls_ip.clear()
        self.tls_chain.clear()
        self.tls_stack.clear()
        del self.stack_table[1:]
        self._stack_index = {_UNKNOWN_STACK: 0}
        self._chain_index.clear()
        self._org_index.clear()
        self._dns_index.clear()
        self._tls_ip_set.clear()
        self._frozen_ips = None
        self._stack_by_ip = None

    def reset_http(self) -> None:
        """Drop every HTTP row and the header table they intern."""
        self.http_ip.clear()
        self.http_port.clear()
        self.http_header.clear()
        self.header_table.clear()
        self._header_index.clear()
        self._http_by_key = None

    # -- counts (all O(1); maintained incrementally at ingest) -------------

    @property
    def tls_row_count(self) -> int:
        return len(self.tls_ip)

    @property
    def http_row_count(self) -> int:
        return len(self.http_ip)

    @property
    def unique_chain_count(self) -> int:
        return len(self.chains)

    @property
    def unique_ip_count(self) -> int:
        return len(self._tls_ip_set)

    def unique_ips(self) -> frozenset[int]:
        """The distinct TLS-serving IPs (cached; invalidated on ingest)."""
        if self._frozen_ips is None:
            self._frozen_ips = frozenset(self._tls_ip_set)
        return self._frozen_ips

    def stats(self) -> StoreStats:
        """Current size accounting (rows, unique tables, intern entries)."""
        return StoreStats(
            tls_rows=len(self.tls_ip),
            http_rows=len(self.http_ip),
            unique_chains=len(self.chains),
            unique_ips=len(self._tls_ip_set),
            org_entries=len(self.org_table),
            dns_entries=len(self.dns_table),
            header_entries=len(self.header_table),
        )

    # -- row access --------------------------------------------------------

    def iter_tls_rows(self) -> Iterator[tuple[int, int]]:
        """``(ip, chain_index)`` pairs in ingestion order."""
        return zip(self.tls_ip, self.tls_chain)

    def tls_record(self, row: int) -> "TLSRecord":
        """Materialize one TLS row as the classic record object."""
        from repro.scan.records import TLSRecord

        return TLSRecord(ip=self.tls_ip[row], chain=self.chains[self.tls_chain[row]])

    def http_record(self, row: int) -> "HTTPRecord":
        """Materialize one HTTP row as the classic record object."""
        from repro.scan.records import HTTPRecord

        return HTTPRecord(
            ip=self.http_ip[row],
            port=self.http_port[row],
            headers=self.header_table[self.http_header[row]],
        )

    def http_lookup(self, ip: int, port: int) -> "HTTPRecord | None":
        """The header record for ``(ip, port)``, via a lazily built index.

        On duplicate keys the last row wins — the semantics of the legacy
        ``{(r.ip, r.port): r}`` dict ``ScanSnapshot.http_for`` built, so
        §4.5 confirmation is unchanged."""
        row = self._http_row(ip, port)
        return None if row is None else self.http_record(row)

    def http_header_index(self, ip: int, port: int) -> int | None:
        """The :attr:`header_table` index of ``(ip, port)``'s response
        (the row :meth:`http_lookup` returns), or ``None`` when the
        scanner captured none — what per-header-tuple judges key on."""
        row = self._http_row(ip, port)
        return None if row is None else self.http_header[row]

    def _http_row(self, ip: int, port: int) -> int | None:
        if self._http_by_key is None:
            self._http_by_key = {
                (ip_, port_): row
                for row, (ip_, port_) in enumerate(zip(self.http_ip, self.http_port))
            }
        return self._http_by_key.get((ip, port))

    def stack_for(self, ip: int) -> tuple[str, str, str]:
        """The TLS stack features observed at ``ip`` (the unknown sentinel
        when the IP was never scanned or the corpus predates stacks), via
        a lazily built last-row-wins index — the same duplicate-key
        semantics as :meth:`http_lookup`."""
        if self._stack_by_ip is None:
            self._stack_by_ip = {
                ip_: stack_index
                for ip_, stack_index in zip(self.tls_ip, self.tls_stack)
            }
        return self.stack_table[self._stack_by_ip.get(ip, 0)]

    def lowered_dns(self, chain_index: int) -> tuple[str, ...]:
        """The interned lowercased dNSName tuple for one unique chain."""
        return self.dns_table[self.chain_dns[chain_index]]

    def organization(self, chain_index: int) -> str:
        """The interned Organization string for one unique chain."""
        return self.org_table[self.chain_org[chain_index]]
