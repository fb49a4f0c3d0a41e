"""Unit tests for the columnar :class:`~repro.store.SnapshotStore`.

The store's contract: intern every distinct chain exactly once (by
end-entity fingerprint), keep rows as parallel columns, answer the
aggregate questions in O(1), and serve lazy row views that behave like
the plain lists they replaced.
"""

import pytest

from repro.scan.records import HTTPRecord, ScanSnapshot, TLSRecord
from repro.store import SnapshotStore
from repro.timeline import Snapshot
from repro.x509 import CertificateAuthority, SubjectName, build_chain

EARLY = Snapshot(2012, 1)
LATE = Snapshot(2034, 1)
NOW = Snapshot(2019, 10)

_AUTHORITY = CertificateAuthority.create_root("Store Test Root", EARLY, LATE)


def _chain(cn="www.example.com", org="Example Org", dns=("WWW.Example.COM",)):
    leaf = _AUTHORITY.issue(
        subject=SubjectName(common_name=cn, organization=org),
        dns_names=dns,
        not_before=EARLY,
        not_after=LATE,
    )
    return build_chain(leaf, _AUTHORITY)


class TestInterning:
    def test_same_chain_interned_once(self):
        store = SnapshotStore()
        chain = _chain()
        assert store.add_tls(1, chain) == 0
        assert store.add_tls(2, chain) == 0
        assert store.add_tls(3, chain) == 0
        assert store.unique_chain_count == 1
        assert store.tls_row_count == 3
        assert store.tls_chain == [0, 0, 0]

    def test_distinct_chains_get_distinct_indices(self):
        store = SnapshotStore()
        assert store.add_tls(1, _chain(cn="a.example.com")) == 0
        assert store.add_tls(1, _chain(cn="b.example.com")) == 1
        assert store.unique_chain_count == 2

    def test_identity_is_end_entity_fingerprint(self):
        store = SnapshotStore()
        chain = _chain()
        index = store.intern_chain(chain)
        assert store.chain_index_of(chain.end_entity.fingerprint) == index
        with pytest.raises(KeyError):
            store.chain_index_of("no-such-fingerprint")

    def test_side_tables_shared_across_chains(self):
        """Two chains with the same Organization share one org entry;
        dNSNames are lowercased before interning."""
        store = SnapshotStore()
        first = store.intern_chain(_chain(cn="a.example.com", org="Shared Org"))
        second = store.intern_chain(_chain(cn="b.example.com", org="Shared Org"))
        assert store.organization(first) == store.organization(second) == "Shared Org"
        assert len(store.org_table) == 1
        assert store.lowered_dns(first) == ("www.example.com",)

    def test_header_tuples_interned(self):
        store = SnapshotStore()
        headers = (("Server", "nginx"), ("X-Test", "1"))
        store.add_http(1, 443, headers)
        store.add_http(2, 443, headers)
        store.add_http(3, 80, (("Server", "apache"),))
        assert store.http_row_count == 3
        assert len(store.header_table) == 2


class TestAggregates:
    def test_unique_ips_tracks_distinct_tls_ips(self):
        store = SnapshotStore()
        chain = _chain()
        for ip in (10, 11, 10, 12):
            store.add_tls(ip, chain)
        assert store.unique_ip_count == 3
        assert store.unique_ips() == frozenset({10, 11, 12})

    def test_unique_ips_cache_invalidated_on_ingest(self):
        store = SnapshotStore()
        chain = _chain()
        store.add_tls(10, chain)
        before = store.unique_ips()
        store.add_tls(11, chain)
        assert store.unique_ips() == before | {11}

    def test_stats(self):
        store = SnapshotStore()
        shared = _chain(cn="a.example.com", org="One")
        store.add_tls(1, shared)
        store.add_tls(2, _chain(cn="b.example.com", org="Two"))
        store.add_tls(3, shared)
        store.add_http(1, 443, (("Server", "x"),))
        stats = store.stats()
        assert stats.tls_rows == 3
        assert stats.http_rows == 1
        assert stats.unique_chains == 2
        assert stats.unique_ips == 3
        assert stats.org_entries == 2
        assert stats.header_entries == 1
        assert stats.unique_chain_ratio == pytest.approx(2 / 3)

    def test_empty_ratio_is_zero(self):
        assert SnapshotStore().stats().unique_chain_ratio == 0.0


class TestExtend:
    def test_extend_reinterns_shared_chains(self):
        shared = _chain(cn="shared.example.com")
        left, right = SnapshotStore(), SnapshotStore()
        left.add_tls(1, shared)
        right.add_tls(2, shared)
        right.add_tls(3, _chain(cn="only-right.example.com"))
        right.add_http(2, 443, (("Server", "y"),))
        left.extend(right)
        assert left.tls_row_count == 3
        assert left.unique_chain_count == 2  # shared chain deduped across stores
        assert left.http_row_count == 1

    def test_merged_pieces_of_a_snapshot_keep_its_stats(self, small_world):
        """A real snapshot's rows, split into contiguous pieces and merged
        back with extend(), re-intern to the same shape as the whole."""
        store = small_world.scan("rapid7", small_world.snapshots[-1]).store
        pieces = [SnapshotStore() for _ in range(3)]
        for row, ip in enumerate(store.tls_ip):
            pieces[row * 3 // store.tls_row_count].add_tls(
                ip,
                store.chains[store.tls_chain[row]],
                store.stack_table[store.tls_stack[row]],
            )
        for row, ip in enumerate(store.http_ip):
            pieces[row * 3 // store.http_row_count].add_http(
                ip, store.http_port[row], store.header_table[store.http_header[row]]
            )
        merged = SnapshotStore()
        for piece in pieces:
            merged.extend(piece)
        assert merged.stats() == store.stats()

    def test_reset_tls_clears_chain_tables(self):
        store = SnapshotStore()
        store.add_tls(1, _chain())
        store.add_http(1, 443, ())
        store.reset_tls()
        assert store.tls_row_count == 0
        assert store.unique_chain_count == 0
        assert store.unique_ip_count == 0
        assert store.http_row_count == 1  # http side untouched


class TestHttpLookup:
    def test_last_row_wins_on_duplicate_key(self):
        """Matches the legacy ``{(ip, port): record}`` dict semantics."""
        store = SnapshotStore()
        store.add_http(1, 443, (("Server", "first"),))
        store.add_http(1, 443, (("Server", "second"),))
        record = store.http_lookup(1, 443)
        assert record is not None and record.header_dict()["Server"] == "second"
        assert store.header_table[store.http_header_index(1, 443)] == (
            ("Server", "second"),
        )

    def test_missing_key_is_none(self):
        assert SnapshotStore().http_lookup(1, 443) is None
        assert SnapshotStore().http_header_index(1, 443) is None

    def test_index_rebuilt_after_ingest(self):
        store = SnapshotStore()
        store.add_http(1, 443, ())
        assert store.http_lookup(2, 443) is None
        store.add_http(2, 443, (("Server", "late"),))
        late = store.http_lookup(2, 443)
        assert late is not None and late.ip == 2


class TestRecordViews:
    """The lazy views must be drop-in for the old plain-list fields."""

    def _snapshot(self):
        scan = ScanSnapshot(scanner="unit", snapshot=NOW)
        shared = _chain(cn="a.example.com")
        self.records = [
            TLSRecord(ip=1, chain=shared),
            TLSRecord(ip=2, chain=_chain(cn="b.example.com")),
            TLSRecord(ip=3, chain=shared),
        ]
        scan.tls_records.extend(self.records)
        return scan

    def test_len_iter_index(self):
        scan = self._snapshot()
        view = scan.tls_records
        assert len(view) == 3
        assert list(view) == self.records
        assert view[0] == self.records[0]
        assert view[-1] == self.records[-1]
        with pytest.raises(IndexError):
            view[3]

    def test_slice_returns_list(self):
        scan = self._snapshot()
        assert scan.tls_records[1:] == self.records[1:]

    def test_eq_against_list_and_concat(self):
        scan = self._snapshot()
        assert scan.tls_records == self.records
        assert scan.tls_records != self.records[:2]
        extra = TLSRecord(ip=9, chain=_chain(cn="c.example.com"))
        assert scan.tls_records + [extra] == self.records + [extra]
        assert [extra] + scan.tls_records == [extra] + self.records

    def test_bool(self):
        scan = ScanSnapshot(scanner="unit", snapshot=NOW)
        assert not scan.tls_records
        scan.tls_records.append(TLSRecord(ip=1, chain=_chain()))
        assert scan.tls_records

    def test_setter_replaces_rows(self):
        scan = self._snapshot()
        replacement = [TLSRecord(ip=7, chain=_chain(cn="new.example.com"))]
        scan.tls_records = replacement
        assert list(scan.tls_records) == replacement
        assert scan.store.unique_chain_count == 1

    def test_http_view_round_trips(self):
        scan = ScanSnapshot(scanner="unit", snapshot=NOW)
        records = [
            HTTPRecord(ip=1, port=443, headers=(("Server", "x"),)),
            HTTPRecord(ip=2, port=80, headers=()),
        ]
        scan.http_records.extend(records)
        assert list(scan.http_records) == records
        assert scan.http_for(1) == records[0]

    def test_o1_aggregates_via_snapshot(self):
        scan = self._snapshot()
        assert scan.ip_count == 3
        assert scan.unique_certificates() == 2
        assert scan.unique_ips() == frozenset({1, 2, 3})
