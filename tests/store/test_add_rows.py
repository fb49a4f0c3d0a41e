"""``SnapshotStore.add_rows`` against one ``add_tls``/``add_http`` per row.

The bulk append is how a scan lands its snapshot; the per-row calls stay
for the streaming readers.  Both must build the same store: tables,
columns, their order, and the last-row-wins lookups.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import SnapshotStore
from repro.timeline import Snapshot
from repro.x509 import CertificateAuthority, SubjectName, build_chain
from repro.x509.chain import CertificateChain

_AUTHORITY = CertificateAuthority.create_root(
    "Bulk Append Root", Snapshot(2012, 1), Snapshot(2034, 1)
)


def _chain(cn, org, dns):
    leaf = _AUTHORITY.issue(
        subject=SubjectName(common_name=cn, organization=org),
        dns_names=dns,
        not_before=Snapshot(2012, 1),
        not_after=Snapshot(2034, 1),
    )
    return build_chain(leaf, _AUTHORITY)


_A = _chain("a.example.com", "Org A", ("A.Example.COM",))
#: Chains sharing an Organization, a lowered dNSName tuple, and one
#: chain object twice over (a copy with the same end-entity fingerprint).
_CHAINS = (
    _A,
    _chain("b.example.com", "Org A", ("b.example.com", "www.b.example.com")),
    _chain("c.example.com", "Org C", ("a.example.com",)),
    _chain("d.example.com", "", ()),
    CertificateChain(_A.certificates),
)
_STACKS = (None, ("", "", ""), ("h2", "1.2", "gfe"), ("h3", "1.3", "cf-nginx"))
_HEADERS = ((), (("Server", "nginx"),), (("Server", "nginx"), ("Via", "1.1 x")))

tls_rows = st.lists(
    st.tuples(
        st.integers(1, 6), st.sampled_from(_CHAINS), st.sampled_from(_STACKS)
    ),
    max_size=25,
)
http_rows = st.lists(
    st.tuples(st.integers(1, 6), st.sampled_from((80, 443)), st.sampled_from(_HEADERS)),
    max_size=25,
)


def per_row(store, tls, http):
    for ip, chain, stack in tls:
        store.add_tls(ip, chain, stack)
    for ip, port, headers in http:
        store.add_http(ip, port, headers)
    return store


def layout(store):
    """Everything a reader can see, lookups included."""
    return {
        "columns": (
            store.tls_ip, store.tls_chain, store.tls_stack,
            store.http_ip, store.http_port, store.http_header,
        ),
        "tables": (
            [chain.end_entity.fingerprint for chain in store.chains],
            store.chain_org, store.chain_dns, store.org_table, store.dns_table,
            store.header_table, store.stack_table,
        ),
        "ips": store.unique_ips(),
        "stats": store.stats(),
        "http_lookup": {
            (ip, port): store.http_header_index(ip, port)
            for ip in range(1, 7)
            for port in (80, 443)
        },
        "stack_for": {ip: store.stack_for(ip) for ip in range(1, 7)},
    }


class TestAddRows:
    @settings(max_examples=150, deadline=None)
    @given(tls_rows, http_rows, tls_rows, http_rows)
    def test_equals_per_row_appends(self, tls, http, more_tls, more_http):
        """Two bulk appends — with the lazy lookups built in between, so
        stale indexes would show — equal the per-row calls."""
        bulk = SnapshotStore()
        bulk.add_rows(tls, http)
        reference = per_row(SnapshotStore(), tls, http)
        assert layout(bulk) == layout(reference)
        bulk.add_rows(more_tls, more_http)
        per_row(reference, more_tls, more_http)
        assert layout(bulk) == layout(reference)

    @settings(max_examples=100, deadline=None)
    @given(tls_rows, http_rows, tls_rows, http_rows)
    def test_extend_on_top_of_add_rows(self, tls, http, other_tls, other_http):
        """``extend`` re-interns another store's rows after this one's,
        exactly as appending them row by row would."""
        merged = SnapshotStore()
        merged.add_rows(tls, http)
        other = SnapshotStore()
        other.add_rows(other_tls, other_http)
        merged.extend(other)
        reference = per_row(SnapshotStore(), tls, http)
        per_row(reference, other_tls, other_http)
        assert layout(merged) == layout(reference)

    def test_accepts_iterators(self):
        rows = [(1, _A, None), (2, _CHAINS[1], _STACKS[2])]
        store = SnapshotStore()
        store.add_rows(iter(rows), (row for row in [(1, 80, _HEADERS[1])]))
        assert layout(store) == layout(per_row(SnapshotStore(), rows, [(1, 80, _HEADERS[1])]))
