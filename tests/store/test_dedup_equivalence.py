"""The dedup refactor's load-bearing property: per-unique-chain work,
broadcast over rows, is *equivalent* to the old per-record iteration.

Two angles:

* hypothesis-generated snapshots where a small chain pool is shared by
  many rows (the §4 shape) — the validator's dedup path must classify
  every row exactly as a hand-rolled per-record loop does;
* randomized small worlds — the match stage's per-intern-table
  precomputation (org→HG keywords, lowered dNSNames, the §4.3 subset
  test) must agree with direct per-record recomputation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CertificateValidator, OffnetPipeline
from repro.scan.records import ScanSnapshot, TLSRecord
from repro.timeline import Snapshot
from repro.world import build_world
from repro.x509 import CertificateAuthority, RootStore, SubjectName, build_chain

EARLY = Snapshot(2012, 1)
LATE = Snapshot(2034, 1)
NOW = Snapshot(2019, 10)

_AUTHORITY = CertificateAuthority.create_root("Equivalence Root", EARLY, LATE)
_ROOTS = RootStore()
_ROOTS.add(_AUTHORITY.certificate)

#: A pool of chains covering every verdict class: valid, expired-only,
#: self-signed (rejected), and untrusted-issuer (rejected).
_UNTRUSTED = CertificateAuthority.create_root("Untrusted Root", EARLY, LATE)
_CHAIN_POOL = tuple(
    build_chain(
        issuer.issue(
            subject=SubjectName(common_name=f"{name}.example.com", organization=org),
            dns_names=(f"{name}.example.com",),
            not_before=nb,
            not_after=na,
        ),
        issuer,
    )
    for name, org, nb, na, issuer in (
        ("valid-a", "Org A", EARLY, LATE, _AUTHORITY),
        ("valid-b", "Org B", EARLY, LATE, _AUTHORITY),
        ("expired", "Org A", Snapshot(2014, 1), Snapshot(2016, 1), _AUTHORITY),
        ("untrusted", "Org C", EARLY, LATE, _UNTRUSTED),
    )
)

rows = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=40),  # small IP space → repeats
        st.integers(min_value=0, max_value=len(_CHAIN_POOL) - 1),
    ),
    max_size=30,
)


def _verdict_triples(validator, scan, allow_expired):
    records, stats = validator.validate_snapshot(scan, allow_expired=allow_expired)
    return [
        (r.ip, r.certificate.fingerprint, r.expired_only) for r in records
    ], stats


class TestValidationEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(rows=rows, allow_expired=st.booleans())
    def test_dedup_path_matches_per_record_reference(self, rows, allow_expired):
        scan = ScanSnapshot(scanner="prop", snapshot=NOW)
        for ip, pool_index in rows:
            scan.tls_records.append(
                TLSRecord(ip=ip, chain=_CHAIN_POOL[pool_index])
            )

        dedup, stats = _verdict_triples(
            CertificateValidator(_ROOTS), scan, allow_expired
        )

        # Reference: classify every row independently, in row order, with
        # a fresh validator per row so no intra-snapshot sharing helps.
        reference = []
        valid = expired_only = rejected = 0
        for record in scan.tls_records:
            verdict_validator = CertificateValidator(_ROOTS)
            verdict = verdict_validator.chain_verdict(record.chain, NOW)
            if verdict == CertificateValidator._VALID:
                valid += 1
                reference.append(
                    (record.ip, record.chain.end_entity.fingerprint, False)
                )
            elif (
                verdict == CertificateValidator._EXPIRED_ONLY and allow_expired
            ):
                expired_only += 1
                reference.append(
                    (record.ip, record.chain.end_entity.fingerprint, True)
                )
            else:
                rejected += 1

        assert dedup == reference
        assert (stats.valid, stats.expired_only, stats.rejected) == (
            valid,
            expired_only,
            rejected,
        )
        assert stats.total == len(rows)

    def test_cache_queries_scale_with_unique_chains_not_rows(self):
        scan = ScanSnapshot(scanner="unit", snapshot=NOW)
        for ip in range(50):
            scan.tls_records.append(TLSRecord(ip=ip, chain=_CHAIN_POOL[0]))
        validator = CertificateValidator(_ROOTS)
        validator.validate_snapshot(scan)
        info = validator.cache_info()
        queries = (
            info.static_hits
            + info.static_misses
            + info.window_hits
            + info.window_misses
        )
        assert queries == 2  # one static + one window query for one chain


class TestMatchEquivalence:
    """Org→HG and dNSName precomputation vs direct per-record evaluation,
    over randomized synthetic worlds."""

    @pytest.mark.parametrize("seed", (3, 7, 19))
    def test_org_and_dns_broadcast_match_per_record(self, seed):
        world = build_world(seed=seed, scale=0.006)
        pipeline = OffnetPipeline(world)
        snapshot = Snapshot(2019, 10)
        scan = world.scan("rapid7", snapshot)
        store = scan.store

        records, _ = pipeline._validator.validate_snapshot(
            scan, allow_expired=True
        )
        org_hgs = pipeline._org_table_hgs(store)

        assert records, "world produced no validated records; test is vacuous"
        for record in records:
            chain_index = record.chain_index
            organization = record.certificate.subject.organization
            # Per-record reference: scan the raw Organization string.
            expected_hgs = tuple(
                k for k in pipeline._keywords if k in organization.lower()
            )
            assert org_hgs[store.chain_org[chain_index]] == expected_hgs
            # The interned dNSName tuple is the record's own names, lowered.
            assert store.lowered_dns(chain_index) == tuple(
                name.lower() for name in record.certificate.dns_names
            )

    @pytest.mark.parametrize("seed", (3, 19))
    def test_candidate_ips_match_per_record_reference(self, seed):
        """Full match+candidates equivalence: the memoised subset test and
        broadcast org matching must yield exactly the candidate IPs a
        straight per-record reimplementation finds."""
        world = build_world(seed=seed, scale=0.006)
        pipeline = OffnetPipeline(world)
        snapshot = Snapshot(2019, 10)
        outcome = pipeline.run_snapshot(snapshot)

        scan, ip2as = pipeline._scan_and_map(snapshot)
        records, _ = pipeline._validator.validate_snapshot(
            scan, allow_expired=True
        )

        # Per-record reference: no intern tables, no memoisation — every
        # row rescans its Organization string and retests its dNSNames.
        def record_hgs(record):
            lowered = record.certificate.subject.organization.lower()
            return tuple(k for k in pipeline._keywords if k in lowered)

        fingerprints = {k: set() for k in pipeline._keywords}
        for record in records:
            if record.expired_only:
                continue
            origins = ip2as.lookup(record.ip)
            for keyword in record_hgs(record):
                if origins & pipeline._hg_ases[keyword]:
                    fingerprints[keyword].update(
                        n.lower() for n in record.certificate.dns_names
                    )

        expected: dict[str, set[int]] = {k: set() for k in pipeline._keywords}
        for record in records:
            if record.expired_only:
                continue
            origins = ip2as.lookup(record.ip)
            if not origins:
                continue
            for keyword in record_hgs(record):
                names = fingerprints[keyword]
                if not names or origins & pipeline._hg_ases[keyword]:
                    continue
                dns = tuple(n.lower() for n in record.certificate.dns_names)
                if pipeline.options.require_all_dnsnames and not all(
                    n in names for n in dns
                ):
                    continue
                expected[keyword].add(record.ip)

        actual = outcome.footprint.candidate_ips
        assert {k: v for k, v in actual.items()} == {
            k: frozenset(v) for k, v in expected.items() if v
        }
        assert any(expected.values()), "no candidates anywhere; test is vacuous"
        computed = outcome.metrics.counter_value(
            "match_subset_tests", event="computed"
        )
        assert computed > 0
