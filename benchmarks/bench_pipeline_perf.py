"""Pipeline-stage throughput: how fast does each §4 step chew a corpus?

Not a paper exhibit — the engineering counterpart: per-stage timings over
the benchmark world's final snapshot so regressions in the hot paths
(validation, fingerprinting, the candidate rule, header confirmation,
IP-to-AS construction) are visible, plus the columnar store's dedup
accounting over a full run and its §4.1 cross-snapshot validation-cache
hit rate.  Each bench writes its ``.txt`` table to ``benchmarks/output/``.

Whole-run speed (executors, the disk stage cache, corpus codecs, the
serve daemon) is measured by ``perfbench/``, under its paired rule.
"""

from benchmarks.conftest import write_output
from repro.bgp import IPToASMap
from repro.core import (
    CertificateValidator,
    OffnetPipeline,
    find_candidates,
    learn_tls_fingerprint,
)


def _prepared(world):
    end = world.snapshots[-1]
    scan = world.scan("rapid7", end)
    validator = CertificateValidator(world.root_store)
    records, _ = validator.validate_snapshot(scan, allow_expired=True)
    ip2as = world.ip2as(end)
    hg_ases = world.topology.organizations.search_by_name("google")
    fingerprint = learn_tls_fingerprint("google", records, hg_ases, ip2as)
    return end, scan, records, ip2as, hg_ases, fingerprint


def test_validation_throughput(world, benchmark):
    end = world.snapshots[-1]
    scan = world.scan("rapid7", end)
    validator = CertificateValidator(world.root_store)
    validator.validate_snapshot(scan)  # warm the static cache

    records, stats = benchmark(validator.validate_snapshot, scan)
    rate = stats.total / benchmark.stats["mean"]
    write_output(
        "perf_validation",
        f"§4.1 validation: {stats.total} records/snapshot, "
        f"{rate / 1000:.0f}k records/s (static-cache warm)",
    )
    assert stats.total > 0


def test_fingerprint_throughput(world, benchmark):
    end, scan, records, ip2as, hg_ases, _ = _prepared(world)
    fingerprint = benchmark(
        learn_tls_fingerprint, "google", records, hg_ases, ip2as
    )
    assert not fingerprint.is_empty


def test_candidate_rule_throughput(world, benchmark):
    end, scan, records, ip2as, hg_ases, fingerprint = _prepared(world)
    candidates = benchmark(
        find_candidates, fingerprint, records, hg_ases, ip2as
    )
    assert candidates


def test_ip2as_build_throughput(world, benchmark):
    end = world.snapshots[-1]
    ribs = world.ribs(end)
    mapping = benchmark(IPToASMap.from_ribs, ribs)
    assert mapping.prefix_count > 0


def test_full_snapshot_throughput(world, benchmark):
    """One complete pipeline snapshot, end to end."""
    end = world.snapshots[-1]
    pipeline = OffnetPipeline(world)
    pipeline.header_rules()  # learn once outside the timed region

    result = benchmark.pedantic(
        pipeline.run, kwargs={"snapshots": (end,)}, rounds=3, iterations=1
    )
    footprint = result.at(end)
    write_output(
        "perf_full_snapshot",
        f"full §4 snapshot over {footprint.raw_ip_count} IPs: "
        f"{benchmark.stats['mean']:.2f}s "
        f"({footprint.raw_ip_count / benchmark.stats['mean'] / 1000:.0f}k IPs/s)",
    )
    assert footprint.confirmed_ases


def test_store_dedup_accounting(world):
    """The columnar store's payoff, persisted for regression tracking:
    validate-stage wall-clock, the unique-chain ratio, and the §4.1
    verifications the per-unique-chain broadcast saved — straight from
    the run report's ``store`` section — plus the §4.1 validation
    cache's cross-snapshot hit rate over the same full run."""
    pipeline = OffnetPipeline(world)
    pipeline.header_rules()
    result = pipeline.run()
    report = result.report()
    store = report["store"]
    validate_seconds = report["stages"]["validate"]["seconds"]

    work = store["validation_work"]
    # The tentpole invariant: exactly one verification per unique chain.
    assert work["unique_chains_verified"] == store["unique_chains"]
    assert work["rows_broadcast"] == store["tls_rows"]
    assert 0.0 < store["unique_chain_ratio"] <= 1.0
    cache = result.validation_cache
    assert cache.hit_rate > 0.5, "cross-snapshot cert reuse should dominate"

    write_output(
        "perf_store_dedup",
        f"columnar store over {len(result.snapshots)} snapshots: "
        f"{store['tls_rows']} TLS rows → {store['unique_chains']} unique chains "
        f"(ratio {store['unique_chain_ratio']:.3f})\n"
        f"validate stage: {validate_seconds:.2f}s total; "
        f"{work['unique_chains_verified']} chain verifications for "
        f"{work['rows_broadcast']} rows "
        f"({work['verifications_saved']} verifications saved)\n"
        f"§4.3 subset tests: {store['match_work']['subset_tests_computed']} computed, "
        f"{store['match_work']['subset_tests_reused']} reused\n"
        f"§4.1 validation cache: {cache.static_hits + cache.window_hits} hits / "
        f"{cache.static_misses + cache.window_misses} misses "
        f"({cache.hit_rate:.1%} hit rate)",
    )
