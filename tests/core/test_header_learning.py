"""Unit tests for the §4.4 header-fingerprint learner on hand-built corpora,
and its equivalence with the per-hypergiant reference counting."""

from collections import Counter

import pytest

from repro.core import header_fingerprint
from repro.core.header_fingerprint import HG_ABBREVIATIONS, learn_header_fingerprints
from repro.core.pipeline import OffnetPipeline
from repro.hypergiants.profiles import STANDARD_HEADERS
from repro.scan.records import HTTPRecord, ScanSnapshot
from repro.timeline import Snapshot
from repro.world import build_world

SNAP = Snapshot(2020, 10)


def corpus(*records):
    scan = ScanSnapshot(scanner="test", snapshot=SNAP)
    for ip, headers in records:
        scan.http_records.append(HTTPRecord(ip=ip, port=443, headers=tuple(headers)))
    return scan


STANDARD = (("Content-Type", "text/html"), ("Date", "now"), ("Cache-Control", "no-cache"))


class TestLearner:
    def test_constant_pair_learned(self):
        scan = corpus(
            *[(i, (("Server", "AkamaiGHost"),) + STANDARD) for i in range(20)],
            *[(100 + i, (("Server", "nginx"),) + STANDARD) for i in range(20)],
        )
        rules = learn_header_fingerprints(
            scan,
            {"akamai": frozenset(range(20))},
            background_ips=frozenset(range(100, 120)),
        )
        assert any(
            r.name == "Server" and r.value == "AkamaiGHost" for r in rules["akamai"]
        )

    def test_generic_banner_rejected(self):
        """A HG whose on-nets only send `Server: nginx` learns nothing."""
        scan = corpus(
            *[(i, (("Server", "nginx"),) + STANDARD) for i in range(20)],
            *[(100 + i, (("Server", "nginx"),) + STANDARD) for i in range(20)],
        )
        rules = learn_header_fingerprints(
            scan,
            {"hulu": frozenset(range(20))},
            background_ips=frozenset(range(100, 120)),
        )
        assert rules["hulu"] == ()

    def test_varying_value_becomes_name_rule(self):
        scan = corpus(
            *[(i, (("X-FB-Debug", f"tok{i}=="),) + STANDARD) for i in range(20)],
            *[(100 + i, STANDARD) for i in range(20)],
        )
        rules = learn_header_fingerprints(
            scan,
            {"facebook": frozenset(range(20))},
            background_ips=frozenset(range(100, 120)),
        )
        assert any(r.name == "X-FB-Debug" and r.value is None for r in rules["facebook"])

    def test_common_prefix_becomes_prefix_rule(self):
        """Values sharing an abbreviation-bearing prefix learn `prefix*`."""
        scan = corpus(
            *[(i, (("Server", f"gws/{i}"),) + STANDARD) for i in range(20)],
            *[(100 + i, (("Server", "Apache"),) + STANDARD) for i in range(20)],
        )
        rules = learn_header_fingerprints(
            scan,
            {"google": frozenset(range(20))},
            background_ips=frozenset(range(100, 120)),
        )
        google_rules = rules["google"]
        assert any(
            r.name == "Server" and r.value and r.value.startswith("gws") and r.value.endswith("*")
            for r in google_rules
        )

    def test_background_common_header_rejected(self):
        """Headers common on the ordinary web never become fingerprints."""
        scan = corpus(
            *[(i, (("X-Powered-By", "PHP/7.4"),) + STANDARD) for i in range(20)],
            *[(100 + i, (("X-Powered-By", "PHP/7.4"),) + STANDARD) for i in range(40)],
        )
        rules = learn_header_fingerprints(
            scan,
            {"twitter": frozenset(range(20))},
            background_ips=frozenset(range(100, 140)),
        )
        assert not any(r.name == "X-Powered-By" for r in rules["twitter"])

    def test_ambiguous_cross_hg_name_needs_abbreviation(self):
        """A name on two HGs' on-nets is kept only where the value names
        the HG."""
        scan = corpus(
            *[(i, (("X-Trace-Id", f"t{i}"),) + STANDARD) for i in range(20)],
            *[(50 + i, (("X-Trace-Id", f"t{i}"),) + STANDARD) for i in range(20)],
        )
        rules = learn_header_fingerprints(
            scan,
            {
                "verizon": frozenset(range(20)),
                "limelight": frozenset(range(50, 70)),
            },
            background_ips=frozenset(),
        )
        assert not any(r.name == "X-Trace-Id" for r in rules["verizon"])
        assert not any(r.name == "X-Trace-Id" for r in rules["limelight"])

    def test_empty_onnet_set(self):
        scan = corpus((1, STANDARD))
        rules = learn_header_fingerprints(scan, {"apple": frozenset()}, frozenset({1}))
        assert rules["apple"] == ()

    def test_abbreviations_cover_fingerprinted_hgs(self):
        """Every HG with curated header rules has an abbreviation entry."""
        from repro.hypergiants.profiles import HYPERGIANTS

        for hg in HYPERGIANTS:
            if hg.header_rules:
                assert hg.key in HG_ABBREVIATIONS, hg.key


# -- equivalence with the per-group reference ----------------------------------


def _collect_counters(scan, ips):
    """The reference: one pass over the row views per IP group,
    (name:value counter, name counter, responses) over the given IPs."""
    pair_counts: Counter = Counter()
    name_counts: Counter = Counter()
    responses = 0
    for record in scan.http_records:
        if record.ip not in ips:
            continue
        responses += 1
        for name, value in record.headers:
            lowered = name.lower()
            if lowered in STANDARD_HEADERS:
                continue
            pair_counts[(name, value)] += 1
            name_counts[name] += 1
    return pair_counts, name_counts, responses


def _reference_group_counters(store, groups):
    scan = ScanSnapshot(scanner="reference", snapshot=SNAP, store=store)
    return [_collect_counters(scan, ips) for ips in groups]


def _reference_onnet(pipeline, scan, ip2as, records):
    """The per-hypergiant on-net derivation: one pass over the validated
    records per keyword, matching each record's own Organization."""
    onnet_ips = {}
    for keyword in pipeline._keywords:
        hg_ases = pipeline._hg_ases[keyword]
        ips = set()
        for record in records:
            if record.expired_only:
                continue
            if keyword not in record.certificate.subject.organization.lower():
                continue
            if ip2as.lookup(record.ip) & hg_ases:
                ips.add(record.ip)
        onnet_ips[keyword] = frozenset(ips)
    all_onnet = frozenset(ip for ips in onnet_ips.values() for ip in ips)
    background = frozenset(
        record.ip
        for index, record in enumerate(scan.http_records)
        if index % 3 == 0 and record.ip not in all_onnet
    )
    return onnet_ips, background


def _counter_lists(counted):
    """Counters as ordered item lists: equal only with equal insertion
    order, the order ``most_common`` breaks ties by."""
    return [(list(pairs.items()), list(names.items()), total) for pairs, names, total in counted]


def _rules(learned):
    return {hg: [(r.name, r.value) for r in rules] for hg, rules in learned.items()}


class TestOnePassEquivalence:
    """The one-pass learner against the per-hypergiant reference."""

    @pytest.mark.parametrize("seed", (3, 7, 19))
    def test_seeded_worlds(self, seed, monkeypatch):
        world = build_world(seed=seed, scale=0.006)
        pipeline = OffnetPipeline(world)
        learning = pipeline.options.header_learning_snapshot
        scan = world.scan(pipeline.options.corpus, learning)
        records, _ = pipeline._validator.validate_snapshot(scan, allow_expired=True)
        onnet_ref, background_ref = _reference_onnet(
            pipeline, scan, world.ip2as(learning), records
        )

        calls = []

        def spy(scan_arg, onnet_ips, background_ips):
            calls.append((onnet_ips, background_ips))
            return learn_header_fingerprints(scan_arg, onnet_ips, background_ips)

        monkeypatch.setattr("repro.core.pipeline.learn_header_fingerprints", spy)
        learned = pipeline._learn_rules()
        monkeypatch.undo()
        assert len(calls) == 1
        onnet_ips, background = calls[0]
        assert list(onnet_ips) == list(onnet_ref)
        assert onnet_ips == onnet_ref
        assert background == background_ref
        assert any(onnet_ips.values()), "no on-net IPs; the test is vacuous"

        groups = [background, *onnet_ips.values()]
        assert _counter_lists(header_fingerprint._group_counters(scan.store, groups)) == (
            _counter_lists(_reference_group_counters(scan.store, groups))
        )

        monkeypatch.setattr(header_fingerprint, "_group_counters", _reference_group_counters)
        reference = learn_header_fingerprints(scan, onnet_ref, background_ref)
        assert _rules(learned) == _rules(reference)
        assert any(learned.values()), "nothing learned; the test is vacuous"

    def test_tied_pairs_keep_first_seen_row_order(self, monkeypatch):
        """Two pairs tie in count; the header table interns them in the
        opposite order (an IP outside every group sees one first), so only
        first-seen row order per group puts them in the reference order."""
        late = (("X-FB-Late", "b"),) + STANDARD
        early = (("X-FB-Early", "a"),) + STANDARD
        scan = corpus(
            (999, late),
            *[(i, early if i % 2 == 0 else late) for i in range(20)],
            *[(100 + i, STANDARD) for i in range(20)],
        )
        assert scan.store.header_table[0] == late
        groups = [frozenset(range(100, 120)), frozenset(range(20))]
        counted = header_fingerprint._group_counters(scan.store, groups)
        assert _counter_lists(counted) == _counter_lists(
            _reference_group_counters(scan.store, groups)
        )
        pairs = counted[1][0]
        assert pairs[("X-FB-Early", "a")] == pairs[("X-FB-Late", "b")] == 10
        assert [pair for pair, _ in pairs.most_common(2)] == [
            ("X-FB-Early", "a"),
            ("X-FB-Late", "b"),
        ]

        learned = learn_header_fingerprints(scan, {"facebook": groups[1]}, groups[0])
        assert [(r.name, r.value) for r in learned["facebook"]] == [
            ("X-FB-Early", "a"),
            ("X-FB-Late", "b"),
        ]
        monkeypatch.setattr(header_fingerprint, "_group_counters", _reference_group_counters)
        assert _rules(learned) == _rules(
            learn_header_fingerprints(scan, {"facebook": groups[1]}, groups[0])
        )

    def test_overlapping_groups_count_for_each(self):
        """An IP in two groups (the public signature allows it) counts in
        both, as two separate reference passes would count it."""
        scan = corpus(
            *[(i, (("X-Shared", "v"), ("X-Own", str(i % 3))) + STANDARD) for i in range(12)],
            (3, (("X-Repeat", "r"),)),
        )
        groups = [frozenset({1, 2, 3}), frozenset(range(6)), frozenset(range(3, 12))]
        assert _counter_lists(header_fingerprint._group_counters(scan.store, groups)) == (
            _counter_lists(_reference_group_counters(scan.store, groups))
        )

