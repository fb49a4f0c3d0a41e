"""Each event kind's observable effect on a built world.

Worlds are built once per module at a small scale; every comparison with
the default (event-free) world goes through ground-truth plan accessors
or registry-passing scans, never cross-world certificate fingerprints.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.scenario import get_scenario
from repro.timeline import Snapshot
from repro.world import build_world

SCALE = 0.01


@pytest.fixture(scope="module")
def default_world():
    """The event-free baseline every scenario world is compared against."""
    return build_world(seed=7, scale=SCALE)


@pytest.fixture(scope="module")
def flash_world():
    return get_scenario("flash-crowd").build(scale=SCALE)


@pytest.fixture(scope="module")
def withdrawal_world():
    return get_scenario("netflix-withdrawal").build(scale=SCALE)


@pytest.fixture(scope="module")
def rotation_world():
    return get_scenario("cert-rotation").build(scale=SCALE)


@pytest.fixture(scope="module")
def outage_world():
    return get_scenario("regional-outage").build(scale=SCALE)


class TestFlashCrowd:
    def test_deployment_swells_inside_the_window(self, flash_world, default_world):
        inside = Snapshot(2018, 7)
        assert len(flash_world.plan.deployed_at("google", inside)) > len(
            default_world.plan.deployed_at("google", inside)
        )

    def test_window_close_releases_the_surge(self, flash_world, default_world):
        """The shrink path returns the footprint to the schedule's target.

        Counts, not sets: the surge feeds the §6.6 overlap preference, so
        *which* ASes survive the shrink may differ from the default world
        even though the target is back to the schedule's."""
        after = Snapshot(2019, 10)
        assert len(flash_world.plan.deployed_at("google", after)) == len(
            default_world.plan.deployed_at("google", after)
        )

    def test_timeline_identical_before_the_window(self, flash_world, default_world):
        """Events cannot reach backwards: every HG's deployment is
        set-identical to the default world before the window opens."""
        before = Snapshot(2017, 10)
        for hypergiant in default_world.plan.hypergiants():
            assert flash_world.plan.deployed_at(
                hypergiant, before
            ) == default_world.plan.deployed_at(hypergiant, before)

    def test_other_hypergiants_keep_their_targets(self, flash_world, default_world):
        inside = Snapshot(2018, 7)
        for hypergiant in ("netflix", "akamai", "facebook"):
            assert len(flash_world.plan.deployed_at(hypergiant, inside)) == len(
                default_world.plan.deployed_at(hypergiant, inside)
            )


class TestCacheWithdrawal:
    def test_full_withdrawal_darkens_every_offnet(self, withdrawal_world):
        inside = Snapshot(2016, 7)
        assert not withdrawal_world.plan.deployed_at("netflix", inside)
        assert withdrawal_world.plan.withdrawn_at("netflix", inside)

    def test_restoration_is_exact(self, withdrawal_world, default_world):
        after = Snapshot(2017, 7)
        restored = withdrawal_world.plan.deployed_at("netflix", after)
        assert restored == default_world.plan.deployed_at("netflix", after)
        assert restored, "the episode must end with a live footprint"

    def test_scenario_meta_books_the_dark_cells(self, withdrawal_world, default_world):
        meta = withdrawal_world.scenario_meta()
        assert meta["name"] == "netflix-withdrawal"
        assert meta["withdrawn_as_snapshots"] > 0
        assert [event["kind"] for event in meta["events"]] == ["cache-withdrawal"]
        baseline = default_world.scenario_meta()
        assert baseline["withdrawn_as_snapshots"] == 0
        assert baseline["events"] == []

    def test_scan_accounts_withdrawn_servers(self, withdrawal_world):
        registry = MetricsRegistry()
        withdrawal_world.scanner("rapid7").scan(
            withdrawal_world, Snapshot(2016, 7), registry
        )
        outcomes = registry.counters_by_label("scan_servers_total", "outcome")
        assert outcomes.get("withdrawn", 0) > 0


class TestCertRotation:
    def test_generation_steps_at_the_start(self, rotation_world):
        overlay = rotation_world.event_overlay
        assert overlay.cert_generation("facebook", Snapshot(2018, 10)) == 0
        assert overlay.cert_generation("facebook", Snapshot(2019, 1)) == 1
        assert overlay.cert_generation("facebook", Snapshot(2021, 4)) == 1
        assert overlay.cert_generation("google", Snapshot(2021, 4)) == 0

    def test_rotated_chain_keeps_names_and_validity(self, rotation_world):
        """Same names, same era, fresh fingerprint — the §4 funnel keys on
        dNSNames, so inference must not notice the rotation."""
        book = rotation_world.cert_book
        when = Snapshot(2019, 7)
        before = book.hypergiant_chain("facebook", 0, when, generation=0).end_entity
        after = book.hypergiant_chain("facebook", 0, when, generation=1).end_entity
        assert before.dns_names == after.dns_names
        assert before.not_before == after.not_before
        assert before.not_after == after.not_after
        assert before.fingerprint != after.fingerprint

    def test_ground_truth_plan_is_untouched(self, rotation_world, default_world):
        when = Snapshot(2019, 7)
        assert rotation_world.plan.deployed_at(
            "facebook", when
        ) == default_world.plan.deployed_at("facebook", when)


class TestScanOutage:
    def _south_american_asn(self, world):
        for asn, country in world.topology.countries.items():
            if country.continent.value == "South America":
                return asn
        pytest.fail("the small world lost its South American ASes")

    def test_only_the_named_scanner_is_blinded(self, outage_world):
        overlay = outage_world.event_overlay
        asn = self._south_american_asn(outage_world)
        inside = Snapshot(2018, 7)
        assert overlay.scan_suppressed("rapid7", asn, inside)
        assert not overlay.scan_suppressed("censys", asn, inside)
        assert not overlay.scan_suppressed("rapid7", asn, Snapshot(2019, 1))

    def test_scan_accounts_the_outage(self, outage_world):
        registry = MetricsRegistry()
        outage_world.scanner("rapid7").scan(outage_world, Snapshot(2018, 7), registry)
        outcomes = registry.counters_by_label("scan_servers_total", "outcome")
        assert outcomes.get("scan_outage", 0) > 0

    def test_ground_truth_plan_is_untouched(self, outage_world, default_world):
        inside = Snapshot(2018, 7)
        for hypergiant in default_world.plan.hypergiants():
            assert outage_world.plan.deployed_at(
                hypergiant, inside
            ) == default_world.plan.deployed_at(hypergiant, inside)
