"""Pass/fail paths of the run-report comparator."""

import copy
import json

import pytest

from repro.obs.report import SCHEMA_VERSION, validate_report
from tools.check_report import compare_reports, main


def make_report(confirmed=5):
    """A minimal schema-valid report with one snapshot and one HG."""
    snapshot = "2020-10"
    return {
        "schema": SCHEMA_VERSION,
        "corpus": "rapid7",
        "snapshots": [snapshot],
        "options": {"corpus": "rapid7", "header_confirmation": True},
        "executor": {
            "kind": "serial",
            "jobs": 1,
            "workers": 1,
            "fallback_serial": False,
        },
        "stages": {
            "scan": {"seconds": 1.0, "calls": 1, "mean": 1.0, "max": 1.0},
        },
        "funnel": {
            snapshot: {
                "tls_records": 100,
                "http_records": 50,
                "unique_certificates": 40,
                "valid": 90,
                "expired_only": 3,
                "rejected": 7,
                "hypergiants": {
                    "google": {
                        "org_matched": 20,
                        "onnet_ips": 5,
                        "candidates": 10,
                        "confirmed": confirmed,
                    }
                },
            }
        },
        "cache": {
            "static_hits": 10,
            "static_misses": 2,
            "window_hits": 8,
            "window_misses": 4,
            "hit_rate": 0.75,
        },
        "metrics": {"counters": [], "gauges": [], "histograms": []},
    }


class TestFixture:
    def test_fixture_is_schema_valid(self):
        assert validate_report(make_report()) == []


class TestPassPaths:
    def test_identical_reports_pass(self):
        assert compare_reports(make_report(), make_report()) == []


class TestFailPaths:
    def test_funnel_drift_fails_exactly(self):
        problems = compare_reports(make_report(confirmed=5), make_report(confirmed=6))
        assert problems
        assert any("funnel drift" in p for p in problems)
        # the diff names the drifting path
        assert any("confirmed" in p for p in problems)

    def test_schema_problems_short_circuit(self):
        broken = make_report()
        broken["schema"] = "repro.run-report/999"
        problems = compare_reports(broken, make_report())
        assert problems and all(p.startswith("baseline:") for p in problems)

    def test_snapshot_set_drift_fails(self):
        candidate = make_report()
        candidate["snapshots"] = ["2020-10", "2021-04"]
        candidate["funnel"]["2021-04"] = copy.deepcopy(
            candidate["funnel"]["2020-10"]
        )
        assert compare_reports(make_report(), candidate)


def signals_report(signals=("header", "tls-stack"), booked=None):
    """A report whose confirm stage ran the named signals.

    ``booked`` restricts which signals actually recorded verdicts;
    by default every configured signal booked some.
    """
    report = make_report()
    report["options"]["signals"] = list(signals)
    report["options"]["confirm_policy"] = "paper-default"
    report["signals"] = {
        "verdicts": {
            name: {"confirm": 5, "reject": 2, "abstain": 1}
            for name in (signals if booked is None else booked)
        },
        "disagreements": {"google": 1},
    }
    return report


class TestExpectSignals:
    """``--expect-signals``: the check proving the multi-signal
    confirm engine actually consulted every configured signal."""

    def test_booked_signals_pass(self):
        assert compare_reports(
            signals_report(), signals_report(), expect_signals=True
        ) == []

    def test_without_flag_signals_section_is_not_required(self):
        assert compare_reports(make_report(), make_report()) == []

    def test_no_configured_signals_fails(self):
        problems = compare_reports(
            signals_report(), make_report(), expect_signals=True
        )
        assert any("no configured signals" in p for p in problems)

    def test_configured_but_silent_signal_fails(self):
        candidate = signals_report(booked=("header",))
        problems = compare_reports(
            signals_report(), candidate, expect_signals=True
        )
        assert any(
            "'tls-stack' is configured but booked no verdicts" in p
            for p in problems
        )
        assert not any("'header'" in p for p in problems)

    def test_zeroed_verdict_counts_fail(self):
        candidate = signals_report()
        candidate["signals"]["verdicts"]["tls-stack"] = {
            "confirm": 0, "reject": 0, "abstain": 0
        }
        problems = compare_reports(
            signals_report(), candidate, expect_signals=True
        )
        assert any("'tls-stack'" in p for p in problems)


class TestMain:
    def _write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    def test_exit_zero_on_match(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "a.json", make_report())
        candidate = self._write(tmp_path, "b.json", make_report())
        assert main([baseline, candidate]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_drift(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "a.json", make_report(confirmed=5))
        candidate = self._write(tmp_path, "b.json", make_report(confirmed=9))
        assert main([baseline, candidate]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_expect_signals_exit_zero(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "a.json", signals_report())
        candidate = self._write(tmp_path, "b.json", signals_report())
        assert main([baseline, candidate, "--expect-signals"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_expect_signals_exit_one(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "a.json", signals_report())
        candidate = self._write(
            tmp_path, "b.json", signals_report(booked=("header",))
        )
        assert main([baseline, candidate, "--expect-signals"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestValidateReport:
    def test_missing_keys_reported(self):
        assert validate_report({}) != []

    def test_non_integer_funnel_count_reported(self):
        report = make_report()
        report["funnel"]["2020-10"]["valid"] = "ninety"
        assert any("valid" in p for p in validate_report(report))

    def test_funnel_must_cover_snapshots(self):
        report = make_report()
        report["snapshots"].append("2021-04")
        assert any("missing snapshots" in p for p in validate_report(report))

    @pytest.mark.parametrize("payload", [None, [], "x"])
    def test_non_object_rejected(self, payload):
        assert validate_report(payload)
