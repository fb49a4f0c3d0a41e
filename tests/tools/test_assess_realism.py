"""End-to-end paths of the realism scorer CLI.

One real world build per verdict (small scale): the paper-default world
must score realistic, the ``skewed`` negative control must be flagged,
and both written reports must be structurally whole.
"""

import json

import pytest

from repro.scenario import REALISM_SCHEMA, assess_world, get_scenario
from tools.assess_realism import main

SCALE = "0.01"

#: Keys a realism report, and each of its scored metrics, carries.
REPORT_KEYS = {"schema", "scenario", "metrics", "passed", "total", "score", "realistic"}
METRIC_KEYS = {"name", "value", "expected", "band", "ok", "paper_ref"}


def assert_well_formed(report):
    """The report and every metric carry their keys, and
    ``passed``/``total`` count the ``ok`` metrics and all metrics."""
    assert REPORT_KEYS <= set(report)
    assert report["schema"] == REALISM_SCHEMA
    metrics = report["metrics"]
    assert metrics
    for metric in metrics:
        assert METRIC_KEYS <= set(metric), metric.get("name")
    assert report["passed"] == sum(1 for metric in metrics if metric["ok"])
    assert report["total"] == len(metrics)


@pytest.fixture(scope="module")
def default_report(tmp_path_factory):
    """Score paper-default once; exit code, stdout and the written JSON
    are shared across the assertions below."""
    out = tmp_path_factory.mktemp("realism") / "default.json"
    code = main(["--scale", SCALE, "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


class TestDefaultWorld:
    def test_exit_zero_and_realistic(self, default_report):
        code, report = default_report
        assert code == 0
        assert report["schema"] == REALISM_SCHEMA
        assert report["realistic"] is True
        assert report["passed"] == report["total"] > 0

    def test_report_satisfies_the_ci_gate(self, default_report):
        _, report = default_report
        assert_well_formed(report)
        assert all(metric["ok"] for metric in report["metrics"])

    def test_every_metric_cites_the_paper(self, default_report):
        _, report = default_report
        for metric in report["metrics"]:
            assert metric["paper_ref"], f"{metric['name']} cites nothing"
            low, high = metric["band"]
            assert low <= metric["value"] <= high


class TestNegativeControl:
    def test_skewed_is_flagged_and_strict_exits_one(self, tmp_path, capsys):
        out = tmp_path / "skewed.json"
        code = main(
            ["--scenario", "skewed", "--scale", SCALE, "--strict", "--out", str(out)]
        )
        assert code == 1
        assert "UNREALISTIC" in capsys.readouterr().out
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["realistic"] is False
        # The knobs the skewed spec turns are the metrics that must trip.
        flagged = {m["name"] for m in report["metrics"] if not m["ok"]}
        assert {"stub_share", "cone_mix_l1", "region_mix_l1"} <= flagged
        assert_well_formed(report)

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["--scenario", "no-such-world"]) == 2
        assert "unknown scenario" in capsys.readouterr().out


class TestScorerApi:
    def test_assess_world_matches_the_cli_report(self, default_report):
        """The CLI is a thin wrapper: scoring the same spec in-process
        yields the identical document."""
        _, report = default_report
        world = get_scenario("paper-default").build(scale=float(SCALE))
        assert assess_world(world) == report
