"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.obs.report import load_report, validate_report
from tools.check_report import compare_reports


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 7
        assert args.scale == pytest.approx(0.02)

    def test_dump_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dump"])

    def test_globals_accepted_after_subcommand(self):
        args = build_parser().parse_args(["run", "--scale", "0.01", "--jobs", "2"])
        assert args.scale == pytest.approx(0.01)
        assert args.jobs == 2
        assert args.seed == 7

    def test_jobs_defaults_to_serial(self):
        for argv in (["run"], ["validate"], ["growth"]):
            assert build_parser().parse_args(argv).jobs == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--dir", "ds", "--state-dir", "state", "--jobs", "2"],
            ["export", "--dir", "ds", "--jobs", "2"],
            ["query", "--seed", "3"],
            ["--seed", "3", "scenario", "run"],
        ],
    )
    def test_flags_live_only_where_they_act(self, argv):
        """A flag a command never reads is refused, not silently dropped."""
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(argv)
        assert exited.value.code == 2

    def test_header_learning_snapshot_option(self):
        args = build_parser().parse_args(
            ["run", "--header-learning-snapshot", "2020-10"]
        )
        assert args.header_learning_snapshot == "2020-10"

    def test_serve_requires_dir_and_state_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--dir", "ds"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--dir", "ds", "--state-dir", "state"]
        )
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.poll_interval == pytest.approx(2.0)
        assert not args.once
        assert args.on_error == "strict"

    def test_query_defaults_and_from_to_destinations(self):
        args = build_parser().parse_args(["query", "--state-dir", "state"])
        assert args.endpoint == "status"
        assert args.url is None
        args = build_parser().parse_args([
            "query", "--url", "http://127.0.0.1:8713", "--endpoint", "diff",
            "--hg", "google", "--from", "2019-10", "--to", "2021-01",
        ])
        assert args.from_snapshot == "2019-10"
        assert args.to_snapshot == "2021-01"

    def test_query_rejects_unknown_endpoint_and_by(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--state-dir", "s", "--endpoint", "bogus"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--state-dir", "s", "--endpoint", "slice", "--by", "cone"]
            )


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scale", "0.012"],
        ["validate", "--scale", "0.012"],
        ["coverage", "--scale", "0.012", "--hypergiant", "google", "--cones"],
        ["growth", "--scale", "0.012", "--hypergiant", "netflix"],
    ],
)
def test_commands_run(argv, capsys):
    assert main(argv) == 0
    output = capsys.readouterr().out
    assert output.strip()


def test_dump_command(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    assert main(["dump", "--scale", "0.012", "--snapshot", "2019-10", "--out", str(out)]) == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out


def test_growth_non_netflix(capsys):
    assert main(["growth", "--scale", "0.012", "--hypergiant", "akamai"]) == 0
    assert "akamai off-net growth" in capsys.readouterr().out


def test_export_and_run_files(tmp_path, capsys):
    directory = tmp_path / "ds"
    assert main([
        "export", "--scale", "0.012", "--dir", str(directory),
        "--snapshot", "2020-10", "--snapshot", "2021-04",
    ]) == 0
    assert (directory / "manifest.json").exists()
    capsys.readouterr()
    assert main(["run", "--dir", str(directory)]) == 0
    assert "google" in capsys.readouterr().out

    # An explicit §4.4 learning snapshot is honoured, not overridden.
    assert main([
        "run", "--dir", str(directory), "--header-learning-snapshot", "2021-04",
    ]) == 0
    assert "google" in capsys.readouterr().out


def test_run_with_jobs(capsys):
    assert main(["run", "--scale", "0.012", "--jobs", "2"]) == 0
    assert "google" in capsys.readouterr().out


def test_serve_once_is_a_delta_pass(tmp_path, capsys):
    directory, state = tmp_path / "ds", tmp_path / "state"
    assert main([
        "export", "--scale", "0.012", "--dir", str(directory),
        "--snapshot", "2020-10", "--snapshot", "2021-04",
    ]) == 0
    capsys.readouterr()
    assert main([
        "serve", "--dir", str(directory), "--state-dir", str(state), "--once",
    ]) == 0
    assert "ingested 2" in capsys.readouterr().out
    # The second pass finds the same content fingerprints and skips both.
    assert main([
        "serve", "--dir", str(directory), "--state-dir", str(state), "--once",
    ]) == 0
    out = capsys.readouterr().out
    assert "ingested 0" in out and "skipped 2 unchanged" in out


def test_scenario_run_books_the_event_schedule(tmp_path, capsys):
    """`scenario run --report`: the report's scenario section books the
    spec's mid-timeline schedule and what it withdrew.  0.003 is the
    smallest scale a world accepts, and it still withdraws off-nets."""
    out = tmp_path / "scenario.json"
    assert main([
        "scenario", "run", "--name", "netflix-withdrawal", "--scale", "0.003",
        "--report", str(out),
    ]) == 0
    assert "netflix-withdrawal" in capsys.readouterr().out
    report = load_report(out)
    assert validate_report(report) == []
    section = report["scenario"]
    assert section["name"] == "netflix-withdrawal"
    assert [event["kind"] for event in section["events"]] == ["cache-withdrawal"]
    assert section["event_counts"] == {"cache-withdrawal": 1}
    assert section["withdrawn_as_snapshots"] > 0


def test_query_needs_an_address(tmp_path, capsys):
    assert main(["query", "--endpoint", "status"]) == 2
    assert "--url or --state-dir" in capsys.readouterr().out
    # A state dir without a running daemon has no endpoint.json yet.
    assert main(["query", "--state-dir", str(tmp_path / "state")]) == 1
    assert "endpoint.json" in capsys.readouterr().out


class TestConfirmFlags:
    """The §4.5 confirmation flags: ``--signals`` / ``--confirm-policy``."""

    def test_defaults_leave_the_dataclass_in_charge(self):
        args = build_parser().parse_args(["run"])
        assert args.signals is None
        assert args.confirm_policy is None

    def test_parsed_on_run_and_serve(self):
        for argv in (
            ["run", "--signals", "header,tls-stack", "--confirm-policy",
             "require-2"],
            ["serve", "--dir", "d", "--state-dir", "s",
             "--signals", "header,tls-stack", "--confirm-policy", "require-2"],
        ):
            args = build_parser().parse_args(argv)
            assert args.signals == "header,tls-stack"
            assert args.confirm_policy == "require-2"

    def test_unknown_signal_is_a_clean_error(self, capsys):
        assert main(["run", "--scale", "0.01", "--signals", "banner"]) == 2
        assert "registered" in capsys.readouterr().out

    def test_bad_policy_is_a_clean_error(self, capsys):
        assert main(["run", "--scale", "0.01", "--confirm-policy", "x"]) == 2
        assert "confirm policy" in capsys.readouterr().out

    def test_headerless_paper_default_is_a_clean_error(self, capsys):
        assert main(["run", "--scale", "0.01", "--signals", "tls-stack"]) == 2
        assert "paper-default" in capsys.readouterr().out

    def test_multi_signal_run_executes(self, tmp_path, capsys):
        """Every configured signal books verdicts into the run report."""
        out = tmp_path / "signals.json"
        assert main([
            "run", "--scale", "0.01",
            "--signals", "header,tls-stack,cert-names",
            "--confirm-policy", "require-2",
            "--report", str(out),
        ]) == 0
        assert capsys.readouterr().out.strip()
        report = load_report(out)
        assert compare_reports(report, report, expect_signals=True) == []

    def test_help_lists_the_registries(self):
        """The flag help is built from the live registries, so a new
        signal or policy shows up without touching the CLI."""
        from repro.core.signals import policy_names, signal_names

        parser = build_parser().parse_args  # noqa: F841 - force construction
        run_help = _subparser_help("run")
        for name in signal_names():
            assert name in run_help
        for name in policy_names():
            assert name in run_help


def _subparser_help(command):
    """The sub-command's help text, unwrapped: argparse's formatter
    breaks long lines on hyphens, splitting names like ``cert-names``."""
    parser = build_parser()
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices and command in (
            action.choices or {}
        ):
            text = action.choices[command].format_help()
            return re.sub(r"\s+", " ", re.sub(r"-\n\s*", "-", text))
    raise AssertionError(f"no {command} subparser")


class TestDynamicFormatHelp:
    """``--format`` help strings come from the codec registry, not a
    hard-coded ``{jsonl,columnar}`` literal."""

    def test_every_registered_format_is_offered(self):
        from repro.datasets.formats import format_names

        for command in ("dump", "export"):
            help_text = _subparser_help(command)
            for name in format_names():
                assert name in help_text
            assert "format registry" in help_text
