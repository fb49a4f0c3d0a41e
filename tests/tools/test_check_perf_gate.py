"""Pass/fail paths of the serve-load gate.

Serve mode holds correctness (failures, parity, availability during
ingest, the delta-only proof) unconditionally and the latency/qps bars
only on multi-core hosts.  The single-core downgrade must be loud in the
output, never a silent pass.
"""

import json

from tools.check_perf_gate import build_parser, check_serve_summary, main


def make_serve_summary(
    cpu_count=4,
    failures=0,
    parity_ok=True,
    during=1200,
    during_ok=True,
    ingested=("2021-04",),
    skipped=30,
    idle_committed=False,
    p99=12.0,
    qps=400.0,
    kind="serve-load",
):
    return {
        "kind": kind,
        "cpu_count": cpu_count,
        "queries_total": 600,
        "query_failures": failures,
        "qps": qps,
        "latency_p50_ms": 3.0,
        "latency_p99_ms": p99,
        "queries_during_ingest": during,
        "queries_during_ingest_all_ok": during_ok,
        "ingest": {
            "baseline_snapshots": 30,
            "idle_pass_skipped": 30,
            "idle_pass_committed": idle_committed,
            "delta_pass_ingested": list(ingested),
            "delta_pass_skipped": skipped,
            "lag_seconds": 2.5,
        },
        "parity": {"timeline": True, "google": parity_ok},
    }


class TestServeMode:
    def test_clean_summary_passes(self):
        assert check_serve_summary(make_serve_summary(), 500.0, 50.0) == []

    def test_wrong_kind_is_rejected(self):
        problems = check_serve_summary(
            make_serve_summary(kind="parallel-scaling"), 500.0, 50.0
        )
        assert any("expected 'serve-load'" in p for p in problems)

    def test_query_failures_gate(self):
        problems = check_serve_summary(make_serve_summary(failures=3), 500.0, 50.0)
        assert any("3 of 600" in p for p in problems)

    def test_broken_parity_gates(self):
        problems = check_serve_summary(
            make_serve_summary(parity_ok=False), 500.0, 50.0
        )
        assert any("diverge" in p and "google" in p for p in problems)

    def test_no_queries_during_ingest_gates(self):
        problems = check_serve_summary(make_serve_summary(during=0), 500.0, 50.0)
        assert any("availability" in p for p in problems)

    def test_failed_queries_during_ingest_gate(self):
        problems = check_serve_summary(
            make_serve_summary(during_ok=False), 500.0, 50.0
        )
        assert any("during" in p and "failed" in p for p in problems)

    def test_non_delta_drop_pass_gates(self):
        # Re-analysing more than the dropped snapshot means delta
        # detection regressed to a full rebuild.
        problems = check_serve_summary(
            make_serve_summary(ingested=("2021-01", "2021-04"), skipped=29),
            500.0,
            50.0,
        )
        assert any("not delta-only" in p for p in problems)

    def test_committing_idle_pass_gates(self):
        problems = check_serve_summary(
            make_serve_summary(idle_committed=True), 500.0, 50.0
        )
        assert any("idle pass" in p for p in problems)

    def test_single_core_skips_latency_bars_not_correctness(self):
        slow = make_serve_summary(cpu_count=1, p99=5000.0, qps=3.0)
        assert check_serve_summary(slow, 500.0, 50.0) == []
        broken = make_serve_summary(cpu_count=1, parity_ok=False)
        assert any(
            "diverge" in p for p in check_serve_summary(broken, 500.0, 50.0)
        )

    def test_multi_core_latency_and_qps_bars(self):
        problems = check_serve_summary(
            make_serve_summary(p99=900.0, qps=10.0), 500.0, 50.0
        )
        assert any("p99" in p for p in problems)
        assert any("qps" in p for p in problems)

    def test_missing_key_fails_first(self):
        summary = make_serve_summary()
        del summary["qps"]
        problems = check_serve_summary(summary, 500.0, 50.0)
        assert problems == ["serve summary is missing required key 'qps'"]


class TestMain:
    def _write(self, tmp_path, summary):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(summary), encoding="utf-8")
        return str(path)

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json")]) == 1
        assert "not found" in capsys.readouterr().out

    def test_serve_exit_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, make_serve_summary())
        assert main([path, "--expect-serve"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "delta pass" in out

    def test_serve_single_core_skip_is_loud(self, tmp_path, capsys):
        path = self._write(tmp_path, make_serve_summary(cpu_count=1, p99=5000.0))
        assert main([path, "--expect-serve"]) == 0
        out = capsys.readouterr().out
        assert "SKIPPED" in out and "1 CPU core" in out

    def test_serve_flag_is_required(self, tmp_path, capsys):
        path = self._write(tmp_path, make_serve_summary())
        assert main([path]) == 1
        assert "--expect-serve is required" in capsys.readouterr().out

    def test_serve_exit_one(self, tmp_path, capsys):
        path = self._write(tmp_path, make_serve_summary(failures=1))
        assert main([path, "--expect-serve"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["summary.json"])
        assert not args.expect_serve
        assert args.max_p99_ms == 500.0
        assert args.min_qps == 50.0
