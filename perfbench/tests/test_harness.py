"""Tests for the benchmark harness itself (not the program under test).

Run from the checkout root: ``python -m pytest perfbench/tests -q``.
"""

import json
import sys
import threading
import time

import pytest

import harness
import pins
import querymix
import run
import tracing
import workloads


# -- percentiles ----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))  # 1..200
    assert harness.percentile(values, 50) == 100
    assert harness.percentile(values, 90) == 180
    assert harness.percentile(list(reversed(values)), 90) == 180


def test_percentile_refuses_a_thin_tail():
    assert harness.percentile(range(100), 90) == 89  # exactly 10 beyond
    with pytest.raises(ValueError, match="9 beyond"):
        harness.percentile(range(99), 90)
    assert harness.percentile(range(1000), 99) == 989
    with pytest.raises(ValueError, match="need at least 10"):
        harness.percentile(range(999), 99)
    with pytest.raises(ValueError):
        harness.percentile([], 50)


# -- self time ----------------------------------------------------------------


def _span(span_id, parent, start, end, name="x"):
    return {
        "id": span_id, "parent": parent, "name": name, "start": start, "end": end,
        "pid": 1, "tid": 1, "thread": "main",
    }


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),  # overlaps span 2: covered once
        _span(4, 2, 2.0, 3.0),  # a grandchild counts against its parent only
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_tracer_nests_spans_per_thread(tmp_path):
    tracer = tracing.Tracer(tmp_path, role="test")
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    tracer.flush()
    spans, _, roles = tracing.load_spans(tmp_path)
    by_name = {s["name"]: s for s in spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    rows = {row["name"]: row for row in tracing.layer_table(spans)}
    assert rows["inner"]["self_s"] == pytest.approx(rows["inner"]["total_s"])
    assert rows["outer"]["self_s"] == pytest.approx(
        rows["outer"]["total_s"] - rows["inner"]["total_s"]
    )
    assert rows["outer"]["self_s"] >= 0.015
    assert set(roles.values()) == {"test"}


def test_span_ids_stay_unique_across_threads(tmp_path):
    tracer = tracing.Tracer(tmp_path, role="test")

    def work():
        for _ in range(2000):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    ids = [span["id"] for span in tracer.spans]
    assert len(ids) == 8 * 2000 * 2 == len(set(ids))
    parents = {span["id"]: span["parent"] for span in tracer.spans if span["name"] == "inner"}
    outers = {span["id"] for span in tracer.spans if span["name"] == "outer"}
    assert set(parents.values()) == outers


def test_wrapped_classmethod_records_a_span(tmp_path):
    class Layer:
        @classmethod
        def build(cls, value):
            return cls, value

    tracer = tracing.Tracer(tmp_path, role="test")
    tracer.wrap(Layer, "build", "layer.build")
    assert Layer.build(3) == (Layer, 3)
    assert [s["name"] for s in tracer.spans] == ["layer.build"]


def test_coverage_and_chrome_trace_tracks():
    spans = [
        _span(1, None, 0.0, 4.0, "a.work"),
        {**_span(2, None, 5.0, 9.0, "b.work"), "pid": 2, "tid": 7, "thread": "worker"},
    ]
    assert tracing.coverage(spans, [(0.0, 10.0)]) == pytest.approx(0.8)
    trace = tracing.chrome_trace(spans, {1: "rep", 2: "rep-worker"})
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {(e["pid"], e["tid"]) for e in complete} == {(1, 1), (2, 7)}
    meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    assert {e["name"] for e in meta} == {"process_name", "thread_name"}


def test_coverage_leaves_out_umbrellas_and_bench_regions():
    spans = [
        _span(1, None, 0.0, 10.0, "pipeline.run"),
        _span(2, 1, 1.0, 3.0, "world.scan"),
        _span(3, None, 0.0, 10.0, "bench.cold"),
    ]
    assert tracing.coverage(spans, [(0.0, 10.0)]) == pytest.approx(0.2)


# -- the open loop ---------------------------------------------------------------


def test_open_loop_times_queries_from_when_they_were_due():
    def slow(endpoint, params):
        time.sleep(0.05)  # slower than the schedule: the queue must grow
        return True, {}

    loop = querymix.OpenLoop([("status", ())], rate=100.0, send=slow, clients=2)
    loop.start()
    time.sleep(0.5)
    loop.stop()
    samples = sorted(loop.samples, key=lambda s: s.index)
    assert len(samples) >= 10
    for sample in samples:
        assert sample.due == pytest.approx(loop.start_time + sample.index / 100.0)
        assert sample.latency == pytest.approx(sample.done - sample.due)
        assert sample.latency >= sample.late + 0.05 - 1e-3
    # Each client can send every 50 ms but is due every 20 ms: lateness grows.
    assert samples[-1].late > samples[1].late + 0.05


def test_open_loop_counts_a_raising_query_as_failed():
    def broken(endpoint, params):
        raise ConnectionError("refused")

    loop = querymix.OpenLoop([("status", ())], rate=200.0, send=broken)
    loop.start()
    time.sleep(0.1)
    loop.stop()
    assert loop.samples and not any(s.ok for s in loop.samples)


def test_body_matches_accepts_a_lagging_series_only_as_a_prefix():
    expected = {"snapshots": ["2020-01", "2020-04", "2020-07"], "counts": [1, 2, 3]}
    assert querymix.body_matches(
        "series", {"snapshots": ["2020-01", "2020-04"], "counts": [1, 2]}, expected
    )
    assert not querymix.body_matches(
        "series", {"snapshots": ["2020-01", "2020-04"], "counts": [1, 5]}, expected
    )
    assert not querymix.body_matches("footprint", {"ases": [1]}, {"ases": [2]})


# -- output checks ---------------------------------------------------------------


def _check(workload, digests, pinned=None, exported=None):
    result = workloads.Result()
    workloads._check_digests(result, workload, digests, pinned, exported)
    return result


def test_a_pinned_seed_fails_on_any_other_digest():
    pinned = {"world": "w", "files": "w", "serve": "s"}
    assert _check("world-serial", ["w", "w"], pinned).failed == 0
    assert _check("files-cache", ["w", "w"], pinned).failed == 0
    # Runs that agree with each other but not with the pin still fail.
    result = _check("world-serial", ["x", "x"], pinned)
    assert (result.attempted, result.failed, result.info["pinned"]) == (1, 1, True)
    assert _check("files-cache", ["w", "x"], pinned).failed == 1


def test_a_known_export_difference_passes_only_as_pinned():
    # On seeds where the export changes the funnel, files and world differ
    # at the seed commit; files-cache must reproduce the pinned files digest.
    pinned = {"world": "w", "files": "f", "serve": "s"}
    assert _check("files-cache", ["f", "f"], pinned).failed == 0
    assert _check("files-cache", ["w", "w"], pinned).failed == 1
    assert _check("files-cache", ["g", "g"], pinned).failed == 1


def test_an_unpinned_seed_is_checked_across_paths():
    result = _check("files-cache", ["f", "f"], exported="e")
    assert result.failed == 1 and result.info["pinned"] is False
    assert _check("files-cache", ["e", "e"], exported="e").failed == 0
    result = _check("world-serial", ["w", "w"])
    assert result.failed == 0 and "pinned.json" in result.warnings[0]
    assert _check("world-serial", ["w", "x"]).failed == 1


def test_pinned_digests_cover_the_default_seed_and_the_export_defect():
    seven = pins.lookup(7)
    assert seven["world"] == seven["files"]
    assert seven["snapshots"] == 31 and seven["tls_rows"] == 124748
    # Seed 22 is one where the export changes the funnel.
    twenty_two = pins.lookup(22)
    assert twenty_two["world"] != twenty_two["files"]


def test_as_exported_gives_a_prefix_the_origins_of_its_first_address():
    from repro.bgp.ip2as import IPToASMap
    from repro.bgp.rib import RibEntry, RibSnapshot
    from repro.net.ipv4 import IPv4Prefix
    from repro.timeline import Snapshot

    snapshot = Snapshot(2020, 10)
    wide, narrow = IPv4Prefix.parse("20.0.0.0/8"), IPv4Prefix.parse("20.0.0.0/16")
    rib = RibSnapshot(
        collector="test", snapshot=snapshot,
        entries=(RibEntry(wide, 1, 1.0), RibEntry(narrow, 2, 1.0)),
    )
    mapping = IPToASMap.from_ribs([rib])
    exported = workloads.as_exported(lambda _: mapping)(snapshot)
    beyond = IPv4Prefix.parse("20.1.0.0/16").first
    assert mapping.lookup(beyond) == {1}
    # The export writes 20.0.0.0/8 with the /16's origin (README.md, Findings).
    assert exported.lookup(beyond) == {2}
    assert exported.lookup(narrow.first) == {2}


def test_pins_are_looked_up_at_the_benchmark_scale(monkeypatch):
    monkeypatch.setattr(harness, "SCALE", 0.003)
    assert pins.lookup(7) is None


def test_http_send_treats_an_error_body_as_failed(monkeypatch):
    import repro.serve

    answers = {"status": {"snapshots": []}, "series": {"error": "missing hg"}}
    monkeypatch.setattr(
        repro.serve, "query_server", lambda url, endpoint, params, timeout: answers[endpoint]
    )
    assert querymix.http_send("http://x", "status", {}) == (True, answers["status"])
    assert querymix.http_send("http://x", "series", {}) == (False, answers["series"])


def test_idle_layer_predictions_follow_the_workload():
    spans = [_span(1, None, 0.0, 1.0, "world.scan"), _span(2, None, 1.0, 2.0, "datasets.scan")]
    serial = workloads._predictions("world-serial", spans, {1: "world-serial-rep"})
    assert [("BUT SEEN" in line) for line in serial] == [False, True, False]
    assert serial[2].endswith("(idle, as predicted)")
    files = workloads._predictions("files-cache", spans, {1: "rep", 2: "rep-worker"})
    assert [("BUT SEEN" in line) for line in files] == [True, False, False]


# -- seeds reach the inputs ------------------------------------------------------


def test_seed_reaches_the_export(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SCALE", 0.003)
    for seed in (3, 4):
        labels, digest = workloads.export_inputs(seed, tmp_path / str(seed), "world")
        manifest = json.loads((tmp_path / str(seed) / "manifest.json").read_text())
        assert manifest["seed"] == seed
        assert manifest["corpus_format"] == "columnar"
        assert manifest["corpora"][workloads.CORPUS] == labels
        assert digest
    corpus = f"corpora/{workloads.CORPUS}/{labels[-1]}.rcc"
    assert (tmp_path / "3" / corpus).read_bytes() != (tmp_path / "4" / corpus).read_bytes()


def test_seed_reaches_the_world_build(monkeypatch, tmp_path):
    calls = []

    def fake_child(script, args, timeout):
        calls.append(args)
        raise harness.BenchError("stop after the first child")

    monkeypatch.setattr(harness, "run_child", fake_child)
    ctx = workloads.Context("world-serial", 11, 1.0, False, tmp_path)
    with pytest.raises(harness.BenchError):
        workloads.run_batch(ctx)
    assert calls[0][calls[0].index("--seed") + 1] == "11"

    import batch_rep

    seen = []

    def fake_build(seed, scale):
        seen.append((seed, scale))
        raise RuntimeError("stop after the build")

    monkeypatch.setattr("repro.world.build_world", fake_build)
    with pytest.raises(RuntimeError):
        batch_rep.main(["--workload", "world-serial", "--seed", "11"])
    assert seen == [(11, harness.SCALE)]


# -- the benchmark definition ------------------------------------------------------


def test_benchmark_json_names_what_the_runner_reports():
    definition = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in definition["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in definition["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in definition["per_layer"]] == list(workloads.PER_LAYER)
    assert any(m["name"] == "setup_s" for m in definition["end_to_end"])
    for metric in definition["end_to_end"]:
        assert metric["better"] == "lower" and 0 < metric["bound"] <= 0.25


def test_runner_refuses_a_checkout_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "SRC", tmp_path / "src")
    assert run.main(["--workload", "world-serial", "--seed", "1"]) == 2
    assert "no program sources" in capsys.readouterr().err
