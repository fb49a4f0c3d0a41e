"""Serve-layer load: thousands of queries against a live delta ingest.

The drill: export a dataset minus its last snapshot, start a
:class:`~repro.serve.ServeDaemon`, and fire a storm of concurrent
clients at the query API while the held-out snapshot lands mid-storm and
is delta-ingested.  A dedicated prober thread queries continuously for
the whole ingest window, so "queries answered during ingest" is measured
rather than hoped for.

Publishes ``perf_serve_summary.json`` (``kind: serve-load``) with

* client-side latency p50/p99 and aggregate qps, computed from the raw
  per-query latencies (the registry's histograms keep only power-of-two
  buckets, so percentile math belongs on the client side);
* the delta-ingestion proof: the idle pass skipped everything, the drop
  pass re-analysed exactly one snapshot, and the ingest-lag gauge;
* availability: how many queries completed inside the ingest window and
  whether every one succeeded;
* parity: the served answers vs a fresh batch run over the final files;
* ``cpu_count`` — on a single-core host the latency/throughput numbers
  are degraded by the daemon and the clients sharing one core, so the
  summary says so loudly and the CI gate skips the wall-clock bars.

Knobs: ``REPRO_SERVE_CLIENTS`` (logical clients, default 150),
``REPRO_SERVE_QUERIES`` (queries per client, default 10),
``REPRO_SERVE_WORKERS`` (client threads, default 16),
``REPRO_SERVE_SCALE`` / ``REPRO_BENCH_SEED`` (world shape).
"""

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from benchmarks.conftest import OUTPUT_DIR, write_output
from repro.core import OffnetPipeline, PipelineOptions
from repro.datasets import FileDataset, export_dataset, export_snapshot
from repro.serve import ServeDaemon, query_server
from repro.world import build_world

CLIENTS = int(os.environ.get("REPRO_SERVE_CLIENTS", "150"))
QUERIES_PER_CLIENT = int(os.environ.get("REPRO_SERVE_QUERIES", "10"))
WORKERS = int(os.environ.get("REPRO_SERVE_WORKERS", "16"))
SCALE = float(os.environ.get("REPRO_SERVE_SCALE", "0.01"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))


def _percentile(latencies: list[float], fraction: float) -> float:
    """Nearest-rank percentile over raw client-side latencies."""
    ordered = sorted(latencies)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def _gauge(registry_dict: dict, name: str) -> float | None:
    """One gauge's value out of a registry dump."""
    for entry in registry_dict.get("gauges", []):
        if entry["name"] == name:
            return entry["value"]
    return None


def _query_plan(url: str, hypergiants: list[str], labels: list[str]) -> list:
    """The endpoint mix one logical client cycles through."""
    last, first = labels[-1], labels[0]
    plan = [("status", None), ("hypergiants", None)]
    for hg in hypergiants:
        plan.append(("series", {"hg": hg}))
        plan.append(("footprint", {"hg": hg, "snapshot": last}))
        plan.append(("diff", {"hg": hg, "from": first, "to": last}))
        plan.append(("slice", {"by": "country", "hg": hg, "snapshot": last}))
    return plan


def test_serve_load(tmp_path):
    """The storm, the mid-storm delta ingest, and the published summary."""
    world = build_world(seed=SEED, scale=SCALE)
    directory = tmp_path / "dataset"
    snapshots = world.snapshots
    baseline, held_out = snapshots[:-1], snapshots[-1]
    export_dataset(world, directory, snapshots=baseline)

    options = PipelineOptions(header_learning_snapshot=baseline[-1])
    daemon = ServeDaemon(
        directory, tmp_path / "state", options=options, poll_interval=120.0
    )
    url = daemon.start()
    try:
        idle = daemon.ingest_now()
        hypergiants = query_server(url, "hypergiants")["hypergiants"]
        labels = query_server(url, "status")["snapshots"]
        plan = _query_plan(url, hypergiants, labels)

        # -- the storm: CLIENTS logical clients through WORKERS threads ---
        samples: list[tuple[float, float, bool]] = []  # (done_at, latency, ok)
        samples_lock = threading.Lock()

        def client_session(client_id: int) -> None:
            local = []
            for number in range(QUERIES_PER_CLIENT):
                endpoint, params = plan[(client_id + number) % len(plan)]
                started = time.perf_counter()
                body = query_server(url, endpoint, params)
                done = time.perf_counter()
                local.append((done, done - started, "error" not in body))
            with samples_lock:
                samples.extend(local)

        # -- the prober: hammers /series for the whole ingest window ------
        ingest_window: dict[str, float] = {}
        prober_results: list[bool] = []
        prober_stop = threading.Event()

        def prober() -> None:
            while not prober_stop.is_set():
                body = query_server(url, "series", {"hg": hypergiants[0]})
                prober_results.append("error" not in body)

        def drop_and_ingest() -> None:
            export_snapshot(world, directory, held_out)
            ingest_window["start"] = time.perf_counter()
            ingest_window["report"] = daemon.ingest_now()
            ingest_window["end"] = time.perf_counter()
            prober_stop.set()

        storm_started = time.perf_counter()
        prober_thread = threading.Thread(target=prober)
        ingest_thread = threading.Thread(target=drop_and_ingest)
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            futures = [pool.submit(client_session, c) for c in range(CLIENTS)]
            prober_thread.start()
            ingest_thread.start()
            for future in futures:
                future.result()
            ingest_thread.join()
            prober_stop.set()
            prober_thread.join()
        storm_seconds = time.perf_counter() - storm_started

        # -- aggregate ------------------------------------------------------
        latencies = [latency for _, latency, _ in samples]
        failures = sum(1 for _, _, ok in samples if not ok)
        during = [
            ok
            for done, _, ok in samples
            if ingest_window["start"] <= done <= ingest_window["end"]
        ]
        queries_during_ingest = len(during) + len(prober_results)
        during_ok = all(during) and all(prober_results) and bool(prober_results)

        delta = ingest_window["report"]
        post_status = query_server(url, "status")
        metrics = query_server(url, "metrics")

        # -- parity vs a fresh batch run over the final files ---------------
        batch = OffnetPipeline(FileDataset(directory), options).run()
        parity = {
            "timeline": post_status["snapshots"]
            == [s.label for s in batch.snapshots]
        }
        for hg in batch.hypergiants():
            served = query_server(url, "series", {"hg": hg})["counts"]
            parity[hg] = served == [count for _, count in batch.series(hg)]

        cpu_count = os.cpu_count() or 1
        summary = {
            "kind": "serve-load",
            "cpu_count": cpu_count,
            "clients": CLIENTS,
            "queries_per_client": QUERIES_PER_CLIENT,
            "client_workers": WORKERS,
            "queries_total": len(samples),
            "query_failures": failures,
            "qps": round(len(samples) / storm_seconds, 1),
            "latency_p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
            "latency_p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
            "queries_during_ingest": queries_during_ingest,
            "queries_during_ingest_all_ok": during_ok,
            "ingest": {
                "baseline_snapshots": len(baseline),
                "idle_pass_skipped": len(idle.skipped),
                "idle_pass_committed": idle.committed,
                "delta_pass_ingested": [s.label for s in delta.ingested],
                "delta_pass_skipped": len(delta.skipped),
                "lag_seconds": _gauge(metrics, "serve_ingest_lag_seconds"),
            },
            "parity": parity,
        }
        if cpu_count < 2:
            summary["note"] = (
                "SINGLE-CORE HOST: the daemon, the ingest, and every client "
                "thread share one core, so latency and qps are degraded and "
                "not comparable across hosts; the CI gate skips the "
                "wall-clock bars on this summary"
            )
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / "perf_serve_summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )

        lines = [
            f"{len(samples)} queries from {CLIENTS} clients "
            f"({WORKERS} threads) in {storm_seconds:.2f}s "
            f"-> {summary['qps']} qps on {cpu_count} core(s)",
            f"latency p50 {summary['latency_p50_ms']}ms, "
            f"p99 {summary['latency_p99_ms']}ms, {failures} failures",
            f"delta ingest mid-storm: re-analysed "
            f"{summary['ingest']['delta_pass_ingested']}, skipped "
            f"{summary['ingest']['delta_pass_skipped']} unchanged "
            f"(lag {summary['ingest']['lag_seconds']}s)",
            f"{queries_during_ingest} queries answered during the ingest, "
            f"all ok: {during_ok}",
            "parity vs fresh batch run: "
            + json.dumps(parity, sort_keys=True),
        ]
        if "note" in summary:
            lines.append(summary["note"])
        write_output("serve_load", "\n".join(lines))

        # The bench itself enforces correctness; the gate re-checks the
        # published summary so CI fails loudly even if pytest was skipped.
        assert failures == 0
        assert idle.skipped and not idle.committed
        assert [s.label for s in delta.ingested] == [held_out.label]
        assert len(delta.skipped) == len(baseline)
        assert during_ok
        assert all(parity.values())
    finally:
        daemon.stop()
