"""The three workloads, driven from the parent process.

Each ``run_<workload>(ctx)`` fills a :class:`Result`: end-to-end samples
with tracing off, or — when ``ctx.trace`` — a traced pass between two
untraced ones, whose spans become the per-layer metrics.  Inputs come from the
seed alone: the world is built from it and, for the file workloads,
exported as columnar ``.rcc`` outside every timed region.  Outputs are
checked against the seed's digests in ``pinned.json`` (see ``pins.py``).
"""

from __future__ import annotations

import functools
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness
import pins
import querymix
import tracing

CORPUS = "rapid7"
#: serve-delta holds back the export's last snapshots and lands them live.
HELD_BACK = 3
#: serve-delta's open-loop rate (queries/s over two connections): below
#: what the daemon sustains during an ingest pass.
SERVE_RATE = 50.0
#: Idle-phase queries: p99 of 1000 has exactly ten samples beyond it.
SERVE_IDLE_QUERIES = 1000
#: The daemon's ``--poll-interval``: short, so a landing waits little for
#: the watcher, yet an idle poll pass (tens of ms) stays a small load.
POLL_INTERVAL = 0.25
#: Daemon restarts over the populated state (``warm_run_s`` is their median).
RESTARTS = 3
#: How often the harness asks ``/status`` whether a snapshot is listed.
STATUS_POLL = 0.05
#: How often it looks for the daemon's ``endpoint.json``: a file read, so
#: it can be frequent; a restart takes about half a second.
ENDPOINT_POLL = 0.005
#: Upper bound on any single child or wait.
CHILD_TIMEOUT = 170.0
#: Repetitions an untraced batch run makes at least; more follow while
#: the run has lasted under ``--seconds``.
MIN_REPS = 2
#: files-cache set-up samples (fresh interpreters) before each repetition.
LAUNCHES_PER_REP = 3
#: What files-cache's set-up does in a fresh interpreter: everything
#: ``repro run --dir`` does before its pipeline runs.
OPEN_DATASET = (
    "import sys\n"
    "from repro.core.pipeline import OffnetPipeline, PipelineOptions\n"
    "from repro.datasets import FileDataset\n"
    "OffnetPipeline(FileDataset(sys.argv[1]), PipelineOptions(jobs=2))\n"
)
#: Share of a traced run's timed wall time its layer spans should cover.
MIN_SPAN_COVERAGE = 0.9

#: Per-layer metrics (name, unit), reported by every traced run; a layer
#: that does no work on a workload reports 0.
PER_LAYER = (
    ("world.build_s", "s"), ("world.scan_s", "s"), ("world.scan_calls", "count"),
    ("world.ip2as_s", "s"),
    ("bgp.from_ribs_s", "s"), ("bgp.from_ribs_calls", "count"),
    ("datasets.scan_s", "s"), ("datasets.scan_calls", "count"), ("datasets.rows", "count"),
    ("datasets.ip2as_s", "s"), ("datasets.fingerprint_s", "s"),
    ("validation.validate_s", "s"), ("validation.calls", "count"),
    ("validation.chains_per_row", "ratio"), ("validation.cache_hit_rate", "ratio"),
    ("signals.evaluate_s", "s"), ("signals.evaluate_calls", "count"),
    ("signals.candidates", "count"), ("confirm.netflix_s", "s"),
    ("pipeline.header_rules_s", "s"), ("pipeline.snapshot_self_s", "s"),
    ("pipeline.merge_s", "s"),
    ("executor.map_s", "s"), ("executor.worker_busy_s", "s"), ("executor.shard_skew", "ratio"),
    ("executor.parent_wait_s", "s"), ("executor.cpu_s", "s"),
    ("executor.worker_peak_rss_mb", "MB"),
    ("stage_cache.get_s", "s"), ("stage_cache.put_s", "s"), ("stage_cache.bytes", "bytes"),
    ("stage_cache.hit_rate", "ratio"),
    ("obs.report_s", "s"),
    ("footprint_index.fold_s", "s"), ("footprint_index.commit_s", "s"),
    ("footprint_index.bytes", "bytes"),
    ("serve.ingest_pass_s", "s"), ("serve.ingest_passes", "count"), ("serve.poll_pass_s", "s"),
    ("serve.handle_query_ms", "ms"), ("serve.http_overhead_ms", "ms"),
    ("query_p50_ms", "ms"), ("query_p99_ms", "ms"), ("ingest_query_p90_ms", "ms"),
    ("ingest_lag_s", "s"),
    ("loadgen.late_p99_ms", "ms"), ("trace.overhead", "ratio"), ("trace.span_coverage", "ratio"),
)

#: Self-time metrics: metric name -> span name.
_SELF_TIMES = {
    "world.build_s": "world.build", "world.scan_s": "world.scan",
    "world.ip2as_s": "world.ip2as", "bgp.from_ribs_s": "bgp.from_ribs",
    "datasets.scan_s": "datasets.scan", "datasets.ip2as_s": "datasets.ip2as",
    "datasets.fingerprint_s": "datasets.fingerprint",
    "validation.validate_s": "validation.validate", "signals.evaluate_s": "signals.evaluate",
    "confirm.netflix_s": "confirm.netflix", "pipeline.header_rules_s": "pipeline.header_rules",
    "pipeline.merge_s": "pipeline.merge", "stage_cache.get_s": "stage_cache.get",
    "stage_cache.put_s": "stage_cache.put", "obs.report_s": "obs.report",
    "footprint_index.fold_s": "footprint_index.fold",
    "footprint_index.commit_s": "footprint_index.commit",
}
#: Call-count metrics: metric name -> span name.
_CALLS = {
    "world.scan_calls": "world.scan", "bgp.from_ribs_calls": "bgp.from_ribs",
    "datasets.scan_calls": "datasets.scan", "validation.calls": "validation.validate",
    "signals.evaluate_calls": "signals.evaluate",
}


@dataclass
class Context:
    """What one invocation was asked to do, and where it may write."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path


@dataclass
class Result:
    """One invocation's metrics, operation counts and checks."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    #: Per-layer table rows and the Chrome trace (traced runs only).
    layer_rows: list[dict] = field(default_factory=list)
    trace_events: dict | None = None
    predictions: list[str] = field(default_factory=list)
    #: Serving latencies of an untraced run: printed, not gated (their
    #: run-to-run spread is wider than any bound a gate could use).
    observed: dict[str, float] = field(default_factory=dict)
    #: Findings that are printed and recorded but are not failures.
    warnings: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        """Record one failed operation."""
        self.failed += 1
        self.problems.append(problem)


# -- inputs -------------------------------------------------------------------


def export_inputs(
    seed: int, directory: Path, reference: str | None = None
) -> tuple[list[str], str | None]:
    """Build the seed's world, export it as columnar ``.rcc`` and, when
    ``reference`` names one, digest a serial in-memory run of

    - ``"world"``: the world as built — world-serial's output;
    - ``"export"``: the world with each snapshot's ip2as table as the
      export wrote it (:func:`as_exported`), so it differs from ``world``
      exactly where the export changed the inputs, and reads neither the
      corpus files nor the tables through ``FileDataset``.

    Every snapshot is scanned once into the world's scan cache first, so
    the export and the reference run share one scan each.  Returns the
    exported snapshot labels and the digest (or ``None``).
    ``pins.compute`` pins a seed's digests through this same function.
    """
    from repro.core.pipeline import OffnetPipeline, PipelineOptions
    from repro.datasets import export_dataset
    from repro.world import build_world

    world = build_world(seed=seed, scale=harness.SCALE)
    snapshots = OffnetPipeline(world, PipelineOptions(jobs=1)).select_snapshots()
    for snapshot in snapshots:
        world.scan(CORPUS, snapshot, cache_size=len(snapshots))
    export_dataset(world, directory, corpora=(CORPUS,), corpus_format="columnar")
    digest = None
    if reference is not None:
        if reference == "export":
            world.ip2as = as_exported(world.ip2as)
        digest = harness.view_digest(OffnetPipeline(world, PipelineOptions(jobs=1)).run().report())
    del world
    gc.collect()
    return [s.label for s in snapshots], digest


def as_exported(ip2as):
    """``ip2as`` (snapshot -> ``IPToASMap``) as ``export_dataset`` writes
    it — each prefix with the origins of the longest match of its first
    address — and ``FileDataset.ip2as`` reads it back."""
    from repro.bgp.ip2as import IPToASMap
    from repro.bgp.rib import RibEntry, RibSnapshot

    tables = {}

    def exported(snapshot):
        if snapshot not in tables:
            mapping = ip2as(snapshot)
            entries = tuple(
                RibEntry(prefix, int(origin), 1.0)
                for prefix in mapping.prefixes()
                for origin in sorted(mapping.lookup(prefix.first))
            )
            rib = RibSnapshot(collector="file", snapshot=snapshot, entries=entries)
            tables[snapshot] = IPToASMap.from_ribs([rib])
        return tables[snapshot]

    return exported


def write_manifest(full: Path, target: Path, labels: list[str]) -> None:
    """Publish ``target``'s manifest naming ``labels`` — atomically, as
    ``export_snapshot`` does, so a watcher never sees a partial one."""
    manifest = json.loads((full / "manifest.json").read_text(encoding="utf-8"))
    manifest["corpora"][CORPUS] = list(labels)
    manifest["store"][CORPUS] = {label: manifest["store"][CORPUS][label] for label in labels}
    tmp = target / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, target / "manifest.json")


def copy_snapshot(full: Path, target: Path, label: str) -> None:
    """Copy one snapshot's corpus file and ip2as table into ``target``."""
    for relative in (f"corpora/{CORPUS}/{label}.rcc", f"ip2as/{label}.tsv"):
        destination = target / relative
        destination.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(full / relative, destination)


# -- batch workloads ----------------------------------------------------------


def run_batch(ctx: Context) -> Result:
    """world-serial and files-cache: repetitions in fresh child processes."""
    result = Result()
    serial = ctx.workload == "world-serial"
    dataset = ctx.work / "dataset"
    pinned = pins.lookup(ctx.seed)
    exported = None
    if not serial:
        # Without a pinned digest, the world's own run is the reference.
        labels, exported = export_inputs(ctx.seed, dataset, None if pinned else "export")
        result.info["snapshots"] = len(labels)
    digests: list[str] = []

    def rep(index: int, spans_dir: Path | None) -> dict:
        args = ["--workload", ctx.workload, "--seed", str(ctx.seed)]
        cache_dir = ctx.work / f"cache-{index}"
        if not serial:
            args += ["--dataset", str(dataset), "--cache-dir", str(cache_dir)]
        if spans_dir is not None:
            args += ["--spans-dir", str(spans_dir)]
        try:
            outcome = harness.run_child("batch_rep.py", args, CHILD_TIMEOUT)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        # Each pipeline run is one operation.
        result.attempted += outcome["runs"]
        for problem in outcome["problems"]:
            result.fail(f"rep {index}: {problem}")
        result.info["tls_rows"] = outcome["tls_rows"]
        result.info["snapshots"] = outcome["snapshots"]
        digests.append(outcome["digest"])
        return outcome

    if ctx.trace:
        # Untraced repetitions on both sides of the traced one, so drift
        # over the run weighs on both halves of the overhead ratio alike.
        before = rep(0, None)
        spans_dir = ctx.work / "spans"
        traced = rep(1, spans_dir)
        after = rep(2, None)
        plain = (_window_total(before["windows"]) + _window_total(after["windows"])) / 2
        spans, counters, roles = tracing.load_spans(spans_dir)
        windows = [tuple(w) for w in traced["windows"]]
        extra = {
            "trace.overhead": _window_total(traced["windows"]) / plain,
            "trace.span_coverage": tracing.coverage(spans, windows),
            **traced["extras"],
        }
        _finish_trace(result, ctx.workload, spans, counters, roles, extra)
    else:
        reps: list[dict] = []
        setups: list[float] = []
        started = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - started < ctx.seconds:
            if not serial:
                setups += launch_samples(dataset, LAUNCHES_PER_REP)
            reps.append(rep(len(reps), None))
            if serial:
                setups += reps[-1]["setup_s"]
        result.metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in reps),
            "warm_run_s": statistics.median(r["warm_run_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        result.info["repetitions"] = len(reps)
        result.info["setup_samples"] = len(setups)
    _check_digests(result, ctx.workload, digests, pinned, exported)
    return result


def launch_samples(dataset: Path, count: int) -> list[float]:
    """files-cache's set-up, ``count`` times: a fresh interpreter imports
    the pipeline, opens ``dataset`` and builds a pipeline over it."""
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", OPEN_DATASET, str(dataset)], capture_output=True,
            text=True, env=harness.child_env(), cwd=harness.ROOT, timeout=CHILD_TIMEOUT,
            check=False,
        )
        samples.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise harness.BenchError(f"opening the dataset failed: {done.stderr[-1500:]}")
    return samples


def _check_digests(result: Result, workload: str, digests, pinned, exported) -> None:
    """Every run's deterministic-view digest against the seed's pinned one
    (``world`` for world-serial, ``files`` for files-cache).  A seed not in
    ``pinned.json`` is checked across paths only: world-serial's runs
    against each other, files-cache's against ``exported``, the digest of
    the world's own run with its ip2as tables as exported."""
    result.attempted += 1
    result.info["digests"] = sorted(set(digests))
    result.info["pinned"] = pinned is not None
    if pinned is not None:
        expected, source = pinned["world" if workload == "world-serial" else "files"], "pinned"
    elif workload == "world-serial":
        expected, source = digests[0], "first run's"
        result.warnings.append(
            "seed not in pinned.json: world-serial's runs are checked only against each other"
        )
    else:
        expected, source = exported, "world-as-exported"
    wrong = sorted({digest[:12] for digest in digests if digest != expected})
    if wrong:
        result.fail(f"deterministic views {wrong} differ from the {source} digest {expected[:12]}")


# -- serve-delta ---------------------------------------------------------------


class Daemon:
    """A ``repro serve`` process (optionally under the tracing launcher)."""

    def __init__(
        self, ctx: Context, dataset: Path, state: Path, learning: str, spans_dir: Path | None
    ):
        self.state = state
        # The learning month is named explicitly (the baseline's last, which
        # the dataset has) because the CLI's fallback moves to 2020-10 once
        # that snapshot lands, and a restart would then re-ingest everything
        # under changed options.
        serve_args = [
            "serve", "--dir", str(dataset), "--state-dir", str(state),
            "--poll-interval", str(POLL_INTERVAL), "--header-learning-snapshot", learning,
        ]
        if spans_dir is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [
                sys.executable, str(harness.BENCH_DIR / "serve_launcher.py"),
                "--spans-dir", str(spans_dir), "--", *serve_args,
            ]
        # A previous daemon's endpoint file names a dead port.
        (state / "endpoint.json").unlink(missing_ok=True)
        self.log = (ctx.work / f"daemon-{time.monotonic_ns()}.log").open("w")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=self.log, stderr=subprocess.STDOUT,
            env=harness.child_env(), cwd=harness.ROOT,
        )
        self.url = ""

    def wait_ready(self) -> str:
        """Wait for the bound endpoint (written after the initial ingest)."""
        from repro.serve import server_url

        while True:
            if self.process.poll() is not None:
                self.log.flush()
                tail = Path(self.log.name).read_text(errors="replace")[-1500:]
                raise harness.BenchError(f"daemon exited {self.process.returncode}: {tail}")
            if time.perf_counter() - self.started > CHILD_TIMEOUT:
                raise harness.BenchError("daemon did not start in time")
            try:
                self.url = server_url(self.state)
            except (OSError, ValueError, KeyError):
                time.sleep(ENDPOINT_POLL)
                continue
            return self.url

    def wait_listed(self, labels: list[str], since: float) -> float:
        """Poll ``/status`` until it lists ``labels``; returns the time."""
        from repro.serve import query_server

        while True:
            body = query_server(self.url, "status", timeout=querymix.QUERY_TIMEOUT)
            now = time.perf_counter()
            if body.get("snapshots") == labels:
                return now
            if now - since > CHILD_TIMEOUT:
                raise harness.BenchError(f"daemon never listed {labels[-1]}: {body}")
            time.sleep(STATUS_POLL)

    def peak_rss_mb(self) -> float:
        """The daemon's high-water RSS (``VmHWM``), in MB."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise harness.BenchError("no VmHWM for the daemon")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def run_serve(ctx: Context) -> Result:
    """serve-delta: launch on the baseline, query open-loop through an idle
    phase and three live landings, restart warm, and check every answer
    against a batch run over the final files."""
    result = Result()
    full = ctx.work / "full"
    labels, _ = export_inputs(ctx.seed, full)
    baseline = labels[:-HELD_BACK]
    result.info["snapshots"] = len(labels)
    result.info["baseline_snapshots"] = len(baseline)

    spans_dir = ctx.work / "spans" if ctx.trace else None
    if ctx.trace:
        # Untraced launches on both sides of the traced pass give the
        # overhead ratio's base.
        before = _serve_pass(ctx, full, labels, baseline, None, result, "before", launch_only=True)
    measured = _serve_pass(ctx, full, labels, baseline, spans_dir, result, "measured")
    if ctx.trace:
        after = _serve_pass(ctx, full, labels, baseline, None, result, "after", launch_only=True)

    reference = harness.run_child(
        "batch_rep.py",
        ["--workload", "reference", "--seed", str(ctx.seed), "--dataset",
         str(measured["dataset"]), "--learning", baseline[-1]],
        CHILD_TIMEOUT,
    )
    result.attempted += 1
    for problem in reference["problems"]:
        result.fail(f"reference: {problem}")
    pinned = pins.lookup(ctx.seed)
    result.info["pinned"] = pinned is not None
    if pinned is None:
        result.warnings.append(
            "seed not in pinned.json: the batch run the daemon is checked against is unchecked"
        )
    elif reference["digest"] != pinned["serve"]:
        result.fail(
            f"the batch run over the final files gave digest {reference['digest'][:12]}, "
            f"pinned {pinned['serve'][:12]}"
        )
    _check_answers(result, measured, reference)

    serving = {
        "query_p50_ms": _tail_ms(result, "query_p50_ms", measured["idle"], 50),
        "query_p99_ms": _tail_ms(result, "query_p99_ms", measured["idle"], 99),
        "ingest_query_p90_ms": _tail_ms(result, "ingest_query_p90_ms", measured["ingest"], 90),
        "ingest_lag_s": statistics.median(measured["lags"]),
    }
    result.info["query_samples"] = {
        "idle": len(measured["idle"]), "ingest": len(measured["ingest"])
    }
    result.info["ingest_lags_s"] = measured["lags"]
    late_p99_ms = _tail_ms(result, "loadgen.late_p99_ms", measured["late"], 99)
    if ctx.trace:
        untraced = [before["setup_s"], after["setup_s"]]
        result.info["setup_s"] = {"traced": measured["setup_s"], "untraced": untraced}
        spans, counters, roles = tracing.load_spans(spans_dir)
        daemon_spans = [s for s in spans if s["name"] == "serve.handle_query"]
        server_p50 = statistics.median(s["end"] - s["start"] for s in daemon_spans)
        extra = {
            **serving,
            "trace.overhead": measured["setup_s"] / statistics.median(untraced),
            "trace.span_coverage": tracing.coverage(spans, measured["windows"]),
            "loadgen.late_p99_ms": late_p99_ms,
            "serve.http_overhead_ms": serving["query_p50_ms"] - server_p50 * 1e3,
            "footprint_index.bytes": measured["index_bytes"],
            **reference["extras"],
        }
        _finish_trace(result, ctx.workload, spans, counters, roles, extra)
        return result

    result.metrics = {
        "setup_s": measured["setup_s"],
        "run_s": reference["run_s"],
        "warm_run_s": measured["warm_run_s"],
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    result.observed = {**serving, "loadgen.late_p99_ms": late_p99_ms}
    return result


def _serve_pass(
    ctx, full, labels, baseline, spans_dir, result, tag: str, launch_only: bool = False
) -> dict:
    """One daemon lifetime over a fresh copy of the baseline (under
    ``serve-<tag>``, with a fresh state dir)."""
    from repro.serve import query_server

    dataset, state = ctx.work / f"serve-{tag}", ctx.work / f"state-{tag}"
    for name in ("organizations.tsv", "anchors.jsonl"):
        dataset.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(full / name, dataset / name)
    for label in baseline:
        copy_snapshot(full, dataset, label)
    write_manifest(full, dataset, baseline)

    out: dict = {"dataset": dataset, "windows": []}
    daemon = Daemon(ctx, dataset, state, baseline[-1], spans_dir)
    try:
        daemon.wait_ready()
        listed = daemon.wait_listed(baseline, daemon.started)
        out["setup_s"] = listed - daemon.started
        out["windows"].append((daemon.started, listed))
        if launch_only:
            return out
        plan = querymix.query_plan(baseline[0], baseline[-1], ctx.seed)
        loop = querymix.OpenLoop(
            plan, SERVE_RATE, functools.partial(querymix.http_send, daemon.url)
        )
        loop.start()
        idle_end = loop.start_time + SERVE_IDLE_QUERIES / SERVE_RATE
        ingest_windows = []
        try:
            time.sleep(max(0.0, idle_end - time.perf_counter()))
            for count in range(len(baseline) + 1, len(labels) + 1):
                copy_snapshot(full, dataset, labels[count - 1])
                swapped = time.perf_counter()
                write_manifest(full, dataset, labels[:count])
                listed = daemon.wait_listed(labels[:count], swapped)
                ingest_windows.append((swapped, listed))
        finally:
            loop.stop()
        out["windows"] += ingest_windows
        out["lags"] = [end - start for start, end in ingest_windows]
        samples = loop.samples
        out["idle"] = [s.latency for s in samples if s.due < idle_end]
        out["ingest"] = [
            s.latency for s in samples if any(a <= s.due < b for a, b in ingest_windows)
        ]
        out["late"] = [s.late for s in samples]
        out["bodies"] = loop.bodies
        result.attempted += len(samples)
        for sample in samples:
            if not sample.ok:
                result.fail(f"query {sample.index} failed")
        out["series"] = {
            hg: query_server(daemon.url, "series", {"hg": hg}) for hg in _all_hypergiants()
        }
        out["peak_rss_mb"] = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    out["index_bytes"] = harness.dir_bytes(state)

    restarts = []
    for _ in range(RESTARTS):
        restart = Daemon(ctx, dataset, state, baseline[-1], spans_dir)
        try:
            restart.wait_ready()
            listed = restart.wait_listed(labels, restart.started)
        finally:
            restart.stop()
        restarts.append(listed - restart.started)
        out["windows"].append((restart.started, listed))
    out["warm_run_s"] = statistics.median(restarts)
    return out


def _tail_ms(result: Result, name: str, seconds: list[float], pct: float) -> float:
    """A latency percentile in ms; 0 with a warning when the samples are
    too few for it (a faster ingest leaves fewer queries in its window)."""
    try:
        return harness.percentile(seconds, pct) * 1e3
    except ValueError as error:
        result.warnings.append(f"{name} not measured: {error}")
        return 0.0


def _all_hypergiants() -> list[str]:
    from repro.hypergiants.profiles import HYPERGIANTS

    return [hg.key for hg in HYPERGIANTS]


def _check_answers(result: Result, measured: dict, reference: dict) -> None:
    """Every distinct served body against the batch reference, and the
    final ``/series`` of every hypergiant exactly."""
    answers = reference["answers"]
    for (endpoint, params), bodies in measured["bodies"].items():
        expected = answers[json.dumps([endpoint, list(map(list, params))])]
        for body in bodies.values():
            if not querymix.body_matches(endpoint, body, expected):
                result.fail(f"/{endpoint} {dict(params)} served a wrong body")
    for hg, body in measured["series"].items():
        result.attempted += 1
        expected = reference["series"][hg]
        if any(body.get(key) != expected[key] for key in ("snapshots", "counts")):
            result.fail(f"/series?hg={hg} differs from the batch run over the final files")


# -- per-layer metrics ---------------------------------------------------------


def _window_total(windows) -> float:
    return sum(end - start for start, end in windows)


def _finish_trace(result: Result, workload: str, spans, counters, roles, extra: dict) -> None:
    """Per-layer metrics, table, Chrome trace and idle-layer predictions."""
    own = tracing.self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def self_sum(name):
        return sum(own[s["id"]] for s in by_name.get(name, ()))

    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for metric, name in _SELF_TIMES.items():
        metrics[metric] = self_sum(name)
    for metric, name in _CALLS.items():
        metrics[metric] = float(len(by_name.get(name, ())))
    metrics["datasets.rows"] = counters.get("datasets.rows", 0.0)
    metrics["signals.candidates"] = counters.get("signals.candidates", 0.0)
    metrics["pipeline.snapshot_self_s"] = self_sum("pipeline.run_snapshot") + self_sum(
        "pipeline.run_shard"
    )
    maps = by_name.get("executor.map", [])
    shards = by_name.get("pipeline.run_shard", [])
    metrics["executor.map_s"] = sum(s["end"] - s["start"] for s in maps)
    metrics["executor.parent_wait_s"] = sum(own[s["id"]] for s in maps)
    metrics["executor.cpu_s"] = sum(s.get("attrs", {}).get("cpu_s", 0.0) for s in maps)
    metrics["executor.worker_busy_s"] = sum(s["end"] - s["start"] for s in shards)
    skews = []
    for span in maps:
        inside = [
            s["end"] - s["start"] for s in shards if span["start"] <= s["start"] <= span["end"]
        ]
        if inside:
            skews.append((sum(inside), max(inside) / (sum(inside) / len(inside))))
    metrics["executor.shard_skew"] = max(skews)[1] if skews else 0.0
    gets = counters.get("stage_cache.gets", 0.0)
    metrics["stage_cache.hit_rate"] = counters.get("stage_cache.hits", 0.0) / gets if gets else 0.0
    passes = by_name.get("serve.ingest_pass", [])
    committed = [s for s in passes if s.get("attrs", {}).get("committed")]
    metrics["serve.ingest_pass_s"] = sum(s["end"] - s["start"] for s in committed)
    metrics["serve.ingest_passes"] = float(len(committed))
    metrics["serve.poll_pass_s"] = sum(
        s["end"] - s["start"] for s in passes if not s.get("attrs", {}).get("committed")
    )
    queries = by_name.get("serve.handle_query", [])
    if queries:
        metrics["serve.handle_query_ms"] = statistics.median(
            (s["end"] - s["start"]) * 1e3 for s in queries
        )
    metrics.update(extra)
    result.metrics = metrics
    result.layer_rows = tracing.layer_table(spans)
    result.trace_events = tracing.chrome_trace(spans, roles)
    result.predictions = _predictions(workload, spans, roles)
    result.warnings += [line for line in result.predictions if "BUT SEEN" in line]
    if metrics["trace.span_coverage"] < MIN_SPAN_COVERAGE:
        result.warnings.append(
            f"named spans cover {metrics['trace.span_coverage']:.1%} of the timed wall time, "
            f"under {MIN_SPAN_COVERAGE:.0%}"
        )


def _predictions(workload: str, spans, roles) -> list[str]:
    """Check the layers the layer map predicts idle on ``workload``: no
    ``world.*`` spans off world-serial, and no ``datasets.*`` spans or
    forked workers on it."""
    names = {s["name"] for s in spans}
    found = {
        "world.* spans": sorted(n for n in names if n.startswith("world.")),
        "datasets.* spans": sorted(n for n in names if n.startswith("datasets.")),
        "worker processes": sorted({r for r in roles.values() if r.endswith("-worker")}),
    }
    idle = (
        ("datasets.* spans", "worker processes")
        if workload == "world-serial"
        else ("world.* spans",)
    )
    lines = []
    for what, seen in found.items():
        line = f"{what}: {', '.join(seen) or 'none'}"
        if what in idle:
            line += " (PREDICTED IDLE, BUT SEEN)" if seen else " (idle, as predicted)"
        lines.append(line)
    return lines
