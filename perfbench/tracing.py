"""Outside-in tracing: wrap the program's public functions, keep spans.

A :class:`Tracer` records one span per call of every function named in
:data:`LAYER_FUNCTIONS` (name, start, end, parent, pid, thread) in
memory, with a span stack per thread so the serve daemon's HTTP threads
nest correctly.  Nothing under ``src/`` changes: :func:`install` swaps
the functions on their classes and modules, which forked pipeline
workers inherit.

Forked workers exit without running exit hooks, so a worker writes its
spans when its ``run_shard`` call returns; every other traced process
calls :meth:`Tracer.flush` before it exits.  The parent collects the
files with :func:`load_spans` and derives self times (span minus the
part its children cover), the per-layer metrics and a Chrome
trace-event file (one track per pid and thread) that Perfetto opens.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

from harness import cpu_seconds

#: (module, class or None for a module function, attribute, span name).
#: ``evaluate_candidates`` and ``confirm_candidates`` are imported by name
#: into the modules that call them, so they are wrapped there.
LAYER_FUNCTIONS = (
    ("repro.world", None, "build_world", "world.build"),
    ("repro.world.world", "World", "scan", "world.scan"),
    ("repro.world.world", "World", "ip2as", "world.ip2as"),
    ("repro.bgp.ip2as", "IPToASMap", "from_ribs", "bgp.from_ribs"),
    ("repro.datasets.fileview", "FileDataset", "__init__", "datasets.open"),
    ("repro.datasets.fileview", "FileDataset", "scan", "datasets.scan"),
    ("repro.datasets.fileview", "FileDataset", "ip2as", "datasets.ip2as"),
    ("repro.datasets.fileview", "FileDataset", "snapshot_fingerprint", "datasets.fingerprint"),
    ("repro.core.validation", "CertificateValidator", "validate_snapshot", "validation.validate"),
    ("repro.core.stages.offnet", None, "evaluate_candidates", "signals.evaluate"),
    ("repro.core.pipeline", None, "confirm_candidates", "confirm.netflix"),
    ("repro.core.pipeline", "OffnetPipeline", "__init__", "pipeline.init"),
    ("repro.core.pipeline", "OffnetPipeline", "run", "pipeline.run"),
    ("repro.core.pipeline", "OffnetPipeline", "header_rules", "pipeline.header_rules"),
    ("repro.core.pipeline", "OffnetPipeline", "run_snapshot", "pipeline.run_snapshot"),
    ("repro.core.pipeline", "OffnetPipeline", "run_shard", "pipeline.run_shard"),
    ("repro.core.pipeline", "OffnetPipeline", "merge_outcomes", "pipeline.merge"),
    ("repro.core.executor", "SerialExecutor", "map_snapshots", "executor.map"),
    ("repro.core.executor", "ParallelExecutor", "map_snapshots", "executor.map"),
    ("repro.core.stages.cache", "DiskCache", "get", "stage_cache.get"),
    ("repro.core.stages.cache", "DiskCache", "put", "stage_cache.put"),
    ("repro.core.footprint", "PipelineResult", "report", "obs.report"),
    ("repro.core.footprint_index", "DurableFootprintIndex", "__init__", "footprint_index.load"),
    ("repro.core.footprint_index", "DurableFootprintIndex", "fold", "footprint_index.fold"),
    ("repro.core.footprint_index", "DurableFootprintIndex", "commit", "footprint_index.commit"),
    ("repro.serve.ingest", "DeltaIngestor", "ingest_once", "serve.ingest_pass"),
    ("repro.serve.daemon", "ServeDaemon", "handle_query", "serve.handle_query"),
)

#: Spans that enclose a whole run or launch.  They stay in the trace, but
#: they say nothing about which layer the time went to, so span coverage
#: leaves them out.
UMBRELLAS = frozenset({"pipeline.init", "pipeline.run", "serve.import"})


def _count_rows(tracer, span, args, result) -> None:
    tracer.counters["datasets.rows"] += len(result.store.tls_ip)


def _count_candidates(tracer, span, args, result) -> None:
    tracer.counters["signals.candidates"] += len(args[1])


def _count_cache_hit(tracer, span, args, result) -> None:
    tracer.counters["stage_cache.gets"] += 1
    tracer.counters["stage_cache.hits"] += result is not None


def _mark_pass(tracer, span, args, result) -> None:
    span.attrs = {"committed": result.committed, "ingested": len(result.ingested)}


#: Per-span hooks run on the result before the span closes.
_HOOKS = {
    "datasets.scan": _count_rows,
    "signals.evaluate": _count_candidates,
    "stage_cache.get": _count_cache_hit,
    "serve.ingest_pass": _mark_pass,
}


class _Span:
    """One open span; closing appends it to the tracer's list."""

    __slots__ = ("tracer", "name", "id", "parent", "start", "attrs")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = None

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        tracer._check_fork()
        stack = tracer._stack()
        self.id = tracer.pid * 10_000_000 + next(tracer._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        thread = threading.current_thread()
        record = {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": end, "pid": tracer.pid,
            "tid": thread.native_id, "thread": thread.name,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        tracer.spans.append(record)


class Tracer:
    """Spans and counters of one process, kept in memory until flushed."""

    def __init__(self, spans_dir: str | Path, role: str) -> None:
        self.spans_dir = Path(spans_dir)
        self.role = role
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self._reset()

    def _reset(self) -> None:
        self.spans: list[dict] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._local = threading.local()
        # next() on a count is one C call, so threads never share an id.
        self._ids = itertools.count(1)

    def _check_fork(self) -> None:
        # A forked worker inherits the parent's spans and open stack;
        # start it empty so nothing is written twice.
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self._reset()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Span:
        """A context manager recording one span named ``name``."""
        return _Span(self, name)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod) with
        a version that records a span per call."""
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        hook = _HOOKS.get(name)
        tracer = self
        in_worker_flush = name == "pipeline.run_shard"
        measure_cpu = name == "executor.map"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = _Span(tracer, name)
            cpu_before = cpu_seconds() if measure_cpu else 0.0
            span.__enter__()
            try:
                result = func(*args, **kwargs)
                if hook is not None:
                    hook(tracer, span, args, result)
                if measure_cpu:
                    span.attrs = {"cpu_s": cpu_seconds() - cpu_before}
                return result
            finally:
                span.__exit__()
                if in_worker_flush and os.getpid() != tracer.root_pid:
                    tracer.flush()

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def flush(self) -> None:
        """Append this process's spans and counters to its spans file."""
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        role = self.role if self.pid == self.root_pid else f"{self.role}-worker"
        record = {
            "pid": self.pid, "role": role,
            "spans": self.spans, "counters": dict(self.counters),
        }
        path = self.spans_dir / f"spans-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.counters = defaultdict(float)


def install(tracer: Tracer) -> None:
    """Wrap every function of :data:`LAYER_FUNCTIONS` in this process."""
    for module_name, class_name, attr, name in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        tracer.wrap(owner, attr, name)


# -- analysis (parent side) ----------------------------------------------------


def load_spans(spans_dir: str | Path) -> tuple[list[dict], dict, dict]:
    """Every span and summed counter flushed under ``spans_dir``, plus a
    ``pid -> role`` map."""
    spans: list[dict] = []
    counters: defaultdict[str, float] = defaultdict(float)
    roles: dict[int, str] = {}
    for path in sorted(Path(spans_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            roles[record["pid"]] = record["role"]
            spans.extend(record["spans"])
            for key, value in record["counters"].items():
                counters[key] += value
    return spans, dict(counters), roles


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of that
    interval its child spans cover (overlapping children count once)."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = _covered(children.get(span["id"], ()), start, end)
        result[span["id"]] = (end - start) - covered
    return result


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def coverage(spans: list[dict], windows: list[tuple[float, float]]) -> float:
    """Share of the ``windows`` (start, end) covered by layer spans — how
    much of the timed wall time the per-layer metrics explain.  The
    benchmark's own ``bench.*`` regions and the :data:`UMBRELLAS` count
    as uncovered."""
    intervals = [
        (s["start"], s["end"])
        for s in spans
        if s["name"] not in UMBRELLAS and not s["name"].startswith("bench.")
    ]
    total = sum(end - start for start, end in windows)
    if total <= 0:
        return 0.0
    return sum(_covered(intervals, start, end) for start, end in windows) / total


def layer_table(spans: list[dict]) -> list[dict]:
    """Calls, inclusive seconds and self seconds per span name."""
    own = self_times(spans)
    rows: dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(
            span["name"], {"name": span["name"], "calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    return sorted(rows.values(), key=lambda row: -row["self_s"])


def chrome_trace(spans: list[dict], roles: dict[int, str]) -> dict:
    """Chrome trace-event JSON: one complete event per span, one track per
    pid and thread, named after the process role and thread name."""
    origin = min((span["start"] for span in spans), default=0.0)
    events: list[dict] = []
    threads: dict[tuple[int, int], str] = {}
    for span in spans:
        threads[(span["pid"], span["tid"])] = span["thread"]
        event = {
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ph": "X",
            "ts": round((span["start"] - origin) * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "pid": span["pid"],
            "tid": span["tid"],
        }
        if span.get("attrs"):
            event["args"] = span["attrs"]
        events.append(event)
    for pid, role in sorted(roles.items()):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": f"{role} {pid}"}}
        )
    for (pid, tid), name in sorted(threads.items()):
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": name}}
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
