"""One batch repetition in a fresh interpreter (so ``ru_maxrss`` and every
in-process cache start empty).  Prints one JSON object as its last line.

``world-serial``: build the world from the seed, then
``OffnetPipeline(world, PipelineOptions(jobs=1)).run()`` and ``.report()``
— what ``repro run`` does, with its default in-memory stage cache — then
a fresh pipeline over the same world and the now populated in-memory
cache.  One more build follows, for two set-up samples.

``files-cache``: open the exported dataset and run cold with ``jobs=2``
over a fresh ``cache_dir`` (writing the disk stage cache), then a fresh
dataset and pipeline over the same cache dir (reading it).  Its set-up
is timed by the parent (see ``workloads.launch_samples``).

``reference``: one cold ``jobs=2`` run over a served dataset with the
daemon's header-learning snapshot; returns its digest and the answers
every query of the mix and every hypergiant's series must carry.

Every timed region ends at ``report()``; validating the report and
digesting its deterministic view happen after the region closes.

Usage: ``python perfbench/batch_rep.py --workload world-serial --seed 7
[--dataset D --cache-dir C --learning YYYY-MM] [--spans-dir T]``
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import harness
import querymix

#: World builds per world-serial repetition (each takes about a second).
WORLD_SETUPS = 2


class Rep:
    """The measurements of one repetition and the checks they passed."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    def region(self, name: str) -> "_Region":
        """A timed region: a ``bench.<name>`` span when tracing."""
        return _Region(self, name)

    def check(self, label: str, report: dict) -> None:
        """Validate a report and record its deterministic-view digest."""
        from repro.obs.report import validate_report

        problems = validate_report(report)
        if problems:
            self.problems.append(f"{label}: {'; '.join(problems)}")
        self.digests[label] = harness.view_digest(report)


class _Region:
    def __init__(self, rep: Rep, name: str) -> None:
        self.rep = rep
        self.span = rep.tracer.span(f"bench.{name}") if rep.tracer else None

    def __enter__(self) -> "_Region":
        # Garbage left by the previous region is not this region's cost.
        gc.collect()
        if self.span is not None:
            self.span.__enter__()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        if self.span is not None:
            self.span.__exit__()
        self.elapsed = end - self.start
        self.rep.windows.append((self.start, end))


def batch(args) -> int:
    """One world-serial or files-cache repetition."""
    tracer = None
    if args.spans_dir:
        import tracing

        tracer = tracing.Tracer(args.spans_dir, role=f"{args.workload}-rep")
        tracing.install(tracer)

    from repro.core.pipeline import OffnetPipeline, PipelineOptions
    from repro.core.stages import MemoryCache
    from repro.datasets import FileDataset
    from repro.world import build_world

    rep = Rep(tracer)
    serial = args.workload == "world-serial"

    def open_source():
        with rep.region("setup") as region:
            if serial:
                source = build_world(seed=args.seed, scale=harness.SCALE)
            else:
                source = FileDataset(args.dataset)
        rep.setup_s.append(region.elapsed)
        return source

    if serial:
        # The pipeline's default cache, made here so later pipelines share it.
        options, cache = PipelineOptions(jobs=1), MemoryCache()
    else:
        options, cache = PipelineOptions(jobs=2, cache_dir=args.cache_dir), None
    source = open_source()
    with rep.region("cold") as cold:
        report = OffnetPipeline(source, options, cache=cache).run().report()
    rep.check("cold", report)
    cache_bytes = 0 if serial else harness.dir_bytes(args.cache_dir)

    if not serial:
        source = open_source()
    with rep.region("warm") as warm:
        warm_report = OffnetPipeline(source, options, cache=cache).run().report()
    rep.check("warm", warm_report)

    # The remaining set-up samples come last, once the measured runs'
    # objects are freed, so that they leave the heap those runs saw alone.
    source = cache = None
    while serial and len(rep.setup_s) < WORLD_SETUPS:
        source = None
        source = open_source()

    if len(set(rep.digests.values())) != 1:
        rep.problems.append(f"deterministic views differ: {rep.digests}")
    if tracer is not None:
        tracer.flush()
    worker_rss = [w["peak_rss_kb"] for w in report["executor"].get("worker_stats", [])]
    print(json.dumps({
        "setup_s": rep.setup_s,
        "run_s": cold.elapsed,
        "warm_run_s": warm.elapsed,
        "peak_rss_mb": harness.peak_rss_mb(),
        "digest": rep.digests["cold"],
        "runs": len(rep.digests),
        "problems": rep.problems,
        "windows": rep.windows,
        "snapshots": len(report["snapshots"]),
        "tls_rows": report["store"]["tls_rows"],
        "extras": {
            "validation.chains_per_row": report["store"]["unique_chain_ratio"],
            "validation.cache_hit_rate": report["cache"]["hit_rate"],
            "executor.worker_peak_rss_mb": max(worker_rss, default=0) / 1024,
            "stage_cache.bytes": cache_bytes,
        },
    }))
    return 0


def reference(args) -> int:
    """The batch run a served index must agree with, plus its answers."""
    from repro.core.pipeline import OffnetPipeline, PipelineOptions
    from repro.datasets import FileDataset
    from repro.hypergiants.profiles import HYPERGIANTS
    from repro.obs.report import validate_report
    from repro.timeline import Snapshot

    source = FileDataset(args.dataset)
    learning = Snapshot.parse(args.learning)
    gc.collect()
    started = time.perf_counter()
    pipeline = OffnetPipeline(source, PipelineOptions(jobs=2, header_learning_snapshot=learning))
    result = pipeline.run()
    report = result.report()
    run_s = time.perf_counter() - started
    organizations = source.topology.organizations
    plan = querymix.query_plan(result.snapshots[0].label, args.learning, args.seed)
    answers = {
        json.dumps([endpoint, params]): querymix.answer(
            result, organizations, endpoint, dict(params)
        )
        for endpoint, params in plan
    }
    series = {
        hg.key: querymix.answer(result, organizations, "series", {"hg": hg.key})
        for hg in HYPERGIANTS
    }
    print(json.dumps({
        "run_s": run_s,
        "digest": harness.view_digest(report),
        "problems": validate_report(report),
        "answers": answers,
        "series": series,
        "extras": {
            "validation.chains_per_row": report["store"]["unique_chain_ratio"],
            "validation.cache_hit_rate": report["cache"]["hit_rate"],
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("world-serial", "files-cache", "reference")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dataset")
    parser.add_argument("--cache-dir")
    parser.add_argument("--learning")
    parser.add_argument("--spans-dir")
    args = parser.parse_args(argv)
    return reference(args) if args.workload == "reference" else batch(args)


if __name__ == "__main__":
    sys.exit(main())
