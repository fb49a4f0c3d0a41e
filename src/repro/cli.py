"""Command-line interface: ``python -m repro <command>``.

Commands::

    python -m repro run        --seed 7 --scale 0.02            # Table 3
    python -m repro run        --dir out/ --corpus rapid7       # ... from files
    python -m repro run        --jobs 4 --report run.json       # + run report
    python -m repro validate   --seed 7 --scale 0.02            # §5 checks
    python -m repro coverage   --hypergiant google              # §6.5
    python -m repro growth     --hypergiant netflix             # Fig. 3 series
    python -m repro dump       --snapshot 2019-10 --out r7.jsonl
    python -m repro export     --dir out/ --format columnar     # binary corpora
    python -m repro serve      --dir out/ --state-dir idx/      # query daemon
    python -m repro query      --state-dir idx/ --endpoint hypergiants
    python -m repro scenario list                               # named worlds
    python -m repro scenario run --name flash-crowd             # eventful run
    python -m repro scenario assess --name skewed               # realism score

``dump`` and ``export`` take ``--format`` to pick the corpus codec; the
accepted names come from the codec registry
(:func:`repro.datasets.formats.format_names`), so a newly registered
format shows up in ``--help`` without touching the CLI.  Readers
autodetect the format from file content, so ``run --dir`` needs no flag
either way.

``run`` and ``serve`` take the §4.5 confirmation configuration:
``--signals`` names the confirmation signals to run, in priority order,
from the signal registry (:func:`repro.core.signals.signal_names`), and
``--confirm-policy`` picks how their verdicts fold
(``paper-default``/``require-<k>``/``priority`` —
:mod:`repro.core.signals.policy`).  The defaults reproduce the paper's
header-only confirmation bit for bit.

Every world-backed command (``run``, ``validate``, ``coverage``,
``growth``, ``dump``, ``export``) builds the same deterministic world from
``--seed``/``--scale``; ``run --dir`` drives the identical pipeline from an
exported dataset directory instead.  The commands that run the pipeline
(``run``, ``validate``, ``coverage``, ``growth``) also take ``--jobs N``:
map the pure per-snapshot phase over N worker processes
(:mod:`repro.core.executor`); ``--jobs 0`` auto-sizes to one worker per
core in the process's CPU affinity mask (so ``taskset`` limits it).  The
cross-snapshot merge is an ordered reduction, so any ``--jobs``
value prints identical numbers; N > 1 simply uses more cores.  Every flag
goes after its subcommand's name.

``run`` additionally takes ``--header-learning-snapshot YYYY-MM`` (§4.4):
by default the paper's September 2020 corpus is used, falling back to a
file dataset's last covered snapshot when 2020-10 was not exported.

The per-snapshot phase is a cached stage graph (:mod:`repro.core.stages`);
``run`` exposes it directly:

* ``--cache-dir DIR`` — persist stage artifacts on disk; a second run
  reuses every artifact whose inputs, options, and stage code are
  unchanged (an ablation flip recomputes only the invalidated suffix);
* ``--resume`` — report which artifacts an interrupted run left behind in
  ``--cache-dir``, then complete the run from them;
* ``--stages a,b`` — force only the named stages (plus dependencies), e.g.
  to warm a cache or debug a subgraph; ``--stages list`` prints the graph.

File-backed runs also take the ingestion robustness flags
(:mod:`repro.robustness`):

* ``--on-error strict|lenient|repair`` — fail fast with position info
  (default), quarantine bad records and infer from the survivors, or
  additionally apply deterministic repairs;
* ``--quarantine-dir DIR`` — persist quarantined records as JSONL, one
  file per corpus snapshot.

``scenario`` drives the scenario engine (:mod:`repro.scenario`): ``list``
and ``describe`` browse the named-scenario registry, ``run`` builds a
named spec's world (mid-timeline events included) and runs the full
pipeline over it, and ``assess`` scores the built world against the
paper's distributions (the same scorer as ``tools/assess_realism.py``).
Unlike the other subcommands, ``scenario`` resolves ``--seed``/``--scale``
from the *spec* when the flags are not given — pass them after the verb
(``repro scenario run --name toy --seed 11``) to override.

``serve`` keeps a persistent :mod:`repro.serve` footprint index in
``--state-dir`` in sync with ``--dir`` (only new or changed snapshots
are re-analysed) and answers concurrent HTTP queries; ``query`` is its
client, finding the daemon via ``--state-dir`` or an explicit ``--url``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import build_table3, render_table
from repro.analysis.coverage import country_coverage, worldwide_coverage
from repro.core import OffnetPipeline, PipelineOptions, restore_netflix
from repro.core.signals import policy_names, signal_names
from repro.core.stages import TERMINAL_STAGES
from repro.hypergiants.profiles import TOP4
from repro.datasets.formats import format_names, get_format
from repro.robustness import CorpusParseError
from repro.timeline import Snapshot
from repro.validation import survey_hypergiant
from repro.world import WorldConfig, build_world

__all__ = ["main", "build_parser"]

#: The §4.4 learning snapshot (the paper's September 2020 Rapid7 corpus).
PAPER_LEARNING_SNAPSHOT = PipelineOptions().header_learning_snapshot


def _add_world_arguments(parser: argparse.ArgumentParser) -> None:
    """``--seed``/``--scale``, for a command that builds a world."""
    parser.add_argument("--seed", type=int, default=7, help="world seed (default 7)")
    parser.add_argument(
        "--scale",
        type=float,
        default=0.02,
        help="Internet scale factor (default 0.02)",
    )


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    """``--jobs``, for a command that runs the pipeline."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the per-snapshot phase (default 1; "
        "0 = one worker per core this process may run on; output is "
        "identical for any N)",
    )


def _add_confirm_arguments(parser: argparse.ArgumentParser) -> None:
    """The §4.5 confirmation flags shared by ``run`` and ``serve``."""
    parser.add_argument(
        "--signals",
        default=None,
        metavar="A,B",
        help="comma-separated confirmation signals for the §4.5 confirm "
        f"stage, in priority order (registered: {', '.join(signal_names())}; "
        "default: header — the paper's methodology); changing the set "
        "re-keys the cached confirm artifacts",
    )
    parser.add_argument(
        "--confirm-policy",
        default=None,
        metavar="POLICY",
        help="how signal verdicts fold into a confirmation "
        f"({', '.join(policy_names())}; default: paper-default — the "
        "header signal decides, bit-identical to the pre-framework "
        "behaviour)",
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``run`` argument set."""
    _add_world_arguments(parser)
    _add_jobs_argument(parser)
    _add_confirm_arguments(parser)
    parser.add_argument(
        "--dir",
        default=None,
        help="run from an exported dataset directory instead of a synthetic world",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        help="corpus to analyse (default: rapid7, or a dataset's first corpus)",
    )
    parser.add_argument(
        "--header-learning-snapshot",
        default=None,
        metavar="YYYY-MM",
        help="§4.4 header-learning snapshot (default: the paper's 2020-10 "
        "when covered, else a file dataset's last snapshot)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="OUT.json",
        help="also write the versioned JSON run report (schema "
        "repro.run-report/1: per-stage timings, per-snapshot funnel "
        "counts, cache stats, executor metadata); identical funnel for "
        "any --jobs value — tools/check_report.py diffs two reports",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist stage artifacts under DIR (content-addressed; a "
        "re-run reuses every artifact whose inputs and options are "
        "unchanged; output is identical with or without a cache)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="report what an interrupted run left in --cache-dir, then "
        "complete the run from those artifacts (requires --cache-dir)",
    )
    parser.add_argument(
        "--stages",
        default=None,
        metavar="A,B|list",
        help="force only the named pipeline stages (plus dependencies) "
        "instead of a full run — warms a cache or debugs a subgraph; "
        "'list' prints the stage graph and exits",
    )
    parser.add_argument(
        "--on-error",
        default="strict",
        choices=("strict", "lenient", "repair"),
        help="how corpus ingestion handles malformed records (requires "
        "--dir for non-strict modes): strict fails fast with the "
        "file/line/byte-offset of the first bad record; lenient "
        "quarantines bad records and infers from the survivors; repair "
        "additionally fixes mechanically-repairable records "
        "(stringified IPs, missing ports, re-defined chains)",
    )
    parser.add_argument(
        "--quarantine-dir",
        default=None,
        metavar="DIR",
        help="write quarantined records as JSONL under DIR, one file per "
        "corpus snapshot (offending line + error class + position); "
        "only meaningful with --on-error=lenient|repair — counts reach "
        "the run report's ingest section either way",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Seven Years in the Life of Hypergiants' Off-Nets'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run the pipeline and print the Table 3 footprints"
    )
    _add_run_arguments(run)

    validate = sub.add_parser(
        "validate", help="survey-style validation against ground truth"
    )
    _add_world_arguments(validate)
    _add_jobs_argument(validate)

    coverage = sub.add_parser("coverage", help="user-population coverage (§6.5)")
    _add_world_arguments(coverage)
    _add_jobs_argument(coverage)
    coverage.add_argument("--hypergiant", default="google")
    coverage.add_argument(
        "--cones", action="store_true", help="also serve hosting ASes' customer cones"
    )

    growth = sub.add_parser("growth", help="off-net AS growth series (Fig. 3)")
    _add_world_arguments(growth)
    _add_jobs_argument(growth)
    growth.add_argument("--hypergiant", default="google")

    dump = sub.add_parser("dump", help="write one scan snapshot to a corpus file")
    _add_world_arguments(dump)
    dump.add_argument("--corpus", default="rapid7", choices=("rapid7", "censys", "certigo"))
    dump.add_argument("--snapshot", default="2019-10", help="YYYY-MM")
    dump.add_argument("--out", required=True, help="output path")
    dump.add_argument(
        "--format",
        default="jsonl",
        choices=format_names(),
        help="corpus codec to write, from the format registry "
        f"(registered: {', '.join(format_names())}; default: jsonl)",
    )

    export = sub.add_parser(
        "export", help="export corpuses + support datasets to a directory"
    )
    _add_world_arguments(export)
    export.add_argument("--dir", required=True, help="output directory")
    export.add_argument(
        "--corpus", action="append", default=None, help="corpus name (repeatable)"
    )
    export.add_argument(
        "--snapshot", action="append", default=None, help="YYYY-MM (repeatable; default all)"
    )
    export.add_argument(
        "--format",
        default="jsonl",
        choices=format_names(),
        help="corpus codec for the exported snapshot files, from the "
        f"format registry (registered: {', '.join(format_names())}; "
        "default: jsonl)",
    )

    serve = sub.add_parser(
        "serve",
        help="watch a dataset dir, keep a persistent footprint index "
        "current, and answer HTTP queries",
    )
    _add_confirm_arguments(serve)
    serve.add_argument(
        "--dir", required=True, help="exported dataset directory to watch"
    )
    serve.add_argument(
        "--state-dir",
        required=True,
        help="where the persistent footprint index lives (created on "
        "first run; later runs resume it and ingest only deltas)",
    )
    serve.add_argument(
        "--corpus",
        default=None,
        help="corpus to index (default: the dataset's first corpus)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default 0 = an ephemeral port, written to "
        "endpoint.json in --state-dir)",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="how often the watcher re-scans --dir for new or changed "
        "snapshots (default 2.0)",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help="run a single delta-ingest pass, print what changed, and "
        "exit without serving (cron-style index updates)",
    )
    serve.add_argument(
        "--header-learning-snapshot",
        default=None,
        metavar="YYYY-MM",
        help="§4.4 header-learning snapshot (default: the paper's "
        "2020-10 when covered, else the dataset's last snapshot)",
    )
    serve.add_argument(
        "--on-error",
        default="strict",
        choices=("strict", "lenient", "repair"),
        help="ingestion policy for corpus files the watcher picks up; a "
        "snapshot that still fails to parse is reported and left out "
        "of the index while the rest keep serving",
    )
    serve.add_argument(
        "--quarantine-dir",
        default=None,
        metavar="DIR",
        help="write records quarantined during serve-side ingestion as "
        "JSONL under DIR (same layout as the batch run's)",
    )

    scenario = sub.add_parser(
        "scenario",
        help="scenario engine: list/describe named worlds, run one through "
        "the pipeline, or score its realism",
    )
    scenario.add_argument(
        "verb",
        choices=("list", "describe", "run", "assess"),
        help="list the registry, describe one spec, run its world through "
        "the pipeline, or score the built world against the paper's "
        "distributions",
    )
    scenario.add_argument(
        "--name",
        default="paper-default",
        help="scenario name from the registry (default: paper-default; "
        "see `repro scenario list`)",
    )
    # None, not a fixed default: "flag not given" must stay observable
    # so the spec's own defaults decide — `scenario run --name toy`
    # builds at the toy scale.
    scenario.add_argument(
        "--seed",
        type=int,
        default=None,
        help="world seed (default: the scenario's own default)",
    )
    scenario.add_argument(
        "--scale",
        type=float,
        default=None,
        help="Internet scale factor (default: the scenario's own default)",
    )
    scenario.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the run verb (default 1; output is "
        "identical for any N, events included)",
    )
    scenario.add_argument(
        "--corpus",
        default=None,
        help="corpus the run verb analyses (default: rapid7)",
    )
    scenario.add_argument(
        "--report",
        default=None,
        metavar="OUT.json",
        help="run verb: also write the versioned run report (its "
        "`scenario` section carries the event schedule and suppression "
        "counters)",
    )
    scenario.add_argument(
        "--out",
        default=None,
        metavar="OUT.json",
        help="assess verb: also write the repro.realism-report/1 JSON",
    )

    query = sub.add_parser(
        "query", help="query a running serve daemon and print the JSON answer"
    )
    query.add_argument(
        "--url",
        default=None,
        help="daemon base URL (default: discovered from --state-dir)",
    )
    query.add_argument(
        "--state-dir",
        default=None,
        help="serve state directory to discover the daemon from "
        "(reads its endpoint.json)",
    )
    query.add_argument(
        "--endpoint",
        default="status",
        choices=("status", "metrics", "hypergiants", "series", "footprint",
                 "diff", "slice"),
        help="which query to run (default: status)",
    )
    query.add_argument("--hg", default=None, help="hypergiant key, e.g. google")
    query.add_argument(
        "--metric",
        default=None,
        help="footprint metric (confirmed, candidates, confirmed_and, "
        "effective, or the Netflix §6.2 variants)",
    )
    query.add_argument("--snapshot", default=None, metavar="YYYY-MM")
    query.add_argument(
        "--from",
        dest="from_snapshot",
        default=None,
        metavar="YYYY-MM",
        help="earlier snapshot for --endpoint diff",
    )
    query.add_argument(
        "--to",
        dest="to_snapshot",
        default=None,
        metavar="YYYY-MM",
        help="later snapshot for --endpoint diff",
    )
    query.add_argument(
        "--by",
        default=None,
        choices=("country", "as"),
        help="slice dimension for --endpoint slice",
    )
    query.add_argument(
        "--asn", default=None, help="AS number for --endpoint slice --by as"
    )
    return parser


def _world(args: argparse.Namespace):
    return build_world(config=WorldConfig(seed=args.seed, scale=args.scale))


def _confirm_overrides(args: argparse.Namespace) -> dict:
    """The §4.5 PipelineOptions overrides ``--signals``/``--confirm-policy``
    asked for (empty when neither was given, keeping the dataclass
    defaults in charge).  Validation stays in PipelineOptions, the single
    authority on signal names and policy specs."""
    overrides: dict = {}
    if args.signals:
        overrides["signals"] = tuple(
            name.strip() for name in args.signals.split(",") if name.strip()
        )
    if args.confirm_policy:
        overrides["confirm_policy"] = args.confirm_policy
    return overrides


def _dataset_context(directory: str, corpus: str | None):
    """Resolve a file dataset the way every file-backed command does:
    open it, pick the corpus (first manifest entry unless named), and
    choose the §4.4 learning-snapshot fallback — the paper's 2020-10
    corpus when covered, else the dataset's last snapshot (never a
    silent substitute when one was requested explicitly).

    Returns ``(source, corpus, fallback_learning_snapshot)``.
    """
    from repro.datasets import FileDataset

    source = FileDataset(directory)
    corpus = corpus or next(iter(source.manifest["corpora"]))
    covered = source.corpus_snapshots(corpus)
    fallback = (
        PAPER_LEARNING_SNAPSHOT
        if PAPER_LEARNING_SNAPSHOT in covered
        else covered[-1]
    )
    return source, corpus, fallback


def _cmd_run(args: argparse.Namespace) -> int:
    """Build a DataSource (world or file dataset), pick the §4.4 learning
    snapshot, run, print Table 3."""
    directory = args.dir
    if args.resume and not args.cache_dir:
        print("--resume needs --cache-dir (there is nothing to resume from)")
        return 2
    if not directory and (args.on_error != "strict" or args.quarantine_dir):
        print(
            "--on-error/--quarantine-dir need --dir: synthetic worlds build "
            "snapshots in memory, so there are no corpus files to quarantine"
        )
        return 2
    overrides: dict = {
        "jobs": args.jobs,
        "cache_dir": args.cache_dir,
        "on_error": args.on_error,
        "quarantine_dir": args.quarantine_dir,
        **_confirm_overrides(args),
    }
    if directory:
        source, corpus, fallback = _dataset_context(directory, args.corpus)
        title = f"Off-net footprints from {directory} ({corpus})"
    else:
        source = _world(args)
        corpus = args.corpus or "rapid7"
        fallback = PAPER_LEARNING_SNAPSHOT
        title = f"Off-net footprints (seed={args.seed}, scale={args.scale})"
    if args.header_learning_snapshot:
        learning = Snapshot.parse(args.header_learning_snapshot)
    else:
        learning = fallback
    try:
        options = PipelineOptions(
            corpus=corpus, header_learning_snapshot=learning, **overrides
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    pipeline = OffnetPipeline(source, options)
    if args.stages:
        return _run_stages_only(pipeline, args.stages)
    if args.resume:
        _print_resume_probe(pipeline)
    try:
        result = pipeline.run()
    except CorpusParseError as error:
        print(f"corpus ingestion failed: {error}")
        print("hint: --on-error=lenient quarantines bad records and keeps going")
        return 1
    quarantined = result.metrics.sum_counters("ingest_quarantined")
    repaired = result.metrics.sum_counters("ingest_repaired")
    if quarantined or repaired:
        where = f"; quarantine files under {args.quarantine_dir}" if args.quarantine_dir else ""
        print(
            f"ingestion: quarantined {quarantined} and repaired {repaired} "
            f"records under --on-error={args.on_error}{where}"
        )
    rows = build_table3(result)
    first, last = result.snapshots[0], result.snapshots[-1]
    print(
        render_table(
            ["Hypergiant", f"{first} (certs)", "max [when]", f"{last} (certs)"],
            [row.format() for row in rows],
            title=title,
        )
    )
    if args.report:
        from repro.obs.report import write_report

        path = write_report(result.report(), args.report)
        stages = result.timings
        print(
            f"wrote run report to {path} "
            f"({len(result.snapshots)} snapshots, "
            f"{sum(stages.values()):.2f}s total stage time)"
        )
    return 0


def _run_stages_only(pipeline: OffnetPipeline, spec: str) -> int:
    """``--stages``: print the graph (``list``) or force a subgraph."""
    if spec.strip().lower() == "list":
        rows = [
            (
                stage["name"],
                ",".join(stage["deps"]) or "-",
                ",".join(stage["options"]) or "-",
                ("heavy" if stage["heavy"] else "light")
                if stage["cacheable"]
                else "uncached",
                stage["produces"],
            )
            for stage in pipeline.describe_stages()
        ]
        print(
            render_table(
                ["stage", "deps", "options", "artifact", "produces"],
                rows,
                title="Per-snapshot stage graph",
            )
        )
        return 0
    targets = tuple(name.strip() for name in spec.split(",") if name.strip())
    try:
        metrics = pipeline.run_stages(targets)
    except KeyError as error:
        print(f"error: {error.args[0]}")
        return 2
    events = metrics.counters_by_label("stage_cache_events", "event")
    timings = {
        stage: histogram.total
        for stage, histogram in metrics.histograms_by_label(
            "stage_seconds", "stage"
        ).items()
    }
    print(
        f"forced stages {', '.join(targets)} over "
        f"{len(pipeline.select_snapshots())} snapshots: "
        f"{events.get('hit', 0)} cache hits, {events.get('miss', 0)} misses, "
        f"{sum(timings.values()):.2f}s stage time"
    )
    return 0


def _print_resume_probe(pipeline: OffnetPipeline) -> None:
    """``--resume``: say what the cache already holds before running."""
    probe = pipeline.probe_cache()
    complete = sum(
        all(stages[name] for name in TERMINAL_STAGES) for stages in probe.values()
    )
    partial = sum(any(stages.values()) for stages in probe.values()) - complete
    print(
        f"resume: {complete}/{len(probe)} snapshots fully cached, "
        f"{partial} partially; recomputing the rest"
    )


def _cmd_validate(args: argparse.Namespace) -> int:
    world = _world(args)
    result = OffnetPipeline(world, PipelineOptions(jobs=args.jobs)).run()
    end = result.snapshots[-1]
    rows = []
    for hypergiant in TOP4:
        report = survey_hypergiant(result, world, hypergiant, end)
        rows.append(
            (
                hypergiant,
                report.inferred,
                report.actual,
                f"{report.recall * 100:.1f}%",
                f"{report.false_fraction * 100:.1f}%",
                report.grade,
            )
        )
    print(
        render_table(
            ["HG", "inferred", "actual", "recall", "false", "grade"],
            rows,
            title="Survey validation (paper: 89-95% recall)",
        )
    )
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    world = _world(args)
    result = OffnetPipeline(world, PipelineOptions(jobs=args.jobs)).run()
    end = result.snapshots[-1]
    per_country = country_coverage(result, world.topology, args.hypergiant, end)
    rows = sorted(per_country.items(), key=lambda kv: -kv[1])
    print(
        render_table(
            ["country", "% users covered"],
            [(code, f"{value:.1f}") for code, value in rows],
            title=f"{args.hypergiant} coverage at {end}",
        )
    )
    total = worldwide_coverage(
        result, world.topology, args.hypergiant, end, include_cones=args.cones
    )
    suffix = " (serving customer cones)" if args.cones else ""
    print(f"\nworldwide: {total:.1f}%{suffix}")
    return 0


def _cmd_growth(args: argparse.Namespace) -> int:
    world = _world(args)
    result = OffnetPipeline(world, PipelineOptions(jobs=args.jobs)).run()
    if args.hypergiant == "netflix":
        envelope = restore_netflix(result)
        rows = [
            (s.label, raw, expired, nontls)
            for s, raw, expired, nontls in zip(
                result.snapshots,
                envelope.initial,
                envelope.with_expired,
                envelope.with_expired_nontls,
            )
        ]
        print(
            render_table(
                ["snapshot", "initial", "w/ expired", "w/ expired, non-tls"],
                rows,
                title="Netflix off-net growth (Fig. 3 envelope)",
            )
        )
        return 0
    rows = [(s.label, count) for s, count in result.series(args.hypergiant)]
    print(
        render_table(
            ["snapshot", "#ASes"], rows, title=f"{args.hypergiant} off-net growth"
        )
    )
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    world = _world(args)
    snapshot = Snapshot.parse(args.snapshot)
    scan = world.scan(args.corpus, snapshot)
    get_format(args.format).write(scan, args.out)
    print(
        f"wrote {args.out}: {scan.ip_count} IPs, "
        f"{scan.unique_certificates()} unique certificates"
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.datasets import export_dataset

    world = _world(args)
    corpora = tuple(args.corpus) if args.corpus else ("rapid7",)
    snapshots = (
        tuple(Snapshot.parse(label) for label in args.snapshot) if args.snapshot else None
    )
    directory = export_dataset(
        world,
        args.dir,
        corpora=corpora,
        snapshots=snapshots,
        corpus_format=args.format,
    )
    print(f"exported {', '.join(corpora)} to {directory} ({args.format})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: keep the --state-dir index synced with --dir and (unless
    --once) answer HTTP queries until interrupted."""
    import time as _time

    from repro.serve import ServeDaemon

    _, corpus, fallback = _dataset_context(args.dir, args.corpus)
    learning = (
        Snapshot.parse(args.header_learning_snapshot)
        if args.header_learning_snapshot
        else fallback
    )
    try:
        options = PipelineOptions(
            corpus=corpus,
            header_learning_snapshot=learning,
            on_error=args.on_error,
            quarantine_dir=args.quarantine_dir,
            **_confirm_overrides(args),
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    daemon = ServeDaemon(
        args.dir,
        args.state_dir,
        options=options,
        host=args.host,
        port=args.port,
        poll_interval=args.poll_interval,
    )
    if args.once:
        report = daemon.ingest_now()
        summary = report.to_dict()
        print(
            f"index {args.state_dir} ({corpus}): "
            f"ingested {len(summary['ingested'])}, "
            f"skipped {len(summary['skipped'])} unchanged, "
            f"removed {len(summary['removed'])}, "
            f"failed {len(summary['failed'])} "
            f"in {summary['duration_seconds']:.2f}s"
        )
        for label in summary["failed"]:
            print(f"  failed: {label} (left out of the index)")
        return 1 if summary["failed"] else 0
    url = daemon.start()
    print(f"serving {corpus} from {args.dir} at {url} (state: {args.state_dir})")
    print("endpoints: /status /metrics /hypergiants /series /footprint /diff /slice")
    try:
        while True:
            _time.sleep(3600)
    except KeyboardInterrupt:
        print("stopping")
    finally:
        daemon.stop()
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    """``scenario``: browse the registry, run a named world, or score it."""
    from repro.scenario import assess_world, get_scenario, scenario_names

    if args.verb == "list":
        rows = [
            (
                spec.name,
                spec.description,
                len(spec.events) or "-",
                spec.paper_ref or "-",
            )
            for spec in (get_scenario(name) for name in scenario_names())
        ]
        print(
            render_table(
                ["scenario", "description", "events", "paper"],
                rows,
                title="Registered scenarios (repro scenario describe --name X)",
            )
        )
        return 0
    try:
        spec = get_scenario(args.name)
    except KeyError as error:
        print(f"error: {error.args[0]}")
        return 2
    if args.verb == "describe":
        print(spec.describe())
        return 0
    world = spec.build(seed=args.seed, scale=args.scale)
    if args.verb == "assess":
        report = assess_world(world)
        for metric in report["metrics"]:
            low, high = metric["band"]
            flag = "ok  " if metric["ok"] else "FLAG"
            print(
                f"{flag} {metric['name']:<24} {metric['value']:<8g} "
                f"band [{low:g}, {high:g}]  ({metric['paper_ref']})"
            )
        verdict = "realistic" if report["realistic"] else "UNREALISTIC"
        print(
            f"{spec.name}: {verdict} — {report['passed']}/{report['total']} "
            f"metrics inside their paper bands"
        )
        if args.out:
            import json as _json
            from pathlib import Path as _Path

            path = _Path(args.out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                _json.dumps(report, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"wrote realism report to {path}")
        return 0
    # run
    try:
        options = PipelineOptions(
            corpus=args.corpus or "rapid7", jobs=1 if args.jobs is None else args.jobs
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    result = OffnetPipeline(world, options).run()
    rows = build_table3(result)
    first, last = result.snapshots[0], result.snapshots[-1]
    config = world.config
    print(
        render_table(
            ["Hypergiant", f"{first} (certs)", "max [when]", f"{last} (certs)"],
            [row.format() for row in rows],
            title=f"Scenario '{spec.name}' footprints "
            f"(seed={config.seed}, scale={config.scale})",
        )
    )
    overlay = world.event_overlay
    if overlay is not None:
        print("\nscheduled events:")
        for event in overlay.events:
            print(f"  {event.describe()}")
    if args.report:
        from repro.obs.report import write_report

        path = write_report(result.report(), args.report)
        print(f"wrote run report to {path} (see its 'scenario' section)")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """``query``: one GET against a running daemon, JSON to stdout."""
    import json as _json

    from repro.serve import query_server, server_url

    if not args.url and not args.state_dir:
        print("query needs --url or --state-dir to find the daemon")
        return 2
    try:
        url = args.url or server_url(args.state_dir)
    except FileNotFoundError as error:
        print(str(error))
        return 1
    params = {
        key: value
        for key, value in (
            ("hg", args.hg),
            ("metric", args.metric),
            ("snapshot", args.snapshot),
            ("from", args.from_snapshot),
            ("to", args.to_snapshot),
            ("by", args.by),
            ("asn", args.asn),
        )
        if value is not None
    }
    body = query_server(url, args.endpoint, params)
    print(_json.dumps(body, indent=2, sort_keys=True))
    return 1 if "error" in body else 0


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "coverage": _cmd_coverage,
    "growth": _cmd_growth,
    "dump": _cmd_dump,
    "export": _cmd_export,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "scenario": _cmd_scenario,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
