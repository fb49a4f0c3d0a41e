"""Pinned output digests: what the program computed for a seed when the
benchmark was defined.

The workloads check their runs against each other, but a change that
alters ``World.scan`` or a stage's output the same way on every run
would pass those checks.  ``pinned.json`` holds, per seed, the
``deterministic_view`` digest of

- ``world``: a serial in-memory run of the seed's world (world-serial);
- ``files``: a serial run over the world's columnar export (files-cache's
  cold and warm runs).  It differs from ``world`` on the seeds where
  the export changes the funnel (README.md, Findings);
- ``serve``: a serial run over the same export with serve-delta's
  header-learning snapshot (the batch run the daemon is checked against).

A run whose seed is pinned fails on any other digest.  Regenerate the
file only at a commit whose outputs are known good::

    python3 perfbench/pins.py --seeds 0-199 [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness

PINNED = harness.BENCH_DIR / "pinned.json"


def lookup(seed: int) -> dict | None:
    """The pinned digests of ``seed`` at :data:`harness.SCALE`, or ``None``."""
    document = json.loads(PINNED.read_text(encoding="utf-8"))
    if document["scale"] != harness.SCALE:
        return None
    return document["seeds"].get(str(seed))


def compute(seed: int) -> dict:
    """Digests and input shape of one seed (about half a minute)."""
    from repro.core.pipeline import OffnetPipeline, PipelineOptions
    from repro.datasets import FileDataset
    from repro.timeline import Snapshot

    import workloads

    work = Path(tempfile.mkdtemp(prefix=f"pin-{seed}-", dir=harness.OUT_DIR))
    try:
        dataset = work / "dataset"
        labels, world_digest = workloads.export_inputs(seed, dataset, "world")
        files = OffnetPipeline(FileDataset(dataset), PipelineOptions(jobs=1)).run().report()
        # serve-delta's daemon learns the §4.4 rules on its baseline's last snapshot.
        learning = Snapshot.parse(labels[-1 - workloads.HELD_BACK])
        serve = OffnetPipeline(
            FileDataset(dataset), PipelineOptions(jobs=1, header_learning_snapshot=learning)
        ).run().report()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "world": world_digest,
        "files": harness.view_digest(files),
        "serve": harness.view_digest(serve),
        "snapshots": len(labels),
        "tls_rows": files["store"]["tls_rows"],
    }


def _seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Pin the output digests of seeds.")
    parser.add_argument("--seeds", required=True, help="e.g. 0-99 or 7,22")
    parser.add_argument("--jobs", type=int, default=1, help="seeds computed at once")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    if args.one:
        sys.path.insert(0, str(harness.SRC))
        print(json.dumps({str(seed): compute(seed) for seed in seeds}))
        return 0
    harness.OUT_DIR.mkdir(exist_ok=True)
    # One child per seed, ``--jobs`` at a time, so each starts with an empty heap.
    pending = list(seeds)
    running: list[subprocess.Popen] = []
    while pending or running:
        while pending and len(running) < args.jobs:
            running.append(subprocess.Popen(
                [sys.executable, __file__, "--one", "--seeds", str(pending.pop(0))],
                stdout=subprocess.PIPE, text=True, env=harness.child_env(), cwd=harness.ROOT,
            ))
        child = running.pop(0)
        out, _ = child.communicate()
        if child.returncode != 0:
            for other in running:
                other.kill()
                other.wait()
            print(f"error: {child.args[-1]}: exit {child.returncode}", file=sys.stderr)
            return 1
        found = json.loads(out.strip().splitlines()[-1])
        _store(found)
        print(json.dumps(found), flush=True)
    return 0


def _store(found: dict[str, dict]) -> None:
    """Merge ``found`` into :data:`PINNED`, seeds in order."""
    document = {"scale": harness.SCALE, "src_digest": harness.source_digest(), "seeds": {}}
    if PINNED.exists():
        document = json.loads(PINNED.read_text(encoding="utf-8"))
    document["seeds"].update(found)
    document["seeds"] = dict(sorted(document["seeds"].items(), key=lambda item: int(item[0])))
    PINNED.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
