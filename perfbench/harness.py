"""Shared pieces of the benchmark: statistics, host facts, digests, children.

Everything here is stdlib-only and free of ``repro`` imports, so the
parent process can plan a run, start children and summarise their
results without loading the pipeline itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

#: The checkout root (the benchmark runs from it; ``src/`` holds the program).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Where runs leave work directories, traces and per-layer tables.
OUT_DIR = ROOT / ".perfbench-out"

#: The paper-default world the workloads share: the CLI's default scale.
SCALE = 0.02
#: Samples a percentile must have beyond it before it is reported.
MIN_TAIL_SAMPLES = 10


class BenchError(RuntimeError):
    """A failure that ends the run without a result line."""


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in (0, 100]).

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond the rank: such a tail is one or two outliers, not
    a percentile.
    """
    ordered = sorted(values)
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    rank = math.ceil(pct / 100 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has {max(beyond, 0)} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return ordered[rank - 1]


def host_info() -> dict:
    """The facts every result is recorded with.  A 1-core host is flagged:
    it cannot show the parallel executor or ingest/query overlap."""
    cpus = os.cpu_count() or 1
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = list(range(cpus))
    return {
        "cpu_count": cpus,
        "affinity": affinity,
        "single_core": len(affinity) < 2,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_rev": _git_rev(),
        "src_digest": source_digest(),
    }


def _git_rev() -> str | None:
    """The commit under test, when the checkout is a git work tree (and
    not merely a directory inside some other repository)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` (path and bytes): names the code
    under test when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def view_digest(report: dict) -> str:
    """sha256 of a run report's deterministic view (canonical JSON)."""
    from repro.obs.report import deterministic_view

    document = json.dumps(deterministic_view(report), sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its waited-for children, in MB
    (``ru_maxrss`` is KB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def child_env() -> dict:
    """The environment children run with: ``src/`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(script: str, args: list[str], timeout: float) -> dict:
    """Run ``perfbench/<script>`` in a fresh interpreter and return the JSON
    object it prints as its last stdout line."""
    command = [sys.executable, str(BENCH_DIR / script), *args]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout,
            env=child_env(), cwd=ROOT, check=False,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{script} timed out after {timeout:.0f}s") from error
    if done.returncode != 0:
        raise BenchError(
            f"{script} exited {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{script} printed no result")
    return json.loads(lines[-1])
