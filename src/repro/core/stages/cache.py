"""Pluggable artifact caches for the stage graph.

An artifact is a stage's output plus the counter fragment the stage
emitted while computing it (the fragment is what makes a cache hit
funnel-identical to a recompute: replaying it books the same counts the
live run would have).  Caches are keyed by the content-addressed keys
:mod:`repro.core.stages.keys` derives, so a cache never needs
invalidation logic — a changed input, option or stage version simply
produces a different key and the stale entry is never asked for again.

Three tiers compose:

* :class:`MemoryCache` — a per-process dict; forked workers inherit the
  parent's entries copy-on-write, which is how warm artifacts ship
  *into* workers for free.
* :class:`DiskCache` — pickled artifacts under ``--cache-dir``, written
  atomically (tmp file + ``os.replace``) so concurrent workers of a
  ``jobs=N`` run can share one store without locks; this is also what
  ``--resume`` reads after an interrupted run.
* :class:`TieredCache` — memory in front of disk, promoting disk hits.

Heavy artifacts (per-row payloads like the §4.2 org-matched rows)
skip the memory tier — see ``Stage.heavy`` — so a long run's resident
set stays bounded while the disk tier still captures them.  Uncached
stages (``Stage.cacheable=False``: the corpus load and the §4.1
validated-record list, cheaper to recompute than to unpickle) never
reach a cache at all.

Every disk entry is a pickle, and unpickling runs the code it names:
the cache directory is a trust boundary (see :class:`DiskCache`).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

__all__ = [
    "Artifact",
    "ArtifactCache",
    "DiskCache",
    "MemoryCache",
    "NullCache",
    "TieredCache",
]

#: What a cache stores per key: ``(stage value, counter-fragment dict)``.
#: The fragment is a :meth:`~repro.obs.metrics.MetricsRegistry.to_dict`
#: payload — plain data, so every tier serialises it the same way.
Artifact = tuple[Any, dict]


@runtime_checkable
class ArtifactCache(Protocol):
    """The cache contract the stage scheduler programs against."""

    def get(self, key: str, heavy: bool = False) -> Artifact | None:
        """The artifact for ``key``, or ``None`` on a miss."""
        ...

    def put(self, key: str, artifact: Artifact, heavy: bool = False) -> None:
        """Store an artifact under its content-addressed key."""
        ...


class NullCache:
    """The cache-off behaviour: every lookup misses, stores are dropped."""

    def get(self, key: str, heavy: bool = False) -> Artifact | None:
        """Always a miss."""
        return None

    def put(self, key: str, artifact: Artifact, heavy: bool = False) -> None:
        """Dropped."""
        return None


class MemoryCache:
    """A process-local artifact dict (the default cache tier)."""

    def __init__(self) -> None:
        self._entries: dict[str, Artifact] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str, heavy: bool = False) -> Artifact | None:
        """The stored artifact, or ``None`` — no copy, callers share it."""
        return self._entries.get(key)

    def put(self, key: str, artifact: Artifact, heavy: bool = False) -> None:
        """Retain a light artifact; heavy ones are deliberately dropped."""
        if heavy:
            # Heavy artifacts (per-row payloads) would make a long run's
            # resident set grow with the corpus; they belong on disk.
            return
        self._entries[key] = artifact


class DiskCache:
    """Content-addressed pickles under a cache directory.

    Layout: ``<dir>/<key[:2]>/<key>.pkl`` (fan-out keeps directories
    small).  Writes go to a temp file in the final directory and are
    published with ``os.replace``, so a reader — another worker process
    of the same run, or a ``--resume`` after a kill — either sees a
    complete artifact or nothing.  A corrupt or truncated entry (the
    interrupted write ``--resume`` exists for), or one pickled by code
    that has since changed, reads as a miss.

    Every entry is a pickle, and loading one runs whatever code it
    names, so the directory is a trust boundary: point ``--cache-dir``
    only at a directory that only trusted users can write.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def get(self, key: str, heavy: bool = False) -> Artifact | None:
        """Unpickle the artifact; a missing, corrupt or stale entry reads
        as a miss.

        Stale means pickled by other code: a class or module the
        artifact names may no longer exist (``AttributeError``,
        ``ModuleNotFoundError``) or may no longer accept its state.  Any
        exception from loading is therefore a miss, and the stage
        recomputes and overwrites the entry."""
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                value, fragment = pickle.load(handle)
        except Exception:
            return None
        return value, fragment

    def put(self, key: str, artifact: Artifact, heavy: bool = False) -> None:
        """Pickle the artifact and publish it atomically (``os.replace``)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


class TieredCache:
    """Memory in front of disk: hits promote, stores write through."""

    def __init__(self, memory: MemoryCache, disk: DiskCache) -> None:
        self.memory = memory
        self.disk = disk

    def __contains__(self, key: str) -> bool:
        return key in self.memory or key in self.disk

    def get(self, key: str, heavy: bool = False) -> Artifact | None:
        """Memory first, then disk; a disk hit promotes into memory."""
        artifact = self.memory.get(key)
        if artifact is not None:
            return artifact
        artifact = self.disk.get(key)
        if artifact is not None:
            self.memory.put(key, artifact, heavy=heavy)
        return artifact

    def put(self, key: str, artifact: Artifact, heavy: bool = False) -> None:
        """Write through both tiers (memory skips heavy artifacts)."""
        self.memory.put(key, artifact, heavy=heavy)
        self.disk.put(key, artifact, heavy=heavy)
