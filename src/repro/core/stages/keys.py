"""Content-addressed artifact keys for the stage graph.

A stage artifact's key is the SHA-256 of a canonical JSON document
naming everything that can change the artifact's bytes:

* the **key-format version** (bump to flush every cache at once);
* the **stage name and code version** (each stage declares a version
  string and bumps it when its logic changes);
* the **option subset** the stage reads — only those switches, so
  flipping ``require_all_dnsnames`` leaves the §4.1 validation
  artifact's key (and cache entry) untouched;
* the **upstream artifact keys**, so invalidation propagates down the
  graph edges without ever hashing upstream *values*;
* the **snapshot fingerprint**: the data source's own fingerprint plus
  the corpus name and snapshot label — the identity of the store the
  root stage would load.

Keys are computable without materializing any stage value, which is
what lets a fully warm run skip even corpus loading: the scheduler
derives every key top-down, finds the terminal artifacts cached, and
never touches the source.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.timeline import Snapshot

__all__ = [
    "KEY_FORMAT",
    "artifact_key",
    "option_subset",
    "snapshot_fingerprint",
    "source_fingerprint",
]

#: Bump when the key derivation itself changes incompatibly.
KEY_FORMAT = "repro.stage-key/1"


def _jsonable(value: Any) -> Any:
    """Canonicalise an option value for hashing."""
    if isinstance(value, Snapshot):
        return value.label
    if isinstance(value, str | int | float | bool) or value is None:
        return value
    if isinstance(value, tuple | list):
        return [_jsonable(v) for v in value]
    raise TypeError(
        f"option value {value!r} ({type(value).__name__}) is not hashable "
        "into a stage key; extend keys._jsonable for new option types"
    )


def option_subset(options: Any, keys: tuple[str, ...]) -> dict[str, Any]:
    """The declared slice of ``PipelineOptions`` a stage reads, as
    canonical JSON-safe values."""
    return {key: _jsonable(getattr(options, key)) for key in sorted(keys)}


def source_fingerprint(source: Any) -> str | None:
    """The data source's stable self-fingerprint, or ``None`` when the
    source cannot name itself across processes.

    :class:`~repro.world.World` derives one from its ``WorldConfig``;
    :class:`~repro.datasets.FileDataset` from its manifest.  A source
    without a ``fingerprint()`` is still cacheable *within* a process
    (the pipeline substitutes an object-identity token) but refuses the
    on-disk tier — a stale disk hit against different data would be
    silent corruption.
    """
    fingerprint = getattr(source, "fingerprint", None)
    if callable(fingerprint):
        value = fingerprint()
        if not isinstance(value, str) or not value:
            raise TypeError(
                f"{type(source).__name__}.fingerprint() must return a "
                f"non-empty str, got {value!r}"
            )
        return value
    return None


def snapshot_fingerprint(source_token: str, corpus: str, snapshot: Snapshot) -> str:
    """The identity of one snapshot's input data under one source."""
    return _digest(
        {"source": source_token, "corpus": corpus, "snapshot": snapshot.label}
    )


def artifact_key(
    stage_name: str,
    stage_version: str,
    options: dict[str, Any],
    dep_keys: dict[str, str],
    snapshot_token: str,
) -> str:
    """The content-addressed key for one stage's artifact."""
    return _digest(
        {
            "format": KEY_FORMAT,
            "stage": stage_name,
            "version": stage_version,
            "options": options,
            "deps": dep_keys,
            "snapshot": snapshot_token,
        }
    )


def _digest(document: dict) -> str:
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
