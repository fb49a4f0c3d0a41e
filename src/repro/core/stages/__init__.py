"""The per-snapshot §4 dataflow as a typed, cached stage graph.

* :mod:`repro.core.stages.base` — stage declarations, the DAG, and the
  lazy caching scheduler;
* :mod:`repro.core.stages.keys` — content-addressed artifact keys;
* :mod:`repro.core.stages.cache` — the pluggable cache tiers
  (memory / disk / tiered / null);
* :mod:`repro.core.stages.offnet` — the concrete §4 stages the
  :class:`~repro.core.pipeline.OffnetPipeline` façade executes.
"""

from repro.core.stages.base import STAGE_CACHE_EVENTS, Stage, StageContext, StageGraph
from repro.core.stages.cache import (
    Artifact,
    ArtifactCache,
    DiskCache,
    MemoryCache,
    NullCache,
    TieredCache,
)
from repro.core.stages.keys import (
    KEY_FORMAT,
    artifact_key,
    option_subset,
    snapshot_fingerprint,
    source_fingerprint,
)
from repro.core.stages.offnet import (
    RULE_STAGES,
    TERMINAL_STAGES,
    CandidateSet,
    ConfirmResult,
    IngestStats,
    MatchResult,
    NetflixResult,
    assemble_outcome,
    build_offnet_graph,
)

__all__ = [
    "KEY_FORMAT",
    "RULE_STAGES",
    "STAGE_CACHE_EVENTS",
    "TERMINAL_STAGES",
    "Artifact",
    "ArtifactCache",
    "CandidateSet",
    "ConfirmResult",
    "DiskCache",
    "IngestStats",
    "MatchResult",
    "MemoryCache",
    "NetflixResult",
    "NullCache",
    "Stage",
    "StageContext",
    "StageGraph",
    "TieredCache",
    "artifact_key",
    "assemble_outcome",
    "build_offnet_graph",
    "option_subset",
    "snapshot_fingerprint",
    "source_fingerprint",
]
