"""The paper's methodology (§4): from certificate corpuses to off-net
footprints.

* :mod:`repro.core.validation` — §4.1 certificate validation against the
  WebPKI (with an "accept expired" variant used by the Netflix analysis).
* :mod:`repro.core.tls_fingerprint` — §4.2 learning per-HG TLS fingerprints
  from the HG's own address space.
* :mod:`repro.core.candidates` — §4.3 the all-dNSNames-subset candidate
  rule applied outside the HG's ASes.
* :mod:`repro.core.header_fingerprint` — §4.4 learning HTTP(S) header
  fingerprints from on-net responses (automating the paper's manual step).
* :mod:`repro.core.signals` — §4.5 confirming candidates: one signal
  engine pass per (hypergiant, snapshot) judges each candidate with the
  configured signals (headers, with the Netflix default-nginx
  acceptance and the §7 edge-CDN conflict priority, by default) and
  yields both of Figure 4's "or" and "and" variants;
  :mod:`repro.core.confirm` is the header-only façade the §6.2
  expired-certificate variant still uses.
* :mod:`repro.core.cloudflare` — the §7 Cloudflare customer-certificate
  filter.
* :mod:`repro.core.netflix` — the §6.2 Netflix envelope restoration
  (expired certificates, HTTP-only era), including the one
  cross-snapshot fold both the batch merge and the durable index run.
* :mod:`repro.core.footprint` / :mod:`repro.core.footprint_index` — the
  :class:`FootprintIndex` query surface over per-snapshot footprints and
  its two implementations: the batch :class:`PipelineResult` and the
  :class:`IndexView` a :class:`DurableFootprintIndex` (the on-disk store
  behind the incremental ``repro serve`` path) publishes per commit.
* :mod:`repro.core.pipeline` — the longitudinal orchestration producing
  every number the evaluation section reports, split into a pure
  per-snapshot phase and an ordered cross-snapshot merge.
* :mod:`repro.core.stages` — the per-snapshot phase itself as a typed
  stage graph with content-addressed, cacheable artifacts (the
  ``--cache-dir``/``--resume``/``--stages`` machinery).
* :mod:`repro.core.executor` — snapshot execution strategies: serial, or a
  fork-based process pool (``PipelineOptions(jobs=N)``) with bit-identical
  output.
* :mod:`repro.core.gcpause` — pauses the cycle collector over the
  per-snapshot phase, whose values all die by reference count.

Every stage is instrumented through :mod:`repro.obs`: the pure phase
books stage timings and funnel counters into a per-snapshot metrics
registry, the merge barrier folds the registries in snapshot order, and
``PipelineResult.report()`` emits the versioned JSON run report
``tools/check_report.py`` diffs across executors.
"""

from repro.core.candidates import find_candidates
from repro.core.cloudflare import is_cloudflare_customer_cert
from repro.core.confirm import EDGE_CDNS, confirm_candidates
from repro.core.executor import ParallelExecutor, SerialExecutor, make_executor
from repro.core.footprint import (
    FootprintIndex,
    FootprintSnapshot,
    PipelineResult,
    SnapshotOutcome,
)
from repro.core.footprint_index import DurableFootprintIndex, IndexView
from repro.core.header_fingerprint import learn_header_fingerprints
from repro.core.netflix import NetflixEnvelope, restore_netflix
from repro.core.pipeline import OffnetPipeline, PipelineOptions
from repro.core.stages import (
    DiskCache,
    MemoryCache,
    NullCache,
    Stage,
    StageGraph,
    TieredCache,
    build_offnet_graph,
)
from repro.core.tls_fingerprint import TLSFingerprint, learn_tls_fingerprint
from repro.core.validation import (
    CertificateValidator,
    ValidatedRecord,
    ValidationCacheStats,
)

__all__ = [
    "CertificateValidator",
    "ValidatedRecord",
    "ValidationCacheStats",
    "TLSFingerprint",
    "learn_tls_fingerprint",
    "find_candidates",
    "learn_header_fingerprints",
    "confirm_candidates",
    "EDGE_CDNS",
    "is_cloudflare_customer_cert",
    "NetflixEnvelope",
    "restore_netflix",
    "FootprintSnapshot",
    "SnapshotOutcome",
    "PipelineResult",
    "FootprintIndex",
    "IndexView",
    "DurableFootprintIndex",
    "OffnetPipeline",
    "PipelineOptions",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "Stage",
    "StageGraph",
    "build_offnet_graph",
    "MemoryCache",
    "DiskCache",
    "TieredCache",
    "NullCache",
]
