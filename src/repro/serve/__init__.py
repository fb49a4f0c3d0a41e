"""The always-on footprint service: delta ingestion + a concurrent query API.

The batch CLI answers "what were the off-net footprints in this corpus?"
once and exits.  This package keeps answering: a
:class:`~repro.serve.daemon.ServeDaemon` watches a dataset directory,
folds **only new or changed snapshots** into a durable
:class:`~repro.core.footprint_index.DurableFootprintIndex` (delta
detection via per-snapshot content fingerprints — see
:meth:`~repro.datasets.FileDataset.snapshot_fingerprint`), and serves
the full :class:`~repro.core.footprint.FootprintIndex` query surface
over HTTP to any number of concurrent clients.

* :mod:`repro.serve.ingest` — :class:`DeltaIngestor`, the one-shot
  "reconcile the index with the directory" pass the daemon loops on.
* :mod:`repro.serve.daemon` — :class:`ServeDaemon`, a threaded stdlib
  HTTP server answering queries from immutable index views, with query
  latency/throughput histograms and ingest-lag gauges in a
  :class:`~repro.obs.metrics.MetricsRegistry`.
* :mod:`repro.serve.client` — the ``repro query`` client helpers.

Consistency model: queries read the immutable
:class:`~repro.core.footprint_index.IndexView` published by the last
commit, so an in-flight ingest never blocks or corrupts a reader; the
new view becomes visible atomically at commit.  Because the §6.2
restoration fold runs at commit over the whole ordered timeline, an
incrementally-grown index answers every query bit-identically to a
fresh batch run — the serve drill in ``tests/serve`` asserts exactly
that.
"""

from repro.serve.client import query_server, server_url
from repro.serve.daemon import ServeDaemon
from repro.serve.ingest import DeltaIngestor, IngestReport

__all__ = [
    "DeltaIngestor",
    "IngestReport",
    "ServeDaemon",
    "query_server",
    "server_url",
]
