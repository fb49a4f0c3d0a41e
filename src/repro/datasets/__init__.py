"""File-backed datasets: run the pipeline from corpuses on disk.

The real study consumes archived files — sonar.ssl certificate dumps,
header corpuses, BGP-derived prefix→AS tables, the CAIDA organisations
dataset.  This package gives the reproduction the same workflow:

* :func:`export_dataset` writes a world's corpuses and support datasets to
  a directory (corpus files in any registered format, TSV prefix→AS
  tables, TSV organisations, JSONL trust anchors);
* :class:`FileDataset` loads such a directory and satisfies the
  :class:`DataSource` protocol :class:`~repro.core.pipeline.OffnetPipeline`
  consumes — the same protocol a live :class:`~repro.world.World`
  implements — so the *identical* pipeline code runs from files, which is
  exactly how it would run on real Rapid7/Censys data;
* :mod:`repro.datasets.formats` is the pluggable corpus-codec registry:
  :class:`CorpusFormat` implementations (the original JSONL and the
  packed binary columnar ``.rcc`` codec in
  :mod:`repro.datasets.columnar`) register by name, writers pick one via
  ``--format``, and :func:`read_corpus` autodetects on read by sniffing
  the file's leading bytes;
* :mod:`repro.datasets.sharding` plans disjoint snapshot shards for the
  parallel executor, balanced by per-file ingest costs probed without
  loading anything (:func:`probe_corpus_cost` — block headers only for
  ``.rcc``, file size for JSONL).
"""

from repro.datasets.export import export_dataset, export_snapshot
from repro.datasets.fileview import FileDataset
from repro.datasets.formats import (
    CorpusFormat,
    detect_format,
    format_names,
    get_format,
    probe_corpus_cost,
    read_corpus,
    register_format,
    registered_formats,
    write_corpus,
)
from repro.datasets.sharding import Shard, ShardPlan, plan_shards
from repro.datasets.source import DataSource

__all__ = [
    "CorpusFormat",
    "DataSource",
    "FileDataset",
    "Shard",
    "ShardPlan",
    "detect_format",
    "export_dataset",
    "export_snapshot",
    "format_names",
    "get_format",
    "plan_shards",
    "probe_corpus_cost",
    "read_corpus",
    "register_format",
    "registered_formats",
    "write_corpus",
]
