"""Error policies and the positioned parse error for corpus ingestion.

Every malformed record a corpus reader meets is classified into one of
:data:`ERROR_CLASSES` — the taxonomy the quarantine files, the run
report's ``ingest`` section and the fault-injection harness
(``tools/inject_faults.py``) all share, so an injected fault of class X
is accounted for as exactly one error of class X.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ERROR_CLASSES",
    "REPAIRABLE_CLASSES",
    "CorpusParseError",
    "IngestPolicy",
]

#: The closed error taxonomy, in rough order of how early each is caught:
#:
#: ``malformed_json``      the line is not a JSON document (truncated,
#:                         garbled, binary junk);
#: ``unknown_record_type`` the ``type`` field names no known record kind;
#: ``schema_violation``    a required field is missing or has the wrong
#:                         type (and no repair applies);
#: ``string_ip``           the ``ip`` field is a dotted-quad string where
#:                         an integer is required (repairable: parse it);
#: ``missing_port``        an ``http`` record without a ``port`` field
#:                         (repairable: default to port 80);
#: ``out_of_range_ip``     the ``ip`` integer is outside 0..2^32-1;
#: ``undecodable_chain``   a ``chain`` record whose certificates cannot
#:                         be decoded (missing/typed-wrong cert fields);
#: ``conflicting_chain``   a ``chain`` record re-defines an already
#:                         interned end-entity fingerprint with different
#:                         content (repairable: keep the first);
#: ``unknown_chain_ref``   a ``tls`` row references a fingerprint no
#:                         surviving ``chain`` record defined — including
#:                         the cascade from a quarantined chain;
#: ``missing_meta``        a record arrived before the ``meta`` header
#:                         (or the header itself is unusable);
#: ``corrupt_block``       a columnar-corpus block is structurally damaged
#:                         (truncated payload, checksum mismatch) — one
#:                         quarantine entry per damaged block, with the
#:                         dependent row section dropped as part of the
#:                         same event;
#: ``dangling_intern_ref`` a columnar row or chain column holds an intern
#:                         index outside its side table (the binary
#:                         analogue of ``unknown_chain_ref``).
ERROR_CLASSES = (
    "malformed_json",
    "unknown_record_type",
    "schema_violation",
    "string_ip",
    "missing_port",
    "out_of_range_ip",
    "undecodable_chain",
    "conflicting_chain",
    "unknown_chain_ref",
    "missing_meta",
    "corrupt_block",
    "dangling_intern_ref",
)

#: The classes ``repair`` mode can fix mechanically (everything else is
#: quarantined exactly as under ``lenient``).  A repair is deterministic
#: — parse the dotted quad, default the port, keep the first chain — so
#: two repair runs of the same corpus are bit-identical.
REPAIRABLE_CLASSES = frozenset({"string_ip", "missing_port", "conflicting_chain"})

#: The valid ``on_error`` settings.
_MODES = ("strict", "lenient", "repair")


class CorpusParseError(ValueError):
    """A corpus record failed to ingest, with its exact position.

    Raised by the corpus readers (:mod:`repro.datasets.formats`) under
    the ``strict`` policy (and for unrecoverable structural damage — a
    missing ``meta`` header, a broken columnar preamble — under every
    policy).  Carries everything an operator needs to find the offending
    bytes: the file path, the 1-based line number (for binary columnar
    corpora: the 1-based block ordinal), the 0-based byte offset, and
    the error class from :data:`ERROR_CLASSES`.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | Path = "<unknown>",
        line_number: int = 0,
        byte_offset: int = 0,
        error_class: str = "schema_violation",
    ) -> None:
        self.reason = message
        self.path = str(path)
        self.line_number = line_number
        self.byte_offset = byte_offset
        self.error_class = error_class
        super().__init__(
            f"{self.path}:{line_number} (byte offset {byte_offset}) "
            f"[{error_class}]: {message}"
        )

    def __reduce__(self):
        # Rebuild from the parts: the default reduction re-runs __init__
        # on the formatted message, so an error a forked worker sends
        # home would read with its position prefixed twice.
        return (
            functools.partial(
                type(self),
                path=self.path,
                line_number=self.line_number,
                byte_offset=self.byte_offset,
                error_class=self.error_class,
            ),
            (self.reason,),
        )


@dataclass(frozen=True, slots=True)
class IngestPolicy:
    """How corpus ingestion reacts to a record that fails to parse.

    ``mode`` is one of:

    * ``"strict"`` (the default, and the pre-robustness behaviour) —
      raise :class:`CorpusParseError` at the first bad record;
    * ``"lenient"`` — quarantine the record (and everything that only
      made sense because of it, e.g. rows referencing a quarantined
      chain) and keep reading;
    * ``"repair"`` — apply the deterministic fixes in
      :data:`REPAIRABLE_CLASSES` first, quarantine what remains.

    ``quarantine_dir`` names where quarantine JSONL files land (one per
    corpus snapshot); ``None`` keeps the quarantine log in memory only —
    the counts still reach the run report either way.
    """

    mode: str = "strict"
    quarantine_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"IngestPolicy.mode must be one of {', '.join(_MODES)}; "
                f"got {self.mode!r}"
            )

    @property
    def strict(self) -> bool:
        """Whether the first error aborts the read."""
        return self.mode == "strict"

    @property
    def repairs(self) -> bool:
        """Whether repairable classes are fixed instead of quarantined."""
        return self.mode == "repair"
