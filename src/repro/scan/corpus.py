"""JSONL persistence for scan snapshots, with fault-tolerant ingestion.

The real pipeline consumes multi-gigabyte sonar.ssl files; this module
round-trips our :class:`~repro.scan.records.ScanSnapshot` through the same
kind of newline-delimited JSON so the examples can demonstrate a
file-backed workflow (write once, analyse many times).

This module is the **JSONL codec** behind the
:class:`~repro.datasets.formats.CorpusFormat` registry and exports no
entry point of its own: corpora are read and written through
:func:`repro.datasets.formats.read_corpus` /
:func:`~repro.datasets.formats.write_corpus`, which autodetect the format
on disk (the packed binary columnar codec lives in
:mod:`repro.datasets.columnar`).

Both directions speak the columnar store natively: writing walks the
store's columns (each unique chain is serialized exactly once — the
on-disk format was deduplicated before the in-memory one was), and
reading rebuilds a store **incrementally, line by line**: chains intern
straight into the unique-chain table and rows land in the
``(ip, chain_index)`` / ``(ip, port, header_index)`` columns without a
single ``TLSRecord``/``HTTPRecord`` object being materialized.

Reading is governed by an :class:`~repro.robustness.IngestPolicy`.  Under
the default ``strict`` policy any malformed record raises
:class:`~repro.robustness.CorpusParseError` carrying the file path, the
1-based line number and the 0-based byte offset of the offending line.
Under ``lenient``/``repair`` bad records are routed to a
:class:`~repro.robustness.QuarantineSink` instead and the surviving
records still produce a usable snapshot, whose per-class accounting rides
along as ``ScanSnapshot.ingest``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.net.ipv4 import IPv4Address
from repro.robustness import CorpusParseError, IngestPolicy, QuarantineSink
from repro.scan.records import ScanSnapshot
from repro.timeline import Snapshot
from repro.x509.certificate import Certificate, SubjectName
from repro.x509.chain import CertificateChain

__all__: list[str] = []

_MAX_IPV4 = 2**32 - 1
_MAX_PORT = 65535
#: Default port ``repair`` mode substitutes for an ``http`` record that
#: lost its ``port`` field (plain HTTP, the dominant scheme in the
#: header-confirmation corpus).
_DEFAULT_HTTP_PORT = 80


def _cert_to_json(certificate: Certificate) -> dict:
    return {
        "fingerprint": certificate.fingerprint,
        "subject": {
            "cn": certificate.subject.common_name,
            "o": certificate.subject.organization,
            "c": certificate.subject.country,
        },
        "issuer": {
            "cn": certificate.issuer.common_name,
            "o": certificate.issuer.organization,
            "c": certificate.issuer.country,
        },
        "dns_names": list(certificate.dns_names),
        "not_before": certificate.not_before.label,
        "not_after": certificate.not_after.label,
        "is_ca": certificate.is_ca,
        "skid": certificate.subject_key_id,
        "akid": certificate.authority_key_id,
        "sig": certificate.signature,
        "serial": certificate.serial,
    }


def _parse_snapshot_label(
    label: str, memo: dict[str, Snapshot] | None
) -> Snapshot:
    """``Snapshot.parse`` with an optional per-reader memo.

    Validity labels repeat heavily within one corpus (certs issued in the
    same month share them), so the columnar reader passes a memo dict to
    parse each distinct label once per file."""
    if memo is None:
        return Snapshot.parse(label)
    parsed = memo.get(label)
    if parsed is None:
        parsed = memo[label] = Snapshot.parse(label)
    return parsed


def _cert_from_json(
    payload: dict, snapshot_memo: dict[str, Snapshot] | None = None
) -> Certificate:
    return Certificate(
        fingerprint=payload["fingerprint"],
        subject=SubjectName(
            common_name=payload["subject"]["cn"],
            organization=payload["subject"]["o"],
            country=payload["subject"]["c"],
        ),
        issuer=SubjectName(
            common_name=payload["issuer"]["cn"],
            organization=payload["issuer"]["o"],
            country=payload["issuer"]["c"],
        ),
        dns_names=tuple(payload["dns_names"]),
        not_before=_parse_snapshot_label(payload["not_before"], snapshot_memo),
        not_after=_parse_snapshot_label(payload["not_after"], snapshot_memo),
        is_ca=payload["is_ca"],
        subject_key_id=payload["skid"],
        authority_key_id=payload["akid"],
        signature=payload["sig"],
        serial=payload["serial"],
    )


def _save_jsonl(snapshot: ScanSnapshot, path: str | Path) -> None:
    """Write a scan snapshot as JSONL (one record per line).

    Certificates are deduplicated: each distinct chain is emitted once in a
    ``chain`` record and referenced by fingerprint afterwards, mirroring how
    sonar.ssl separates hosts from certs.
    """
    path = Path(path)
    store = snapshot.store
    emitted: set[int] = set()
    with path.open("w", encoding="utf-8") as handle:
        header = {
            "type": "meta",
            "scanner": snapshot.scanner,
            "snapshot": snapshot.snapshot.label,
        }
        handle.write(json.dumps(header) + "\n")
        for row, (ip, chain_index) in enumerate(store.iter_tls_rows()):
            chain = store.chains[chain_index]
            leaf_fp = chain.end_entity.fingerprint
            if chain_index not in emitted:
                emitted.add(chain_index)
                chain_payload = {
                    "type": "chain",
                    "id": leaf_fp,
                    "certs": [_cert_to_json(c) for c in chain.certificates],
                }
                handle.write(json.dumps(chain_payload) + "\n")
            record: dict = {"type": "tls", "ip": ip, "chain": leaf_fp}
            stack_index = store.tls_stack[row]
            if stack_index:
                # Stack features ride on the TLS record itself (an optional
                # field, not a new record type), so stack-less readers and
                # the seen/accepted accounting are untouched.
                record["stack"] = list(store.stack_table[stack_index])
            handle.write(json.dumps(record) + "\n")
        for row in range(store.http_row_count):
            payload = {
                "type": "http",
                "ip": store.http_ip[row],
                "port": store.http_port[row],
                "headers": list(map(list, store.header_table[store.http_header[row]])),
            }
            handle.write(json.dumps(payload) + "\n")


class _RecordError(Exception):
    """Internal: one record failed, with its error class.

    Converted by the reader loop into a positioned
    :class:`CorpusParseError` (strict) or a quarantine entry (lenient /
    repair) — the record handlers below never see file positions.
    """

    def __init__(self, error_class: str, message: str) -> None:
        super().__init__(message)
        self.error_class = error_class
        self.message = message


def _coerce_ip(payload: dict, kind: str, repairs: bool, repair_log: list) -> int:
    """The record's ``ip`` as an integer, repairing dotted quads if allowed."""
    ip = payload.get("ip")
    if isinstance(ip, str):
        if not repairs:
            raise _RecordError(
                "string_ip", f"{kind} record ip must be an integer, got string {ip!r}"
            )
        try:
            value = IPv4Address.parse(ip).value
        except (ValueError, TypeError):
            raise _RecordError(
                "string_ip", f"{kind} record ip string {ip!r} is not a dotted quad"
            ) from None
        repair_log.append(("string_ip", f"parsed {kind} ip string {ip!r} as {value}"))
        return value
    if isinstance(ip, bool) or not isinstance(ip, int):
        raise _RecordError(
            "schema_violation",
            f"{kind} record ip must be an integer, got {type(ip).__name__}",
        )
    if not 0 <= ip <= _MAX_IPV4:
        raise _RecordError(
            "out_of_range_ip", f"{kind} record ip {ip} is outside 0..{_MAX_IPV4}"
        )
    return ip


def _apply_meta(result: ScanSnapshot | None, payload: dict) -> ScanSnapshot:
    scanner = payload.get("scanner")
    label = payload.get("snapshot")
    if not isinstance(scanner, str) or not isinstance(label, str):
        raise _RecordError(
            "schema_violation", "meta record needs string 'scanner' and 'snapshot'"
        )
    try:
        parsed = Snapshot.parse(label)
    except (ValueError, TypeError):
        raise _RecordError(
            "schema_violation", f"meta snapshot {label!r} is not a YYYY-MM label"
        ) from None
    if result is not None:
        raise _RecordError("schema_violation", "duplicate meta header")
    return ScanSnapshot(scanner=scanner, snapshot=parsed)


def _apply_chain(
    result: ScanSnapshot, payload: dict, repairs: bool, repair_log: list
) -> None:
    certs_payload = payload.get("certs")
    if not isinstance(certs_payload, list) or not certs_payload:
        raise _RecordError(
            "undecodable_chain", "chain record needs a non-empty 'certs' list"
        )
    try:
        chain = CertificateChain(tuple(_cert_from_json(c) for c in certs_payload))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise _RecordError(
            "undecodable_chain", f"cannot decode certificate chain: {exc!r}"
        ) from None
    store = result.store
    fingerprint = chain.end_entity.fingerprint
    try:
        existing = store.chain_index_of(fingerprint)
    except KeyError:
        store.intern_chain(chain)
        return
    if store.chains[existing] != chain:
        if repairs:
            repair_log.append(
                ("conflicting_chain", f"kept first definition of chain {fingerprint}")
            )
            return
        raise _RecordError(
            "conflicting_chain",
            f"chain {fingerprint} re-defined with different content",
        )
    # Exact duplicate of an already-interned chain: harmless, accept it.


def _apply_tls(
    result: ScanSnapshot, payload: dict, repairs: bool, repair_log: list
) -> None:
    ip = _coerce_ip(payload, "tls", repairs, repair_log)
    reference = payload.get("chain")
    if not isinstance(reference, str):
        raise _RecordError(
            "schema_violation", "tls record needs a string 'chain' fingerprint"
        )
    try:
        chain_index = result.store.chain_index_of(reference)
    except KeyError:
        raise _RecordError(
            "unknown_chain_ref", f"tls row references unknown chain {reference!r}"
        ) from None
    stack_payload = payload.get("stack")
    stack_index = 0
    if stack_payload is not None:
        if (
            not isinstance(stack_payload, list)
            or len(stack_payload) != 3
            or not all(isinstance(part, str) for part in stack_payload)
        ):
            raise _RecordError(
                "schema_violation",
                "tls record 'stack' must be a list of three strings",
            )
        stack_index = result.store.intern_stack(tuple(stack_payload))
    result.store.add_tls_row(ip, chain_index, stack_index)


def _apply_http(
    result: ScanSnapshot, payload: dict, repairs: bool, repair_log: list
) -> None:
    ip = _coerce_ip(payload, "http", repairs, repair_log)
    if "port" not in payload:
        if not repairs:
            raise _RecordError("missing_port", "http record has no 'port' field")
        port = _DEFAULT_HTTP_PORT
        repair_log.append(
            ("missing_port", f"defaulted missing port to {_DEFAULT_HTTP_PORT}")
        )
    else:
        port = payload["port"]
        if isinstance(port, bool) or not isinstance(port, int):
            raise _RecordError(
                "schema_violation",
                f"http record port must be an integer, got {type(port).__name__}",
            )
        if not 0 < port <= _MAX_PORT:
            raise _RecordError(
                "schema_violation", f"http record port {port} is outside 1..{_MAX_PORT}"
            )
    headers_payload = payload.get("headers")
    if not isinstance(headers_payload, list):
        raise _RecordError(
            "schema_violation", "http record needs a 'headers' list of [name, value]"
        )
    headers: list[tuple[str, str]] = []
    for pair in headers_payload:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(part, str) for part in pair)
        ):
            raise _RecordError(
                "schema_violation", f"http header entry {pair!r} is not a [name, value]"
            )
        headers.append((pair[0], pair[1]))
    result.store.add_http(ip, port, tuple(headers))


def _apply_record(
    result: ScanSnapshot | None, payload: object, repairs: bool, repair_log: list
) -> ScanSnapshot:
    """Route one decoded line into the store; raise :class:`_RecordError`
    (never a bare exception) when it cannot be ingested."""
    if not isinstance(payload, dict):
        raise _RecordError(
            "schema_violation",
            f"record must be a JSON object, got {type(payload).__name__}",
        )
    kind = payload.get("type")
    if not isinstance(kind, str):
        raise _RecordError("schema_violation", "record has no string 'type' field")
    if kind == "meta":
        return _apply_meta(result, payload)
    if result is None:
        raise _RecordError("missing_meta", f"{kind} record before meta header")
    if kind == "chain":
        _apply_chain(result, payload, repairs, repair_log)
    elif kind == "tls":
        _apply_tls(result, payload, repairs, repair_log)
    elif kind == "http":
        _apply_http(result, payload, repairs, repair_log)
    else:
        raise _RecordError("unknown_record_type", f"unknown record type {kind!r}")
    return result


def _stream_jsonl(
    path: str | Path,
    policy: IngestPolicy | None = None,
    quarantine_path: str | Path | None = None,
) -> ScanSnapshot:
    """Read a JSONL snapshot, building its columnar store incrementally:
    one JSON line in, one intern or one column append out.  Peak memory
    is the deduplicated store, never a row-object list — the shape that
    scales to sonar.ssl-sized files.

    ``policy`` selects the error behaviour (default: strict).  Under
    ``strict`` the first bad record raises :class:`CorpusParseError`
    with the file path, 1-based line number and 0-based byte offset of
    the offending line; under ``lenient``/``repair`` bad records are
    quarantined (optionally written as JSONL to ``quarantine_path``) and
    the returned snapshot carries an
    :class:`~repro.robustness.IngestReport` as ``.ingest``.

    A corpus with no usable ``meta`` header raises under every policy —
    without the header there is no snapshot to attach surviving records
    to.
    """
    path = Path(path)
    policy = policy or IngestPolicy()
    sink = QuarantineSink(source=str(path))
    repairs = policy.repairs
    result: ScanSnapshot | None = None
    offset = 0
    line_number = 0
    with path.open("rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line_offset = offset
            offset += len(raw)
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                text = raw.decode("utf-8", errors="replace")
                error = _RecordError("malformed_json", f"line is not UTF-8: {exc}")
            else:
                if not text.strip():
                    continue  # blank separator lines are not records
                error = None
            if error is None:
                sink.saw()
                repair_log: list[tuple[str, str]] = []
                try:
                    payload = json.loads(text)
                except json.JSONDecodeError as exc:
                    error = _RecordError("malformed_json", f"invalid JSON: {exc}")
                else:
                    try:
                        result = _apply_record(result, payload, repairs, repair_log)
                    except _RecordError as exc:
                        # Keep a fresh copy, not ``exc``: the raised error's
                        # traceback holds this frame, so binding it here
                        # would make a cycle that outlives the loop.
                        error = _RecordError(exc.error_class, exc.message)
            else:
                sink.saw()
                repair_log = []
            if error is not None:
                if policy.strict or error.error_class == "missing_meta":
                    raise CorpusParseError(
                        error.message,
                        path=path,
                        line_number=line_number,
                        byte_offset=line_offset,
                        error_class=error.error_class,
                    )
                sink.quarantine(
                    line_number,
                    line_offset,
                    error.error_class,
                    error.message,
                    text.rstrip("\n"),
                )
                continue
            sink.accepted()
            for error_class, message in repair_log:
                sink.repaired(
                    line_number, line_offset, error_class, message, text.rstrip("\n")
                )
    if result is None:
        raise CorpusParseError(
            "corpus has no usable meta header"
            if line_number
            else f"empty corpus file: {path}",
            path=path,
            line_number=line_number,
            byte_offset=0,
            error_class="missing_meta",
        )
    result.ingest = sink.report
    if quarantine_path is not None and not policy.strict:
        sink.write(quarantine_path)
    return result

