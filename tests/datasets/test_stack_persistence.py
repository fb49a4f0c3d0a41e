"""TLS stack features through every persistence layer.

The stack triple (ALPN set, version floor, ordering class) must survive
the store's interning and the JSONL and ``.rcc`` codecs — and *degrade*,
never crash, when the corpus predates stacks or the stack blocks are
damaged: a stack problem books one ``corrupt_block`` (or a per-record
``schema_violation`` in JSONL) and every TLS row survives with the
unknown-stack sentinel.
"""

import json
import zlib

import pytest

from repro.datasets.columnar import _BLOCK_HEADER, _PREAMBLE, STACK_BLOCKS, VERSION, MAGIC
from repro.datasets.formats import read_corpus, write_corpus
from repro.robustness import CorpusParseError, IngestPolicy
from repro.scan.handshake import UNKNOWN_STACK, stack_features
from repro.scan.records import ScanSnapshot
from repro.store import SnapshotStore
from repro.timeline import Snapshot
from repro.x509 import CertificateAuthority, SubjectName, build_chain

SNAP = Snapshot(2019, 10)
EARLY = Snapshot(2012, 1)
LATE = Snapshot(2034, 1)

_AUTHORITY = CertificateAuthority.create_root("Stack Test Root", EARLY, LATE)

GFE = stack_features(("h2", "h3", "http/1.1"), "1.2", "gfe")
NGINX = stack_features(("h2", "http/1.1"), "1.2", "nginx")


def _chain(cn="www.example.com"):
    leaf = _AUTHORITY.issue(
        subject=SubjectName(common_name=cn, organization="Example Org"),
        dns_names=(cn,),
        not_before=EARLY,
        not_after=LATE,
    )
    return build_chain(leaf, _AUTHORITY)


def _snapshot(rows=((1, GFE), (2, NGINX), (3, None))):
    """An in-memory snapshot with a mix of known and unknown stacks."""
    snapshot = ScanSnapshot(scanner="test", snapshot=SNAP)
    chain = _chain()
    for ip, stack in rows:
        snapshot.store.add_tls(ip, chain, stack)
        snapshot.store.add_http(ip, 443, (("Server", "x"),))
    return snapshot


class TestStoreInterning:
    def test_slot_zero_is_the_unknown_sentinel(self):
        store = SnapshotStore()
        assert store.stack_table[0] == UNKNOWN_STACK
        assert store.intern_stack(UNKNOWN_STACK) == 0

    def test_stacks_intern_once(self):
        store = SnapshotStore()
        chain = _chain()
        store.add_tls(1, chain, GFE)
        store.add_tls(2, chain, GFE)
        store.add_tls(3, chain, NGINX)
        assert len(store.stack_table) == 3  # sentinel + 2 distinct
        assert store.tls_stack == [1, 1, 2]

    def test_stackless_rows_reference_the_sentinel(self):
        store = SnapshotStore()
        store.add_tls(1, _chain())
        assert store.tls_stack == [0]
        assert store.stack_for(1) == UNKNOWN_STACK

    def test_stack_for_unscanned_ip_is_unknown(self):
        assert SnapshotStore().stack_for(99) == UNKNOWN_STACK

    def test_stack_for_last_row_wins(self):
        store = SnapshotStore()
        chain = _chain()
        store.add_tls(1, chain, GFE)
        store.add_tls(1, chain, NGINX)
        assert store.stack_for(1) == NGINX

    def test_stack_for_cache_invalidated_on_ingest(self):
        store = SnapshotStore()
        chain = _chain()
        store.add_tls(1, chain, GFE)
        assert store.stack_for(1) == GFE
        store.add_tls(2, chain, NGINX)
        assert store.stack_for(2) == NGINX

    def test_extend_reinterns_stacks(self):
        left, right = SnapshotStore(), SnapshotStore()
        left.add_tls(1, _chain(), NGINX)
        right.add_tls(2, _chain(cn="b.example.com"), GFE)
        right.add_tls(3, _chain(cn="b.example.com"))
        left.extend(right)
        assert left.stack_for(2) == GFE
        assert left.stack_for(3) == UNKNOWN_STACK
        # Re-interned into *this* store's table, not index-copied.
        assert left.stack_table.index(GFE) == left.tls_stack[1]

    def test_reset_tls_keeps_the_sentinel(self):
        store = SnapshotStore()
        store.add_tls(1, _chain(), GFE)
        store.reset_tls()
        assert store.stack_table == [UNKNOWN_STACK]
        assert store.tls_stack == []
        assert store.intern_stack(GFE) == 1


class TestJsonlRoundTrip:
    def test_stacks_survive(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(_snapshot(), path, format_name="jsonl")
        loaded = read_corpus(path)
        assert loaded.stack_for(1) == GFE
        assert loaded.stack_for(2) == NGINX
        assert loaded.stack_for(3) == UNKNOWN_STACK

    def test_stackless_records_stay_valid(self, tmp_path):
        """A stack-less writer's records (no ``stack`` field) load with
        every row unknown — the pre-stack JSONL format is a subset."""
        path = tmp_path / "corpus.jsonl"
        write_corpus(_snapshot(rows=((1, None), (2, None))), path,
                     format_name="jsonl")
        assert '"stack"' not in path.read_text()
        loaded = read_corpus(path)
        assert loaded.store.tls_row_count == 2
        assert loaded.stack_for(1) == UNKNOWN_STACK

    @pytest.mark.parametrize(
        "bad", ['"h2"', '["h2", "1.2"]', '[1, 2, 3]', '{"alpn": "h2"}']
    )
    def test_malformed_stack_field_is_a_schema_violation(self, tmp_path, bad):
        path = tmp_path / "corpus.jsonl"
        write_corpus(_snapshot(), path, format_name="jsonl")
        lines = path.read_text().splitlines()
        out = []
        for line in lines:
            if '"type": "tls"' in line and '"stack"' in line:
                record = json.loads(line)
                line = line.replace(json.dumps(record["stack"]), bad, 1)
            out.append(line)
        path.write_text("\n".join(out) + "\n")
        with pytest.raises(CorpusParseError) as excinfo:
            read_corpus(path, IngestPolicy(mode="strict"))
        assert excinfo.value.error_class == "schema_violation"
        lenient = read_corpus(path, IngestPolicy(mode="lenient"))
        assert lenient.ingest.quarantined_by_class == {"schema_violation": 2}


class TestColumnarRoundTrip:
    def _rcc(self, tmp_path, snapshot=None):
        path = tmp_path / "corpus.rcc"
        write_corpus(snapshot or _snapshot(), path, format_name="columnar")
        return path

    def test_stacks_survive(self, tmp_path):
        loaded = read_corpus(self._rcc(tmp_path))
        assert loaded.stack_for(1) == GFE
        assert loaded.stack_for(2) == NGINX
        assert loaded.stack_for(3) == UNKNOWN_STACK

    def test_codecs_agree_bit_for_bit(self, tmp_path):
        jsonl = tmp_path / "corpus.jsonl"
        write_corpus(_snapshot(), jsonl, format_name="jsonl")
        a, b = read_corpus(jsonl), read_corpus(self._rcc(tmp_path))
        assert a.store.stack_table == b.store.stack_table
        assert a.store.tls_stack == b.store.tls_stack

    def _strip_blocks(self, path, names):
        """Rewrite the file without the named blocks (a pre-stack file)."""
        data = path.read_bytes()
        magic, version, count = _PREAMBLE.unpack_from(data, 0)
        offset = _PREAMBLE.size
        kept = []
        for _ in range(count):
            name, _, length, _ = _BLOCK_HEADER.unpack_from(data, offset)
            end = offset + _BLOCK_HEADER.size + length
            if name.rstrip(b"\x00").decode("ascii") not in names:
                kept.append(data[offset:end])
            offset = end
        path.write_bytes(
            _PREAMBLE.pack(MAGIC, VERSION, len(kept)) + b"".join(kept)
        )

    def test_pre_stack_file_loads_all_unknown_clean(self, tmp_path):
        path = self._rcc(tmp_path)
        self._strip_blocks(path, set(STACK_BLOCKS))
        loaded = read_corpus(path, IngestPolicy(mode="lenient"))
        assert loaded.ingest.quarantined_by_class == {}  # no accounting change
        assert loaded.store.tls_row_count == 3
        assert loaded.stack_for(1) == UNKNOWN_STACK

    def _flip(self, path, block_name):
        data = bytearray(path.read_bytes())
        _, _, count = _PREAMBLE.unpack_from(data, 0)
        offset = _PREAMBLE.size
        for _ in range(count):
            name, _, length, _ = _BLOCK_HEADER.unpack_from(data, offset)
            payload = offset + _BLOCK_HEADER.size
            if name.rstrip(b"\x00").decode("ascii") == block_name:
                data[payload] ^= 0xFF
                path.write_bytes(bytes(data))
                return
            offset = payload + length
        raise AssertionError(f"block {block_name} not found")

    @pytest.mark.parametrize("block", list(STACK_BLOCKS))
    def test_damaged_stack_block_degrades_not_drops(self, tmp_path, block):
        """Stack damage is one ``corrupt_block``; the TLS rows survive
        with every stack degraded to unknown."""
        path = self._rcc(tmp_path)
        self._flip(path, block)
        loaded = read_corpus(path, IngestPolicy(mode="lenient"))
        assert loaded.ingest.quarantined_by_class == {"corrupt_block": 1}
        assert loaded.store.tls_row_count == 3
        assert loaded.stack_for(1) == UNKNOWN_STACK

    def test_incoherent_stack_table_degrades(self, tmp_path):
        """A structurally valid JSON block with the wrong document shape
        (missing sentinel) degrades identically — CRC cannot catch it."""
        path = self._rcc(tmp_path)
        data = bytearray(path.read_bytes())
        _, _, count = _PREAMBLE.unpack_from(data, 0)
        offset = _PREAMBLE.size
        rebuilt = []
        for _ in range(count):
            name_raw, kind, length, _ = _BLOCK_HEADER.unpack_from(data, offset)
            payload = bytes(data[offset + _BLOCK_HEADER.size:
                                 offset + _BLOCK_HEADER.size + length])
            name = name_raw.rstrip(b"\x00").decode("ascii")
            if name == "stack_table":
                payload = json.dumps(
                    {"version": 1, "stacks": [["h2", "1.2", "gfe"]]}
                ).encode()
            rebuilt.append(
                _BLOCK_HEADER.pack(name_raw, kind, len(payload),
                                   zlib.crc32(payload)) + payload
            )
            offset += _BLOCK_HEADER.size + length
        path.write_bytes(_PREAMBLE.pack(MAGIC, VERSION, count) + b"".join(rebuilt))
        loaded = read_corpus(path, IngestPolicy(mode="lenient"))
        assert loaded.ingest.quarantined_by_class == {"corrupt_block": 1}
        assert loaded.store.tls_row_count == 3
        assert loaded.stack_for(1) == UNKNOWN_STACK

