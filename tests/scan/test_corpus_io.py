"""Round-trip tests for JSONL corpus persistence."""

import gc

import pytest

from repro.datasets.formats import read_corpus, write_corpus
from repro.robustness import CorpusParseError, IngestPolicy
from repro.timeline import Snapshot

END = Snapshot(2021, 4)


class TestCorpusRoundTrip:
    def test_save_and_load(self, small_world, tmp_path):
        original = small_world.scan("rapid7", Snapshot(2014, 4))
        path = tmp_path / "corpus.jsonl"
        write_corpus(original, path)
        loaded = read_corpus(path)
        assert loaded.scanner == original.scanner
        assert loaded.snapshot == original.snapshot
        assert len(loaded.tls_records) == len(original.tls_records)
        assert len(loaded.http_records) == len(original.http_records)

    def test_certificates_survive_round_trip(self, small_world, tmp_path):
        original = small_world.scan("rapid7", Snapshot(2014, 4))
        path = tmp_path / "corpus.jsonl"
        write_corpus(original, path)
        loaded = read_corpus(path)
        for before, after in zip(original.tls_records, loaded.tls_records):
            assert before.ip == after.ip
            assert before.chain.end_entity == after.chain.end_entity
            assert len(before.chain) == len(after.chain)

    def test_chains_are_deduplicated_on_disk(self, small_world, tmp_path):
        original = small_world.scan("rapid7", Snapshot(2014, 4))
        path = tmp_path / "corpus.jsonl"
        write_corpus(original, path)
        chain_lines = sum(1 for line in path.open() if '"type": "chain"' in line)
        assert chain_lines == original.unique_certificates()

    def test_loaded_chains_still_verify(self, small_world, tmp_path):
        from repro.x509 import verify_chain

        snapshot = Snapshot(2014, 4)
        original = small_world.scan("rapid7", snapshot)
        path = tmp_path / "corpus.jsonl"
        write_corpus(original, path)
        loaded = read_corpus(path)
        verified = sum(
            1
            for record in loaded.tls_records[:200]
            if verify_chain(record.chain, small_world.root_store, snapshot)
        )
        assert verified > 0


class TestParseErrorPositions:
    """Regression: any parse error must name the exact line *and* byte
    offset of the offending record, so a multi-gigabyte corpus can be
    inspected with ``dd``/``tail -c`` instead of re-reading from the top."""

    def _broken_corpus(self, small_world, tmp_path):
        original = small_world.scan("rapid7", Snapshot(2014, 4))
        path = tmp_path / "corpus.jsonl"
        write_corpus(original, path)
        return path

    def test_error_carries_line_and_byte_offset(self, small_world, tmp_path):
        path = self._broken_corpus(small_world, tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        bad_index = len(lines) // 2
        lines[bad_index] = b'{"type": "tls", "ip": "not-json\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(CorpusParseError) as excinfo:
            read_corpus(path)
        error = excinfo.value
        assert error.line_number == bad_index + 1
        assert error.byte_offset == sum(len(l) for l in lines[:bad_index])
        assert error.error_class == "malformed_json"
        # The rendered message carries all three coordinates.
        assert f":{error.line_number} " in str(error)
        assert f"byte offset {error.byte_offset}" in str(error)
        assert str(path) in str(error)

    def test_offset_correct_after_multibyte_lines(self, small_world, tmp_path):
        """Byte offsets count bytes, not characters: records containing
        multi-byte UTF-8 upstream of the fault must not skew the offset."""
        path = self._broken_corpus(small_world, tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        multibyte = (
            '{"type": "http", "ip": 16909060, "port": 80, '
            '"headers": [["Server", "nginx — Zürich ⇒ Köln"]]}\n'
        ).encode()
        bad = b"this is not json\n"
        lines[1:1] = [multibyte, bad]
        path.write_bytes(b"".join(lines))
        with pytest.raises(CorpusParseError) as excinfo:
            read_corpus(path)
        error = excinfo.value
        assert error.line_number == 3
        assert error.byte_offset == len(lines[0]) + len(multibyte)

    def test_non_utf8_line_is_positioned_too(self, small_world, tmp_path):
        path = self._broken_corpus(small_world, tmp_path)
        with path.open("ab") as handle:
            handle.write(b"\xff\xfe garbage bytes\n")
        size_before = path.stat().st_size - len(b"\xff\xfe garbage bytes\n")
        line_count = len(path.read_bytes().splitlines())
        with pytest.raises(CorpusParseError) as excinfo:
            read_corpus(path)
        assert excinfo.value.line_number == line_count
        assert excinfo.value.byte_offset == size_before
        assert excinfo.value.error_class == "malformed_json"


class TestRejectedRecordsLeaveNoCycles:
    """A rejected record must not pin the reader's frame: the loop keeps
    only the error's class and message, never the raised exception, whose
    traceback would hold the frame (and through it the caller's stack)."""

    def _corpus_ending_in_a_rejected_record(self, small_world, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(small_world.scan("rapid7", Snapshot(2014, 4)), path)
        with path.open("a") as handle:
            handle.write('{"type": "bogus"}\n')
        read_corpus(path, IngestPolicy(mode="lenient"))  # warm every import
        return path

    def _cyclic_garbage(self, read) -> int:
        gc.collect()
        gc.disable()
        try:
            read()
            return gc.collect()
        finally:
            gc.enable()

    def test_lenient_read(self, small_world, tmp_path):
        path = self._corpus_ending_in_a_rejected_record(small_world, tmp_path)
        assert self._cyclic_garbage(
            lambda: read_corpus(path, IngestPolicy(mode="lenient"))
        ) == 0

    def test_strict_refusal(self, small_world, tmp_path):
        path = self._corpus_ending_in_a_rejected_record(small_world, tmp_path)

        def refuse():
            try:
                read_corpus(path)
            except CorpusParseError as error:
                assert error.error_class == "unknown_record_type"
            else:
                raise AssertionError("strict read accepted a bogus record")

        assert self._cyclic_garbage(refuse) == 0
