"""Tests for FASTA/FASTQ I/O."""

import gzip

import pytest

from repro.genomics import fasta
from repro.genomics.fasta import iter_fasta, read_fasta, read_fastq, write_fasta
from repro.genomics.sequence import SequenceRecord


def _records_line_by_line(path):
    """A one-line-at-a-time parser, the reference for the block reader."""
    name, parts, out = None, [], []
    opener = gzip.open(path, "rt") if str(path).endswith(".gz") else open(path)
    with opener as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    out.append((name, "".join(parts)))
                name = line[1:].split()[0] if len(line) > 1 else ""
                parts = []
            else:
                assert name is not None, "sequence data before the first '>'"
                parts.append(line)
    if name is not None:
        out.append((name, "".join(parts)))
    return out


class TestBlockReader:
    """``iter_fasta`` reads blocks of text; records must not notice."""

    TEXTS = {
        "wrapped": ">chr1 first\nACGTACGTAC\nGGTTA\n>chr2\nTTTT\nCC\n",
        "crlf_and_blanks": ">a x\r\nACGT\r\n\r\nAC\r\n\r\n>b\r\nGG\r\n",
        "old_mac_line_ends": ">a\rACGT\rTT\r>b\rC\r",
        "no_final_newline": ">a\nACGT\nAC",
        "header_last": ">a\nACGT\n>empty",
        "white_space": ">a\n  ACGT \n\tGG\t\n >b desc\n NNA \n",
        "lowercase": ">a\nacgtn\nACGTN\n",
        "bare_header": ">\nACGT\n>  \nTT\n",
    }

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 7, 16, 1 << 20])
    @pytest.mark.parametrize("text", sorted(TEXTS))
    def test_every_block_size_equals_the_line_parser(
        self, tmp_path, monkeypatch, text, block
    ):
        path = tmp_path / "x.fasta"
        path.write_bytes(self.TEXTS[text].encode())
        monkeypatch.setattr(fasta, "_BLOCK_CHARS", block)
        got = [(r.name, r.sequence) for r in iter_fasta(path)]
        want = [(n, s.upper()) for n, s in _records_line_by_line(path)]
        assert got == want

    def test_record_spanning_block_boundaries(self, tmp_path, monkeypatch):
        seq = "ACGTTGCA" * 40
        path = tmp_path / "x.fasta"
        write_fasta(
            path, [SequenceRecord("long", seq), SequenceRecord("s", "GA")],
            line_width=13,
        )
        monkeypatch.setattr(fasta, "_BLOCK_CHARS", 50)
        assert [(r.name, r.sequence) for r in iter_fasta(path)] == [
            ("long", seq), ("s", "GA"),
        ]

    def test_header_at_block_boundary(self, tmp_path, monkeypatch):
        path = tmp_path / "x.fasta"
        text = ">a\nACGT\n>b\nGG\n"
        path.write_text(text)
        # The first block ends right after "ACGT\n", so ">b" opens the next.
        monkeypatch.setattr(fasta, "_BLOCK_CHARS", text.index(">b"))
        assert [(r.name, r.sequence) for r in iter_fasta(path)] == [
            ("a", "ACGT"), ("b", "GG"),
        ]

    def test_line_longer_than_a_block(self, tmp_path, monkeypatch):
        path = tmp_path / "x.fasta"
        path.write_text(">a\n" + "C" * 100 + "\n>b\nT\n")
        monkeypatch.setattr(fasta, "_BLOCK_CHARS", 8)
        assert [(r.name, r.sequence) for r in iter_fasta(path)] == [
            ("a", "C" * 100), ("b", "T"),
        ]

    def test_gzip_over_blocks(self, tmp_path, monkeypatch):
        path = tmp_path / "x.fasta.gz"
        records = [SequenceRecord(f"r{i}", "ACGT" * (i + 3)) for i in range(5)]
        write_fasta(path, records, line_width=7)
        monkeypatch.setattr(fasta, "_BLOCK_CHARS", 9)
        assert [(r.name, r.sequence) for r in iter_fasta(path)] == [
            (r.name, r.sequence) for r in records
        ]

    @pytest.mark.parametrize("block", [1, 3, 1 << 20])
    def test_data_before_header_across_blocks(self, tmp_path, monkeypatch, block):
        path = tmp_path / "bad.fasta"
        path.write_text("\n\n  \nAC\nGT\n>late\nACGT\n")
        monkeypatch.setattr(fasta, "_BLOCK_CHARS", block)
        with pytest.raises(ValueError, match="before the first '>' header"):
            list(iter_fasta(path))

    def test_reads_the_file_a_block_at_a_time(self, tmp_path, monkeypatch):
        path = tmp_path / "x.fasta"
        write_fasta(
            path, [SequenceRecord(f"r{i}", "ACGT" * 50) for i in range(40)]
        )
        real_open, read = fasta._open_text, []

        class Counting:
            def __init__(self, p):
                self.fh = real_open(p)

            def read(self, n):
                text = self.fh.read(n)
                read.append((n, len(text)))
                return text

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(fasta, "_open_text", Counting)
        monkeypatch.setattr(fasta, "_BLOCK_CHARS", 64)
        records = iter_fasta(path)
        assert next(records).name == "r0"
        # A record of ~210 characters: a handful of 64-character blocks.
        assert sum(got for _, got in read) <= 5 * 64
        assert {n for n, _ in read} == {64}
        assert len(list(records)) == 39


class TestFasta:
    def test_roundtrip(self, tmp_path):
        records = [
            SequenceRecord("chr1", "ACGT" * 50),
            SequenceRecord("chr2", "TTTT"),
        ]
        path = tmp_path / "genome.fasta"
        write_fasta(path, records)
        loaded = read_fasta(path)
        assert [r.name for r in loaded] == ["chr1", "chr2"]
        assert [r.sequence for r in loaded] == [r.sequence for r in records]

    def test_multiline_sequences(self, tmp_path):
        path = tmp_path / "x.fasta"
        path.write_text(">seq desc here\nACGT\nACGT\n\n>s2\nTT\n")
        loaded = read_fasta(path)
        assert loaded[0].name == "seq"
        assert loaded[0].sequence == "ACGTACGT"
        assert loaded[1].sequence == "TT"

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "x.fasta.gz"
        write_fasta(path, [SequenceRecord("a", "ACGT")])
        with gzip.open(path, "rt") as fh:
            assert fh.readline().startswith(">a")
        assert read_fasta(path)[0].sequence == "ACGT"

    def test_data_before_header_rejected(self, tmp_path):
        path = tmp_path / "bad.fasta"
        path.write_text("ACGT\n>late\nACGT\n")
        with pytest.raises(ValueError, match="before the first"):
            read_fasta(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.fasta"
        path.write_text("")
        with pytest.raises(ValueError, match="no FASTA records"):
            read_fasta(path)

    def test_line_width_wrapping(self, tmp_path):
        path = tmp_path / "w.fasta"
        write_fasta(path, [SequenceRecord("a", "A" * 25)], line_width=10)
        lines = path.read_text().strip().split("\n")
        assert lines[1:] == ["A" * 10, "A" * 10, "A" * 5]

    def test_invalid_line_width(self, tmp_path):
        with pytest.raises(ValueError, match="line_width"):
            write_fasta(tmp_path / "x.fasta", [], line_width=0)


class TestFastq:
    def test_read(self, tmp_path):
        path = tmp_path / "r.fastq"
        path.write_text("@r1 extra\nACGT\n+\nIIII\n@r2\nTT\n+\nII\n")
        recs = read_fastq(path)
        assert recs[0].name == "r1"
        assert recs[0].quality == "IIII"
        assert recs[1].sequence == "TT"

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.fastq"
        path.write_text("r1\nACGT\n+\nIIII\n")
        with pytest.raises(ValueError, match="expected '@'"):
            read_fastq(path)

    def test_malformed_separator(self, tmp_path):
        path = tmp_path / "bad.fastq"
        path.write_text("@r1\nACGT\nIIII\nIIII\n")
        with pytest.raises(ValueError, match="separator"):
            read_fastq(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.fastq"
        path.write_text("")
        with pytest.raises(ValueError, match="no FASTQ records"):
            read_fastq(path)
