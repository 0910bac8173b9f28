"""FASTA / FASTQ parsing and writing.

GenomeAtScale maintains compatibility with the standard bioinformatics
formats (§I, §V-A2: "All input data is provided in the FASTA format").
The FASTA reader is block-streaming: it reads fixed-size blocks of
text and splits them into records in bulk, so its memory is one block
plus the record being assembled, and a run of wrapped sequence lines
costs a few string operations, not one Python iteration per line.  It
is tolerant of multi-line sequences, blank lines, CRLF line ends and
gzip-compressed files (suffix ``.gz``).
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, Iterator

from repro.genomics.sequence import SequenceRecord

#: Characters :func:`iter_fasta` reads from a file at a time.
_BLOCK_CHARS = 1 << 16

#: The ASCII white space ``str.strip`` removes, line ends aside.
_ASCII_BLANKS = " \t\x0b\x0c\r\x1c\x1d\x1e\x1f"


def is_fasta(path: str | Path) -> bool:
    """Whether ``path`` ends in ``.fasta``, ``.fa`` or ``.fna``, with or
    without a further ``.gz``."""
    return _without_gz(path).suffix in (".fasta", ".fa", ".fna")


def sample_name(path: str | Path) -> str:
    """The sample a sequence file holds: its file name without ``.gz``
    and then without its last suffix (``x.fasta.gz`` and ``x.fa`` are
    both sample ``x``)."""
    return _without_gz(path).stem


def _without_gz(path: str | Path) -> Path:
    return Path(Path(path).name.removesuffix(".gz"))


def _open_text(path: str | Path) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt")
    return open(path, "r")


def _line_blocks(fh: IO[str]) -> Iterator[str]:
    """``fh``'s text in blocks that end at a line end (or at EOF).

    Text mode has already turned every ``\r\n`` and ``\r`` into
    ``\n``.  A line longer than a block is carried over whole.
    """
    carry: list[str] = []
    while block := fh.read(_BLOCK_CHARS):
        cut = block.rfind("\n") + 1
        if not cut:
            carry.append(block)
            continue
        yield "".join([*carry, block[:cut]])
        carry = [block[cut:]]
    tail = "".join(carry)
    if tail:
        yield tail


def _fasta_lines(fh: IO[str]) -> Iterator[str]:
    """The stripped, non-blank lines of a FASTA text, in bulk.

    Each block is split at its headers (``\n>``); a header line comes
    out on its own, and the sequence lines after it come out joined
    into one line when they are ASCII without white space.  Anything
    else — a line with surrounding white space, a header indented past
    column 0 — takes the line-by-line path, so the result is the same
    as stripping every line and dropping the blank ones.
    """
    for block in _line_blocks(fh):
        for i, piece in enumerate(block.split("\n>")):
            if i or piece.startswith(">"):
                head, _, body = piece.partition("\n")
                yield (">" + head if i else head).strip()
            else:
                body = piece
            seq = body.replace("\n", "")
            if not seq.isascii() or any(c in seq for c in _ASCII_BLANKS):
                yield from filter(None, (ln.strip() for ln in body.split("\n")))
            elif seq:
                yield seq


def iter_fasta(path: str | Path) -> Iterator[SequenceRecord]:
    """Stream records from a FASTA file, one block of text at a time."""
    name: str | None = None
    parts: list[str] = []
    with _open_text(path) as fh:
        for line in _fasta_lines(fh):
            if line.startswith(">"):
                if name is not None:
                    yield SequenceRecord(name=name, sequence="".join(parts))
                name = line[1:].split()[0] if len(line) > 1 else ""
                parts = []
            else:
                if name is None:
                    raise ValueError(
                        f"{path}: sequence data before the first '>' header"
                    )
                parts.append(line)
        if name is not None:
            yield SequenceRecord(name=name, sequence="".join(parts))


def read_fasta(path: str | Path) -> list[SequenceRecord]:
    """Read an entire FASTA file into memory."""
    records = list(iter_fasta(path))
    if not records:
        raise ValueError(f"{path}: no FASTA records found")
    return records


def write_fasta(
    path: str | Path, records: list[SequenceRecord], line_width: int = 70
) -> None:
    """Write records as FASTA with wrapped sequence lines."""
    if line_width <= 0:
        raise ValueError(f"line_width must be positive, got {line_width}")
    path = Path(path)
    opener = gzip.open(path, "wt") if path.suffix == ".gz" else open(path, "w")
    with opener as fh:
        for rec in records:
            fh.write(f">{rec.name}\n")
            seq = rec.sequence
            for i in range(0, len(seq), line_width):
                fh.write(seq[i : i + line_width] + "\n")


def iter_fastq(path: str | Path) -> Iterator[SequenceRecord]:
    """Stream records from a FASTQ file (4-line records)."""
    with _open_text(path) as fh:
        while True:
            header = fh.readline()
            if not header:
                return
            header = header.strip()
            if not header:
                continue
            if not header.startswith("@"):
                raise ValueError(f"{path}: expected '@' header, got {header!r}")
            seq = fh.readline().strip()
            plus = fh.readline().strip()
            qual = fh.readline().strip()
            if not plus.startswith("+"):
                raise ValueError(f"{path}: malformed FASTQ separator {plus!r}")
            yield SequenceRecord(
                name=header[1:].split()[0], sequence=seq, quality=qual
            )


def read_fastq(path: str | Path) -> list[SequenceRecord]:
    """Read an entire FASTQ file into memory."""
    records = list(iter_fastq(path))
    if not records:
        raise ValueError(f"{path}: no FASTQ records found")
    return records
