"""DNA sequences: alphabet, complements, records.

A genome is a collection of sequences over the nucleotide alphabet
{A, C, G, T}, with ``N`` marking unknown bases (§II-B and Fig. 1).  All
sequence handling here is uppercase ASCII; lowercase input is folded on
ingestion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Canonical nucleotide ordering used by the 2-bit encoding.
ALPHABET = "ACGT"

#: Complement map over the extended alphabet.
COMPLEMENT = {"A": "T", "C": "G", "G": "C", "T": "A", "N": "N"}

_COMPLEMENT_TABLE = str.maketrans(COMPLEMENT)

#: Byte-level base -> 2-bit code lookup (255 marks invalid/ambiguous).
BASE_CODES = np.full(256, 255, dtype=np.uint8)
for _i, _b in enumerate(ALPHABET):
    BASE_CODES[ord(_b)] = _i
    BASE_CODES[ord(_b.lower())] = _i


#: Byte-level membership table of the extended alphabet, either case.
_VALID_BYTES = BASE_CODES != 255
_VALID_BYTES[list(b"Nn")] = True


def is_valid_sequence(seq: str) -> bool:
    """True when ``seq`` contains only A/C/G/T/N (case-insensitive)."""
    try:
        raw = seq.encode("ascii")
    except UnicodeEncodeError:
        return False
    return bool(_VALID_BYTES[np.frombuffer(raw, dtype=np.uint8)].all())


def reverse_complement(seq: str) -> str:
    """The reverse complement (e.g. ``AACG`` -> ``CGTT``)."""
    return seq.upper().translate(_COMPLEMENT_TABLE)[::-1]


def sequence_to_codes(seq: str) -> np.ndarray:
    """Map a sequence to 2-bit base codes (255 where ambiguous)."""
    raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    return BASE_CODES[raw]


@dataclass(frozen=True)
class SequenceRecord:
    """One named sequence (a FASTA entry / chromosome / read)."""

    name: str
    sequence: str
    quality: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequence", self.sequence.upper())
        if not is_valid_sequence(self.sequence):
            bad = sorted(set(self.sequence) - set("ACGTN"))
            raise ValueError(
                f"record {self.name!r} contains invalid bases: {bad}"
            )
        if self.quality is not None and len(self.quality) != len(self.sequence):
            raise ValueError(
                f"record {self.name!r}: quality length "
                f"{len(self.quality)} != sequence length {len(self.sequence)}"
            )

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def gc_content(self) -> float:
        """Fraction of G/C bases among unambiguous positions."""
        acgt = sum(self.sequence.count(b) for b in "ACGT")
        if acgt == 0:
            return 0.0
        gc = self.sequence.count("G") + self.sequence.count("C")
        return gc / acgt

    def reverse_complemented(self) -> "SequenceRecord":
        return SequenceRecord(
            name=self.name,
            sequence=reverse_complement(self.sequence),
            quality=self.quality[::-1] if self.quality else None,
        )
