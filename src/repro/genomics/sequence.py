"""DNA sequences: alphabet, complements, records.

A genome is a collection of sequences over the nucleotide alphabet
{A, C, G, T}, with ``N`` marking unknown bases (§II-B and Fig. 1).  All
sequence handling here is uppercase ASCII; lowercase input is folded on
ingestion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

#: :data:`BASE_CODES` as a ``bytes.translate`` table: one C pass over a
#: record, about three times faster than a NumPy table lookup.
_CODE_TABLE = BASE_CODES.tobytes()


def reverse_complement(seq: str) -> str:
    """The reverse complement (e.g. ``AACG`` -> ``CGTT``)."""
    return seq.upper().translate(_COMPLEMENT_TABLE)[::-1]


def sequence_to_codes(seq: str) -> np.ndarray:
    """Map a sequence to 2-bit base codes (255 where ambiguous), as a
    read-only array."""
    return np.frombuffer(seq.encode("ascii").translate(_CODE_TABLE), np.uint8)


def _checked_codes(seq: str) -> np.ndarray | None:
    """``seq``'s :data:`BASE_CODES`, or ``None`` when it holds anything
    but A/C/G/T/N (either case): one lookup both encodes and validates,
    as only the ``N`` bytes may map to 255."""
    try:
        codes = sequence_to_codes(seq)
    except UnicodeEncodeError:
        return None
    if codes.max(initial=0) == 255:
        unknown = np.frombuffer(seq.encode("ascii"), np.uint8)[codes == 255]
        if not ((unknown == ord("N")) | (unknown == ord("n"))).all():
            return None
    return codes


@dataclass(frozen=True)
class SequenceRecord:
    """One named sequence (a FASTA entry / chromosome / read).

    ``codes`` is the sequence's :data:`BASE_CODES`, taken by the lookup
    that validated it, so the k-mer encoders never encode it again.
    """

    name: str
    sequence: str
    quality: str | None = None
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequence", self.sequence.upper())
        codes = _checked_codes(self.sequence)
        object.__setattr__(self, "codes", codes)
        if codes is None:
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
