"""Tests for DNA sequence primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.genomics.sequence import (
    SequenceRecord,
    reverse_complement,
    sequence_to_codes,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=200)


class TestReverseComplement:
    def test_known(self):
        assert reverse_complement("AACG") == "CGTT"

    def test_handles_n(self):
        assert reverse_complement("ANT") == "ANT"

    def test_lowercase_folded(self):
        assert reverse_complement("acgt") == "ACGT"

    @given(seq=dna)
    def test_involution(self, seq):
        assert reverse_complement(reverse_complement(seq)) == seq

    @given(seq=dna)
    def test_preserves_length(self, seq):
        assert len(reverse_complement(seq)) == len(seq)


def is_valid(seq: str) -> bool:
    """Whether a record over ``seq`` passes the ingest validation."""
    try:
        SequenceRecord("x", seq)
    except ValueError:
        return False
    return True


class TestValidation:
    def test_valid(self):
        assert is_valid("ACGTN")
        assert is_valid("acgt")

    def test_invalid(self):
        assert not is_valid("ACGU")
        assert not is_valid("ACG T")
        assert not is_valid("ACGT\n")

    def test_empty_is_valid(self):
        assert is_valid("")

    @pytest.mark.parametrize(
        "seq", ["ACG\u00c5", "\u0391CGT", "AC\U0001f9ecGT", "ACGT\u0131"]
    )
    def test_non_ascii_rejected_not_raised(self, seq):
        with pytest.raises(ValueError, match="contains invalid bases"):
            SequenceRecord("x", seq)

    @given(seq=st.text(max_size=40))
    def test_equals_the_per_character_definition(self, seq):
        assert is_valid(seq) == all(ch in "ACGTN" for ch in seq.upper())


class TestCodes:
    def test_mapping(self):
        assert sequence_to_codes("ACGT").tolist() == [0, 1, 2, 3]

    def test_ambiguous_marked(self):
        assert sequence_to_codes("ANT").tolist() == [0, 255, 3]


class TestSequenceRecord:
    def test_uppercased(self):
        rec = SequenceRecord("x", "acgt")
        assert rec.sequence == "ACGT"
        assert len(rec) == 4

    def test_invalid_bases_rejected(self):
        with pytest.raises(ValueError, match="invalid bases"):
            SequenceRecord("x", "ACGU")

    def test_invalid_bases_named_after_folding(self):
        with pytest.raises(
            ValueError, match=r"^record 'x' contains invalid bases: \['U', 'X'\]$"
        ):
            SequenceRecord("x", "acgNxu")

    def test_codes_are_the_validating_lookup(self):
        rec = SequenceRecord("x", "acgNt")
        assert rec.sequence == "ACGNT"
        assert rec.codes.tolist() == [0, 1, 2, 255, 3]
        assert not rec.codes.flags.writeable
        assert rec == SequenceRecord("x", "ACGNT")
        assert "codes" not in repr(rec)

    def test_quality_length_checked(self):
        with pytest.raises(ValueError, match="quality"):
            SequenceRecord("x", "ACGT", quality="!!")
