"""Tests for k-mer encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.kmer import (
    MAX_K,
    canonical_kmers,
    decode_kmer,
    encode_kmers,
    kmer_set,
    kmer_space_size,
    reverse_complement_codes,
)
from repro.genomics.sequence import reverse_complement, sequence_to_codes

dna = st.text(alphabet="ACGT", min_size=0, max_size=80)
odd_k = st.sampled_from([3, 5, 7, 11, 19, 31])


def _encode_by_window_matmul(seq: str, k: int) -> np.ndarray:
    """The ``(n, k)`` window-matrix encode the rolling shift-or replaced."""
    codes = sequence_to_codes(seq)
    if codes.size < k:
        return np.empty(0, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(codes, k)
    valid = (windows != 255).all(axis=1)
    weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return windows[valid].astype(np.int64) @ weights


def _reverse_complement_by_digits(kmers: np.ndarray, k: int) -> np.ndarray:
    """The ``k``-iteration digit loop the word-level reversal replaced."""
    rem = np.asarray(kmers, dtype=np.int64).copy()
    out = np.zeros_like(rem)
    for _ in range(k):
        out = out * 4 + (3 - rem % 4)
        rem //= 4
    return out


class TestEncode:
    def test_paper_example_counts(self):
        # §II-B: AATGTC has four 3-mers and three 4-mers.
        assert encode_kmers("AATGTC", 3).size == 4
        assert encode_kmers("AATGTC", 4).size == 3

    def test_known_values(self):
        # A=0, C=1, G=2, T=3; "ACG" = 0*16 + 1*4 + 2.
        assert encode_kmers("ACG", 3).tolist() == [6]

    def test_order_preserved(self):
        vals = encode_kmers("AAC", 2)
        assert vals.tolist() == [0, 1]  # AA=0, AC=1

    def test_n_windows_skipped(self):
        assert encode_kmers("ACNGT", 2).tolist() == [
            encode_kmers("AC", 2)[0],
            encode_kmers("GT", 2)[0],
        ]

    def test_too_short(self):
        assert encode_kmers("AC", 3).size == 0

    def test_k_bounds(self):
        with pytest.raises(ValueError, match="k must be"):
            encode_kmers("ACGT", 0)
        with pytest.raises(ValueError, match="k must be"):
            encode_kmers("ACGT", MAX_K + 1)

    @settings(max_examples=50)
    @given(seq=dna, k=st.integers(1, 8))
    def test_window_count(self, seq, k):
        expect = max(0, len(seq) - k + 1)
        assert encode_kmers(seq, k).size == expect

    @settings(max_examples=50)
    @given(seq=dna, k=st.integers(1, 8))
    def test_decode_roundtrip(self, seq, k):
        for i, code in enumerate(encode_kmers(seq, k)):
            assert decode_kmer(int(code), k) == seq[i : i + k]


    @settings(max_examples=150)
    @given(
        seq=st.text(alphabet="ACGTNacgtn", min_size=0, max_size=90),
        k=st.integers(1, MAX_K),
    )
    def test_rolling_encode_equals_window_matmul(self, seq, k):
        got = encode_kmers(seq, k)
        assert got.dtype == np.int64
        assert np.array_equal(got, _encode_by_window_matmul(seq, k))

    @pytest.mark.parametrize(
        "seq",
        [
            "ACGTNNNNACGTACGTNACG",  # N runs, also at a window's edge
            "NACGTACGTN",            # N at both ends
            "acgtnacgtACGT",         # lowercase folds onto the same codes
            "NNNNNNNN",              # nothing valid
            "ACG",                   # shorter than / equal to k below
        ],
    )
    def test_rolling_encode_on_the_awkward_sequences(self, seq):
        for k in (1, 2, 3, 4, 7):
            assert np.array_equal(
                encode_kmers(seq, k), _encode_by_window_matmul(seq, k)
            )
        assert encode_kmers("ACG", 3).tolist() == [6]  # length == k
        assert encode_kmers("ACG", 4).size == 0        # length < k

    def test_max_k_uses_the_full_62_bits(self):
        assert encode_kmers("T" * MAX_K, MAX_K).tolist() == [4**MAX_K - 1]


class TestDecode:
    def test_known(self):
        assert decode_kmer(6, 3) == "ACG"

    def test_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            decode_kmer(64, 3)


class TestReverseComplementCodes:
    @settings(max_examples=50)
    @given(seq=st.text(alphabet="ACGT", min_size=5, max_size=40), k=odd_k)
    def test_matches_string_rc(self, seq, k):
        if len(seq) < k:
            return
        fwd = encode_kmers(seq, k)
        rc = reverse_complement_codes(fwd, k)
        for i, code in enumerate(rc):
            assert decode_kmer(int(code), k) == reverse_complement(
                seq[i : i + k]
            )

    @pytest.mark.parametrize("k", range(1, MAX_K + 1))
    def test_word_reversal_equals_digit_loop_for_every_k(self, k, rng):
        top = 4**k - 1
        codes = np.concatenate(
            [
                [0, top, 1, top - 1, top // 3],  # all-A, all-T, ...
                rng.integers(0, top, size=200, endpoint=True),
            ]
        ).astype(np.int64)
        got = reverse_complement_codes(codes, k)
        assert got.dtype == np.int64
        assert np.array_equal(got, _reverse_complement_by_digits(codes, k))
        assert got[0] == top and got[1] == 0  # A^k <-> T^k

    def test_input_left_untouched_and_shape_kept(self):
        codes = np.array([[6, 27], [0, 63]], dtype=np.int64)
        before = codes.copy()
        got = reverse_complement_codes(codes, 3)
        assert got.shape == codes.shape
        assert np.array_equal(codes, before)
        assert np.array_equal(got, _reverse_complement_by_digits(codes, 3))

    @given(seq=st.text(alphabet="ACGT", min_size=7, max_size=30))
    def test_involution(self, seq):
        fwd = encode_kmers(seq, 7)
        rc2 = reverse_complement_codes(reverse_complement_codes(fwd, 7), 7)
        assert np.array_equal(fwd, rc2)


class TestCanonical:
    @settings(max_examples=50)
    @given(seq=st.text(alphabet="ACGT", min_size=5, max_size=60), k=odd_k)
    def test_strand_independence(self, seq, k):
        if len(seq) < k:
            return
        fwd = np.sort(canonical_kmers(seq, k))
        rev = np.sort(canonical_kmers(reverse_complement(seq), k))
        assert np.array_equal(fwd, rev)

    def test_canonical_leq_forward(self):
        seq = "ACGTTGCAAT"
        assert np.all(canonical_kmers(seq, 5) <= encode_kmers(seq, 5))


class TestKmerSet:
    def test_deduplicated_and_sorted(self):
        out = kmer_set(["AAAA"], 2)
        assert out.tolist() == [0]  # AA repeated three times -> one entry

    def test_multiple_sequences(self):
        out = kmer_set(["ACG", "CGT"], 3, canonical=False)
        assert out.size == 2

    def test_accepts_records(self):
        from repro.genomics.sequence import SequenceRecord

        out = kmer_set([SequenceRecord("x", "ACGT")], 2, canonical=False)
        assert out.size > 0

    def test_empty(self):
        assert kmer_set([], 3).size == 0
        assert kmer_set(["NN"], 2).size == 0


class TestSpaceSize:
    def test_values(self):
        assert kmer_space_size(3) == 64
        assert kmer_space_size(31) == 4**31

    def test_max_k_fits_int64(self):
        assert kmer_space_size(MAX_K) < 2**63
