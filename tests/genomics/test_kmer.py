"""Tests for k-mer encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.kmer import (
    MAX_K,
    _window_codes,
    canonical_kmers,
    decode_kmer,
    encode_kmers,
    kmer_set,
    kmer_space_size,
)
from repro.genomics.sequence import reverse_complement, sequence_to_codes

dna = st.text(alphabet="ACGT", min_size=0, max_size=80)
odd_k = st.sampled_from([3, 5, 7, 11, 19, 31])


def _encode_by_window_matmul(seq: str, k: int) -> np.ndarray:
    """The ``(n, k)`` window-matrix encode, an independent reference."""
    codes = sequence_to_codes(seq)
    if codes.size < k:
        return np.empty(0, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(codes, k)
    valid = (windows != 255).all(axis=1)
    weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return windows[valid].astype(np.int64) @ weights


def _reverse_complement_by_digits(kmers: np.ndarray, k: int) -> np.ndarray:
    """Reverse-complement codes by a ``k``-iteration digit loop."""
    rem = np.asarray(kmers, dtype=np.int64).copy()
    out = np.zeros_like(rem)
    for _ in range(k):
        out = out * 4 + (3 - rem % 4)
        rem //= 4
    return out


def _code(kmer: str) -> int:
    return int("".join(str("ACGT".index(b)) for b in kmer), 4)


def _kmers_by_strings(seq: str, k: int, canonical: bool) -> list[int]:
    """Every window's code, one Python string at a time."""
    seq = seq.upper()
    out = []
    for i in range(len(seq) - k + 1):
        window = seq[i : i + k]
        if "N" in window:
            continue
        code = _code(window)
        if canonical:
            code = min(code, _code(reverse_complement(window)))
        out.append(code)
    return out


def _awkward_sequences(k: int, rng) -> list[str]:
    """Shorter than / equal to / just over ``k``, N runs at both ends,
    lowercase, and random ACGTN."""
    def bases(n, alphabet="ACGT"):
        return "".join(rng.choice(list(alphabet), size=n))

    return [
        "",
        bases(k - 1),
        bases(k),
        bases(k + 1),
        "NNN" + bases(2 * k) + "NN",
        bases(k) + "N" * (k + 1) + bases(k + 2),
        bases(3 * k, "acgt") + bases(k, "ACGTacgtNn"),
        bases(200, "ACGTN"),
        bases(150, "AAAACGTN"),
    ]


class TestAgainstStrings:
    @pytest.mark.parametrize("k", range(1, MAX_K + 1))
    def test_encode_and_canonical_for_every_k(self, k, rng):
        for seq in _awkward_sequences(k, rng):
            for canonical, fn in ((False, encode_kmers), (True, canonical_kmers)):
                got = fn(seq, k)
                assert got.dtype == np.int64
                assert got.tolist() == _kmers_by_strings(seq, k, canonical), (
                    seq, fn.__name__,
                )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 16, 30, 31])
    def test_window_codes_leave_the_digits_untouched(self, k, rng):
        digits = rng.integers(0, 4, size=3 * k + 5).astype(np.uint8)
        before = digits.copy()
        got = _window_codes(digits, k)
        assert np.array_equal(digits, before)
        assert got.size == digits.size - k + 1
        seq = "".join("ACGT"[d] for d in digits)
        assert got.tolist() == _kmers_by_strings(seq, k, canonical=False)


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
    """The reverse-strand codes inside :func:`canonical_kmers`."""

    @settings(max_examples=50)
    @given(seq=st.text(alphabet="ACGT", min_size=5, max_size=40), k=odd_k)
    def test_matches_string_rc(self, seq, k):
        if len(seq) < k:
            return
        got = canonical_kmers(seq, k)
        for i, code in enumerate(got):
            window = seq[i : i + k]
            assert decode_kmer(int(code), k) == min(
                window, reverse_complement(window), key=_code
            )

    @pytest.mark.parametrize("k", range(1, MAX_K + 1))
    def test_doubling_equals_digit_loop_for_every_k(self, k, rng):
        seqs = [
            "A" * (k + 3),
            "T" * (k + 3),
            "".join(rng.choice(list("ACGT"), size=200 + k)),
        ]
        for seq in seqs:
            fwd = encode_kmers(seq, k)
            got = canonical_kmers(seq, k)
            assert got.dtype == np.int64
            assert np.array_equal(
                got, np.minimum(fwd, _reverse_complement_by_digits(fwd, k))
            )
        top = 4**k - 1
        assert canonical_kmers("T" * k, k).tolist() == [0]  # T^k -> A^k
        assert _reverse_complement_by_digits(np.array([0]), k)[0] == top

    @given(seq=st.text(alphabet="ACGTN", min_size=7, max_size=30))
    def test_involution(self, seq):
        # The reverse strand's windows are this strand's, backwards.
        fwd = canonical_kmers(seq, 7)
        rev = canonical_kmers(reverse_complement(seq), 7)
        assert np.array_equal(fwd, rev[::-1])


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

    @settings(max_examples=60)
    @given(seq=st.text(alphabet="ACGTNacgtn", max_size=80), k=odd_k)
    def test_records_equal_their_text(self, seq, k):
        # A record's k-mers come from the codes it validated with; the
        # string path encodes the text itself.
        from repro.genomics.sequence import SequenceRecord

        rec = SequenceRecord("x", seq)
        for canonical in (True, False):
            assert np.array_equal(
                kmer_set([rec], k, canonical), kmer_set([seq], k, canonical)
            )
        assert np.array_equal(encode_kmers(rec, k), encode_kmers(seq, k))
        assert np.array_equal(canonical_kmers(rec, k), canonical_kmers(seq, k))

    def test_empty(self):
        assert kmer_set([], 3).size == 0
        assert kmer_set(["NN"], 2).size == 0


class TestSpaceSize:
    def test_values(self):
        assert kmer_space_size(3) == 64
        assert kmer_space_size(31) == 4**31

    def test_max_k_fits_int64(self):
        assert kmer_space_size(MAX_K) < 2**63
