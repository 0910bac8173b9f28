"""Tests for the word types and the bit unpack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.bitmatrix import BitMatrix
from repro.util.bits import SUPPORTED_WIDTHS, WORD_DTYPES, unpack_bits, words_needed


class TestWordsNeeded:
    def test_exact_multiple(self):
        assert words_needed(128, 64) == 2

    def test_partial_word_rounds_up(self):
        assert words_needed(65, 64) == 2
        assert words_needed(1, 64) == 1

    def test_zero_rows(self):
        assert words_needed(0, 32) == 0

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            words_needed(-1, 64)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError, match="bit_width"):
            words_needed(10, 12)


def pack(bits: np.ndarray, width: int) -> np.ndarray:
    """LSB-first ``width``-bit words of ``bits``, zero-padded (the layout
    :class:`~repro.sparse.bitmatrix.BitMatrix` packs)."""
    padded = np.zeros(words_needed(bits.size, width) * width, dtype=bool)
    padded[: bits.size] = bits
    as_bytes = np.packbits(padded, bitorder="little")
    return as_bytes.view(WORD_DTYPES[width].newbyteorder("<")).astype(WORD_DTYPES[width])


class TestPackUnpack:
    @pytest.mark.parametrize("width", SUPPORTED_WIDTHS)
    def test_roundtrip_simple(self, width):
        bits = np.array([True, False, True, True] * 20)
        assert np.array_equal(unpack_bits(pack(bits, width), bits.size, width), bits)

    def test_lsb_first_layout(self):
        bits = unpack_bits(np.array([(1 << 0) | (1 << 5)], dtype=np.uint64), 64)
        assert np.flatnonzero(bits).tolist() == [0, 5]

    def test_second_word(self):
        bits = unpack_bits(np.array([0, 1], dtype=np.uint64), 70)
        assert np.flatnonzero(bits).tolist() == [64]

    def test_empty(self):
        assert unpack_bits(np.empty(0, dtype=np.uint64), 0).size == 0

    def test_2d_input_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            unpack_bits(np.zeros((2, 2), dtype=np.uint64), 1)

    def test_unpack_too_many_rows_rejected(self):
        with pytest.raises(ValueError, match="cannot unpack"):
            unpack_bits(np.array([255], dtype=np.uint8), 9, 8)

    @settings(max_examples=60)
    @given(
        bits=st.lists(st.booleans(), max_size=300),
        width=st.sampled_from(SUPPORTED_WIDTHS),
    )
    def test_roundtrip_property(self, bits, width):
        arr = np.array(bits, dtype=bool)
        packed = pack(arr, width)
        assert packed.size == words_needed(arr.size, width)
        assert np.array_equal(unpack_bits(packed, arr.size, width), arr)


class TestBitMatrixColumns:
    """A :class:`BitMatrix` column is one packed bit vector."""

    @pytest.mark.parametrize("width", SUPPORTED_WIDTHS)
    def test_unpack_recovers_each_column(self, width, rng):
        dense = rng.random((77, 5)) < 0.3
        words = BitMatrix.from_dense(dense, width).words
        for j in range(dense.shape[1]):
            assert np.array_equal(unpack_bits(words[:, j], 77, width), dense[:, j])

    @pytest.mark.parametrize("width", SUPPORTED_WIDTHS)
    def test_pack_helper_is_the_bitmatrix_layout(self, width, rng):
        bits = rng.random(131) < 0.5
        column = BitMatrix.from_dense(bits[:, None], width).words[:, 0]
        assert column.dtype == WORD_DTYPES[width]
        assert np.array_equal(pack(bits, width), column)
