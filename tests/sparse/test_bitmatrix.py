"""Tests for bit-packed matrices."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import bitmatrix
from repro.sparse.bitmatrix import BitMatrix
from repro.util.bits import SUPPORTED_WIDTHS, WORD_DTYPES, words_needed


class TestConstruction:
    def test_zeros(self):
        bm = BitMatrix.zeros(100, 5, 32)
        assert bm.shape == (100, 5)
        assert bm.n_word_rows == 4
        assert bm.nnz == 0

    def test_from_coo_duplicates_or_together(self):
        bm = BitMatrix.from_coo(
            np.array([3, 3, 3]), np.array([0, 0, 0]), 8, 1, 8
        )
        assert bm.nnz == 1

    @pytest.mark.parametrize(
        "rows, cols, match",
        [
            ([8], [0], "row index out of bounds"),
            ([-1], [0], "row index out of bounds"),
            ([0], [1], "column index out of bounds"),
            ([0], [-1], "column index out of bounds"),
        ],
    )
    def test_from_coo_bounds(self, rows, cols, match):
        with pytest.raises(ValueError, match=match):
            BitMatrix.from_coo(np.array(rows), np.array(cols), 8, 1, 8)

    def test_word_count_validated(self):
        with pytest.raises(ValueError, match="word rows"):
            BitMatrix(np.zeros((1, 2), dtype=np.uint64), 100, 64)

    def test_bad_width(self):
        with pytest.raises(ValueError, match="bit width"):
            BitMatrix(np.zeros((1, 1), dtype=np.uint64), 10, 12)

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 10_000),
        width=st.sampled_from(SUPPORTED_WIDTHS),
    )
    def test_dense_roundtrip(self, seed, width):
        rng = np.random.default_rng(seed)
        dense = rng.random((rng.integers(1, 130), rng.integers(1, 9))) < 0.3
        bm = BitMatrix.from_dense(dense, width)
        assert np.array_equal(bm.to_dense(), dense)
        assert bm.nnz == int(dense.sum())


def or_scatter(rows, cols, n_rows, n_cols, width):
    """The packing rule spelled out: row ``r`` of column ``c`` is bit
    ``r % width`` of word ``(r // width, c)``, OR-ed in one at a time."""
    dtype = WORD_DTYPES[width]
    words = np.zeros((words_needed(n_rows, width), n_cols), dtype=dtype)
    for r, c in zip(rows.tolist(), cols.tolist()):
        words[r // width, c] |= dtype.type(1) << dtype.type(r % width)
    return words


def coordinates(rng, n_rows, n_cols, count, order):
    """``count`` coordinates with duplicates, in the named order."""
    rows = rng.integers(0, n_rows, size=count)
    cols = rng.integers(0, n_cols, size=count)
    rows = np.concatenate([rows, rows[: count // 4]])  # duplicates
    cols = np.concatenate([cols, cols[: count // 4]])
    if order == "column-grouped":
        keep = np.lexsort((rows, cols))
    elif order == "row-grouped":
        keep = np.lexsort((cols, rows))
    else:
        keep = rng.permutation(rows.size)
    return rows[keep], cols[keep]


class TestFromCoo:
    """``from_coo`` words are byte-equal to the OR-scatter reference."""

    @pytest.mark.parametrize("width", SUPPORTED_WIDTHS)
    @pytest.mark.parametrize("order", ["random", "column-grouped", "row-grouped"])
    def test_byte_equal_to_or_scatter(self, width, order, rng):
        n_rows, n_cols = 5 * width + 3, 9
        rows, cols = coordinates(rng, n_rows, n_cols, 120, order)
        got = BitMatrix.from_coo(rows, cols, n_rows, n_cols, width).words
        want = or_scatter(rows, cols, n_rows, n_cols, width)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tile_cols", [1, 2, 3, 7, 8])
    def test_column_tile_boundaries(self, monkeypatch, tile_cols, rng):
        # 7 columns cut into tiles of tile_cols: ragged last tile, and
        # column 4 left empty so some tile can hold no coordinate.
        n_rows, n_cols, width = 100, 7, 32
        rows, cols = coordinates(rng, n_rows, n_cols, 200, "random")
        rows, cols = rows[cols != 4], cols[cols != 4]
        padded = words_needed(n_rows, width) * width
        monkeypatch.setattr(bitmatrix, "PACK_TILE_BYTES", tile_cols * padded)
        got = BitMatrix.from_coo(rows, cols, n_rows, n_cols, width).words
        want = or_scatter(rows, cols, n_rows, n_cols, width)
        assert got.tobytes() == want.tobytes()

    def test_no_coordinates(self):
        bm = BitMatrix.from_coo(np.array([]), np.array([]), 70, 3, 16)
        assert bm.words.shape == (5, 3)
        assert bm.nnz == 0

    def test_scratch_is_tiled_on_a_hypersparse_wide_block(self, rng):
        # Untiled, the boolean scratch alone would be n_rows * n_cols
        # bytes = 64 MiB, eight times the packed words.
        n_rows, n_cols = 2**14, 4096
        rows = rng.integers(0, n_rows, size=1000)
        cols = rng.integers(0, n_cols, size=1000)
        tracemalloc.start()
        try:
            bm = BitMatrix.from_coo(rows, cols, n_rows, n_cols, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bm.nbytes == 8 * 2**20
        assert peak < bm.nbytes + 2 * bitmatrix.PACK_TILE_BYTES
        assert bm.words.tobytes() == or_scatter(
            rows, cols, n_rows, n_cols, 64
        ).tobytes()


class TestFromMessages:
    """``from_messages`` equals ``from_coo`` of the concatenated messages
    less the origin, tiled or not, without building the concatenation."""

    @staticmethod
    def messages(rows, cols, origin, rng):
        """The coordinates moved to ``origin`` and cut into uneven
        ``(2, k)`` stacks, with an empty one and a ``None``."""
        stacked = np.stack([rows + origin[0], cols + origin[1]])
        cuts = np.sort(rng.integers(0, rows.size + 1, size=3))
        return [None] + np.split(stacked, cuts, axis=1)

    @pytest.mark.parametrize("width", SUPPORTED_WIDTHS)
    @pytest.mark.parametrize("tile_cols", [1, 3, 7])
    @pytest.mark.parametrize("origin", [(0, 0), (5 * 64, 0), (128, 11)])
    def test_equals_from_coo(self, monkeypatch, width, tile_cols, origin, rng):
        n_rows, n_cols = 3 * width + 5, 7
        rows, cols = coordinates(rng, n_rows, n_cols, 150, "column-grouped")
        padded = words_needed(n_rows, width) * width
        monkeypatch.setattr(bitmatrix, "PACK_TILE_BYTES", tile_cols * padded)
        msgs = self.messages(rows, cols, origin, rng)
        got = BitMatrix.from_messages(msgs, n_rows, n_cols, width, origin)
        want = BitMatrix.from_coo(rows, cols, n_rows, n_cols, width)
        assert got.n_rows == n_rows
        assert got.words.tobytes() == want.words.tobytes()

    def test_nothing_received(self):
        bm = BitMatrix.from_messages([None, np.empty((2, 0), np.int64)], 70, 3, 16, (64, 2))
        assert bm.words.shape == (5, 3)
        assert bm.nnz == 0

    @pytest.mark.parametrize(
        "row, col, match",
        [(63, 2, "row"), (134, 2, "row"), (64, 1, "column"), (64, 5, "column")],
    )
    def test_coordinates_outside_the_block_rejected(self, row, col, match):
        # The block is rows [64, 134) x columns [2, 5).
        msgs = [np.array([[64], [2]]), np.array([[row], [col]])]
        with pytest.raises(ValueError, match=f"{match} index out of bounds"):
            BitMatrix.from_messages(msgs, 70, 3, 16, (64, 2))


class TestOperations:
    def test_column_popcounts(self, rng):
        dense = rng.random((77, 6)) < 0.4
        bm = BitMatrix.from_dense(dense, 16)
        assert np.array_equal(bm.column_popcounts(), dense.sum(axis=0))

    def test_column_popcounts_empty(self):
        assert BitMatrix.zeros(0, 3).column_popcounts().tolist() == [0, 0, 0]

    def test_word_row_slice(self, rng):
        dense = rng.random((64, 3)) < 0.5
        bm = BitMatrix.from_dense(dense, 16)
        sl = bm.word_row_slice(1, 3)
        assert np.array_equal(sl.to_dense(), dense[16:48])

    def test_nbytes_shrinks_with_packing(self):
        dense = np.ones((640, 4), dtype=bool)
        packed = BitMatrix.from_dense(dense, 64)
        assert packed.nbytes == 640 // 64 * 4 * 8
