"""Bit-packed column-block matrices (paper §III-B, technique 3).

After zero-row filtering, SimilarityAtScale packs segments of ``b``
consecutive rows of each column into one ``b``-bit word, turning the
boolean matrix ``A-bar`` of shape ``m-tilde x n`` into a word matrix
``A-hat`` of shape ``(m-tilde / b) x n`` over ``S = {0, ..., 2^b - 1}``.
The Gram product then runs over the popcount-AND semiring (Eq. 7):

    s_ij = sum_k popcount(a_ki AND a_kj)

:class:`BitMatrix` stores the packed words *densely* per column — the
right layout for the post-filter batches, whose word-rows are dense by
construction (every surviving row segment contains at least one set bit;
columns are the samples being compared).  The dense-word layout is what
makes the popcount kernel a contiguous, vectorizable sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.arrays import split_by_destination
from repro.util.bits import WORD_DTYPES, unpack_bits, words_needed

#: Bytes of boolean scratch one column tile of :meth:`BitMatrix.from_coo`
#: scatters into (8x the words it packs to).
PACK_TILE_BYTES = 4 * 2**20


@dataclass
class BitMatrix:
    """A boolean matrix packed ``bit_width`` rows per word.

    ``words`` has shape ``(n_word_rows, n_cols)``; bit ``k`` of
    ``words[w, j]`` is row ``w * bit_width + k`` of column ``j``.
    """

    words: np.ndarray
    n_rows: int
    bit_width: int

    def __post_init__(self) -> None:
        if self.bit_width not in WORD_DTYPES:
            raise ValueError(f"unsupported bit width {self.bit_width}")
        expect_dtype = WORD_DTYPES[self.bit_width]
        self.words = np.ascontiguousarray(self.words, dtype=expect_dtype)
        if self.words.ndim != 2:
            raise ValueError(f"words must be 2-D, got shape {self.words.shape}")
        need = words_needed(self.n_rows, self.bit_width)
        if self.words.shape[0] != need:
            raise ValueError(
                f"expected {need} word rows for {self.n_rows} bit rows at "
                f"b={self.bit_width}, got {self.words.shape[0]}"
            )

    # ---- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, bit_width: int = 64) -> "BitMatrix":
        dtype = WORD_DTYPES[bit_width]
        shape = (words_needed(n_rows, bit_width), n_cols)
        return cls(np.zeros(shape, dtype=dtype), n_rows, bit_width)

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        n_rows: int,
        n_cols: int,
        bit_width: int = 64,
    ) -> "BitMatrix":
        """Pack coordinates, in any order; duplicates collapse.

        The one-message case of :meth:`from_messages`, at origin
        ``(0, 0)``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of bounds")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column index out of bounds")
        parts = [(rows, cols)] if rows.size else []
        return cls._scatter(parts, n_rows, n_cols, bit_width, (0, 0))

    @classmethod
    def from_messages(
        cls,
        messages: list[np.ndarray | None],
        n_rows: int,
        n_cols: int,
        bit_width: int = 64,
        origin: tuple[int, int] = (0, 0),
    ) -> "BitMatrix":
        """Pack several ``(2, k)`` row/column stacks as one block.

        The coordinates of every message (``None`` = nothing), in any
        order, lie in ``[r0, r0 + n_rows) x [c0, c0 + n_cols)`` for
        ``origin = (r0, c0)``; duplicates collapse.  Equal to
        :meth:`from_coo` of the concatenated messages less the origin,
        which is never built: each message is scattered as it is.
        """
        r0, c0 = origin
        parts = []
        for message in messages:
            if message is None:
                continue
            message = np.asarray(message, dtype=np.int64)
            if message.shape[1] == 0:
                continue
            lo, hi = message.min(axis=1), message.max(axis=1)
            if lo[0] < r0 or hi[0] >= r0 + n_rows:
                raise ValueError("row index out of bounds")
            if lo[1] < c0 or hi[1] >= c0 + n_cols:
                raise ValueError("column index out of bounds")
            parts.append(message)
        return cls._scatter(parts, n_rows, n_cols, bit_width, origin)

    @classmethod
    def _scatter(
        cls,
        parts: list,
        n_rows: int,
        n_cols: int,
        bit_width: int,
        origin: tuple[int, int],
    ) -> "BitMatrix":
        """Pack checked ``(rows, cols)`` parts, offset by ``origin``.

        Column tile by column tile, every part is scattered straight into
        a column-major boolean scratch (one row of padded bit rows per
        column, at most :data:`PACK_TILE_BYTES` or one column, reused by
        every tile), the origin folded into the scatter index, and the
        tile is packed with ``np.packbits(bitorder="little")``, whose
        bytes, read as little-endian words, are the columns' words.
        Tiles without a coordinate are never touched.
        """
        out = cls.zeros(n_rows, n_cols, bit_width)
        if not parts:
            return out
        r0, c0 = origin
        padded = out.n_word_rows * bit_width
        tile = max(1, min(n_cols, PACK_TILE_BYTES // padded))
        n_tiles = -(-n_cols // tile)
        if n_tiles == 1:
            groups = [(0, parts)]
        else:
            split = [
                split_by_destination((cols - c0) // tile, rows, cols, n_tiles)
                for rows, cols in parts
            ]
            groups = [
                (t * tile, [m[t] for m in split if m[t] is not None]) for t in range(n_tiles)
            ]
        little = out.words.dtype.newbyteorder("<")
        scratch = np.empty(tile * padded, dtype=bool)
        for lo, tile_parts in groups:
            if not tile_parts:
                continue
            hi = min(lo + tile, n_cols)
            part = scratch[: (hi - lo) * padded]
            part.fill(False)
            base = (c0 + lo) * padded + r0
            for rows, cols in tile_parts:
                flat = cols * padded
                flat += rows
                if base:
                    flat -= base
                part[flat] = True
            packed = np.packbits(part, bitorder="little").view(little)
            out.words[:, lo:hi] = packed.reshape(hi - lo, -1).T
        return out

    @classmethod
    def from_dense(cls, dense: np.ndarray, bit_width: int = 64) -> "BitMatrix":
        arr = np.asarray(dense).astype(bool)
        rows, cols = np.nonzero(arr)
        return cls.from_coo(rows, cols, arr.shape[0], arr.shape[1], bit_width)

    # ---- properties ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Logical (bit-rows, cols) shape."""
        return (self.n_rows, self.words.shape[1])

    @property
    def n_cols(self) -> int:
        return self.words.shape[1]

    @property
    def n_word_rows(self) -> int:
        return self.words.shape[0]

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)

    @property
    def nnz(self) -> int:
        """Number of set bits (stored nonzeros of the boolean matrix)."""
        if self.words.size == 0:
            return 0
        return int(np.bitwise_count(self.words).sum(dtype=np.int64))

    # ---- operations -------------------------------------------------------

    def column_popcounts(self) -> np.ndarray:
        """Set bits per column — the batch contribution to ``a-hat``."""
        if self.words.size == 0:
            return np.zeros(self.n_cols, dtype=np.int64)
        return np.bitwise_count(self.words).sum(axis=0, dtype=np.int64)

    def nonzero_bits(self) -> tuple[np.ndarray, np.ndarray]:
        """Bit-level coordinates ``(rows, cols)`` of every set bit.

        Cost is proportional to the number of nonzero *words* plus set
        bits, so it is cheap exactly in the hypersparse regime where the
        outer-product Gram kernel wants row/column coordinates back.
        Coordinates are sorted by row, then column.
        """
        word_rows, cols = np.nonzero(self.words)
        if word_rows.size == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        vals = np.ascontiguousarray(self.words[word_rows, cols])
        little = vals.astype(vals.dtype.newbyteorder("<"), copy=False)
        as_bytes = little.view(np.uint8).reshape(vals.size, -1)
        bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
        entry, bit = np.nonzero(bits)
        rows = word_rows[entry] * self.bit_width + bit
        out_cols = cols[entry]
        order = np.lexsort((out_cols, rows))
        return rows[order].astype(np.int64), out_cols[order].astype(np.int64)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=bool)
        for j in range(self.n_cols):
            out[:, j] = unpack_bits(self.words[:, j], self.n_rows, self.bit_width)
        return out

    def word_row_slice(self, lo: int, hi: int) -> "BitMatrix":
        """Slice whole word-rows (row granularity = ``bit_width`` bits)."""
        if not 0 <= lo <= hi <= self.n_word_rows:
            raise IndexError(
                f"word-row slice [{lo},{hi}) out of range {self.n_word_rows}"
            )
        n_rows = min(self.n_rows - lo * self.bit_width, (hi - lo) * self.bit_width)
        n_rows = max(n_rows, 0)
        return BitMatrix(self.words[lo:hi].copy(), n_rows, self.bit_width)
