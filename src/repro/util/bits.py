"""Bit-packing and popcount primitives.

The SimilarityAtScale algorithm (paper Eq. 7) compresses segments of ``b``
consecutive boolean rows of the indicator matrix into ``b``-bit machine
words, replacing inner products with ``popcount(x & y)``.  This module
holds the word types and the unpack used by
:mod:`repro.sparse.bitmatrix`.

All helpers operate on NumPy arrays of unsigned integers; ``bit_width``
selects the word type (8, 16, 32 or 64 bits — the paper uses 32/64, the
smaller widths exist for the ablation bench).
"""

from __future__ import annotations

import numpy as np

#: Mapping from supported bitmask widths to the NumPy dtype of one word.
WORD_DTYPES: dict[int, np.dtype] = {
    8: np.dtype(np.uint8),
    16: np.dtype(np.uint16),
    32: np.dtype(np.uint32),
    64: np.dtype(np.uint64),
}

SUPPORTED_WIDTHS = tuple(sorted(WORD_DTYPES))


def _check_width(bit_width: int) -> np.dtype:
    try:
        return WORD_DTYPES[bit_width]
    except KeyError:
        raise ValueError(
            f"bit_width must be one of {SUPPORTED_WIDTHS}, got {bit_width!r}"
        ) from None


def words_needed(n_rows: int, bit_width: int) -> int:
    """Number of ``bit_width``-bit words needed to store ``n_rows`` bits."""
    if n_rows < 0:
        raise ValueError(f"n_rows must be non-negative, got {n_rows}")
    _check_width(bit_width)
    return -(-n_rows // bit_width)


def unpack_bits(words: np.ndarray, n_rows: int, bit_width: int = 64) -> np.ndarray:
    """Expand words back into ``n_rows`` bools.

    Bit ``k`` of word ``w`` is element ``w * bit_width + k`` (LSB-first
    within each word, the layout :class:`~repro.sparse.bitmatrix.BitMatrix`
    packs).
    """
    dtype = _check_width(bit_width)
    arr = np.ascontiguousarray(np.asarray(words, dtype=dtype))
    if arr.ndim != 1:
        raise ValueError(f"unpack_bits expects a 1-D array, got shape {arr.shape}")
    if n_rows > arr.size * bit_width:
        raise ValueError(
            f"cannot unpack {n_rows} rows from {arr.size} words of {bit_width} bits"
        )
    as_bytes = arr.astype(np.dtype(dtype).newbyteorder("<"), copy=False).view(np.uint8)
    bits = np.unpackbits(as_bytes.reshape(-1, 1), axis=1)[:, ::-1].reshape(-1)
    return bits[:n_rows].astype(bool)
