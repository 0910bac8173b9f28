"""Local Gram kernels: ``B = X^T Y`` over Jaccard-relevant semirings.

Three kernels cover the density regimes the paper evaluates:

* :func:`gram_bitpacked` — the Eq. 7 popcount kernel on bit-packed
  matrices.  Cost ``O(w * n_x * n_y)`` word operations where ``w`` is the
  number of word rows; the reference popcount path once zero rows are
  filtered and segments packed.
* :func:`gram_popcount_blocked` — the dense-regime fast path
  (Kingsford-like densities).  It is *modelled* as Eq. 7's fused
  AND+popcount+accumulate sweep over word tiles — one word operation per
  (word row, column pair), half the reference sweep — and *executed* as
  one float32 GEMM per word-row tile of the operands unpacked to 0/1
  values, which is exact (see the kernel) and far faster than a popcount
  sweep in NumPy.  Joubert et al. run the same comparison as a GEMM.
  A block of at most 64 columns whose leading rows repeat their column
  patterns (the genome path's, where related samples share k-mers)
  runs instead as one GEMM over its distinct row patterns, each
  weighted by its count; the charge is the same either way.
* :func:`gram_outer_pair` — hypersparse row-outer-product accumulation
  on bit-packed blocks: every row ``k`` present in both operands adds 1
  to ``B[c_k^x x c_k^y]``; cost ``O(sum_k |c_k^x| * |c_k^y|)``,
  independent of ``n^2`` — the right choice for BIGSI-like inputs where
  most pairs of samples share nothing, and what the distributed SUMMA
  layer runs when the dispatcher routes a hypersparse batch away from the
  popcount sweeps.

All kernels produce the same dense int64 Gram matrix; tests assert exact
agreement with a dense boolean reference on random inputs.  Each takes an
optional ``out``: an ``(n_x, n_y)`` array the product is *added* into
(``B += X^T Y``), which is how the distributed layer accumulates a batch
into its output blocks without a temporary.  ``out`` is int64, or a
float32 *stage* that the caller keeps exact by flushing it to int64
before any entry could reach :data:`EXACT_FLOAT32_ROWS` (the exact
driver does, see :mod:`repro.core.similarity`).  The stage dtype is what
executes, never what is charged: ``working_set_bytes`` counts ``out`` at
int64 size whatever its dtype.  The density-adaptive choice between the
kernels lives in :mod:`repro.sparse.dispatch`.

Kernels return a :class:`KernelResult` carrying the value together with
the modelled operation count, which the distributed layer charges to the
machine ledger (functional result and cost model stay in lockstep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.sparse.bitmatrix import BitMatrix

#: Soft cap on the temporary expansion a blocked kernel may allocate.
DEFAULT_BLOCK_BYTES = 64 * 2**20

#: Word rows per *modelled* tile of the blocked popcount fast path (the
#: ``working_set_bytes`` the machine model is charged with).
DEFAULT_WORD_TILE = 128

#: Bytes of the float32 operand tiles one *executed* GEMM step of the
#: blocked kernel unpacks (both operands together; at least one word row
#: per step, whatever the column count).
EXEC_TILE_BYTES = 4 * 2**20

#: float32 holds every integer up to 2^24 exactly.  A GEMM step spanning
#: fewer bit rows sums 0/1 products whose every partial sum is such an
#: integer, in any order, so the product is exact.
EXACT_FLOAT32_ROWS = 2**24


@dataclass(frozen=True)
class KernelResult:
    """A kernel's output plus its modelled cost."""

    value: Any
    flops: float
    working_set_bytes: float


def gram_dense_reference(dense: np.ndarray) -> np.ndarray:
    """Reference ``A^T A`` on a dense boolean matrix (tests/docs only)."""
    a = np.asarray(dense).astype(np.int64)
    return a.T @ a


def _accumulator(out: np.ndarray | None, n_x: int, n_y: int) -> np.ndarray:
    """The ``(n_x, n_y)`` array a kernel adds its product into: int64, or
    a float32 stage its caller keeps under :data:`EXACT_FLOAT32_ROWS`."""
    if out is None:
        return np.zeros((n_x, n_y), dtype=np.int64)
    if out.shape != (n_x, n_y) or out.dtype not in (np.int64, np.float32):
        raise ValueError(
            f"out must be int64 (or a float32 stage) of shape {(n_x, n_y)}, "
            f"got {out.dtype} {out.shape}"
        )
    return out


def _charged_bytes(out: np.ndarray) -> float:
    """``out`` as the model sees it: an int64 ``B`` block, whatever the
    executed stage dtype."""
    return 8.0 * out.size


def gram_bitpacked(
    x: BitMatrix,
    y: BitMatrix | None = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    out: np.ndarray | None = None,
) -> KernelResult:
    """Popcount Gram ``B[i, j] = sum_w popcount(x[:, i] & y[:, j])``.

    Blocked over columns of ``x`` so the broadcast temporary stays within
    ``block_bytes``.  With ``y is None`` computes the symmetric ``x^T x``.
    With ``out`` the product is added into it.
    """
    symmetric = y is None
    if y is None:
        y = x
    if x.bit_width != y.bit_width:
        raise ValueError(f"bit widths differ: {x.bit_width} vs {y.bit_width}")
    if x.n_word_rows != y.n_word_rows:
        raise ValueError(
            f"word-row counts differ: {x.n_word_rows} vs {y.n_word_rows}"
        )
    w = x.n_word_rows
    n_x, n_y = x.n_cols, y.n_cols
    out = _accumulator(out, n_x, n_y)
    if w == 0 or n_x == 0 or n_y == 0:
        return KernelResult(out, 0.0, 0.0)
    gram = np.zeros((n_x, n_y), dtype=np.int64)
    itemsize = x.words.dtype.itemsize
    per_col = max(1, w * n_y * itemsize)
    block = int(max(1, min(n_x, block_bytes // per_col)))
    xw = x.words
    yw = y.words
    for lo in range(0, n_x, block):
        hi = min(lo + block, n_x)
        if symmetric:
            # Only columns >= lo can land in the upper triangle.
            anded = xw[:, lo:hi, None] & yw[:, None, lo:]
            counts = np.bitwise_count(anded).sum(axis=0, dtype=np.int64)
            gram[lo:hi, lo:] = counts
        else:
            anded = xw[:, lo:hi, None] & yw[:, None, :]
            gram[lo:hi, :] = np.bitwise_count(anded).sum(axis=0, dtype=np.int64)
    if symmetric:
        # Blocks covered all (i, j) with j >= block start; only j >= i is
        # valid, so keep the upper triangle and mirror it.
        gram = np.triu(gram)
        gram += np.triu(gram, k=1).T
    out += gram
    # Modelled cost: a tuned implementation (as in Cyclops) picks between
    # the dense word sweep — 2 word ops per (word-row, column pair) — and
    # a Gustavson-style input-sparse kernel that only touches word pairs
    # where both operands are nonzero: sum_k cx_k * cy_k over word rows.
    pair_count = (n_x * n_y) if not symmetric else (n_x * (n_x + 1)) // 2
    dense_flops = 2.0 * w * pair_count
    cx = (xw != 0).sum(axis=1, dtype=np.float64)
    if symmetric:
        sparse_flops = float((cx * (cx + 1.0)).sum())
    else:
        cy = (yw != 0).sum(axis=1, dtype=np.float64)
        sparse_flops = 2.0 * float((cx * cy).sum())
    flops = min(dense_flops, sparse_flops)
    working_set = float(x.nbytes + y.nbytes) + _charged_bytes(out)
    return KernelResult(out, flops, working_set)


def _unpack_tile(words: np.ndarray) -> np.ndarray:
    """Word rows ``(t, n)`` -> float32 ``(n, t * bit_width)`` of 0/1 bits.

    Row ``j`` holds column ``j``'s bits in word order, LSB first within a
    word (the little-endian byte view keeps that order on any host).
    """
    little = np.ascontiguousarray(words.T, dtype=words.dtype.newbyteorder("<"))
    bits = np.unpackbits(little.view(np.uint8), axis=1, bitorder="little")
    return bits.astype(np.float32)


#: Leading bit rows of a narrow block that :func:`gram_popcount_blocked`
#: inspects for repeated column patterns before it takes the pattern body.
PATTERN_SAMPLE_ROWS = 512

#: Little-endian unsigned dtype of each word width, so that a byte view
#: lists a word's bits LSB first on any host.
_LITTLE = {b: np.dtype(f"<u{b // 8}") for b in (8, 16, 32, 64)}


def _transpose_stages(m: int) -> tuple[tuple[int, np.generic], ...]:
    """The ``log2 m`` stages of an ``m x m`` bit transpose: per stage the
    shift ``s`` and the mask of the bits ``i`` with ``i & s == 0``."""
    return tuple(
        (s, _LITTLE[m].type(sum(1 << i for i in range(m) if not i & s)))
        for s in (1 << e for e in reversed(range(m.bit_length() - 1)))
    )


_STAGES = {m: _transpose_stages(m) for m in (16, 32, 64)}


def _row_masks(parts: list[np.ndarray], m: int) -> np.ndarray:
    """One ``m``-bit mask per bit row of the word matrices ``parts`` laid
    side by side: bit ``j`` of a row's mask is that row's bit of column
    ``j``, the columns of ``parts`` numbered in order.

    The columns' bit streams are cut into ``m``-bit chunks (several
    chunks per word, or several words per chunk), so each chunk index
    holds an ``m x m`` bit matrix of ``m`` columns (zero past the last)
    by ``m`` rows; the ``log2 m`` stages transpose all of them at once,
    each swapping the off-diagonal ``s x s`` blocks with one shift-xor
    over the whole buffer.  The chunk axis is innermost, so every stage
    runs over contiguous runs.  The masks come in no particular row
    order: the caller only counts them.
    """
    bit_width = 8 * parts[0].itemsize
    w = len(parts[0])
    unit = _LITTLE[min(bit_width, m)]
    per_word = max(1, bit_width // m)
    chunks = -(-w * bit_width // m)
    buf = np.zeros((m, chunks), dtype=_LITTLE[m])
    cells = buf.view(unit).reshape(m, -1, per_word)
    lo = 0
    for words in parts:
        n = words.shape[1]
        little = words.astype(_LITTLE[bit_width], copy=False)
        cells[lo : lo + n, :w] = (
            little.view(unit).reshape(w, n, per_word).transpose(1, 0, 2)
        )
        lo += n
    scratch = np.empty(m // 2 * chunks, dtype=buf.dtype)
    for s, keep in _STAGES[m]:
        pairs = buf.reshape(m // (2 * s), 2, s, chunks)
        low, high = pairs[:, 0], pairs[:, 1]
        t = np.right_shift(low, s, out=scratch.reshape(low.shape))
        t ^= high
        t &= keep
        high ^= t
        t <<= s
        low ^= t
    return buf.reshape(-1)


def _repeats_patterns(parts: list[np.ndarray], m: int) -> bool:
    """Whether the leading :data:`PATTERN_SAMPLE_ROWS` bit rows of the
    word matrices ``parts`` side by side (at most ``m`` columns) hold at
    most half as many distinct column patterns as rows.

    The sample's ``m``-bit masks come from one unpack and one flat
    repack of its few words, not from :func:`_row_masks`: the bit
    transpose's fixed cost alone would be a tenth of the GEMM that a
    repeat-free narrow block goes on to run.
    """
    bit_width = 8 * parts[0].itemsize
    h = min(len(parts[0]), -(-PATTERN_SAMPLE_ROWS // bit_width))
    if len(parts) == 1 and parts[0].shape[1] == m:
        words = parts[0][:h].astype(_LITTLE[bit_width], copy=False)
    else:
        words = np.zeros((h, m), dtype=_LITTLE[bit_width])
        lo = 0
        for part in parts:
            words[:, lo : lo + part.shape[1]] = part[:h]
            lo += part.shape[1]
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    rows = bits.reshape(h, m, bit_width).transpose(0, 2, 1)
    masks = np.packbits(rows, bitorder="little").view(_LITTLE[m])
    masks.sort()
    distinct = 1 + np.count_nonzero(masks[1:] != masks[:-1])
    return 2 * distinct <= masks.size


def _distinct_patterns(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct nonzero ``masks`` and how often each occurs, by one
    in-place sort and a neighbour compare (no hash set; see
    :mod:`repro.util.arrays`)."""
    masks.sort()
    first = np.empty(masks.size, dtype=bool)
    first[0] = masks[0] != 0
    np.not_equal(masks[1:], masks[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return masks[starts], np.diff(starts, append=masks.size)


def _pattern_gram(x: BitMatrix, y: BitMatrix | None) -> np.ndarray | None:
    """``X^T Y`` (``X^T X`` for ``y=None``) as ``U^T diag(count) U`` over
    the distinct column patterns ``U`` of the bit rows, or ``None`` when
    the block is not narrow and repetitive enough for that to pay.

    Narrow: a row's pattern over the columns of ``x`` (and then ``y``)
    fits one 64-bit word.  Repetitive: :func:`_repeats_patterns` on the
    leading rows.  The product is a float64 GEMM over the ``D`` distinct
    nonzero patterns, exact below 2^53; each entry counts at most the
    block's bit rows.
    """
    parts = [x.words] if y is None else [x.words, y.words]
    n = sum(p.shape[1] for p in parts)
    m = max(16, 1 << (n - 1).bit_length())
    if n > 64 or not _repeats_patterns(parts, m):
        return None
    patterns, counts = _distinct_patterns(_row_masks(parts, m))
    bits = np.unpackbits(
        patterns.view(np.uint8).reshape(-1, m // 8), axis=1, bitorder="little"
    )[:, :n].astype(np.float64)
    right = bits if y is None else bits[:, x.n_cols :]
    return bits[:, : x.n_cols].T @ (counts[:, None] * right)


def gram_popcount_blocked(
    x: BitMatrix,
    y: BitMatrix | None = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    word_tile: int = DEFAULT_WORD_TILE,
    out: np.ndarray | None = None,
) -> KernelResult:
    """Dense-regime Gram: modelled as the word-tiled popcount sweep,
    executed as one float32 GEMM per word-row tile, or on narrow
    repetitive blocks as one GEMM over the distinct row patterns.

    Computes the same ``B[i, j] = sum_w popcount(x[:, i] & y[:, j])`` as
    :func:`gram_bitpacked`.  Each executed step unpacks a word-row tile
    of both operands to float32 0/1 matrices of at most
    :data:`EXEC_TILE_BYTES` (one word row at least), multiplies them with
    one ``np.matmul`` and adds the product into the result (``out`` when
    given, so ``B += X^T Y`` needs no temporary).  The product is exact: a
    step spans fewer than :data:`EXACT_FLOAT32_ROWS` bit rows, so every
    partial sum of 0/1 products is an integer float32 represents exactly,
    in whatever order the BLAS adds them.  An int64 ``out`` takes each
    product through one conversion; a float32 stage ``out`` takes it with
    a plain float32 add, exact while the caller keeps the stage's staged
    rows under the same bound.  ``y is x`` and ``y=None`` unpack each tile
    once and copy it into a second buffer: two buffers keep the product
    on GEMM, because NumPy's ``a @ a.T`` SYRK path measured slower on the
    all-pairs block shapes (about 1.8 ms against 1.5 ms for a 640 x 256
    tile on a 2-core x86 box).

    Narrow tiles take another body when their data allow it: when a bit
    row's pattern over all the block's columns fits one 64-bit word
    (``n <= 64`` for ``y is x`` and ``y=None``, ``n_x + n_y <= 64`` for
    a pair) and the leading :data:`PATTERN_SAMPLE_ROWS` rows hold at most
    half as many distinct patterns as rows, the block is bit-transposed
    to one mask per row, equal masks are grouped by a sort, and
    ``U^T diag(count) U`` over the distinct nonzero patterns ``U`` is
    added into the result (exact, see :func:`_pattern_gram`).  Related
    genomes share k-mers along their phylogeny, so their 64-sample
    blocks carry a few hundred patterns over 3 k-22 k rows; a 22 k x 64
    block of them measured 0.9-1.4 ms against 3.7-5.2 ms for the GEMM
    body (on the same 2-core x86 box as above), while a repeat-free
    22 k x 16 block pays the sample, 5-9 % of its GEMM, and stays on it.

    Modelled cost — what the ledger charges, independent of the body
    that runs: Eq. 7's one word operation per (word row, column pair),
    half the two-pass reference sweep, over ``word_tile`` x
    ``block_bytes`` tiles whose size sets ``working_set_bytes``.  That is
    what makes the dispatcher prefer this kernel on dense batches.
    """
    symmetric = y is None
    if y is None:
        y = x
    if x.bit_width != y.bit_width:
        raise ValueError(f"bit widths differ: {x.bit_width} vs {y.bit_width}")
    if x.n_word_rows != y.n_word_rows:
        raise ValueError(
            f"word-row counts differ: {x.n_word_rows} vs {y.n_word_rows}"
        )
    w = x.n_word_rows
    n_x, n_y = x.n_cols, y.n_cols
    out = _accumulator(out, n_x, n_y)
    if w == 0 or n_x == 0 or n_y == 0:
        return KernelResult(out, 0.0, 0.0)
    same = y is x
    product = _pattern_gram(x, None if same else y)
    if product is not None:
        np.add(out, product, out=out, dtype=out.dtype, casting="unsafe")
    else:
        step = int(max(1, min(
            w,
            EXEC_TILE_BYTES // ((n_x + n_y) * x.bit_width * 4),
            (EXACT_FLOAT32_ROWS - 1) // x.bit_width,
        )))
        for lo in range(0, w, step):
            xb = _unpack_tile(x.words[lo : lo + step])
            # One unpack when y is x; the copy keeps matmul on GEMM.
            yb = xb.copy() if same else _unpack_tile(y.words[lo : lo + step])
            np.add(out, xb @ yb.T, out=out, dtype=out.dtype, casting="unsafe")
    itemsize = x.words.dtype.itemsize
    tile = int(max(1, min(w, word_tile)))
    per_col = max(1, tile * n_y * itemsize)
    block = int(max(1, min(n_x, block_bytes // per_col)))
    pair_count = (n_x * n_y) if not symmetric else (n_x * (n_x + 1)) // 2
    flops = float(w) * pair_count
    working_set = float(
        tile * (min(block, n_x) + n_y) * itemsize
        + tile * min(block, n_x) * n_y * itemsize
    ) + _charged_bytes(out)
    return KernelResult(out, flops, working_set)


def gram_outer_pair(
    x: BitMatrix,
    y: BitMatrix | None = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    out: np.ndarray | None = None,
) -> KernelResult:
    """Hypersparse pairwise Gram ``B = X^T Y`` on bit-packed operands.

    Extracts bit-level coordinates from both operands (cheap exactly when
    the blocks are hypersparse), groups them by row, and accumulates the
    outer product ``B[c_k^x times c_k^y] += 1`` for every row ``k``
    present in both — into ``out`` when given.  With ``y is None`` it
    computes the symmetric ``x^T x``; results are bit-identical to the
    popcount kernels.

    Cost ``O(sum_k |c_k^x| * |c_k^y|)`` scatter-adds, independent of
    ``n_x * n_y``; chunks are bounded by ``block_bytes // 16`` index
    pairs at a time.
    """
    symmetric = y is None
    if y is None:
        y = x
    if x.bit_width != y.bit_width:
        raise ValueError(f"bit widths differ: {x.bit_width} vs {y.bit_width}")
    if x.n_word_rows != y.n_word_rows:
        raise ValueError(
            f"word-row counts differ: {x.n_word_rows} vs {y.n_word_rows}"
        )
    n_x, n_y = x.n_cols, y.n_cols
    out = _accumulator(out, n_x, n_y)
    working_set = float(x.nbytes + y.nbytes) + _charged_bytes(out)
    xr, xc = x.nonzero_bits()
    if xr.size == 0:
        return KernelResult(out, 0.0, working_set)
    x_rows, x_starts, x_counts = np.unique(
        xr, return_index=True, return_counts=True
    )
    if symmetric:
        yc = xc
        sx, dx = x_starts, x_counts
        sy, dy = x_starts, x_counts
    else:
        yr, yc = y.nonzero_bits()
        if yr.size == 0:
            return KernelResult(out, 0.0, working_set)
        y_rows, y_starts, y_counts = np.unique(
            yr, return_index=True, return_counts=True
        )
        _, ix, iy = np.intersect1d(
            x_rows, y_rows, assume_unique=True, return_indices=True
        )
        sx, dx = x_starts[ix], x_counts[ix]
        sy, dy = y_starts[iy], y_counts[iy]
    if dx.size == 0:
        return KernelResult(out, 0.0, working_set)
    pair_counts = dx * dy
    flops = float(pair_counts.sum(dtype=np.float64))
    block_pairs = max(1, block_bytes // 16)
    csum = np.cumsum(pair_counts)
    start = 0
    while start < dx.size:
        base = int(csum[start - 1]) if start else 0
        end = int(np.searchsorted(csum, base + block_pairs, side="left")) + 1
        end = min(max(end, start + 1), dx.size)
        seg = slice(start, end)
        _scatter_row_pairs(out, xc, yc, sx[seg], dx[seg], sy[seg], dy[seg])
        start = end
    return KernelResult(out, flops, working_set)


def _scatter_row_pairs(
    out: np.ndarray,
    xc: np.ndarray,
    yc: np.ndarray,
    sx: np.ndarray,
    dx: np.ndarray,
    sy: np.ndarray,
    dy: np.ndarray,
) -> None:
    """Accumulate ``out[c_k^x x c_k^y] += 1`` for a chunk of row segments.

    ``sx``/``dx`` (``sy``/``dy``) give each segment's start and length in
    ``xc`` (``yc``).  Fully vectorized: the left operand repeats each x
    column ``dy`` times in place, the right operand tiles each y segment
    ``dx`` times via a modulo index trick.
    """
    out_lens = dx * dy
    total = int(out_lens.sum())
    if total == 0:
        return
    x_total = int(dx.sum())
    seg_of_x = np.repeat(np.arange(dx.size), dx)
    x_off = np.concatenate(([0], np.cumsum(dx)))[:-1]
    local_x = np.arange(x_total) - x_off[seg_of_x]
    xi = sx[seg_of_x] + local_x
    left = np.repeat(xc[xi], np.repeat(dy, dx))
    seg_of_out = np.repeat(np.arange(dx.size), out_lens)
    out_off = np.concatenate(([0], np.cumsum(out_lens)))[:-1]
    local = np.arange(total) - out_off[seg_of_out]
    yi = sy[seg_of_out] + (local % dy[seg_of_out])
    np.add.at(out, (left, yc[yi]), 1)


def colsum_bitpacked(x: BitMatrix) -> KernelResult:
    """Column popcounts — one batch's contribution to ``a-hat`` (Eq. 4)."""
    sums = x.column_popcounts()
    return KernelResult(sums, float(x.words.size), float(x.nbytes))

