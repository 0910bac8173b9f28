"""Block-distributed matrices over processor grids.

The distributed Gram computation of §III-C places the compressed batch
``R`` (an ``h x n`` word matrix) on a square ``q x q`` face of the
processor grid: rank ``(s, t)`` owns word-row block ``s`` and column
block ``t``.  The output ``B`` (dense ``n x n``) lives on the same face,
rank ``(i, j)`` owning the ``(i, j)`` column-block pair.

Because the runtime is a functional simulator, a distributed matrix holds
*all* blocks (keyed by face coordinates) while every data movement that a
real run would perform is charged through the grid's communicators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.topology import ProcessorGrid
from repro.sparse.bitmatrix import BitMatrix
from repro.util.partition import block_bounds


def word_aligned_row_bounds(
    n_rows_bits: int, parts: int, bit_width: int
) -> list[tuple[int, int]]:
    """Split a bit-row space into ``parts`` word-aligned [lo, hi) ranges.

    Alignment to ``bit_width`` keeps every word of the packed matrix
    wholly inside one block, so packing is a purely local operation.
    """
    total_words = -(-n_rows_bits // bit_width) if n_rows_bits else 0
    bounds = []
    for i in range(parts):
        wlo, whi = block_bounds(total_words, parts, i)
        lo = min(wlo * bit_width, n_rows_bits)
        hi = min(whi * bit_width, n_rows_bits)
        bounds.append((lo, hi))
    return bounds


@dataclass
class DistWordMatrix:
    """A bit-packed matrix distributed over one grid layer's face.

    ``blocks[(s, t)]`` is the :class:`BitMatrix` with bit rows
    ``row_bounds[s]`` and columns ``col_bounds[t]``.  Built, one per
    replication layer, by :func:`repro.core.bitmask.distribute_and_pack`.
    """

    grid: ProcessorGrid
    layer: int
    row_bounds: list[tuple[int, int]]
    col_bounds: list[tuple[int, int]]
    bit_width: int
    blocks: dict[tuple[int, int], BitMatrix] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.row_bounds[-1][1] if self.row_bounds else 0

    @property
    def n_cols(self) -> int:
        return self.col_bounds[-1][1] if self.col_bounds else 0

    @property
    def nnz(self) -> int:
        return sum(b.nnz for b in self.blocks.values())

    def block(self, s: int, t: int) -> BitMatrix:
        return self.blocks[(s, t)]

    def to_local(self) -> np.ndarray:
        """Assemble the full boolean matrix (tests / tiny problems)."""
        out = np.zeros((self.n_rows, self.n_cols), dtype=bool)
        for (s, t), blk in self.blocks.items():
            rlo, rhi = self.row_bounds[s]
            clo, chi = self.col_bounds[t]
            out[rlo:rhi, clo:chi] = blk.to_dense()
        return out


@dataclass
class DistDenseMatrix:
    """A dense matrix distributed as ``q x q`` blocks on a grid face."""

    grid: ProcessorGrid
    layer: int
    row_bounds: list[tuple[int, int]]
    col_bounds: list[tuple[int, int]]
    blocks: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    @classmethod
    def zeros(
        cls,
        grid: ProcessorGrid,
        layer: int,
        n_rows: int,
        n_cols: int,
        dtype=np.int64,
    ) -> "DistDenseMatrix":
        row_bounds = [block_bounds(n_rows, grid.rows, i) for i in range(grid.rows)]
        col_bounds = [block_bounds(n_cols, grid.cols, j) for j in range(grid.cols)]
        blocks = {
            (i, j): np.zeros((rhi - rlo, chi - clo), dtype=dtype)
            for i, (rlo, rhi) in enumerate(row_bounds)
            for j, (clo, chi) in enumerate(col_bounds)
        }
        return cls(grid, layer, row_bounds, col_bounds, blocks)

    @property
    def shape(self) -> tuple[int, int]:
        n_rows = self.row_bounds[-1][1] if self.row_bounds else 0
        n_cols = self.col_bounds[-1][1] if self.col_bounds else 0
        return (n_rows, n_cols)

    def block(self, i: int, j: int) -> np.ndarray:
        return self.blocks[(i, j)]

    def to_local(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=next(iter(self.blocks.values())).dtype)
        for (i, j), blk in self.blocks.items():
            rlo, rhi = self.row_bounds[i]
            clo, chi = self.col_bounds[j]
            out[rlo:rhi, clo:chi] = blk
        return out

    def add_inplace(self, other: "DistDenseMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        for key, blk in other.blocks.items():
            self.blocks[key] += blk


@dataclass
class DistVector:
    """A vector block-distributed over the columns of a grid face.

    Part ``t`` covers ``col_bounds[t]``; it is logically replicated down
    each grid column (every rank in column ``t`` holds part ``t``), which
    is the layout the Jaccard driver needs for ``a-hat``.
    """

    grid: ProcessorGrid
    layer: int
    col_bounds: list[tuple[int, int]]
    parts: list[np.ndarray]

    @classmethod
    def zeros(
        cls, grid: ProcessorGrid, layer: int, n: int, dtype=np.int64
    ) -> "DistVector":
        col_bounds = [block_bounds(n, grid.cols, j) for j in range(grid.cols)]
        parts = [np.zeros(hi - lo, dtype=dtype) for lo, hi in col_bounds]
        return cls(grid, layer, col_bounds, parts)

    @property
    def n(self) -> int:
        return self.col_bounds[-1][1] if self.col_bounds else 0

    def to_local(self) -> np.ndarray:
        if not self.parts:
            return np.empty(0)
        return np.concatenate(self.parts)

    def add_inplace(self, other: "DistVector") -> None:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        for mine, theirs in zip(self.parts, other.parts):
            mine += theirs
