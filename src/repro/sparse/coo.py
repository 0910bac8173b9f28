"""Coordinate-format sparse matrices.

COO is the construction format of the pipeline: ranks read ``(value,
sample)`` pairs from input files and accumulate them as ``(row, col)``
coordinates; filtering, compaction and redistribution all operate on raw
coordinate arrays before the batch is frozen into a packed
:class:`~repro.sparse.bitmatrix.BitMatrix`.

Every stored coordinate is an implicit 1 (the indicator ``A`` is
boolean), so no value array is kept beside the coordinates — which
matters for hypersparse inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CooMatrix:
    """A boolean sparse matrix as parallel ``(rows, cols)`` arrays."""

    rows: np.ndarray
    cols: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        if self.rows.shape != self.cols.shape or self.rows.ndim != 1:
            raise ValueError(
                f"rows/cols must be equal-length 1-D arrays, got "
                f"{self.rows.shape} and {self.cols.shape}"
            )
        n_rows, n_cols = self.shape
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"shape must be non-negative, got {self.shape}")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= n_rows:
                raise ValueError("row index out of bounds")
            if self.cols.min() < 0 or self.cols.max() >= n_cols:
                raise ValueError("column index out of bounds")

    # ---- constructors ----------------------------------------------------

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "CooMatrix":
        z = np.empty(0, dtype=np.int64)
        return cls(rows=z, cols=z.copy(), shape=shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CooMatrix":
        """The nonzero pattern of a dense array."""
        arr = np.asarray(dense)
        rows, cols = np.nonzero(arr)
        return cls(rows=rows.astype(np.int64), cols=cols.astype(np.int64),
                   shape=arr.shape)

    @classmethod
    def from_sets(cls, sets, m: int) -> "CooMatrix":
        """Indicator matrix ``A`` from data samples (paper §III-A).

        ``sets[j]`` holds the attribute values of sample ``X_j``; value
        ``i`` present in sample ``j`` sets ``a_ij = 1``.
        """
        rows_parts = []
        cols_parts = []
        for j, s in enumerate(sets):
            vals = np.asarray(sorted(s), dtype=np.int64)
            if vals.size and (vals.min() < 0 or vals.max() >= m):
                raise ValueError(
                    f"sample {j} has values outside [0, {m}): "
                    f"[{vals.min()}, {vals.max()}]"
                )
            rows_parts.append(vals)
            cols_parts.append(np.full(vals.size, j, dtype=np.int64))
        rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, np.int64)
        cols = np.concatenate(cols_parts) if cols_parts else np.empty(0, np.int64)
        return cls(rows=rows, cols=cols, shape=(m, len(sets)))

    # ---- properties -------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=bool)
        out[self.rows, self.cols] = True
        return out
