"""Coordinate-format sparse matrices.

COO is the construction format of the pipeline: ranks read ``(value,
sample)`` pairs from input files and accumulate them as ``(row, col)``
coordinates; filtering, compaction and redistribution all operate on raw
coordinate arrays before the batch is frozen into a packed
:class:`~repro.sparse.bitmatrix.BitMatrix`.

Boolean matrices (the indicator ``A``) carry ``data=None`` — every stored
coordinate is an implicit 1 — halving memory relative to storing an
explicit value per nonzero, which matters for hypersparse inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CooMatrix:
    """A sparse matrix as parallel ``(rows, cols[, data])`` arrays."""

    rows: np.ndarray
    cols: np.ndarray
    shape: tuple[int, int]
    data: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        if self.rows.shape != self.cols.shape or self.rows.ndim != 1:
            raise ValueError(
                f"rows/cols must be equal-length 1-D arrays, got "
                f"{self.rows.shape} and {self.cols.shape}"
            )
        if self.data is not None:
            self.data = np.asarray(self.data)
            if self.data.shape != self.rows.shape:
                raise ValueError(
                    f"data shape {self.data.shape} does not match "
                    f"{self.rows.shape} coordinates"
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
        arr = np.asarray(dense)
        rows, cols = np.nonzero(arr)
        is_bool = arr.dtype == bool or np.array_equal(
            arr[rows, cols], np.ones(len(rows), dtype=arr.dtype)
        )
        data = None if is_bool else arr[rows, cols]
        return cls(rows=rows.astype(np.int64), cols=cols.astype(np.int64),
                   shape=arr.shape, data=data)

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
    def is_boolean(self) -> bool:
        return self.data is None

    @property
    def nbytes(self) -> int:
        base = self.rows.nbytes + self.cols.nbytes
        return base + (self.data.nbytes if self.data is not None else 0)

    @property
    def density(self) -> float:
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    # ---- transforms ---------------------------------------------------------

    def deduplicate(self) -> "CooMatrix":
        """Collapse duplicate coordinates (boolean OR / arithmetic sum)."""
        if self.nnz == 0:
            return self
        keys = self.rows * self.shape[1] + self.cols
        if self.is_boolean:
            uniq, idx = np.unique(keys, return_index=True)
            del uniq
            idx.sort()
            return CooMatrix(self.rows[idx], self.cols[idx], self.shape)
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        data_sorted = self.data[order]
        boundaries = np.flatnonzero(np.diff(keys_sorted)) + 1
        starts = np.concatenate(([0], boundaries))
        sums = np.add.reduceat(data_sorted, starts)
        first = order[starts]
        return CooMatrix(self.rows[first], self.cols[first], self.shape, sums)

    def transpose(self) -> "CooMatrix":
        return CooMatrix(
            rows=self.cols.copy(), cols=self.rows.copy(),
            shape=(self.shape[1], self.shape[0]), data=self.data,
        )

    def row_slice(self, lo: int, hi: int) -> "CooMatrix":
        """Rows in ``[lo, hi)``, re-indexed to start at 0 (batching, Eq. 3)."""
        if not 0 <= lo <= hi <= self.shape[0]:
            raise IndexError(f"slice [{lo},{hi}) out of range {self.shape[0]}")
        sel = (self.rows >= lo) & (self.rows < hi)
        data = self.data[sel] if self.data is not None else None
        return CooMatrix(self.rows[sel] - lo, self.cols[sel],
                         (hi - lo, self.shape[1]), data)

    def col_slice(self, lo: int, hi: int) -> "CooMatrix":
        if not 0 <= lo <= hi <= self.shape[1]:
            raise IndexError(f"slice [{lo},{hi}) out of range {self.shape[1]}")
        sel = (self.cols >= lo) & (self.cols < hi)
        data = self.data[sel] if self.data is not None else None
        return CooMatrix(self.rows[sel], self.cols[sel] - lo,
                         (self.shape[0], hi - lo), data)

    def remap_rows(self, mapping: np.ndarray, new_n_rows: int) -> "CooMatrix":
        """Apply a row re-indexing (the filter compaction of Eq. 6)."""
        new_rows = np.asarray(mapping)[self.rows]
        if new_rows.size and (new_rows.min() < 0 or new_rows.max() >= new_n_rows):
            raise ValueError("row mapping produced out-of-range indices")
        return CooMatrix(new_rows.astype(np.int64), self.cols.copy(),
                         (new_n_rows, self.shape[1]), self.data)

    def to_dense(self, dtype=None) -> np.ndarray:
        if dtype is None:
            dtype = bool if self.is_boolean else self.data.dtype
        out = np.zeros(self.shape, dtype=dtype)
        if self.is_boolean:
            out[self.rows, self.cols] = True if dtype == bool else 1
        else:
            np.add.at(out, (self.rows, self.cols), self.data.astype(dtype))
        return out

    def concatenate(self, other: "CooMatrix") -> "CooMatrix":
        """Union of coordinate lists (shapes must match)."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        if self.is_boolean != other.is_boolean:
            raise ValueError("cannot concatenate boolean with weighted COO")
        data = (
            None
            if self.is_boolean
            else np.concatenate([self.data, other.data])
        )
        return CooMatrix(
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.cols, other.cols]),
            self.shape,
            data,
        )
