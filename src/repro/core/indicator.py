"""Indicator-matrix sources: how batches of ``A`` enter the pipeline.

An :class:`IndicatorSource` abstracts "``n`` data samples over attribute
values ``0..m-1``" and supports *batched, per-rank* reads: reader rank
``r`` of ``n_readers`` is responsible for the samples ``j`` with
``j % n_readers == r`` (the file-cyclic assignment of the paper's
``readFiles``), and a read returns only the attribute values falling in
the current batch's row window ``[lo, hi)`` as batch-local coordinates.

Concrete sources:

* :class:`SetSource` — in-memory collections of attribute values;
* :class:`FileSource` — one sorted ``.npy``/text file per sample, the
  on-disk format GenomeAtScale produces;
* :class:`SyntheticSource` — Bernoulli(``density``) indicator entries
  generated deterministically per (batch, sample), with optional
  heavy-tailed per-sample density skew; batches never materialize the
  whole matrix, so ``m`` can be very large (the paper's synthetic runs
  use m = 32M).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.sparse.coo import CooMatrix
from repro.util.arrays import sorted_unique
from repro.util.partition import round_robin_indices
from repro.util.prng import rng_for


@runtime_checkable
class IndicatorSource(Protocol):
    """Batched, rank-partitioned access to an indicator matrix."""

    @property
    def n(self) -> int:
        """Number of data samples (columns of ``A``)."""
        ...

    @property
    def m(self) -> int:
        """Number of possible attribute values (rows of ``A``)."""
        ...

    def read_batch(self, lo: int, hi: int, rank: int, n_readers: int) -> CooMatrix:
        """Coordinates of batch rows ``[lo, hi)`` for reader ``rank``.

        Returns a :class:`CooMatrix` of shape ``(hi - lo, n)`` whose rows
        are batch-local (``global_row - lo``) and whose columns are the
        global sample indices assigned to this reader.
        """
        ...

    def read_bytes(self, lo: int, hi: int, rank: int, n_readers: int) -> int:
        """Bytes this reader pulls from storage for the batch (I/O model)."""
        ...

    def nnz_estimate(self) -> int:
        """Approximate total nonzeros of ``A`` (drives the batch planner)."""
        ...


class SortedSampleSource:
    """Batched reads over one sorted, duplicate-free value array per sample.

    Subclasses provide ``n`` and ``_load(j)`` (sample ``j``'s array).  A
    batch is then a pure window computation: one ``searchsorted`` pair
    per sample gives its ``[lo, hi)`` slice, the table of those slices is
    built once per batch and shared by every reader rank, and
    ``read_bytes`` answers from the table alone — no coordinate is
    materialised to count it.
    """

    #: ``(lo, hi, table)`` of the batch read last; ``table[j]`` holds the
    #: slice bounds of sample ``j``'s window.
    _windows: tuple[int, int, np.ndarray] | None = None

    def _window_table(self, lo: int, hi: int) -> np.ndarray:
        memo = self._windows
        if memo is None or memo[:2] != (lo, hi):
            # Each array's bound method on one prebuilt int64 pair: the
            # np.searchsorted wrapper would convert the pair per sample.
            window = np.array((lo, hi), dtype=np.int64)
            table = np.empty((self.n, 2), dtype=np.int64)
            for j in range(self.n):
                table[j] = self._load(j).searchsorted(window)
            self._windows = memo = (lo, hi, table)
        return memo[2]

    def read_batch(self, lo: int, hi: int, rank: int, n_readers: int) -> CooMatrix:
        samples = round_robin_indices(self.n, n_readers, rank)
        bounds = self._window_table(lo, hi)[samples]
        parts = [
            self._load(j)[a:b]
            for j, (a, b) in zip(samples.tolist(), bounds.tolist())
        ]
        rows = np.concatenate(parts) - lo if parts else np.empty(0, np.int64)
        cols = np.repeat(samples, bounds[:, 1] - bounds[:, 0])
        return CooMatrix(rows, cols, (hi - lo, self.n))

    def read_bytes(self, lo: int, hi: int, rank: int, n_readers: int) -> int:
        bounds = self._window_table(lo, hi)[round_robin_indices(self.n, n_readers, rank)]
        return int((bounds[:, 1] - bounds[:, 0]).sum()) * 8


class SetSource(SortedSampleSource):
    """Samples given as in-memory collections of integer attribute values."""

    def __init__(self, sets: Iterable, m: int | None = None):
        # np.array copies: the source never aliases caller-owned memory.
        self._arrays = [
            sorted_unique(
                np.array(s if isinstance(s, np.ndarray) else sorted(s), dtype=np.int64)
            )
            for s in sets
        ]
        max_val = max((int(a[-1]) for a in self._arrays if a.size), default=-1)
        # At least one row so that an all-empty family still yields a
        # well-formed (1 x n) indicator matrix of zeros.
        self._m = int(m) if m is not None else max(max_val + 1, 1)
        if self._m <= max_val:
            raise ValueError(
                f"m={self._m} too small for max attribute value {max_val}"
            )
        self._nnz = sum(a.size for a in self._arrays)

    @property
    def n(self) -> int:
        return len(self._arrays)

    @property
    def m(self) -> int:
        return self._m

    def _load(self, j: int) -> np.ndarray:
        return self._arrays[j]

    def nnz_estimate(self) -> int:
        return self._nnz


class FileSource(SortedSampleSource):
    """One sorted attribute-value file per sample.

    Supports ``.npy`` arrays (preferred: loaded once, windowed with
    ``searchsorted``) and plain text files with one integer per line —
    the "sorted numerical representation" GenomeAtScale materializes for
    each sequencing sample (§IV).

    ``contents``, when given, are the files' arrays as their writer
    holds them — one per path, each sorted, distinct int64 values in
    ``[0, m)`` and equal to what the file stores — and the source
    starts with them loaded, so it never reads those files back.
    """

    def __init__(
        self,
        paths: Sequence[str | Path],
        m: int,
        contents: Sequence[np.ndarray] | None = None,
    ):
        self.paths = [Path(p) for p in paths]
        if not self.paths:
            raise ValueError("FileSource requires at least one sample file")
        self._m = int(m)
        self._cache: dict[int, np.ndarray] = {}
        if contents is not None:
            if len(contents) != len(self.paths):
                raise ValueError(
                    f"{len(contents)} arrays for {len(self.paths)} sample files"
                )
            self._cache = dict(enumerate(contents))
        self._nnz: int | None = None

    @property
    def n(self) -> int:
        return len(self.paths)

    @property
    def m(self) -> int:
        return self._m

    def _load(self, j: int) -> np.ndarray:
        """Sample ``j``'s sorted distinct values; ``ValueError`` naming
        the file when it is unreadable (missing, empty, truncated,
        garbage), not one 1-D integer array, or out of range."""
        if j not in self._cache:
            path = self.paths[j]
            try:
                if path.suffix == ".npy":
                    vals = np.load(path)
                else:
                    vals = np.loadtxt(path, dtype=np.int64, ndmin=1)
            except (OSError, EOFError, ValueError) as exc:
                raise ValueError(
                    f"{path}: unreadable sample file ({type(exc).__name__}: {exc})"
                ) from None
            if not isinstance(vals, np.ndarray):  # an open .npz archive
                vals.close()
                raise ValueError(f"{path}: not a sample file (an .npz archive)")
            if vals.ndim != 1 or vals.dtype.kind not in "iu":
                raise ValueError(
                    f"{path}: a sample file holds one 1-D integer array, "
                    f"got {vals.dtype} of shape {vals.shape}"
                )
            vals = sorted_unique(vals.astype(np.int64, copy=False))
            if vals.size and (vals[0] < 0 or vals[-1] >= self._m):
                raise ValueError(
                    f"{path}: values outside [0, {self._m}): "
                    f"[{vals[0]}, {vals[-1]}]"
                )
            self._cache[j] = vals
        return self._cache[j]

    def nnz_estimate(self) -> int:
        if self._nnz is None:
            self._nnz = sum(self._load(j).size for j in range(self.n))
        return self._nnz


class SyntheticSource:
    """Random Bernoulli indicator entries, generated per (batch, sample).

    Each sample ``j`` has density ``density * skew_j`` where ``skew_j``
    is a deterministic lognormal multiplier controlled by
    ``density_skew`` (0 = uniform columns; larger values model the
    high-variability BIGSI-like regime, §V-B).  Reads are reproducible
    for any batching: the draw for sample ``j`` over rows ``[lo, hi)``
    depends only on ``(seed, j, lo, hi)``; using the same batch
    boundaries always reproduces the same matrix.
    """

    def __init__(
        self,
        m: int,
        n: int,
        density: float,
        seed: int = 0,
        density_skew: float = 0.0,
    ):
        if m <= 0 or n <= 0:
            raise ValueError(f"m and n must be positive, got m={m}, n={n}")
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {density}")
        self._m = int(m)
        self._n = int(n)
        self.density = float(density)
        self.seed = int(seed)
        self.density_skew = float(density_skew)
        if density_skew > 0:
            skew_rng = rng_for(seed, "skew")
            raw = skew_rng.lognormal(mean=0.0, sigma=density_skew, size=n)
            self._col_density = np.minimum(1.0, density * raw / raw.mean())
        else:
            self._col_density = np.full(n, density)

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    def read_batch(self, lo: int, hi: int, rank: int, n_readers: int) -> CooMatrix:
        span = hi - lo
        rows_parts, cols_parts = [], []
        for j in round_robin_indices(self.n, n_readers, rank):
            rng = rng_for(self.seed, "cell", j, lo, hi)
            count = rng.binomial(span, self._col_density[j])
            if count:
                rows = sorted_unique(rng.integers(0, span, size=count))
                rows_parts.append(rows.astype(np.int64))
                cols_parts.append(np.full(rows.size, j, dtype=np.int64))
        rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, np.int64)
        cols = np.concatenate(cols_parts) if cols_parts else np.empty(0, np.int64)
        return CooMatrix(rows, cols, (span, self.n))

    def read_bytes(self, lo: int, hi: int, rank: int, n_readers: int) -> int:
        samples = round_robin_indices(self.n, n_readers, rank)
        expected = float((hi - lo) * self._col_density[samples].sum())
        return int(expected * 8)

    def nnz_estimate(self) -> int:
        return int(self._m * self._col_density.sum())
