"""Zero-row filtering: the distributed filter vector and its prefix sum.

A batch of the indicator matrix is hypersparse — the overwhelming
majority of its ``m-tilde`` rows contain no nonzero at all (for BIGSI,
densities around 4e-12).  SimilarityAtScale builds a sparse filter
vector ``f`` with ``f_k = 1`` iff row ``k`` is nonzero (Eq. 5), prefix
sums it, and re-indexes every nonzero to the compacted row space
(Eq. 6), so the bitmask packing that follows only spends words on rows
that can contribute to an intersection.

Two strategies are implemented, mirroring the paper:

* ``allgather`` — what the paper's *implementation* does (§IV-A):
  every rank contributes its locally observed nonzero row ids; the
  union is replicated on all ranks (a ``(max, x)``-semiring write
  followed by a read of the whole vector), and each rank prefix-sums
  locally.  Observed by the authors to be fastest at their scales.
* ``transpose`` — the *algorithm description* (§III-C): row ownership
  is block-partitioned; nonzero row ids travel to their owners
  (all-to-all), owners deduplicate and count, an exclusive scan over
  per-owner counts assigns compacted ids, and the (row -> compacted id)
  mapping travels back to the requesters.  BSP cost ``O(alpha + p
  beta)`` for the scan plus two h-relations.

Both yield the identical mapping: compacted ids ordered by global row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.comm import Communicator
from repro.sparse.coo import CooMatrix
from repro.util.arrays import sorted_unique
from repro.util.partition import block_bounds


@dataclass
class FilterResult:
    """Outcome of zero-row filtering for one batch."""

    chunks: list[CooMatrix]
    n_nonzero_rows: int
    n_batch_rows: int

    @property
    def fill(self) -> float:
        """Fraction of batch rows that survived the filter."""
        return self.n_nonzero_rows / self.n_batch_rows if self.n_batch_rows else 0.0


def apply_filter(
    comm: Communicator, chunks: list[CooMatrix], strategy: str = "allgather"
) -> FilterResult:
    """Compact batch rows to the nonzero row space.

    ``chunks[r]`` holds reader rank ``r``'s batch-local coordinates; the
    returned chunks have rows renumbered to ``[0, n_nonzero_rows)``.
    """
    if len(chunks) != comm.size:
        raise ValueError(
            f"need one chunk per rank ({comm.size}), got {len(chunks)}"
        )
    if strategy == "allgather":
        return _filter_allgather(comm, chunks)
    if strategy == "transpose":
        return _filter_transpose(comm, chunks)
    if strategy == "off":
        m_batch = chunks[0].shape[0]
        return FilterResult(chunks=list(chunks), n_nonzero_rows=m_batch,
                            n_batch_rows=m_batch)
    raise ValueError(f"unknown filter strategy {strategy!r}")


def _nonzero_rows(rows: np.ndarray, m_batch: int) -> np.ndarray:
    """Sorted distinct row ids of a coordinate list (the support of ``f``).

    A batch with no more rows than coordinates builds the filter vector
    of Eq. 5 literally — one scatter into a dense ``f``, one scan — which
    is linear; a hypersparse batch (``m_batch`` is ``4^k / r``) cannot
    afford the dense vector and sorts its ids instead.
    """
    if m_batch <= rows.size:
        f = np.zeros(m_batch, dtype=bool)
        f[rows] = True
        return np.flatnonzero(f)
    return sorted_unique(rows)


def _rank_in(keys: np.ndarray, rows: np.ndarray, m_batch: int) -> np.ndarray:
    """Eq. 6: the position of each row id in the sorted distinct ``keys``.

    Same choice as :func:`_nonzero_rows`: the prefix sum of ``f`` as a
    dense lookup table when the batch has no more rows than coordinates,
    a binary search otherwise.
    """
    if m_batch <= rows.size:
        table = np.empty(m_batch, dtype=np.int64)
        table[keys] = np.arange(keys.size, dtype=np.int64)
        return table[rows]
    return np.searchsorted(keys, rows)


def _filter_allgather(comm: Communicator, chunks: list[CooMatrix]) -> FilterResult:
    m_batch = chunks[0].shape[0]
    local_rows = [_nonzero_rows(c.rows, m_batch) for c in chunks]
    comm.charge_compute([float(c.nnz) for c in chunks])
    gathered = comm.allgather(local_rows)[0]
    # Replicated merge: the (max, x)-semiring read of f on every rank,
    # followed by the local prefix sum over its nonzero entries.
    nonzero_rows = _nonzero_rows(np.concatenate(gathered), m_batch)
    comm.charge_compute(float(sum(a.size for a in gathered)))
    mapped = []
    for chunk in chunks:
        new_rows = _rank_in(nonzero_rows, chunk.rows, m_batch)
        mapped.append(
            CooMatrix(new_rows, chunk.cols, (int(nonzero_rows.size), chunk.shape[1]))
        )
    comm.charge_compute([float(c.nnz) for c in chunks])
    return FilterResult(mapped, int(nonzero_rows.size), m_batch)


def _filter_transpose(comm: Communicator, chunks: list[CooMatrix]) -> FilterResult:
    p = comm.size
    m_batch = chunks[0].shape[0]
    bounds = [block_bounds(m_batch, p, r) for r in range(p)]
    highs = np.array([hi for _, hi in bounds], dtype=np.int64)

    # (1) Transposition: ship each locally observed nonzero row id to its
    # block owner.
    send: list[list[np.ndarray | None]] = []
    for chunk in chunks:
        # Sorted ids fall into the owners' blocks as contiguous slices.
        uniq = _nonzero_rows(chunk.rows, m_batch)
        cuts = np.searchsorted(uniq, highs).tolist()
        send.append(
            [
                uniq[a:b] if b > a else None
                for a, b in zip([0] + cuts[:-1], cuts)
            ]
        )
    comm.charge_compute([float(c.nnz) for c in chunks])
    received = comm.alltoallv(send)

    # (2) Owners deduplicate and count their nonzero rows.
    owned_rows: list[np.ndarray] = []
    for r in range(p):
        parts = [a for a in received[r] if a is not None and a.size]
        owned = (
            sorted_unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        )
        owned_rows.append(owned)
    comm.charge_compute([float(a.size) for a in owned_rows])

    # (3) Exclusive scan over counts assigns each owner its id offset.
    counts = [int(a.size) for a in owned_rows]
    offsets = comm.exscan(counts)
    total = counts[-1] + offsets[-1] if p else 0

    # (4) Owners send (row -> compacted id) pairs back to requesters.
    reply: list[list[np.ndarray | None]] = []
    for r in range(p):
        owned = owned_rows[r]
        ids = offsets[r] + np.arange(owned.size, dtype=np.int64)
        row: list[np.ndarray | None] = [None] * p
        for src in range(p):
            asked = received[r][src]
            if asked is None or asked.size == 0:
                continue
            pos = np.searchsorted(owned, asked)
            row[src] = np.stack([asked, ids[pos]])
        reply.append(row)
    replies = comm.alltoallv(reply)

    # (5) Requesters apply the mapping to their coordinates.
    mapped = []
    for r, chunk in enumerate(chunks):
        pairs = [a for a in replies[r] if a is not None]
        if pairs:
            table = np.concatenate(pairs, axis=1)
            order = np.argsort(table[0], kind="stable")
            keys, vals = table[0][order], table[1][order]
            new_rows = vals[_rank_in(keys, chunk.rows, m_batch)]
        else:
            new_rows = np.empty(0, dtype=np.int64)
        mapped.append(CooMatrix(new_rows, chunk.cols, (total, chunk.shape[1])))
    comm.charge_compute([float(c.nnz) for c in chunks])
    return FilterResult(mapped, total, m_batch)
