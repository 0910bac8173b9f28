"""A MapReduce-style distributed Jaccard — the §I communication strawman.

The paper dismisses MapReduce solutions [26], [6], [86] as "inefficient
... [needing] asymptotically more communication due to using the
allreduce collective communication pattern over reducers [47]".  This
module implements that pattern faithfully on the same simulated machine
so the claim is measurable:

* **map**: every rank scans its input chunk row by row; a row (attribute)
  present in samples ``c_k`` emits one record per *pair* ``(i, j) ⊆ c_k``
  — the pairwise co-occurrence expansion every MapReduce Jaccard uses;
* **shuffle**: records travel to reducers keyed by pair hash (one
  all-to-all whose volume is ``sum_k |c_k|^2`` records — compare the
  packed panels SimilarityAtScale ships);
* **reduce + allreduce**: reducers sum their pairs into a full ``n x n``
  matrix and combine results with an all-reduce over reducers, paying
  ``Theta(n^2)`` traffic per rank.

Functionally the result is exact — identical to SimilarityAtScale — so
benches can compare pure communication volume and modelled time.
"""

from __future__ import annotations

import numpy as np

from repro.core.indicator import IndicatorSource, SetSource
from repro.core.result import SimilarityResult
from repro.core.config import SimilarityConfig
from repro.runtime.engine import Machine
from repro.runtime.machine import laptop
from repro.sparse.coo import CooMatrix
from repro.util.arrays import sorted_unique


def _pairs_from_chunk(chunk: CooMatrix) -> np.ndarray:
    """Expand a chunk's rows into (i, j) sample-pair records.

    Returns an array of shape (2, P) with one column per ordered pair
    (including the diagonal, which carries |X_i|).
    """
    if chunk.nnz == 0:
        return np.empty((2, 0), dtype=np.int64)
    order = np.argsort(chunk.rows, kind="stable")
    rows = chunk.rows[order]
    cols = chunk.cols[order]
    boundaries = np.flatnonzero(np.diff(rows)) + 1
    groups = np.split(cols, boundaries)
    lefts, rights = [], []
    for g in groups:
        grid_i = np.repeat(g, g.size)
        grid_j = np.tile(g, g.size)
        lefts.append(grid_i)
        rights.append(grid_j)
    return np.stack([np.concatenate(lefts), np.concatenate(rights)])


def mapreduce_jaccard(
    data,
    machine: Machine | None = None,
    batch_count: int = 1,
) -> SimilarityResult:
    """All-pairs Jaccard via map/shuffle/reduce/allreduce.

    A faithful cost model of the MapReduce dataflow: pairwise expansion
    in the mappers, a hash-partitioned shuffle, local reduction, and the
    final allreduce over reducers.  Exact results, expensive movement.
    """
    machine = machine if machine is not None else Machine(laptop(4))
    source: IndicatorSource = (
        data if isinstance(data, IndicatorSource) and not isinstance(
            data, (list, tuple))
        else SetSource(data)
    )
    if source.n <= 0:
        raise ValueError("need at least one data sample")
    comm = machine.world
    p = comm.size
    n, m = source.n, source.m
    before = machine.ledger.snapshot()
    intersections = np.zeros((n, n), dtype=np.int64)
    sizes = np.zeros(n, dtype=np.int64)
    from repro.core.result import BatchStats

    batches: list[BatchStats] = []
    from repro.util.partition import block_bounds

    for idx in range(batch_count):
        lo, hi = block_bounds(m, batch_count, idx)
        t0 = machine.ledger.simulated_seconds
        with machine.phase("map"):
            chunks = comm.run_local(
                lambda r: source.read_batch(lo, hi, r, p)
            )
            comm.charge_io(
                [source.read_bytes(lo, hi, r, p) for r in range(p)]
            )
            # The map phase must first co-locate each row's entries: rows
            # are hash-partitioned to mappers (one h-relation), because a
            # row's samples may have been read by different ranks.
            row_chunks: list[list[np.ndarray | None]] = []
            for chunk in chunks:
                dests = chunk.rows % p
                msgs: list[np.ndarray | None] = [None] * p
                for d in sorted_unique(dests):
                    sel = dests == d
                    msgs[int(d)] = np.stack([chunk.rows[sel], chunk.cols[sel]])
                row_chunks.append(msgs)
            received = comm.alltoallv(row_chunks)
            mapper_chunks = []
            for r in range(p):
                parts = [a for a in received[r] if a is not None]
                coords = (
                    np.concatenate(parts, axis=1)
                    if parts
                    else np.empty((2, 0), dtype=np.int64)
                )
                # read_batch already returns batch-local row coordinates.
                mapper_chunks.append(
                    CooMatrix(coords[0], coords[1], (hi - lo, n))
                )
            pair_records = comm.run_local(
                lambda r: _pairs_from_chunk(mapper_chunks[r])
            )
            comm.charge_compute([float(pr.shape[1]) for pr in pair_records])
        with machine.phase("shuffle"):
            # Hash-partition pair records over reducers.
            send: list[list[np.ndarray | None]] = []
            for records in pair_records:
                key = (records[0] * n + records[1]) % p
                msgs = [None] * p
                for d in sorted_unique(key):
                    msgs[int(d)] = records[:, key == d]
                send.append(msgs)
            received = comm.alltoallv(send)
        with machine.phase("reduce"):
            partials = []
            flops = []
            for r in range(p):
                acc = np.zeros((n, n), dtype=np.int64)
                parts = [a for a in received[r] if a is not None]
                if parts:
                    recs = np.concatenate(parts, axis=1)
                    np.add.at(acc, (recs[0], recs[1]), 1)
                    flops.append(float(recs.shape[1]))
                else:
                    flops.append(0.0)
                partials.append(acc)
            comm.charge_compute(flops)
            # The allreduce-over-reducers pattern the paper criticizes:
            # every rank ends up holding the combined n x n matrix.
            combined = comm.allreduce(partials)[0]
        intersections += combined
        batches.append(
            BatchStats(
                index=idx, row_lo=lo, row_hi=hi,
                nnz=int(sum(c.nnz for c in chunks)),
                nonzero_rows=hi - lo,
                simulated_seconds=machine.ledger.simulated_seconds - t0,
            )
        )
    sizes = np.diag(intersections).copy()
    with machine.phase("similarity"):
        unions = sizes[:, None] + sizes[None, :] - intersections
        similarity = np.where(
            unions == 0, 1.0, intersections / np.where(unions == 0, 1, unions)
        )
        comm.charge_compute(4.0 * similarity.size)
    result = SimilarityResult(
        n=n, m=m,
        config=SimilarityConfig(batch_count=batch_count),
        machine_name=machine.spec.name, p=p, grid_q=1, grid_c=p,
        cost=machine.ledger.diff(before), batches=batches,
        similarity=similarity, distance=1.0 - similarity,
        intersections=intersections, sample_sizes=sizes,
    )
    return result
