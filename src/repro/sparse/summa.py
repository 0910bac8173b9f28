"""Communication-avoiding distributed Gram products.

Implements the parallelization of §III-C: given the compressed batch
``R`` (an ``h x n`` word matrix) on a ``q x q`` grid face, compute the
dense contribution ``B += R^T R`` with SUMMA-style panel broadcasts, and
— when the grid has ``c > 1`` replication layers — reduce the per-layer
partial results across fibers (the 2.5D scheme: each layer handles
``1/c`` of the batch rows against its own copy of ``B``).

Per stage ``s`` the algorithm moves the word-row panel ``R_{s,*}``:

1. every owner ``(s, t)`` broadcasts ``R_{s,t}`` down grid column ``t``
   (after which rank ``(i, j)`` holds ``R_{s,j}``, and in particular the
   diagonal rank ``(i, i)`` holds ``R_{s,i}``);
2. every diagonal rank ``(i, i)`` broadcasts ``R_{s,i}`` along grid row
   ``i`` (after which rank ``(i, j)`` also holds ``R_{s,i}``);
3. rank ``(i, j)`` accumulates ``B_{ij} += popcount-gram(R_{s,i},
   R_{s,j})`` locally, into its block of ``out``: int64, or the float32
   stage the exact driver keeps exact by flushing it to int64 before
   the 2^24-row bound (:mod:`repro.core.similarity`).  A diagonal rank
   ``(i, i)`` passes the same block twice, so the blocked kernel
   unpacks it once.

Each panel block thus crosses the machine ``O(log q)`` times per
dimension, giving the ``O(z / sqrt(cp))`` per-rank communication volume
of the paper's analysis (with the ``c n^2 / p``-sized fiber reduction
when ``c > 1``).

The communication-*inefficient* 1-D all-reduce strategy that
MapReduce-style implementations effectively perform (every rank reduces
the full ``n x n``) is the ``c = p`` corner of the same scheme: a
``1 x 1`` face, so each rank holds a full ``B`` replica and every layer
takes ``1/p`` of the batch rows.  The ablation baseline runs it as
``SimilarityConfig(replication=p, reduce_every_batch=True)``, which
all-reduces ``B`` across the fibers after every batch.
"""

from __future__ import annotations

from repro.runtime.codec import WireCodec
from repro.runtime.topology import ProcessorGrid
from repro.sparse.dispatch import resolve_kernel
from repro.sparse.distributed import DistDenseMatrix, DistVector, DistWordMatrix
from repro.sparse.spgemm import colsum_bitpacked


def summa_gram_2d(
    matrix: DistWordMatrix,
    out: DistDenseMatrix,
    block_bytes: int | None = None,
    kernel: str = "bitpacked",
    codec: WireCodec | None = None,
) -> None:
    """Accumulate ``out += R^T R`` on one grid layer via SUMMA.

    ``matrix`` and ``out`` must live on the same (square) face.
    ``kernel`` names the local Gram kernel every face rank runs in step
    (3) — one of :data:`repro.sparse.dispatch.KERNEL_NAMES`, normally
    chosen per batch by the density-adaptive dispatcher.  The compute
    charge carries the kernel label so the ledger's per-kernel breakdown
    stays faithful to what actually ran.  ``codec`` routes every panel
    broadcast through the wire-format codec layer
    (:mod:`repro.runtime.codec`): tiles are genuinely encoded and
    decoded (bit-exact round trip), the ledger is charged *encoded*
    bytes, and raw-vs-encoded volume is tallied per codec.
    """
    grid = matrix.grid
    layer = matrix.layer
    if grid.rows != grid.cols:
        raise ValueError(
            f"SUMMA gram requires a square face, got {grid.rows}x{grid.cols}"
        )
    q = grid.rows
    if out.grid is not grid or len(out.row_bounds) != q:
        raise ValueError("output matrix must live on the same face")

    kernel_fn = resolve_kernel(kernel)
    kernel_kwargs = {} if block_bytes is None else {"block_bytes": block_bytes}
    for s in range(q):
        # (1) column broadcasts of panel s: owner (s, t) -> column t.
        for t in range(q):
            col = grid.col_comm(t, layer)
            col.bcast(matrix.block(s, t), root=s, codec=codec)
        # (2) row broadcasts from the diagonal: (i, i) -> row i.
        for i in range(q):
            row = grid.row_comm(i, layer)
            row.bcast(matrix.block(s, i), root=i, codec=codec)
        # (3) local gram on every face rank, through the dispatched kernel,
        # accumulated straight into the rank's output block.
        flops = []
        working = 0.0
        for i in range(q):
            left = matrix.block(s, i)
            for j in range(q):
                right = matrix.block(s, j)
                res = kernel_fn(
                    left, right, out=out.blocks[(i, j)], **kernel_kwargs
                )
                flops.append(res.flops)
                working = max(working, res.working_set_bytes)
        grid.layer_comm(layer).charge_compute(
            flops, working_set_bytes=working, kernel=kernel
        )


def fiber_reduce(
    grid: ProcessorGrid,
    partials: list[DistDenseMatrix],
    codec: WireCodec | None = None,
) -> DistDenseMatrix:
    """Sum per-layer partial results across replication fibers.

    Every fiber ``(i, j)`` all-reduces its ``c`` layer blocks; the result
    is returned on layer 0 (all layers hold identical copies afterwards,
    as in the 2.5D scheme).
    """
    if len(partials) != grid.layers:
        raise ValueError(
            f"need one partial per layer ({grid.layers}), got {len(partials)}"
        )
    if grid.layers == 1:
        return partials[0]
    base = partials[0]
    result = DistDenseMatrix(
        grid=grid,
        layer=0,
        row_bounds=base.row_bounds,
        col_bounds=base.col_bounds,
        blocks={},
    )
    for i in range(grid.rows):
        for j in range(grid.cols):
            fiber = grid.fiber_comm(i, j)
            vals = [p.blocks[(i, j)] for p in partials]
            result.blocks[(i, j)] = fiber.allreduce(vals, codec=codec)[0]
    return result


def colsums_2d(
    matrix: DistWordMatrix, codec: WireCodec | None = None
) -> DistVector:
    """Distributed column popcounts: the batch contribution to ``a-hat``.

    Each rank popcounts its block's columns; column communicators reduce
    over the ``q`` word-row blocks, leaving part ``t`` replicated down
    grid column ``t``.
    """
    grid = matrix.grid
    layer = matrix.layer
    out = DistVector.zeros(grid, layer, matrix.n_cols)
    flops = []
    for t in range(grid.cols):
        partials = []
        for s in range(grid.rows):
            res = colsum_bitpacked(matrix.block(s, t))
            partials.append(res.value)
            flops.append(res.flops)
        col = grid.col_comm(t, layer)
        out.parts[t] = col.allreduce(partials, codec=codec)[0]
    grid.layer_comm(layer).charge_compute(flops)
    return out


def fiber_reduce_vector(
    grid: ProcessorGrid,
    partials: list[DistVector],
    codec: WireCodec | None = None,
) -> DistVector:
    """Sum per-layer ``a-hat`` contributions across replication layers."""
    if len(partials) != grid.layers:
        raise ValueError(
            f"need one partial per layer ({grid.layers}), got {len(partials)}"
        )
    if grid.layers == 1:
        return partials[0]
    base = partials[0]
    result = DistVector(
        grid=grid, layer=0, col_bounds=base.col_bounds, parts=[None] * grid.cols
    )
    for t in range(grid.cols):
        # One representative fiber per column block (row 0); the vector is
        # replicated down columns so a single fiber reduction suffices.
        fiber = grid.fiber_comm(0, t)
        vals = [p.parts[t] for p in partials]
        result.parts[t] = fiber.allreduce(vals, codec=codec)[0]
    return result
