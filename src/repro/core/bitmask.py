"""Bitmask compression and grid distribution of a filtered batch.

After filtering, each reader rank holds coordinates in the compacted row
space ``[0, n_nonzero_rows)``.  This module performs the §III-B step 3:
segments of ``b`` consecutive compacted rows become one ``b``-bit word,
and every packed word lands on its owning grid rank.

The row space is carved hierarchically, always on word boundaries:
first into ``c`` replication-layer slices (each layer contributes
``1/c`` of the batch's rows, per §III-C), then into ``q`` word-row
blocks within the layer's face.  A single all-to-all over the active
communicator moves every coordinate to its destination; each owner then
packs its block locally (:meth:`BitMatrix.from_coo`: a boolean scatter
plus ``np.packbits``).
"""

from __future__ import annotations

import numpy as np

from repro.runtime.codec import WireCodec
from repro.runtime.comm import Communicator
from repro.runtime.topology import ProcessorGrid
from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.coo import CooMatrix
from repro.sparse.distributed import DistWordMatrix, word_aligned_row_bounds
from repro.util.arrays import merge_messages, split_by_destination
from repro.util.partition import block_bounds


def distribute_and_pack(
    comm: Communicator,
    grid: ProcessorGrid,
    chunks: list[CooMatrix],
    n_rows: int,
    n_cols: int,
    bit_width: int = 64,
    codec: WireCodec | None = None,
) -> list[DistWordMatrix]:
    """Scatter compacted coordinates onto the grid and bit-pack them.

    Returns one :class:`DistWordMatrix` per replication layer; layer
    ``l`` covers a word-aligned slice of the compacted batch rows
    (re-indexed to start at 0 within the layer).
    """
    if len(chunks) != comm.size:
        raise ValueError(
            f"need one chunk per active rank ({comm.size}), got {len(chunks)}"
        )
    if comm.size != grid.rows * grid.cols * grid.layers:
        raise ValueError("communicator size does not match grid")
    q = grid.rows
    layers = grid.layers

    layer_bounds = word_aligned_row_bounds(n_rows, layers, bit_width)
    layer_los = np.array([lo for lo, _ in layer_bounds], dtype=np.int64)
    # Per-layer face blocking, in rows relative to the layer start.
    face_row_bounds = [
        word_aligned_row_bounds(hi - lo, q, bit_width) for lo, hi in layer_bounds
    ]
    # The same blocking as one monotone list of global upper bounds:
    # entry ``l * q + s`` closes word-row block ``s`` of layer ``l``, so a
    # single search places a row in its (layer, block) at once.
    block_his = np.array(
        [lo + hi for (lo, _), face in zip(layer_bounds, face_row_bounds)
         for _, hi in face],
        dtype=np.int64,
    )
    col_bounds = [block_bounds(n_cols, grid.cols, t) for t in range(grid.cols)]
    col_his = np.array([hi for _, hi in col_bounds], dtype=np.int64)

    send: list[list[np.ndarray | None]] = []
    for chunk in chunks:
        block_ids = np.searchsorted(block_his, chunk.rows, side="right")
        col_ids = np.searchsorted(col_his, chunk.cols, side="right")
        send.append(
            split_by_destination(
                block_ids * grid.cols + col_ids,
                chunk.rows - layer_los[block_ids // q],
                chunk.cols,
                comm.size,
            )
        )
    comm.charge_compute([float(c.nnz) for c in chunks])
    received = comm.alltoallv(send, codec=codec)

    matrices: list[DistWordMatrix] = []
    pack_flops: list[float] = [0.0] * comm.size
    for l in range(layers):
        mat = DistWordMatrix(
            grid=grid,
            layer=l,
            row_bounds=face_row_bounds[l],
            col_bounds=col_bounds,
            bit_width=bit_width,
        )
        for s in range(q):
            rlo, rhi = face_row_bounds[l][s]
            for t in range(grid.cols):
                clo, chi = col_bounds[t]
                local_rank = grid.local_rank(s, t, l)
                rows, cols = merge_messages(received[local_rank])
                mat.blocks[(s, t)] = BitMatrix.from_coo(
                    rows - rlo, cols - clo, rhi - rlo, chi - clo, bit_width
                )
                pack_flops[local_rank] = float(rows.size)
        matrices.append(mat)
    comm.charge_compute(pack_flops)
    return matrices


def distribute_and_pack_1d(
    comm: Communicator,
    chunks: list[CooMatrix],
    n_rows: int,
    n_cols: int,
    bit_width: int = 64,
    codec: WireCodec | None = None,
) -> list[BitMatrix]:
    """1-D variant for the all-reduce strawman: full-width row slices.

    Every rank receives one word-aligned row slice spanning *all*
    columns; the Gram step then needs a full ``n x n`` all-reduce.
    """
    if len(chunks) != comm.size:
        raise ValueError(
            f"need one chunk per rank ({comm.size}), got {len(chunks)}"
        )
    bounds = word_aligned_row_bounds(n_rows, comm.size, bit_width)
    his = np.array([hi for _, hi in bounds], dtype=np.int64)
    send = [
        split_by_destination(
            np.searchsorted(his, chunk.rows, side="right"),
            chunk.rows, chunk.cols, comm.size,
        )
        for chunk in chunks
    ]
    comm.charge_compute([float(c.nnz) for c in chunks])
    received = comm.alltoallv(send, codec=codec)
    blocks = []
    flops = []
    for r in range(comm.size):
        rlo, rhi = bounds[r]
        rows, cols = merge_messages(received[r])
        blocks.append(
            BitMatrix.from_coo(rows - rlo, cols, rhi - rlo, n_cols, bit_width)
        )
        flops.append(float(rows.size))
    comm.charge_compute(flops)
    return blocks
