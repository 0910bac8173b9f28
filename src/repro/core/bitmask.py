"""Bitmask compression and grid distribution of a filtered batch.

After filtering, each reader rank holds coordinates in the compacted row
space ``[0, n_nonzero_rows)``.  This module performs the §III-B step 3:
segments of ``b`` consecutive compacted rows become one ``b``-bit word,
and every packed word lands on its owning grid rank.

The row space is carved hierarchically, always on word boundaries:
first into ``c`` replication-layer slices (each layer contributes
``1/c`` of the batch's rows, per §III-C), then into ``q`` word-row
blocks within the layer's face.  A single all-to-all over the active
communicator moves every coordinate to its destination.

Routing is a few streaming passes per coordinate.  Because every block
bound is a word boundary, a row's owner is one lookup in a table with
one entry per word (``row >> log2(b)``), plus one lookup in a column
table when the face has several column blocks.  Each sender's
coordinates are grouped by owner in sender order
(:func:`~repro.util.arrays.split_by_destination`, all senders into one
gathered array), and a message's rows are made relative to its layer by
one subtract per message.  Each owner packs its block straight from the
messages it received (:meth:`BitMatrix.from_messages`: a boolean
scatter with the block origin folded into the index, then
``np.packbits``), without concatenating them.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.codec import WireCodec
from repro.runtime.comm import Communicator
from repro.runtime.topology import ProcessorGrid
from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.coo import CooMatrix
from repro.sparse.distributed import DistWordMatrix, word_aligned_row_bounds
from repro.util.arrays import split_by_destination
from repro.util.bits import WORD_DTYPES
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
    if comm.size != grid.rows * grid.cols * grid.layers:
        raise ValueError("communicator size does not match grid")
    _check_chunks(comm, chunks, n_rows, n_cols, bit_width)
    q = grid.rows
    layer_bounds = word_aligned_row_bounds(n_rows, grid.layers, bit_width)
    # Per-layer face blocking, in rows relative to the layer start.
    face_row_bounds = [word_aligned_row_bounds(hi - lo, q, bit_width) for lo, hi in layer_bounds]
    col_bounds = [block_bounds(n_cols, grid.cols, t) for t in range(grid.cols)]

    owners = []
    layer_lo = np.empty(comm.size, dtype=np.int64)
    for l, (lo, _) in enumerate(layer_bounds):
        for s, (rlo, rhi) in enumerate(face_row_bounds[l]):
            rank = grid.local_rank(s, 0, l)
            owners.append((lo + rlo, lo + rhi, rank))
            layer_lo[rank : rank + grid.cols] = lo
    col_dest = None
    if grid.cols > 1:
        col_dest = np.empty(n_cols, dtype=np.min_scalar_type(grid.cols - 1))
        for t, (clo, chi) in enumerate(col_bounds):
            col_dest[clo:chi] = t
    word_dest = _word_table(n_rows, bit_width, comm.size, owners)
    send = _route(chunks, word_dest, col_dest, layer_lo, bit_width)
    comm.charge_compute([float(c.nnz) for c in chunks])
    received = comm.alltoallv(send, codec=codec)

    matrices: list[DistWordMatrix] = []
    pack_flops: list[float] = [0.0] * comm.size
    for l in range(grid.layers):
        mat = DistWordMatrix(
            grid=grid,
            layer=l,
            row_bounds=face_row_bounds[l],
            col_bounds=col_bounds,
            bit_width=bit_width,
        )
        for s, (rlo, rhi) in enumerate(face_row_bounds[l]):
            for t, (clo, chi) in enumerate(col_bounds):
                rank = grid.local_rank(s, t, l)
                mat.blocks[(s, t)] = BitMatrix.from_messages(
                    received[rank], rhi - rlo, chi - clo, bit_width, (rlo, clo)
                )
                pack_flops[rank] = float(_count(received[rank]))
        matrices.append(mat)
    comm.charge_compute(pack_flops)
    return matrices


def _check_chunks(
    comm: Communicator,
    chunks: list[CooMatrix],
    n_rows: int,
    n_cols: int,
    bit_width: int,
) -> None:
    """One chunk per rank, each shaped like the batch: the routing tables
    are indexed by a chunk's coordinates, which its shape bounds."""
    if len(chunks) != comm.size:
        raise ValueError(f"need one chunk per rank ({comm.size}), got {len(chunks)}")
    if bit_width not in WORD_DTYPES:
        raise ValueError(f"unsupported bit width {bit_width}")
    for r, chunk in enumerate(chunks):
        if tuple(chunk.shape) != (n_rows, n_cols):
            raise ValueError(
                f"chunk {r} has shape {tuple(chunk.shape)}, but the batch is {n_rows} x {n_cols}"
            )


def _word_table(
    n_rows: int, bit_width: int, size: int, owners: list[tuple[int, int, int]]
) -> np.ndarray:
    """The owner of every word of the batch, in the narrowest type that
    holds ``size - 1``; ``owners`` lists word-aligned ``(lo, hi, rank)``
    row ranges that cover ``[0, n_rows)``."""
    table = np.empty(-(-n_rows // bit_width), dtype=np.min_scalar_type(size - 1))
    for lo, hi, rank in owners:
        if hi > lo:
            table[lo // bit_width : -(-hi // bit_width)] = rank
    return table


def _route(
    chunks: list[CooMatrix],
    word_dest: np.ndarray,
    col_dest: np.ndarray | None,
    layer_lo: np.ndarray,
    bit_width: int,
) -> list[list[np.ndarray | None]]:
    """Every sender's messages: its coordinates grouped by owner, rows
    made relative to the owner's layer (one subtract per message)."""
    total = sum(chunk.nnz for chunk in chunks)
    grouped = np.empty((2, total), dtype=np.int64)
    words = np.empty(max((chunk.nnz for chunk in chunks), default=0), np.int64)
    shift = bit_width.bit_length() - 1
    send = []
    lo = 0
    for chunk in chunks:
        hi = lo + chunk.nnz
        word = np.right_shift(chunk.rows, shift, out=words[: chunk.nnz])
        dests = word_dest[word]
        if col_dest is not None:
            dests += col_dest[chunk.cols]
        messages = split_by_destination(
            dests, chunk.rows, chunk.cols, layer_lo.size, out=grouped[:, lo:hi]
        )
        for d, message in enumerate(messages):
            if message is not None and layer_lo[d]:
                message[0] -= layer_lo[d]
        send.append(messages)
        lo = hi
    return send


def _count(messages: list[np.ndarray | None]) -> int:
    """Coordinates in one owner's received messages."""
    return sum(m.shape[1] for m in messages if m is not None)
