"""The pack all-to-all's routing (:mod:`repro.core.bitmask`).

Every message a sender hands to ``alltoallv`` must equal, element order
included (the varint codec's frame size depends on it), the message the
binary-search router built: ``searchsorted`` over the flattened block
bounds for the destination, the per-destination mask loop for the
grouping, rows made relative to the owner's layer.  Every packed block
must equal :meth:`BitMatrix.from_dense` of its slice of the batch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmask import distribute_and_pack
from repro.runtime import Machine, laptop
from repro.runtime.topology import ProcessorGrid
from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.coo import CooMatrix
from repro.sparse.distributed import word_aligned_row_bounds
from repro.util.partition import block_bounds
from tests.util.test_arrays import _mask_loop


class Recording:
    """A communicator that keeps a copy of every ``alltoallv`` send row."""

    def __init__(self, comm):
        self._comm = comm
        self.sent = []

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def alltoallv(self, send, codec=None):
        self.sent.append([[None if m is None else m.copy() for m in row] for row in send])
        return self._comm.alltoallv(send, codec=codec)


@st.composite
def batches(draw, ranks):
    """A random batch split over ``ranks`` chunks in one of three orders:
    column-major with ascending rows (what the sources produce), row-major,
    or shuffled."""
    bit_width = draw(st.sampled_from([8, 16, 32, 64]))
    n_rows = draw(st.integers(0, 5 * bit_width + 3))
    n_cols = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.random((n_rows, n_cols)) < draw(st.sampled_from([0.0, 0.05, 0.3, 0.9]))
    # The rows either side of every word boundary, in the first column.
    edges = np.arange(bit_width, n_rows, bit_width)
    dense[np.concatenate((edges - 1, edges)), 0] = True
    rows, cols = np.nonzero(dense)
    owner = rng.integers(0, draw(st.integers(1, ranks)), size=rows.size)
    order = draw(st.sampled_from(["column-major", "row-major", "shuffled"]))
    chunks = []
    for r in range(ranks):
        mine = owner == r
        r_rows, r_cols = rows[mine], cols[mine]
        if order == "column-major":
            keep = np.lexsort((r_rows, r_cols))
        elif order == "row-major":
            keep = np.arange(r_rows.size)
        else:
            keep = rng.permutation(r_rows.size)
        chunks.append(CooMatrix(r_rows[keep], r_cols[keep], dense.shape))
    return dense, chunks, bit_width


def reference_messages(chunk, block_his, col_his, layer_los, q, size):
    """The router this module replaced on a ``q x q x c`` grid: binary-search
    destinations, one mask per destination, per-coordinate layer offsets."""
    block_ids = np.searchsorted(block_his, chunk.rows, side="right")
    col_ids = np.searchsorted(col_his, chunk.cols, side="right")
    dests = block_ids * q + col_ids
    return _mask_loop(dests, chunk.rows - layer_los[block_ids // q], chunk.cols, size)


def assert_same_messages(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == np.int64 and np.array_equal(g, w)


class TestGridRouting:
    @settings(max_examples=200, deadline=None)
    @given(
        # q = 1 is the c = p corner: one full-width row slice per rank.
        shape=st.sampled_from(
            [(q, c) for q in (1, 2, 3) for c in (1, 2, 4)] + [(1, 3), (1, 5), (1, 6)]
        ),
        data=st.data(),
    )
    def test_messages_and_words_equal_the_reference(self, shape, data):
        q, c = shape
        size = q * q * c
        dense, chunks, bit_width = data.draw(batches(size))
        n_rows, n_cols = dense.shape
        comm = Recording(Machine(laptop(size)).world)
        grid = ProcessorGrid(comm._comm, q, q, c)
        mats = distribute_and_pack(comm, grid, chunks, n_rows, n_cols, bit_width)

        layer_bounds = word_aligned_row_bounds(n_rows, c, bit_width)
        faces = [word_aligned_row_bounds(hi - lo, q, bit_width) for lo, hi in layer_bounds]
        block_his = np.array(
            [lo + hi for (lo, _), face in zip(layer_bounds, faces) for _, hi in face],
            dtype=np.int64,
        )
        col_bounds = [block_bounds(n_cols, q, t) for t in range(q)]
        col_his = np.array([hi for _, hi in col_bounds], dtype=np.int64)
        layer_los = np.array([lo for lo, _ in layer_bounds], dtype=np.int64)
        (sent,) = comm.sent
        for chunk, row in zip(chunks, sent):
            want = reference_messages(chunk, block_his, col_his, layer_los, q, size)
            assert_same_messages(row, want)

        for (lo, _), face, mat in zip(layer_bounds, faces, mats):
            for s, (rlo, rhi) in enumerate(face):
                for t, (clo, chi) in enumerate(col_bounds):
                    want = BitMatrix.from_dense(dense[lo + rlo : lo + rhi, clo:chi], bit_width)
                    got = mat.block(s, t)
                    assert got.n_rows == want.n_rows
                    assert np.array_equal(got.words, want.words)


class TestRowSliceRouting:
    """The ``c = p`` corner: a ``1 x 1`` face, so every rank is a layer and
    receives one full-width, word-aligned row slice of the batch."""

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 6), data=st.data())
    def test_messages_and_words_equal_the_reference(self, size, data):
        dense, chunks, bit_width = data.draw(batches(size))
        n_rows, n_cols = dense.shape
        comm = Recording(Machine(laptop(size)).world)
        grid = ProcessorGrid(comm._comm, 1, 1, size)
        mats = distribute_and_pack(comm, grid, chunks, n_rows, n_cols, bit_width)

        bounds = word_aligned_row_bounds(n_rows, size, bit_width)
        los = np.array([lo for lo, _ in bounds], dtype=np.int64)
        his = np.array([hi for _, hi in bounds], dtype=np.int64)
        (sent,) = comm.sent
        for chunk, row in zip(chunks, sent):
            dests = np.searchsorted(his, chunk.rows, side="right")
            want = _mask_loop(dests, chunk.rows - los[dests], chunk.cols, size)
            assert_same_messages(row, want)
        assert len(mats) == size
        for (lo, hi), mat in zip(bounds, mats):
            want = BitMatrix.from_dense(dense[lo:hi], bit_width)
            block = mat.block(0, 0)
            assert block.n_rows == want.n_rows
            assert np.array_equal(block.words, want.words)
