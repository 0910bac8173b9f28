"""Tests for the distributed Gram algorithms (SUMMA / 2.5D / 1-D)."""

import numpy as np
import pytest

from repro.core.bitmask import distribute_and_pack
from repro.runtime import Machine, laptop
from repro.runtime.topology import ProcessorGrid
from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.coo import CooMatrix
from repro.sparse.distributed import DistDenseMatrix, word_aligned_row_bounds
from repro.sparse.spgemm import gram_dense_reference
from repro.sparse.summa import (
    colsums_2d,
    fiber_reduce,
    fiber_reduce_vector,
    gram_1d_allreduce,
    summa_gram_2d,
)


def scatter_coo(coo, parts):
    idx = np.array_split(np.arange(coo.nnz), parts)
    return [CooMatrix(coo.rows[i], coo.cols[i], coo.shape) for i in idx]


def dist_layers(dense, grid, bit_width=64):
    """``dense`` scattered over every rank, then packed per grid layer."""
    coo = CooMatrix.from_dense(dense)
    chunks = scatter_coo(coo, grid.comm.size)
    return distribute_and_pack(
        grid.comm, grid, chunks, dense.shape[0], dense.shape[1], bit_width
    )


def dist_matrix(dense, grid, bit_width=64):
    (mat,) = dist_layers(dense, grid, bit_width)
    return mat


class TestSumma2d:
    @pytest.mark.parametrize("q,p", [(1, 1), (2, 4), (3, 9)])
    def test_matches_reference(self, q, p, rng):
        dense = rng.random((190, 11)) < 0.15
        grid = ProcessorGrid(Machine(laptop(p)).world, q, q, 1)
        mat = dist_matrix(dense, grid)
        out = DistDenseMatrix.zeros(grid, 0, 11, 11)
        summa_gram_2d(mat, out)
        assert np.array_equal(out.to_local(), gram_dense_reference(dense))

    @pytest.mark.parametrize("q,p", [(1, 1), (2, 4)])
    @pytest.mark.parametrize("kernel", ["bitpacked", "blocked", "outer"])
    def test_accumulates_over_calls(self, q, p, kernel, rng):
        # q = 1 hands every kernel the same block as x and y.
        dense = rng.random((64, 6)) < 0.3
        grid = ProcessorGrid(Machine(laptop(p)).world, q, q, 1)
        mat = dist_matrix(dense, grid)
        out = DistDenseMatrix.zeros(grid, 0, 6, 6)
        blocks = dict(out.blocks)
        summa_gram_2d(mat, out, kernel=kernel)
        summa_gram_2d(mat, out, kernel=kernel)
        assert np.array_equal(out.to_local(), 2 * gram_dense_reference(dense))
        # In place: every rank's output block is still the same array.
        assert all(out.blocks[k] is blk for k, blk in blocks.items())

    def test_rejects_rectangular_face(self, rng):
        grid = ProcessorGrid(Machine(laptop(6)).world, 2, 3, 1)
        dense = rng.random((32, 5)) < 0.3
        mat = dist_matrix(dense, grid)
        out = DistDenseMatrix.zeros(grid, 0, 5, 5)
        with pytest.raises(ValueError, match="square"):
            summa_gram_2d(mat, out)

    def test_charges_communication(self, rng):
        machine = Machine(laptop(4))
        grid = ProcessorGrid(machine.world, 2, 2, 1)
        dense = rng.random((128, 8)) < 0.3
        mat = dist_matrix(dense, grid)
        out = DistDenseMatrix.zeros(grid, 0, 8, 8)
        before = machine.ledger.communication_bytes
        summa_gram_2d(mat, out)
        assert machine.ledger.communication_bytes > before


class Test25D:
    def test_two_layers_match_reference(self, rng):
        dense = rng.random((256, 9)) < 0.2
        machine = Machine(laptop(8))
        grid = ProcessorGrid(machine.world, 2, 2, 2)
        partials, vecs = [], []
        for layer, mat in enumerate(dist_layers(dense, grid)):
            assert mat.layer == layer
            out = DistDenseMatrix.zeros(grid, layer, 9, 9)
            summa_gram_2d(mat, out)
            partials.append(out)
            vecs.append(colsums_2d(mat))
        total = fiber_reduce(grid, partials)
        assert np.array_equal(total.to_local(), gram_dense_reference(dense))
        vec = fiber_reduce_vector(grid, vecs)
        assert np.array_equal(vec.to_local(), dense.sum(axis=0))

    def test_fiber_reduce_single_layer_is_identity(self, rng):
        grid = ProcessorGrid(Machine(laptop(4)).world, 2, 2, 1)
        out = DistDenseMatrix.zeros(grid, 0, 4, 4)
        assert fiber_reduce(grid, [out]) is out

    def test_fiber_reduce_layer_count_validated(self):
        grid = ProcessorGrid(Machine(laptop(8)).world, 2, 2, 2)
        out = DistDenseMatrix.zeros(grid, 0, 4, 4)
        with pytest.raises(ValueError, match="one partial per layer"):
            fiber_reduce(grid, [out])


class TestColsums:
    def test_matches_dense(self, rng):
        dense = rng.random((96, 7)) < 0.4
        grid = ProcessorGrid(Machine(laptop(9)).world, 3, 3, 1)
        mat = dist_matrix(dense, grid)
        assert np.array_equal(colsums_2d(mat).to_local(), dense.sum(axis=0))


class TestGram1d:
    def test_matches_reference(self, rng):
        dense = rng.random((256, 10)) < 0.2
        machine = Machine(laptop(4))
        bounds = word_aligned_row_bounds(256, 4, 64)
        blocks = [
            BitMatrix.from_dense(dense[lo:hi]) for lo, hi in bounds
        ]
        out = gram_1d_allreduce(machine.world, blocks)
        assert np.array_equal(out, gram_dense_reference(dense))

    def test_accumulates_into_out(self, rng):
        dense = rng.random((256, 10)) < 0.2
        bounds = word_aligned_row_bounds(256, 4, 64)
        blocks = [BitMatrix.from_dense(dense[lo:hi]) for lo, hi in bounds]
        total = np.full((10, 10), 3, dtype=np.int64)
        got = gram_1d_allreduce(
            Machine(laptop(4)).world, blocks, kernel="blocked", out=total
        )
        assert got is total
        assert np.array_equal(total, 3 + gram_dense_reference(dense))

    def test_moves_more_bytes_than_summa(self, rng):
        # The point of the paper: allreduce-style reduction communicates
        # Theta(n^2) per rank; SUMMA moves asymptotically less.
        n = 48
        dense = rng.random((512, n)) < 0.1
        mach_1d = Machine(laptop(4))
        bounds = word_aligned_row_bounds(512, 4, 64)
        blocks = [BitMatrix.from_dense(dense[lo:hi]) for lo, hi in bounds]
        gram_1d_allreduce(mach_1d.world, blocks)

        mach_2d = Machine(laptop(4))
        grid = ProcessorGrid(mach_2d.world, 2, 2, 1)
        mat = dist_matrix(dense, grid)
        out = DistDenseMatrix.zeros(grid, 0, n, n)
        summa_gram_2d(mat, out)
        assert (
            mach_1d.ledger.communication_bytes
            > mach_2d.ledger.communication_bytes
        )

    def test_block_count_validated(self):
        machine = Machine(laptop(2))
        with pytest.raises(ValueError, match="one block per rank"):
            gram_1d_allreduce(machine.world, [BitMatrix.zeros(8, 2)])

    def test_column_span_validated(self):
        machine = Machine(laptop(2))
        blocks = [BitMatrix.zeros(64, 3), BitMatrix.zeros(64, 2)]
        with pytest.raises(ValueError, match="full column range"):
            gram_1d_allreduce(machine.world, blocks)
