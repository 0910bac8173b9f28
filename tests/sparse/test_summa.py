"""Tests for the distributed Gram algorithms (SUMMA / 2.5D, c = p included)."""

import numpy as np
import pytest

from repro.core.bitmask import distribute_and_pack
from repro.runtime import Machine, laptop
from repro.runtime.topology import ProcessorGrid
from repro.sparse.coo import CooMatrix
from repro.sparse.distributed import DistDenseMatrix, DistVector
from repro.sparse.spgemm import gram_dense_reference
from repro.sparse.summa import (
    colsums_2d,
    fiber_reduce,
    fiber_reduce_vector,
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


def layered_gram(dense, grid):
    """SUMMA on every layer, then the fiber reductions: ``(B, a-hat)``."""
    n = dense.shape[1]
    partials, vecs = [], []
    for layer, mat in enumerate(dist_layers(dense, grid)):
        assert mat.layer == layer
        out = DistDenseMatrix.zeros(grid, layer, n, n)
        summa_gram_2d(mat, out)
        partials.append(out)
        vecs.append(colsums_2d(mat))
    return fiber_reduce(grid, partials), fiber_reduce_vector(grid, vecs)


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

    def test_rejects_output_on_another_face(self, rng):
        machine = Machine(laptop(4))
        mat = dist_matrix(rng.random((64, 6)) < 0.3, ProcessorGrid(machine.world, 2, 2, 1))
        other = ProcessorGrid(machine.world, 2, 2, 1)
        out = DistDenseMatrix.zeros(other, 0, 6, 6)
        with pytest.raises(ValueError, match="same face"):
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
        total, vec = layered_gram(dense, grid)
        assert np.array_equal(total.to_local(), gram_dense_reference(dense))
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

    def test_fiber_reduce_vector_single_layer_is_identity(self):
        grid = ProcessorGrid(Machine(laptop(4)).world, 2, 2, 1)
        vec = DistVector.zeros(grid, 0, 4)
        assert fiber_reduce_vector(grid, [vec]) is vec

    def test_fiber_reduce_vector_layer_count_validated(self):
        grid = ProcessorGrid(Machine(laptop(8)).world, 2, 2, 2)
        vec = DistVector.zeros(grid, 0, 4)
        with pytest.raises(ValueError, match="one partial per layer"):
            fiber_reduce_vector(grid, [vec])


class TestColsums:
    def test_matches_dense(self, rng):
        dense = rng.random((96, 7)) < 0.4
        grid = ProcessorGrid(Machine(laptop(9)).world, 3, 3, 1)
        mat = dist_matrix(dense, grid)
        assert np.array_equal(colsums_2d(mat).to_local(), dense.sum(axis=0))


class TestGram1d:
    """``c = p``: a ``1 x 1`` face, every rank a full ``B`` replica — the
    1-D all-reduce layout the ablation bench compares SUMMA against."""

    def test_matches_reference(self, rng):
        dense = rng.random((256, 10)) < 0.2
        grid = ProcessorGrid(Machine(laptop(4)).world, 1, 1, 4)
        total, vec = layered_gram(dense, grid)
        assert np.array_equal(total.to_local(), gram_dense_reference(dense))
        assert np.array_equal(vec.to_local(), dense.sum(axis=0))

    def test_moves_more_bytes_than_summa(self, rng):
        # The point of the paper: allreduce-style reduction communicates
        # Theta(n^2) per rank; SUMMA moves asymptotically less.
        n = 48
        dense = rng.random((512, n)) < 0.1
        mach_1d = Machine(laptop(4))
        layered_gram(dense, ProcessorGrid(mach_1d.world, 1, 1, 4))
        mach_2d = Machine(laptop(4))
        layered_gram(dense, ProcessorGrid(mach_2d.world, 2, 2, 1))
        assert (
            mach_1d.ledger.communication_bytes
            > mach_2d.ledger.communication_bytes
        )

    def test_accumulates_into_out(self, rng):
        # Two batches summed into every rank's replica, reduced once.
        batches = [rng.random((128, 10)) < 0.2 for _ in range(2)]
        grid = ProcessorGrid(Machine(laptop(4)).world, 1, 1, 4)
        outs = [DistDenseMatrix.zeros(grid, layer, 10, 10) for layer in range(4)]
        for dense in batches:
            for out, mat in zip(outs, dist_layers(dense, grid)):
                summa_gram_2d(mat, out)
        total = fiber_reduce(grid, outs)
        want = sum(gram_dense_reference(dense) for dense in batches)
        assert np.array_equal(total.to_local(), want)

    def test_per_batch_reduction_moves_more_bytes(self, rng):
        # Reducing B after every batch repeats the n x n all-reduce that
        # the deferred form pays once.
        batches = [rng.random((128, 10)) < 0.2 for _ in range(3)]
        moved = {}
        for eager in (True, False):
            machine = Machine(laptop(4))
            grid = ProcessorGrid(machine.world, 1, 1, 4)
            outs = [DistDenseMatrix.zeros(grid, layer, 10, 10) for layer in range(4)]
            total = np.zeros((10, 10), dtype=np.int64)
            for dense in batches:
                for out, mat in zip(outs, dist_layers(dense, grid)):
                    summa_gram_2d(mat, out)
                if eager:
                    total += fiber_reduce(grid, outs).to_local()
                    outs = [DistDenseMatrix.zeros(grid, layer, 10, 10) for layer in range(4)]
            if not eager:
                total = fiber_reduce(grid, outs).to_local()
            assert np.array_equal(
                total, sum(gram_dense_reference(dense) for dense in batches)
            )
            moved[eager] = machine.ledger.communication_bytes
        assert moved[True] > moved[False]

    def test_one_partial_per_rank(self):
        # Every rank is a layer, so the fiber reductions take p partials.
        grid = ProcessorGrid(Machine(laptop(3)).world, 1, 1, 3)
        outs = [DistDenseMatrix.zeros(grid, layer, 4, 4) for layer in range(2)]
        with pytest.raises(ValueError, match="one partial per layer"):
            fiber_reduce(grid, outs)
        vecs = [DistVector.zeros(grid, layer, 4) for layer in range(2)]
        with pytest.raises(ValueError, match="one partial per layer"):
            fiber_reduce_vector(grid, vecs)
