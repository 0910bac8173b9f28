"""Tests for distributed matrix containers."""

import numpy as np
import pytest

from repro.core.bitmask import distribute_and_pack
from repro.runtime import Machine, laptop
from repro.runtime.codec import WireCodec
from repro.runtime.topology import ProcessorGrid
from repro.sparse.coo import CooMatrix
from repro.sparse.distributed import (
    DistDenseMatrix,
    DistVector,
    word_aligned_row_bounds,
)


class TestWordAlignedBounds:
    def test_partition_covers_range(self):
        bounds = word_aligned_row_bounds(300, 3, 64)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 300
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_internal_boundaries_word_aligned(self):
        for lo, hi in word_aligned_row_bounds(1000, 4, 32)[:-1]:
            assert lo % 32 == 0
            assert hi % 32 == 0

    def test_zero_rows(self):
        assert word_aligned_row_bounds(0, 3, 64) == [(0, 0)] * 3

    def test_more_parts_than_words(self):
        bounds = word_aligned_row_bounds(64, 4, 64)
        sizes = [hi - lo for lo, hi in bounds]
        assert sum(sizes) == 64
        assert sizes.count(64) == 1


def build_grid(p, rows, cols, layers=1):
    return ProcessorGrid(Machine(laptop(p)).world, rows, cols, layers)


def pack(grid, chunks, n_rows, n_cols, bit_width=64):
    """The word matrix of a single-layer grid, packed from per-rank chunks."""
    (mat,) = distribute_and_pack(grid.comm, grid, chunks, n_rows, n_cols, bit_width)
    return mat


class TestDistWordMatrix:
    def test_distribute_and_pack_assembles(self, rng):
        dense = rng.random((130, 10)) < 0.2
        coo = CooMatrix.from_dense(dense)
        grid = build_grid(4, 2, 2)
        idx = np.array_split(np.arange(coo.nnz), 4)
        chunks = [CooMatrix(coo.rows[i], coo.cols[i], coo.shape) for i in idx]
        mat = pack(grid, chunks, 130, 10, 32)
        assert np.array_equal(mat.to_local(), dense)
        assert mat.nnz == coo.nnz

    def test_block_shapes(self, rng):
        dense = rng.random((100, 9)) < 0.3
        coo = CooMatrix.from_dense(dense)
        grid = build_grid(4, 2, 2)
        chunks = [coo, CooMatrix.empty(coo.shape), CooMatrix.empty(coo.shape),
                  CooMatrix.empty(coo.shape)]
        mat = pack(grid, chunks, 100, 9, 64)
        for t in range(2):
            clo, chi = mat.col_bounds[t]
            for s in range(2):
                assert mat.block(s, t).n_cols == chi - clo

    def test_chunk_count_validated(self):
        grid = build_grid(4, 2, 2)
        with pytest.raises(ValueError, match="one chunk per"):
            distribute_and_pack(grid.comm, grid, [], 10, 4)

    def test_empty_matrix(self):
        grid = build_grid(4, 2, 2)
        chunks = [CooMatrix.empty((50, 6)) for _ in range(4)]
        mat = pack(grid, chunks, 50, 6)
        assert mat.nnz == 0
        assert not mat.to_local().any()

    def test_codec_packs_the_same_matrix(self, rng):
        dense = rng.random((200, 7)) < 0.1
        coo = CooMatrix.from_dense(dense)
        grid = build_grid(4, 2, 2)
        idx = np.array_split(np.arange(coo.nnz), 4)
        chunks = [CooMatrix(coo.rows[i], coo.cols[i], coo.shape) for i in idx]
        (mat,) = distribute_and_pack(
            grid.comm, grid, chunks, 200, 7, codec=WireCodec("adaptive")
        )
        assert np.array_equal(mat.to_local(), dense)

    def test_layers_stack_to_the_input(self, rng):
        dense = rng.random((300, 6)) < 0.2
        coo = CooMatrix.from_dense(dense)
        grid = build_grid(8, 2, 2, layers=2)
        idx = np.array_split(np.arange(coo.nnz), 8)
        chunks = [CooMatrix(coo.rows[i], coo.cols[i], coo.shape) for i in idx]
        mats = distribute_and_pack(grid.comm, grid, chunks, 300, 6)
        assert [m.layer for m in mats] == [0, 1]
        assert np.array_equal(np.vstack([m.to_local() for m in mats]), dense)

    @pytest.mark.parametrize(
        "shape, row, col",
        [
            ((129, 9), 128, 0),  # a row at n_rows: was a bare IndexError
            ((128, 10), 5, 9),  # a column at n_cols: was sent to the next row block
            ((64, 9), 5, 0),  # a smaller chunk is a mismatch too
        ],
    )
    def test_chunk_shape_must_match_the_batch(self, shape, row, col):
        grid = build_grid(4, 2, 2)
        chunks = [CooMatrix.empty((128, 9)) for _ in range(4)]
        chunks[2] = CooMatrix(np.array([row]), np.array([col]), shape)
        before = grid.comm.ledger.snapshot()
        with pytest.raises(ValueError, match=r"chunk 2 has shape .* 128 x 9"):
            distribute_and_pack(grid.comm, grid, chunks, 128, 9)
        assert grid.comm.ledger.snapshot() == before  # nothing charged

    def test_communicator_must_match_grid(self):
        grid = build_grid(4, 2, 2)
        comm = Machine(laptop(8)).world
        chunks = [CooMatrix.empty((10, 4)) for _ in range(8)]
        with pytest.raises(ValueError, match="does not match grid"):
            distribute_and_pack(comm, grid, chunks, 10, 4)


class TestDistDenseMatrix:
    def test_zeros_shape(self):
        grid = build_grid(4, 2, 2)
        mat = DistDenseMatrix.zeros(grid, 0, 7, 7)
        assert mat.shape == (7, 7)
        assert mat.to_local().shape == (7, 7)

    def test_blocks_tile_exactly(self):
        grid = build_grid(4, 2, 2)
        mat = DistDenseMatrix.zeros(grid, 0, 7, 5)
        total = sum(b.size for b in mat.blocks.values())
        assert total == 35

    def test_add_inplace(self):
        grid = build_grid(4, 2, 2)
        a = DistDenseMatrix.zeros(grid, 0, 4, 4)
        b = DistDenseMatrix.zeros(grid, 0, 4, 4)
        b.blocks[(0, 0)] += 3
        a.add_inplace(b)
        assert a.to_local()[0, 0] == 3

    def test_add_inplace_shape_mismatch(self):
        grid = build_grid(4, 2, 2)
        a = DistDenseMatrix.zeros(grid, 0, 4, 4)
        b = DistDenseMatrix.zeros(grid, 0, 5, 5)
        with pytest.raises(ValueError, match="shape mismatch"):
            a.add_inplace(b)


class TestDistVector:
    def test_zeros_and_concat(self):
        grid = build_grid(4, 2, 2)
        vec = DistVector.zeros(grid, 0, 9)
        assert vec.n == 9
        assert vec.to_local().shape == (9,)

    def test_add_inplace(self):
        grid = build_grid(4, 2, 2)
        a = DistVector.zeros(grid, 0, 6)
        b = DistVector.zeros(grid, 0, 6)
        b.parts[0] += 2
        a.add_inplace(b)
        assert a.to_local().sum() == 2 * len(b.parts[0])

    def test_add_inplace_length_mismatch(self):
        grid = build_grid(4, 2, 2)
        a = DistVector.zeros(grid, 0, 6)
        b = DistVector.zeros(grid, 0, 7)
        with pytest.raises(ValueError, match="length mismatch"):
            a.add_inplace(b)
