"""Tests for COO matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.coo import CooMatrix


def random_dense(seed, m=30, n=8, density=0.2):
    rng = np.random.default_rng(seed)
    return rng.random((m, n)) < density


class TestConstruction:
    def test_from_dense_boolean(self):
        dense = np.array([[1, 0], [0, 1], [1, 1]], dtype=bool)
        coo = CooMatrix.from_dense(dense)
        assert coo.nnz == 4
        assert coo.is_boolean
        assert np.array_equal(coo.to_dense(), dense)

    def test_from_dense_weighted(self):
        dense = np.array([[0, 2], [3, 0]])
        coo = CooMatrix.from_dense(dense)
        assert not coo.is_boolean
        assert np.array_equal(coo.to_dense(), dense)

    def test_from_sets(self):
        coo = CooMatrix.from_sets([{0, 2}, {1}, set()], m=4)
        assert coo.shape == (4, 3)
        expect = np.zeros((4, 3), dtype=bool)
        expect[0, 0] = expect[2, 0] = expect[1, 1] = True
        assert np.array_equal(coo.to_dense(), expect)

    def test_from_sets_value_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            CooMatrix.from_sets([{5}], m=3)

    def test_empty(self):
        coo = CooMatrix.empty((10, 5))
        assert coo.nnz == 0
        assert coo.density == 0.0

    def test_bounds_checked(self):
        with pytest.raises(ValueError, match="row index"):
            CooMatrix(np.array([5]), np.array([0]), (3, 3))
        with pytest.raises(ValueError, match="column index"):
            CooMatrix(np.array([0]), np.array([9]), (3, 3))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal-length"):
            CooMatrix(np.array([0, 1]), np.array([0]), (3, 3))

    def test_data_shape_checked(self):
        with pytest.raises(ValueError, match="data shape"):
            CooMatrix(np.array([0]), np.array([0]), (2, 2), np.array([1, 2]))


class TestDeduplicate:
    def test_boolean_duplicates_collapse(self):
        coo = CooMatrix(np.array([1, 1, 0]), np.array([2, 2, 0]), (3, 3))
        d = coo.deduplicate()
        assert d.nnz == 2

    def test_weighted_duplicates_sum(self):
        coo = CooMatrix(
            np.array([0, 0, 1]), np.array([0, 0, 1]), (2, 2),
            np.array([2, 3, 5]),
        )
        d = coo.deduplicate()
        dense = d.to_dense()
        assert dense[0, 0] == 5
        assert dense[1, 1] == 5

    def test_empty_passthrough(self):
        coo = CooMatrix.empty((2, 2))
        assert coo.deduplicate().nnz == 0


class TestTransformations:
    def test_transpose(self):
        dense = random_dense(1)
        coo = CooMatrix.from_dense(dense)
        assert np.array_equal(coo.transpose().to_dense(), dense.T)

    def test_row_slice_reindexes(self):
        dense = random_dense(2)
        coo = CooMatrix.from_dense(dense)
        sl = coo.row_slice(10, 20)
        assert sl.shape == (10, dense.shape[1])
        assert np.array_equal(sl.to_dense(), dense[10:20])

    def test_row_slice_bounds(self):
        with pytest.raises(IndexError):
            CooMatrix.empty((5, 5)).row_slice(0, 6)

    def test_col_slice(self):
        dense = random_dense(3)
        coo = CooMatrix.from_dense(dense)
        assert np.array_equal(coo.col_slice(2, 6).to_dense(), dense[:, 2:6])

    def test_remap_rows(self):
        coo = CooMatrix(np.array([0, 2]), np.array([0, 1]), (3, 2))
        mapping = np.array([1, 99, 0])
        out = coo.remap_rows(mapping, 2)
        dense = out.to_dense()
        assert dense[1, 0] and dense[0, 1]

    def test_remap_rows_range_checked(self):
        coo = CooMatrix(np.array([0]), np.array([0]), (1, 1))
        with pytest.raises(ValueError, match="out-of-range"):
            coo.remap_rows(np.array([5]), 2)

    def test_concatenate(self):
        a = CooMatrix(np.array([0]), np.array([0]), (2, 2))
        b = CooMatrix(np.array([1]), np.array([1]), (2, 2))
        merged = a.concatenate(b)
        assert merged.nnz == 2

    def test_concatenate_shape_mismatch(self):
        a = CooMatrix.empty((2, 2))
        b = CooMatrix.empty((3, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            a.concatenate(b)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000), width=st.sampled_from([8, 16, 32, 64]))
    def test_bitmatrix_roundtrip(self, seed, width):
        # A batch is frozen into a packed BitMatrix straight from its COO
        # coordinates; duplicates collapse in the pack.
        dense = random_dense(seed)
        coo = CooMatrix.from_dense(dense)
        doubled = coo.concatenate(coo)
        packed = BitMatrix.from_coo(doubled.rows, doubled.cols, *coo.shape, width)
        assert np.array_equal(packed.to_dense(), dense)

    def test_nbytes_positive(self):
        coo = CooMatrix.from_dense(random_dense(4))
        assert coo.nbytes == coo.nnz * 16
