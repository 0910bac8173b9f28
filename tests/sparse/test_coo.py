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
        assert np.array_equal(coo.to_dense(), dense)

    def test_from_dense_keeps_the_nonzero_pattern(self):
        dense = np.array([[0, 2], [3, 0]])
        assert np.array_equal(CooMatrix.from_dense(dense).to_dense(), dense != 0)

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
        assert not coo.to_dense().any()

    def test_bounds_checked(self):
        with pytest.raises(ValueError, match="row index"):
            CooMatrix(np.array([5]), np.array([0]), (3, 3))
        with pytest.raises(ValueError, match="column index"):
            CooMatrix(np.array([0]), np.array([9]), (3, 3))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal-length"):
            CooMatrix(np.array([0, 1]), np.array([0]), (3, 3))


class TestTransformations:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000), width=st.sampled_from([8, 16, 32, 64]))
    def test_bitmatrix_roundtrip(self, seed, width):
        # A batch is frozen into a packed BitMatrix straight from its COO
        # coordinates; duplicates collapse in the pack.
        dense = random_dense(seed)
        coo = CooMatrix.from_dense(dense)
        rows, cols = np.tile(coo.rows, 2), np.tile(coo.cols, 2)
        packed = BitMatrix.from_coo(rows, cols, *coo.shape, width)
        assert np.array_equal(packed.to_dense(), dense)

    def test_nbytes_positive(self):
        coo = CooMatrix.from_dense(random_dense(4))
        assert coo.nbytes == coo.nnz * 16
