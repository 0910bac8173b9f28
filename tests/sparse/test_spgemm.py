"""Tests for the local Gram kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.spgemm import (
    colsum_bitpacked,
    gram_bitpacked,
    gram_dense_reference,
    gram_outer_pair,
    gram_popcount_blocked,
)

#: Every Gram kernel the dispatcher can route a batch to.
KERNELS = [gram_bitpacked, gram_popcount_blocked, gram_outer_pair]


def random_dense(seed, max_m=150, max_n=12, density=None):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, max_m))
    n = int(rng.integers(1, max_n))
    d = density if density is not None else float(rng.choice([0.02, 0.1, 0.5]))
    return rng.random((m, n)) < d


class TestGramBitpacked:
    @settings(max_examples=50)
    @given(seed=st.integers(0, 10_000), width=st.sampled_from([8, 16, 32, 64]))
    def test_matches_reference(self, seed, width):
        dense = random_dense(seed)
        res = gram_bitpacked(BitMatrix.from_dense(dense, width))
        assert np.array_equal(res.value, gram_dense_reference(dense))

    def test_blocking_invariance(self, rng):
        dense = rng.random((200, 17)) < 0.2
        bm = BitMatrix.from_dense(dense)
        full = gram_bitpacked(bm).value
        for bb in (128, 1024, 1 << 16):
            assert np.array_equal(gram_bitpacked(bm, block_bytes=bb).value, full)

    def test_asymmetric_product(self, rng):
        x = rng.random((90, 5)) < 0.3
        y = rng.random((90, 8)) < 0.3
        res = gram_bitpacked(BitMatrix.from_dense(x), BitMatrix.from_dense(y))
        expect = x.astype(np.int64).T @ y.astype(np.int64)
        assert np.array_equal(res.value, expect)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bit widths"):
            gram_bitpacked(BitMatrix.zeros(8, 1, 8), BitMatrix.zeros(8, 1, 16))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="word-row"):
            gram_bitpacked(BitMatrix.zeros(64, 1), BitMatrix.zeros(128, 1))

    def test_empty_matrix(self):
        res = gram_bitpacked(BitMatrix.zeros(0, 3))
        assert res.value.shape == (3, 3)
        assert res.flops == 0.0

    def test_flops_grow_with_rows(self, rng):
        small = BitMatrix.from_dense(rng.random((64, 4)) < 0.5)
        large = BitMatrix.from_dense(rng.random((640, 4)) < 0.5)
        assert gram_bitpacked(large).flops > gram_bitpacked(small).flops

    def test_sparse_cost_model_below_dense(self, rng):
        # Near-empty packed blocks are charged like an input-sparse
        # kernel: far fewer ops than the dense word sweep.
        dense = np.zeros((6400, 16), dtype=bool)
        dense[0, 0] = True
        sparse_block = BitMatrix.from_dense(dense)
        full_block = BitMatrix.from_dense(rng.random((6400, 16)) < 0.9)
        assert (
            gram_bitpacked(sparse_block).flops
            < 0.01 * gram_bitpacked(full_block).flops
        )

    def test_diagonal_equals_column_counts(self, rng):
        dense = rng.random((64, 6)) < 0.4
        res = gram_bitpacked(BitMatrix.from_dense(dense))
        assert np.array_equal(np.diag(res.value), dense.sum(axis=0))

    def test_flops_at_most_the_dense_word_sweep(self, rng):
        bm = BitMatrix.from_dense(rng.random((640, 9)) < 0.6)
        pairs = 9 * 10 // 2
        assert gram_bitpacked(bm).flops <= 2.0 * bm.n_word_rows * pairs


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
class TestKernelsAgree:
    """The kernels differ in cost, never in value."""

    @pytest.mark.parametrize("density", [0.01, 0.2, 0.7])
    def test_symmetric_matches_reference(self, kernel, density, rng):
        dense = rng.random((333, 10)) < density
        res = kernel(BitMatrix.from_dense(dense))
        assert res.value.dtype == np.int64
        assert np.array_equal(res.value, gram_dense_reference(dense))

    def test_pair_form_matches_symmetric_form(self, kernel, rng):
        bm = BitMatrix.from_dense(rng.random((200, 7)) < 0.3, 32)
        assert np.array_equal(kernel(bm, bm).value, kernel(bm).value)

    def test_no_rows(self, kernel):
        res = kernel(BitMatrix.zeros(0, 4))
        assert np.array_equal(res.value, np.zeros((4, 4), dtype=np.int64))
        assert res.flops == 0.0


class TestColsums:
    def test_bitpacked(self, rng):
        dense = rng.random((70, 5)) < 0.4
        res = colsum_bitpacked(BitMatrix.from_dense(dense))
        assert np.array_equal(res.value, dense.sum(axis=0))

    def test_equals_gram_diagonal(self, rng):
        bm = BitMatrix.from_dense(rng.random((150, 6)) < 0.25, 16)
        assert np.array_equal(
            colsum_bitpacked(bm).value, np.diag(gram_bitpacked(bm).value)
        )

    def test_no_rows(self):
        res = colsum_bitpacked(BitMatrix.zeros(0, 3))
        assert np.array_equal(res.value, np.zeros(3, dtype=np.int64))

