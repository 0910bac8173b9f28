"""Tests for the local Gram kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import spgemm
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

    @pytest.mark.parametrize("form", ["none", "same", "pair"])
    def test_out_accumulates(self, kernel, form, rng):
        x = rng.random((150, 6)) < 0.3
        y = x if form != "pair" else rng.random((150, 9)) < 0.3
        bx = BitMatrix.from_dense(x, 16)
        by = {"none": None, "same": bx, "pair": BitMatrix.from_dense(y, 16)}[form]
        fresh = kernel(bx, by)
        prior = rng.integers(-50, 50, size=fresh.value.shape)
        out = prior.copy()
        res = kernel(bx, by, out=out)
        assert res.value is out
        # B += X^T Y, not B = X^T Y; the model does not see out.
        assert np.array_equal(out, prior + x.astype(np.int64).T @ y)
        assert (res.flops, res.working_set_bytes) == (
            fresh.flops, fresh.working_set_bytes
        )

    @pytest.mark.parametrize("form", ["none", "same", "pair"])
    def test_float32_stage_matches_int64_out(self, kernel, form, rng):
        x = rng.random((150, 6)) < 0.3
        y = x if form != "pair" else rng.random((150, 9)) < 0.3
        bx = BitMatrix.from_dense(x, 16)
        by = {"none": None, "same": bx, "pair": BitMatrix.from_dense(y, 16)}[form]
        prior = rng.integers(0, 50, size=(6, y.shape[1]))
        wide = prior.copy()
        stage = prior.astype(np.float32)
        want = kernel(bx, by, out=wide)
        got = kernel(bx, by, out=stage)
        assert got.value is stage and stage.dtype == np.float32
        assert np.array_equal(stage, wide)
        # The stage dtype executes; the model charges an int64 B.
        assert (got.flops, got.working_set_bytes) == (
            want.flops, want.working_set_bytes
        )

    def test_out_accumulates_nothing_from_empty_operands(self, kernel):
        out = np.full((3, 2), 7, dtype=np.int64)
        res = kernel(BitMatrix.zeros(64, 3), BitMatrix.zeros(64, 2), out=out)
        assert res.value is out
        assert np.array_equal(out, np.full((3, 2), 7))

    @pytest.mark.parametrize(
        "bad", [np.zeros((4, 3), np.int64), np.zeros((3, 3), np.float64)]
    )
    def test_out_shape_and_dtype_checked(self, kernel, bad):
        with pytest.raises(ValueError, match="out must be int64"):
            kernel(BitMatrix.zeros(64, 3), out=bad)


class TestBlockedGemm:
    """The blocked kernel's executed body — float32 GEMM per word-row tile
    — against the dense reference and the popcount reference kernel."""

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    @pytest.mark.parametrize("form", ["none", "same", "pair"])
    def test_exact_for_every_width_and_form(self, width, form, rng):
        rows = 7 * width + 3  # ragged trailing word
        x = rng.random((rows, 13)) < 0.4
        y = x if form != "pair" else rng.random((rows, 5)) < 0.4
        bx = BitMatrix.from_dense(x, width)
        by = {"none": None, "same": bx, "pair": BitMatrix.from_dense(y, width)}[form]
        res = gram_popcount_blocked(bx, by)
        assert res.value.dtype == np.int64
        assert np.array_equal(res.value, x.astype(np.int64).T @ y)
        assert np.array_equal(res.value, gram_bitpacked(bx, by).value)
        if form != "pair":
            assert np.array_equal(res.value, gram_dense_reference(x))

    @pytest.mark.parametrize(
        "tile_bytes, exact_rows",
        [(1, 2**24), (3 * 20 * 64 * 4, 2**24), (2**30, 2 * 64 + 1)],
        ids=["one-word-steps", "three-word-steps", "exactness-capped"],
    )
    def test_several_gemm_tiles(self, monkeypatch, tile_bytes, exact_rows, rng):
        x = rng.random((11 * 64 + 5, 12)) < 0.5
        y = rng.random((11 * 64 + 5, 8)) < 0.5
        bx, by = BitMatrix.from_dense(x), BitMatrix.from_dense(y)
        one_tile = gram_popcount_blocked(bx, by)
        monkeypatch.setattr(spgemm, "EXEC_TILE_BYTES", tile_bytes)
        monkeypatch.setattr(spgemm, "EXACT_FLOAT32_ROWS", exact_rows)
        calls = []
        real_unpack = spgemm._unpack_tile

        def unpack(words):
            calls.append(words.shape[0])
            return real_unpack(words)

        monkeypatch.setattr(spgemm, "_unpack_tile", unpack)
        res = gram_popcount_blocked(bx, by)
        assert len(calls) > 2  # more than one GEMM step (two unpacks each)
        assert max(calls) * 64 < exact_rows
        assert np.array_equal(res.value, x.astype(np.int64).T @ y)
        assert (res.flops, res.working_set_bytes) == (
            one_tile.flops, one_tile.working_set_bytes
        )

    @pytest.mark.parametrize("form", ["none", "same"])
    def test_one_unpack_when_y_is_x(self, monkeypatch, form, rng):
        x = rng.random((11 * 64 + 5, 12)) < 0.5
        bx = BitMatrix.from_dense(x)
        twin = BitMatrix.from_dense(x)  # equal words, another object
        monkeypatch.setattr(spgemm, "EXEC_TILE_BYTES", 3 * 24 * 64 * 4)
        calls = []
        real_unpack = spgemm._unpack_tile

        def unpack(words):
            calls.append(words.shape[0])
            return real_unpack(words)

        monkeypatch.setattr(spgemm, "_unpack_tile", unpack)
        two = gram_popcount_blocked(bx, twin)
        two_calls = len(calls)
        calls.clear()
        one = gram_popcount_blocked(bx, None if form == "none" else bx)
        assert two_calls == 2 * len(calls) == 8  # four 3-word steps
        assert np.array_equal(one.value, two.value)
        assert np.array_equal(one.value, gram_dense_reference(x))

    @pytest.mark.parametrize(
        "rows, n_x, n_y", [(0, 4, 4), (64, 0, 3), (64, 3, 0)],
        ids=["no-word-rows", "no-x-columns", "no-y-columns"],
    )
    def test_empty_shapes(self, rows, n_x, n_y):
        res = gram_popcount_blocked(
            BitMatrix.zeros(rows, n_x), BitMatrix.zeros(rows, n_y)
        )
        assert res.value.shape == (n_x, n_y)
        assert res.value.dtype == np.int64
        assert (res.flops, res.working_set_bytes) == (0.0, 0.0)


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

