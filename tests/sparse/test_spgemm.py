"""Tests for the local Gram kernels."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
        "n_x, n_y", [(12, 8), (40, 30)], ids=["narrow-random", "wide"]
    )
    @pytest.mark.parametrize(
        "tile_words, exact_rows",
        [(0, 2**24), (3, 2**24), (2**30, 2 * 64 + 1)],
        ids=["one-word-steps", "three-word-steps", "exactness-capped"],
    )
    def test_several_gemm_tiles(
        self, monkeypatch, tile_words, exact_rows, n_x, n_y, rng
    ):
        # Random rows repeat no pattern, so the narrow pair stays on GEMM
        # like the wide one (n_x + n_y > 64) does.
        x = rng.random((11 * 64 + 5, n_x)) < 0.5
        y = rng.random((11 * 64 + 5, n_y)) < 0.5
        bx, by = BitMatrix.from_dense(x), BitMatrix.from_dense(y)
        one_tile = gram_popcount_blocked(bx, by)
        tile_bytes = max(1, tile_words * (n_x + n_y) * 64 * 4)
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

    @pytest.mark.parametrize("n", [12, 70], ids=["narrow-random", "wide"])
    @pytest.mark.parametrize("form", ["none", "same"])
    def test_one_unpack_when_y_is_x(self, monkeypatch, form, n, rng):
        # The twin pair has 2n columns; at n = 12 the random rows keep
        # both forms on GEMM, at n = 70 their width does.
        x = rng.random((11 * 64 + 5, n)) < 0.5
        bx = BitMatrix.from_dense(x)
        twin = BitMatrix.from_dense(x)  # equal words, another object
        monkeypatch.setattr(spgemm, "EXEC_TILE_BYTES", 3 * 2 * n * 64 * 4)
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


def pattern_rows(rng, kind, rows, n):
    """A ``rows x n`` boolean block: all zero, one row repeated, rows
    drawn from a pool of a few patterns, or every row a distinct pattern
    (as many as ``n`` bits allow)."""
    if kind == "zero":
        return np.zeros((rows, n), dtype=bool)
    if kind == "single":
        return np.tile(rng.random(n) < 0.5, (rows, 1))
    if kind == "repeated":
        pool = rng.random((int(rng.integers(1, 9)), n)) < 0.5
        return pool[rng.integers(0, len(pool), size=rows)]
    low = min(n, 64)  # distinct in the first 64 columns, random past them
    rows = min(rows, 2**low)
    flip = rng.integers(0, 2**low, dtype=np.uint64)
    codes = rng.permutation(rows).astype(np.uint64) ^ flip
    bits = (codes[:, None] >> np.arange(low, dtype=np.uint64)) & 1
    return np.hstack([bits.astype(bool), rng.random((rows, n - low)) < 0.5])


class BodySpy:
    """Counts the calls into each body of the blocked kernel."""

    def __init__(self, mp):
        self.masks = self.unpacks = 0
        real_masks, real_unpack = spgemm._row_masks, spgemm._unpack_tile

        def masks(*args):
            self.masks += 1
            return real_masks(*args)

        def unpack(words):
            self.unpacks += 1
            return real_unpack(words)

        mp.setattr(spgemm, "_row_masks", masks)
        mp.setattr(spgemm, "_unpack_tile", unpack)


class TestPatternBody:
    """The blocked kernel's narrow body — one mask per bit row, equal
    masks grouped by a sort, ``U^T diag(count) U`` over the distinct
    patterns — against the dense and popcount references, and the rule
    that chooses it."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 65),
        width=st.sampled_from([8, 16, 32, 64]),
        form=st.sampled_from(["none", "same", "pair"]),
        kind=st.sampled_from(["empty", "zero", "single", "repeated", "distinct"]),
        out_dtype=st.sampled_from([None, np.int64, np.float32]),
    )
    @example(seed=1, n=65, width=64, form="same", kind="single", out_dtype=None)
    @example(seed=2, n=65, width=8, form="pair", kind="distinct", out_dtype=np.float32)
    @example(seed=3, n=64, width=16, form="pair", kind="repeated", out_dtype=np.int64)
    @example(seed=4, n=64, width=64, form="none", kind="distinct", out_dtype=None)
    @example(seed=5, n=1, width=32, form="none", kind="zero", out_dtype=np.float32)
    @example(seed=6, n=17, width=8, form="same", kind="empty", out_dtype=np.int64)
    def test_matches_references(self, seed, n, width, form, kind, out_dtype):
        assume(form != "pair" or n > 1)
        rng = np.random.default_rng(seed)
        dense = pattern_rows(
            rng, kind, 0 if kind == "empty" else int(rng.integers(1, 300)), n
        )
        split = int(rng.integers(1, n)) if form == "pair" else n
        x = dense[:, :split]
        y = dense[:, split:] if form == "pair" else x
        bx = BitMatrix.from_dense(x, width)
        by = {"none": None, "same": bx, "pair": BitMatrix.from_dense(y, width)}[form]
        want = x.astype(np.int64).T @ y
        assert np.array_equal(gram_bitpacked(bx, by).value, want)
        if form != "pair":
            assert np.array_equal(gram_dense_reference(x), want)
        prior = rng.integers(0, 50, size=want.shape)

        def run(**patches):
            out = None if out_dtype is None else prior.astype(out_dtype)
            with pytest.MonkeyPatch.context() as mp:
                for name, fn in patches.items():
                    mp.setattr(spgemm, name, fn)
                spy = BodySpy(mp)
                res = gram_popcount_blocked(bx, by, out=out)
            assert res.value is out or out is None
            assert res.value.dtype == (out_dtype or np.int64)
            assert np.array_equal(res.value, want if out is None else prior + want)
            return res, spy

        gemm, gemm_spy = run(_pattern_gram=lambda x, y: None)
        assert gemm_spy.masks == 0
        chosen, spy = run()
        assert (chosen.flops, chosen.working_set_bytes) == (
            gemm.flops, gemm.working_set_bytes
        )
        if dense.shape[0] == 0:
            return
        if n > 64 or (kind == "distinct" and dense.shape[0] > 64):
            assert (spy.masks, spy.unpacks > 0) == (0, True)
        elif kind in ("zero", "single"):
            assert (spy.masks, spy.unpacks) == (1, 0)
        if n <= 64:
            forced, forced_spy = run(_repeats_patterns=lambda parts, m: True)
            assert (forced_spy.masks, forced_spy.unpacks) == (1, 0)
            assert (forced.flops, forced.working_set_bytes) == (
                gemm.flops, gemm.working_set_bytes
            )

    @pytest.mark.parametrize(
        "n_x, n_y", [(65, None), (40, 30)], ids=["same-65", "pair-70"]
    )
    def test_wide_blocks_take_gemm(self, monkeypatch, n_x, n_y, rng):
        dense = np.tile(rng.random(n_x + (n_y or 0)) < 0.5, (5000, 1))
        bx = BitMatrix.from_dense(dense[:, :n_x])
        by = bx if n_y is None else BitMatrix.from_dense(dense[:, n_x:])
        spy = BodySpy(monkeypatch)
        res = gram_popcount_blocked(bx, by)
        assert spy.masks == 0 and spy.unpacks > 0
        assert np.array_equal(
            res.value, dense[:, :n_x].astype(np.int64).T @ dense[:, -(n_y or n_x):]
        )

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("width", [8, 64])
    def test_repeat_free_narrow_blocks_take_gemm(self, monkeypatch, n, width, rng):
        dense = rng.random((4000, n)) < 0.5
        bm = BitMatrix.from_dense(dense, width)
        spy = BodySpy(monkeypatch)
        res = gram_popcount_blocked(bm, bm)
        assert spy.masks == 0 and spy.unpacks > 0
        assert np.array_equal(res.value, gram_dense_reference(dense))

    @pytest.mark.parametrize("head", ["distinct", "repeated"])
    def test_rule_samples_only_the_leading_rows(self, monkeypatch, head, rng):
        sample = spgemm.PATTERN_SAMPLE_ROWS
        lead = pattern_rows(rng, head, sample, 64)
        dense = np.vstack([lead, pattern_rows(rng, "single", 8 * sample, 64)])
        spy = BodySpy(monkeypatch)
        res = gram_popcount_blocked(BitMatrix.from_dense(dense))
        assert spy.masks == (head == "repeated")
        assert np.array_equal(res.value, gram_dense_reference(dense))

    @pytest.mark.parametrize("form", ["none", "same", "pair"])
    def test_pattern_body_ignores_gemm_tiling(self, monkeypatch, form, rng):
        # The narrow twin of TestBlockedGemm's tiling tests: with GEMM
        # tiles of one word and a low exactness cap, a repetitive 12 (+ 8)
        # column block is one pass of the pattern body, no unpack at all.
        dense = pattern_rows(rng, "repeated", 11 * 64 + 5, 20)
        x, y = dense[:, :12], dense[:, 12:]
        bx = BitMatrix.from_dense(x)
        by = {"none": None, "same": bx, "pair": BitMatrix.from_dense(y)}[form]
        one_tile = gram_popcount_blocked(bx, by)
        monkeypatch.setattr(spgemm, "EXEC_TILE_BYTES", 1)
        monkeypatch.setattr(spgemm, "EXACT_FLOAT32_ROWS", 2 * 64 + 1)
        spy = BodySpy(monkeypatch)
        res = gram_popcount_blocked(bx, by)
        assert (spy.masks, spy.unpacks) == (1, 0)
        want = x.astype(np.int64).T @ (y if form == "pair" else x)
        assert np.array_equal(res.value, want)
        assert (res.flops, res.working_set_bytes) == (
            one_tile.flops, one_tile.working_set_bytes
        )


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

