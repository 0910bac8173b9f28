"""Density-adaptive kernel dispatch: decision logic, new kernels, driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimilarityConfig, jaccard_similarity
from repro.core.analysis import expected_nonzero_rows, predicted_gram_kernel
from repro.core.indicator import SetSource, SyntheticSource
from repro.runtime import Machine, laptop
from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.dispatch import (
    KERNEL_POLICIES,
    choose_kernel,
    predict_kernel_ops,
    resolve_kernel,
)
from repro.sparse.spgemm import (
    gram_bitpacked,
    gram_dense_reference,
    gram_outer_pair,
    gram_popcount_blocked,
)
from tests.helpers import exact_jaccard

FIXED_POLICIES = tuple(p for p in KERNEL_POLICIES if p != "adaptive")


class TestChooseKernel:
    def test_hypersparse_routes_to_outer(self):
        d = choose_kernel(n_rows=100_000, n_cols=1024, nnz=120_000, bit_width=64)
        assert d.kernel == "outer"
        assert d.predicted_ops["outer"] < d.predicted_ops["blocked"]

    def test_dense_routes_to_blocked(self):
        d = choose_kernel(n_rows=10_000, n_cols=128, nnz=256_000, bit_width=64)
        assert d.kernel == "blocked"
        assert d.density == pytest.approx(0.2)

    def test_empty_batch_defaults_to_blocked(self):
        d = choose_kernel(n_rows=0, n_cols=64, nnz=0, bit_width=64)
        assert d.kernel == "blocked"
        assert d.density == 0.0
        assert all(v == 0.0 for v in d.predicted_ops.values())

    def test_all_zero_rows_defaults_to_blocked(self):
        # Nonzero window rows, but the filter removed every one of them.
        d = choose_kernel(n_rows=0, n_cols=64, nnz=0, bit_width=32)
        assert d.kernel == "blocked"

    def test_density_exactly_at_crossover_breaks_to_blocked(self):
        # With b=32, n=8 (triangular pairs 36) and rows=32w the modelled
        # costs tie *exactly* at nnz = 12w: outer = 8 * (12w)^2 / 32w =
        # 36w = blocked.  Ties must deterministically take the popcount
        # path.
        for w in (1, 10, 1000):
            d = choose_kernel(
                n_rows=32 * w, n_cols=8, nnz=12 * w, bit_width=32
            )
            assert d.predicted_ops["blocked"] == d.predicted_ops["outer"]
            assert d.kernel == "blocked"

    def test_forced_policy_overrides_adaptive_choice(self):
        for policy in FIXED_POLICIES:
            d = choose_kernel(
                n_rows=100_000, n_cols=1024, nnz=120_000, bit_width=64,
                policy=policy,
            )
            assert d.kernel == policy
            assert d.policy == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            choose_kernel(10, 10, 10, 64, policy="fastest")

    def test_resolve_kernel_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown gram kernel"):
            resolve_kernel("gpu")

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="kernel_policy"):
            SimilarityConfig(kernel_policy="fastest")

    def test_predicted_ops_scale_with_shape(self):
        small = predict_kernel_ops(1000, 64, 5000, 64)
        large = predict_kernel_ops(2000, 64, 10_000, 64)
        assert large["blocked"] > small["blocked"]
        assert large["outer"] > small["outer"]


class TestPlannerPrediction:
    def test_expected_rows_hypersparse_limit(self):
        # delta tiny: essentially every nonzero lands in its own row.
        assert expected_nonzero_rows(10**7, 1000, 500.0) == pytest.approx(
            500.0, rel=1e-3
        )

    def test_expected_rows_dense_limit(self):
        # nnz per row >> 1: every row survives.
        assert expected_nonzero_rows(1000, 100, 50_000) == pytest.approx(
            1000.0, rel=1e-3
        )

    def test_expected_rows_degenerate(self):
        assert expected_nonzero_rows(0, 10, 100) == 0.0
        assert expected_nonzero_rows(100, 10, 0) == 0.0

    def test_prediction_matches_runtime_on_uniform_source(self):
        for m, n, density in ((3000, 64, 0.2), (100_000, 256, 1e-4)):
            source = SyntheticSource(m=m, n=n, density=density, seed=5)
            result = jaccard_similarity(
                source, machine=Machine(laptop(4)), batch_count=2,
                gather_result=False,
            )
            assert result.planned_kernel is not None
            for batch in result.batches:
                assert batch.kernel == result.planned_kernel


class TestBlockedKernel:
    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 10_000),
        width=st.sampled_from([8, 16, 32, 64]),
        form=st.sampled_from(["none", "same", "pair"]),
    )
    def test_matches_reference(self, seed, width, form):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 200))
        dense = rng.random((m, int(rng.integers(1, 12)))) < 0.3
        x = BitMatrix.from_dense(dense, width)
        if form == "pair":
            other = rng.random((m, int(rng.integers(1, 12)))) < 0.3
            y = BitMatrix.from_dense(other, width)
            want = dense.astype(np.int64).T @ other.astype(np.int64)
        else:
            y = None if form == "none" else x
            want = gram_dense_reference(dense)
        res = gram_popcount_blocked(x, y)
        assert np.array_equal(res.value, want)
        assert np.array_equal(res.value, gram_bitpacked(x, y).value)

    def test_tiling_invariance(self, rng):
        x = rng.random((700, 7)) < 0.25
        y = rng.random((700, 11)) < 0.25
        bx, by = BitMatrix.from_dense(x), BitMatrix.from_dense(y)
        full = gram_popcount_blocked(bx, by).value
        for tile, bb in ((1, 64), (3, 512), (1024, 1 << 24)):
            got = gram_popcount_blocked(
                bx, by, word_tile=tile, block_bytes=bb
            ).value
            assert np.array_equal(got, full)

    @staticmethod
    def _one_tile_per_step(x, y=None, block_bytes=64 * 2**20, word_tile=128):
        """The kernel as Eq. 7 models it: one popcount-AND sweep per
        modelled (tile x block) step — the value, flops and working set
        the executed GEMM body must reproduce."""
        symmetric = y is None
        y = x if y is None else y
        w, n_x, n_y = x.n_word_rows, x.n_cols, y.n_cols
        out = np.zeros((n_x, n_y), dtype=np.int64)
        if w == 0 or n_x == 0 or n_y == 0:
            return out, 0.0, 0.0
        itemsize = x.words.dtype.itemsize
        tile = int(max(1, min(w, word_tile)))
        block = int(max(1, min(n_x, block_bytes // max(1, tile * n_y * itemsize))))
        for wlo in range(0, w, tile):
            xt, yt = x.words[wlo : wlo + tile], y.words[wlo : wlo + tile]
            for lo in range(0, n_x, block):
                clo = lo if symmetric else 0
                anded = xt[:, lo : lo + block, None] & yt[:, None, clo:]
                out[lo : lo + block, clo:] += np.bitwise_count(anded).sum(
                    axis=0, dtype=np.int64
                )
        if symmetric:
            out = np.triu(out)
            out = out + np.triu(out, k=1).T
        pairs = n_x * (n_x + 1) // 2 if symmetric else n_x * n_y
        working_set = float(
            tile * (min(block, n_x) + n_y) * itemsize
            + tile * min(block, n_x) * n_y * itemsize
            + out.nbytes
        )
        return out, float(w) * pairs, working_set

    @pytest.mark.parametrize(
        "rows, n_x, n_y, width, kwargs",
        [
            (400 * 64, 2, None, 64, {}),    # w >> n
            (4 * 64, 640, None, 64, {}),    # n >> w, symmetric
            (4 * 64, 640, 640, 64, {}),     # n >> w, pair (what SUMMA calls)
            (13 * 64, 320, 320, 64, {}),    # an allpairs_dense SUMMA block
            (100 * 64, 8, 8, 64, {}),       # a serve verify block
            (300, 33, 7, 64, {}),           # ragged trailing word
            (900, 40, 12, 8, {}),           # 113 byte-wide word rows
            (700, 9, 11, 32, {"word_tile": 3, "block_bytes": 512}),
            (5000, 6, None, 16, {"word_tile": 1024}),  # a tile > 2^16 bit rows
            (0, 5, None, 64, {}),           # empty: no word rows
            (64, 0, 3, 64, {}),             # empty: no x columns
            (64, 3, 0, 64, {}),             # empty: no y columns
        ],
    )
    def test_cache_sized_steps_change_neither_value_nor_model(
        self, rng, rows, n_x, n_y, width, kwargs
    ):
        """The executed float32 GEMM steps change neither the Gram nor
        what the ledger is charged for the modelled popcount sweep."""
        x = BitMatrix.from_dense(rng.random((rows, n_x)) < 0.35, width)
        y = (
            None if n_y is None
            else BitMatrix.from_dense(rng.random((rows, n_y)) < 0.35, width)
        )
        value, flops, working_set = self._one_tile_per_step(x, y, **kwargs)
        res = gram_popcount_blocked(x, y, **kwargs)
        assert res.value.dtype == np.int64
        assert np.array_equal(res.value, value)
        # == on purpose: both feed MachineSpec.compute_seconds.
        assert res.flops == flops
        assert res.working_set_bytes == working_set

    def test_cheaper_than_reference_sweep(self, rng):
        bm = BitMatrix.from_dense(rng.random((640, 16)) < 0.5)
        assert (
            gram_popcount_blocked(bm).flops < gram_bitpacked(bm).flops
        )

    def test_empty(self):
        res = gram_popcount_blocked(BitMatrix.zeros(0, 5))
        assert res.value.shape == (5, 5)
        assert res.flops == 0.0


class TestOuterPairKernel:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000), width=st.sampled_from([8, 32, 64]))
    def test_pairwise_matches_reference(self, seed, width):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 200))
        x = rng.random((m, int(rng.integers(1, 10)))) < 0.1
        y = rng.random((m, int(rng.integers(1, 10)))) < 0.1
        res = gram_outer_pair(
            BitMatrix.from_dense(x, width), BitMatrix.from_dense(y, width)
        )
        assert np.array_equal(res.value, x.astype(np.int64).T @ y.astype(np.int64))

    def test_symmetric_matches_reference(self, rng):
        dense = rng.random((300, 8)) < 0.05
        res = gram_outer_pair(BitMatrix.from_dense(dense))
        assert np.array_equal(res.value, gram_dense_reference(dense))

    def test_chunking_invariance(self, rng):
        x = rng.random((400, 9)) < 0.1
        y = rng.random((400, 6)) < 0.1
        bx, by = BitMatrix.from_dense(x), BitMatrix.from_dense(y)
        full = gram_outer_pair(bx, by).value
        for bb in (16, 256, 1 << 22):
            assert np.array_equal(
                gram_outer_pair(bx, by, block_bytes=bb).value, full
            )

    def test_flops_counts_row_pair_products(self, rng):
        x = rng.random((100, 5)) < 0.2
        y = rng.random((100, 5)) < 0.2
        res = gram_outer_pair(BitMatrix.from_dense(x), BitMatrix.from_dense(y))
        dx = x.sum(axis=1).astype(np.int64)
        dy = y.sum(axis=1).astype(np.int64)
        assert res.flops == float((dx * dy).sum())

    def test_empty_operands(self):
        res = gram_outer_pair(BitMatrix.zeros(64, 3), BitMatrix.zeros(64, 4))
        assert np.array_equal(res.value, np.zeros((3, 4), dtype=np.int64))
        assert res.flops == 0.0


class TestDriverDispatch:
    def _run(self, data, policy="adaptive", **overrides):
        config = SimilarityConfig(kernel_policy=policy, **overrides)
        return jaccard_similarity(
            data, machine=Machine(laptop(4)), config=config
        )

    def test_forced_policies_agree_bit_exactly(self, rng):
        sets = [
            set(rng.integers(0, 400, size=size).tolist())
            for size in (80, 70, 0, 3, 150, 1)
        ]
        results = {
            policy: self._run(sets, policy=policy, batch_count=3)
            for policy in KERNEL_POLICIES
        }
        reference = exact_jaccard(sets)
        for policy, result in results.items():
            assert np.allclose(result.similarity, reference), policy
            assert np.array_equal(
                result.intersections, results["adaptive"].intersections
            ), policy
        assert all(
            b.kernel == "outer" for b in results["outer"].batches
        )
        assert all(
            b.kernel == "bitpacked" for b in results["bitpacked"].batches
        )

    def test_all_zero_row_batch_routes_to_blocked_noop(self):
        # Rows [500, 1000) hold no attribute values: the second batch
        # survives filtering with zero rows and must no-op cleanly.
        sets = [{1, 2, 3}, {2, 3, 4}, {4, 5}]
        source = SetSource(sets, m=1000)
        result = jaccard_similarity(
            source, machine=Machine(laptop(4)),
            config=SimilarityConfig(batch_count=2),
        )
        empty = result.batches[1]
        assert empty.nnz == 0
        assert empty.nonzero_rows == 0
        assert empty.kernel == "blocked"
        assert empty.density == 0.0
        assert np.allclose(result.similarity, exact_jaccard(sets))

    def test_fully_empty_input_runs_under_every_policy(self):
        sets = [set(), set(), set()]
        for policy in KERNEL_POLICIES:
            result = self._run(sets, policy=policy)
            # J(empty, empty) = 1 by definition (paper §II-A).
            assert np.allclose(result.similarity, np.ones((3, 3)))

    def test_adaptive_switches_kernel_between_batches(self):
        # Batch 0 covers a dense row block, batch 1 a hypersparse tail:
        # the dispatcher must pick a different kernel for each.
        rng = np.random.default_rng(3)
        dense_rows, dense_cols = np.nonzero(rng.random((640, 24)) < 0.4)
        tail_count = 40
        tail_rows = rng.integers(640, 512_000, size=tail_count)
        tail_cols = rng.integers(0, 24, size=tail_count)
        rows = np.concatenate([dense_rows, tail_rows])
        cols = np.concatenate([dense_cols, tail_cols])
        source = SetSource([rows[cols == j] for j in range(24)], m=512_000)
        result = jaccard_similarity(
            source, machine=Machine(laptop(4)),
            config=SimilarityConfig(batch_count=2, gather_result=False),
        )
        assert result.batches[0].kernel == "blocked"
        assert result.batches[1].kernel == "outer"
        assert result.kernels_used == ("blocked", "outer")

    def test_dispatch_also_applies_to_1d_allreduce(self):
        source = SyntheticSource(m=100_000, n=64, density=1e-4, seed=9)
        result = jaccard_similarity(
            source, machine=Machine(laptop(4)),
            config=SimilarityConfig(
                replication=4, reduce_every_batch=True, batch_count=2,
                gather_result=False,
            ),
        )
        assert all(b.kernel == "outer" for b in result.batches)

    def test_ledger_charges_the_dispatched_kernel(self):
        source = SyntheticSource(m=2000, n=32, density=0.3, seed=4)
        result = jaccard_similarity(
            source, machine=Machine(laptop(4)), batch_count=2,
            gather_result=False,
        )
        spgemm = result.cost.phases["spgemm"]
        assert set(spgemm.kernel_flops) == {"blocked"}
        assert spgemm.kernel_flops["blocked"] > 0.0
        assert spgemm.kernel_seconds["blocked"] > 0.0
        assert "blocked" in result.cost.kernel_totals
        assert "kernel" in result.cost.report()

    def test_predicted_gram_kernel_exposed_via_analysis(self):
        decision = predicted_gram_kernel(
            m_rows=1_000_000, n_cols=512, nnz=10_000, bit_width=64
        )
        assert decision.kernel == "outer"
        decision = predicted_gram_kernel(
            m_rows=10_000, n_cols=128, nnz=300_000, bit_width=64
        )
        assert decision.kernel == "blocked"
