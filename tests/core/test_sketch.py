"""Tests for the sketch core: MinHash, b-bit MinHash, HyperLogLog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import (
    BBitMinHashSketch,
    ESTIMATORS,
    HyperLogLogSketch,
    KMinValuesSketch,
    SKETCH_ESTIMATORS,
    estimate_bbit_jaccard,
    estimate_rows,
    hash_values,
    hll_cardinality,
    hll_precision_for,
    make_sketch,
    pack_lanes,
    sketch_error_bound,
    splitmix64,
    stack_payloads,
    unpack_lanes,
)

value_sets = st.sets(st.integers(min_value=0, max_value=5000), max_size=400)


def exact_jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b) if (a | b) else 1.0


class TestHashPrimitives:
    def test_deterministic(self):
        v = np.arange(100)
        assert np.array_equal(hash_values(v, 7), hash_values(v, 7))

    def test_seed_changes_hashes(self):
        v = np.arange(100)
        assert not np.array_equal(hash_values(v, 1), hash_values(v, 2))

    def test_splitmix_bijective_on_sample(self):
        x = np.arange(10_000, dtype=np.uint64)
        assert np.unique(splitmix64(x)).size == x.size

    def test_baseline_reexports_same_primitives(self):
        # The serial baseline and the sketch subsystem must agree
        # bit-for-bit on what a hash is.
        from repro.baselines import minhash as baseline

        assert baseline.hash_values is hash_values
        assert baseline.splitmix64 is splitmix64


class TestPackLanes:
    @given(
        bits=st.integers(min_value=1, max_value=16),
        k=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, bits, k, seed):
        rng = np.random.default_rng(seed)
        lanes = rng.integers(0, 2**bits, size=k).astype(np.uint64)
        words = pack_lanes(lanes, bits)
        assert words.dtype == np.uint64
        assert words.size == -(-(k * bits) // 64)
        assert np.array_equal(unpack_lanes(words, bits, k), lanes)
        # A stacked [n, n_words] block unpacks row by row.
        block = unpack_lanes(np.stack([words, words[::-1]]), bits, k)
        assert np.array_equal(block[0], lanes)
        assert np.array_equal(block[1], unpack_lanes(words[::-1], bits, k))

    def test_rejects_oversized_values(self):
        with pytest.raises(ValueError, match="exceed"):
            pack_lanes(np.array([8], dtype=np.uint64), 3)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError, match="bits"):
            pack_lanes(np.zeros(4, dtype=np.uint64), 0)
        with pytest.raises(ValueError, match="bits"):
            unpack_lanes(np.zeros(4, dtype=np.uint64), 17, 2)

    def test_rejects_short_word_array(self):
        with pytest.raises(ValueError, match="cannot hold"):
            unpack_lanes(np.zeros(1, dtype=np.uint64), 16, 100)


class TestKMinValues:
    def test_empty_set(self):
        sk = KMinValuesSketch.from_values([], 16)
        assert sk.hashes.size == 0
        assert sk.n_values == 0
        assert sk.jaccard(KMinValuesSketch.from_values([], 16)) == 1.0

    def test_empty_vs_nonempty(self):
        a = KMinValuesSketch.from_values([], 16)
        b = KMinValuesSketch.from_values(range(50), 16)
        assert a.jaccard(b) == 0.0

    def test_size_exceeding_universe_is_exact(self):
        a_set, b_set = set(range(60)), set(range(30, 90))
        a = KMinValuesSketch.from_values(a_set, 1024)
        b = KMinValuesSketch.from_values(b_set, 1024)
        assert a.jaccard(b) == pytest.approx(exact_jaccard(a_set, b_set))

    @given(values=value_sets, seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_streaming_equals_one_shot(self, values, seed):
        # Rank-partitioned (cyclic) insertion must reproduce the same
        # sketch as a single bulk insertion — seed determinism across
        # ranks and batches.
        one_shot = KMinValuesSketch.from_values(values, 32, seed=seed)
        streamed = KMinValuesSketch(size=32, seed=seed)
        arr = np.array(sorted(values), dtype=np.int64)
        for r in range(3):
            streamed.update(arr[r::3])
        assert np.array_equal(one_shot.hashes, streamed.hashes)
        assert one_shot.n_values == streamed.n_values == len(values)

    @given(a=value_sets, b=value_sets)
    @settings(max_examples=40, deadline=None)
    def test_merge_is_union_sketch(self, a, b):
        sa = KMinValuesSketch.from_values(a, 24)
        sb = KMinValuesSketch.from_values(b, 24)
        merged = sa.merge(sb)
        direct = KMinValuesSketch.from_values(a | b, 24)
        assert np.array_equal(merged.hashes, direct.hashes)
        # Merged cardinality stays in the exact [max, sum] window.
        assert max(len(a), len(b)) <= merged.n_values <= len(a) + len(b)

    def test_merge_unsaturated_counts_union_exactly(self):
        sa = KMinValuesSketch.from_values(range(20), 64)
        sb = KMinValuesSketch.from_values(range(10, 40), 64)
        assert sa.merge(sb).n_values == 40

    def test_merge_saturated_estimates_union(self):
        sa = KMinValuesSketch.from_values(range(5000), 64)
        sb = KMinValuesSketch.from_values(range(5000, 10000), 64)
        merged = sa.merge(sb)
        assert 5000 <= merged.n_values <= 10000
        # The KMV estimate should land well inside the window, not on
        # the old max(a, b) floor.
        assert merged.n_values > 7000

    @given(a=value_sets, b=value_sets)
    @settings(max_examples=30, deadline=None)
    def test_estimate_is_bounded_and_symmetric(self, a, b):
        sa = KMinValuesSketch.from_values(a, 64)
        sb = KMinValuesSketch.from_values(b, 64)
        est = sa.jaccard(sb)
        assert 0.0 <= est <= 1.0
        assert est == sb.jaccard(sa)

    def test_incompatible_raises(self):
        with pytest.raises(ValueError, match="incompatible"):
            KMinValuesSketch.from_values([1], 8).jaccard(
                KMinValuesSketch.from_values([1], 16)
            )

    def test_bound_shrinks_with_size(self):
        assert (
            KMinValuesSketch(size=1024).error_bound()
            < KMinValuesSketch(size=64).error_bound()
        )


def lcg_values(seed: int, n: int) -> np.ndarray:
    """``n`` distinct values from integer LCGs (independent of NumPy's
    generators): 64 streams, each seeded by a splitmix64 of ``seed`` and
    its index, advance in lockstep, one row of draws per step."""
    state = splitmix64(np.arange(64, dtype=np.uint64) + np.uint64(64 * seed))
    rows = []
    for _ in range(-(-(2 * n + 64) // 64)):
        state = state * np.uint64(6364136223846793005) + np.uint64(1442695040888963407)
        rows.append(state >> np.uint64(33))
    out = np.concatenate(rows).astype(np.int64)
    first = np.sort(np.unique(out, return_index=True)[1])
    return out[first[:n]]


class TestBBitMinHash:
    def test_empty_rules(self):
        empty = BBitMinHashSketch.from_values([], 64)
        other = BBitMinHashSketch.from_values(range(100), 64)
        assert empty.jaccard(BBitMinHashSketch.from_values([], 64)) == 1.0
        assert empty.jaccard(other) == 0.0
        assert other.jaccard(empty) == 0.0
        assert (empty.mins == np.iinfo(np.uint64).max).all()

    def test_one_value_fills_every_lane_alike(self):
        sk = BBitMinHashSketch.from_values([12345], 256, bits=16)
        assert (sk.mins != np.iinfo(np.uint64).max).sum() == 1
        fps = sk.fingerprints()
        assert (fps == fps[0]).all()

    @given(values=st.sets(st.integers(0, 10**6), min_size=1, max_size=40),
           seed=st.integers(0, 50), k=st.sampled_from([64, 96, 256]))
    @settings(max_examples=30, deadline=None)
    def test_identical_sets_densify_alike(self, values, seed, k):
        # Mostly-empty bins borrow by a key that depends on the seed and
        # the bin only, so equal sets get equal lanes however they were
        # built.
        a = BBitMinHashSketch.from_values(values, k, seed=seed)
        b = BBitMinHashSketch(size=k, seed=seed)
        for v in sorted(values, reverse=True):
            b.update([v])
        assert np.array_equal(a.fingerprints(), b.fingerprints())
        assert a.jaccard(b) == 1.0

    def test_bins_cover_a_k_that_is_not_a_power_of_two(self):
        sk = BBitMinHashSketch.from_values(range(20_000), 96)
        assert sk.mins.shape == (96,)
        assert (sk.mins != np.iinfo(np.uint64).max).all()
        # Bin i holds hashes from the i-th 96th of the 64-bit range.
        frac = sk.mins / 2.0**64 * 96 - np.arange(96)
        assert ((frac >= 0) & (frac < 1)).all()
        half = BBitMinHashSketch.from_values(range(10_000), 96)
        rest = BBitMinHashSketch.from_values(range(10_000, 20_000), 96)
        assert np.array_equal(half.merge(rest).fingerprints(), sk.fingerprints())

    @pytest.mark.parametrize("n", [5, 20, 300, 7000])
    def test_accuracy_within_the_error_bound(self, n):
        # Pairs of an n-value and an ~1.2n-value set at J ~ 0.1 / 0.5 /
        # 0.8 from an integer LCG: the estimates are unbiased and, as
        # the 95% bound says, at least 9 in 10 of them land within
        # error_bound().
        k, nb = 256, n + max(1, n // 5)
        errors = []
        for target in (0.1, 0.5, 0.8):
            shared = round((n + nb) * target / (1 + target))
            truth = shared / (n + nb - shared)
            for rep in range(40):
                pool = lcg_values(1000 * n + 100 * round(10 * target) + rep, n + nb - shared)
                a = BBitMinHashSketch.from_values(pool[:n], k, seed=rep)
                b = BBitMinHashSketch.from_values(
                    np.concatenate((pool[:shared], pool[n:])), k, seed=rep
                )
                errors.append(a.jaccard(b) - truth)
        errors = np.array(errors)
        bound = BBitMinHashSketch(size=k).error_bound()
        assert np.mean(np.abs(errors) <= bound) >= 0.9
        assert abs(errors.mean()) <= 0.01

    def test_identical_sets_estimate_one(self):
        a = BBitMinHashSketch.from_values(range(500), 128)
        b = BBitMinHashSketch.from_values(range(500), 128)
        assert a.jaccard(b) == 1.0

    @given(values=value_sets, seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_streaming_equals_one_shot(self, values, seed):
        one_shot = BBitMinHashSketch.from_values(values, 32, seed=seed)
        streamed = BBitMinHashSketch(size=32, seed=seed)
        arr = np.array(sorted(values), dtype=np.int64)
        for r in range(4):
            streamed.update(arr[r::4])
        assert np.array_equal(one_shot.mins, streamed.mins)
        assert np.array_equal(one_shot.fingerprints(), streamed.fingerprints())

    def test_merge_is_union_sketch(self):
        a, b = set(range(200)), set(range(150, 400))
        sa = BBitMinHashSketch.from_values(a, 64)
        sb = BBitMinHashSketch.from_values(b, 64)
        direct = BBitMinHashSketch.from_values(a | b, 64)
        merged = sa.merge(sb)
        assert np.array_equal(merged.mins, direct.mins)
        assert np.array_equal(merged.fingerprints(), direct.fingerprints())
        assert len(a | b) - 150 <= merged.n_values <= len(a) + len(b)

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_collision_bound_on_disjoint_sets(self, seed):
        # Disjoint sets share no lane minima, so lane fingerprints
        # match with probability C = 2^-b; over k lanes the match
        # fraction concentrates within a few sigma of C.
        bits, k = 4, 2048
        a = BBitMinHashSketch.from_values(
            range(0, 3000), k, bits=bits, seed=seed
        )
        b = BBitMinHashSketch.from_values(
            range(3000, 6000), k, bits=bits, seed=seed
        )
        matches = float((a.fingerprints() == b.fingerprints()).mean())
        c = a.collision_floor
        sigma = (c * (1 - c) / k) ** 0.5
        assert abs(matches - c) < 6 * sigma
        # ... and the corrected estimator reads ~0 off that floor.
        assert a.jaccard(b) <= 6 * sigma / (1 - c)

    def test_packed_round_trip(self):
        sk = BBitMinHashSketch.from_values(range(1000), 96, bits=5)
        assert np.array_equal(
            unpack_lanes(sk.packed(), 5, 96), sk.fingerprints()
        )

    def test_estimator_correction(self):
        assert estimate_bbit_jaccard(1.0, 8) == 1.0
        assert estimate_bbit_jaccard(2.0**-8, 8) == 0.0
        assert estimate_bbit_jaccard(0.0, 8) == 0.0  # clipped

    def test_bound_shrinks_with_lanes(self):
        assert (
            BBitMinHashSketch(size=2048).error_bound()
            < BBitMinHashSketch(size=128).error_bound()
        )


class TestHyperLogLog:
    def test_empty(self):
        sk = HyperLogLogSketch.from_values([], 8)
        assert sk.cardinality() == 0.0
        assert sk.jaccard(HyperLogLogSketch.from_values([], 8)) == 1.0

    def test_cardinality_within_relative_bound(self):
        for true_n in (100, 5_000, 50_000):
            sk = HyperLogLogSketch.from_values(range(true_n), 11)
            rel = abs(sk.cardinality() - true_n) / true_n
            assert rel < 5 * 1.04 / (1 << 11) ** 0.5

    @given(
        a=value_sets,
        b=value_sets,
        c=value_sets,
        precision=st.integers(min_value=4, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_associative_and_commutative(self, a, b, c, precision):
        sa = HyperLogLogSketch.from_values(a, precision)
        sb = HyperLogLogSketch.from_values(b, precision)
        sc = HyperLogLogSketch.from_values(c, precision)
        left = sa.merge(sb).merge(sc)
        right = sa.merge(sb.merge(sc))
        assert np.array_equal(left.registers, right.registers)
        assert np.array_equal(
            sa.merge(sb).registers, sb.merge(sa).registers
        )
        # Merge equals the sketch of the union exactly.
        direct = HyperLogLogSketch.from_values(a | b | c, precision)
        assert np.array_equal(left.registers, direct.registers)

    def test_merge_idempotent(self):
        sk = HyperLogLogSketch.from_values(range(100), 6)
        assert np.array_equal(sk.merge(sk).registers, sk.registers)

    def test_merged_sketch_jaccard_is_sound(self):
        # Regression: the merged sketch of two disjoint halves must
        # estimate J ~= 1 against a one-shot sketch of the whole set
        # (the old max(a, b) cardinality accounting gave ~0.5).
        a = HyperLogLogSketch.from_values(range(5000), 12)
        b = HyperLogLogSketch.from_values(range(5000, 10000), 12)
        whole = HyperLogLogSketch.from_values(range(10000), 12)
        merged = a.merge(b)
        assert 9000 <= merged.n_values <= 10000
        assert merged.jaccard(whole) >= 1.0 - whole.error_bound()

    def test_jaccard_tracks_truth(self):
        a_set, b_set = set(range(8000)), set(range(4000, 12000))
        a = HyperLogLogSketch.from_values(a_set, 12)
        b = HyperLogLogSketch.from_values(b_set, 12)
        est = a.jaccard(b)
        assert abs(est - exact_jaccard(a_set, b_set)) <= a.error_bound()

    def test_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            HyperLogLogSketch(precision=3)

    def test_row_api_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            hll_cardinality(np.zeros(16, dtype=np.uint8))


class TestRowKernel:
    """One query against a stacked block == the per-pair references."""

    SIZE, BITS = 16, 5

    @staticmethod
    def _block_sets(query: set, other: set) -> list[set]:
        # Empty, smaller than s, identical, disjoint, nested both ways,
        # and an arbitrary overlap.
        return [
            set(),
            set(sorted(other)[:3]),
            set(query),
            {v + 10_000 for v in other},
            set(sorted(query)[: len(query) // 2]),
            query | other,
            other,
        ]

    @given(query=value_sets, other=value_sets, seed=st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_bottom_s_equals_baseline_estimator(self, query, other, seed):
        from repro.baselines.minhash import jaccard_estimate
        from repro.semantics.wminhash import WeightedMinHashSketch

        def plain(values):
            return KMinValuesSketch.from_values(values, self.SIZE, seed)

        def weighted(values):
            vals = sorted(values)
            counts = [1 + v % 3 for v in vals]
            return WeightedMinHashSketch.from_weighted(
                vals, counts, self.SIZE, seed
            )

        sets = self._block_sets(query, other)
        for family, build in (
            ("minhash", plain), ("weighted_minhash", weighted)
        ):
            q = build(query)
            block = [build(s) for s in sets]
            rows, lengths = stack_payloads(
                family, [sk.hashes for sk in block], self.SIZE
            )
            assert rows.shape == (len(sets), self.SIZE)
            got = estimate_rows(
                family, q.hashes, len(query), rows,
                np.array([len(s) for s in sets]), lengths,
            )
            want = [
                jaccard_estimate(q.hashes, sk.hashes, self.SIZE)
                for sk in block
            ]
            assert got.tolist() == want
            assert got.tolist() == [q.jaccard(sk) for sk in block]

    @given(query=value_sets, other=value_sets, seed=st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_bbit_equals_scalar_li_koenig(self, query, other, seed):
        def build(values):
            return BBitMinHashSketch.from_values(
                values, self.SIZE, self.BITS, seed
            )

        def scalar(a, b):
            if a.n_values == 0 or b.n_values == 0:
                return float(a.n_values == b.n_values)
            matches = float((a.fingerprints() == b.fingerprints()).mean())
            c = 2.0**-self.BITS
            return min(1.0, max(0.0, (matches - c) / (1.0 - c)))

        sets = self._block_sets(query, other)
        q, block = build(query), [build(s) for s in sets]
        rows, _ = stack_payloads(
            "bbit_minhash", [sk.packed() for sk in block],
            self.SIZE, self.BITS,
        )
        got = estimate_rows(
            "bbit_minhash", q.fingerprints(), len(query), rows,
            np.array([len(s) for s in sets]), bits=self.BITS,
        )
        assert got.tolist() == [scalar(q, sk) for sk in block]
        assert got.tolist() == [q.jaccard(sk) for sk in block]

    @given(query=value_sets, other=value_sets, seed=st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_hll_equals_scalar_inclusion_exclusion(self, query, other, seed):
        def build(values):
            return HyperLogLogSketch.from_values(values, 5, seed)

        def scalar(a, b):
            if a.n_values == 0 or b.n_values == 0:
                return float(a.n_values == b.n_values)
            union = a.merge(b).cardinality()
            inter = a.n_values + b.n_values - union
            return min(1.0, max(0.0, inter / union))

        sets = self._block_sets(query, other)
        q, block = build(query), [build(s) for s in sets]
        rows, _ = stack_payloads("hll", [sk.registers for sk in block], 32)
        got = estimate_rows(
            "hll", q.registers, len(query), rows,
            np.array([len(s) for s in sets]),
        )
        assert got.tolist() == [scalar(q, sk) for sk in block]
        assert got.tolist() == [q.jaccard(sk) for sk in block]

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            estimate_rows(
                "simhash", np.zeros(4), 1, np.zeros((1, 4)), np.ones(1)
            )


class TestFactory:
    def test_estimator_names(self):
        assert ESTIMATORS[0] == "exact"
        assert set(SKETCH_ESTIMATORS) == {"minhash", "bbit_minhash", "hll"}

    def test_make_sketch_types(self):
        assert isinstance(make_sketch("minhash", 32), KMinValuesSketch)
        assert isinstance(make_sketch("bbit_minhash", 32), BBitMinHashSketch)
        assert isinstance(make_sketch("hll", 32), HyperLogLogSketch)

    def test_unknown_estimator(self):
        with pytest.raises(ValueError, match="estimator"):
            make_sketch("simhash", 32)

    def test_hll_precision_rounding(self):
        assert hll_precision_for(512) == 9
        assert hll_precision_for(513) == 10
        assert hll_precision_for(1) == 4
        with pytest.raises(ValueError, match="positive"):
            hll_precision_for(0)

    def test_error_bounds_all_estimators(self):
        for est in SKETCH_ESTIMATORS:
            bound = sketch_error_bound(est, 256)
            assert 0.0 < bound <= 1.0
