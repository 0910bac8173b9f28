"""Tests for the distributed sketch exchange and the sketch driver path."""

import numpy as np
import pytest

from repro import SimilarityConfig, jaccard_similarity
from repro.core.sketch import SKETCH_ESTIMATORS, estimate_rows
from repro.runtime.engine import Machine
from repro.runtime.machine import laptop
from repro.sparse.coo import CooMatrix
from repro.sparse.sketch_exchange import SketchFamily, exchange_and_estimate
from repro.util.partition import round_robin_indices


def family_sets():
    return [
        set(range(0, 900)),
        set(range(300, 1200)),
        set(range(600, 1500)),
        set(range(5000, 5100)),
        set(),
    ]


def exact_matrix(sets):
    n = len(sets)
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            u = sets[i] | sets[j]
            out[i, j] = out[j, i] = (
                len(sets[i] & sets[j]) / len(u) if u else 1.0
            )
    return out


class TestOwnedSamples:
    """Ranks own samples cyclically, the reader layout of the sources."""

    def test_cyclic_partition(self):
        parts = [round_robin_indices(10, 4, r) for r in range(4)]
        assert sorted(np.concatenate(parts).tolist()) == list(range(10))
        assert parts[1].tolist() == [1, 5, 9]

    def test_more_ranks_than_samples(self):
        assert round_robin_indices(2, 4, 3).size == 0


class TestSketchFamily:
    def test_update_from_coo_routes_by_column(self):
        fam = SketchFamily(
            estimator="minhash",
            sample_ids=np.array([0, 2], dtype=np.int64),
            size=64, bits=8, seed=0,
        )
        chunk = CooMatrix(
            rows=np.array([0, 1, 2, 3]),
            cols=np.array([0, 2, 0, 2]),
            shape=(4, 3),
        )
        fam.update_from_coo(chunk, row_offset=10)
        assert fam.sizes().tolist() == [2, 2]

    def test_update_rejects_foreign_sample(self):
        fam = SketchFamily(
            estimator="minhash",
            sample_ids=np.array([0], dtype=np.int64),
            size=8, bits=8, seed=0,
        )
        chunk = CooMatrix(
            rows=np.array([0]), cols=np.array([1]), shape=(1, 2)
        )
        with pytest.raises(ValueError, match="not owned"):
            fam.update_from_coo(chunk, 0)

    def test_bad_estimator(self):
        with pytest.raises(ValueError, match="estimator"):
            SketchFamily(
                estimator="exact",
                sample_ids=np.zeros(0, dtype=np.int64),
                size=8, bits=8, seed=0,
            )


class TestEstimators:
    def test_minhash_empty_rules(self):
        rows = np.array([[0, 0, 0], [1, 2, 3]], np.uint64)
        sizes, lengths = np.array([0, 3]), np.array([0, 3])
        empty = np.empty(0, np.uint64)
        est = estimate_rows("minhash", empty, 0, rows, sizes, lengths)
        assert est.tolist() == [1.0, 0.0]  # both empty; empty vs non-empty
        est = estimate_rows("minhash", rows[1], 3, rows, sizes, lengths)
        assert est.tolist() == [0.0, 1.0]

    def test_bbit_empty_rules(self):
        fps = np.zeros((2, 16), dtype=np.uint64)
        est = estimate_rows("bbit_minhash", fps[0], 0, fps, np.array([0, 5]))
        assert est.tolist() == [1.0, 0.0]

    def test_hll_empty_rules(self):
        regs = np.zeros((2, 16), dtype=np.uint8)
        est = estimate_rows("hll", regs[0], 0, regs, np.array([0, 0]))
        assert est.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("estimator", SKETCH_ESTIMATORS)
    @pytest.mark.parametrize("ranks", [1, 3])
    def test_all_pairs_matrix_is_the_matrix_of_pair_estimates(
        self, estimator, ranks
    ):
        # Small sketches, so the estimates are genuinely lossy.
        sets = family_sets() + [set(range(850, 870)), set()]
        n = len(sets)
        fams = []
        for r in range(ranks):
            ids = round_robin_indices(n, ranks, r)
            fam = SketchFamily(
                estimator=estimator, sample_ids=ids, size=32, bits=6, seed=3
            )
            for i, j in enumerate(ids):
                fam.sketches[i].update(sorted(sets[int(j)]))
            fams.append(fam)
        out = exchange_and_estimate(Machine(laptop(ranks)).world, fams, n)
        sketches = {
            int(j): sk
            for fam in fams
            for j, sk in zip(fam.sample_ids, fam.sketches)
        }
        want = np.array(
            [
                [1.0 if i == j else sketches[i].jaccard(sketches[j])
                 for j in range(n)]
                for i in range(n)
            ]
        )
        assert np.array_equal(out.similarity, want)
        assert 0.0 < out.similarity[0, 1] < 1.0


class TestExchange:
    def test_family_count_must_match_comm(self):
        machine = Machine(laptop(4))
        fams = [
            SketchFamily(
                estimator="minhash",
                sample_ids=round_robin_indices(4, 2, r),
                size=8, bits=8, seed=0,
            )
            for r in range(2)
        ]
        with pytest.raises(ValueError, match="one family per rank"):
            exchange_and_estimate(machine.world, fams, 4)

    def test_mismatched_family_config_rejected(self):
        machine = Machine(laptop(2))
        fams = [
            SketchFamily(
                estimator="bbit_minhash",
                sample_ids=round_robin_indices(4, 2, r),
                size=256 if r == 0 else 128, bits=8, seed=0,
            )
            for r in range(2)
        ]
        with pytest.raises(ValueError, match="disagree"):
            exchange_and_estimate(machine.world, fams, 4)

    def test_outcome_fields(self):
        machine = Machine(laptop(2))
        sets = family_sets()
        fams = []
        for r in range(2):
            ids = round_robin_indices(len(sets), 2, r)
            fam = SketchFamily(
                estimator="minhash", sample_ids=ids,
                size=2048, bits=8, seed=0,
            )
            for i, j in enumerate(ids):
                fam.sketches[i].update(sorted(sets[int(j)]))
            fams.append(fam)
        out = exchange_and_estimate(machine.world, fams, len(sets))
        # Sketch size exceeds every universe, so the estimate is exact.
        assert np.allclose(out.similarity, exact_matrix(sets))
        assert out.sample_sizes.tolist() == [len(s) for s in sets]
        assert out.total_values == sum(len(s) for s in sets)
        assert out.sketch_payload_bytes > 0
        assert 0 < out.error_bound <= 1


class TestDriverPath:
    @pytest.mark.parametrize("estimator", SKETCH_ESTIMATORS)
    def test_estimates_within_bound(self, estimator):
        sets = family_sets()
        result = jaccard_similarity(
            sets,
            machine=Machine(laptop(4)),
            config=SimilarityConfig(
                estimator=estimator, sketch_size=1024, validate=True
            ),
        )
        err = np.abs(result.similarity - exact_matrix(sets)).max()
        assert err <= result.error_bound
        assert f"estimator={estimator} " in result.summary()
        assert result.distance is not None
        assert np.allclose(result.distance, 1.0 - result.similarity)
        assert all(
            b.kernel == f"sketch:{estimator}" for b in result.batches
        )

    def test_minhash_oversized_sketch_is_exact(self):
        sets = family_sets()
        exact = jaccard_similarity(sets, machine=Machine(laptop(4)))
        est = jaccard_similarity(
            sets,
            machine=Machine(laptop(4)),
            config=SimilarityConfig(estimator="minhash", sketch_size=4096),
        )
        assert np.allclose(est.similarity, exact.similarity)

    def test_codec_engages_wire_counters(self):
        sets = family_sets()
        result = jaccard_similarity(
            sets,
            machine=Machine(laptop(4)),
            config=SimilarityConfig(
                estimator="bbit_minhash", sketch_size=256,
                wire_codec="adaptive",
            ),
        )
        assert result.wire_raw_bytes > 0
        assert result.wire_encoded_bytes > 0
        assert result.sketch_payload_bytes > 0

    def test_deterministic_across_rank_counts(self):
        # The same (seed, values) must estimate the same J whatever the
        # machine layout — sketches are rank-layout independent.
        sets = family_sets()
        r2 = jaccard_similarity(
            sets, machine=Machine(laptop(2)),
            config=SimilarityConfig(estimator="minhash", sketch_size=64),
        )
        r8 = jaccard_similarity(
            sets, machine=Machine(laptop(8)),
            config=SimilarityConfig(estimator="minhash", sketch_size=64),
        )
        assert np.array_equal(r2.similarity, r8.similarity)

    def test_deterministic_across_batch_counts(self):
        sets = family_sets()
        one = jaccard_similarity(
            sets, machine=Machine(laptop(4)),
            config=SimilarityConfig(
                estimator="bbit_minhash", sketch_size=128, batch_count=1
            ),
        )
        many = jaccard_similarity(
            sets, machine=Machine(laptop(4)),
            config=SimilarityConfig(
                estimator="bbit_minhash", sketch_size=128, batch_count=5
            ),
        )
        assert np.array_equal(one.similarity, many.similarity)

    def test_sketch_seed_changes_estimate_hashes(self):
        sets = family_sets()
        a = jaccard_similarity(
            sets, machine=Machine(laptop(4)),
            config=SimilarityConfig(estimator="minhash", sketch_size=32),
        )
        b = jaccard_similarity(
            sets, machine=Machine(laptop(4)),
            config=SimilarityConfig(
                estimator="minhash", sketch_size=32, sketch_seed=99
            ),
        )
        # Different permutations, same bounded target: matrices differ
        # in general but both stay within the analytic bound.
        assert a.error_bound == b.error_bound

    def test_gather_result_off(self):
        result = jaccard_similarity(
            family_sets(), machine=Machine(laptop(4)),
            config=SimilarityConfig(
                estimator="hll", sketch_size=64, gather_result=False
            ),
        )
        assert result.similarity is None
        assert result.error_bound is not None
        assert result.sketch_payload_bytes > 0

    def test_summary_prints_bound(self):
        result = jaccard_similarity(
            family_sets(), machine=Machine(laptop(4)),
            config=SimilarityConfig(estimator="minhash", sketch_size=256),
        )
        text = result.summary()
        assert "estimator=minhash" in text
        assert "estimated J +/-" in text

    def test_pipeline_modes_agree(self):
        sets = family_sets()
        configs = [
            SimilarityConfig(
                estimator="minhash", sketch_size=128,
                batch_count=4, pipeline=mode,
            )
            for mode in ("off", "double_buffer")
        ]
        mats = [
            jaccard_similarity(
                sets, machine=Machine(laptop(4)), config=cfg
            ).similarity
            for cfg in configs
        ]
        assert np.array_equal(mats[0], mats[1])
