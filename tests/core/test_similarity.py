"""End-to-end tests for the SimilarityAtScale driver."""

import numpy as np
import pytest

from repro import SimilarityConfig, jaccard_similarity
from repro.core import similarity
from repro.core.indicator import CooSource, SetSource, SyntheticSource
from repro.core.similarity import SimilarityAtScale
from repro.runtime import Machine, laptop, stampede2_knl
from repro.runtime.topology import ProcessorGrid
from repro.sparse.coo import CooMatrix
from tests.helpers import exact_jaccard, random_sets


@pytest.fixture
def sample_sets(rng):
    sets = random_sets(rng, n=11, m=400, max_size=50)
    sets[3] = set()  # keep one empty sample in play
    return sets


class TestCorrectness:
    def test_matches_bruteforce_default(self, sample_sets):
        result = jaccard_similarity(sample_sets)
        assert np.allclose(result.similarity, exact_jaccard(sample_sets))

    @pytest.mark.parametrize("p", [1, 2, 4, 9, 16])
    def test_rank_count_invariance(self, sample_sets, p):
        result = jaccard_similarity(sample_sets, machine=Machine(laptop(p)))
        assert np.allclose(result.similarity, exact_jaccard(sample_sets))

    @pytest.mark.parametrize("batches", [1, 2, 5, 17])
    def test_batch_count_invariance(self, sample_sets, batches):
        result = jaccard_similarity(
            sample_sets, machine=Machine(laptop(4)), batch_count=batches
        )
        assert np.allclose(result.similarity, exact_jaccard(sample_sets))

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_bit_width_invariance(self, sample_sets, width):
        result = jaccard_similarity(
            sample_sets, machine=Machine(laptop(4)), bit_width=width
        )
        assert np.allclose(result.similarity, exact_jaccard(sample_sets))

    @pytest.mark.parametrize("strategy", ["allgather", "transpose", "off"])
    def test_filter_strategy_invariance(self, sample_sets, strategy):
        result = jaccard_similarity(
            sample_sets, machine=Machine(laptop(4)), filter_strategy=strategy
        )
        assert np.allclose(result.similarity, exact_jaccard(sample_sets))

    def test_replication_invariance(self, sample_sets):
        cfg = SimilarityConfig(replication=2, validate=True)
        result = jaccard_similarity(
            sample_sets, machine=Machine(laptop(8)), config=cfg
        )
        assert np.allclose(result.similarity, exact_jaccard(sample_sets))

    def test_reduce_every_batch_invariance(self, sample_sets):
        cfg = SimilarityConfig(replication=2, reduce_every_batch=True,
                               batch_count=3)
        result = jaccard_similarity(
            sample_sets, machine=Machine(laptop(8)), config=cfg
        )
        assert np.allclose(result.similarity, exact_jaccard(sample_sets))

    def test_1d_allreduce_path(self, sample_sets):
        # replication = p: a 1 x 1 face, B all-reduced after every batch.
        result = jaccard_similarity(
            sample_sets,
            machine=Machine(laptop(4)),
            replication=4,
            reduce_every_batch=True,
        )
        assert (result.grid_q, result.grid_c) == (1, 4)
        assert np.allclose(result.similarity, exact_jaccard(sample_sets))

    def test_1d_allreduce_reduces_every_batch(self, sample_sets):
        # The strawman all-reduces B after every batch; the deferred form
        # of the same c = p grid reduces once and gives the same answer.
        results = {}
        for eager in (True, False):
            results[eager] = jaccard_similarity(
                sample_sets, machine=Machine(laptop(4)), replication=4,
                batch_count=3, reduce_every_batch=eager,
            )
        eager, deferred = results[True], results[False]
        assert np.array_equal(eager.similarity, deferred.similarity)
        assert (
            eager.cost.communication_bytes > deferred.cost.communication_bytes
        )

    def test_distance_is_one_minus_similarity(self, sample_sets):
        result = jaccard_similarity(sample_sets)
        assert np.allclose(result.distance, 1.0 - result.similarity)

    def test_intersections_and_sizes(self, sample_sets):
        result = jaccard_similarity(sample_sets)
        sizes = np.array([len(s) for s in sample_sets])
        assert np.array_equal(result.sample_sizes, sizes)
        for i, si in enumerate(sample_sets):
            for j, sj in enumerate(sample_sets):
                assert result.intersections[i, j] == len(set(si) & set(sj))

    def test_synthetic_source(self):
        src = SyntheticSource(m=300, n=8, density=0.1, seed=5)
        result = jaccard_similarity(src, machine=Machine(laptop(4)))
        # Reassemble ground truth from the same source.
        dense = np.zeros((300, 8), dtype=bool)
        coo = src.read_batch(0, 300, 0, 1)
        dense[coo.rows, coo.cols] = True
        sets = [set(np.flatnonzero(dense[:, j]).tolist()) for j in range(8)]
        assert np.allclose(result.similarity, exact_jaccard(sets))

    def test_coo_source(self, rng):
        dense = rng.random((120, 7)) < 0.15
        src = CooSource(CooMatrix.from_dense(dense))
        result = jaccard_similarity(src, machine=Machine(laptop(4)))
        sets = [set(np.flatnonzero(dense[:, j]).tolist()) for j in range(7)]
        assert np.allclose(result.similarity, exact_jaccard(sets))


class TestPipelinedSchedule:
    @pytest.mark.parametrize(
        "layout",
        [{}, {"replication": 4, "reduce_every_batch": True}],
        ids=["summa", "1d_allreduce"],
    )
    def test_bit_exact_with_serial(self, sample_sets, layout):
        results = {}
        for mode in ("off", "double_buffer"):
            results[mode] = jaccard_similarity(
                sample_sets, machine=Machine(laptop(4)), batch_count=5,
                pipeline=mode, **layout,
            )
        a, b = results["off"], results["double_buffer"]
        assert np.array_equal(a.similarity, b.similarity)
        assert np.array_equal(a.intersections, b.intersections)
        assert np.array_equal(a.sample_sizes, b.sample_sizes)

    def test_bit_exact_with_replication(self, sample_sets):
        results = {}
        for mode in ("off", "double_buffer"):
            cfg = SimilarityConfig(
                replication=2, batch_count=3, pipeline=mode,
                reduce_every_batch=True,
            )
            results[mode] = jaccard_similarity(
                sample_sets, machine=Machine(laptop(8)), config=cfg
            )
        assert np.array_equal(
            results["off"].similarity, results["double_buffer"].similarity
        )

    def test_overlap_reduces_simulated_time(self):
        src = SyntheticSource(m=40_000, n=64, density=0.05, seed=3)
        results = {}
        for mode in ("off", "double_buffer"):
            results[mode] = jaccard_similarity(
                src, machine=Machine(laptop(4)), batch_count=6,
                gather_result=False, pipeline=mode,
            )
        serial, piped = results["off"], results["double_buffer"]
        assert piped.overlap_saved_seconds > 0
        assert piped.simulated_seconds == pytest.approx(
            serial.simulated_seconds - piped.overlap_saved_seconds, rel=0.05
        )

    def test_batch_stage_timings_recorded(self, sample_sets):
        result = jaccard_similarity(
            sample_sets, machine=Machine(laptop(4)), batch_count=4,
            pipeline="double_buffer",
        )
        assert result.pipeline_mode == "double_buffer"
        for b in result.batches:
            assert b.prepare_seconds > 0
            assert b.gram_seconds > 0
            assert b.overlap_saved_seconds >= 0
            assert b.simulated_seconds == pytest.approx(
                b.prepare_seconds + b.gram_seconds - b.overlap_saved_seconds
            )
        # Nothing follows the last batch's Gram, so nothing was hidden.
        assert result.batches[-1].overlap_saved_seconds == 0.0

    def test_serial_mode_credits_nothing(self, sample_sets):
        result = jaccard_similarity(
            sample_sets, machine=Machine(laptop(4)), batch_count=4
        )
        assert result.pipeline_mode == "off"
        assert result.overlap_saved_seconds == 0.0
        assert result.cost.overlap_credited_seconds == 0.0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="pipeline"):
            SimilarityConfig(pipeline="triple_buffer")


class TestEdgeCases:
    def test_single_sample(self):
        result = jaccard_similarity([{1, 2, 3}])
        assert result.similarity.shape == (1, 1)
        assert result.similarity[0, 0] == 1.0

    def test_all_empty_samples(self):
        result = jaccard_similarity([set(), set()], config=SimilarityConfig())
        # J(empty, empty) = 1 by definition (§II-A).
        assert np.allclose(result.similarity, 1.0)

    def test_identical_samples(self):
        result = jaccard_similarity([{1, 2}, {1, 2}, {1, 2}])
        assert np.allclose(result.similarity, 1.0)

    def test_disjoint_samples(self):
        result = jaccard_similarity([{1}, {2}, {3}])
        assert np.allclose(result.similarity, np.eye(3))

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            jaccard_similarity([])

    def test_bad_input_type(self):
        with pytest.raises(TypeError, match="IndicatorSource"):
            SimilarityAtScale().run(42)

    def test_config_and_overrides_conflict(self):
        with pytest.raises(TypeError, match="not both"):
            jaccard_similarity([{1}], config=SimilarityConfig(), bit_width=8)


class TestResultMetadata:
    def test_batches_recorded(self, sample_sets):
        result = jaccard_similarity(
            sample_sets, machine=Machine(laptop(4)), batch_count=4
        )
        assert result.batch_count == 4
        assert all(b.simulated_seconds >= 0 for b in result.batches)
        assert result.batches[0].row_lo == 0
        assert result.batches[-1].row_hi == result.m

    def test_cost_isolated_between_runs(self, sample_sets):
        machine = Machine(laptop(4))
        r1 = jaccard_similarity(sample_sets, machine=machine)
        r2 = jaccard_similarity(sample_sets, machine=machine)
        assert r1.simulated_seconds == pytest.approx(
            r2.simulated_seconds, rel=0.05
        )

    def test_gather_off_skips_arrays(self, sample_sets):
        result = jaccard_similarity(
            sample_sets, machine=Machine(laptop(4)), gather_result=False
        )
        assert result.similarity is None
        assert result.simulated_seconds > 0

    def test_projected_total(self, sample_sets):
        result = jaccard_similarity(
            sample_sets, machine=Machine(laptop(4)), batch_count=4
        )
        projected = result.projected_total_seconds(100)
        assert projected == pytest.approx(result.mean_batch_seconds * 100)

    def test_summary_renders(self, sample_sets):
        result = jaccard_similarity(sample_sets)
        text = result.summary()
        assert "SimilarityAtScale" in text
        assert "grid" in text

    def test_summary_puts_measured_time_beside_the_model(self, sample_sets):
        machine = Machine(laptop(4))
        jaccard_similarity(sample_sets, machine=machine)  # a run before
        result = jaccard_similarity(sample_sets, machine=machine)
        assert {"read", "filter", "pack", "spgemm", "reduce", "gather"} <= set(
            result.measured_s
        )
        # The run's own delta, not the machine's running total.
        assert sum(result.measured_s.values()) <= result.wall_s
        assert result.measured_s["filter"] < machine.ledger.measured_s["filter"]
        table = result.summary().split("\n\n")[-1].splitlines()
        assert table[0].split() == ["phase", "modelled", "measured", "ratio"]
        rows = {line.split()[0]: line for line in table[2:]}
        assert set(rows) == set(result.measured_s) | {"unphased"}
        assert rows["filter"].endswith("x")

    def test_grid_recorded(self, sample_sets):
        result = jaccard_similarity(sample_sets, machine=Machine(laptop(16)))
        assert result.active_ranks <= 16
        assert result.grid_q >= 1


class TestScalingShape:
    def test_communication_drops_with_summa_vs_1d(self, rng):
        # Pin replication to 1 so the SUMMA path runs a genuine 4x4 face
        # (the auto-planner would otherwise replicate the tiny B fully,
        # which degenerates to the same traffic as the 1-D strawman:
        # replication = p with a per-batch all-reduce).
        sets = random_sets(rng, n=64, m=6000, max_size=600)
        m_summa = Machine(laptop(16))
        m_1d = Machine(laptop(16))
        r_s = jaccard_similarity(
            sets, machine=m_summa, gather_result=False, batch_count=1,
            replication=1,
        )
        r_1 = jaccard_similarity(
            sets, machine=m_1d, gather_result=False, batch_count=1,
            replication=16, reduce_every_batch=True,
        )
        assert r_s.grid_q == 4
        assert (
            r_s.cost.communication_bytes < r_1.cost.communication_bytes
        )

    def test_simulated_time_improves_with_ranks(self, rng):
        src = SyntheticSource(m=20_000, n=64, density=0.02, seed=9)
        times = []
        for p in (1, 4, 16):
            r = jaccard_similarity(
                src, machine=Machine(stampede2_knl(1, ranks_per_node=p)),
                gather_result=False, batch_count=2,
            )
            times.append(r.simulated_seconds)
        assert times[2] < times[0]


class TestFloat32Stage:
    """The driver stages each layer's ``B`` in float32 and flushes it to
    int64 before any entry could lose exactness; the answers and the
    ledger must equal the int64 path's bit for bit."""

    # 128 rows a batch: 16 words, which 1, 2 and 8 layers split evenly.
    M, BATCHES, WIDTH = 7 * 128, 7, 8

    @pytest.fixture
    def source(self, rng):
        # One full sample keeps every row nonzero, so each batch gives
        # every layer the same bit-row count.
        sets = [set(range(self.M))] + random_sets(rng, n=9, m=self.M, max_size=300)
        return SetSource(sets, m=self.M)


    def run(self, source, monkeypatch, bound, policy, replication, every):
        monkeypatch.setattr(similarity, "EXACT_FLOAT32_ROWS", bound)
        held = []
        real_collect = similarity._StagedGram.collect

        def collect(self):
            # Whether a flush (or the int64 route) ran before the fold.
            held.append(self._exact is not None)
            return real_collect(self)

        monkeypatch.setattr(similarity._StagedGram, "collect", collect)
        cfg = SimilarityConfig(
            batch_count=self.BATCHES, bit_width=self.WIDTH,
            kernel_policy=policy, replication=replication,
            reduce_every_batch=every,
        )
        result = jaccard_similarity(source, machine=Machine(laptop(8)), config=cfg)
        return result, held

    @pytest.mark.parametrize("every", [False, True], ids=["deferred", "every-batch"])
    @pytest.mark.parametrize("replication", [1, 2, 8])
    @pytest.mark.parametrize("policy", ["blocked", "bitpacked", "outer"])
    @pytest.mark.parametrize("case", ["every", "few", "over", "none"])
    def test_equal_to_the_int64_path(
        self, source, monkeypatch, case, policy, replication, every
    ):
        want, _ = self.run(source, monkeypatch, 0, policy, replication, every)
        rows = self.M // self.BATCHES // replication  # per layer and batch
        bound = {
            "every": rows + 1,  # two batches reach it: flush every batch
            "few": 3 * rows + 1,  # flush every third batch
            "over": rows,  # each batch alone reaches it: int64 route
            "none": 2**24,
        }[case]
        got, held = self.run(source, monkeypatch, bound, policy, replication, every)
        assert got.grid_c == replication
        assert {b.kernel for b in got.batches} == {policy}
        assert np.array_equal(got.intersections, want.intersections)
        assert np.array_equal(got.similarity, want.similarity)
        assert np.array_equal(got.sample_sizes, want.sample_sizes)
        assert got.cost == want.cost
        # Per-batch reduction (c > 1 only) folds each batch alone, so
        # only the int64 route leaves an int64 B behind there.
        per_batch = every and replication > 1
        flushed = case == "over" or (case in ("every", "few") and not per_batch)
        assert held and set(held) == {flushed}

    def test_stage_flushes_before_the_bound(self, monkeypatch):
        monkeypatch.setattr(similarity, "EXACT_FLOAT32_ROWS", 10)
        grid = ProcessorGrid(Machine(laptop(1)).world, 1, 1, 1)
        gram = similarity._StagedGram(grid, 0, 2)
        staged = gram.target(4)
        assert staged.blocks[(0, 0)].dtype == np.float32
        staged.blocks[(0, 0)] += 4
        assert gram.target(5) is staged  # 9 staged rows: still exact
        staged.blocks[(0, 0)] += 5
        fresh = gram.target(1)  # 10 would reach the bound: flush first
        assert fresh is not staged and fresh.blocks[(0, 0)].dtype == np.float32
        fresh.blocks[(0, 0)] += 1
        exact = gram.target(10)  # at the bound alone: straight into int64
        assert exact.blocks[(0, 0)].dtype == np.int64
        exact.blocks[(0, 0)] += 10
        total = gram.collect()
        assert total is exact
        assert np.array_equal(total.blocks[(0, 0)], np.full((2, 2), 20))
        # The layer is empty afterwards: a new batch starts a new stage.
        again = gram.target(3)
        assert again.blocks[(0, 0)].dtype == np.float32
        assert not again.blocks[(0, 0)].any()
        assert gram.collect().blocks[(0, 0)].dtype == np.int64
