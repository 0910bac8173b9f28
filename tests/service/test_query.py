"""Tests for the threshold/top-k query cascade.

The central invariant: whatever the prefilter depth, the returned
matches equal the brute-force exact result (the sketch stage is
conservative, the size stage is a theorem).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimilarityConfig
from repro.core.sketch import estimate_rows
from repro.runtime.engine import Machine
from repro.runtime.machine import laptop
from repro.service import IndexStore, SimilarityIndex
from repro.service import query as query_module
from repro.service import store as store_module
from repro.service.query import (
    exact_jaccard,
    size_ratio_window,
    sketch_estimates,
)

M = 3_000


def build_index(tmp_path, sets, name="idx", **store_kwargs):
    store_kwargs.setdefault("sketch_size", 128)
    store = IndexStore.create(tmp_path / name, m=M, **store_kwargs)
    for i, s in enumerate(sets):
        store.append(f"g{i}", s)
    return store


def engine(store, prefilter="cascade", **config_kwargs):
    return SimilarityIndex(
        store,
        config=SimilarityConfig(query_prefilter=prefilter, **config_kwargs),
    )


@pytest.fixture
def family_sets(rng):
    """Clustered sets: a few tight families plus background noise."""
    sets = []
    for base in range(4):
        core = set(range(base * 300, base * 300 + 40))
        for _ in range(4):
            s = set(core)
            s |= set(rng.integers(0, M, size=6).tolist())
            sets.append(s)
    for _ in range(8):
        sets.append(set(rng.integers(0, M, size=rng.integers(0, 50)).tolist()))
    return sets


class TestSizeRatioBound:
    def test_window_is_a_theorem(self):
        # Any pair with J >= t must fall inside the window.
        for a_size in (1, 10, 100):
            for t in (0.1, 0.5, 0.9, 1.0):
                lo, hi = size_ratio_window(a_size, t)
                # Extremes: B subset of A at the ratio boundary.
                assert lo <= a_size <= hi

    def test_window_halfopen_cases(self):
        assert size_ratio_window(100, 0.5) == (50, 200)
        assert size_ratio_window(0, 0.5) == (0, 0)
        lo, hi = size_ratio_window(100, 0.0)
        assert lo == 0 and hi > 10**15

    @given(
        a=st.integers(min_value=0, max_value=500),
        b=st.integers(min_value=0, max_value=500),
        t=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_excludes_a_qualifying_pair(self, a, b, t):
        # J <= min/max, so any pair outside the window has J < t.
        lo, hi = size_ratio_window(a, t)
        if not lo <= b <= hi:
            j_upper = (
                1.0 if a == b == 0 else min(a, b) / max(a, b)
            )
            assert j_upper < t


class TestExactJaccard:
    def test_empty_rules(self):
        e = np.empty(0, dtype=np.int64)
        a = np.array([1, 2])
        assert exact_jaccard(e, e) == 1.0
        assert exact_jaccard(e, a) == 0.0
        assert exact_jaccard(a, e) == 0.0

    def test_matches_set_arithmetic(self, rng):
        for _ in range(20):
            a = set(rng.integers(0, 50, size=rng.integers(0, 30)).tolist())
            b = set(rng.integers(0, 50, size=rng.integers(0, 30)).tolist())
            expect = (
                1.0 if not (a | b) else len(a & b) / len(a | b)
            )
            got = exact_jaccard(
                np.array(sorted(a), dtype=np.int64),
                np.array(sorted(b), dtype=np.int64),
            )
            assert got == pytest.approx(expect)


class TestThresholdQueries:
    @pytest.mark.parametrize("prefilter", ["off", "size", "cascade"])
    @pytest.mark.parametrize("threshold", [0.1, 0.3, 0.6, 0.9])
    def test_equals_brute_force(
        self, tmp_path, family_sets, prefilter, threshold
    ):
        store = build_index(tmp_path, family_sets)
        res = engine(store, prefilter).query_values(
            family_sets[0], threshold=threshold
        )
        ref = engine(store, "off").query_values(
            family_sets[0], threshold=threshold
        )
        assert [(m.name, m.similarity) for m in res.matches] == [
            (m.name, m.similarity) for m in ref.matches
        ]

    @pytest.mark.parametrize("family", ["minhash", "bbit_minhash", "hll"])
    def test_every_sketch_family_prefilters_exactly(
        self, tmp_path, family_sets, family
    ):
        store = build_index(
            tmp_path, family_sets, name=f"idx_{family}", families=(family,)
        )
        eng = engine(store, "cascade", estimator=family)
        assert eng.plan().family == family
        res = eng.query_values(family_sets[0], threshold=0.5)
        ref = engine(store, "off").query_values(
            family_sets[0], threshold=0.5
        )
        assert [(m.name, m.similarity) for m in res.matches] == [
            (m.name, m.similarity) for m in ref.matches
        ]

    @pytest.mark.parametrize(
        "family", ["minhash", "bbit_minhash", "hll", "weighted_minhash"]
    )
    def test_list_payloads_estimate_like_the_stacked_snapshot(
        self, tmp_path, family_sets, family
    ):
        # sketch_estimates takes the per-genome payload *list*; the
        # cascade runs the row kernel on the snapshot's stacked block.
        sets = family_sets + [set(), set(range(5))]
        store = build_index(
            tmp_path, sets, name=f"idx_{family}", families=(family,),
            sketch_size=32,
        )
        config = (store.sketch_size, store.sketch_bits, store.sketch_seed)
        payloads = [store.load_sketch_payload(n, family) for n in store.names]
        rows, lengths = store.snapshot().family_payloads(family)
        assert rows.shape[0] == lengths.size == len(sets)
        sizes = store.sizes()
        cand = np.arange(len(sets))[::2]  # includes the empty genome
        for query in (sets[0], set(), sets[-1]):
            vals = np.array(sorted(query), dtype=np.int64)
            listed = sketch_estimates(
                vals, cand, sizes, payloads, family, *config
            )
            stacked = estimate_rows(
                family,
                store_module.sketch_row(family, vals, None, *config),
                vals.size, rows[cand], sizes[cand], lengths[cand],
                store.sketch_bits,
            )
            assert np.array_equal(listed, stacked)
            assert set(listed[sizes[cand] == 0]) == {float(not query)}

    def test_cascade_funnel_is_monotone(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        res = engine(store).query_values(family_sets[0], threshold=0.5)
        assert (
            res.n_candidates >= res.n_after_size >= res.n_after_sketch
        )
        assert res.n_verified == res.n_after_sketch
        assert res.pruning_ratio >= 1.0

    def test_query_name_excludes_self(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        res = engine(store).query_name("g0", threshold=0.1)
        assert "g0" not in res.names
        assert res.n_candidates == len(family_sets) - 1

    def test_query_values_includes_stored_copy(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        res = engine(store).query_values(family_sets[3], threshold=0.99)
        assert "g3" in res.names
        top = res.matches[0]
        assert top.similarity == 1.0

    def test_matches_sorted_descending(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        res = engine(store).query_values(family_sets[0], threshold=0.0)
        sims = [m.similarity for m in res.matches]
        assert sims == sorted(sims, reverse=True)
        assert len(res.matches) == len(family_sets)

    def test_empty_query(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets + [set()])
        res = engine(store).query_values([], threshold=0.5)
        ref = engine(store, "off").query_values([], threshold=0.5)
        assert res.names == ref.names
        # Only the stored empty genome matches (J(0,0) = 1).
        assert res.names == [f"g{len(family_sets)}"]


class TestTopK:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_equals_brute_force(self, tmp_path, family_sets, k):
        store = build_index(tmp_path, family_sets)
        res = engine(store).query_values(family_sets[2], top_k=k)
        ref = engine(store, "off").query_values(family_sets[2], top_k=k)
        assert [(m.name, m.similarity) for m in res.matches] == [
            (m.name, m.similarity) for m in ref.matches
        ]
        assert len(res.matches) == k

    def test_combined_threshold_and_top_k(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        res = engine(store).query_values(
            family_sets[2], threshold=0.5, top_k=2
        )
        ref = engine(store, "off").query_values(
            family_sets[2], threshold=0.5, top_k=2
        )
        assert [(m.name, m.similarity) for m in res.matches] == [
            (m.name, m.similarity) for m in ref.matches
        ]
        assert all(m.similarity >= 0.5 for m in res.matches)

    def test_k_larger_than_index(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        res = engine(store).query_values(family_sets[0], top_k=10_000)
        assert len(res.matches) == len(family_sets)


class TestValidation:
    def test_requires_threshold_or_top_k(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        with pytest.raises(ValueError, match="threshold"):
            engine(store).query_values(family_sets[0])

    def test_threshold_range(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        with pytest.raises(ValueError, match="threshold"):
            engine(store).query_values(family_sets[0], threshold=1.5)

    def test_top_k_positive(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        with pytest.raises(ValueError, match="top_k"):
            engine(store).query_values(family_sets[0], top_k=0)

    def test_out_of_range_query_values(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        with pytest.raises(ValueError, match="outside"):
            engine(store).query_values([M + 5], threshold=0.5)

    def test_query_dispatch_requires_one_of(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        with pytest.raises(ValueError, match="exactly one"):
            engine(store).query(values=[1], name="g0", threshold=0.5)

    def test_missing_family_rejected(self, tmp_path, family_sets):
        store = build_index(
            tmp_path, family_sets, families=("minhash",)
        )
        eng = engine(store, estimator="hll")
        with pytest.raises(Exception, match="not stored"):
            eng.query_values(family_sets[0], threshold=0.5)

    @pytest.mark.parametrize("prefilter", ["off", "size"])
    def test_missing_family_fine_without_sketch_stage(
        self, tmp_path, family_sets, prefilter
    ):
        # A non-stored estimator only matters when the sketch stage
        # actually runs; sketch-free prefilters must still answer.
        store = build_index(
            tmp_path, family_sets, families=("minhash",)
        )
        eng = engine(store, prefilter, estimator="hll")
        res = eng.query_values(family_sets[0], threshold=0.5)
        ref = engine(store, "off").query_values(
            family_sets[0], threshold=0.5
        )
        assert res.names == ref.names
        assert res.estimator == "exact"
        assert res.error_bound is None


class TestCaching:
    def test_repeat_query_served_from_cache(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        eng = engine(store)
        first = eng.query_values(family_sets[0], threshold=0.5)
        second = eng.query_values(family_sets[0], threshold=0.5)
        assert not first.from_cache
        assert second.from_cache
        assert second.names == first.names
        assert second.cache_stats.hits == 1

    def test_different_params_miss(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        eng = engine(store)
        eng.query_values(family_sets[0], threshold=0.5)
        res = eng.query_values(family_sets[0], threshold=0.6)
        assert not res.from_cache

    def test_store_mutation_invalidates(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        eng = engine(store)
        eng.query_values(family_sets[0], threshold=0.5)
        store.append("late", {1, 2, 3})
        res = eng.query_values(family_sets[0], threshold=0.5)
        assert not res.from_cache
        assert res.n_candidates == len(family_sets) + 1

    def test_mutation_mid_query_answers_for_the_starting_version(
        self, tmp_path, family_sets, monkeypatch
    ):
        """The cascade reads one pinned snapshot, never the live store.

        The first shard read of the query appends an exact duplicate of
        the query set (no threads: the add is injected from the store's
        load hook).  The answer must be brute force over the version
        the query started under, reported under that version — so the
        entry cached for it can never be mistaken for the new version's.
        """
        store = build_index(tmp_path, family_sets)
        eng = engine(store, prefilter="size")
        q = np.asarray(sorted(family_sets[0]), dtype=np.int64)
        version = store.version
        scored = [
            (n, exact_jaccard(q, store.load_values(n))) for n in store.names
        ]
        # sorted() is stable, so ties keep store order, like the engine.
        expected = sorted(
            (p for p in scored if p[1] >= 0.3), key=lambda p: -p[1]
        )
        real_read = store_module.read_record
        fired = []

        def read_then_mutate(path, index):
            if not fired:
                fired.append(True)
                store.append("late", q)
            return real_read(path, index)

        monkeypatch.setattr(store_module, "read_record", read_then_mutate)
        res = eng.query_values(q, threshold=0.3)
        assert fired and store.version == version + 1
        assert res.store_version == version
        assert [(m.name, m.similarity) for m in res.matches] == expected
        again = eng.query_values(q, threshold=0.3)
        assert not again.from_cache
        assert again.store_version == version + 1
        assert "late" in again.names

    def test_cache_disabled(self, tmp_path, family_sets, monkeypatch):
        # A cache that retains nothing hashes no query for a key, yet
        # still counts every request as a miss.
        store = build_index(tmp_path, family_sets)
        eng = engine(store, query_cache_size=0)
        monkeypatch.setattr(query_module, "result_cache_key", None)
        eng.query_values(family_sets[0], threshold=0.5)
        res = eng.query_values(family_sets[0], threshold=0.5)
        assert not res.from_cache
        assert (res.cache_stats.hits, res.cache_stats.misses) == (0, 2)

    def test_summary_surfaces_cache_stats(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        eng = engine(store)
        eng.query_values(family_sets[0], threshold=0.5)
        res = eng.query_values(family_sets[0], threshold=0.5)
        text = res.summary()
        assert "cache:" in text and "hit" in text
        assert "served from cache" in text


class TestLedgerCharges:
    def test_query_kernels_charged(self, tmp_path, family_sets):
        machine = Machine(laptop(4))
        store = build_index(tmp_path, family_sets)
        eng = SimilarityIndex(
            store, machine=machine, config=SimilarityConfig()
        )
        eng.query_values(family_sets[0], threshold=0.5)
        kernels = machine.ledger.kernel_totals
        assert "query:size" in kernels
        assert "query:sketch" in kernels
        assert "query:verify" in kernels
        assert "query" in machine.ledger.phases

    def test_result_reports_simulated_seconds(self, tmp_path, family_sets):
        machine = Machine(laptop(4))
        store = build_index(tmp_path, family_sets)
        eng = SimilarityIndex(store, machine=machine)
        res = eng.query_values(family_sets[0], threshold=0.5)
        assert res.simulated_seconds > 0.0


class TestCandidateGenerators:
    """query_candidates wiring: stages, counters, and exactness."""

    def test_lsh_exact_equals_scan_equals_brute(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        ref = engine(store, "off").query_values(family_sets[0], threshold=0.3)
        for prefilter in ("off", "size", "cascade"):
            res = engine(
                store, prefilter, query_candidates="lsh_exact"
            ).query_values(family_sets[0], threshold=0.3)
            assert [(m.name, m.similarity) for m in res.matches] == [
                (m.name, m.similarity) for m in ref.matches
            ]

    def test_lsh_counters_and_summary(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        res = engine(store, "size", query_candidates="lsh").query_values(
            family_sets[0], threshold=0.5
        )
        assert res.candidates == "lsh"
        assert res.n_after_lsh is not None
        assert res.n_after_lsh <= res.n_candidates
        assert res.n_after_size <= res.n_after_lsh
        assert "after LSH probe" in res.summary()
        assert "candidates=lsh" in res.summary()

    def test_scan_reports_no_lsh_counter(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        res = engine(store, "size").query_values(
            family_sets[0], threshold=0.5
        )
        assert res.candidates == "scan"
        assert res.n_after_lsh is None
        assert "after LSH probe" not in res.summary()

    def test_lsh_finds_stored_duplicate(self, tmp_path, family_sets):
        # The query equals a stored genome: identical fingerprints
        # share every band key, so the probe is guaranteed to find it.
        store = build_index(tmp_path, family_sets)
        res = engine(store, "size", query_candidates="lsh").query_values(
            family_sets[3], threshold=0.99
        )
        assert "g3" in res.names
        assert res.matches[0].similarity == 1.0

    def test_lsh_kernel_charged(self, tmp_path, family_sets):
        machine = Machine(laptop(4))
        store = build_index(tmp_path, family_sets)
        eng = SimilarityIndex(
            store, machine=machine,
            config=SimilarityConfig(
                query_prefilter="size", query_candidates="lsh"
            ),
        )
        eng.query_values(family_sets[0], threshold=0.5)
        assert "query:lsh" in machine.ledger.kernel_totals

    def test_lsh_needs_bbit_family(self, tmp_path, family_sets):
        from repro.service import StoreError

        store = build_index(tmp_path, family_sets, families=("minhash",))
        with pytest.raises(StoreError, match="bbit_minhash"):
            engine(store, "size", query_candidates="lsh").query_values(
                family_sets[0], threshold=0.5
            )

    def test_unknown_candidates_rejected(self, tmp_path, family_sets):
        store = build_index(tmp_path, family_sets)
        with pytest.raises(ValueError, match="query_candidates"):
            SimilarityConfig(query_candidates="bogus")
        from repro.service.plan import compile_plan

        cfg = SimilarityConfig()
        object.__setattr__(cfg, "query_candidates", "bogus")
        with pytest.raises(ValueError, match="query_candidates"):
            compile_plan(cfg, store)


class TestSketchSeedMismatch:
    """Regression: sketch-consuming plans reject a mismatched seed."""

    def test_cascade_rejects_mismatched_seed(self, tmp_path, family_sets):
        from repro.service import StoreError

        store = build_index(tmp_path, family_sets)  # store seed 0
        eng = engine(store, "cascade", sketch_seed=3)
        with pytest.raises(StoreError, match="sketch_seed mismatch"):
            eng.query_values(family_sets[0], threshold=0.5)

    @pytest.mark.parametrize("candidates", ["lsh", "lsh_exact"])
    def test_lsh_rejects_mismatched_seed(
        self, tmp_path, family_sets, candidates
    ):
        from repro.service import StoreError

        store = build_index(tmp_path, family_sets)
        eng = engine(store, "size", sketch_seed=3, query_candidates=candidates)
        with pytest.raises(StoreError, match="sketch_seed mismatch"):
            eng.query_values(family_sets[0], threshold=0.5)

    def test_error_names_both_seeds(self, tmp_path, family_sets):
        from repro.service import StoreError

        store = build_index(tmp_path, family_sets)
        with pytest.raises(StoreError, match=r"says 3.*under seed 0"):
            engine(store, "cascade", sketch_seed=3).query_values(
                family_sets[0], threshold=0.5
            )

    @pytest.mark.parametrize("prefilter", ["off", "size"])
    def test_sketch_free_plans_ignore_seed(
        self, tmp_path, family_sets, prefilter
    ):
        # Without a sketch-consuming stage the seed is irrelevant, so
        # the query must still answer (and exactly).
        store = build_index(tmp_path, family_sets)
        res = engine(store, prefilter, sketch_seed=3).query_values(
            family_sets[0], threshold=0.5
        )
        ref = engine(store, "off").query_values(family_sets[0], threshold=0.5)
        assert res.names == ref.names


class TestEdgeCaseSweep:
    """Degenerate inputs, swept across every candidate generator."""

    CANDIDATES = ["scan", "lsh", "lsh_exact"]

    @pytest.mark.parametrize("candidates", CANDIDATES)
    def test_top_k_zero_pins_value_error(
        self, tmp_path, family_sets, candidates
    ):
        store = build_index(tmp_path, family_sets)
        eng = engine(store, "size", query_candidates=candidates)
        with pytest.raises(ValueError, match="top_k"):
            eng.query_values(family_sets[0], top_k=0)

    @pytest.mark.parametrize("candidates", CANDIDATES)
    def test_top_k_exceeds_corpus(self, tmp_path, family_sets, candidates):
        store = build_index(tmp_path, family_sets)
        eng = engine(store, "size", query_candidates=candidates)
        res = eng.query_values(family_sets[0], top_k=10 * len(family_sets))
        assert len(res.matches) <= len(family_sets)
        if candidates != "lsh":
            assert len(res.matches) == len(family_sets)

    @pytest.mark.parametrize("candidates", CANDIDATES)
    def test_empty_query(self, tmp_path, family_sets, candidates):
        # Empty sketches have identical fingerprints, so the stored
        # empty genome co-buckets with the empty query in every band.
        store = build_index(tmp_path, family_sets + [set()])
        eng = engine(store, "size", query_candidates=candidates)
        res = eng.query_values([], threshold=0.5)
        assert res.names == [f"g{len(family_sets)}"]

    @pytest.mark.parametrize("candidates", ["scan", "lsh_exact"])
    def test_threshold_zero_returns_everything(
        self, tmp_path, family_sets, candidates
    ):
        store = build_index(tmp_path, family_sets)
        eng = engine(store, "size", query_candidates=candidates)
        res = eng.query_values(family_sets[0], threshold=0.0)
        assert len(res.matches) == len(family_sets)

    @pytest.mark.parametrize("candidates", CANDIDATES)
    def test_threshold_one_exact_duplicates_only(
        self, tmp_path, family_sets, candidates
    ):
        store = build_index(tmp_path, family_sets)
        eng = engine(store, "size", query_candidates=candidates)
        res = eng.query_values(family_sets[1], threshold=1.0)
        assert res.names == ["g1"]
        assert res.matches[0].similarity == 1.0

    @pytest.mark.parametrize("candidates", CANDIDATES)
    def test_empty_store(self, tmp_path, candidates):
        store = build_index(tmp_path, [])
        eng = engine(store, "size", query_candidates=candidates)
        res = eng.query_values([1, 2, 3], threshold=0.5)
        assert list(res.matches) == []
        assert res.n_candidates == 0
        assert res.n_after_lsh is None

    @pytest.mark.parametrize("candidates", CANDIDATES)
    def test_single_genome_store(self, tmp_path, candidates):
        store = build_index(tmp_path, [{1, 2, 3}])
        eng = engine(store, "size", query_candidates=candidates)
        res = eng.query_values({1, 2, 3}, threshold=0.5)
        assert res.names == ["g0"]
