"""Concurrency/property battery for ``query_batch``.

The invariant everything here defends: a batched answer equals the
per-query engine's answer, which equals brute force — for any batch
composition (duplicates, stored genomes, mixed threshold/top-k), any
prefilter depth, under concurrent callers, and while ``add`` moves the
store version mid-flight (each response is exact for the version it
reports).  One ``query_batch`` call answers for exactly one version.
"""

import hashlib
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimilarityConfig
from repro.runtime.engine import Machine
from repro.runtime.machine import laptop
from repro.service import (
    BatchQuery,
    IndexStore,
    SimilarityIndex,
    SimilarityService,
    compile_plan,
    result_cache_key,
)
from repro.service.cache import counts_cache_digest
from repro.service.query import exact_jaccard

M = 2_000


def build_store(root, sets, m=M, **kwargs):
    kwargs.setdefault("sketch_size", 64)
    store = IndexStore.create(Path(root) / "idx", m=m, **kwargs)
    for i, s in enumerate(sets):
        store.append(f"g{i}", s)
    return store


def engine(store, prefilter="cascade", **config_kwargs):
    return SimilarityIndex(
        store,
        machine=Machine(laptop(4)),
        config=SimilarityConfig(query_prefilter=prefilter, **config_kwargs),
    )


def as_vals(s):
    return np.unique(np.asarray(sorted(s), dtype=np.int64))


def brute_force(corpus, qvals, threshold=None, top_k=None):
    """Reference answer: (name, J) pairs ordered by (-J, index)."""
    sims = [
        (i, name, exact_jaccard(qvals, vals))
        for i, (name, vals) in enumerate(corpus)
    ]
    if threshold is not None:
        sims = [s for s in sims if s[2] >= threshold]
    sims.sort(key=lambda s: (-s[2], s[0]))
    if top_k is not None:
        sims = sims[:top_k]
    return [(name, j) for _, name, j in sims]


def assert_matches(result, expected, label=""):
    got = [(m.name, m.similarity) for m in result.matches]
    assert [n for n, _ in got] == [n for n, _ in expected], (
        f"{label}: match set {got} != expected {expected}"
    )
    for (gn, gj), (_, ej) in zip(got, expected):
        assert gj == pytest.approx(ej, abs=1e-9), f"{label}: J for {gn}"


def assert_batch_of_one_is_single(store, queries, **kwargs):
    """Two fresh engines in lockstep, one per entry point: a batch of one
    is the single query field for field, modelled cost included."""
    single, batched = (engine(store, **kwargs) for _ in range(2))
    for q, params in queries:
        (alone,) = batched.query_batch([q], **params)
        assert alone == single.query_values(q, **params), params


@pytest.fixture
def clustered_sets(rng):
    """A few tight families plus background noise (like test_query)."""
    sets = []
    for base in range(3):
        core = set(range(base * 250, base * 250 + 35))
        for _ in range(3):
            s = set(core)
            s |= set(rng.integers(0, M, size=5).tolist())
            sets.append(s)
    for _ in range(6):
        sets.append(set(rng.integers(0, M, size=rng.integers(0, 40)).tolist()))
    sets.append(set())  # an empty genome: J(0, 0) = 1 edge case
    return sets


class TestPlanCompilation:
    def test_single_cascade_plan(self, tmp_path):
        store = build_store(tmp_path, [{1, 2}, {2, 3}])
        plan = compile_plan(SimilarityConfig(query_prefilter="cascade"), store)
        assert [s.name for s in plan.stages] == ["window", "sketch", "verify"]
        assert plan.kernel("window") == "query:size"
        assert plan.kernel("sketch") == "query:sketch"
        assert plan.kernel("verify") == "query:verify"

    def test_off_plan_has_verify_only(self, tmp_path):
        store = build_store(tmp_path, [{1, 2}])
        plan = compile_plan(SimilarityConfig(query_prefilter="off"), store)
        assert [s.name for s in plan.stages] == ["verify"]
        assert plan.stage("window") is None
        assert plan.stage("sketch") is None

    def test_both_engine_paths_compile_plans(self, tmp_path):
        store = build_store(tmp_path, [{1, 2}, {2, 3}])
        idx = engine(store, prefilter="size")
        assert idx.plan().describe() == "window[query:size] -> verify[query:verify]"


class TestBatchedExactness:
    @pytest.mark.parametrize("prefilter", ["off", "size", "cascade"])
    def test_batched_equals_perquery_equals_bruteforce(
        self, tmp_path, clustered_sets, prefilter
    ):
        store = build_store(tmp_path, clustered_sets)
        corpus = [(n, store.load_values(n)) for n in store.names]
        idx = engine(store, prefilter=prefilter, query_cache_size=0)
        queries = [as_vals(s) for s in clustered_sets[::2]]
        queries += [as_vals({7, 8, 9}), np.empty(0, dtype=np.int64)]
        batched = idx.query_batch(queries, threshold=0.25)
        for q, res in zip(queries, batched):
            single = idx.query_values(q, threshold=0.25)
            expected = brute_force(corpus, q, threshold=0.25)
            assert_matches(res, expected, f"batched[{prefilter}]")
            assert res.matches == single.matches
            assert res.n_candidates == single.n_candidates
            assert res.n_after_size == single.n_after_size

    def test_mixed_threshold_and_topk_batch(self, tmp_path, clustered_sets):
        store = build_store(tmp_path, clustered_sets)
        corpus = [(n, store.load_values(n)) for n in store.names]
        idx = engine(store, query_cache_size=0)
        items = [
            BatchQuery(as_vals(clustered_sets[0]), threshold=0.3),
            BatchQuery(as_vals(clustered_sets[1]), top_k=3),
            BatchQuery(as_vals(clustered_sets[2]), threshold=0.1, top_k=2),
            BatchQuery(as_vals(clustered_sets[0]), threshold=0.3),  # dup
        ]
        results = idx.query_batch(items)
        for item, res in zip(items, results):
            expected = brute_force(
                corpus, item.values if isinstance(item.values, np.ndarray)
                else as_vals(item.values),
                threshold=item.threshold, top_k=item.top_k,
            )
            assert_matches(res, expected, "mixed batch")
        # The duplicate query must answer identically to its twin.
        assert results[3].matches == results[0].matches

    def test_batch_charges_the_single_query_kernels(
        self, tmp_path, clustered_sets
    ):
        store = build_store(tmp_path, clustered_sets)
        queries = [as_vals(s) for s in clustered_sets[:8]]
        totals = []
        for run in ("batch", "one by one"):
            idx = engine(store, prefilter="cascade", query_cache_size=0)
            if run == "batch":
                results = idx.query_batch(queries, threshold=0.2)
            else:
                results = [idx.query_values(q, threshold=0.2) for q in queries]
            assert all(r.simulated_seconds > 0 for r in results)
            assert set(idx.machine.ledger.phases) == {"query"}
            totals.append(idx.machine.ledger.kernel_totals)
        assert set(totals[0]) == {"query:size", "query:sketch", "query:verify"}
        for kernel, (_, flops) in totals[0].items():
            assert flops == pytest.approx(totals[1][kernel][1], rel=1e-12)

    def test_exclude_name_in_batch(self, tmp_path, clustered_sets):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, query_cache_size=0)
        name = store.names[0]
        qvals = store.load_values(name)
        (res,) = idx.query_batch(
            [BatchQuery(qvals, threshold=0.0, exclude_name=name)]
        )
        single = idx.query_values(qvals, threshold=0.0, exclude_name=name)
        assert res.matches == single.matches
        assert name not in res.names
        assert res.n_candidates == store.n_genomes - 1

    def test_one_call_answers_for_one_version(
        self, tmp_path, clustered_sets, monkeypatch
    ):
        # A genome lands while the call computes: every answer of the
        # call still reports, and is exact for, the version it started
        # under — however many requests the call carries.
        store = build_store(tmp_path, clustered_sets)
        corpus = [(n, store.load_values(n)) for n in store.names]
        idx = engine(store, prefilter="size", query_cache_size=0)
        compute = idx._compute

        def compute_then_add(requests, snapshot, plan):
            out = compute(requests, snapshot, plan)
            store.append(f"late{store.version}", clustered_sets[0])
            return out

        monkeypatch.setattr(idx, "_compute", compute_then_add)
        queries = [as_vals(clustered_sets[i % 4]) for i in range(40)]
        version = store.version
        results = idx.query_batch(queries, threshold=0.3)
        assert store.version == version + 1
        assert {r.store_version for r in results} == {version}
        for q, res in zip(queries, results):
            assert_matches(res, brute_force(corpus, q, threshold=0.3))

    def test_invalid_requests_raise_synchronously(self, tmp_path):
        store = build_store(tmp_path, [{1, 2}])
        idx = engine(store)
        before = idx.machine.ledger.snapshot()
        good = np.array([1, 2])
        with pytest.raises(ValueError, match="threshold, top_k"):
            idx.query_batch([good, np.array([1])], threshold=None)
        with pytest.raises(ValueError, match="outside"):
            idx.query_batch([good, np.array([M + 5])], threshold=0.5)
        with pytest.raises(ValueError, match="top_k"):
            idx.query_batch([BatchQuery(good, threshold=0.5), np.array([1])], top_k=0)
        # Every item is validated before anything runs.
        assert idx.machine.ledger.diff(before).phases == {}
        assert idx.cache.stats.lookups == 0


class TestHypothesisProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        prefilter=st.sampled_from(["off", "size", "cascade"]),
        threshold=st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
    )
    def test_batched_equals_perquery_equals_bruteforce(
        self, data, prefilter, threshold
    ):
        m = 200
        sets = data.draw(
            st.lists(
                st.sets(st.integers(0, m - 1), max_size=25),
                min_size=1,
                max_size=6,
            ),
            label="stored sets",
        )
        # Queries mix stored genomes (possibly repeated) with fresh sets.
        stored_picks = data.draw(
            st.lists(
                st.integers(0, len(sets) - 1), min_size=0, max_size=4
            ),
            label="stored query indices",
        )
        fresh = data.draw(
            st.lists(
                st.sets(st.integers(0, m - 1), max_size=25),
                min_size=1,
                max_size=3,
            ),
            label="fresh queries",
        )
        queries = [as_vals(sets[i]) for i in stored_picks]
        queries += [as_vals(s) for s in fresh]
        with tempfile.TemporaryDirectory(prefix="batcher_prop_") as tmp:
            store = build_store(tmp, sets, m=m, sketch_size=32)
            corpus = [(n, store.load_values(n)) for n in store.names]
            idx = engine(store, prefilter=prefilter, query_cache_size=0)
            batched = idx.query_batch(queries, threshold=threshold)
            for q, res in zip(queries, batched):
                single = idx.query_values(q, threshold=threshold)
                assert res.matches == single.matches
                assert_matches(
                    res, brute_force(corpus, q, threshold=threshold)
                )
            assert_batch_of_one_is_single(
                store, [(q, {"threshold": threshold}) for q in queries],
                prefilter=prefilter, query_cache_size=0,
            )

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), top_k=st.integers(min_value=1, max_value=5))
    def test_topk_batches_match_bruteforce(self, data, top_k):
        m = 150
        sets = data.draw(
            st.lists(
                st.sets(st.integers(0, m - 1), max_size=20),
                min_size=1,
                max_size=5,
            ),
            label="stored sets",
        )
        queries = data.draw(
            st.lists(
                st.sets(st.integers(0, m - 1), max_size=20),
                min_size=1,
                max_size=4,
            ),
            label="queries",
        )
        qvals = [as_vals(q) for q in queries]
        with tempfile.TemporaryDirectory(prefix="batcher_topk_") as tmp:
            store = build_store(tmp, sets, m=m, sketch_size=32)
            corpus = [(n, store.load_values(n)) for n in store.names]
            idx = engine(store, query_cache_size=0)
            batched = idx.query_batch(qvals, top_k=top_k)
            for q, res in zip(qvals, batched):
                single = idx.query_values(q, top_k=top_k)
                assert res.matches == single.matches
                assert_matches(res, brute_force(corpus, q, top_k=top_k))
            assert_batch_of_one_is_single(
                store, [(q, {"top_k": top_k}) for q in qvals],
                query_cache_size=0,
            )


class TestCacheUnderBatching:
    def test_hit_served_from_cache_only_miss_charged(
        self, tmp_path, clustered_sets
    ):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, query_cache_size=16)
        q_hot = as_vals(clustered_sets[0])
        q_cold = as_vals(clustered_sets[4])
        warm = idx.query_values(q_hot, threshold=0.3)  # single path writes
        before = idx.machine.ledger.snapshot()
        hot, cold = idx.query_batch([q_hot, q_cold], threshold=0.3)
        diff = idx.machine.ledger.diff(before)
        assert hot.from_cache
        assert hot.matches == warm.matches
        assert not cold.from_cache
        assert cold.simulated_seconds > 0
        # The hit costs nothing: the whole batch charge lands on the miss.
        assert diff.simulated_seconds == pytest.approx(
            cold.simulated_seconds
        )
        stats = idx.cache.stats
        assert stats.hits >= 1 and stats.misses >= 1
        assert f"cache: {stats}" in cold.summary()

    def test_all_hit_batch_charges_nothing(self, tmp_path, clustered_sets):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, query_cache_size=16)
        queries = [as_vals(s) for s in clustered_sets[:3]]
        idx.query_batch(queries, threshold=0.3)
        before = idx.machine.ledger.snapshot()
        again = idx.query_batch(queries, threshold=0.3)
        diff = idx.machine.ledger.diff(before)
        assert all(r.from_cache for r in again)
        assert diff.simulated_seconds == 0.0

    def test_batched_entry_serves_single_path(self, tmp_path, clustered_sets):
        """Cross-path compatibility, batched -> single."""
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, query_cache_size=16)
        q = as_vals(clustered_sets[1])
        (batched,) = idx.query_batch([q], threshold=0.25)
        single = idx.query_values(q, threshold=0.25)
        assert single.from_cache
        assert single.matches == batched.matches

    def test_single_entry_serves_batched_path(self, tmp_path, clustered_sets):
        """Cross-path compatibility, single -> batched."""
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, query_cache_size=16)
        q = as_vals(clustered_sets[1])
        single = idx.query_values(q, top_k=2)
        (batched,) = idx.query_batch([q], top_k=2)
        assert batched.from_cache
        assert batched.matches == single.matches

    def test_cache_key_schema_is_pinned(self):
        """Regression pin: both paths depend on this exact tuple layout.

        If this test fails, entries written before the change can no
        longer be found by the other path — bump with care.
        """
        vals = np.array([3, 5, 8], dtype=np.int64)
        key = result_cache_key(
            vals, 0.5, 7, "cascade", "minhash", "scan", "g0", 11
        )
        assert key == (
            hashlib.sha256(vals.tobytes()).hexdigest(),
            3,
            0.5,
            7,
            "cascade",
            "minhash",
            "scan",
            "g0",
            11,
            ("single",),
            "jaccard",
            None,
        )
        # The digest covers the values, so permuted content differs.
        other = result_cache_key(
            np.array([3, 5, 9], dtype=np.int64), 0.5, 7, "cascade",
            "minhash", "scan", "g0", 11,
        )
        assert other != key
        # An approximate-candidate answer must never serve an exact
        # request: the generator is part of the key.
        lsh = result_cache_key(
            vals, 0.5, 7, "cascade", "minhash", "lsh", "g0", 11
        )
        assert lsh != key
        # A sharded store's answer must never serve a flat store (or a
        # differently-banded sharded store): topology is part of the
        # key, defaulting to the flat ("single",).
        sharded = result_cache_key(
            vals, 0.5, 7, "cascade", "minhash", "scan", "g0", 11,
            topology=("sharded", 4, "quantile", (10, 20, 30, 1001)),
        )
        assert sharded != key
        rebanded = result_cache_key(
            vals, 0.5, 7, "cascade", "minhash", "scan", "g0", 11,
            topology=("sharded", 4, "quantile", (10, 20, 40, 1001)),
        )
        assert rebanded != sharded
        # The same values score differently under another measure, so
        # the similarity field keys distinctly...
        contained = result_cache_key(
            vals, 0.5, 7, "cascade", "minhash", "scan", "g0", 11,
            similarity="containment",
        )
        assert contained != key
        # ... and under weighted Jaccard the abundance vector matters:
        # same support, different counts, different key.
        weighted = result_cache_key(
            vals, 0.5, 7, "cascade", None, "scan", "g0", 11,
            similarity="weighted_jaccard",
            counts_digest=counts_cache_digest(
                np.array([1, 2, 3], dtype=np.int64)
            ),
        )
        reweighted = result_cache_key(
            vals, 0.5, 7, "cascade", None, "scan", "g0", 11,
            similarity="weighted_jaccard",
            counts_digest=counts_cache_digest(
                np.array([1, 2, 4], dtype=np.int64)
            ),
        )
        assert weighted != key
        assert weighted != reweighted


class TestConcurrencyStress:
    N_THREADS = 4
    QUERIES_PER_THREAD = 8

    def test_concurrent_submits_across_version_bumps(self, tmp_path, rng):
        """Readers call ``query`` / ``query_batch`` on the service a writer
        is adding to, flat and sharded.

        Every response must be exact for the store version it reports:
        we map each observed ``store_version`` back to the corpus at
        that version and compare against brute force over it.
        """
        for shards in (1, 3):
            self._stress(tmp_path / f"shards{shards}", rng, shards)

    def _stress(self, root, rng, shards):
        m = 1_200

        def random_sets(k):
            return [
                set(rng.integers(0, m, size=rng.integers(1, 40)).tolist())
                for _ in range(k)
            ]

        initial = random_sets(10)
        svc = SimilarityService.create(
            root, m=m,
            config=SimilarityConfig(
                sketch_size=32, query_cache_size=0, store_shards=shards,
            ),
        )
        store = svc.store
        svc.add([(f"g{i}", s) for i, s in enumerate(initial)])
        corpus = [(n, store.load_values(n)) for n in store.names]
        # add is one commit: exactly one version per corpus.
        version_map = {store.version: list(corpus)}

        pool = [as_vals(s) for s in initial + random_sets(6)]
        errors: list[BaseException] = []
        outcomes: list[tuple] = []
        outcomes_lock = threading.Lock()

        def writer():
            try:
                for b in range(3):
                    new = random_sets(2)
                    svc.add([(f"w{b}_{i}", s) for i, s in enumerate(new)])
                    snap = [(n, store.load_values(n)) for n in store.names]
                    with outcomes_lock:
                        version_map[store.version] = snap
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        def reader(tid):
            try:
                asked = []
                for j in range(self.QUERIES_PER_THREAD):
                    q = pool[(tid * 7 + j * 3) % len(pool)]
                    asked.append(
                        (q, None, 3) if (tid + j) % 3 == 0 else (q, 0.2, None)
                    )
                half = len(asked) // 2
                answers = [
                    svc.query(values=q, threshold=t, top_k=k)
                    for q, t, k in asked[:half]
                ]
                answers += svc.query_batch(
                    [BatchQuery(q, threshold=t, top_k=k) for q, t, k in asked[half:]]
                )
                batch_versions = {r.store_version for r in answers[half:]}
                assert len(batch_versions) == 1, batch_versions
                with outcomes_lock:
                    outcomes.extend(
                        (q, t, k, res) for (q, t, k), res in zip(asked, answers)
                    )
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=writer)]
        threads += [
            threading.Thread(target=reader, args=(tid,))
            for tid in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)

        assert not errors, f"worker raised: {errors[0]!r}"
        assert len(outcomes) == self.N_THREADS * self.QUERIES_PER_THREAD
        for q, t, k, res in outcomes:
            corpus_at = version_map[res.store_version]
            expected = brute_force(corpus_at, q, threshold=t, top_k=k)
            assert_matches(
                res, expected, f"v{res.store_version} t={t} k={k}"
            )


class TestBatchedLsh:
    """Batched LSH candidate generation: parity, kernels, audit mode."""

    def test_lsh_plan_pins_stages_and_kernels(self, tmp_path):
        store = build_store(tmp_path, [{1, 2}, {2, 3}])
        cfg = SimilarityConfig(
            query_prefilter="size", query_candidates="lsh"
        )
        plan = compile_plan(cfg, store)
        assert [s.name for s in plan.stages] == ["lsh", "window", "verify"]
        assert plan.kernel("lsh") == "query:lsh"
        audit = compile_plan(
            SimilarityConfig(
                query_prefilter="size", query_candidates="lsh_exact"
            ),
            store,
        )
        assert "lsh:audit[query:lsh]" in audit.describe()

    @pytest.mark.parametrize("candidates", ["lsh", "lsh_exact"])
    def test_batched_equals_single_path(
        self, tmp_path, clustered_sets, candidates
    ):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(
            store, prefilter="size", query_candidates=candidates,
            query_cache_size=0,
        )
        queries = [as_vals(s) for s in clustered_sets[::2]]
        queries.append(np.empty(0, dtype=np.int64))
        batched = idx.query_batch(queries, threshold=0.3)
        for q, res in zip(queries, batched):
            single = idx.query_values(q, threshold=0.3)
            assert res.matches == single.matches
            assert res.n_after_lsh == single.n_after_lsh
            assert res.n_after_size == single.n_after_size
            assert res.candidates == candidates
        assert_batch_of_one_is_single(
            store, [(q, {"threshold": 0.3}) for q in queries],
            prefilter="size", query_candidates=candidates, query_cache_size=0,
        )

    def test_lsh_exact_batch_equals_bruteforce(
        self, tmp_path, clustered_sets
    ):
        store = build_store(tmp_path, clustered_sets)
        corpus = [(n, store.load_values(n)) for n in store.names]
        idx = engine(
            store, prefilter="size", query_candidates="lsh_exact",
            query_cache_size=0,
        )
        queries = [as_vals(s) for s in clustered_sets]
        results = idx.query_batch(queries, threshold=0.25)
        for q, res in zip(queries, results):
            assert_matches(
                res, brute_force(corpus, q, threshold=0.25), "lsh_exact"
            )

    def test_batch_charges_lsh_kernel(self, tmp_path, clustered_sets):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(
            store, prefilter="size", query_candidates="lsh",
            query_cache_size=0,
        )
        idx.query_batch(
            [as_vals(s) for s in clustered_sets[:4]], threshold=0.3
        )
        kernels = idx.machine.ledger.kernel_totals
        assert "query:lsh" in kernels
        assert kernels["query:lsh"][1] > 0

    def test_scan_batch_charges_no_lsh_kernel(
        self, tmp_path, clustered_sets
    ):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, prefilter="size", query_cache_size=0)
        idx.query_batch(
            [as_vals(s) for s in clustered_sets[:4]], threshold=0.3
        )
        assert "query:lsh" not in idx.machine.ledger.kernel_totals


class TestBatchedEdgeCases:
    """The single-path degenerate inputs, swept through ``query_batch``."""

    CANDIDATES = ["scan", "lsh", "lsh_exact"]

    @pytest.mark.parametrize("candidates", CANDIDATES)
    def test_top_k_zero_rejected_synchronously(
        self, tmp_path, clustered_sets, candidates
    ):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, prefilter="size", query_candidates=candidates)
        with pytest.raises(ValueError, match="top_k"):
            idx.query_batch([as_vals(clustered_sets[0])], top_k=0)

    @pytest.mark.parametrize("candidates", CANDIDATES)
    def test_top_k_exceeds_corpus(self, tmp_path, clustered_sets, candidates):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(
            store, prefilter="size", query_candidates=candidates,
            query_cache_size=0,
        )
        (res,) = idx.query_batch([as_vals(clustered_sets[0])], top_k=10_000)
        assert len(res.matches) <= len(clustered_sets)
        single = idx.query_values(as_vals(clustered_sets[0]), top_k=10_000)
        assert res.matches == single.matches

    @pytest.mark.parametrize("candidates", CANDIDATES)
    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_extremes(
        self, tmp_path, clustered_sets, candidates, threshold
    ):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(
            store, prefilter="size", query_candidates=candidates,
            query_cache_size=0,
        )
        queries = [as_vals(clustered_sets[0]), np.empty(0, dtype=np.int64)]
        results = idx.query_batch(queries, threshold=threshold)
        for q, res in zip(queries, results):
            single = idx.query_values(q, threshold=threshold)
            assert res.matches == single.matches

    @pytest.mark.parametrize("candidates", CANDIDATES)
    def test_empty_store_batch(self, tmp_path, candidates):
        store = build_store(tmp_path, [])
        idx = engine(
            store, prefilter="size", query_candidates=candidates,
            query_cache_size=0,
        )
        results = idx.query_batch(
            [np.array([1, 2], dtype=np.int64), np.empty(0, dtype=np.int64)],
            threshold=0.5,
        )
        for res in results:
            assert list(res.matches) == []
            assert res.n_candidates == 0
            assert res.n_after_lsh is None

    @pytest.mark.parametrize("candidates", CANDIDATES)
    def test_empty_query_in_batch(self, tmp_path, clustered_sets, candidates):
        # clustered_sets ends with an empty genome: the empty query
        # must find exactly it (J(0,0) = 1) through every generator.
        store = build_store(tmp_path, clustered_sets)
        idx = engine(
            store, prefilter="size", query_candidates=candidates,
            query_cache_size=0,
        )
        (res,) = idx.query_batch([np.empty(0, dtype=np.int64)], threshold=0.5)
        assert res.names == [f"g{len(clustered_sets) - 1}"]


class TestBatchOfOne:
    """``query_batch([q])[0] == query(values=q)`` as whole results —
    matches, funnel counters, store version, plan labels, modelled cost
    and the rendered summary — on both layouts and every candidate
    generator.  Each entry point runs on its own freshly opened service,
    so both see the same ledger history."""

    @pytest.mark.parametrize("shards", [1, 4], ids=["flat", "sharded"])
    @pytest.mark.parametrize("candidates", ["scan", "lsh", "lsh_exact"])
    def test_equals_the_single_query(self, tmp_path, rng, shards, candidates):
        sets = [
            np.unique(rng.integers(0, M, size=int(rng.integers(5, 300))))
            for _ in range(24)
        ]
        root = tmp_path / "idx"
        SimilarityService.create(
            root, m=M,
            config=SimilarityConfig(
                sketch_size=64, store_shards=shards,
                shard_band_policy="quantile",
            ),
            size_hint=np.array([s.size for s in sets]),
        ).add([(f"g{i:02d}", s) for i, s in enumerate(sets)])
        config = SimilarityConfig(query_candidates=candidates)
        single, batched = (
            SimilarityService.open(root, config=config) for _ in range(2)
        )
        cases = [
            (sets[3], {"threshold": 0.3}),
            (sets[7][::2], {"top_k": 4}),
            (sets[11], {"threshold": 0.05, "top_k": 3}),
            (sets[3], {"threshold": 0.3}),  # served from the cache
        ]
        for q, params in cases:
            want = single.query(values=q, **params)
            (got,) = batched.query_batch([q], **params)
            assert got == want, params
            assert got.summary() == want.summary(), params
            assert got.simulated_seconds == want.simulated_seconds
        assert want.from_cache and want.matches
