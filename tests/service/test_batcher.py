"""Concurrency/property battery for the batched query front end.

The invariant everything here defends: a batched answer equals the
per-query engine's answer, which equals brute force — for any batch
composition (duplicates, stored genomes, mixed threshold/top-k), any
prefilter depth, under concurrent submission, and while ``add``
moves the store version mid-flight (each response is exact for the
version it reports).
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
from repro.runtime.executor import SequentialExecutor
from repro.runtime.machine import laptop
from repro.service import (
    BatchQuery,
    IndexStore,
    QueryBatcher,
    SimilarityIndex,
    SimilarityService,
    compile_plan,
    result_cache_key,
)
from repro.service.cache import counts_cache_digest
from repro.service.query import exact_jaccard
from tests.helpers import without_modelled_cost

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
        assert not plan.batched

    def test_batched_plan_uses_batch_kernels(self, tmp_path):
        store = build_store(tmp_path, [{1, 2}, {2, 3}])
        config = SimilarityConfig(query_prefilter="cascade")
        plan = compile_plan(config, store, batched=True)
        assert plan.kernel("window") == "query:batch:window"
        assert plan.kernel("sketch") == "query:batch:sketch"
        assert plan.kernel("verify") == "query:batch:verify"
        assert plan.batched

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
        assert idx.plan(batched=True).describe() == (
            "window[query:batch:window] -> verify[query:batch:verify]"
        )


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
        with QueryBatcher(idx, batch_size=4) as batcher:
            batched = batcher.query_many(queries, threshold=0.25)
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
        with QueryBatcher(idx, batch_size=len(items)) as batcher:
            results = batcher.query_many(items)
        for item, res in zip(items, results):
            expected = brute_force(
                corpus, item.values if isinstance(item.values, np.ndarray)
                else as_vals(item.values),
                threshold=item.threshold, top_k=item.top_k,
            )
            assert_matches(res, expected, "mixed batch")
        # The duplicate query must answer identically to its twin.
        assert results[3].matches == results[0].matches

    def test_batch_charges_batch_kernels(self, tmp_path, clustered_sets):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, prefilter="cascade", query_cache_size=0)
        with QueryBatcher(idx, batch_size=8) as batcher:
            results = batcher.query_many(
                [as_vals(s) for s in clustered_sets[:8]], threshold=0.2
            )
        kernels = idx.machine.ledger.kernel_totals
        for kernel in (
            "query:batch:admit",
            "query:batch:window",
            "query:batch:sketch",
            "query:batch:verify",
        ):
            assert kernel in kernels, f"{kernel} missing from the ledger"
            assert kernels[kernel][1] > 0
        # The single-path kernels must not be charged by the batcher.
        assert "query:verify" not in kernels
        for res in results:
            assert res.batch_size == 8
            assert res.simulated_seconds > 0
            assert "[batched x8]" in res.summary()

    def test_exclude_name_in_batch(self, tmp_path, clustered_sets):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, query_cache_size=0)
        name = store.names[0]
        qvals = store.load_values(name)
        with QueryBatcher(idx, batch_size=2) as batcher:
            (res,) = batcher.query_many(
                [BatchQuery(qvals, threshold=0.0, exclude_name=name)]
            )
        single = idx.query_values(qvals, threshold=0.0, exclude_name=name)
        assert res.matches == single.matches
        assert name not in res.names
        assert res.n_candidates == store.n_genomes - 1

    def test_submit_timer_flush(self, tmp_path, clustered_sets):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, query_cache_size=0)
        batcher = QueryBatcher(idx, batch_size=64, max_wait=0.02)
        try:
            fut = batcher.submit(as_vals(clustered_sets[0]), threshold=0.3)
            res = fut.result(timeout=30)  # resolved by the timer, not flush
            corpus = [(n, store.load_values(n)) for n in store.names]
            assert_matches(
                res, brute_force(corpus, as_vals(clustered_sets[0]), 0.3)
            )
            assert batcher.n_batches == 1
        finally:
            batcher.close()

    def test_version_change_flushes_pending_batch(self, tmp_path):
        sets = [{1, 2, 3}, {2, 3, 4}, {10, 11}]
        store = build_store(tmp_path, sets)
        idx = engine(store, prefilter="size", query_cache_size=0)
        q = as_vals({1, 2, 3})
        # max_wait high enough that only the version change can flush
        # the first batch before the explicit flush() at the end.
        batcher = QueryBatcher(idx, batch_size=64, max_wait=60.0)
        try:
            fut_old = batcher.submit(q, threshold=0.0)
            store.append("late", {1, 2, 3})
            fut_new = batcher.submit(q, threshold=0.0)
            res_old = fut_old.result(timeout=30)
            batcher.flush()
            res_new = fut_new.result(timeout=30)
        finally:
            batcher.close()
        assert res_old.store_version < res_new.store_version
        assert "late" not in res_old.names
        assert "late" in res_new.names
        assert batcher.n_batches == 2

    def test_queued_request_owns_its_values(self, tmp_path, clustered_sets):
        # A request can sit in the admission queue until max_wait: the
        # caller may reuse its buffer meanwhile without changing the
        # answer (validation used to copy via np.unique; the sort-based
        # dedup returns a clean array as is, so validate_request copies).
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, query_cache_size=0)
        mine = as_vals(clustered_sets[0])
        want = idx.query_values(mine.copy(), threshold=0.3).matches
        batcher = QueryBatcher(idx, batch_size=64, max_wait=60.0)
        try:
            fut = batcher.submit(mine, threshold=0.3)
            mine[:] = M - 1
            batcher.flush()
            assert fut.result(timeout=30).matches == want
        finally:
            batcher.close()

    def test_invalid_requests_raise_synchronously(self, tmp_path):
        store = build_store(tmp_path, [{1, 2}])
        idx = engine(store)
        with QueryBatcher(idx) as batcher:
            with pytest.raises(ValueError, match="threshold, top_k"):
                batcher.submit(np.array([1]))
            with pytest.raises(ValueError, match="outside"):
                batcher.submit(np.array([M + 5]), threshold=0.5)
            with pytest.raises(ValueError, match="top_k"):
                batcher.submit(np.array([1]), top_k=0)
        with pytest.raises(ValueError, match="batch_size"):
            QueryBatcher(idx, batch_size=0)
        with pytest.raises(ValueError, match="max_wait"):
            QueryBatcher(idx, max_wait=-1.0)

    def test_sequential_executor_runs_inline(self, tmp_path, clustered_sets):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, query_cache_size=0)
        batcher = QueryBatcher(
            idx, executor=SequentialExecutor(), batch_size=2, max_wait=60.0
        )
        f1 = batcher.submit(as_vals(clustered_sets[0]), threshold=0.3)
        f2 = batcher.submit(as_vals(clustered_sets[1]), threshold=0.3)
        # batch_size reached -> executed inline on the admitting thread
        assert f1.done() and f2.done()
        assert f1.result().batch_size == 2
        batcher.close()


class TestHypothesisProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        prefilter=st.sampled_from(["off", "size", "cascade"]),
        threshold=st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
        batch_size=st.sampled_from([1, 2, 3, 8]),
    )
    def test_batched_equals_perquery_equals_bruteforce(
        self, data, prefilter, threshold, batch_size
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
            with QueryBatcher(idx, batch_size=batch_size) as batcher:
                batched = batcher.query_many(queries, threshold=threshold)
                for q, res in zip(queries, batched):
                    single = idx.query_values(q, threshold=threshold)
                    assert res.matches == single.matches
                    assert_matches(
                        res, brute_force(corpus, q, threshold=threshold)
                    )
                    # A batch of one is the single query, field for field.
                    (alone,) = batcher.query_many([q], threshold=threshold)
                    assert without_modelled_cost(alone) == without_modelled_cost(single)

    @settings(max_examples=15, deadline=None)
    @given(
        data=st.data(),
        top_k=st.integers(min_value=1, max_value=5),
        batch_size=st.sampled_from([1, 2, 4]),
    )
    def test_topk_batches_match_bruteforce(self, data, top_k, batch_size):
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
            with QueryBatcher(idx, batch_size=batch_size) as batcher:
                batched = batcher.query_many(qvals, top_k=top_k)
                for q, res in zip(qvals, batched):
                    single = idx.query_values(q, top_k=top_k)
                    assert res.matches == single.matches
                    assert_matches(res, brute_force(corpus, q, top_k=top_k))
                    (alone,) = batcher.query_many([q], top_k=top_k)
                    assert without_modelled_cost(alone) == without_modelled_cost(single)


class TestCacheUnderBatching:
    def test_hit_served_from_cache_only_miss_charged(
        self, tmp_path, clustered_sets
    ):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, query_cache_size=16)
        q_hot = as_vals(clustered_sets[0])
        q_cold = as_vals(clustered_sets[4])
        warm = idx.query_values(q_hot, threshold=0.3)  # single path writes
        with QueryBatcher(idx, batch_size=2) as batcher:
            before = idx.machine.ledger.snapshot()
            hot, cold = batcher.query_many([q_hot, q_cold], threshold=0.3)
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
        with QueryBatcher(idx, batch_size=4) as batcher:
            batcher.query_many(queries, threshold=0.3)
            before = idx.machine.ledger.snapshot()
            again = batcher.query_many(queries, threshold=0.3)
            diff = idx.machine.ledger.diff(before)
        assert all(r.from_cache for r in again)
        assert diff.simulated_seconds == 0.0

    def test_batched_entry_serves_single_path(self, tmp_path, clustered_sets):
        """Cross-path compatibility, batched -> single."""
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, query_cache_size=16)
        q = as_vals(clustered_sets[1])
        with QueryBatcher(idx, batch_size=1) as batcher:
            (batched,) = batcher.query_many([q], threshold=0.25)
        single = idx.query_values(q, threshold=0.25)
        assert single.from_cache
        assert single.matches == batched.matches

    def test_single_entry_serves_batched_path(self, tmp_path, clustered_sets):
        """Cross-path compatibility, single -> batched."""
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, query_cache_size=16)
        q = as_vals(clustered_sets[1])
        single = idx.query_values(q, top_k=2)
        with QueryBatcher(idx, batch_size=1) as batcher:
            (batched,) = batcher.query_many([q], top_k=2)
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
        """Mixed queries from N threads while ``add`` moves the store.

        Every response must be exact for the store version it reports:
        we map each observed ``store_version`` back to the corpus at
        that version and compare against brute force over it.
        """
        m = 1_200

        def random_sets(k):
            return [
                set(rng.integers(0, m, size=rng.integers(1, 40)).tolist())
                for _ in range(k)
            ]

        initial = random_sets(10)
        store = IndexStore.create(tmp_path / "idx", m=m, sketch_size=32)
        svc = SimilarityService(store)
        svc.add([(f"g{i}", s) for i, s in enumerate(initial)])
        corpus = [(n, store.load_values(n)) for n in store.names]
        # add is one commit: exactly one version per corpus.
        version_map = {store.version: list(corpus)}

        idx = engine(store, prefilter="cascade", query_cache_size=0)
        batcher = QueryBatcher(idx, batch_size=4, max_wait=0.005)

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
                futures = []
                for j in range(self.QUERIES_PER_THREAD):
                    q = pool[(tid * 7 + j * 3) % len(pool)]
                    if (tid + j) % 3 == 0:
                        fut = batcher.submit(q, top_k=3)
                        futures.append((q, None, 3, fut))
                    else:
                        fut = batcher.submit(q, threshold=0.2)
                        futures.append((q, 0.2, None, fut))
                for q, t, k, fut in futures:
                    res = fut.result(timeout=60)
                    with outcomes_lock:
                        outcomes.append((q, t, k, res))
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
        batcher.close()

        assert not errors, f"worker raised: {errors[0]!r}"
        assert len(outcomes) == self.N_THREADS * self.QUERIES_PER_THREAD
        for q, t, k, res in outcomes:
            corpus_at = version_map[res.store_version]
            expected = brute_force(corpus_at, q, threshold=t, top_k=k)
            assert_matches(
                res, expected, f"v{res.store_version} t={t} k={k}"
            )
        assert batcher.n_requests == len(outcomes)
        assert batcher.n_batches >= 1


class TestBatchedLsh:
    """Batched LSH candidate generation: parity, kernels, audit mode."""

    def test_lsh_plan_pins_stages_and_kernels(self, tmp_path):
        store = build_store(tmp_path, [{1, 2}, {2, 3}])
        cfg = SimilarityConfig(
            query_prefilter="size", query_candidates="lsh"
        )
        plan = compile_plan(cfg, store, batched=True)
        assert [s.name for s in plan.stages] == ["lsh", "window", "verify"]
        assert plan.kernel("lsh") == "query:batch:lsh"
        single = compile_plan(cfg, store)
        assert single.kernel("lsh") == "query:lsh"
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
        with QueryBatcher(idx, batch_size=4) as batcher:
            batched = batcher.query_many(queries, threshold=0.3)
            for q, res in zip(queries, batched):
                single = idx.query_values(q, threshold=0.3)
                assert res.matches == single.matches
                assert res.n_after_lsh == single.n_after_lsh
                assert res.n_after_size == single.n_after_size
                assert res.candidates == candidates
                (alone,) = batcher.query_many([q], threshold=0.3)
                assert without_modelled_cost(alone) == without_modelled_cost(single)

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
        with QueryBatcher(idx, batch_size=5) as batcher:
            results = batcher.query_many(queries, threshold=0.25)
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
        with QueryBatcher(idx, batch_size=4) as batcher:
            batcher.query_many(
                [as_vals(s) for s in clustered_sets[:4]], threshold=0.3
            )
        kernels = idx.machine.ledger.kernel_totals
        assert "query:batch:lsh" in kernels
        assert kernels["query:batch:lsh"][1] > 0
        assert "query:lsh" not in kernels

    def test_scan_batch_charges_no_lsh_kernel(
        self, tmp_path, clustered_sets
    ):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, prefilter="size", query_cache_size=0)
        with QueryBatcher(idx, batch_size=4) as batcher:
            batcher.query_many(
                [as_vals(s) for s in clustered_sets[:4]], threshold=0.3
            )
        assert "query:batch:lsh" not in idx.machine.ledger.kernel_totals


class TestBatchedEdgeCases:
    """The single-path degenerate inputs, swept through the batcher."""

    CANDIDATES = ["scan", "lsh", "lsh_exact"]

    @pytest.mark.parametrize("candidates", CANDIDATES)
    def test_top_k_zero_rejected_synchronously(
        self, tmp_path, clustered_sets, candidates
    ):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(store, prefilter="size", query_candidates=candidates)
        with QueryBatcher(idx, batch_size=2) as batcher:
            with pytest.raises(ValueError, match="top_k"):
                batcher.submit(as_vals(clustered_sets[0]), top_k=0)

    @pytest.mark.parametrize("candidates", CANDIDATES)
    def test_top_k_exceeds_corpus(self, tmp_path, clustered_sets, candidates):
        store = build_store(tmp_path, clustered_sets)
        idx = engine(
            store, prefilter="size", query_candidates=candidates,
            query_cache_size=0,
        )
        with QueryBatcher(idx, batch_size=2) as batcher:
            (res,) = batcher.query_many(
                [as_vals(clustered_sets[0])], top_k=10_000
            )
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
        with QueryBatcher(idx, batch_size=2) as batcher:
            results = batcher.query_many(queries, threshold=threshold)
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
        with QueryBatcher(idx, batch_size=2) as batcher:
            results = batcher.query_many(
                [np.array([1, 2], dtype=np.int64),
                 np.empty(0, dtype=np.int64)],
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
        with QueryBatcher(idx, batch_size=1) as batcher:
            (res,) = batcher.query_many(
                [np.empty(0, dtype=np.int64)], threshold=0.5
            )
        assert res.names == [f"g{len(clustered_sets) - 1}"]
