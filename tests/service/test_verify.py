"""The rank-space verify kernel.

``StoreSnapshot.rank_space`` holds one store version as a filtered
indicator matrix (``universe``, ``ranks``, ``offsets``, ``counts``) and
``RankSpace.intersections`` is the one verify kernel of every measure
and batch shape.  Pinned here: the memo reproduces the stored columns
on both rank builds (counting pass and sort), the kernel scores exactly
what ``measure.exact_pair`` scores on the inputs a segment sum gets
wrong (empty stored genomes, empty queries, query values outside the
universe, an empty candidate last), weighted queries with and without
counts on either side, one memo build under concurrent first queries,
and a cost ledger that racing queries charge exactly.  The packed-row
layout (AND + popcount) equals the gather and brute force bit for bit,
is never used for weighted requests, is built only once the gathers
have touched ``nnz`` ranks and only when it is no larger than the rank
column, and is built once by racing wide queries.
"""

import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.cascade as cascade
import repro.service.store as store_module
from repro.core.config import SIMILARITY_MEASURES, SimilarityConfig
from repro.runtime.executor import ThreadedExecutor
from repro.semantics.measures import get_measure
from repro.service import IndexStore, SimilarityIndex, SimilarityService
from repro.service.cascade import validate_request
from repro.service.query import exact_jaccard
from repro.util.arrays import sorted_unique
from tests.helpers import race


def build(root, m, items):
    store = IndexStore.create(root, m=m, sketch_size=32, families=("minhash",))
    store.append_many(items)
    return store


def corpus(rng, hi=150):
    """Values in ``[0, hi)``; empty genomes in the middle and last, and
    abundance counts on every other genome."""
    items = []
    for i in range(12):
        size = 0 if i in (3, 11) else int(rng.integers(1, 60))
        vals = np.unique(rng.integers(0, hi, size=size))
        if i % 2:
            items.append((f"g{i:02d}", vals, rng.integers(1, 6, size=vals.size)))
        else:
            items.append((f"g{i:02d}", vals))
    return items


def engine(store, measure, **config):
    config.setdefault("query_prefilter", "off")
    return SimilarityIndex(
        store,
        config=SimilarityConfig(similarity=measure, query_cache_size=0, **config),
    )


class TestRankSpace:
    def test_round_trip_on_both_build_paths(self, tmp_path, rng):
        items = corpus(rng)
        nnz = sum(int(np.asarray(item[1]).size) for item in items)
        # The same corpus embedded in a small attribute space (m <= nnz:
        # counting pass) and in a large one (m > nnz: sort).
        counted = build(tmp_path / "counted", 150, items)
        sorted_ = build(tmp_path / "sorted", 10 * nnz, items)
        assert 150 <= nnz < 10 * nnz
        spaces = []
        for store in (counted, sorted_):
            snap = store.snapshot()
            space, built = snap.rank_space()
            again, rebuilt = snap.rank_space()
            assert built and again is space and not rebuilt
            stored = [store.load_values(n) for n in store.names]
            assert np.array_equal(space.universe, sorted_unique(np.sort(np.concatenate(stored))))
            assert space.ranks.dtype == np.int32 and space.offsets[-1] == space.ranks.size
            for i, name in enumerate(store.names):
                col = space.column(i)
                assert np.array_equal(space.universe[space.ranks[col]], stored[i])
                assert np.array_equal(snap.load_values(name), stored[i])
                assert np.array_equal(space.counts[col], store.load_counts(name))
                assert np.array_equal(snap.load_counts(name), store.load_counts(name))
            spaces.append(space)
        assert spaces[0].lut is not None and spaces[1].lut is None
        for field in ("universe", "ranks", "offsets", "counts"):
            assert np.array_equal(getattr(spaces[0], field), getattr(spaces[1], field))

    def test_no_counts_column_without_abundances(self, tmp_path):
        store = build(tmp_path / "s", 100, [("a", [1, 2]), ("b", [2, 5, 7])])
        snap = store.snapshot()
        assert snap.rank_space()[0].counts is None
        assert np.array_equal(snap.load_counts("b"), [1, 1, 1])

    def test_record_disagreeing_with_manifest_is_a_store_error(self, tmp_path):
        store = build(tmp_path / "s", 100, [("a", [1, 2]), ("b", [2, 5, 7])])
        store.entries[1].n_values = 4
        with pytest.raises(store_module.StoreError, match="manifest says 4"):
            store.snapshot().rank_space()


EDGE_STORE = [
    ("a", [1, 2, 3, 6]),
    ("empty", []),
    ("b", [2, 3, 4, 5, 8]),
    ("c", [100, 101]),
    ("last_empty", []),
]

EDGE_QUERIES = [
    [],  # the empty query
    [7, 150, 199],  # every value outside the universe
    [3, 7, 50, 100, 150],  # some inside, some outside
    [1, 2, 3, 6, 8, 101],  # hits the last value of every stored genome
]


class TestEdgeCases:
    # m = 9 drops "c": 9 stored values, a counting pass; m = 200: a sort.
    @pytest.mark.parametrize("m", [9, 200])
    def test_intersections_against_sorted_intersections(self, tmp_path, m):
        items = [(n, v) for n, v in EDGE_STORE if not v or max(v) < m]
        store = build(tmp_path / "s", m, items)
        space, _ = store.snapshot().rank_space()
        assert (space.lut is not None) == (m == 9)
        stored = [store.load_values(n) for n in store.names]
        n = len(stored)
        for q in EDGE_QUERIES:
            q = np.asarray([v for v in q if v < m], dtype=np.int64)
            for cand in ([*range(n)], [0, n - 1], [1], [n - 1], []):
                cand = np.asarray(cand, dtype=np.int64)
                want = [np.intersect1d(q, stored[i]).size for i in cand]
                assert space.intersections(q, None, cand).tolist() == want, (q, cand)

    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    def test_every_measure_equals_exact_pair(self, tmp_path, measure):
        store = build(tmp_path / "s", 200, EDGE_STORE)
        scorer = get_measure(measure)
        stored = {n: store.load_values(n) for n in store.names}
        idx = engine(store, measure)
        queries = [np.asarray(q, dtype=np.int64) for q in EDGE_QUERIES]
        batched = idx.query_batch(queries, threshold=0.0)
        for q, res in zip(queries, batched):
            single = idx.query_values(q, threshold=0.0)
            assert res.matches == single.matches
            assert single.n_verified == len(stored)
            got = {m.name: m.similarity for m in single.matches}
            assert got == {n: scorer.exact_pair(q, v) for n, v in stored.items()}


class TestWeighted:
    ITEMS = [
        ("w1", [1, 2, 3, 4], [3, 1, 2, 5]),
        ("plain", [2, 3, 4]),
        ("w2", [4, 9], [1, 7]),
        ("empty", []),
    ]
    QUERIES = [
        ([2, 4, 9, 11], [2, 2, 3, 1]),
        ([1, 2, 3, 4], [3, 1, 2, 5]),
        ([2, 3, 4], None),
        ([0, 50], [2, 4]),
        ([], None),
    ]

    # m = 5 drops "w2": 7 stored values, a counting pass; m = 200: a sort.
    @pytest.mark.parametrize("m", [5, 200])
    def test_counts_on_either_side(self, tmp_path, m):
        items = [it for it in self.ITEMS if not it[1] or max(it[1]) < m]
        store = build(tmp_path / "s", m, items)
        scorer = get_measure("weighted_jaccard")
        idx = engine(store, "weighted_jaccard")
        for q_vals, q_counts in self.QUERIES:
            keep = np.asarray(q_vals, dtype=np.int64) < m
            q_vals = np.asarray(q_vals, dtype=np.int64)[keep]
            if q_counts is not None:
                q_counts = np.asarray(q_counts, dtype=np.int64)[keep]
            res = idx.query_values(q_vals, threshold=0.0, counts=q_counts)
            want = {
                n: scorer.exact_pair(q_vals, store.load_values(n), q_counts, store.load_counts(n))
                for n in store.names
            }
            assert {m.name: m.similarity for m in res.matches} == want
        assert (idx.snapshot().rank_space()[0].lut is not None) == (m == 5)


class TestConcurrentFirstQuery:
    def test_one_build_for_racing_first_queries(self, tmp_path, rng, monkeypatch):
        """Batches of one and single queries race on one shared engine to
        the first verify of one fresh snapshot: equal answers and one
        rank-space build (one read per value record)."""
        items = [
            (f"g{i:02d}", np.unique(rng.integers(0, 400, size=int(rng.integers(20, 80)))))
            for i in range(20)
        ]
        store = build(tmp_path / "s", 400, items)
        query = items[0][1]
        scores = [(n, exact_jaccard(query, store.load_values(n))) for n in store.names]
        want = sorted((p for p in scores if p[1] >= 0.1), key=lambda p: -p[1])
        real, value_reads = store_module.read_record, []

        def counting(path, index):
            if index == 0:
                value_reads.append(path.name)
            return real(path, index)

        monkeypatch.setattr(store_module, "read_record", counting)
        shared = engine(store, "jaccard", query_prefilter="size")
        snapshot = shared.snapshot()  # pinned; nothing built yet
        calls = iter(range(6))

        def first_query():
            if next(calls) % 2:
                return shared.query_batch([query], threshold=0.1)[0]
            return shared.query_values(query, threshold=0.1)

        answers = race(6, first_query)
        for res in answers:
            assert res.store_version == snapshot.version
            assert [(m.name, m.similarity) for m in res.matches] == want
        assert sorted(value_reads) == sorted(Path(e.shard).name for e in store.entries)

    @pytest.mark.parametrize("shards", [1, 4], ids=["flat", "sharded"])
    def test_racing_queries_charge_what_sequential_ones_do(self, tmp_path, rng, shards):
        """Threads querying one service share its machine's cost ledger
        (and, sharded, fan out on a thread pool): nothing raises, and the
        ledger ends up charged exactly what the same queries charge one
        after another on a fresh service — no update is lost."""
        workers, rounds, repeats = 4, 20, 8
        items = [
            (f"g{i:02d}", np.unique(rng.integers(0, 3000, size=int(rng.integers(10, 400)))))
            for i in range(32)
        ]
        root = tmp_path / "idx"
        SimilarityService.create(
            root, m=3000,
            config=SimilarityConfig(
                sketch_size=32, store_shards=shards, shard_band_policy="quantile"
            ),
            size_hint=np.array([v.size for _, v in items]),
        ).add(items)
        config = SimilarityConfig(query_cache_size=0, query_candidates="lsh_exact")
        queries = [
            (items[i][1], {"threshold": 0.05} if i % 2 else {"top_k": 5})
            for i in range(workers)
        ]

        def flops(svc):
            return {k: f for k, (_, f) in svc.machine.ledger.kernel_totals.items()}

        sequential = SimilarityService.open(root, config=config)
        want = [
            [sequential.query(values=q, **kw).matches for _ in range(repeats)]
            for q, kw in queries
        ]
        want_flops = flops(sequential)
        with ThreadedExecutor(4) as pool:
            for _ in range(rounds):
                svc = SimilarityService.open(root, config=config, executor=pool)
                turns = iter(range(workers))

                def one():
                    i = next(turns)
                    q, kw = queries[i]
                    return i, [svc.query(values=q, **kw).matches for _ in range(repeats)]

                got = dict(race(workers, one))
                assert [got[i] for i in range(workers)] == want
                charged = flops(svc)
                assert charged.keys() == want_flops.keys()
                for kernel, f in want_flops.items():
                    assert charged[kernel] == pytest.approx(f, rel=1e-12), kernel

    def test_request_builds_each_sketch_row_once(self, monkeypatch):
        """Bands racing on a threaded executor share one request; its
        sketch row is built once."""
        real, built = cascade.sketch_row, []

        def counting(*args):
            built.append(args[0])
            return real(*args)

        monkeypatch.setattr(cascade, "sketch_row", counting)
        request = validate_request(3000, np.arange(0, 3000, 3), threshold=0.5)
        rows = race(8, lambda: request.sketch_row("minhash", 64, 8, 0))
        assert built == ["minhash"]
        assert all(row is rows[0] for row in rows)


def columns_space(m, cols):
    """A :class:`RankSpace` straight from value columns (no store)."""
    offsets = np.zeros(len(cols) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(c) for c in cols])
    flat = np.concatenate([np.empty(0, dtype=np.int64), *map(np.asarray, cols)])
    return store_module.RankSpace.from_columns(m, flat.astype(np.int64), offsets, None)


@contextmanager
def patched(name, value):
    """``store_module.<name>`` set to ``value`` for a while."""
    real = getattr(store_module, name)
    setattr(store_module, name, value)
    try:
        yield
    finally:
        setattr(store_module, name, real)


def with_cost(word_cost):
    """Every request wide (``0``) or narrow (a huge cost) for a while."""
    return patched("PACKED_WORD_COST", word_cost)


@st.composite
def packed_cases(draw):
    """A universe of exactly ``U`` values (the even numbers below ``2U``;
    the odd ones are outside it), genomes over it (empty ones included,
    and always an empty one last), queries and candidate lists."""
    u = draw(st.sampled_from([1, 63, 64, 65, 130]))
    universe = 2 * np.arange(u, dtype=np.int64)
    members = st.lists(st.integers(0, u - 1), max_size=u).map(
        lambda idx: universe[np.unique(np.asarray(idx, dtype=np.int64))]
    )
    # The universe twice over: every value is held, and nnz >= 2U lets
    # m = 2U take the counting pass.
    cols = [universe, universe, *draw(st.lists(members, max_size=6)), universe[:0]]
    n = len(cols)
    query = st.lists(st.integers(0, 2 * u - 1), max_size=2 * u).map(
        lambda q: np.unique(np.asarray(q, dtype=np.int64))
    )
    queries = [universe[:0], universe + 1, universe, *draw(st.lists(query, min_size=1, max_size=3))]
    subset = st.lists(st.integers(0, n - 1), min_size=1, max_size=n).map(
        lambda c: np.unique(np.asarray(c, dtype=np.int64))
    )
    cands = [
        np.arange(n),
        np.array([draw(st.integers(0, n - 1))]),
        np.array([0, n - 1]),
        np.array([n - 1]),
        *draw(st.lists(subset, min_size=1, max_size=3)),
    ]
    return u, cols, queries, cands


class TestPackedRows:
    """The packed-row layout: bit-exact against the gather and brute
    force, built once, only when it is small enough and has paid for
    itself, and never used for weighted requests."""

    @settings(max_examples=80, deadline=None)
    @given(case=packed_cases())
    def test_packed_equals_gather_equals_exact_pair(self, case):
        u, cols, queries, cands = case
        jaccard = get_measure("jaccard")
        sizes = np.array([len(c) for c in cols])
        for m in (2 * u, 10**12):  # the counting pass, then the sort
            gather, packed = columns_space(m, cols), columns_space(m, cols)
            assert (gather.lut is not None) == (m == 2 * u)
            assert gather.universe.size == u and gather.words == -(-u // 64)
            # Bit r % 64 of word r // 64 is set iff the genome holds rank
            # r; the pad bits past U are zero.  Built a row, three rows
            # and the whole layout per step.
            want_bits = np.zeros((len(cols), 64 * gather.words), dtype=np.uint8)
            for i in range(len(cols)):
                want_bits[i, gather.ranks[gather.column(i)]] = 1
            for chunk in (1, 3 * 64 * gather.words, store_module.PACK_CHUNK_BITS):
                with patched("PACK_CHUNK_BITS", chunk):
                    rows = packed._pack_rows()
                assert rows.shape == (len(cols), gather.words)
                bits = np.unpackbits(rows.astype("<u8").view(np.uint8), bitorder="little")
                assert np.array_equal(bits.reshape(len(cols), -1), want_bits), chunk
            packed._rows = rows
            for q in queries:
                for cand in cands:
                    with with_cost(1e18):
                        got_gather = gather.intersections(q, None, cand)
                    with with_cost(0.0):
                        got_packed = packed.intersections(q, None, cand)
                    want = [np.intersect1d(q, cols[i]).size for i in cand]
                    assert got_gather.tolist() == want, (q, cand)
                    assert got_packed.tolist() == want, (q, cand)
                    scores = jaccard.score_from_stats(got_packed, q.size, sizes[cand])
                    exact = [jaccard.exact_pair(q, cols[i]) for i in cand]
                    assert np.asarray(scores, dtype=float).tolist() == exact
            assert gather._rows is None

    @staticmethod
    def dense_space(rng, n=20, hi=400):
        """Genomes of 20-80 values below ``hi``: ``n·⌈U/64⌉`` words fit in
        half the rank column, and a request over every genome is wide."""
        cols = [np.unique(rng.integers(0, hi, size=int(rng.integers(20, 80)))) for _ in range(n)]
        space = columns_space(hi, cols)
        assert 2 * n * space.words <= space.ranks.size
        return space, cols

    def test_built_once_the_gathers_have_touched_nnz_ranks(self, rng):
        space, cols = self.dense_space(rng)
        nnz, n = space.ranks.size, len(cols)
        half = np.arange(n // 2)
        touched = int(space.offsets[n // 2])
        q = cols[0]
        calls = 0
        while calls * touched < nnz:
            assert space._rows is None
            got = space.intersections(q, None, half)
            assert got.tolist() == [np.intersect1d(q, cols[i]).size for i in half]
            calls += 1
        assert space._rows is None and calls >= 2
        # Narrow requests neither build nor count.
        one = np.array([0])
        for _ in range(3):
            with with_cost(1e18):
                space.intersections(q, None, one)
        assert space._rows is None and space._gathered == calls * touched
        got = space.intersections(q, None, half)
        assert space._rows is not None
        assert got.tolist() == [np.intersect1d(q, cols[i]).size for i in half]

    def test_weighted_requests_never_take_the_packed_path(self, rng):
        space, cols = self.dense_space(rng)
        cand = np.arange(len(cols))
        q = cols[3]
        q_counts = rng.integers(1, 5, size=q.size)
        want = [np.intersect1d(q, c).size for c in cols]
        for _ in range(3):  # 3 x nnz gathered: would have built it
            assert space.intersections(q, q_counts, cand).tolist() == want
        assert space._rows is None and space._gathered == 0
        # Rows that are all ones: a weighted request reading them would
        # score every candidate at |Q|.
        space._rows = np.full((len(cols), space.words), ~np.uint64(0))
        with with_cost(0.0):
            assert space.intersections(q, q_counts, cand).tolist() == want

    def test_never_built_larger_than_the_rank_column(self, rng):
        """64 genomes of 16 values over a universe of 640: 640 words are
        cheaper than the 1024 ranks of a request over every genome
        (1.25 x 640 < 1024) but take more than half the rank column."""
        universe = np.arange(640)
        perm = rng.permutation(640)
        cols = [np.sort(np.concatenate([universe[perm[10 * i : 10 * i + 10]],
                                        rng.choice(640, 6, replace=False)]))
                for i in range(64)]
        cols = [np.unique(c) for c in cols]
        space = columns_space(640, cols)
        n, nnz = len(cols), space.ranks.size
        cand = np.arange(n)
        assert space.universe.size == 640
        assert n * space.words * store_module.PACKED_WORD_COST < nnz < 2 * n * space.words
        for q in cols[:6]:
            got = space.intersections(q, None, cand)
            assert got.tolist() == [np.intersect1d(q, c).size for c in cols]
        assert space._rows is None

    def test_racing_first_wide_queries_build_it_once(self, tmp_path, rng, monkeypatch):
        """Top-k queries race on one shared engine over a fresh snapshot:
        the gathers pass ``nnz`` mid-race and the layout is built exactly
        once (the build is slowed so that racers overlap it)."""
        items = [
            (f"g{i:02d}", np.unique(rng.integers(0, 400, size=int(rng.integers(20, 80)))))
            for i in range(20)
        ]
        store = build(tmp_path / "s", 400, items)
        real, builds = store_module.RankSpace._pack_rows, []

        def slow_build(space):
            builds.append(threading.get_ident())
            time.sleep(0.05)
            return real(space)

        monkeypatch.setattr(store_module.RankSpace, "_pack_rows", slow_build)
        shared = engine(store, "jaccard")
        queries = [items[i][1] for i in range(6)]
        want = {}
        for i, q in enumerate(queries):
            scores = [(n, exact_jaccard(q, store.load_values(n))) for n in store.names]
            want[i] = sorted(scores, key=lambda p: (-p[1], p[0]))[:5]
        turns = iter(range(6))

        def wide_queries():
            i = next(turns)
            return i, [shared.query_values(queries[i], top_k=5) for _ in range(4)]

        for i, results in race(6, wide_queries):
            for res in results:
                assert [(m.name, m.similarity) for m in res.matches] == want[i]
        assert len(builds) == 1
        space, _ = shared.snapshot().rank_space()
        assert space._rows is not None
