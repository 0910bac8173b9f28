"""Tests for the size-banded sharded store and the fan-out query engine.

The central invariant (the PR's acceptance criterion): a sharded
store's threshold/top-k answers are **bit-identical** to the flat
store's — at 1, 4, and 8 shards, under every query shape, including
while a concurrent ``add`` mutates the store.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SHARD_BAND_POLICIES, SIMILARITY_MEASURES, SimilarityConfig
from repro.runtime.engine import Machine
from repro.runtime.machine import laptop
from repro.service import (
    IndexStore,
    QueryMatch,
    ShardedSimilarityIndex,
    ShardedStore,
    SimilarityIndex,
    SimilarityService,
    StoreError,
    open_store,
    plan_size_bands,
    shard_store,
)
from repro.service.query import exact_jaccard

M = 3_000


def corpus(rng, n=24):
    """Skewed small-size sets (plus one empty genome).

    Sizes stay under 900 << M, so on equal-width banding the upper bands
    are empty — which also exercises empty shards.  Use
    :func:`spread_corpus` when a test needs every band populated.
    """
    sets = []
    for i in range(n):
        size = int(rng.integers(1, 60) ** 1.8) % 900 + 1
        sets.append(np.unique(rng.integers(0, M, size=size)))
    sets.append(np.array([], dtype=np.int64))  # an empty genome
    return sets


def spread_corpus(rng, per_band=6, bands=4):
    """Sets planted inside every equal-width band over [0, M)."""
    width = M // bands
    sets = []
    for b in range(bands):
        lo = b * width + width // 8
        hi = (b + 1) * width - width // 8
        for _ in range(per_band):
            size = int(rng.integers(lo, hi))
            sets.append(np.sort(rng.choice(M, size=size, replace=False)))
    return sets


def build_flat(tmp_path, sets, name="flat"):
    store = IndexStore.create(tmp_path / name, m=M, sketch_size=64)
    for i, s in enumerate(sets):
        store.append(f"g{i:02d}", s)
    return store


def build_sharded(tmp_path, sets, shards, name=None):
    # Quantile bands over an even spread of sizes are equal-width bands.
    store = ShardedStore.create(
        tmp_path / (name or f"sh{shards}"), m=M, shards=shards,
        band_policy="quantile", sketch_size=64, size_hint=np.arange(M + 1),
    )
    store.append_many([(f"g{i:02d}", s) for i, s in enumerate(sets)])
    return store


def matches_of(result):
    return [(m.name, m.index, m.similarity) for m in result.matches]


class TestBandPlanning:
    def test_edges_are_monotone_and_cover(self):
        for n in (1, 2, 5, 16):
            edges = plan_size_bands(M, n, "geometric")
            assert edges.shape == (n,)
            assert edges[-1] == M + 1
            assert np.all(np.diff(edges) > 0) or n == 1

    def test_quantile_needs_sizes(self):
        with pytest.raises(StoreError, match="quantile banding needs"):
            plan_size_bands(M, 4, "quantile")
        edges = plan_size_bands(
            M, 4, "quantile", sizes=np.array([5, 6, 7, 100, 101, 900])
        )
        assert edges[-1] == M + 1
        assert np.all(np.diff(edges) > 0)

    def test_errors(self):
        with pytest.raises(StoreError, match="at least one size band"):
            plan_size_bands(M, 0)
        with pytest.raises(StoreError, match="cannot split"):
            plan_size_bands(3, 10)
        with pytest.raises(StoreError, match="band_policy"):
            plan_size_bands(M, 2, "bogus")

    @pytest.mark.parametrize("policy", SHARD_BAND_POLICIES)
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_every_policy_maps_each_size_to_one_band(self, n, policy, rng):
        sizes = rng.integers(1, M, size=200)
        edges = plan_size_bands(M, n, policy, sizes=sizes)
        assert edges.shape == (n,) and edges[-1] == M + 1
        assert np.all(np.diff(edges) > 0)
        bands = np.searchsorted(edges, np.arange(M + 1), side="right")
        assert bands.min() == 0 and bands.max() == n - 1

    def test_equal_width_bands_are_not_a_policy(self):
        with pytest.raises(StoreError, match="band_policy"):
            plan_size_bands(M, 4, "uniform")

    def test_band_of_covers_every_size(self, tmp_path):
        store = ShardedStore.create(
            tmp_path / "sh", m=M, shards=5, band_policy="geometric"
        )
        bands = [store.band_of(s) for s in range(0, M + 1)]
        assert min(bands) == 0 and max(bands) == 4
        assert bands == sorted(bands)  # monotone in size
        # Edges are upper-exclusive: [edge_1, edge_2) belongs to band 2,
        # edge_2 itself to the next one.
        lo, hi = (int(e) for e in store.band_edges[1:3])
        assert store.band_of(lo) == 2 and store.band_of(hi - 1) == 2
        assert store.band_of(hi) == 3


class TestStoreParity:
    """The sharded store mirrors the flat store's read API."""

    def test_names_sizes_values_match_flat(self, tmp_path, rng):
        sets = corpus(rng)
        flat = build_flat(tmp_path, sets)
        sh = build_sharded(tmp_path, sets, 4)
        assert sh.names == flat.names
        assert np.array_equal(sh.sizes(), flat.sizes())
        for name in flat.names:
            assert np.array_equal(
                sh.load_values(name), flat.load_values(name)
            )

    def test_reopen_round_trip(self, tmp_path, rng):
        sets = corpus(rng)
        sh = build_sharded(tmp_path, sets, 4)
        reopened = open_store(sh.root)
        assert isinstance(reopened, ShardedStore)
        assert reopened.names == sh.names
        assert np.array_equal(reopened.band_edges, sh.band_edges)
        assert [s.n_genomes for s in reopened.shards] == [
            s.n_genomes for s in sh.shards
        ]

    def test_flat_open_rejects_sharded_with_hint(self, tmp_path, rng):
        sh = build_sharded(tmp_path, corpus(rng), 4)
        with pytest.raises(StoreError, match="open it with"):
            IndexStore.open(sh.root)

    def test_open_store_dispatches_both_layouts(self, tmp_path, rng):
        sets = corpus(rng)
        flat = build_flat(tmp_path, sets)
        sh = build_sharded(tmp_path, sets, 4)
        assert isinstance(open_store(flat.root), IndexStore)
        assert isinstance(open_store(sh.root), ShardedStore)
        with pytest.raises(StoreError, match="no index store"):
            open_store(tmp_path / "missing")

    def test_remove_and_per_shard_compact(self, tmp_path, rng):
        sets = corpus(rng)
        sh = build_sharded(tmp_path, sets, 4)
        victim = "g03"
        band = sh._entry(victim).band
        versions = [s.version for s in sh.shards]
        sh.remove(victim)
        assert victim not in sh.names
        reclaimed = sh.compact()
        assert reclaimed >= 0
        # Only the victim's band compacted; the others never mutated.
        for i, s in enumerate(sh.shards):
            if i == band:
                assert s.version > versions[i]
            else:
                assert all(not e.removed for e in s.entries)
        reopened = open_store(sh.root)
        assert reopened.names == sh.names

    def test_append_routes_by_size_band(self, tmp_path, rng):
        sh = ShardedStore.create(
            tmp_path / "sh", m=M, shards=3, band_policy="quantile",
            size_hint=np.arange(M + 1),
        )
        sh.append("small", np.arange(5))
        sh.append("big", np.arange(2500))
        assert sh._entry("small").band == 0
        assert sh._entry("big").band == 2
        assert sh.shards[0].names == ["small"]
        assert sh.shards[2].names == ["big"]


@pytest.mark.parametrize("shards", [1, 4, 8])
class TestQueryEquality:
    """Bit-identical answers at 1, 4, and 8 shards."""

    def _engines(self, tmp_path, rng, shards):
        sets = corpus(rng)
        flat = build_flat(tmp_path, sets)
        sh = build_sharded(tmp_path, sets, shards)
        # Cache off: every answer below is computed, never replayed.
        config = SimilarityConfig(query_cache_size=0)
        return (
            sets,
            SimilarityIndex(flat, config=config),
            ShardedSimilarityIndex(sh, config=config),
        )

    def test_threshold_topk_and_both(self, tmp_path, rng, shards):
        sets, flat_eng, sh_eng = self._engines(tmp_path, rng, shards)
        flat_twin = SimilarityIndex(flat_eng.store, config=flat_eng.config)
        sh_twin = ShardedSimilarityIndex(sh_eng.store, config=sh_eng.config)
        queries = [
            np.unique(rng.integers(0, M, size=s))
            for s in (1, 20, 200, 700)
        ] + [np.array([], dtype=np.int64)]
        cases = [
            dict(threshold=0.05),
            dict(threshold=0.0),
            dict(threshold=1.0),
            dict(top_k=3),
            dict(top_k=100),
            dict(threshold=0.02, top_k=5),
        ]
        for q in queries:
            for case in cases:
                r_flat = flat_eng.query_values(q, **case)
                r_sh = sh_eng.query_values(q, **case)
                assert matches_of(r_flat) == matches_of(r_sh), (
                    q.size, case
                )
                # Consulted-shards-only counters never exceed flat's.
                assert r_sh.n_candidates <= r_flat.n_candidates
                assert r_sh.n_verified <= r_flat.n_verified
                # A batch of one is the same query, on either layout:
                # each twin engine has seen exactly what its engine has.
                for twin, single in ((flat_twin, r_flat), (sh_twin, r_sh)):
                    (alone,) = twin.query_batch([q], **case)
                    assert alone == single, (q.size, case)

    def test_topk_ties_break_identically(self, tmp_path, rng, shards):
        # Exact duplicates across bands of different sizes can't tie,
        # but same-J pairs within the window can: plant duplicates.
        sets = [np.arange(10), np.arange(10), np.arange(10) + 100,
                np.arange(400), np.arange(400) + 7]
        flat = build_flat(tmp_path, sets)
        sh = build_sharded(tmp_path, sets, shards)
        q = np.arange(10)
        r_flat = SimilarityIndex(flat).query_values(q, top_k=3)
        r_sh = ShardedSimilarityIndex(sh).query_values(q, top_k=3)
        assert matches_of(r_flat) == matches_of(r_sh)
        # The tie broke by global store position.
        assert r_flat.matches[0].index < r_flat.matches[1].index

    def test_query_name_excludes_self(self, tmp_path, rng, shards):
        sets, flat_eng, sh_eng = self._engines(tmp_path, rng, shards)
        for name in ("g00", "g07", "g20"):
            r_flat = flat_eng.query_name(name, threshold=0.0)
            r_sh = sh_eng.query_name(name, threshold=0.0)
            assert name not in r_sh.names
            assert matches_of(r_flat) == matches_of(r_sh)

    def test_brute_force_ground_truth(self, tmp_path, rng, shards):
        sets, _, sh_eng = self._engines(tmp_path, rng, shards)
        q = np.unique(rng.integers(0, M, size=150))
        t = 0.03
        expected = sorted(
            (
                (i, exact_jaccard(q, np.asarray(s, dtype=np.int64)))
                for i, s in enumerate(sets)
                if exact_jaccard(q, np.asarray(s, dtype=np.int64)) >= t
            ),
            key=lambda p: (-p[1], p[0]),
        )
        got = sh_eng.query_values(q, threshold=t)
        assert [(m.index, m.similarity) for m in got.matches] == expected


class TestFanOut:
    def test_band_selection_prunes_shards(self, tmp_path, rng):
        # Genomes planted in every equal-width band: a threshold-0.5 query
        # of size 200 has size window [100, 400], which overlaps only
        # the lowest of 8 bands (width 375) — genomes in the other
        # bands are never even candidates.
        sets = spread_corpus(rng, per_band=3, bands=8)
        sh = build_sharded(tmp_path, sets, 8)
        eng = ShardedSimilarityIndex(sh)
        q = np.sort(rng.choice(M, size=200, replace=False))
        r = eng.query_values(q, threshold=0.5)
        assert r.n_candidates < sh.n_genomes
        # Threshold 0 must consult everything.
        r_all = eng.query_values(q, threshold=0.0)
        assert r_all.n_candidates == sh.n_genomes

    def test_fanout_makespan_beats_serial_sum(self, tmp_path, rng):
        # With every band populated and per-shard cascades pinned to
        # distinct ranks, the fan-out's modelled time is the slowest
        # rank's clock advance — below the sum of the per-shard times.
        sets = spread_corpus(rng, per_band=10, bands=4)
        sh = build_sharded(tmp_path, sets, 4)
        machine = Machine(laptop(4))
        eng = ShardedSimilarityIndex(
            sh, machine=machine,
            config=SimilarityConfig(query_cache_size=0),
        )
        q = np.sort(rng.choice(M, size=1500, replace=False))
        r = eng.query_values(q, threshold=0.0)
        # The serial baseline runs each shard's cascade on its own
        # fresh machine: simulated_seconds is a makespan delta, so
        # re-querying through the fan-out's shared machine would
        # telescope to the fan-out time instead of the true sum.
        serial = sum(
            SimilarityIndex(
                shard, machine=Machine(laptop(4)),
                config=SimilarityConfig(query_cache_size=0),
            ).query_values(q, threshold=0.0).simulated_seconds
            for shard in sh.shards
        )
        assert r.simulated_seconds < serial
        # The overlap is real, not epsilon: >= 2x on 4 balanced bands.
        assert serial / r.simulated_seconds >= 2.0

    def test_fanout_sketches_each_request_once(self, tmp_path, rng, monkeypatch):
        # Every consulted band gets the same Request object, which
        # memoises its sketch rows: the query's b-bit fingerprints (the
        # LSH probe) and its prefilter row are built once per request,
        # not once per band.
        import repro.service.cascade as cascade
        from repro.service.store import LSH_FAMILY

        sets = spread_corpus(rng, per_band=5, bands=4)
        config = SimilarityConfig(query_candidates="lsh_exact", query_cache_size=0)
        flat = SimilarityService(build_flat(tmp_path, sets), config=config)
        service = SimilarityService(build_sharded(tmp_path, sets, 4), config=config)
        real, built = cascade.sketch_row, []

        def counting(family, *args):
            built.append(family)
            return real(family, *args)

        monkeypatch.setattr(cascade, "sketch_row", counting)
        families = sorted({LSH_FAMILY, service.engine.plan().family})
        assert len(families) == 2

        query = np.sort(rng.choice(M, size=1400, replace=False))
        lo, hi = service.store.band_range(int(0.2 * query.size), int(query.size / 0.2))
        assert hi - lo + 1 >= 3
        want = flat.query(values=query, threshold=0.2)
        built.clear()
        got = service.query(values=query, threshold=0.2)
        assert sorted(built) == families
        assert got.n_candidates >= 15 and got.n_after_lsh is not None
        assert want.matches and matches_of(got) == matches_of(want)

        queries = [np.sort(rng.choice(M, size=900 + 90 * i, replace=False)) for i in range(8)]
        want = flat.query_batch(queries, threshold=0.2)
        built.clear()
        got = service.query_batch(queries, threshold=0.2)
        assert sorted(built) == sorted(families * 8)
        assert [matches_of(r) for r in got] == [matches_of(r) for r in want]

    def test_plan_reports_fanout(self, tmp_path, rng):
        sh = build_sharded(tmp_path, corpus(rng), 4)
        plan = ShardedSimilarityIndex(sh).plan()
        assert plan.fanout == 4
        assert "x4 shard fan-out" in plan.describe()

    def test_cache_keyed_by_topology(self, tmp_path, rng):
        sets = corpus(rng)
        sh = build_sharded(tmp_path, sets, 4)
        eng = ShardedSimilarityIndex(sh)
        q = np.unique(rng.integers(0, M, size=100))
        first = eng.query_values(q, threshold=0.1)
        again = eng.query_values(q, threshold=0.1)
        assert not first.from_cache and again.from_cache
        # Per-shard engines run cache-less: one layer of caching.
        assert all(e.cache.capacity == 0 for e in eng.engines)


class TestIncrementalSharded:
    def test_add_routes_per_band(self, tmp_path, rng):
        sets = corpus(rng)
        flat = build_flat(tmp_path, sets)
        sh = build_sharded(tmp_path, sets, 4)
        new = [
            ("n0", np.unique(rng.integers(0, M, size=30))),
            ("n1", np.unique(rng.integers(0, M, size=400))),
        ]
        before = [shard.version for shard in sh.shards]
        added_flat = flat.append_many(list(new))
        added_sh = sh.append_many(list(new))
        assert [e.name for e in added_sh] == [e.name for e in added_flat]
        assert sh.names == flat.names
        # Only the bands the new genomes route to were written.
        owners = {sh.band_of(v.size) for _, v in new}
        assert [shard.version for shard in sh.shards] == [
            v + (b in owners) for b, v in enumerate(before)
        ]
        r_flat = SimilarityIndex(flat).query_values(
            new[0][1], threshold=0.0
        )
        r_sh = ShardedSimilarityIndex(sh).query_values(
            new[0][1], threshold=0.0
        )
        assert matches_of(r_flat) == matches_of(r_sh)

    def test_queries_under_concurrent_adds_stay_exact(
        self, tmp_path, rng
    ):
        """The acceptance criterion: equality under concurrent adds.

        Queries hold the store lock for the whole fan-out, so every
        answer reflects exactly one committed store version; we verify
        each answer against brute force over the corpus at the version
        it reports.
        """
        sets = corpus(rng, n=16)
        sh = build_sharded(tmp_path, sets, 4)
        eng = ShardedSimilarityIndex(
            sh, config=SimilarityConfig(query_cache_size=0)
        )
        batches = [
            [(f"w{b}_{i}", np.unique(rng.integers(0, M, size=int(sz))))
             for i, sz in enumerate(rng.integers(5, 600, size=2))]
            for b in range(4)
        ]
        corpora = {sh.version: {n: sh.load_values(n) for n in sh.names}}
        snap = dict(corpora[sh.version])
        for batch in batches:
            snap = dict(snap)
            snap.update({n: v for n, v in batch})
        # Precompute the corpus at every future version.
        versions = [sh.version]
        snap = dict(corpora[sh.version])
        v = sh.version
        for batch in batches:
            snap = dict(snap)
            snap.update({n: v2 for n, v2 in batch})
            v += 1
            corpora[v] = snap
            versions.append(v)

        results = []
        q = np.unique(rng.integers(0, M, size=120))
        stop = threading.Event()

        def querier():
            while not stop.is_set():
                results.append(eng.query_values(q, threshold=0.02))

        t = threading.Thread(target=querier)
        t.start()
        try:
            for batch in batches:
                sh.append_many(batch)
        finally:
            stop.set()
            t.join()
        results.append(eng.query_values(q, threshold=0.02))
        assert results
        for r in results:
            assert r.store_version in corpora, r.store_version
            ref = corpora[r.store_version]
            expected = sorted(
                (
                    (n, exact_jaccard(q, np.asarray(v, dtype=np.int64)))
                    for n, v in ref.items()
                    if exact_jaccard(q, np.asarray(v, dtype=np.int64))
                    >= 0.02
                ),
                key=lambda p: (-p[1], list(ref).index(p[0])),
            )
            assert [(m.name, m.similarity) for m in r.matches] == expected


class TestMigration:
    def test_shard_store_preserves_everything(self, tmp_path, rng):
        sets = corpus(rng)
        flat = build_flat(tmp_path, sets)
        q = np.unique(rng.integers(0, M, size=150))
        before = SimilarityIndex(flat).query_values(q, threshold=0.02)
        sh = shard_store(flat.root, 4)
        assert isinstance(sh, ShardedStore)
        assert sh.names == [f"g{i:02d}" for i in range(len(sets))]
        after = ShardedSimilarityIndex(sh).query_values(q, threshold=0.02)
        assert matches_of(before) == matches_of(after)
        # Adds work immediately after migration.
        sh.append_many([("post", np.unique(rng.integers(0, M, 50)))])
        assert "post" in sh.names

        # Abundance counts migrate with the values: masses, stored
        # counts, the weighted-MinHash rows built from them, and so
        # every answer under every measure.
        weighted = [
            (f"w{i:02d}", vals, rng.integers(1, 9, size=vals.size))
            for i, vals in enumerate(sets[:12])
        ]
        root = tmp_path / "counts"
        SimilarityService.create(
            root, m=M,
            config=SimilarityConfig(
                similarity="weighted_jaccard", sketch_size=64
            ),
        ).add(weighted)

        def answers():
            out = []
            for measure in SIMILARITY_MEASURES:
                svc = SimilarityService.open(
                    root, config=SimilarityConfig(similarity=measure)
                )
                for query in (
                    {"name": "w03", "top_k": 5},
                    {"name": "w07", "threshold": 0.0},
                    {"values": weighted[5][1], "counts": weighted[5][2],
                     "top_k": 12},
                ):
                    # The migration is one commit: only the store
                    # version may move, and the modelled cost of a
                    # fan-out over bands is not a flat store's.
                    out.append(replace(
                        svc.query(**query), store_version=0,
                        simulated_seconds=0.0,
                    ))
            return svc.store, out

        flat, before = answers()
        masses = flat.masses()
        counts = [flat.load_counts(name) for name in flat.names]
        assert int(masses.sum()) > int(flat.sizes().sum())
        assert before[5].matches[0] == QueryMatch("w05", 5, 1.0)  # weighted self-query
        shard_store(root, 3)
        migrated, after = answers()
        assert isinstance(migrated, ShardedStore)
        assert after == before
        assert np.array_equal(migrated.masses(), masses)
        for name, want in zip(migrated.names, counts):
            assert np.array_equal(migrated.load_counts(name), want)

    def test_migrated_store_reopens(self, tmp_path, rng):
        sets = corpus(rng)
        flat = build_flat(tmp_path, sets)
        version = flat.version
        sh = shard_store(flat.root, 4)
        assert sh.version == version + 1
        reopened = open_store(sh.root)
        assert reopened.names == sh.names
        assert [s.n_genomes for s in reopened.shards] == [
            s.n_genomes for s in sh.shards
        ]

    def test_already_sharded_rejected(self, tmp_path, rng):
        sh = build_sharded(tmp_path, corpus(rng), 4)
        with pytest.raises(StoreError, match="already a sharded store"):
            shard_store(sh.root, 8)

    def test_quantile_default_balances_occupancy(self, tmp_path, rng):
        sets = corpus(rng, n=32)
        flat = build_flat(tmp_path, sets)
        sh = shard_store(flat.root, 4, band_policy="quantile")
        counts = [s.n_genomes for s in sh.shards]
        assert sum(counts) == len(sets)
        assert max(counts) - min(counts) <= len(sets) // 2
