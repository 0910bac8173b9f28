"""The bottom-``s`` posting kernel (:class:`repro.core.sketch.PostingIndex`).

Every bottom-``s`` estimate goes through it: one-shot blocks
(``estimate_rows``), the all-pairs sketch exchange, and the query
cascade's sketch stage over a snapshot's memoised index.  The reference
is the serial Mash estimator, ``baselines.minhash.jaccard_estimate``,
on the distinct hashes of each side: a sketch is a set, so duplicates
collapse.  Equality is bit for bit, never approximate.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimilarityConfig, jaccard_similarity
from repro.baselines.minhash import jaccard_estimate
from repro.core.sketch import PostingIndex, estimate_rows, hash_values, pad_rows, stack_payloads
from repro.runtime.engine import Machine
from repro.runtime.machine import laptop
from repro.semantics.measures import get_measure
from repro.semantics.wminhash import WeightedMinHashSketch
from repro.service import SimilarityService
from repro.service.query import exact_jaccard
from repro.service.store import sketch_row

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "minhash_exchange.json"


def reference(query, rows, lengths, width):
    """``jaccard_estimate`` per row on distinct hashes, with the kernel's
    empty-set rule read off the distinct counts."""
    q = np.unique(query)
    return [jaccard_estimate(q, np.unique(row[:n]), width) for row, n in zip(rows, lengths)]


def random_block(rng, width):
    """A sorted-row block over a small hash pool that holds the value 0:
    empty rows, short rows, zero padding and duplicates inside rows."""
    pool = np.concatenate(([0], hash_values(np.arange(3 * width))))
    n = int(rng.integers(0, 14))
    lengths = rng.integers(0, width + 1, size=n)
    lengths[rng.random(n) < 0.2] = 0
    flat = [np.sort(rng.choice(pool, size=int(k))) for k in lengths]
    rows = pad_rows(np.concatenate(flat) if n else np.empty(0, dtype=np.uint64), lengths, width)
    query = rng.choice(pool, size=int(rng.integers(0, width + 4)))
    if rng.random() < 0.15:
        query = query[:0]
    return rows, lengths, query.astype(np.uint64)


def distinct_counts(rows, lengths):
    return np.array([np.unique(row[:n]).size for row, n in zip(rows, lengths)], dtype=np.int64)


class TestEqualsTheBaseline:
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 24))
    @settings(max_examples=150, deadline=None)
    def test_whole_block(self, seed, width):
        rows, lengths, query = random_block(np.random.default_rng(seed), width)
        sizes = distinct_counts(rows, lengths)
        q_size = np.unique(query).size
        want = reference(query, rows, lengths, width)
        got = estimate_rows("minhash", query, q_size, rows, sizes, lengths)
        assert got.tolist() == want
        index = PostingIndex.build(rows, lengths)
        assert index.lengths.tolist() == sizes.tolist()
        got = index.estimate(query, q_size, np.arange(len(rows)), sizes)
        assert got.tolist() == want

    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 24))
    @settings(max_examples=150, deadline=None)
    def test_candidate_subsets(self, seed, width):
        # A window of extents and an LSH probe set are both arbitrary
        # subsets of block positions, in any order.
        rng = np.random.default_rng(seed)
        rows, lengths, query = random_block(rng, width)
        sizes = distinct_counts(rows, lengths)
        q_size = np.unique(query).size
        want = np.array(reference(query, rows, lengths, width))
        extents = rng.integers(0, 6, size=len(rows))
        index = PostingIndex.build(rows, lengths)
        lo, hi = np.sort(rng.integers(0, 6, size=2))
        window = np.flatnonzero((extents >= lo) & (extents <= hi))
        probed = np.flatnonzero(rng.random(len(rows)) < 0.4)
        for cand in (window, probed, probed[::-1]):
            got = index.estimate(query, q_size, cand, sizes[cand])
            assert got.tolist() == want[cand].tolist()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_weighted_minhash(self, seed):
        rng = np.random.default_rng(seed)
        width = 16

        def sketch(n):
            vals = np.unique(rng.integers(0, 60, size=n))
            counts = rng.integers(1, 4, size=vals.size)
            sk = WeightedMinHashSketch(size=width, seed=seed % 7).update(vals, counts)
            return sk.hashes, int(counts.sum())

        block = [sketch(int(n)) for n in rng.integers(0, 30, size=10)]
        query, _ = sketch(20)
        rows, lengths = stack_payloads("weighted_minhash", [h for h, _ in block], width)
        masses = np.array([m for _, m in block])
        want = np.array(reference(query, rows, lengths, width))
        sizes = distinct_counts(rows, lengths)
        got = estimate_rows("weighted_minhash", query, query.size, rows, sizes, lengths)
        assert got.tolist() == want.tolist()
        heavy = np.flatnonzero(masses >= np.median(masses))
        got = PostingIndex.build(rows, lengths).estimate(query, query.size, heavy, sizes[heavy])
        assert got.tolist() == want[heavy].tolist()

    def test_no_rows_and_no_candidates(self):
        rows, lengths = np.zeros((0, 8), dtype=np.uint64), np.zeros(0, dtype=np.int64)
        none = np.empty(0, dtype=np.int64)
        index = PostingIndex.build(rows, lengths)
        assert index.estimate(np.array([5], dtype=np.uint64), 1, none, none).size == 0
        rows, lengths = pad_rows(np.array([3, 9], dtype=np.uint64), [2], 8), np.array([2])
        index = PostingIndex.build(rows, lengths)
        assert index.estimate(np.array([3], dtype=np.uint64), 1, none, none).size == 0


class TestSnapshotMemo:
    """The cascade's sketch stage reads each snapshot's own index: built
    once, kept by that snapshot, and replaced with the next version."""

    M = 4_000
    T = 0.4

    def corpus(self, rng, n=24):
        sets = []
        for _ in range(n // 3):
            base = np.unique(rng.integers(0, self.M, size=int(rng.integers(30, 500))))
            for keep in (1.0, 0.7, 0.45):
                sets.append(np.unique(base[rng.random(base.size) < keep]))
        return [(f"g{i:02d}", s) for i, s in enumerate(sets)]

    def expected(self, svc, live, query):
        """Brute force restricted to the candidates the sketch band
        admits, with each estimate taken from the reference estimator."""
        plan = svc.engine.plan()
        size, bits, seed = svc.store.sketch_size, svc.store.sketch_bits, svc.store.sketch_seed
        q_row = sketch_row("minhash", query, None, size, bits, seed)
        out = {}
        for name, vals in live.items():
            j = exact_jaccard(query, vals)
            row = svc.store.load_sketch_payload(name, "minhash")
            est = jaccard_estimate(q_row, row, size) if query.size and vals.size else 0.0
            _, s_hi = get_measure("jaccard").sketch_score_bounds(
                np.array([est]), plan.error_bound, query.size, np.array([vals.size])
            )
            if j >= self.T and s_hi[0] >= self.T - 1e-12:
                out[name] = j
        return out

    def check(self, svc, live, rng):
        snapshot = svc.engine.snapshot()
        bands = getattr(snapshot, "bands", (snapshot,))
        for qi in rng.choice(len(live), size=4, replace=False):
            query = list(live.values())[qi]
            result = svc.query(values=query, threshold=self.T)
            got = {m.name: m.similarity for m in result.matches}
            assert got == pytest.approx(self.expected(svc, live, query))
        indexes = [band.posting_index("minhash") for band in bands if band.n_genomes]
        assert indexes and all(
            band.posting_index("minhash") is index for band, index in zip(bands, indexes)
        )
        return indexes

    @pytest.mark.parametrize("layout", ["flat", "sharded"])
    def test_add_remove_compact(self, tmp_path, layout):
        rng = np.random.default_rng(11)
        corpus = self.corpus(rng)
        svc = SimilarityService.create(tmp_path / "idx", m=self.M)
        svc.add(corpus[:15])
        if layout == "sharded":
            svc.shard(2)
        live = dict(corpus[:15])
        before = self.check(svc, live, rng)
        svc.add(corpus[15:])
        live.update(corpus[15:])
        after_add = self.check(svc, live, rng)
        for name in ("g01", "g07", "g20"):
            svc.remove(name)
            del live[name]
        after_remove = self.check(svc, live, rng)
        svc.compact()
        after_compact = self.check(svc, live, rng)
        versions = [before, after_add, after_remove, after_compact]
        for older, newer in zip(versions, versions[1:]):
            assert not {id(i) for i in older} & {id(i) for i in newer}

    def test_weighted_family(self, tmp_path):
        rng = np.random.default_rng(5)
        svc = SimilarityService.create(
            tmp_path / "idx", m=self.M, config=SimilarityConfig(similarity="weighted_jaccard")
        )
        items = []
        for i in range(12):
            vals = np.unique(rng.integers(0, self.M, size=int(rng.integers(5, 200))))
            items.append((f"w{i}", vals, rng.integers(1, 9, size=vals.size)))
        svc.add(items)
        snapshot = svc.engine.snapshot()
        rows, lengths = snapshot.family_payloads("weighted_minhash")
        query = rows[3, : lengths[3]]
        want = reference(query, rows, lengths, snapshot.sketch_size)
        cand = np.arange(snapshot.n_genomes)
        got = snapshot.sketch_estimates("weighted_minhash", query, query.size, cand)
        assert got.tolist() == want
        index = snapshot.posting_index("weighted_minhash")
        assert snapshot.posting_index("weighted_minhash") is index


def test_sketch_exchange_matrix_equals_recorded_fixture():
    """The all-pairs exchange's similarity matrix and its ledger (every
    pair through ``estimate_rows``), as recorded before the bottom-``s``
    kernel became a posting index."""
    fixture = json.loads(FIXTURE.read_text())
    sets = [
        list(range((i * 53) % 200, (i * 53) % 200 + size, 1 + i % 2))
        for i, size in enumerate(fixture["sizes"])
    ]
    result = jaccard_similarity(
        sets,
        machine=Machine(laptop(fixture["ranks"])),
        config=SimilarityConfig(estimator="minhash", sketch_size=fixture["sketch_size"]),
    )
    assert result.similarity.tolist() == fixture["similarity"]
    assert result.cost.simulated_seconds == fixture["simulated_seconds"]
