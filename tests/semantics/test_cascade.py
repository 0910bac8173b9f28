"""Every measure's cascade equals brute force on every execution path.

The exactness contract of the semantics subsystem: for each measure in
:data:`~repro.core.config.SIMILARITY_MEASURES`, threshold and top-k
answers from the serial cascade, the batched path, the sharded fan-out,
and the ``lsh_exact`` candidate generator are identical to a per-pair
brute-force reference built from :meth:`SimilarityMeasure.exact_pair`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SIMILARITY_MEASURES, SimilarityConfig
from repro.semantics import get_measure
from repro.semantics.wminhash import WEIGHTED_MINHASH_FAMILY
from repro.service import BatchQuery, SimilarityService
from repro.service.errors import ConfigError

N_GENOMES = 18
M = 512


def make_corpus(seed=0):
    rng = np.random.default_rng(seed)
    names, triples = [], []
    shared = np.unique(rng.integers(0, M, size=30))
    for i in range(N_GENOMES):
        own = np.unique(rng.integers(0, M, size=rng.integers(4, 60)))
        vals = np.unique(np.concatenate([own, shared[: rng.integers(0, 30)]]))
        counts = rng.integers(1, 6, size=vals.size).astype(np.int64)
        names.append(f"g{i}")
        triples.append((f"g{i}", vals, counts))
    q_vals = np.unique(
        np.concatenate([shared, np.unique(rng.integers(0, M, size=20))])
    )
    q_counts = rng.integers(1, 6, size=q_vals.size).astype(np.int64)
    return names, triples, q_vals, q_counts


def brute_scores(measure_name, triples, q_vals, q_counts):
    m = get_measure(measure_name)
    if m.weighted:
        return {
            name: m.exact_pair(q_vals, vals, q_counts, counts)
            for name, vals, counts in triples
        }
    return {
        name: m.exact_pair(q_vals, vals) for name, vals, _ in triples
    }


def reference_answer(scores, threshold, top_k):
    qualifying = sorted(
        ((name, s) for name, s in scores.items() if s >= threshold),
        key=lambda kv: -kv[1],
    )
    if top_k is not None:
        # Ties at the k-th score make the exact cutoff ambiguous; the
        # corpus generator avoids ties at the boundary for these seeds.
        qualifying = qualifying[:top_k]
    return qualifying


def build_service(tmp_path, measure, shards, triples, candidates="scan",
                  **config_kwargs):
    config = SimilarityConfig(
        similarity=measure,
        store_shards=shards,
        query_candidates=candidates,
        **config_kwargs,
    )
    service = SimilarityService.create(
        tmp_path / f"{measure}-{shards}-{candidates}",
        m=M,
        config=config,
        size_hint=np.array([v.size for _, v, _ in triples], dtype=np.int64),
    )
    if measure == "weighted_jaccard":
        service.add(triples)
    else:
        service.add([(n, v) for n, v, _ in triples])
    return service


@pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
@pytest.mark.parametrize("shards", [1, 3])
def test_threshold_cascade_equals_brute_force(tmp_path, measure, shards):
    names, triples, q_vals, q_counts = make_corpus(seed=7)
    service = build_service(tmp_path, measure, shards, triples)
    counts = q_counts if measure == "weighted_jaccard" else None
    scores = brute_scores(
        measure, triples, q_vals,
        q_counts if measure == "weighted_jaccard" else None,
    )
    for threshold in (0.05, 0.2, 0.6):
        result = service.query(
            values=q_vals, threshold=threshold, counts=counts
        )
        ref = reference_answer(scores, threshold, None)
        got = [(m.name, m.similarity) for m in result.matches]
        assert [n for n, _ in got] == [n for n, _ in ref]
        for (_, a), (_, b) in zip(got, ref):
            assert a == pytest.approx(b, abs=1e-12)
        assert result.similarity_measure == measure
        assert result.bound_type == get_measure(measure).bound_type


@pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
def test_top_k_cascade_equals_brute_force(tmp_path, measure):
    names, triples, q_vals, q_counts = make_corpus(seed=11)
    service = build_service(tmp_path, measure, 1, triples)
    counts = q_counts if measure == "weighted_jaccard" else None
    scores = brute_scores(measure, triples, q_vals, counts)
    result = service.query(values=q_vals, top_k=5, counts=counts)
    ref = reference_answer(scores, -1.0, 5)
    got = [(m.name, m.similarity) for m in result.matches]
    assert [n for n, _ in got] == [n for n, _ in ref]
    for (_, a), (_, b) in zip(got, ref):
        assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
@pytest.mark.parametrize("shards", [1, 3])
def test_batched_path_equals_brute_force(tmp_path, measure, shards):
    names, triples, q_vals, q_counts = make_corpus(seed=13)
    service = build_service(tmp_path, measure, shards, triples)
    counts = q_counts if measure == "weighted_jaccard" else None
    scores = brute_scores(measure, triples, q_vals, counts)
    threshold = 0.1
    queries = [
        BatchQuery(q_vals, threshold=threshold, counts=counts),
        BatchQuery(triples[0][1], threshold=threshold,
                   counts=(triples[0][2] if counts is not None else None)),
    ]
    results = service.query_batch(queries)
    ref = reference_answer(scores, threshold, None)
    got = [(m.name, m.similarity) for m in results[0].matches]
    assert [n for n, _ in got] == [n for n, _ in ref]
    for (_, a), (_, b) in zip(got, ref):
        assert a == pytest.approx(b, abs=1e-12)
    if measure == "weighted_jaccard":
        # A batched weighted cascade runs (and stays exact through) the
        # weighted-MinHash sketch stage, like a single query does.
        assert results[0].estimator == WEIGHTED_MINHASH_FAMILY
        assert results[0].n_after_sketch <= results[0].n_after_size
        kernels = service.machine.ledger.kernel_totals
        assert kernels["query:sketch"][1] > 0


@pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("candidates", ["scan", "lsh_exact"])
def test_batch_of_one_is_the_single_query(
    tmp_path, measure, shards, candidates
):
    """``query_batch([q])[0] == query(values=q)`` as whole results:
    matches, funnel counters, store version, plan labels and modelled
    cost — each entry point on its own freshly opened service."""
    names, triples, q_vals, q_counts = make_corpus(seed=29)
    built = build_service(
        tmp_path, measure, shards, triples, candidates=candidates,
        query_cache_size=0,
    )
    service, twin = (
        SimilarityService.open(built.store.root, config=built.config)
        for _ in range(2)
    )
    counts = q_counts if measure == "weighted_jaccard" else None
    for kwargs in (
        {"threshold": 0.1},
        {"top_k": 4},
        {"threshold": 0.05, "top_k": 3},
    ):
        single = service.query(values=q_vals, counts=counts, **kwargs)
        (alone,) = twin.query_batch(
            [BatchQuery(q_vals, counts=counts, **kwargs)]
        )
        assert single.matches, "vacuous: the query matches nothing"
        assert alone == single, kwargs
        if candidates == "lsh_exact":
            assert alone.n_after_lsh is not None


@pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
def test_lsh_exact_candidates_stay_exact(tmp_path, measure):
    names, triples, q_vals, q_counts = make_corpus(seed=17)
    service = build_service(
        tmp_path, measure, 1, triples, candidates="lsh_exact"
    )
    counts = q_counts if measure == "weighted_jaccard" else None
    scores = brute_scores(measure, triples, q_vals, counts)
    result = service.query(values=q_vals, threshold=0.1, counts=counts)
    ref = reference_answer(scores, 0.1, None)
    got = [(m.name, m.similarity) for m in result.matches]
    assert [n for n, _ in got] == [n for n, _ in ref]
    for (_, a), (_, b) in zip(got, ref):
        assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("measure", [m for m in SIMILARITY_MEASURES
                                     if m != "jaccard"])
def test_pure_lsh_candidates_rejected_off_jaccard(tmp_path, measure):
    names, triples, q_vals, _ = make_corpus(seed=19)
    service = build_service(
        tmp_path, measure, 1, triples, candidates="lsh"
    )
    with pytest.raises(ConfigError, match="lsh_exact"):
        service.query(values=q_vals, threshold=0.5)


def test_containment_is_asymmetric_through_the_index(tmp_path):
    """c(Q, C) is the query-side containment, not the candidate-side."""
    small = np.array([1, 2, 3], dtype=np.int64)
    large = np.arange(1, 31, dtype=np.int64)
    config = SimilarityConfig(similarity="containment")
    service = SimilarityService.create(
        tmp_path / "asym", m=64, config=config
    )
    service.add([("large", large)])
    # The small query is fully inside the large candidate: c = 1.0 ...
    result = service.query(values=small, threshold=0.9)
    assert [(m.name, m.similarity) for m in result.matches] == [("large", 1.0)]
    # ... but the large query is only 10% inside the small candidate.
    service2 = SimilarityService.create(
        tmp_path / "asym2", m=64, config=config
    )
    service2.add([("small", small)])
    result2 = service2.query(values=large, threshold=0.9)
    assert result2.matches == ()
    low = service2.query(values=large, threshold=0.05)
    assert [m.name for m in low.matches] == ["small"]
    assert low.matches[0].similarity == pytest.approx(3 / 30)


def test_weighted_equals_plain_on_multiplicity_free_corpus(tmp_path):
    """All-ones counts: the weighted cascade returns plain-Jaccard answers."""
    names, triples, q_vals, _ = make_corpus(seed=23)
    ones = [(n, v, np.ones(v.size, dtype=np.int64)) for n, v, _ in triples]
    w = SimilarityService.create(
        tmp_path / "w", m=M,
        config=SimilarityConfig(similarity="weighted_jaccard"),
    )
    w.add(ones)
    j = SimilarityService.create(
        tmp_path / "j", m=M, config=SimilarityConfig(similarity="jaccard")
    )
    j.add([(n, v) for n, v, _ in triples])
    rw = w.query(values=q_vals, threshold=0.05,
                 counts=np.ones(q_vals.size, dtype=np.int64))
    rj = j.query(values=q_vals, threshold=0.05)
    assert [(m.name, m.similarity) for m in rw.matches] == [
        (m.name, m.similarity) for m in rj.matches
    ]
