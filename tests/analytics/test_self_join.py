"""The corpus self-join behind threshold_clusters and Jarvis–Patrick.

Every reference here is plain Python over ``set`` objects: exact scores
by ``len(a & b) / len(a | b)`` and friends, all ``n^2`` pairs, and a
union–find numbered by first appearance.  The join must reproduce it
exactly (``scan`` / ``lsh_exact``), or refine it (``lsh``).
"""

import inspect
import math
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from repro.analytics.clustering import threshold_clusters
from repro.analytics.graphs import adjacency_sets, jarvis_patrick_clusters


def score(measure, a, b, ca=None, cb=None):
    """Exact reference score of one pair of Python sets."""
    inter = len(a & b)
    if measure == "jaccard":
        union = len(a | b)
        return 1.0 if union == 0 else inter / union
    if measure == "containment":
        small = min(len(a), len(b))
        return 1.0 if small == 0 else inter / small
    if measure == "cosine":
        if not a or not b:
            return 1.0 if a == b else 0.0
        return inter / math.sqrt(len(a) * len(b))
    assert measure == "weighted_jaccard"
    ca = ca or dict.fromkeys(a, 1)
    cb = cb or dict.fromkeys(b, 1)
    lo = sum(min(ca.get(v, 0), cb.get(v, 0)) for v in a | b)
    hi = sum(max(ca.get(v, 0), cb.get(v, 0)) for v in a | b)
    return 1.0 if hi == 0 else lo / hi


def components(n, edges):
    """Union–find components labelled ``0..k-1`` by first appearance."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(j)] = find(i)
    first = {}
    return [first.setdefault(find(i), len(first)) for i in range(n)]


def brute_force(samples, t, measure="jaccard", counts=None):
    sets = [set(s) for s in samples]
    edges = [
        (i, j)
        for i, j in combinations(range(len(sets)), 2)
        if score(
            measure,
            sets[i],
            sets[j],
            None if counts is None else counts[i],
            None if counts is None else counts[j],
        )
        >= t
    ]
    return components(len(sets), edges)


def planted_families(rng, families, per_family, core_lo, core_hi, keep_lo, span, offset=0):
    """Members keeping a random share of a core set, plus a little noise."""
    samples = []
    for f in range(families):
        core = rng.choice(span, size=int(rng.integers(core_lo, core_hi)), replace=False)
        for _ in range(per_family):
            kept = core[rng.random(core.size) < rng.uniform(keep_lo, 1.0)]
            noise = rng.integers(0, span, size=int(rng.integers(0, 3)))
            values = np.concatenate([kept, noise]) + offset + f * span
            samples.append({int(v) for v in values})
    return [samples[i] for i in rng.permutation(len(samples))]


class TestCandidateModes:
    @pytest.mark.parametrize("t", [0.2, 0.45, 0.7])
    def test_lsh_exact_equals_scan_and_brute_force(self, rng, t):
        samples = planted_families(rng, 6, 7, 10, 60, 0.3, span=80)
        samples += [set(), set(), {1}]
        scan = threshold_clusters(samples, t)
        audit = threshold_clusters(samples, t, candidates="lsh_exact")
        assert audit.tolist() == scan.tolist() == brute_force(samples, t)
        assert audit.dtype == np.int64

    def test_lsh_refines_scan(self, rng):
        # Four lanes make a lossy table: some runs miss an edge.
        split = 0
        for t in (0.3, 0.5, 0.8):
            samples = planted_families(rng, 5, 8, 20, 50, 0.2, span=60)
            scan = threshold_clusters(samples, t)
            for seed in range(4):
                lsh = threshold_clusters(samples, t, candidates="lsh", sketch_size=4, seed=seed)
                for label in np.unique(lsh):
                    assert np.unique(scan[lsh == label]).size == 1
                split += lsh.max() > scan.max()
        assert split

    def test_lsh_equals_scan_on_well_separated_families(self, rng):
        samples = planted_families(rng, 8, 6, 40, 80, 0.9, span=1_000)
        scan = threshold_clusters(samples, 0.5)
        lsh = threshold_clusters(samples, 0.5, candidates="lsh")
        assert lsh.tolist() == scan.tolist() == brute_force(samples, 0.5)
        assert scan.max() + 1 == 8


class TestValueRange:
    @pytest.mark.parametrize("offset", [-(2**20), -37, 2**40 + 5, 2**62])
    @pytest.mark.parametrize("measure", ["jaccard", "containment", "cosine", "weighted_jaccard"])
    def test_matches_brute_force(self, rng, offset, measure):
        samples = planted_families(rng, 4, 5, 3, 25, 0.3, span=40, offset=offset)
        samples.append(set())
        for t in (0.25, 0.5, 0.9):
            got = threshold_clusters(samples, t, similarity=measure)
            assert got.tolist() == brute_force(samples, t, measure)
        lsh = threshold_clusters(samples, 0.5, candidates="lsh_exact")
        assert lsh.tolist() == brute_force(samples, 0.5)

    @pytest.mark.parametrize("offset", [-1_000, 2**41])
    def test_weighted_counts_match_brute_force(self, rng, offset):
        samples = planted_families(rng, 3, 5, 3, 20, 0.4, span=30, offset=offset)
        counts = [{v: int(rng.integers(1, 6)) for v in s} for s in samples]
        arrays = [np.array(sorted(s), dtype=np.int64) for s in samples]
        vectors = [np.array([c[v] for v in sorted(s)]) for s, c in zip(samples, counts)]
        for t in (0.2, 0.5, 0.8):
            got = threshold_clusters(arrays, t, similarity="weighted_jaccard", counts=vectors)
            assert got.tolist() == brute_force(samples, t, "weighted_jaccard", counts)

    def test_no_samples(self):
        labels = threshold_clusters([], 0.5)
        assert labels.dtype == np.int64 and labels.size == 0


def jarvis_patrick_reference(graph, t):
    """All n^2 neighbourhood pairs, components in adjacency node order."""
    sets, nodes = adjacency_sets(graph)
    pairs = combinations(range(len(nodes)), 2)
    edges = [(i, j) for i, j in pairs if score("jaccard", sets[i], sets[j]) >= t]
    labels = components(len(nodes), edges)
    clusters = [set() for _ in range(max(labels) + 1)]
    for node, label in zip(nodes, labels):
        clusters[label].add(node)
    return clusters


class TestJarvisPatrick:
    @pytest.mark.parametrize("t", [0, 0.2, 1])
    def test_equals_all_pairs_reference(self, rng, t):
        for case in range(12):
            n = int(rng.integers(1, 30))
            graph = nx.gnp_random_graph(n, float(rng.uniform(0.05, 0.4)), seed=case)
            graph.add_nodes_from(range(n, n + int(rng.integers(1, 4))))  # isolated
            if case % 2:
                graph = nx.relabel_nodes(graph, {v: f"v{v}" for v in graph.nodes})
            assert jarvis_patrick_clusters(graph, t) == jarvis_patrick_reference(graph, t)

    def test_threshold_zero_is_one_cluster(self):
        graph = nx.empty_graph(5)
        assert jarvis_patrick_clusters(graph, 0.0) == [set(range(5))]

    def test_isolated_vertices_share_a_cluster(self):
        # J(∅, ∅) = 1: every isolated vertex lands in one cluster.
        graph = nx.path_graph(3)
        graph.add_nodes_from([7, 8])
        clusters = jarvis_patrick_clusters(graph, 1.0)
        assert {7, 8} in clusters and {0, 2} in clusters

    def test_no_machine_argument(self):
        assert "machine" not in inspect.signature(jarvis_patrick_clusters).parameters
