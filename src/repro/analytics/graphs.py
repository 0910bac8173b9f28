"""Graph analytics through Jaccard vertex similarity (§II-F).

"The similarity of any two vertices v, u [is] |N(v) ∩ N(u)| / |N(v) ∪
N(u)|" — encode each vertex's neighborhood as a data sample (Table III:
one row of A per potential neighbor, one column per vertex) and the core
algorithm computes all-pairs vertex similarity.  On top of it:
Jarvis–Patrick clustering [50] and missing-link prediction [28].
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analytics.clustering import threshold_clusters
from repro.core.config import SimilarityConfig
from repro.core.result import SimilarityResult
from repro.core.similarity import SimilarityAtScale
from repro.runtime.engine import Machine

if TYPE_CHECKING:  # the caller's graph is a networkx one; nothing here builds one
    import networkx as nx


def adjacency_sets(graph: nx.Graph) -> tuple[list[set], list]:
    """Neighborhood sets (indexed by a stable node order).

    Returns ``(sets, nodes)`` where ``sets[i]`` holds the integer ids of
    ``nodes[i]``'s neighbors — the columns of the indicator matrix.
    """
    nodes = sorted(graph.nodes, key=str)
    index = {v: i for i, v in enumerate(nodes)}
    sets = [{index[u] for u in graph.neighbors(v)} for v in nodes]
    return sets, nodes


def vertex_similarity(
    graph: nx.Graph,
    machine: Machine | None = None,
    config: SimilarityConfig | None = None,
) -> tuple[SimilarityResult, list]:
    """All-pairs Jaccard vertex similarity via SimilarityAtScale."""
    if graph.number_of_nodes() == 0:
        raise ValueError("graph has no nodes")
    sets, nodes = adjacency_sets(graph)
    from repro.core.indicator import SetSource

    source = SetSource(sets, m=len(nodes))
    result = SimilarityAtScale(machine=machine, config=config).run(source)
    return result, nodes


def jarvis_patrick_clusters(graph: nx.Graph, similarity_threshold: float = 0.25) -> list[set]:
    """Jarvis–Patrick clustering [50]: similarity decides co-membership.

    Two vertices belong to the same cluster when their neighborhood
    Jaccard similarity reaches the threshold; clusters are the connected
    components of that relation, listed in the order of their first
    vertex in :func:`adjacency_sets`' node order.  The relation is the
    thresholded self-join of the neighborhoods
    (:func:`~repro.analytics.clustering.threshold_clusters`), which
    scores only the pairs inside the size window instead of forming
    the n×n similarity matrix.  At threshold 0 every pair qualifies:
    one cluster of all vertices.
    """
    if not 0.0 <= similarity_threshold <= 1.0:
        raise ValueError(f"similarity_threshold must be in [0, 1], got {similarity_threshold}")
    if graph.number_of_nodes() == 0:
        raise ValueError("graph has no nodes")
    sets, nodes = adjacency_sets(graph)
    if similarity_threshold == 0.0:
        return [set(nodes)]
    labels = threshold_clusters(sets, similarity_threshold)
    clusters = [set() for _ in range(int(labels.max()) + 1)]
    for node, label in zip(nodes, labels.tolist()):
        clusters[label].add(node)
    return clusters


def predict_links(
    graph: nx.Graph,
    top: int = 10,
    machine: Machine | None = None,
) -> list[tuple]:
    """Missing-link prediction [28]: most similar non-adjacent pairs.

    Returns up to ``top`` ``(u, v, score)`` tuples of vertex pairs that
    are not currently edges, ranked by neighborhood similarity.
    """
    result, nodes = vertex_similarity(graph, machine=machine)
    s = result.similarity
    n = len(nodes)
    candidates = []
    for i in range(n):
        for j in range(i + 1, n):
            if not graph.has_edge(nodes[i], nodes[j]) and s[i, j] > 0:
                candidates.append((s[i, j], i, j))
    candidates.sort(reverse=True)
    return [(nodes[i], nodes[j], float(v)) for v, i, j in candidates[:top]]
