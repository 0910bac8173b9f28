"""Clustering and anomaly detection with the Jaccard distance (§II-C/D).

d_J is a proper metric, so it drops into centroid/medoid clustering,
hierarchical clustering, and proximity-based outlier detection over
categorical data — data "that does not consist of numbers but rather
attributes that may be present or absent".
"""

from __future__ import annotations

import numpy as np

from repro.core.similarity import jaccard_similarity
from repro.runtime.engine import Machine
from repro.util.arrays import sorted_unique
from repro.util.prng import rng_for


def _distance_matrix(samples, machine: Machine | None) -> np.ndarray:
    result = jaccard_similarity(list(samples), machine=machine)
    return result.distance


def jaccard_kmedoids(
    samples,
    n_clusters: int,
    machine: Machine | None = None,
    max_iter: int = 50,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """k-medoids under the Jaccard distance (the §II-C use case).

    A medoid variant of the k-means loop the paper cites [37]: medoids
    are actual samples, so only the distance matrix is needed — the
    natural formulation for categorical data.  Returns
    ``(labels, medoid_indices)``.
    """
    samples = list(samples)
    n = len(samples)
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    d = _distance_matrix(samples, machine)
    rng = rng_for(seed, "kmedoids")
    medoids = rng.choice(n, size=n_clusters, replace=False)
    labels = np.argmin(d[:, medoids], axis=1)
    for _ in range(max_iter):
        new_medoids = medoids.copy()
        for c in range(n_clusters):
            members = np.flatnonzero(labels == c)
            if members.size == 0:
                continue
            within = d[np.ix_(members, members)].sum(axis=1)
            new_medoids[c] = members[np.argmin(within)]
        new_labels = np.argmin(d[:, new_medoids], axis=1)
        if np.array_equal(new_medoids, medoids) and np.array_equal(new_labels, labels):
            break
        medoids, labels = new_medoids, new_labels
    return labels, medoids


def hierarchical_clusters(
    samples,
    n_clusters: int,
    linkage: str = "average",
    machine: Machine | None = None,
) -> np.ndarray:
    """Agglomerative clustering under d_J (§II-C, [33]).

    Supports single / complete / average linkage; returns cluster labels.
    """
    if linkage not in ("single", "complete", "average"):
        raise ValueError(f"linkage must be single/complete/average, got {linkage!r}")
    samples = list(samples)
    n = len(samples)
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    d = _distance_matrix(samples, machine).copy()
    np.fill_diagonal(d, np.inf)
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    while len(clusters) > n_clusters:
        keys = sorted(clusters)
        best = (np.inf, -1, -1)
        for ai, a in enumerate(keys):
            for b in keys[ai + 1 :]:
                block = d[np.ix_(clusters[a], clusters[b])]
                if linkage == "single":
                    val = block.min()
                elif linkage == "complete":
                    val = block.max()
                else:
                    val = block.mean()
                if val < best[0]:
                    best = (val, a, b)
        _, a, b = best
        clusters[a] = clusters[a] + clusters.pop(b)
    labels = np.zeros(n, dtype=np.int64)
    for label, members in enumerate(clusters.values()):
        labels[members] = label
    return labels


def threshold_clusters(
    samples,
    threshold: float,
    candidates: str = "scan",
    similarity: str = "jaccard",
    counts=None,
    sketch_size: int = 256,
    sketch_bits: int = 8,
    seed: int = 0,
) -> np.ndarray:
    """Connected components of the ``score >= threshold`` similarity graph.

    The threshold variant of single-linkage clustering: two samples
    land in one cluster iff a chain of pairs with ``score >= threshold``
    connects them.  ``similarity`` picks the measure
    (:data:`~repro.core.config.SIMILARITY_MEASURES`); the symmetric
    measures (jaccard, weighted_jaccard, cosine) use their score
    directly, while asymmetric containment draws an edge when *either*
    direction qualifies (``max(c(A,B), c(B,A)) >= t``, i.e. the smaller
    sample is mostly inside the larger).  ``counts`` (a sequence of
    per-sample abundance vectors, aligned with ``samples``) feeds
    ``weighted_jaccard``; omitted counts mean multiplicity-free samples.

    The graph is an exact self-join of the corpus in rank space — the
    query engine's verify stage, run once per sample.  All samples
    become one :class:`~repro.service.store.RankSpace` (the paper's
    zero-row-filtered indicator matrix), ordered by extent (set size,
    or total mass for the weighted measure).  Each sample then scores
    its partners *later* in that order with one
    :meth:`~repro.service.store.RankSpace.intersections` call; a later
    partner is never smaller, so containment's ``inter / extent`` is
    already the either-direction maximum.  That call gathers the
    partners' ranks, or — once the wide calls have gathered the corpus
    once over, and where the packed layout is no larger than the rank
    column — ANDs and popcounts their packed bit rows (unweighted
    measures only); both give the same integers.  Which partners are
    scored:

    * ``candidates="scan"`` (default) — every later sample inside the
      measure's exact pruning bound
      (:meth:`~repro.semantics.measures.SimilarityMeasure.window`): one
      consecutive run of the extent order, bounded by one
      ``searchsorted``; every pair outside provably scores below ``t``.
      Containment's window has no upper edge, so it scores every later
      sample.  Exact for every measure.
    * ``candidates="lsh"`` — only the in-window partners that share a
      bucket with the sample in a banded MinHash-LSH table
      (:mod:`repro.service.lsh`) built in memory over b-bit lane
      fingerprints.  Sub-quadratic but *approximate*: an edge at
      exactly ``J = t`` is missed with probability at most
      ``(1 - t^r)^b`` (the plan's curve at the clustering threshold),
      which can split a ``scan`` cluster but never merge two.
    * ``candidates="lsh_exact"`` — accepted for symmetry with the query
      engine's modes and runs the scan: the probe cannot add an edge
      the window misses.

    The LSH modes require ``similarity="jaccard"``: the band plan's
    collision curve is calibrated against plain Jaccard resemblance
    and bounds nothing about the other measures' scores.

    Every reported edge is an exact ``score >= threshold`` in all
    modes.  Clusters are the connected components of the edge arrays.
    Returns cluster labels (``0..k-1``, numbered by first appearance).
    """
    from repro.core.config import QUERY_CANDIDATES
    from repro.semantics import coerce_counts, get_measure
    from repro.service.lsh import LSHTable, plan_bands
    from repro.service.store import LSH_FAMILY, RankSpace, sketch_row

    measure = get_measure(similarity)
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if candidates not in QUERY_CANDIDATES:
        raise ValueError(f"candidates must be one of {QUERY_CANDIDATES}, got {candidates!r}")
    if candidates != "scan" and similarity != "jaccard":
        raise ValueError(
            "lsh candidate generation is calibrated for plain Jaccard "
            "collisions only; use candidates='scan' with "
            f"similarity={similarity!r}"
        )
    samples = list(samples)
    if counts is not None:
        if not measure.weighted:
            raise ValueError("counts only apply to similarity='weighted_jaccard'")
        if len(counts) != len(samples):
            raise ValueError(f"{len(counts)} counts vectors for {len(samples)} samples")
        # coerce_counts aligns counts positionally with the sample's
        # values as given, then sorts/merges — never pre-sort here.
        normalized = [coerce_counts(s, c) for s, c in zip(samples, counts)]
        arrays = [v for v, _ in normalized]
        cnts: list | None = [c for _, c in normalized]
    else:
        arrays = [
            sorted_unique(np.asarray(s if isinstance(s, np.ndarray) else list(s), dtype=np.int64))
            for s in samples
        ]
        cnts = None
    n = len(arrays)
    extents = np.array(
        [measure.extent(a, None if cnts is None else cnts[i]) for i, a in enumerate(arrays)],
        dtype=np.int64,
    )
    order = np.argsort(extents, kind="stable")
    ext = extents[order]
    cols = [arrays[i] for i in order]
    col_counts = None if cnts is None else [cnts[i] for i in order]
    empty = np.empty(0, dtype=np.int64)
    flat = np.concatenate([empty, *cols])
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([c.size for c in cols])
    # from_columns counts over [0, m) when m <= len(flat) and sorts
    # otherwise; any other value range (negative, or sparse far beyond
    # the corpus size) takes the sort.
    m = int(flat.max()) + 1 if flat.size and flat.min() >= 0 else np.iinfo(np.int64).max
    space = RankSpace.from_columns(
        m, flat, offsets, None if col_counts is None else np.concatenate([empty, *col_counts])
    )
    # Samples of equal extent sort adjacently, so the in-window partners
    # of position p are exactly the positions p + 1 .. ends[p] - 1.
    ends = np.searchsorted(ext, [measure.window(int(e), threshold)[1] for e in ext], side="right")
    if candidates == "lsh":
        fps = [sketch_row(LSH_FAMILY, c, None, sketch_size, sketch_bits, seed) for c in cols]
        table = LSHTable.build(plan_bands(threshold, sketch_size), sketch_bits, seed, fps)

    src, dst = [empty], [empty]
    for p in range(n):
        if candidates == "lsh":
            probed, _ = table.probe(fps[p])
            cand = probed[(probed > p) & (probed < ends[p])]
        else:
            cand = np.arange(p + 1, ends[p])
        if not cand.size:
            continue
        inter = space.intersections(cols[p], None if col_counts is None else col_counts[p], cand)
        hit = cand[measure.score_from_stats(inter, int(ext[p]), ext[cand]) >= threshold]
        src.append(np.full(hit.size, p))
        dst.append(hit)
    return _components(n, order[np.concatenate(src)], order[np.concatenate(dst)])


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Labels of the connected components of the graph on ``0..n-1``
    with edges ``(u[k], v[k])``, numbered by first appearance.

    Min-label propagation: each node's label is the smallest node it is
    known to reach.  A round pulls the smaller label across every edge,
    then replaces each label by that node's own label, until nothing
    moves; a component ends up labelled by its first node.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        low = np.minimum(label[u], label[v])
        moved = label.copy()
        np.minimum.at(moved, u, low)
        np.minimum.at(moved, v, low)
        moved = moved[moved]
        if np.array_equal(moved, label):
            return np.unique(label, return_inverse=True)[1]
        label = moved


def proximity_outliers(
    samples,
    k_neighbors: int = 3,
    threshold: float | None = None,
    machine: Machine | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Proximity-based outlier detection (§II-D, [55]).

    Scores each sample by its mean Jaccard distance to its ``k``
    nearest neighbors; samples above ``threshold`` (default: mean + 2
    standard deviations) are flagged.  Returns ``(scores, outlier_mask)``.
    """
    samples = list(samples)
    n = len(samples)
    if not 1 <= k_neighbors < max(n, 2):
        raise ValueError(f"k_neighbors must be in [1, {n - 1}], got {k_neighbors}")
    d = _distance_matrix(samples, machine).copy()
    np.fill_diagonal(d, np.inf)
    nearest = np.sort(d, axis=1)[:, :k_neighbors]
    scores = nearest.mean(axis=1)
    if threshold is None:
        threshold = float(scores.mean() + 2.0 * scores.std())
    return scores, scores > threshold
