"""Phylogenetic tree construction from distance matrices.

The downstream analyses of Fig. 1 (parts ¼–Ł): the Jaccard distance
matrix feeds clustering "for the construction of phylogenetic trees
[67]" (Saitou & Nei's neighbor-joining) and "guide trees for large-scale
multiple sequence alignment".  This module implements neighbor-joining
and UPGMA over arbitrary distance matrices, plus utilities to compare a
reconstructed tree against ground truth (cophenetic distances and
Robinson–Foulds).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


def require_networkx():
    """The ``networkx`` module, imported on first use: only the tree
    functions need it, so the NumPy-only core imports without it."""
    try:
        import networkx
    except ImportError as exc:
        raise ImportError(
            "phylogenetic trees need networkx, which the NumPy-only core "
            "does not install (pip install networkx)"
        ) from exc
    return networkx


def _check_distance_matrix(d: np.ndarray, names: list[str]) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got {d.shape}")
    if len(names) != d.shape[0]:
        raise ValueError(
            f"{len(names)} names for a {d.shape[0]}x{d.shape[0]} matrix"
        )
    if len(set(names)) != len(names):
        raise ValueError("leaf names must be unique")
    if not np.allclose(d, d.T, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diag(d) != 0):
        raise ValueError("self-distances must be zero")
    return d


def neighbor_joining(distances: np.ndarray, names: list[str]) -> nx.Graph:
    """Saitou–Nei neighbor-joining [67].

    Returns an unrooted tree as a :class:`networkx.Graph` whose edges
    carry ``length`` attributes; leaves keep their input names.  Exactly
    reconstructs any additive (tree) metric.
    """
    d = _check_distance_matrix(distances, names).copy()
    n = len(names)
    tree = require_networkx().Graph()
    tree.add_nodes_from(names)
    if n == 1:
        tree.graph["root"] = names[0]
        return tree
    if n == 2:
        tree.add_edge(names[0], names[1], length=float(d[0, 1]))
        tree.graph["root"] = names[0]
        return tree

    active = list(names)
    counter = 0
    while len(active) > 2:
        r = len(active)
        totals = d.sum(axis=1)
        # Q-criterion: q_ij = (r - 2) d_ij - total_i - total_j.
        q = (r - 2) * d - totals[:, None] - totals[None, :]
        np.fill_diagonal(q, np.inf)
        i, j = np.unravel_index(np.argmin(q), q.shape)
        if i > j:
            i, j = j, i
        # Branch lengths to the new internal node.
        delta = (totals[i] - totals[j]) / (r - 2)
        li = 0.5 * d[i, j] + 0.5 * delta
        lj = d[i, j] - li
        node = f"nj{counter}"
        counter += 1
        tree.add_edge(node, active[i], length=max(float(li), 0.0))
        tree.add_edge(node, active[j], length=max(float(lj), 0.0))
        # Distances from the new node to the remaining taxa.
        keep = [k for k in range(r) if k not in (i, j)]
        new_row = 0.5 * (d[i, keep] + d[j, keep] - d[i, j])
        d = d[np.ix_(keep, keep)]
        d = np.pad(d, ((0, 1), (0, 1)))
        d[-1, :-1] = new_row
        d[:-1, -1] = new_row
        active = [active[k] for k in keep] + [node]
    tree.add_edge(active[0], active[1], length=max(float(d[0, 1]), 0.0))
    tree.graph["root"] = active[-1]
    return tree


def upgma(distances: np.ndarray, names: list[str]) -> nx.Graph:
    """UPGMA agglomerative clustering into a rooted ultrametric tree.

    Edge lengths are height differences; appropriate when distances are
    approximately clock-like (guide trees for progressive alignment).
    """
    d = _check_distance_matrix(distances, names).copy()
    n = len(names)
    tree = require_networkx().Graph()
    tree.add_nodes_from(names)
    if n == 1:
        tree.graph["root"] = names[0]
        return tree
    active = list(names)
    heights = {name: 0.0 for name in names}
    sizes = {name: 1 for name in names}
    counter = 0
    while len(active) > 1:
        r = len(active)
        masked = d + np.where(np.eye(r, dtype=bool), np.inf, 0.0)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        if i > j:
            i, j = j, i
        a, b = active[i], active[j]
        node = f"up{counter}"
        counter += 1
        h = d[i, j] / 2.0
        tree.add_edge(node, a, length=max(h - heights[a], 0.0))
        tree.add_edge(node, b, length=max(h - heights[b], 0.0))
        heights[node] = h
        sizes[node] = sizes[a] + sizes[b]
        keep = [k for k in range(r) if k not in (i, j)]
        merged = (
            sizes[a] * d[i, keep] + sizes[b] * d[j, keep]
        ) / (sizes[a] + sizes[b])
        d = d[np.ix_(keep, keep)]
        d = np.pad(d, ((0, 1), (0, 1)))
        d[-1, :-1] = merged
        d[:-1, -1] = merged
        active = [active[k] for k in keep] + [node]
    tree.graph["root"] = active[0]
    return tree


def cophenetic_distances(tree: nx.Graph, names: list[str]) -> np.ndarray:
    """Pairwise path lengths between leaves along the tree."""
    n = len(names)
    out = np.zeros((n, n), dtype=np.float64)
    lengths = dict(
        require_networkx().all_pairs_dijkstra_path_length(tree, weight="length")
    )
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if i < j:
                out[i, j] = out[j, i] = lengths[a][b]
    return out


def _leaf_bipartitions(tree: nx.Graph, leaves: frozenset) -> set[frozenset]:
    """Non-trivial leaf splits induced by internal edges."""
    nx = require_networkx()
    splits = set()
    for u, v in tree.edges:
        pruned = tree.copy()
        pruned.remove_edge(u, v)
        side = frozenset(
            x for x in nx.node_connected_component(pruned, u) if x in leaves
        )
        if 1 < len(side) < len(leaves) - 1:
            splits.add(min(side, frozenset(leaves - side), key=sorted))
    return splits


def robinson_foulds(tree_a: nx.Graph, tree_b: nx.Graph) -> int:
    """Robinson–Foulds distance: differing bipartitions between trees.

    Both trees must have identical leaf sets (nodes of degree 1 whose
    names appear in both).  Zero means topologically identical.
    """
    leaves_a = {x for x in tree_a.nodes if tree_a.degree(x) == 1}
    leaves_b = {x for x in tree_b.nodes if tree_b.degree(x) == 1}
    if leaves_a != leaves_b:
        raise ValueError(
            f"leaf sets differ: {sorted(leaves_a)} vs {sorted(leaves_b)}"
        )
    leaves = frozenset(leaves_a)
    sa = _leaf_bipartitions(tree_a, leaves)
    sb = _leaf_bipartitions(tree_b, leaves)
    return len(sa ^ sb)


def tree_to_newick(tree: nx.Graph, root: str | None = None) -> str:
    """Serialize a tree to Newick format (for external viewers)."""
    root = root if root is not None else tree.graph.get("root")
    if root is None or root not in tree:
        raise ValueError("tree has no usable root node")

    def render(node: str, parent: str | None) -> str:
        children = [x for x in tree.neighbors(node) if x != parent]
        if not children:
            return str(node)
        inner = ",".join(
            f"{render(c, node)}:{tree.edges[node, c]['length']:.6g}"
            for c in children
        )
        return f"({inner}){node if parent is None else ''}"

    return render(root, None) + ";"


def jaccard_tree(
    distance_matrix: np.ndarray, names: list[str], method: str = "nj"
) -> nx.Graph:
    """Build a phylogeny from a Jaccard distance matrix (Fig. 1, ¼/Ł)."""
    if method == "nj":
        return neighbor_joining(distance_matrix, names)
    if method == "upgma":
        return upgma(distance_matrix, names)
    raise ValueError(f"unknown method {method!r}; expected 'nj' or 'upgma'")
