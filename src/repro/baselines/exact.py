"""Serial exact all-pairs Jaccard — the single-node comparator.

DSM [71] (Table II) computes exact Jaccard similarities over raw
sequencing data on one node; these functions are the equivalent exact
single-node computation, in two flavours: Python sets (readable
reference) and sorted-array merges (the vectorized version a careful
single-node tool would use).  Both serve as ground truth for every other
implementation in the repository.
"""

from __future__ import annotations

import numpy as np

from repro.util.arrays import sorted_unique


def jaccard_pairwise_sets(sets) -> np.ndarray:
    """All-pairs Jaccard over Python sets (reference implementation)."""
    materialized = [set(int(v) for v in s) for s in sets]
    n = len(materialized)
    out = np.eye(n, dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            union = len(materialized[i] | materialized[j])
            value = (
                1.0
                if union == 0
                else len(materialized[i] & materialized[j]) / union
            )
            out[i, j] = out[j, i] = value
    return out


def intersection_size_sorted(a: np.ndarray, b: np.ndarray) -> int:
    """|A ∩ B| for sorted unique arrays via a vectorized membership scan."""
    if a.size == 0 or b.size == 0:
        return 0
    if a.size > b.size:
        a, b = b, a
    idx = np.searchsorted(b, a)
    idx[idx == b.size] = b.size - 1
    return int((b[idx] == a).sum())


def jaccard_pairwise_sorted(arrays) -> np.ndarray:
    """All-pairs Jaccard over sorted unique int arrays.

    ``O(n^2)`` pairwise merges — what a tuned exact single-node tool
    does; used as the measured "DSM-like" baseline in the Table II
    bench.
    """
    arrs = [sorted_unique(np.asarray(a, dtype=np.int64)) for a in arrays]
    n = len(arrs)
    sizes = np.array([a.size for a in arrs], dtype=np.int64)
    out = np.eye(n, dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            inter = intersection_size_sorted(arrs[i], arrs[j])
            union = sizes[i] + sizes[j] - inter
            value = 1.0 if union == 0 else inter / union
            out[i, j] = out[j, i] = value
    return out
