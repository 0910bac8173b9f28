"""Weighted (multiset) Jaccard primitives over k-mer abundance counts.

The presence/absence pipeline reduces every sample to its *support*
(the sorted unique k-mer codes); abundance-aware workloads keep the
per-code counts produced by :func:`repro.genomics.counting.count_kmers`
and compare the resulting multisets.  For integer abundance vectors
``a``, ``b`` over the attribute space, the weighted Jaccard is

    ``J_w(a, b) = sum_v min(a_v, b_v) / sum_v max(a_v, b_v)``

— the min/max-over-counts accumulation: elementwise ``np.minimum`` /
``np.maximum`` of the aligned counts of the shared support, summed.  On multiplicity-free inputs (every count 1) the
min is the set intersection and the max the set union, so ``J_w``
degenerates exactly to the unweighted Jaccard — the regression pinned in
``tests/semantics/``.

Conventions: a sample with no k-mers has mass 0; ``J_w`` of two empty
samples is 1.0 (the same convention as the unweighted ``J(∅, ∅) = 1``),
and 0.0 when exactly one side is empty.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coerce_counts",
    "intersection_union_mass",
    "total_mass",
    "weighted_jaccard_pair",
]


def coerce_counts(values, counts=None) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a (values, counts) pair to sorted-unique + aligned form.

    ``values`` is any iterable of int codes (duplicates allowed);
    ``counts`` aligns positionally with it, or ``None`` for an implicit
    count of 1 per occurrence.  Returns ``(vals, cnts)`` with ``vals``
    sorted unique int64 and ``cnts`` the per-value total abundance
    (duplicate occurrences sum).  Counts must be positive — a zero-count
    value belongs in neither the multiset nor the support.
    """
    vals = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    vals = vals.astype(np.int64, copy=False).ravel()
    if counts is None:
        uniq, occur = np.unique(vals, return_counts=True)
        return uniq, occur.astype(np.int64)
    cnts = np.asarray(counts, dtype=np.int64).ravel()
    if cnts.shape != vals.shape:
        raise ValueError(
            f"counts must align with values: {cnts.size} count(s) "
            f"for {vals.size} value(s)"
        )
    if cnts.size and int(cnts.min()) < 1:
        raise ValueError("abundance counts must be >= 1")
    uniq, inverse = np.unique(vals, return_inverse=True)
    summed = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(summed, inverse, cnts)
    return uniq, summed


def total_mass(counts) -> int:
    """Total k-mer mass ``sum_v a_v`` of one abundance vector."""
    arr = np.asarray(counts, dtype=np.int64)
    return int(arr.sum()) if arr.size else 0


def intersection_union_mass(
    a_vals: np.ndarray,
    a_counts: np.ndarray,
    b_vals: np.ndarray,
    b_counts: np.ndarray,
) -> tuple[int, int]:
    """``(sum min, sum max)`` of two normalized abundance vectors.

    Inputs must be in the :func:`coerce_counts` normal form.  The shared
    support contributes the elementwise min / max of its counts; values
    exclusive to one side contribute their full count to the union mass
    only.

    >>> a_vals, a_cnt = coerce_counts([1, 2, 3], [2, 1, 4])
    >>> b_vals, b_cnt = coerce_counts([2, 3, 9], [5, 1, 1])
    >>> intersection_union_mass(a_vals, a_cnt, b_vals, b_cnt)
    (2, 12)
    """
    common, ia, ib = np.intersect1d(
        a_vals, b_vals, assume_unique=True, return_indices=True
    )
    if common.size:
        inter = int(np.minimum(a_counts[ia], b_counts[ib]).sum())
        shared_union = int(np.maximum(a_counts[ia], b_counts[ib]).sum())
    else:
        inter = shared_union = 0
    a_only = total_mass(a_counts) - (int(a_counts[ia].sum()) if common.size else 0)
    b_only = total_mass(b_counts) - (int(b_counts[ib].sum()) if common.size else 0)
    return inter, shared_union + a_only + b_only


def weighted_jaccard_pair(
    a_vals: np.ndarray,
    a_counts: np.ndarray,
    b_vals: np.ndarray,
    b_counts: np.ndarray,
) -> float:
    """Exact ``J_w`` of two normalized abundance vectors.

    >>> a_vals, a_cnt = coerce_counts([1, 2], [3, 1])
    >>> weighted_jaccard_pair(a_vals, a_cnt, a_vals, a_cnt)
    1.0
    """
    inter, union = intersection_union_mass(a_vals, a_counts, b_vals, b_counts)
    if union == 0:
        return 1.0
    return inter / union
