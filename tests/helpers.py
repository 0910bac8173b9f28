"""Shared test utilities: brute-force references and generators."""

from __future__ import annotations

import numpy as np


def exact_jaccard(sets) -> np.ndarray:
    """Brute-force all-pairs Jaccard similarity (the ground truth).

    Follows the paper's convention: ``J(empty, empty) = 1``.
    """
    materialized = [set(int(v) for v in s) for s in sets]
    n = len(materialized)
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            union = materialized[i] | materialized[j]
            if not union:
                out[i, j] = 1.0
            else:
                out[i, j] = len(materialized[i] & materialized[j]) / len(union)
    return out


def random_sets(rng: np.random.Generator, n: int, m: int, max_size: int) -> list:
    """Random integer sample sets over ``[0, m)`` (possibly empty)."""
    return [
        set(rng.integers(0, m, size=rng.integers(0, max_size + 1)).tolist())
        for _ in range(n)
    ]
