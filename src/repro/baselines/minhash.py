"""Bottom-k MinHash sketching and the Mash distance [63].

Mash estimates ``J(A, B)`` from fixed-size sketches: hash every k-mer
with one 64-bit hash, keep the ``s`` smallest values per sample, and
estimate ``J`` as the fraction of the union's bottom-``s`` values shared
by both sketches.  The Mash distance then maps ``J`` to a mutation-rate
estimate ``d = -ln(2J / (1 + J)) / k``.

The paper's motivation (§I): "these approximations often lead to
inaccurate approximations of d_J for highly similar pairs of sequence
sets, and tend to be ineffective for computation of a distance between
highly dissimilar sets unless very large sketch sizes are used".  The
``bench_minhash_accuracy`` benchmark reproduces exactly that trade-off
against this implementation, with SimilarityAtScale's exact values as
the reference.

The hash primitives are shared with the production sketch subsystem
(:mod:`repro.core.sketch`), so this serial baseline and the distributed
sketch engine agree bit-for-bit on what a hash is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.sketch import hash_values, splitmix64

__all__ = [
    "hash_values",
    "splitmix64",
    "sketch",
    "jaccard_estimate",
    "mash_distance",
    "MinHashIndex",
    "make_pair_with_jaccard",
]


def sketch(values, size: int, seed: int = 0) -> np.ndarray:
    """Bottom-``size`` sketch: the smallest hashed values, sorted.

    Samples with fewer than ``size`` distinct values yield shorter
    sketches (as in Mash).
    """
    if size <= 0:
        raise ValueError(f"sketch size must be positive, got {size}")
    vals = np.unique(np.asarray(list(values) if not isinstance(
        values, np.ndarray) else values, dtype=np.int64))
    if vals.size == 0:
        return np.empty(0, dtype=np.uint64)
    hashes = np.unique(hash_values(vals, seed))
    return hashes[: min(size, hashes.size)]


def jaccard_estimate(sketch_a: np.ndarray, sketch_b: np.ndarray,
                     size: int) -> float:
    """The Mash estimator: shared fraction of the union's bottom-s.

    Merges the two sketches, keeps the ``size`` smallest union hashes,
    and returns the fraction present in both sketches.  Empty-vs-empty
    pairs estimate 1.0 (consistent with ``J(empty, empty) = 1``).
    """
    if sketch_a.size == 0 and sketch_b.size == 0:
        return 1.0
    union = np.union1d(sketch_a, sketch_b)[:size]
    if union.size == 0:
        return 1.0
    shared = np.intersect1d(sketch_a, sketch_b, assume_unique=True)
    both = np.isin(union, shared, assume_unique=True).sum()
    return float(both / union.size)


def mash_distance(jaccard: float, k: int) -> float:
    """Mash's Jaccard -> mutation-rate map: ``-ln(2j/(1+j)) / k``."""
    if not 0.0 <= jaccard <= 1.0:
        raise ValueError(f"jaccard must be in [0, 1], got {jaccard}")
    if jaccard == 0.0:
        return 1.0
    return min(1.0, max(0.0, -math.log(2.0 * jaccard / (1.0 + jaccard)) / k))


@dataclass
class MinHashIndex:
    """All-pairs MinHash similarity over a family of samples."""

    sketch_size: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sketch_size <= 0:
            raise ValueError(
                f"sketch_size must be positive, got {self.sketch_size}"
            )
        self._sketches: list[np.ndarray] = []

    def add(self, values) -> None:
        self._sketches.append(sketch(values, self.sketch_size, self.seed))

    def add_all(self, samples) -> "MinHashIndex":
        for s in samples:
            self.add(s)
        return self

    @property
    def n(self) -> int:
        return len(self._sketches)

    def pairwise_similarity(self) -> np.ndarray:
        """Estimated all-pairs Jaccard matrix."""
        n = self.n
        out = np.eye(n, dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                est = jaccard_estimate(
                    self._sketches[i], self._sketches[j], self.sketch_size
                )
                out[i, j] = out[j, i] = est
        return out

    def sketch_bytes(self) -> int:
        """Total sketch storage (the Mash row of Table II)."""
        return sum(s.nbytes for s in self._sketches)


def make_pair_with_jaccard(
    rng: np.random.Generator, universe: int, size: int, target_j: float
) -> tuple[np.ndarray, np.ndarray]:
    """Two equal-size sets with Jaccard similarity ~= ``target_j``.

    Solves ``|A ∩ B| = 2 s J / (1 + J)`` for equal set sizes ``s``;
    used by the accuracy benches to sweep the true-similarity axis.
    """
    if not 0.0 <= target_j <= 1.0:
        raise ValueError(f"target_j must be in [0, 1], got {target_j}")
    overlap = int(round(2 * size * target_j / (1.0 + target_j)))
    overlap = min(overlap, size)
    distinct = size - overlap
    need = overlap + 2 * distinct
    if need > universe:
        raise ValueError(
            f"universe {universe} too small for size={size}, j={target_j}"
        )
    pool = rng.choice(universe, size=need, replace=False).astype(np.int64)
    shared = pool[:overlap]
    only_a = pool[overlap : overlap + distinct]
    only_b = pool[overlap + distinct :]
    a = np.sort(np.concatenate([shared, only_a]))
    b = np.sort(np.concatenate([shared, only_b]))
    return a, b
