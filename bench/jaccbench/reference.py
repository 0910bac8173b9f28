"""The benchmark's own brute-force references.

Independent of the program under test (numpy only): a dense integer
matmul for the dense all-pairs matrix, per-pair sorted-set intersection
of independently extracted canonical k-mer sets for the genome cohort,
and an in-memory dict-of-sets model that follows every add / remove /
compact of the serve workloads and scores each query against all live
sets.  Answers are compared outside the timer; a mismatch counts as a
failed operation.
"""

from __future__ import annotations

import numpy as np

#: Largest tolerated absolute difference between a reported similarity
#: and the reference (both are one float64 division of the same integer
#: counts, so they normally agree to the last bit).
TOLERANCE = 1e-12


def jaccard_from_counts(inter: np.ndarray, sizes_a, sizes_b) -> np.ndarray:
    """``|A n B| / |A u B|`` with ``J(empty, empty) = 1``."""
    inter = np.asarray(inter, dtype=np.int64)
    union = np.asarray(sizes_a, np.int64) + np.asarray(sizes_b, np.int64) - inter
    safe = np.where(union == 0, 1, union)
    return np.where(union == 0, 1.0, inter / safe)


def dense_allpairs_reference(sets, m: int) -> np.ndarray:
    """All-pairs Jaccard from a dense 0/1 indicator matmul.

    float32 holds every intersection count exactly (counts <= m < 2^24).
    """
    if m >= 2 ** 24:
        raise ValueError("float32 matmul reference needs m < 2^24")
    n = len(sets)
    ind = np.zeros((n, m), dtype=np.float32)
    for i, s in enumerate(sets):
        ind[i, s] = 1.0
    inter = np.rint(ind @ ind.T).astype(np.int64)
    sizes = np.array([len(s) for s in sets], dtype=np.int64)
    return jaccard_from_counts(inter, sizes[:, None], sizes[None, :])


_CODE = np.full(256, 255, dtype=np.uint8)
_CODE[np.frombuffer(b"ACGT", dtype=np.uint8)] = np.arange(4, dtype=np.uint8)


def canonical_kmer_set(sequence: bytes, k: int) -> np.ndarray:
    """Sorted distinct canonical k-mers of one ACGT sequence, 2-bit packed."""
    bases = _CODE[np.frombuffer(sequence, dtype=np.uint8)].astype(np.uint64)
    if bases.size and bases.max() > 3:
        raise ValueError("reference k-mer extraction expects ACGT only")
    count = bases.size - k + 1
    if count <= 0:
        return np.empty(0, dtype=np.uint64)
    forward = np.zeros(count, dtype=np.uint64)
    reverse = np.zeros(count, dtype=np.uint64)
    for j in range(k):
        window = bases[j:j + count]
        forward = (forward << np.uint64(2)) | window
        reverse |= (np.uint64(3) - window) << np.uint64(2 * j)
    return np.unique(np.minimum(forward, reverse))


def sets_allpairs_reference(sets) -> np.ndarray:
    """All-pairs Jaccard by per-pair intersection of sorted unique arrays."""
    n = len(sets)
    inter = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        inter[i, i] = sets[i].size
        for j in range(i + 1, n):
            common = np.intersect1d(sets[i], sets[j], assume_unique=True).size
            inter[i, j] = inter[j, i] = common
    sizes = np.array([s.size for s in sets], dtype=np.int64)
    return jaccard_from_counts(inter, sizes[:, None], sizes[None, :])


def matrix_matches(got, want: np.ndarray) -> bool:
    """Whether a reported n x n matrix equals the reference."""
    if got is None or np.shape(got) != want.shape:
        return False
    return bool(np.max(np.abs(np.asarray(got) - want), initial=0.0) <= TOLERANCE)


class SetModel:
    """Dict-of-sets model of a similarity index.

    Insertion-ordered live sets; ``add`` / ``remove`` / ``compact``
    mirror the service's mutations (compact changes no answer) and
    ``scores`` is the brute-force Jaccard of a query against every live
    set, from one membership test over the concatenated values.
    """

    def __init__(self, named_values=()):
        self._sets: dict[str, np.ndarray] = {}
        self._flat = None
        self.add(named_values)

    def add(self, named_values) -> None:
        for name, values in named_values:
            if name in self._sets:
                raise KeyError(f"duplicate set {name!r}")
            self._sets[name] = np.unique(np.asarray(values, dtype=np.int64))
        self._flat = None

    def remove(self, name: str) -> None:
        del self._sets[name]
        self._flat = None

    def compact(self) -> None:
        """Reclaims space in the real store; the live sets are unchanged."""

    @property
    def names(self) -> list[str]:
        return list(self._sets)

    def _flatten(self):
        if self._flat is None:
            arrays = list(self._sets.values())
            sizes = np.array([a.size for a in arrays], dtype=np.int64)
            values = (
                np.concatenate(arrays) if arrays
                else np.empty(0, dtype=np.int64)
            )
            order = np.argsort(values, kind="stable")
            owner = np.repeat(np.arange(len(arrays)), sizes)[order]
            self._flat = (values[order], owner, sizes)
        return self._flat

    def scores(self, query) -> np.ndarray:
        """Exact J(query, s) for every live set, in insertion order."""
        q = np.unique(np.asarray(query, dtype=np.int64))
        values, owner, sizes = self._flatten()
        # Each query value owns one run of equal stored values; the
        # owners inside those runs are the sets it intersects.
        lo = np.searchsorted(values, q, side="left")
        counts = np.searchsorted(values, q, side="right") - lo
        starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        hits = owner[starts + np.arange(int(counts.sum()))]
        inter = np.bincount(hits, minlength=sizes.size)
        return jaccard_from_counts(inter, sizes, q.size)

    # ---- answer checks -------------------------------------------------

    def threshold_matches(self, matches, scores, threshold: float) -> bool:
        """``matches`` is exactly the live sets with J >= threshold
        (``scores`` = :meth:`scores` of the query at this state)."""
        names = self.names
        want = {
            names[i]: float(scores[i])
            for i in np.flatnonzero(scores >= threshold)
        }
        got = {m.name: float(m.similarity) for m in matches}
        return got.keys() == want.keys() and len(got) == len(matches) and all(
            abs(got[n] - want[n]) <= TOLERANCE for n in want
        )

    def topk_matches(self, matches, scores, k: int) -> bool:
        """``matches`` is a correct top-``k``: the reference's score
        sequence, each name carrying its own exact score (so equal
        scores may come back in either order)."""
        by_name = dict(zip(self.names, scores))
        want = np.sort(scores)[::-1][:k]
        got = [float(m.similarity) for m in matches]
        if len(got) != want.size or len({m.name for m in matches}) != len(got):
            return False
        return all(
            m.name in by_name
            and abs(g - w) <= TOLERANCE
            and abs(g - float(by_name[m.name])) <= TOLERANCE
            for m, g, w in zip(matches, got, want)
        )
