"""Weighted MinHash: bottom-s sketches of integer-abundance multisets.

The weighted Jaccard of integer abundance vectors equals the plain
Jaccard of their *expanded* sets — replace every value ``v`` of count
``c`` by the replica pairs ``(v, 0), (v, 1), ..., (v, c-1)``:

    ``J_w(a, b) = |expand(a) ∩ expand(b)| / |expand(a) ∪ expand(b)|``

because the replicas shared by both sides number exactly
``min(a_v, b_v)`` per value.  A bottom-``s`` sketch over 64-bit hashes
of the replica pairs therefore estimates ``J_w`` with exactly the
machinery (and the analytic error bound) of the unweighted
:class:`~repro.core.sketch.KMinValuesSketch` — the Mash estimator reads
``J_w`` off the shared fraction of the union's bottom-``s``, and the
worst-case 95% additive bound is ``z * 0.5 / sqrt(s)``.

The sketch is deterministic in ``(seed, multiset)``: replica hashes mix
the value hash with the replica index, so neither input order nor
batching across *disjoint* value sets changes the result.  Re-inserting
a value unions its replica sets (the multiset tracked is the
elementwise max of the inserts), matching expanded-set semantics.

Update cost is ``O(total mass)`` — the price of exact expanded-set
equivalence; index stores build one sketch per genome at append time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sketch import BottomSSketch, hash_values, splitmix64
from repro.semantics.weighted import coerce_counts
from repro.util.arrays import sorted_unique

__all__ = ["WEIGHTED_MINHASH_FAMILY", "WeightedMinHashSketch"]

#: Sketch-family name under which index stores persist these payloads.
#: Deliberately *not* part of ``repro.core.sketch.SKETCH_ESTIMATORS``:
#: stores opt in (the family needs abundance counts at append time).
WEIGHTED_MINHASH_FAMILY = "weighted_minhash"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _replica_hashes(vals: np.ndarray, cnts: np.ndarray, seed: int) -> np.ndarray:
    """64-bit hashes of the expanded ``(value, replica)`` pairs."""
    base = hash_values(vals, seed)
    expanded = np.repeat(base, cnts)
    starts = np.cumsum(cnts) - cnts
    replica = (
        np.arange(expanded.size, dtype=np.int64) - np.repeat(starts, cnts)
    ).astype(np.uint64)
    with np.errstate(over="ignore"):
        keyed = expanded ^ (replica * _GOLDEN)
    return splitmix64(keyed)


@dataclass
class WeightedMinHashSketch(BottomSSketch):
    """Bottom-``size`` sketch of an expanded abundance multiset.

    ``hashes`` holds the smallest replica hashes, so the inherited Mash
    estimator reads ``J_w`` and multisets with total mass below
    ``size`` estimate it exactly.  ``mass`` tracks the total inserted
    k-mer mass.
    """

    mass: int = 0

    @classmethod
    def from_weighted(
        cls, values, counts=None, size: int = 256, seed: int = 0
    ) -> "WeightedMinHashSketch":
        sk = cls(size=size, seed=seed)
        sk.update(values, counts)
        return sk

    def update(self, values, counts=None) -> "WeightedMinHashSketch":
        """Fold more (value, count) abundance in (streaming insertion)."""
        vals, cnts = coerce_counts(values, counts)
        if vals.size == 0:
            return self
        merged = sorted_unique(
            np.concatenate((self.hashes, _replica_hashes(vals, cnts, self.seed)))
        )
        self.mass += int(cnts.sum())
        self.hashes = merged[: self.size]
        return self
