"""Similarity semantics: pluggable measures over one compute core.

One Gram/statistics core, many similarity measures on top (the shape of
Joubert et al.'s multi-metric vector-similarity family): this package
defines the :class:`~repro.semantics.measures.SimilarityMeasure`
registry — ``jaccard``, ``weighted_jaccard``, ``containment``,
``cosine`` — each bundling its score formula, its exact candidate
pruning bound, and its sketch estimation story.  The service layer
(:mod:`repro.service`) threads the configured measure
(``SimilarityConfig.similarity``) through
plan compilation, the query cascade, batching, shard fan-out, caching,
and the CLI; :mod:`repro.analytics.clustering` accepts the same knob.

See ``docs/semantics.md`` for formulas and bound derivations.
"""

from repro.semantics.measures import (
    MEASURES,
    SimilarityMeasure,
    get_measure,
)
from repro.semantics.weighted import (
    coerce_counts,
    intersection_union_mass,
    total_mass,
    weighted_jaccard_pair,
)
from repro.semantics.wminhash import (
    WEIGHTED_MINHASH_FAMILY,
    WeightedMinHashSketch,
)

__all__ = [
    "MEASURES",
    "SimilarityMeasure",
    "WEIGHTED_MINHASH_FAMILY",
    "WeightedMinHashSketch",
    "coerce_counts",
    "get_measure",
    "intersection_union_mass",
    "total_mass",
    "weighted_jaccard_pair",
]
