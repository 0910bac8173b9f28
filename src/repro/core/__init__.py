"""SimilarityAtScale — the paper's primary contribution.

The distributed Jaccard pipeline (paper Listing 1):

1. read one batch of the indicator matrix ``A`` (Eq. 3),
2. filter zero rows with the distributed filter vector ``f`` and its
   prefix sum (Eq. 5-6) — :mod:`repro.core.filtering`,
3. compress row segments into ``b``-bit words (Eq. 7) and scatter the
   packed blocks onto the processor grid — :mod:`repro.core.bitmask`,
4. accumulate ``B += R^T R`` (popcount SUMMA / 2.5D) and the column
   sums ``a-hat`` — :mod:`repro.sparse.summa`,
5. after the last batch derive ``C = a-hat_i + a-hat_j - B`` and
   ``S = B / C``, ``D = 1 - S`` (Eq. 2) — :mod:`repro.core.similarity`.

:func:`repro.core.similarity.jaccard_similarity` is the one-call entry
point; :class:`repro.core.similarity.SimilarityAtScale` is the
configurable driver.
"""

from repro.core.config import SimilarityConfig
from repro.core.indicator import (
    FileSource,
    IndicatorSource,
    SetSource,
    SyntheticSource,
)
from repro.core.result import BatchStats, SimilarityResult
from repro.core.sketch import (
    ESTIMATORS,
    SKETCH_ESTIMATORS,
    make_sketch,
    sketch_error_bound,
)

__all__ = [
    "SimilarityConfig",
    "ESTIMATORS",
    "SKETCH_ESTIMATORS",
    "make_sketch",
    "sketch_error_bound",
    "IndicatorSource",
    "SetSource",
    "FileSource",
    "SyntheticSource",
    "BatchStats",
    "SimilarityResult",
    "SimilarityAtScale",
    "jaccard_similarity",
]


def __getattr__(name: str):
    """Resolve the driver lazily, through the top-level package's table.

    :mod:`repro.core.similarity` imports :mod:`repro.sparse`, whose
    sketch exchange imports :mod:`repro.core.sketch` — importing the
    driver eagerly here would make ``import repro.sparse`` (as the first
    import of a process) re-enter a half-initialised module.
    """
    if name in ("SimilarityAtScale", "jaccard_similarity"):
        import repro

        return getattr(repro, name)
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
