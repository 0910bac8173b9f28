"""Sparse / bit-packed matrix substrate (the Cyclops-CTF substitute).

The paper's implementation uses Cyclops for (a) distributed sparse vector
writes with algebraic accumulation, (b) semiring sparse-matrix products
with dense output (the popcount kernel of Eq. 7), and (c) processor-grid
data distribution.  This package re-implements that subset:

* :mod:`~repro.sparse.coo` — a minimal boolean / integer coordinate
  format tailored to hypersparse indicator matrices;
* :mod:`~repro.sparse.bitmatrix` — the b-bit packed column-block format
  of §III-B technique (3);
* :mod:`~repro.sparse.spgemm` — local Gram kernels ``B = A^T A``
  (dense-word popcount sweeps, the word-tiled blocked fast path, and
  the hypersparse row-outer-product kernel);
* :mod:`~repro.sparse.dispatch` — density-adaptive routing between the
  local kernels, driven by post-filter batch statistics;
* :mod:`~repro.sparse.distributed` — block-distributed matrices over
  processor grids, with redistribution;
* :mod:`~repro.sparse.summa` — communication-avoiding distributed Gram:
  2-D SUMMA and the 2.5D replicated variant of §III-C;
* :mod:`~repro.sparse.sketch_exchange` — distributed all-pairs Jaccard
  *estimation* from gathered per-sample sketches (MinHash / b-bit /
  HLL; see :mod:`repro.core.sketch`), the lossy counterpart to the
  exact SUMMA path.
"""

from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.coo import CooMatrix
from repro.sparse.dispatch import (
    GRAM_KERNELS,
    KERNEL_POLICIES,
    DispatchDecision,
    choose_kernel,
    predict_kernel_ops,
    resolve_kernel,
)
from repro.sparse.sketch_exchange import (
    ExchangeOutcome,
    SketchFamily,
    exchange_and_estimate,
)
from repro.sparse.spgemm import (
    colsum_bitpacked,
    gram_bitpacked,
    gram_outer_pair,
    gram_popcount_blocked,
)

__all__ = [
    "BitMatrix",
    "CooMatrix",
    "DispatchDecision",
    "GRAM_KERNELS",
    "KERNEL_POLICIES",
    "choose_kernel",
    "predict_kernel_ops",
    "resolve_kernel",
    "gram_bitpacked",
    "gram_outer_pair",
    "gram_popcount_blocked",
    "colsum_bitpacked",
    "ExchangeOutcome",
    "SketchFamily",
    "exchange_and_estimate",
]
