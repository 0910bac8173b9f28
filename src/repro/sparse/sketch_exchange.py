"""Distributed all-pairs Jaccard estimation from gathered sketches.

The exact pipeline ships packed indicator *tiles*; this module ships
*sketches* — a lossy, error-bounded representation whose wire size is
independent of ``m`` (attribute universe) and linear in ``n`` (samples).
The exchange pattern is deliberately simple and communication-minimal:

1. every rank builds sketches for the samples it owns (the cyclic
   assignment ``j % p == r`` of
   :func:`repro.util.partition.round_robin_indices`, matching the reader
   layout of :mod:`repro.core.indicator`), streamed batch by batch;
2. per-rank sketch payloads are **gathered** to the root through
   :meth:`~repro.runtime.comm.Communicator.gatherv`, riding the PR-3
   wire codecs — packed b-bit words and HLL registers travel as RLE/raw
   frames, sorted bottom-k hash payloads delta+varint-encode — so the
   :class:`~repro.runtime.cost.CostLedger` charges real encoded bytes;
3. a global-statistics **allreduce** (total values hashed, payload
   bytes) gives every rank the run's sketch totals;
4. the root estimates all pairs vectorized and derives the similarity
   matrix with the analytic error bound attached.

Payload families (wire layout in ``docs/sketches.md``):

=============  =====================================================
estimator      per-rank payload arrays
=============  =====================================================
minhash        ``sizes`` int64, ``lengths`` int64, ``hashes`` uint64
bbit_minhash   ``sizes`` int64, ``words`` uint64 2-D (b-bit packed)
hll            ``sizes`` int64, ``registers`` uint8 2-D
=============  =====================================================

``sizes`` carries the exact per-sample distinct-value counts: 8 bytes a
sample buys exact empty-set handling and the HLL inclusion–exclusion
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sketch import (
    SKETCH_ESTIMATORS,
    estimate_rows,
    hll_precision_for,
    make_sketch,
    pad_rows,
    unpack_lanes,
)
from repro.runtime.codec import WireCodec
from repro.runtime.comm import Communicator
from repro.sparse.coo import CooMatrix


@dataclass
class SketchFamily:
    """Per-rank sketch state for the samples one rank owns."""

    estimator: str
    sample_ids: np.ndarray
    size: int
    bits: int
    seed: int

    def __post_init__(self) -> None:
        if self.estimator not in SKETCH_ESTIMATORS:
            raise ValueError(
                f"estimator must be one of {SKETCH_ESTIMATORS}, "
                f"got {self.estimator!r}"
            )
        self.sketches = [
            make_sketch(self.estimator, self.size, self.bits, self.seed)
            for _ in range(self.sample_ids.size)
        ]
        self._local_of = {
            int(j): i for i, j in enumerate(self.sample_ids)
        }

    @property
    def n_local(self) -> int:
        return self.sample_ids.size

    def update_from_coo(self, chunk: CooMatrix, row_offset: int) -> None:
        """Fold one batch's coordinates into the owned sketches.

        ``chunk`` holds batch-local rows and *global* sample columns, as
        produced by :meth:`IndicatorSource.read_batch`; ``row_offset``
        is the batch's global row base ``lo``.
        """
        if chunk.nnz == 0:
            return
        order = np.argsort(chunk.cols, kind="stable")
        cols = chunk.cols[order]
        values = chunk.rows[order] + row_offset
        starts = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])
        bounds = np.r_[starts, cols.size]
        for a, b in zip(bounds[:-1], bounds[1:]):
            local = self._local_of.get(int(cols[a]))
            if local is None:
                raise ValueError(
                    f"sample {int(cols[a])} not owned by this rank"
                )
            self.sketches[local].update(np.sort(values[a:b]))

    def update_flops(self, nnz: int) -> float:
        """Modelled sketch-update cost of folding ``nnz`` coordinates."""
        if self.estimator == "bbit_minhash":
            return float(nnz) * self.size  # one lane mix per (value, lane)
        if self.estimator == "minhash":
            # Hash + merge into the bottom-s buffer.
            return float(nnz) * (1.0 + np.log2(max(self.size, 2)))
        return 3.0 * nnz  # hll: hash, index split, register max

    def sizes(self) -> np.ndarray:
        """Exact distinct-value counts of the owned samples."""
        return np.array(
            [sk.n_values for sk in self.sketches], dtype=np.int64
        )

    def payloads(self) -> dict[str, np.ndarray]:
        """The wire arrays this rank contributes to the gather."""
        out = {"sizes": self.sizes()}
        if self.estimator == "minhash":
            hashes = [sk.hashes for sk in self.sketches]
            out["lengths"] = np.array(
                [h.size for h in hashes], dtype=np.int64
            )
            out["hashes"] = (
                np.concatenate(hashes)
                if hashes
                else np.empty(0, dtype=np.uint64)
            )
        elif self.estimator == "bbit_minhash":
            out["words"] = (
                np.stack([sk.packed() for sk in self.sketches])
                if self.sketches
                else np.empty((0, 0), dtype=np.uint64)
            )
        else:
            out["registers"] = (
                np.stack([sk.registers for sk in self.sketches])
                if self.sketches
                else np.empty((0, 0), dtype=np.uint8)
            )
        return out

    def payload_nbytes(self) -> int:
        return int(sum(v.nbytes for v in self.payloads().values()))

    def error_bound(self) -> float:
        return make_sketch(
            self.estimator, self.size, self.bits, self.seed
        ).error_bound()


# ---- root-side estimation -------------------------------------------------


def estimate_flops(estimator: str, n: int, size: int) -> float:
    """Modelled root-side cost of the all-pairs estimation."""
    pairs = n * (n - 1) / 2.0
    per_pair = {"minhash": 4.0, "bbit_minhash": 1.0, "hll": 3.0}[estimator]
    return pairs * per_pair * size


# ---- the distributed exchange ---------------------------------------------


@dataclass
class ExchangeOutcome:
    """What the sketch exchange hands back to the driver."""

    #: Estimated all-pairs similarity (root's copy; symmetric, unit
    #: diagonal, clipped to [0, 1]).
    similarity: np.ndarray
    #: Exact per-sample distinct-value counts (the gathered ``sizes``).
    sample_sizes: np.ndarray
    #: Uniform worst-case 95% additive bound of the estimator config.
    error_bound: float
    #: Raw (pre-codec) bytes of all gathered sketch payloads.
    sketch_payload_bytes: int
    #: Total distinct values hashed across all ranks.
    total_values: int


def exchange_and_estimate(
    comm: Communicator,
    families: list[SketchFamily],
    n: int,
    codec: WireCodec | None = None,
) -> ExchangeOutcome:
    """Gather every rank's sketches to root 0 and estimate all pairs.

    ``families[r]`` is rank ``r``'s :class:`SketchFamily`; all must
    share one estimator configuration.  Communication is charged to the
    communicator's ledger (codec-encoded when ``codec`` is given); the
    estimation compute is charged to the root rank under the
    ``sketch:estimate`` kernel label.
    """
    if len(families) != comm.size:
        raise ValueError(
            f"need one family per rank ({comm.size}), got {len(families)}"
        )
    fam = families[0]
    for other in families[1:]:
        if (
            other.estimator != fam.estimator
            or other.size != fam.size
            or other.bits != fam.bits
            or other.seed != fam.seed
        ):
            raise ValueError(
                f"families disagree on the sketch configuration: "
                f"({fam.estimator}, {fam.size}, {fam.bits}, {fam.seed}) "
                f"vs ({other.estimator}, {other.size}, {other.bits}, "
                f"{other.seed})"
            )
    payloads = [f.payloads() for f in families]
    gathered: dict[str, list[np.ndarray]] = {
        key: comm.gatherv([p[key] for p in payloads], root=0, codec=codec)[0]
        for key in payloads[0]
    }

    # Global totals every rank learns (allreduce): values hashed and
    # payload bytes contributed.
    totals = comm.allreduce(
        [
            np.array(
                [
                    int(p["sizes"].sum()),
                    sum(v.nbytes for v in p.values()),
                ],
                dtype=np.int64,
            )
            for p in payloads
        ],
        codec=codec,
    )[0]

    # Root-side reassembly into one stacked block in global sample
    # order (the row kernel's layout, see repro.core.sketch).
    width = fam.size
    if fam.estimator == "hll":
        width = 1 << hll_precision_for(fam.size)
    rows = np.zeros(
        (n, width), dtype=np.uint8 if fam.estimator == "hll" else np.uint64
    )
    sizes = np.zeros(n, dtype=np.int64)
    lengths = np.full(n, width, dtype=np.int64)
    for r, f in enumerate(families):
        if not f.n_local:
            continue
        ids = f.sample_ids
        sizes[ids] = gathered["sizes"][r]
        if fam.estimator == "minhash":
            lengths[ids] = gathered["lengths"][r]
            rows[ids] = pad_rows(gathered["hashes"][r], lengths[ids], width)
        elif fam.estimator == "bbit_minhash":
            rows[ids] = unpack_lanes(gathered["words"][r], fam.bits, width)
        else:
            rows[ids] = gathered["registers"][r]

    # All pairs: row i against the rows after it.
    sim = np.eye(n, dtype=np.float64)
    for i in range(n - 1):
        sim[i, i + 1 :] = sim[i + 1 :, i] = estimate_rows(
            fam.estimator, rows[i, : lengths[i]], sizes[i],
            rows[i + 1 :], sizes[i + 1 :], lengths[i + 1 :], fam.bits,
        )

    comm.sub([0]).charge_compute(
        estimate_flops(fam.estimator, n, fam.size),
        kernel="sketch:estimate",
    )
    return ExchangeOutcome(
        similarity=sim,
        sample_sizes=sizes,
        error_bound=fam.error_bound(),
        sketch_payload_bytes=int(totals[1]),
        total_values=int(totals[0]),
    )
