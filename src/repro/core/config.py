"""Configuration of the SimilarityAtScale driver."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sketch import (
    ESTIMATORS,
    MAX_SKETCH_BITS,
    MIN_SKETCH_BITS,
)
from repro.runtime.codec import WIRE_CODECS
from repro.runtime.pipeline import PIPELINE_MODES
from repro.sparse.dispatch import KERNEL_POLICIES
from repro.util.bits import SUPPORTED_WIDTHS

FILTER_STRATEGIES = ("allgather", "transpose", "off")

#: Candidate-pruning depth of the service-layer query cascade
#: (:mod:`repro.service.query`).  ``"off"`` = brute-force exact
#: verification of every candidate; ``"size"`` = the exact size-ratio
#: bound only; ``"cascade"`` = size bound + sketch prefilter + exact
#: verification.  Defined here (not in the service package) so the
#: config layer never imports upward.
QUERY_PREFILTERS = ("off", "size", "cascade")

#: Candidate generator of the service-layer query engine.  ``"scan"``
#: = linear scan of the size-ratio window (exact, grows with corpus
#: size); ``"lsh"`` = banded MinHash-LSH bucket probe intersected with
#: the size window (sub-linear, approximate — misses a true match at
#: threshold ``t`` with probability at most ``(1 - t^r)^b``); and
#: ``"lsh_exact"`` = the probe unioned with the full window scan
#: (exact; used to audit measured LSH recall against the analytic
#: bound).
QUERY_CANDIDATES = ("scan", "lsh", "lsh_exact")

#: Similarity measures the service layer can serve from one store (see
#: :mod:`repro.semantics` for the per-measure score formulas, pruning
#: bounds, and sketch stories).  ``"jaccard"`` — presence/absence
#: ``|A∩B| / |A∪B|`` (the paper's Eq. 2); ``"weighted_jaccard"`` —
#: multiset ``sum min(a_v, b_v) / sum max(a_v, b_v)`` over k-mer
#: abundances; ``"containment"`` — the asymmetric ``|A∩B| / |A|``
#: (query containment); ``"cosine"`` — the binary Ochiai coefficient
#: ``|A∩B| / sqrt(|A| |B|)``.  Defined here (not in the semantics
#: package) so the config layer never imports upward.
SIMILARITY_MEASURES = ("jaccard", "weighted_jaccard", "containment", "cosine")

#: How a sharded store's size-band edges are planned (see
#: :func:`repro.service.sharded.plan_size_bands`).  ``"geometric"`` —
#: edges grow by a constant ratio across ``[1, m]`` (matches the
#: size-ratio window's multiplicative shape); ``"quantile"`` —
#: equal-count bands over observed sizes
#: (needs a size sample; best load balance).  Defined here (not in the
#: service package) so the config layer never imports upward.
SHARD_BAND_POLICIES = ("geometric", "quantile")


@dataclass(frozen=True)
class SimilarityConfig:
    """Tuning knobs of the distributed Jaccard computation.

    Attributes
    ----------
    bit_width:
        Segment size ``b`` of the bitmask compression (Eq. 7).  The paper
        recommends 32 or 64; 8/16 exist for the ablation bench.
    batch_count:
        Number of row batches ``r`` (Eq. 3).  ``None`` lets the planner
        pick the smallest count whose per-rank footprint fits in memory
        (the paper's "pick the batch size to use all available memory").
    replication:
        Output replication factor ``c`` of the 2.5D scheme.  ``None``
        applies the paper's rule ``c = Theta(min(p, M p / n^2))`` subject
        to grid feasibility.  ``c = p`` is the rule's top end: a
        ``1 x 1`` face, every rank a full ``B`` replica.  With
        ``reduce_every_batch=True`` that corner is the 1-D all-reduce
        strawman the ablation bench compares SUMMA against.
    filter_strategy:
        ``"allgather"`` — replicate the filter vector on all ranks and
        prefix-sum locally (what the paper's implementation does, §IV-A);
        ``"transpose"`` — the fully distributed variant from the
        algorithm description (§III-C); ``"off"`` — skip filtering (ablation;
        every batch row, zero or not, is packed).
    kernel_policy:
        How the local Gram kernel is picked per batch.  ``"adaptive"``
        (default) lets :func:`repro.sparse.dispatch.choose_kernel` route
        each batch by its post-filter density — blocked popcount for
        dense (Kingsford-like) batches, outer-product accumulation for
        hypersparse (BIGSI-like) ones.  ``"bitpacked"``, ``"blocked"``
        and ``"outer"`` force that kernel on every batch (the fixed
        policies of the kernel benchmark harness).
    pipeline:
        Batch schedule of the driver loop (see
        :mod:`repro.runtime.pipeline`).  ``"off"`` (default) is the
        paper's serial Listing 1 schedule; ``"double_buffer"`` overlaps
        batch ``b``'s Gram accumulation with batch ``b+1``'s
        read/filter/pack in the cost model (per-rank ``max`` instead of
        sum over the overlapped stages).  Functional results are
        bit-identical in both modes.
    wire_codec:
        Wire-format codec for the payloads the distributed Gram puts on
        the network (see :mod:`repro.runtime.codec` and
        ``docs/wire_format.md``).  ``"raw"`` (default) is the legacy
        wire format — payloads charged at their in-memory size.
        ``"varint"`` delta+varint-encodes sorted index payloads,
        ``"rle"`` zero-word run-length-encodes word tiles, and
        ``"adaptive"`` picks per payload by modelled encoded size.
        Every policy is bit-exact: results are identical to ``"raw"``;
        only the modelled wire bytes (and codec flop time) change.
    estimator:
        How the all-pairs Jaccard values are computed.  ``"exact"``
        (default) runs the paper's bit-matrix pipeline.  The sketch
        estimators (see :mod:`repro.core.sketch` and
        ``docs/sketches.md``) trade provable accuracy for
        order-of-magnitude wire-byte cuts: ``"minhash"`` ships bottom-s
        hash sketches (Mash-style), ``"bbit_minhash"`` ships b-bit
        packed lane fingerprints (Li–König), ``"hll"`` ships
        HyperLogLog union-cardinality registers.  Sketch runs route
        through :mod:`repro.sparse.sketch_exchange` and ignore
        ``replication``/``kernel_policy``; every estimate carries
        the analytic 95% error bound in ``result.error_bound``.
    sketch_size:
        Sketch budget per sample: bottom-``s`` size for ``minhash``,
        lane count ``k`` for ``bbit_minhash``, register count (rounded
        up to a power of two) for ``hll``.  Larger is more accurate and
        more traffic; the bound shrinks as ``1/sqrt(sketch_size)``.
    sketch_bits:
        Bits kept per b-bit MinHash lane (wire size ``k*b`` bits per
        sample; collision floor ``2^-b`` corrected by the estimator).
        Ignored by the other estimators.
    sketch_seed:
        Root seed of every sketch hash; sketches are deterministic in
        (seed, sample values) whatever the rank layout or batching.
    similarity:
        Similarity measure the service layer answers queries in; one
        of :data:`SIMILARITY_MEASURES`.  ``"jaccard"`` (default) is the
        paper's presence/absence Eq. 2; ``"containment"`` scores the
        asymmetric query containment ``|Q∩C| / |Q|`` (one-sided
        pruning bound); ``"cosine"`` the binary Ochiai coefficient
        ``|Q∩C| / sqrt(|Q| |C|)``; ``"weighted_jaccard"`` the multiset
        ``sum min / sum max`` over k-mer abundance counts (mass-ratio
        pruning bound; needs stored counts for abundance-aware
        answers).  Every measure is exactness-preserving on every
        query path — see ``docs/semantics.md``.
    query_prefilter:
        Candidate-pruning depth of the service-layer query cascade
        (:mod:`repro.service.query`): ``"cascade"`` (default) applies
        the exact size-ratio bound, then the conservative sketch
        prefilter, then exact verification; ``"size"`` skips the sketch
        stage; ``"off"`` verifies every candidate (brute force).
        ``"off"`` and ``"size"`` are unconditionally exact;
        ``"cascade"`` is exact at the sketches' 95% confidence (a
        candidate is pruned only when its estimate plus the analytic
        bound is still below the threshold).
    query_candidates:
        Candidate generator the cascade starts from.  ``"scan"``
        (default) enumerates every live genome and lets the size-ratio
        window prune linearly; ``"lsh"`` probes the store's banded
        MinHash-LSH bucket tables (:mod:`repro.service.lsh`) instead —
        sub-linear, but *approximate*: a true match at threshold ``t``
        is retrieved with probability at least ``1 - (1 - t^r)^b``
        (the store's band/row plan), not certainty.  ``"lsh_exact"``
        runs the probe *and* the full window scan and unions them —
        results stay exactly equal to brute force while the probe's
        candidate set is still measured, which is how LSH recall is
        audited.  Both LSH modes require the store to hold the
        ``bbit_minhash`` family.
    query_cache_size:
        Entry capacity of the service layer's LRU query/result cache;
        0 disables caching (every query recomputes).  A
        ``query_batch`` call needs no knob of its own: it answers all
        its queries in one cascade pass over one store snapshot.
    store_shards:
        Number of size-banded shards a newly created store is split
        into.  1 (default) keeps
        the classic single-directory :class:`~repro.service.store.
        IndexStore`; >= 2 creates a :class:`~repro.service.sharded.
        ShardedStore` whose threshold/top-k queries fan out only over
        the bands the size-ratio window overlaps.
    shard_band_policy:
        How the shard band edges are planned; one of
        :data:`SHARD_BAND_POLICIES`.
    reduce_every_batch:
        When ``True``, replication layers reduce their partial ``B`` after
        every batch (as in the paper's Listing 1 accumulation order);
        when ``False`` (default) each layer accumulates locally and a
        single fiber reduction runs after the last batch — functionally
        identical, strictly less communication.
    gather_result:
        Gather the distributed ``S``/``D`` blocks to a dense array in the
        result (on by default; turn off for communication-volume studies
        where only the cost ledger matters).
    compute_distance:
        Also derive the Jaccard distance matrix ``D = 1 - S``.
    validate:
        Run extra internal consistency checks (symmetry, value ranges)
        once, on the finished result; for tests and debugging.
    """

    bit_width: int = 64
    batch_count: int | None = None
    replication: int | None = None
    filter_strategy: str = "allgather"
    kernel_policy: str = "adaptive"
    pipeline: str = "off"
    wire_codec: str = "raw"
    estimator: str = "exact"
    sketch_size: int = 256
    sketch_bits: int = 8
    sketch_seed: int = 0
    similarity: str = "jaccard"
    query_prefilter: str = "cascade"
    query_candidates: str = "scan"
    query_cache_size: int = 128
    store_shards: int = 1
    shard_band_policy: str = "geometric"
    reduce_every_batch: bool = False
    gather_result: bool = True
    compute_distance: bool = True
    validate: bool = False

    def __post_init__(self) -> None:
        if self.bit_width not in SUPPORTED_WIDTHS:
            raise ValueError(
                f"bit_width must be one of {SUPPORTED_WIDTHS}, "
                f"got {self.bit_width}"
            )
        if self.batch_count is not None and self.batch_count <= 0:
            raise ValueError(f"batch_count must be positive, got {self.batch_count}")
        if self.replication is not None and self.replication <= 0:
            raise ValueError(f"replication must be positive, got {self.replication}")
        if self.filter_strategy not in FILTER_STRATEGIES:
            raise ValueError(
                f"filter_strategy must be one of {FILTER_STRATEGIES}, "
                f"got {self.filter_strategy!r}"
            )
        if self.kernel_policy not in KERNEL_POLICIES:
            raise ValueError(
                f"kernel_policy must be one of {KERNEL_POLICIES}, "
                f"got {self.kernel_policy!r}"
            )
        if self.pipeline not in PIPELINE_MODES:
            raise ValueError(
                f"pipeline must be one of {PIPELINE_MODES}, "
                f"got {self.pipeline!r}"
            )
        if self.wire_codec not in WIRE_CODECS:
            raise ValueError(
                f"wire_codec must be one of {WIRE_CODECS}, "
                f"got {self.wire_codec!r}"
            )
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"estimator must be one of {ESTIMATORS}, "
                f"got {self.estimator!r}"
            )
        if self.sketch_size <= 0:
            raise ValueError(
                f"sketch_size must be positive, got {self.sketch_size}"
            )
        if not MIN_SKETCH_BITS <= self.sketch_bits <= MAX_SKETCH_BITS:
            raise ValueError(
                f"sketch_bits must be in "
                f"[{MIN_SKETCH_BITS}, {MAX_SKETCH_BITS}], "
                f"got {self.sketch_bits}"
            )
        if self.similarity not in SIMILARITY_MEASURES:
            raise ValueError(
                f"similarity must be one of {SIMILARITY_MEASURES}, "
                f"got {self.similarity!r}"
            )
        if self.query_prefilter not in QUERY_PREFILTERS:
            raise ValueError(
                f"query_prefilter must be one of {QUERY_PREFILTERS}, "
                f"got {self.query_prefilter!r}"
            )
        if self.query_candidates not in QUERY_CANDIDATES:
            raise ValueError(
                f"query_candidates must be one of {QUERY_CANDIDATES}, "
                f"got {self.query_candidates!r}"
            )
        if self.query_cache_size < 0:
            raise ValueError(
                f"query_cache_size must be >= 0, got {self.query_cache_size}"
            )
        if self.store_shards < 1:
            raise ValueError(
                f"store_shards must be >= 1, got {self.store_shards}"
            )
        if self.shard_band_policy not in SHARD_BAND_POLICIES:
            raise ValueError(
                f"shard_band_policy must be one of {SHARD_BAND_POLICIES}, "
                f"got {self.shard_band_policy!r}"
            )
