"""Names, units, directions and bounds of everything the benchmark prints.

``BENCHMARK.json`` at the repo root carries the same workload and metric
names (``bench/tests`` keeps the two in step); this module adds what the
JSON contract has no room for: which workloads a metric is non-zero on
and which end-to-end metric a layer metric is expected to move.
"""

from __future__ import annotations

from dataclasses import dataclass

ALLPAIRS_DENSE = "allpairs_dense"
ALLPAIRS_GENOMES = "allpairs_genomes"
SERVE_DENSE_READS = "serve_dense_reads"
SERVE_SPARSE_CHURN = "serve_sparse_churn"

ALLPAIRS = (ALLPAIRS_DENSE, ALLPAIRS_GENOMES)
SERVE = (SERVE_DENSE_READS, SERVE_SPARSE_CHURN)

#: name -> one-line reason the workload exists (the ``why`` of
#: ``BENCHMARK.json``; at most 200 characters each).
WORKLOADS = {
    ALLPAIRS_DENSE: (
        "Fig. 2a regime: dense random sets through jaccard_similarity; the "
        "blocked popcount Gram is the largest layer, ingest, codec and "
        "service are bypassed"
    ),
    ALLPAIRS_GENOMES: (
        "Fig. 2b regime through GenomeAtScale.run_fasta: k=31 FASTA cohort, "
        "hypersparse rows; FASTA/k-mer ingest, filter and pack dominate, "
        "the Gram does almost nothing"
    ),
    SERVE_DENSE_READS: (
        "read-only SimilarityService on a flat store of large sets, scan "
        "candidates, cache off: per-query sketch and verify stages "
        "dominate; LSH, sharding, cache and writes are bypassed"
    ),
    SERVE_SPARSE_CHURN: (
        "closed-loop query/add/remove/compact mix on a sharded lsh_exact "
        "store of tiny sets: LSH, band fan-out, cache invalidation and "
        "store commits dominate, verify is cheap"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end: regression bound (share of the parent's median).
    bound: float | None = None
    #: Workloads on which the metric is measured (others report 0).
    where: tuple[str, ...] = ALLPAIRS + SERVE
    #: Per-layer: the end-to-end / workload metric it should move.
    moves: str = ""
    note: str = ""


#: The gated end-to-end metrics: every workload reports every one (the
#: driver's contract), so they are the quantities all four share.  The
#: workload-specific names of :data:`WORKLOAD_METRICS` are printed next
#: to them and documented in ``bench/README.md``.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, note=(
        "imports + input generation + FASTA writing / bulk build, reopen "
        "and warm-up: everything before the first timed operation"
    )),
    Metric("op_p50_ms", "ms", "lower", 0.25, note=(
        "median latency of the workload's primary operation: one full "
        "all-pairs run (= allpairs_s) or one threshold query "
        "(= query_p50_ms); median over rounds"
    )),
    Metric("ops_per_s", "1/s", "higher", 0.25, note=(
        "operations of the workload's fixed mix completed per second of "
        "timed wall; median over rounds (a query_batch of b counts b)"
    )),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, note=(
        "ru_maxrss of the workload's process after the timed phase"
    )),
)

#: The issue's workload-specific end-to-end names, printed by every run
#: of the workloads they apply to (not part of the driver's JSON line).
WORKLOAD_METRICS = (
    Metric("allpairs_s", "s", "lower", where=ALLPAIRS),
    Metric("build_genomes_per_s", "1/s", "higher", where=SERVE),
    Metric("open_first_query_ms", "ms", "lower", where=SERVE),
    Metric("query_p50_ms", "ms", "lower", where=SERVE),
    Metric("query_p95_ms", "ms", "lower", where=SERVE),
    Metric("topk_p50_ms", "ms", "lower", where=SERVE),
    Metric("batch1_p50_ms", "ms", "lower", where=(SERVE_DENSE_READS,)),
    Metric("batch_qps", "1/s", "higher", where=(SERVE_DENSE_READS,)),
    Metric("mutation_p50_ms", "ms", "lower", where=(SERVE_SPARSE_CHURN,)),
    Metric("churn_ops_per_s", "1/s", "higher", where=(SERVE_SPARSE_CHURN,)),
    Metric("store_bytes_per_value", "B", "lower", where=SERVE),
    Metric("error_rate", "ratio", "lower"),
)


def _layer(name, unit, better, where, moves, note=""):
    return Metric(name, unit, better, None, tuple(where), moves, note)


_GEN = (ALLPAIRS_GENOMES,)
_CHURN = (SERVE_SPARSE_CHURN,)
_DENSE_READS = (SERVE_DENSE_READS,)
_ALL = ALLPAIRS + SERVE

_PHASES = ("read", "filter", "pack", "spgemm", "reduce", "gather")
_CODECS = ("varint", "rle", "adaptive")
_FAMILIES = ("minhash", "bbit_minhash", "hll")
_MEASURES = ("jaccard", "containment", "cosine", "weighted_jaccard")

#: The per-layer metrics of the ``--trace 1`` run, outside in.  A layer
#: that does no work on a workload reports 0 there.
PER_LAYER = (
    # genomics/
    _layer("genomics.ingest_s", "s", "lower", _GEN, "op_p50_ms",
           "read_fasta + clean_sample over the cohort"),
    _layer("genomics.kmers_per_s", "1/s", "higher", _GEN, "op_p50_ms"),
    _layer("genomics.sample_store_write_s", "s", "lower", _GEN, "op_p50_ms"),
    # core/
    _layer("core.read_s", "s", "lower", ALLPAIRS, "op_p50_ms",
           "source.read_batch over every rank and batch"),
    _layer("core.filter_s", "s", "lower", ALLPAIRS, "op_p50_ms"),
    _layer("core.filter_fill", "ratio", "lower", ALLPAIRS, "",
           "rows kept / batch rows (exact for a seed)"),
    _layer("core.pack_s", "s", "lower", ALLPAIRS, "op_p50_ms"),
    _layer("core.driver_other_s", "s", "lower", ALLPAIRS, "op_p50_ms",
           "allpairs_s minus the probed layer time: the driver's self time"),
    # sparse/
    _layer("sparse.summa_s", "s", "lower", ALLPAIRS, "op_p50_ms",
           "summa_gram_2d + colsums over every layer and batch"),
    _layer("sparse.gram_blocked_s", "s", "lower", ALLPAIRS, "op_p50_ms",
           "gram_popcount_blocked on the workload's own packed batch"),
    _layer("sparse.gram_blocked_gwordops_per_s", "Gop/s", "higher",
           ALLPAIRS, "op_p50_ms"),
    _layer("sparse.gram_bitpacked_s", "s", "lower", ALLPAIRS, ""),
    _layer("sparse.gram_outer_s", "s", "lower", ALLPAIRS, ""),
    _layer("sparse.kernels_chosen.blocked", "count", "higher", ALLPAIRS, ""),
    _layer("sparse.kernels_chosen.bitpacked", "count", "lower", ALLPAIRS, ""),
    _layer("sparse.kernels_chosen.outer", "count", "lower", ALLPAIRS, ""),
    # runtime/
    *(
        _layer(f"runtime.codec_encode_mb_per_s.{c}", "MB/s", "higher", _ALL,
               "setup_s", "encode_frame on the workload's real payloads")
        for c in _CODECS
    ),
    *(
        _layer(f"runtime.codec_decode_mb_per_s.{c}", "MB/s", "higher", _ALL,
               "ops_per_s")
        for c in _CODECS
    ),
    _layer("runtime.codec_ratio", "ratio", "higher", _ALL, "",
           "raw / adaptive-encoded bytes of those payloads (exact)"),
    _layer("runtime.wire_bytes_raw", "B", "lower", ALLPAIRS, "",
           "ledger: bytes the run's collectives would move uncoded (exact)"),
    _layer("runtime.wire_bytes_encoded", "B", "lower", ALLPAIRS, "",
           "ledger: bytes they moved as charged (= raw under wire_codec=raw)"),
    _layer("runtime.supersteps", "count", "lower", ALLPAIRS, ""),
    _layer("runtime.modelled_s", "s", "lower", ALLPAIRS, "",
           "the ledger's simulated makespan of one run (exact)"),
    *(
        _layer(f"runtime.modelled_phase_s.{p}", "s", "lower", ALLPAIRS, "")
        for p in _PHASES
    ),
    _layer("runtime.model_ratio", "ratio", "lower", ALLPAIRS, "",
           "measured allpairs_s / modelled_s"),
    # core.sketch
    *(
        _layer(f"sketch.build_values_per_s.{f}", "1/s", "higher", SERVE,
               "setup_s", "make_sketch(family).update over corpus sets")
        for f in _FAMILIES
    ),
    _layer("sketch.estimate_pairs_per_s", "1/s", "higher", SERVE,
           "op_p50_ms", "service.query.sketch_estimates on stored payloads"),
    # service.store
    _layer("store.append_ms_per_set", "ms", "lower", SERVE, "setup_s"),
    _layer("store.open_ms", "ms", "lower", SERVE, "ops_per_s"),
    _layer("store.load_values_us", "us", "lower", SERVE, "op_p50_ms"),
    _layer("store.load_sketch_payload_us", "us", "lower", SERVE, "op_p50_ms"),
    _layer("store.snapshot_us", "us", "lower", SERVE, "ops_per_s"),
    _layer("store.remove_ms", "ms", "lower", SERVE, "ops_per_s"),
    _layer("store.compact_s", "s", "lower", SERVE, "ops_per_s"),
    _layer("store.bytes_written_per_value", "B", "lower", SERVE, "",
           "on-disk bytes per stored value after the build (exact)"),
    # service.incremental
    _layer("incremental.border_ms_per_set", "ms", "lower", SERVE, "setup_s",
           "SimilarityService.add minus IndexStore.append_many, per set"),
    # service.lsh
    _layer("lsh.probe_us", "us", "lower", _CHURN, "op_p50_ms"),
    _layer("lsh.build_s", "s", "lower", _CHURN, "setup_s"),
    _layer("lsh.update_ms", "ms", "lower", _CHURN, "ops_per_s",
           "with_added + with_removed of one item"),
    _layer("lsh.kept_ratio", "ratio", "lower", _CHURN, "",
           "n_after_lsh / n_candidates over the traced queries (exact)"),
    _layer("lsh.recall", "ratio", "higher", _CHURN, "",
           "true matches the probe retrieved / true matches (exact)"),
    # service.query
    *(
        _layer(f"query.stage_ms.{s}", "ms", "lower",
               SERVE if s != "lsh" else _CHURN, "op_p50_ms",
               "median per query, stages replayed through public functions")
        for s in ("lsh", "window", "sketch", "verify", "other")
    ),
    *(
        _layer(f"query.prefilter_ms.{p}", "ms", "lower", SERVE, "op_p50_ms",
               "facade differential: median query under query.prefilter")
        for p in ("off", "size", "cascade")
    ),
    *(
        _layer(f"query.{c}", "count", "lower", SERVE, "",
               "cascade funnel summed over the traced queries (exact)")
        for c in ("candidates", "after_lsh", "after_size", "after_sketch",
                  "verified", "matches")
    ),
    _layer("query.useful_verify_ratio", "ratio", "higher", SERVE, ""),
    _layer("query.vs_bruteforce_ratio", "ratio", "higher", SERVE, "",
           "prefilter=off time / cascade time"),
    _layer("query.model_ratio", "ratio", "lower", SERVE, "",
           "measured query seconds / the ledger's simulated seconds"),
    # service.batch
    *(
        _layer(f"batch.qps.{b}", "1/s", "higher", _DENSE_READS, "ops_per_s")
        for b in ("b1", "b8", "b32")
    ),
    *(
        _layer(f"batch.vs_serial_ratio.{b}", "ratio", "higher",
               _DENSE_READS, "ops_per_s",
               "serial seconds / batched seconds on the same queries")
        for b in ("b1", "b32")
    ),
    # service.cache
    _layer("cache.hit_rate", "ratio", "higher", _CHURN, "op_p50_ms"),
    _layer("cache.evictions", "count", "lower", _CHURN, ""),
    _layer("cache.get_us", "us", "lower", _CHURN, "op_p50_ms"),
    # service.sharded + runtime.executor
    _layer("sharded.bands_consulted_mean", "count", "lower", _CHURN,
           "op_p50_ms"),
    _layer("sharded.merge_us", "us", "lower", _CHURN, "op_p50_ms"),
    _layer("sharded.vs_flat_ratio", "ratio", "higher", _CHURN, "op_p50_ms",
           "flat-copy seconds / sharded seconds on the same query pool"),
    _layer("sharded.migrate_s", "s", "lower", _CHURN, ""),
    _layer("executor.threaded_vs_sequential_ratio", "ratio", "higher",
           _CHURN, "op_p50_ms",
           "sequential seconds / threaded seconds of the band fan-out"),
    # semantics
    *(
        _layer(f"semantics.query_ms.{m}", "ms", "lower", _DENSE_READS, "",
               "guards the non-default measures; no gated metric")
        for m in _MEASURES
    ),
    # the trace itself
    _layer("trace.layer_cover_ratio", "ratio", "higher", _ALL, "",
           "summed layer time / primary operation time"),
    _layer("trace.overhead_pct", "%", "lower", _ALL, "",
           "traced vs untraced primary operation time"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)


def layer_names(prefix: str, but: str = "") -> list[str]:
    """The per-layer names under ``prefix`` (less those under ``but``)."""
    return [
        n for n in PER_LAYER_NAMES
        if n.startswith(prefix) and not (but and n.startswith(but))
    ]

UNITS = {m.name: m.unit for m in END_TO_END + WORKLOAD_METRICS + PER_LAYER}

#: Counts that must repeat bit-exactly for a seed (``--check-repeat``).
EXACT_COUNTS = (
    "store_bytes_per_value",
    "core.filter_fill",
    "runtime.codec_ratio",
    "runtime.wire_bytes_raw",
    "runtime.wire_bytes_encoded",
    "runtime.supersteps",
    "runtime.modelled_s",
    "store.bytes_written_per_value",
    "lsh.kept_ratio",
    "lsh.recall",
    "query.candidates",
    "query.after_lsh",
    "query.after_size",
    "query.after_sketch",
    "query.verified",
    "query.matches",
    "cache.hit_rate",
    "cache.evictions",
    "sharded.bands_consulted_mean",
)
