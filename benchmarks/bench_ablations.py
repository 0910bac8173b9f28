"""Ablations of the design choices DESIGN.md calls out.

Each test isolates one of SimilarityAtScale's ingredients (paper §III-B
techniques 1-3 and the §III-C parallelization) and measures what it
buys on a fixed workload:

* bitmask width ``b`` — storage per nonzero and kernel time (Eq. 7);
* zero-row filtering — packed size and simulated time on hypersparse
  batches (Eq. 5-6);
* SUMMA vs the 1-D allreduce strawman (the ``c = p`` corner with a
  per-batch all-reduce) — communication volume;
* replication factor ``c`` — the 2.5D communication trade-off;
* deferred vs per-batch fiber reduction;
* SimilarityAtScale vs the MapReduce dataflow (§I).
"""

import numpy as np

from benchmarks.conftest import format_table
from repro import SimilarityConfig, jaccard_similarity
from repro.baselines.mapreduce import mapreduce_jaccard
from repro.core.indicator import SyntheticSource
from repro.runtime import Machine, laptop, stampede2_knl
from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.spgemm import gram_bitpacked
from repro.util.units import format_bytes, format_time


def test_ablation_bitmask_width(benchmark, emit, rng=None):
    """Eq. 7: wider words = fewer word rows = faster popcount sweeps."""
    rng = np.random.default_rng(11)
    dense = rng.random((32_768, 96)) < 0.05
    # A boolean CSR of the same matrix: int64 row pointers + column ids.
    csr_bytes = 8 * (dense.shape[0] + 1) + 8 * int(dense.sum())
    rows = []
    times = {}
    for width in (8, 16, 32, 64):
        bm = BitMatrix.from_dense(dense, width)

        def kernel(b=bm):
            return gram_bitpacked(b)

        import time as _time

        t0 = _time.perf_counter()
        res = kernel()
        wall = _time.perf_counter() - t0
        times[width] = wall
        rows.append(
            [
                width,
                bm.n_word_rows,
                format_bytes(bm.nbytes),
                f"{csr_bytes / bm.nbytes:.1f}x",
                format_time(wall),
            ]
        )
        del res
    emit(
        "ablation_bitmask_width",
        "Ablation -- bitmask width b (paper: pack b rows/word, <= 2-3x "
        "meta-data per nonzero, rows / b)",
        format_table(
            ["b", "word rows", "packed bytes", "vs CSR", "gram wall"], rows
        ),
    )
    # Wider words sweep fewer word rows; 64-bit must beat 8-bit clearly.
    assert times[64] < times[8]
    benchmark.pedantic(
        lambda: gram_bitpacked(BitMatrix.from_dense(dense, 64)),
        rounds=1, iterations=1, warmup_rounds=0,
    )


def test_ablation_zero_row_filter(benchmark, emit):
    """Eq. 5-6: filtering pays off exactly when batches are hypersparse."""
    source = SyntheticSource(m=4_000_000, n=128, density=2e-5, seed=12)
    results = {}
    for strategy in ("allgather", "transpose", "off"):
        machine = Machine(stampede2_knl(2, ranks_per_node=4))
        results[strategy] = jaccard_similarity(
            source, machine=machine, batch_count=4, gather_result=False,
            filter_strategy=strategy,
        )
    rows = []
    for strategy, result in results.items():
        kept = np.mean([b.fill for b in result.batches])
        rows.append(
            [
                strategy,
                f"{kept:.2%}",
                format_time(result.mean_batch_seconds),
                format_time(result.simulated_seconds),
            ]
        )
    emit(
        "ablation_filter",
        "Ablation -- zero-row filter on a hypersparse batch "
        "(m=4M, density 2e-5)",
        format_table(
            ["strategy", "rows kept", "t/batch", "total"], rows
        ),
    )
    sim = {k: r.simulated_seconds for k, r in results.items()}
    # Both filter variants must beat packing every zero row.
    assert sim["allgather"] < sim["off"]
    assert sim["transpose"] < sim["off"]
    # All three produce identical batch statistics except row counts.
    assert (
        results["off"].batches[0].nnz == results["allgather"].batches[0].nnz
    )
    benchmark.pedantic(
        lambda: jaccard_similarity(
            source, machine=Machine(stampede2_knl(2, ranks_per_node=4)),
            batch_count=4, gather_result=False,
        ),
        rounds=1, iterations=1, warmup_rounds=0,
    )


def test_ablation_summa_vs_1d(benchmark, emit):
    """§III-C: 2-D panel traffic vs a full n^2 allreduce per rank."""
    source = SyntheticSource(m=100_000, n=768, density=0.02, seed=13)
    mach_summa = Machine(laptop(16))
    summa = jaccard_similarity(
        source, machine=mach_summa, batch_count=2, gather_result=False,
        replication=1,
    )
    # The strawman: a 1 x 1 face, every rank a full B replica, and B
    # all-reduced after every batch.
    mach_1d = Machine(laptop(16))
    one_d = jaccard_similarity(
        source, machine=mach_1d, batch_count=2, gather_result=False,
        replication=16, reduce_every_batch=True,
    )
    rows = [
        [
            "SUMMA 4x4",
            format_bytes(summa.cost.communication_bytes),
            format_time(summa.simulated_seconds),
        ],
        [
            "1-D allreduce",
            format_bytes(one_d.cost.communication_bytes),
            format_time(one_d.simulated_seconds),
        ],
    ]
    emit(
        "ablation_summa_vs_1d",
        "Ablation -- SUMMA vs 1-D allreduce (n=768, 16 ranks)",
        format_table(["algorithm", "comm bytes", "sim time"], rows),
    )
    assert summa.cost.communication_bytes < one_d.cost.communication_bytes
    benchmark.pedantic(
        lambda: jaccard_similarity(
            source, machine=Machine(laptop(16)), batch_count=2,
            gather_result=False, replication=1,
        ),
        rounds=1, iterations=1, warmup_rounds=0,
    )


def test_ablation_replication_factor(benchmark, emit):
    """§III-C: c > 1 trades B-replica memory for panel traffic."""
    source = SyntheticSource(m=200_000, n=256, density=0.02, seed=14)
    rows = []
    comm = {}
    for c in (1, 4, 16):
        machine = Machine(laptop(64))
        result = jaccard_similarity(
            source, machine=machine, batch_count=2, gather_result=False,
            replication=c,
        )
        comm[c] = result.cost.total.max_rank_bytes
        rows.append(
            [
                f"{result.grid_q}x{result.grid_q}x{c}",
                format_bytes(result.cost.communication_bytes),
                format_bytes(comm[c]),
                format_time(result.simulated_seconds),
            ]
        )
    emit(
        "ablation_replication",
        "Ablation -- 2.5D replication factor c (64 ranks, n=256)",
        format_table(
            ["grid", "total comm", "per-rank bound", "sim time"], rows
        ),
    )
    # Replication reduces the per-rank panel traffic (z / sqrt(cp) term).
    assert comm[4] < comm[1]
    benchmark.pedantic(
        lambda: jaccard_similarity(
            source, machine=Machine(laptop(64)), batch_count=2,
            gather_result=False, replication=4,
        ),
        rounds=1, iterations=1, warmup_rounds=0,
    )


def test_ablation_deferred_reduction(benchmark, emit):
    """Per-batch fiber reductions vs one deferred reduction at the end."""
    source = SyntheticSource(m=100_000, n=256, density=0.02, seed=15)

    def run(reduce_every_batch: bool):
        machine = Machine(laptop(32))
        cfg = SimilarityConfig(
            replication=2, batch_count=8, gather_result=False,
            reduce_every_batch=reduce_every_batch,
        )
        return jaccard_similarity(source, machine=machine, config=cfg)

    eager = run(True)
    deferred = run(False)
    rows = [
        ["per-batch (Listing 1 order)",
         format_bytes(eager.cost.communication_bytes),
         format_time(eager.simulated_seconds)],
        ["deferred (single reduction)",
         format_bytes(deferred.cost.communication_bytes),
         format_time(deferred.simulated_seconds)],
    ]
    emit(
        "ablation_deferred_reduction",
        "Ablation -- fiber-reduction schedule (c=2, 8 batches)",
        format_table(["schedule", "comm bytes", "sim time"], rows),
    )
    assert (
        deferred.cost.communication_bytes < eager.cost.communication_bytes
    )
    benchmark.pedantic(
        run, args=(False,), rounds=1, iterations=1, warmup_rounds=0
    )


def test_ablation_vs_mapreduce(benchmark, emit):
    """§I: the allreduce-over-reducers dataflow moves far more data."""
    source = SyntheticSource(m=50_000, n=512, density=0.04, seed=16)
    mach_sas = Machine(laptop(16))
    sas = jaccard_similarity(
        source, machine=mach_sas, batch_count=2, gather_result=False,
        replication=1,
    )
    mach_mr = Machine(laptop(16))
    mr = mapreduce_jaccard(source, machine=mach_mr, batch_count=2)
    ratio = mr.cost.communication_bytes / sas.cost.communication_bytes
    rows = [
        ["SimilarityAtScale", format_bytes(sas.cost.communication_bytes),
         format_time(sas.simulated_seconds)],
        ["MapReduce-style", format_bytes(mr.cost.communication_bytes),
         format_time(mr.simulated_seconds)],
    ]
    emit(
        "ablation_vs_mapreduce",
        f"Ablation -- MapReduce strawman moves {ratio:.1f}x more data "
        "(n=512, dense rows)",
        format_table(["dataflow", "comm bytes", "sim time"], rows),
    )
    assert np.allclose(mr.similarity[:8, :8] >= 0, True)
    assert ratio > 1.5, f"expected MapReduce to move >1.5x, got {ratio:.2f}x"
    benchmark.pedantic(
        lambda: mapreduce_jaccard(
            source, machine=Machine(laptop(16)), batch_count=2
        ),
        rounds=1, iterations=1, warmup_rounds=0,
    )
