"""The two all-pairs workloads: ``allpairs_dense`` and ``allpairs_genomes``.

Timed through the public entry points only (``jaccard_similarity`` and
``GenomeAtScale.run_fasta``); the traced run replays the driver's batch
loop through each layer's public functions with a span around every
call, so the per-layer times are measured on the workload's real inputs
without touching ``src/``.
"""

from __future__ import annotations

import gc
import shutil
from pathlib import Path
from statistics import median

import numpy as np

from jaccbench import reference, spec, workloads
from jaccbench.spans import SpanRecorder
from jaccbench.stats import Probes, Round, clock, median_time, time_call

#: Scatter-adds the outer-product kernel may be asked for in one probe;
#: beyond it the kernel runs on a word-row slice and is extrapolated.
OUTER_PROBE_OPS = 2e7

#: Raw payload bytes each codec probe encodes and decodes.
CODEC_PROBE_BYTES = 4 << 20


class AllPairsWorkload:
    """Common protocol of the two all-pairs workloads."""

    name: str
    #: The operation kind ``op_p50_ms`` is the latency of: one full run.
    primary_kind = "run"

    def __init__(self, sizes, workdir: Path):
        self.sizes = sizes
        self.workdir = workdir
        self.digest = ""
        self._runs = 0
        #: The first timed run's result: later runs must equal it bit
        #: for bit, and it is the one checked against the reference.
        self._first = None

    # -- hooks: generate / run_once / reference / machine / config /
    # -- replay_source are the subclass's; these two have defaults.
    def prepare(self) -> None:
        """Untimed per-run preparation (a fresh workdir)."""

    def core_result(self, result):
        """The run's :class:`repro.core.result.SimilarityResult`."""
        return result

    # -- protocol ----------------------------------------------------------
    def setup(self, seed: int) -> None:
        """Everything before the first timed run, warm-up included."""
        self.generate(seed)
        self.prepare()
        self.run_once()

    def timed_rounds(self, seconds: float, min_rounds: int) -> list[Round]:
        """Full runs until ``seconds`` have passed; each is one round."""
        rounds: list[Round] = []
        deadline = clock() + seconds
        while len(rounds) < min_rounds or clock() < deadline:
            gc.collect()  # between runs, so peak RSS does not grow with them
            self.prepare()
            log = Round()
            try:
                dt, result = time_call(self.run_once)
            except Exception:  # an operation that raises is a failed one
                dt = None
            log.add("run", dt)
            if dt is not None:
                if self._first is None:
                    self._first = result
                log.failed += not np.array_equal(
                    result.similarity, self._first.similarity
                )
            rounds.append(log.close())
        return rounds

    def final_failures(self) -> int:
        """The first run's matrices against the brute-force reference."""
        if self._first is None:
            return 1
        want = self.reference()
        return int(not (
            reference.matrix_matches(self._first.similarity, want)
            and reference.matrix_matches(self._first.distance, 1.0 - want)
        ))

    def summarize(self, rounds: list[Round]) -> dict[str, float]:
        return {"allpairs_s": 1e-3 * median(r.p50_ms("run") for r in rounds)}

    # -- the traced run ------------------------------------------------------
    def trace(self, rec: SpanRecorder, probes: Probes, seconds: float) -> None:
        untraced, traced, result = [], [], None
        deadline = clock() + seconds / 3.0
        while len(untraced) < 2 or clock() < deadline:
            self.prepare()
            untraced.append(time_call(self.run_once)[0])
            self.prepare()
            with rec.operation("allpairs.run") as span:
                result = self.run_once()
            traced.append(span.duration)
        allpairs_s = median(untraced)

        layer_names = [
            "genomics.ingest_s", "genomics.kmers_per_s",
            "genomics.sample_store_write_s", "core.read_s", "core.filter_s",
            "core.filter_fill", "core.pack_s", "core.driver_other_s",
            "sparse.summa_s", "trace.layer_cover_ratio",
        ]
        state: dict = {}
        probes.run(layer_names, lambda: self._replay(rec, allpairs_s, state))
        probes.run(
            ["sparse.gram_blocked_s", "sparse.gram_blocked_gwordops_per_s",
             "sparse.gram_bitpacked_s", "sparse.gram_outer_s"],
            lambda: _kernel_probe(state["block"]),
        )
        probes.run(
            spec.layer_names("runtime.codec_"),
            lambda: codec_probe(state["payloads"]),
        )
        probes.run(
            ["sparse.kernels_chosen.blocked", "sparse.kernels_chosen.bitpacked",
             "sparse.kernels_chosen.outer"],
            lambda: {
                f"sparse.kernels_chosen.{k}": sum(
                    b.kernel == k for b in self.core_result(result).batches
                )
                for k in ("blocked", "bitpacked", "outer")
            },
        )
        probes.run(
            spec.layer_names("runtime.", but="runtime.codec_"),
            lambda: _ledger_probe(self.core_result(result).cost, allpairs_s),
        )
        probes.values["trace.overhead_pct"] = (
            100.0 * (median(traced) - allpairs_s) / allpairs_s
        )

    def _replay(self, rec: SpanRecorder, allpairs_s: float, state: dict):
        """The driver's SUMMA batch loop, layer by layer, under spans."""
        from repro.core.batching import plan_batches, plan_grid
        from repro.core.bitmask import distribute_and_pack
        from repro.core.filtering import apply_filter
        from repro.runtime.codec import resolve_wire_codec
        from repro.runtime.topology import ProcessorGrid
        from repro.sparse.dispatch import choose_kernel
        from repro.sparse.distributed import DistDenseMatrix, DistVector
        from repro.sparse.summa import (
            colsums_2d, fiber_reduce, fiber_reduce_vector, summa_gram_2d,
        )

        machine, config = self.machine(), self.config()
        with rec.operation("allpairs.replay"):
            source, kmers = self.replay_source(rec)
            n, m = source.n, source.m
            codec = resolve_wire_codec(config.wire_codec)
            nnz_hint = source.nnz_estimate()
            grid_plan = plan_grid(
                machine.p, n, machine.spec, config, z_hint=float(nnz_hint)
            )
            q, c = grid_plan.q, grid_plan.c
            comm = machine.world.sub(range(grid_plan.active_ranks))
            grid = ProcessorGrid(comm, q, q, c)
            bounds = plan_batches(
                m, n, nnz_hint, machine.spec, config, grid_plan
            ).bounds
            b_layers = [DistDenseMatrix.zeros(grid, l, n, n) for l in range(c)]
            a_layers = [DistVector.zeros(grid, l, n) for l in range(c)]
            kept = rows = 0
            for lo, hi in bounds:
                with rec.span("core.read"):
                    chunks = [
                        source.read_batch(lo, hi, r, comm.size)
                        for r in range(comm.size)
                    ]
                    for r in range(comm.size):
                        source.read_bytes(lo, hi, r, comm.size)
                with rec.span("core.filter"):
                    filt = apply_filter(comm, chunks, config.filter_strategy)
                with rec.span("core.pack"):
                    mats = distribute_and_pack(
                        comm, grid, filt.chunks, filt.n_nonzero_rows, n,
                        config.bit_width, codec=codec,
                    )
                kept += filt.n_nonzero_rows
                rows += filt.n_batch_rows
                kernel = choose_kernel(
                    filt.n_nonzero_rows, n, sum(ch.nnz for ch in chunks),
                    config.bit_width, policy=config.kernel_policy,
                ).kernel
                if "block" not in state:
                    state["block"] = max(
                        (blk for mat in mats for blk in mat.blocks.values()),
                        key=lambda blk: blk.words.size,
                    )
                    state["payloads"] = [
                        blk for mat in mats for blk in mat.blocks.values()
                    ] + [np.stack([ch.rows, ch.cols]) for ch in filt.chunks]
                with rec.span("sparse.summa"):
                    for l in range(c):
                        summa_gram_2d(
                            mats[l], b_layers[l], kernel=kernel, codec=codec
                        )
                        a_layers[l].add_inplace(
                            colsums_2d(mats[l], codec=codec)
                        )
            with rec.span("sparse.reduce"):
                fiber_reduce(grid, b_layers, codec=codec)
                fiber_reduce_vector(grid, a_layers, codec=codec)
        ingest = rec.total("genomics.ingest")
        layers = {
            "genomics.ingest_s": ingest,
            "genomics.sample_store_write_s": rec.total("genomics.store_write"),
            "core.read_s": rec.total("core.read"),
            "core.filter_s": rec.total("core.filter"),
            "core.pack_s": rec.total("core.pack"),
            "sparse.summa_s": rec.total("sparse.summa")
            + rec.total("sparse.reduce"),
        }
        covered = sum(layers.values())
        return {
            **layers,
            "genomics.kmers_per_s": kmers / ingest if ingest else 0.0,
            "core.filter_fill": kept / rows if rows else 0.0,
            "core.driver_other_s": allpairs_s - covered,
            "trace.layer_cover_ratio": covered / allpairs_s,
        }


# ---- layer probes shared with the serve workloads ---------------------------


def codec_probe(payloads) -> dict:
    """Encode/decode throughput of each codec on real payloads."""
    from repro.runtime.codec import decode_frame, encode_frame

    chosen, raw = [], 0
    for p in payloads:
        nbytes = p.words.nbytes if hasattr(p, "words") else p.nbytes
        if nbytes == 0:
            continue
        chosen.append(p)
        raw += nbytes
        if raw >= CODEC_PROBE_BYTES:
            break
    if not chosen:
        raise ValueError("no non-empty payload to encode")
    out = {}
    for codec in ("varint", "rle", "adaptive"):
        t_enc, frames = time_call(
            lambda: [encode_frame(p, codec) for p in chosen]
        )
        t_dec, _ = time_call(lambda: [decode_frame(f) for f in frames])
        out[f"runtime.codec_encode_mb_per_s.{codec}"] = raw / t_enc / 1e6
        out[f"runtime.codec_decode_mb_per_s.{codec}"] = raw / t_dec / 1e6
        if codec == "adaptive":
            out["runtime.codec_ratio"] = raw / sum(f.nbytes for f in frames)
    return out


def _kernel_probe(block) -> dict:
    """Each local Gram kernel on the workload's own packed block."""
    from repro.sparse.dispatch import predict_kernel_ops
    from repro.sparse.spgemm import (
        gram_bitpacked, gram_outer_pair, gram_popcount_blocked,
    )

    word_ops = gram_popcount_blocked(block).flops
    t_blocked = median_time(lambda: gram_popcount_blocked(block), 5)
    t_bitpacked = median_time(lambda: gram_bitpacked(block), 5)
    # The outer kernel costs nnz * degree scatter-adds: on a dense block
    # that is minutes, so it runs on a word-row slice and is scaled up.
    ops = predict_kernel_ops(
        block.n_rows, block.n_cols, block.nnz, block.bit_width
    )["outer"] / 8.0
    w = block.n_word_rows
    take = w if ops <= OUTER_PROBE_OPS else max(int(w * OUTER_PROBE_OPS / ops), 1)
    part = block.word_row_slice(0, take)
    t_outer = time_call(gram_outer_pair, part)[0] * (w / take)
    return {
        "sparse.gram_blocked_s": t_blocked,
        "sparse.gram_blocked_gwordops_per_s": word_ops / t_blocked / 1e9,
        "sparse.gram_bitpacked_s": t_bitpacked,
        "sparse.gram_outer_s": t_outer,
    }


def _ledger_probe(cost, allpairs_s: float) -> dict:
    """Exact counts of the run's cost ledger + the model ratio."""
    total = cost.total
    moved = float(total.total_bytes)
    out = {
        # What the collectives would have moved raw / did move as charged.
        "runtime.wire_bytes_raw": (
            moved - total.wire_encoded_bytes + total.wire_raw_bytes
        ),
        "runtime.wire_bytes_encoded": moved,
        "runtime.supersteps": float(total.supersteps),
        "runtime.modelled_s": cost.simulated_seconds,
        "runtime.model_ratio": allpairs_s / cost.simulated_seconds,
    }
    for phase in ("read", "filter", "pack", "spgemm", "reduce", "gather"):
        pc = cost.phases.get(phase)
        out[f"runtime.modelled_phase_s.{phase}"] = pc.seconds if pc else 0.0
    return out


# ---- allpairs_dense ---------------------------------------------------------


class AllPairsDense(AllPairsWorkload):
    name = spec.ALLPAIRS_DENSE

    def generate(self, seed: int) -> None:
        from repro.core.indicator import SetSource

        self.inputs = workloads.gen_allpairs_dense(seed, self.sizes)
        self.digest = self.inputs.digest
        # SetSource, not SyntheticSource: its lazy per-batch regeneration
        # would put the load generator inside the timed run.
        self.source = SetSource(self.inputs.sets, m=self.sizes.m)

    def machine(self):
        from repro.runtime import Machine, stampede2_knl

        return Machine(stampede2_knl(2, ranks_per_node=4))

    def config(self):
        from repro import SimilarityConfig

        return SimilarityConfig(
            batch_count=self.sizes.batch_count, gather_result=True
        )

    def run_once(self):
        from repro import jaccard_similarity

        return jaccard_similarity(self.source, self.machine(), self.config())

    def reference(self):
        return reference.dense_allpairs_reference(
            self.inputs.sets, self.sizes.m
        )

    def replay_source(self, rec):
        return self.source, 0


# ---- allpairs_genomes -------------------------------------------------------


class AllPairsGenomes(AllPairsWorkload):
    name = spec.ALLPAIRS_GENOMES

    def generate(self, seed: int) -> None:
        self.inputs = workloads.gen_allpairs_genomes(seed, self.sizes)
        self.digest = self.inputs.digest
        fasta_dir = self.workdir / "fasta"
        shutil.rmtree(fasta_dir, ignore_errors=True)
        self.paths = self.inputs.write_fasta(fasta_dir)

    def prepare(self) -> None:
        self._runs += 1
        shutil.rmtree(self.workdir / "run", ignore_errors=True)
        self.rundir = self.workdir / "run" / f"{self._runs:04d}"

    def machine(self):
        from repro.runtime import Machine, laptop

        return Machine(laptop(4))

    def config(self):
        from repro import SimilarityConfig

        return SimilarityConfig(batch_count=self.sizes.batch_count)

    def run_once(self):
        from repro.genomics.pipeline import GenomeAtScale

        tool = GenomeAtScale(self.machine(), self.config(), k=self.sizes.k)
        return tool.run_fasta(self.paths, self.rundir)

    def core_result(self, result):
        return result.similarity_result

    def reference(self):
        sets = [
            reference.canonical_kmer_set(seq, self.sizes.k)
            for seq in self.inputs.sequences
        ]
        return reference.sets_allpairs_reference(sets)

    def replay_source(self, rec):
        """FASTA -> cleaned k-mer codes -> sample store, under spans."""
        from repro.genomics.counting import clean_sample
        from repro.genomics.fasta import read_fasta
        from repro.genomics.samples import SampleStore

        self.prepare()
        k = self.sizes.k
        with rec.span("genomics.store_write"):
            store = SampleStore.create(self.rundir / "samples", k=k)
        kmers = 0
        for path in self.paths:
            with rec.span("genomics.ingest"):
                records = read_fasta(path)
                codes, _ = clean_sample(records, k, min_count=1)
            kmers += sum(max(len(r.sequence) - k + 1, 0) for r in records)
            with rec.span("genomics.store_write"):
                store.add_sample(path.stem, codes)
        return store.as_source(), kmers


WORKLOADS = {
    spec.ALLPAIRS_DENSE: AllPairsDense,
    spec.ALLPAIRS_GENOMES: AllPairsGenomes,
}
