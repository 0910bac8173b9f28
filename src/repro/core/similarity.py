"""The SimilarityAtScale driver (paper Listing 1 / Listing 2).

Orchestrates the full distributed Jaccard pipeline per batch —

    read -> filter zero rows -> bitmask-pack -> local Gram -> accumulate

— and, after the last batch, derives ``C``, ``S`` and ``D`` (Eq. 2) and
optionally gathers them to dense arrays.  The local Gram step is routed
per batch by the density-adaptive dispatcher
(:mod:`repro.sparse.dispatch`): dense batches run the word-tiled
popcount fast path (Eq. 7), hypersparse batches the outer-product
accumulation, and the decision is recorded in each batch's
:class:`~repro.core.result.BatchStats`.  The batch loop itself runs
under a schedule from :mod:`repro.runtime.pipeline`: ``pipeline="off"``
is the paper's serial Listing 1 order, ``"double_buffer"`` overlaps
batch ``b``'s Gram accumulation with batch ``b+1``'s
read/filter/pack in the cost model.  When a wire codec is configured
(``wire_codec != "raw"``), every tile, coordinate, and reduction
payload the loop puts on the network rides the codec layer
(:mod:`repro.runtime.codec`): genuinely encoded and decoded per hop,
charged at *encoded* size, tallied raw-vs-encoded in the ledger.  All
communication and compute is charged to the machine's BSP ledger; the
functional results are bit-identical to a serial computation over the
same input, whichever kernels run, whichever schedule is active, and
whichever wire codec is configured.

When a sketch estimator is configured (``estimator != "exact"``) the
same batched read loop feeds per-sample sketches instead of packed Gram
tiles, and the run produces an error-bounded *estimate* through the
sketch gather/estimate path of :mod:`repro.sparse.sketch_exchange` —
see :mod:`repro.core.sketch` and ``docs/sketches.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.analysis import predicted_gram_kernel
from repro.core.batching import BatchPlan, GridPlan, plan_batches, plan_grid
from repro.core.bitmask import distribute_and_pack
from repro.core.config import SimilarityConfig
from repro.core.filtering import apply_filter
from repro.core.indicator import IndicatorSource, SetSource
from repro.core.result import BatchStats, SimilarityResult
from repro.runtime.codec import WireCodec, resolve_wire_codec
from repro.runtime.comm import Communicator
from repro.runtime.engine import Machine
from repro.runtime.machine import laptop
from repro.runtime.pipeline import StageTiming, run_batches
from repro.runtime.topology import ProcessorGrid
from repro.sparse.dispatch import DispatchDecision, choose_kernel
from repro.sparse.distributed import DistDenseMatrix, DistVector
from repro.sparse.sketch_exchange import SketchFamily, exchange_and_estimate
from repro.sparse.spgemm import EXACT_FLOAT32_ROWS
from repro.sparse.summa import (
    colsums_2d,
    fiber_reduce,
    fiber_reduce_vector,
    summa_gram_2d,
)
from repro.util.arrays import sorted_unique
from repro.util.partition import round_robin_indices


@dataclass(frozen=True)
class _PreparedBatch:
    """One batch after read/filter/pack, awaiting Gram accumulation.

    ``payload`` holds the packed words, one
    :class:`~repro.sparse.distributed.DistWordMatrix` per replication
    layer.  The pipeline scheduler keeps at most one of these in flight
    beyond the batch being accumulated (the double buffer).
    """

    lo: int
    hi: int
    nnz: int
    nonzero_rows: int
    decision: DispatchDecision
    payload: list


def _batch_stats(
    prepared: list[_PreparedBatch],
    timings: list[StageTiming],
) -> list[BatchStats]:
    """Fuse prepared-batch metadata with the scheduler's stage timings."""
    return [
        BatchStats(
            index=t.index, row_lo=p.lo, row_hi=p.hi, nnz=p.nnz,
            nonzero_rows=p.nonzero_rows,
            simulated_seconds=t.effective_seconds,
            kernel=p.decision.kernel, density=p.decision.density,
            prepare_seconds=t.prepare_seconds,
            gram_seconds=t.accumulate_seconds,
            overlap_saved_seconds=t.overlap_saved_seconds,
        )
        for p, t in zip(prepared, timings, strict=True)
    ]


class _StagedGram:
    """One replication layer's ``B``, accumulated exactly in float32.

    The paper's ``B += R^T R`` (Eq. 7) runs into a float32 stage, so the
    kernels add float32 products without converting each one.  A stage
    entry counts at most the bit rows staged so far, so float32 holds it
    exactly while they stay under :data:`EXACT_FLOAT32_ROWS`.  A batch
    that would reach the bound first flushes the stage into an int64
    ``B``, allocated on the first flush; a batch at or over the bound on
    its own adds straight into that ``B``.  :meth:`collect` converts once
    per block, before the reduction, so every collective moves int64.
    """

    def __init__(self, grid: ProcessorGrid, layer: int, n: int):
        self._dims = (grid, layer, n, n)
        self._stage: DistDenseMatrix | None = None
        self._exact: DistDenseMatrix | None = None
        self._rows = 0

    def target(self, rows: int) -> DistDenseMatrix:
        """The matrix a batch of ``rows`` bit rows on this layer adds into."""
        if self._rows + rows >= EXACT_FLOAT32_ROWS:
            self._flush()
        if rows >= EXACT_FLOAT32_ROWS:
            if self._exact is None:
                self._exact = DistDenseMatrix.zeros(*self._dims)
            return self._exact
        if self._stage is None:
            self._stage = DistDenseMatrix.zeros(*self._dims, dtype=np.float32)
        self._rows += rows
        return self._stage

    def _flush(self) -> None:
        stage, self._stage, self._rows = self._stage, None, 0
        if stage is None:
            return
        if self._exact is None:
            # Block by block, so at most one block is held twice.
            for key in stage.blocks:
                stage.blocks[key] = stage.blocks[key].astype(np.int64)
            self._exact = stage
        else:
            for key, blk in stage.blocks.items():
                self._exact.blocks[key] += blk.astype(np.int64)

    def collect(self) -> DistDenseMatrix:
        """The layer's int64 ``B`` (at least one batch was added); the
        layer is left empty."""
        self._flush()
        exact, self._exact = self._exact, None
        return exact


def _coerce_source(data) -> IndicatorSource:
    if isinstance(data, IndicatorSource) and not isinstance(data, (list, tuple)):
        return data
    if isinstance(data, (list, tuple)):
        return SetSource(data)
    raise TypeError(
        f"expected an IndicatorSource or a sequence of sample sets, "
        f"got {type(data).__name__}"
    )


class SimilarityAtScale:
    """Distributed all-pairs Jaccard similarity engine.

    Parameters
    ----------
    machine:
        The simulated machine to run on; defaults to a 4-rank laptop.
    config:
        Algorithm knobs; see :class:`~repro.core.config.SimilarityConfig`.
    """

    def __init__(
        self,
        machine: Machine | None = None,
        config: SimilarityConfig | None = None,
    ):
        self.machine = machine if machine is not None else Machine(laptop(4))
        self.config = config if config is not None else SimilarityConfig()

    # ---- public API -------------------------------------------------------

    def run(self, data) -> SimilarityResult:
        """Compute all-pairs Jaccard similarity of the given samples."""
        source = _coerce_source(data)
        if source.n <= 0:
            raise ValueError("need at least one data sample")
        ledger = self.machine.ledger
        before, measured = ledger.snapshot(), dict(ledger.measured_s)
        started = time.perf_counter()
        if self.config.estimator != "exact":
            result = self._run_sketch(source)
        else:
            result = self._run_summa(source)
        result.cost = ledger.diff(before)
        if self.config.validate and result.similarity is not None:
            self._validate(result)
        result.wall_s = time.perf_counter() - started
        result.measured_s = {
            name: s - measured.get(name, 0.0)
            for name, s in ledger.measured_s.items()
            if s != measured.get(name, 0.0)
        }
        return result

    # ---- SUMMA / 2.5D path ---------------------------------------------------

    def _run_summa(self, source: IndicatorSource) -> SimilarityResult:
        machine, config = self.machine, self.config
        codec = resolve_wire_codec(config.wire_codec)
        n, m = source.n, source.m
        grid_plan = plan_grid(
            machine.p, n, machine.spec, config,
            z_hint=float(source.nnz_estimate()),
        )
        q, c = grid_plan.q, grid_plan.c
        active = grid_plan.active_ranks
        comm = machine.world.sub(range(active))
        grid = ProcessorGrid(comm, q, q, c)
        batch_plan = plan_batches(
            m, n, source.nnz_estimate(), machine.spec, config, grid_plan
        )

        b_layers = [_StagedGram(grid, l, n) for l in range(c)]
        ahat_layers = [DistVector.zeros(grid, l, n) for l in range(c)]
        b_main: DistDenseMatrix | None = None
        ahat_main: DistVector | None = None
        bounds = batch_plan.bounds
        prepared_meta: list[_PreparedBatch] = []

        def prepare(idx: int) -> _PreparedBatch:
            lo, hi = bounds[idx]
            chunks, nnz = self._read_batch(comm, source, lo, hi)
            with machine.phase("filter"):
                filt = apply_filter(comm, chunks, config.filter_strategy)
            with machine.phase("pack"):
                layer_mats = distribute_and_pack(
                    comm, grid, filt.chunks, filt.n_nonzero_rows, n,
                    config.bit_width, codec=codec,
                )
            decision = self._dispatch(n, nnz, filt.n_nonzero_rows)
            return _PreparedBatch(
                lo, hi, nnz, filt.n_nonzero_rows, decision, layer_mats
            )

        def reduce_layers() -> tuple[DistDenseMatrix, DistVector]:
            # Every layer's B is int64 before it reaches the wire.
            reduced_b = fiber_reduce(
                grid, [g.collect() for g in b_layers], codec=codec
            )
            return reduced_b, fiber_reduce_vector(grid, ahat_layers, codec=codec)

        def accumulate(idx: int, prep: _PreparedBatch) -> None:
            nonlocal b_main, ahat_main
            layer_mats = prep.payload
            with machine.phase("spgemm"):
                for l, mat in enumerate(layer_mats):
                    summa_gram_2d(
                        mat, b_layers[l].target(mat.n_rows),
                        kernel=prep.decision.kernel, codec=codec,
                    )
                    ahat_layers[l].add_inplace(colsums_2d(mat, codec=codec))
                if config.reduce_every_batch and c > 1:
                    reduced_b, reduced_a = reduce_layers()
                    ahat_layers[:] = [
                        DistVector.zeros(grid, l, n) for l in range(c)
                    ]
                    if b_main is None:
                        b_main, ahat_main = reduced_b, reduced_a
                    else:
                        b_main.add_inplace(reduced_b)
                        ahat_main.add_inplace(reduced_a)
            prepared_meta.append(prep)

        timings = run_batches(
            machine, len(bounds), prepare, accumulate, mode=config.pipeline
        )
        batches = _batch_stats(prepared_meta, timings)

        with machine.phase("reduce"):
            if b_main is None:
                b_main, ahat_main = reduce_layers()
        assert ahat_main is not None
        sim_blocks, dist_blocks = self._derive_similarity(grid, b_main, ahat_main)

        result = SimilarityResult(
            n=n, m=m, config=config, machine_name=machine.spec.name,
            p=machine.p, grid_q=q, grid_c=c, cost=machine.ledger,
            batches=batches,
            planned_kernel=self._plan_kernel(source, batch_plan),
        )
        if config.gather_result:
            with machine.phase("gather"):
                result.similarity = self._gather_blocks(
                    grid, sim_blocks, n, codec
                )
                if dist_blocks is not None:
                    result.distance = self._gather_blocks(
                        grid, dist_blocks, n, codec
                    )
                result.intersections = self._gather_blocks(
                    grid, b_main, n, codec
                )
                result.sample_sizes = self._gather_vector(
                    grid, ahat_main, codec
                )
        return result

    def _dispatch(
        self, n: int, nnz: int, n_nonzero_rows: int
    ) -> DispatchDecision:
        """Route one batch's local Gram by its post-filter density."""
        return choose_kernel(
            n_nonzero_rows, n, nnz, self.config.bit_width,
            policy=self.config.kernel_policy,
        )

    def _plan_kernel(
        self, source: IndicatorSource, batch_plan: BatchPlan
    ) -> str:
        """The planner's a-priori kernel prediction for an average batch.

        Uses only ``nnz_estimate`` (no data read), scaled to one batch —
        the prediction the adaptive dispatcher is expected to confirm at
        runtime on uniform inputs.
        """
        r = max(batch_plan.batch_count, 1)
        decision = predicted_gram_kernel(
            source.m / r, source.n, source.nnz_estimate() / r,
            self.config.bit_width, policy=self.config.kernel_policy,
        )
        return decision.kernel

    def _read_batch(
        self, comm: Communicator, source: IndicatorSource, lo: int, hi: int
    ):
        machine = self.machine
        with machine.phase("read"):
            chunks = comm.run_local(
                lambda r: source.read_batch(lo, hi, r, comm.size)
            )
            comm.charge_io(
                [source.read_bytes(lo, hi, r, comm.size) for r in range(comm.size)]
            )
            comm.charge_compute([float(ch.nnz) for ch in chunks])
        return chunks, sum(ch.nnz for ch in chunks)

    def _derive_similarity(
        self, grid: ProcessorGrid, b_main: DistDenseMatrix, ahat: DistVector
    ) -> tuple[DistDenseMatrix, DistDenseMatrix | None]:
        """Eq. 2 on the distributed blocks: ``S = B / (a_i + a_j - B)``."""
        machine, config = self.machine, self.config
        q = grid.rows
        with machine.phase("similarity"):
            # Part i of a-hat is replicated down grid column i; the row-wise
            # operand reaches rank (i, j) via a row broadcast from (i, i).
            row_parts: dict[int, np.ndarray] = {}
            for i in range(q):
                out = grid.row_comm(i, 0).bcast(ahat.parts[i], root=i)
                row_parts[i] = out[0]
            sim = DistDenseMatrix(
                grid=grid, layer=0, row_bounds=b_main.row_bounds,
                col_bounds=b_main.col_bounds, blocks={},
            )
            dist = (
                DistDenseMatrix(
                    grid=grid, layer=0, row_bounds=b_main.row_bounds,
                    col_bounds=b_main.col_bounds, blocks={},
                )
                if config.compute_distance
                else None
            )
            flops = []
            for i in range(q):
                a_i = row_parts[i].astype(np.float64)
                for j in range(q):
                    a_j = ahat.parts[j].astype(np.float64)
                    b_blk = b_main.blocks[(i, j)].astype(np.float64)
                    unions = a_i[:, None] + a_j[None, :] - b_blk
                    # J(empty, empty) = 1 by definition (§II-A).
                    s_blk = np.where(unions == 0.0, 1.0, b_blk / np.where(
                        unions == 0.0, 1.0, unions))
                    sim.blocks[(i, j)] = s_blk
                    if dist is not None:
                        dist.blocks[(i, j)] = 1.0 - s_blk
                    flops.append(4.0 * b_blk.size)
            grid.layer_comm(0).charge_compute(flops)
        return sim, dist

    def _gather_blocks(
        self,
        grid: ProcessorGrid,
        mat: DistDenseMatrix,
        n: int,
        codec: WireCodec | None = None,
    ) -> np.ndarray:
        # Each local rank contributes exactly its own block; the block's
        # face coordinates follow from the gather position, so the
        # payloads are bare arrays and ride the wire codec when active.
        comm = grid.layer_comm(0)
        payloads = [
            mat.blocks[divmod(local, grid.cols)] for local in range(comm.size)
        ]
        gathered = comm.gatherv(payloads, root=0, codec=codec)[0]
        out = np.zeros((n, n), dtype=next(iter(mat.blocks.values())).dtype)
        for local, blk in enumerate(gathered):
            i, j = divmod(local, grid.cols)
            rlo, rhi = mat.row_bounds[i]
            clo, chi = mat.col_bounds[j]
            out[rlo:rhi, clo:chi] = blk
        return out

    def _gather_vector(
        self,
        grid: ProcessorGrid,
        vec: DistVector,
        codec: WireCodec | None = None,
    ) -> np.ndarray:
        comm = grid.layer_comm(0)
        payloads: list = [None] * comm.size
        for t in range(grid.cols):
            payloads[grid.local_rank(0, t, 0)] = vec.parts[t]
        gathered = comm.gatherv(payloads, root=0, codec=codec)[0]
        out = np.zeros(vec.n, dtype=np.int64)
        for t in range(grid.cols):
            part = gathered[grid.local_rank(0, t, 0)]
            lo, hi = vec.col_bounds[t]
            out[lo:hi] = part
        return out

    # ---- sketch estimation path ------------------------------------------------

    def _run_sketch(self, source: IndicatorSource) -> SimilarityResult:
        """Sketch-based estimation (``config.estimator != "exact"``).

        Streams the same batched reads as the exact driver, but folds
        each rank's coordinates into per-sample sketches instead of
        packed Gram tiles; the all-pairs estimation happens after a
        codec-mediated sketch gather (see
        :mod:`repro.sparse.sketch_exchange`).  ``kernel_policy`` and
        ``replication`` are ignored on this path.
        """
        machine, config = self.machine, self.config
        codec = resolve_wire_codec(config.wire_codec)
        n, m = source.n, source.m
        comm = machine.world
        batch_plan = plan_batches(
            m, n, source.nnz_estimate(), machine.spec, config,
            GridPlan(q=1, c=comm.size),
        )
        families = [
            SketchFamily(
                estimator=config.estimator,
                sample_ids=round_robin_indices(n, comm.size, r),
                size=config.sketch_size,
                bits=config.sketch_bits,
                seed=config.sketch_seed,
            )
            for r in range(comm.size)
        ]
        bounds = batch_plan.bounds
        prepared_meta: list[_PreparedBatch] = []
        kernel = f"sketch:{config.estimator}"

        def prepare(idx: int):
            lo, hi = bounds[idx]
            chunks, nnz = self._read_batch(comm, source, lo, hi)
            return lo, hi, chunks, nnz

        def accumulate(idx: int, prep) -> None:
            lo, hi, chunks, nnz = prep
            with machine.phase("sketch"):
                comm.run_local(
                    lambda r: families[r].update_from_coo(chunks[r], lo)
                )
                comm.charge_compute(
                    [
                        families[r].update_flops(chunks[r].nnz)
                        for r in range(comm.size)
                    ],
                    kernel=kernel,
                )
            rows = [c.rows for c in chunks if c.nnz]
            nonzero_rows = (
                int(sorted_unique(np.concatenate(rows)).size) if rows else 0
            )
            decision = DispatchDecision(
                kernel=kernel, policy="sketch",
                density=nnz / max((hi - lo) * n, 1),
            )
            prepared_meta.append(
                _PreparedBatch(lo, hi, nnz, nonzero_rows, decision, [])
            )

        timings = run_batches(
            machine, len(bounds), prepare, accumulate, mode=config.pipeline
        )
        batches = _batch_stats(prepared_meta, timings)
        with machine.phase("exchange"):
            outcome = exchange_and_estimate(comm, families, n, codec=codec)

        result = SimilarityResult(
            n=n, m=m, config=config, machine_name=machine.spec.name,
            p=machine.p, grid_q=1, grid_c=comm.size, cost=machine.ledger,
            batches=batches,
            planned_kernel=kernel,
            error_bound=outcome.error_bound,
            sketch_payload_bytes=outcome.sketch_payload_bytes,
        )
        if config.gather_result:
            result.similarity = outcome.similarity
            result.sample_sizes = outcome.sample_sizes
            if config.compute_distance:
                result.distance = 1.0 - outcome.similarity
        return result

    # ---- validation -------------------------------------------------------------

    @staticmethod
    def _validate(result: SimilarityResult) -> None:
        s = result.similarity
        if not np.allclose(s, s.T):
            raise AssertionError("similarity matrix is not symmetric")
        if np.any(s < 0) or np.any(s > 1):
            raise AssertionError("similarity values outside [0, 1]")
        if not np.allclose(np.diag(s), 1.0):
            raise AssertionError("self-similarity must be 1")
        if result.distance is not None and not np.allclose(
            result.distance, 1.0 - s
        ):
            raise AssertionError("distance must equal 1 - similarity")


def jaccard_similarity(
    data,
    machine: Machine | None = None,
    config: SimilarityConfig | None = None,
    **config_overrides,
) -> SimilarityResult:
    """One-call all-pairs Jaccard similarity.

    ``data`` may be a sequence of sample sets (any iterables of
    non-negative integers) or any :class:`IndicatorSource`.  Keyword
    overrides build a :class:`SimilarityConfig` when ``config`` is not
    given.

    >>> r = jaccard_similarity([{1, 2, 3}, {2, 3, 4}])
    >>> float(r.similarity[0, 1])
    0.5
    """
    if config is None:
        config = SimilarityConfig(**config_overrides)
    elif config_overrides:
        raise TypeError("pass either config or overrides, not both")
    return SimilarityAtScale(machine=machine, config=config).run(data)
