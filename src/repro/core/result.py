"""Result objects of a SimilarityAtScale run."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SimilarityConfig
from repro.runtime.cost import CostLedger


@dataclass(frozen=True)
class BatchStats:
    """Per-batch bookkeeping (mirrors the paper's time-per-batch plots)."""

    index: int
    row_lo: int
    row_hi: int
    nnz: int
    nonzero_rows: int
    simulated_seconds: float
    #: Local Gram kernel the dispatcher routed this batch to.
    kernel: str = "bitpacked"
    #: Post-filter effective density ``nnz / (nonzero_rows * n)`` the
    #: dispatch decision was based on.
    density: float = 0.0
    #: Serial makespan advance of the read/filter/pack stage.
    prepare_seconds: float = 0.0
    #: Serial makespan advance of the Gram accumulation stage.
    gram_seconds: float = 0.0
    #: Makespan the pipelined schedule hid by overlapping this batch's
    #: Gram accumulation with the next batch's preparation (0 under the
    #: serial schedule and for the last batch).
    overlap_saved_seconds: float = 0.0

    @property
    def rows(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def fill(self) -> float:
        """Post-filter survivor fraction of this batch's rows."""
        return self.nonzero_rows / self.rows if self.rows else 0.0


@dataclass
class SimilarityResult:
    """Everything a SimilarityAtScale run produces.

    ``similarity``/``distance``/``intersections`` are dense ``n x n``
    arrays when ``config.gather_result`` is on, else ``None`` (the run
    still happened; only the final gather was skipped).  ``cost`` holds
    the charges of *this run only*, even when several runs share one
    machine.
    """

    n: int
    m: int
    config: SimilarityConfig
    machine_name: str
    p: int
    grid_q: int
    grid_c: int
    cost: CostLedger
    batches: list[BatchStats] = field(default_factory=list)
    similarity: np.ndarray | None = None
    distance: np.ndarray | None = None
    intersections: np.ndarray | None = None
    sample_sizes: np.ndarray | None = None
    #: Kernel the planner predicted from ``nnz_estimate`` before reading
    #: any data (``None`` for runs predating the dispatch layer).
    planned_kernel: str | None = None
    #: Uniform worst-case 95% additive bound on every estimated J
    #: (``None`` for exact runs; see ``docs/sketches.md``).
    error_bound: float | None = None
    #: Total raw (pre-codec) sketch payload bytes gathered (sketch runs).
    sketch_payload_bytes: int = 0
    #: Measured seconds this run spent inside each ledger phase
    #: (``CostLedger.measured_s`` accrued by the run); they vary from
    #: run to run, so result equality ignores them.
    measured_s: dict[str, float] = field(default_factory=dict, compare=False)
    #: Measured wall seconds of the whole run.
    wall_s: float = field(default=0.0, compare=False)

    @property
    def active_ranks(self) -> int:
        return self.grid_q * self.grid_q * self.grid_c

    @property
    def kernels_used(self) -> tuple[str, ...]:
        """Distinct Gram kernels the dispatcher ran, in batch order."""
        seen: list[str] = []
        for b in self.batches:
            if b.kernel not in seen:
                seen.append(b.kernel)
        return tuple(seen)

    @property
    def batch_count(self) -> int:
        return len(self.batches)

    @property
    def simulated_seconds(self) -> float:
        """Modelled distributed runtime of the whole computation."""
        return self.cost.simulated_seconds

    @property
    def overlap_saved_seconds(self) -> float:
        """Total makespan the pipelined schedule hid across batches."""
        return float(sum(b.overlap_saved_seconds for b in self.batches))

    @property
    def wire_raw_bytes(self) -> float:
        """Codec-mediated traffic of this run, as raw would charge it."""
        return self.cost.total.wire_raw_bytes

    @property
    def wire_encoded_bytes(self) -> float:
        """Codec-mediated traffic of this run, as actually charged."""
        return self.cost.total.wire_encoded_bytes

    @property
    def mean_batch_seconds(self) -> float:
        """Average modelled time per batch (the paper's headline metric).

        Like the paper (§V-B), startup effects are excluded when enough
        batches exist: with more than three batches the first is dropped.
        """
        if not self.batches:
            return 0.0
        usable = self.batches[1:] if len(self.batches) > 3 else self.batches
        return float(np.mean([b.simulated_seconds for b in usable]))

    def projected_total_seconds(self, total_batches: int | None = None) -> float:
        """Batch-time extrapolation, as in the paper's Fig. 2 y-axes.

        The paper runs a handful of batches and projects the full-dataset
        runtime as ``mean batch time x number of batches``.
        """
        r = total_batches if total_batches is not None else self.batch_count
        return self.mean_batch_seconds * r

    def summary(self) -> str:
        from repro.util.units import format_bytes, format_count, format_time

        wire_line = f"wire codec={self.config.wire_codec}"
        if self.wire_encoded_bytes > 0.0:
            ratio = self.wire_raw_bytes / self.wire_encoded_bytes
            wire_line += (
                f" (raw {format_bytes(self.wire_raw_bytes)} -> "
                f"{format_bytes(self.wire_encoded_bytes)} on the wire, "
                f"{ratio:.2f}x)"
            )
        if self.config.estimator == "exact":
            estimator_line = "estimator=exact"
        else:
            estimator_line = (
                f"estimator={self.config.estimator} "
                f"sketch_size={self.config.sketch_size} "
                f"sketch_bits={self.config.sketch_bits} "
                f"(estimated J +/- {self.error_bound:.4f} at 95%, "
                f"sketch payload "
                f"{format_bytes(self.sketch_payload_bytes)})"
            )
        lines = [
            f"SimilarityAtScale: n={self.n} samples, m={format_count(self.m)} "
            f"attribute values",
            estimator_line,
            f"machine={self.machine_name} p={self.p} "
            f"grid={self.grid_q}x{self.grid_q}x{self.grid_c} "
            f"(active {self.active_ranks}/{self.p})",
            f"batches={self.batch_count} bit_width={self.config.bit_width} "
            f"filter={self.config.filter_strategy}",
            f"kernel policy={self.config.kernel_policy} "
            f"used={'/'.join(self.kernels_used) or '-'} "
            f"planned={self.planned_kernel or '-'}",
            f"pipeline={self.config.pipeline} "
            f"(overlap hid {format_time(self.overlap_saved_seconds)})",
            wire_line,
            f"simulated time: {format_time(self.simulated_seconds)} "
            f"(mean/batch {format_time(self.mean_batch_seconds)})",
            "",
            self.cost.report(),
            "",
            self._measured_report(),
        ]
        return "\n".join(lines)

    def _measured_report(self) -> str:
        """Per phase: modelled time, measured time and measured / modelled.

        The ``unphased`` row is the run's wall time that no phase
        covered (negative if phases nested or overlapped in threads).
        """
        from repro.util.units import format_time

        header = f"{'phase':<18}{'modelled':>12}{'measured':>12}{'ratio':>10}"
        lines = [header, "-" * len(header)]
        for name in sorted(set(self.cost.phases) | set(self.measured_s)):
            pc = self.cost.phases.get(name)
            modelled = pc.seconds if pc is not None else 0.0
            measured = self.measured_s.get(name, 0.0)
            ratio = f"{measured / modelled:>9.1f}x" if modelled > 0.0 else f"{'-':>10}"
            lines.append(
                f"{name:<18}{format_time(modelled):>12}"
                f"{format_time(measured):>12}{ratio}"
            )
        unphased = self.wall_s - sum(self.measured_s.values())
        lines.append(f"{'unphased':<18}{'-':>12}{format_time(unphased):>12}{'-':>10}")
        return "\n".join(lines)
