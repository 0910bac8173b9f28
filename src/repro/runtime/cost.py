"""BSP cost accounting with per-rank simulated clocks.

Timing model
------------
Every rank carries a simulated clock.  Local work (compute, file I/O)
advances each participating rank's clock independently; a collective
first synchronizes its group (each member's clock jumps to the group
max — the BSP superstep barrier) and then adds the collective's cost.
The **makespan** — the maximum clock — is the modelled runtime.  This
makes concurrency fall out naturally: operations on disjoint rank
groups (different grid columns, different replication layers) overlap,
while operations sharing ranks serialize, exactly as on a real machine.

Volume accounting
-----------------
Independently of the clocks, every charge also accumulates *volume*
statistics per phase (supersteps, bytes, messages, flops, and
serialized per-component seconds).  These answer "how much data moved
in the filter phase?" regardless of overlap.  Phase ``wall_seconds``
records how much the makespan advanced while the phase was active —
the number to read for per-phase time.

Measured time
-------------
The model is a prediction; :meth:`CostLedger.phase` also reads
``time.perf_counter`` on entry and exit and adds the delta to
:attr:`CostLedger.measured_s`, keyed by phase name.  That map lives
beside the phases, not in :class:`PhaseCost`, so snapshots, diffs and
ledger equality see only the model, which is deterministic.

Threads
-------
One ledger may be charged from several threads at once (concurrent
service queries, a threaded band fan-out).  A re-entrant lock guards
every read-modify-write of the phases, kernel tallies and clocks, and
every read that iterates them (:meth:`CostLedger.snapshot`,
:meth:`CostLedger.diff`, :attr:`CostLedger.total`), so no charge is
lost and no reader sees a dict change size under it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np


@dataclass
class PhaseCost:
    """Accumulated cost of one phase.

    ``wall_seconds`` is the makespan advance attributed to the phase;
    the ``*_seconds`` components are serialized sums of the individual
    charges (useful as upper bounds and for volume ratios).
    """

    supersteps: int = 0
    wall_seconds: float = 0.0
    alpha_seconds: float = 0.0
    comm_seconds: float = 0.0
    compute_seconds: float = 0.0
    io_seconds: float = 0.0
    total_bytes: float = 0.0
    max_rank_bytes: float = 0.0
    messages: int = 0
    total_flops: float = 0.0
    #: Per-kernel tallies of compute charges labelled with a kernel name
    #: (the adaptive Gram dispatch charges ``spgemm`` work this way, so
    #: the ledger can answer "how much time went to each kernel?").
    kernel_flops: dict[str, float] = field(default_factory=dict)
    kernel_seconds: dict[str, float] = field(default_factory=dict)
    #: Wire-volume counters of codec-mediated collectives: what the same
    #: traffic would have cost raw vs. what the encoded frames actually
    #: cost (both in the collective's ``total_bytes`` accounting), plus
    #: a per-codec breakdown.  Collectives that bypass the codec layer
    #: contribute nothing here (their volume is only in ``total_bytes``).
    wire_raw_bytes: float = 0.0
    wire_encoded_bytes: float = 0.0
    codec_raw_bytes: dict[str, float] = field(default_factory=dict)
    codec_encoded_bytes: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Phase time: the makespan advance when clock-tracked, else the
        serialized sum of the charge components."""
        if self.wall_seconds > 0.0:
            return self.wall_seconds
        return (
            self.alpha_seconds
            + self.comm_seconds
            + self.compute_seconds
            + self.io_seconds
        )

    def merge(self, other: "PhaseCost") -> None:
        """Fold another phase's charges into this one."""
        self.supersteps += other.supersteps
        self.wall_seconds += other.wall_seconds
        self.alpha_seconds += other.alpha_seconds
        self.comm_seconds += other.comm_seconds
        self.compute_seconds += other.compute_seconds
        self.io_seconds += other.io_seconds
        self.total_bytes += other.total_bytes
        self.max_rank_bytes += other.max_rank_bytes
        self.messages += other.messages
        self.total_flops += other.total_flops
        for name, f in other.kernel_flops.items():
            self.kernel_flops[name] = self.kernel_flops.get(name, 0.0) + f
        for name, s in other.kernel_seconds.items():
            self.kernel_seconds[name] = self.kernel_seconds.get(name, 0.0) + s
        self.wire_raw_bytes += other.wire_raw_bytes
        self.wire_encoded_bytes += other.wire_encoded_bytes
        for name, b in other.codec_raw_bytes.items():
            self.codec_raw_bytes[name] = (
                self.codec_raw_bytes.get(name, 0.0) + b
            )
        for name, b in other.codec_encoded_bytes.items():
            self.codec_encoded_bytes[name] = (
                self.codec_encoded_bytes.get(name, 0.0) + b
            )

    def charge_kernel(self, kernel: str, seconds: float, flops: float) -> None:
        """Attribute a compute charge to a named kernel within this phase."""
        self.kernel_flops[kernel] = self.kernel_flops.get(kernel, 0.0) + flops
        self.kernel_seconds[kernel] = (
            self.kernel_seconds.get(kernel, 0.0) + seconds
        )

    def record_wire(
        self, codec: str, raw_bytes: float, encoded_bytes: float
    ) -> None:
        """Tally one codec-mediated collective's raw vs. encoded volume."""
        self.wire_raw_bytes += raw_bytes
        self.wire_encoded_bytes += encoded_bytes
        self.codec_raw_bytes[codec] = (
            self.codec_raw_bytes.get(codec, 0.0) + raw_bytes
        )
        self.codec_encoded_bytes[codec] = (
            self.codec_encoded_bytes.get(codec, 0.0) + encoded_bytes
        )


@dataclass
class CostLedger:
    """Accumulates BSP costs for one simulated program run.

    With ``n_ranks`` set (the normal case — every
    :class:`~repro.runtime.engine.Machine` does this), per-rank clocks
    drive :attr:`simulated_seconds`.  A bare ledger falls back to
    serialized sums, which is convenient for unit tests of the
    accounting itself.
    """

    phases: dict[str, PhaseCost] = field(default_factory=dict)
    n_ranks: int | None = None
    #: Makespan seconds removed by pipeline overlap credits (see
    #: :meth:`credit_overlap`): how much modelled time the schedule hid
    #: by running disjoint-resource stages concurrently.
    overlap_credited_seconds: float = 0.0
    #: Measured seconds spent inside each phase (``time.perf_counter``),
    #: summed over entries; kept out of :meth:`snapshot`, :meth:`diff`
    #: and equality.
    measured_s: dict[str, float] = field(
        default_factory=dict, repr=False, compare=False
    )
    _phase_stack: list[str] = field(default_factory=list)
    _clocks: np.ndarray | None = field(default=None, repr=False)
    _makespan_override: float | None = field(default=None, repr=False)
    _lock: Any = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_ranks is not None:
            self._clocks = np.zeros(self.n_ranks, dtype=np.float64)

    # ---- clock timeline --------------------------------------------------

    @property
    def makespan(self) -> float:
        """Current simulated time: the furthest rank clock."""
        if self._makespan_override is not None:
            return self._makespan_override
        if self._clocks is not None and self._clocks.size:
            return float(self._clocks.max())
        return self.total.seconds

    def sync_advance(self, ranks: Sequence[int], seconds: float) -> None:
        """Synchronize a group, then advance it (a collective's timing)."""
        if self._clocks is None:
            return
        idx = np.asarray(list(ranks), dtype=np.int64)
        if idx.size == 0:
            return
        with self._lock:
            start = self._clocks[idx].max()
            self._clocks[idx] = start + seconds

    def local_advance(
        self, ranks: Sequence[int], seconds: float | Sequence[float]
    ) -> None:
        """Advance ranks independently (local compute / file I/O)."""
        if self._clocks is None:
            return
        idx = np.asarray(list(ranks), dtype=np.int64)
        if idx.size == 0:
            return
        with self._lock:
            self._clocks[idx] += np.asarray(seconds, dtype=np.float64)

    def rank_clocks(self) -> np.ndarray | None:
        """A copy of the per-rank clocks (``None`` for a bare ledger).

        Schedulers use consecutive snapshots to measure how much each
        rank advanced inside a window of charges.
        """
        if self._clocks is None:
            return None
        return self._clocks.copy()

    def credit_overlap(self, per_rank_seconds: Sequence[float]) -> float:
        """Rewind each rank's clock to model two overlapped windows.

        A pipelined schedule executes two stages that use disjoint
        resources back to back (the simulator serializes them so results
        stay deterministic), then credits each rank
        ``min(stage_a_advance, stage_b_advance)`` — turning the serial
        ``a + b`` into the overlapped ``max(a, b)`` per rank.  Returns
        the makespan reduction actually realized (the credit on the
        critical-path rank), which is also accumulated in
        :attr:`overlap_credited_seconds`.  No-op on a bare ledger.
        """
        if self._clocks is None:
            return 0.0
        credit = np.asarray(per_rank_seconds, dtype=np.float64)
        if credit.shape != self._clocks.shape:
            raise ValueError(
                f"need one credit per rank ({self._clocks.size}), "
                f"got shape {credit.shape}"
            )
        if np.any(credit < 0):
            raise ValueError("overlap credits must be non-negative")
        with self._lock:
            before = self.makespan
            self._clocks -= credit
            saved = before - self.makespan
            self.overlap_credited_seconds += saved
        return saved

    # ---- phases ------------------------------------------------------------

    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else "default"

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseCost]:
        """Attribute charges (and makespan advance) to ``name``.

        Nested phases attribute volume to the innermost label; wall time,
        modelled and measured, is attributed to every frame on the
        stack, so use flat phases for clean breakdowns.
        """
        with self._lock:
            self._phase_stack.append(name)
            entered = self.makespan if self._clocks is not None else 0.0
            cost = self._get(name)
        started = time.perf_counter()
        try:
            yield cost
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self._phase_stack.pop()
                if self._clocks is not None:
                    self._get(name).wall_seconds += self.makespan - entered
                self.measured_s[name] = self.measured_s.get(name, 0.0) + elapsed

    def _get(self, name: str | None = None) -> PhaseCost:
        with self._lock:
            key = name if name is not None else self.current_phase
            if key not in self.phases:
                self.phases[key] = PhaseCost()
            return self.phases[key]

    # ---- charging API -------------------------------------------------

    def charge_superstep(
        self,
        *,
        alpha_seconds: float,
        comm_seconds: float = 0.0,
        compute_seconds: float = 0.0,
        total_bytes: float = 0.0,
        max_rank_bytes: float = 0.0,
        messages: int = 0,
        total_flops: float = 0.0,
        rounds: int = 1,
        ranks: Sequence[int] | None = None,
    ) -> None:
        """Charge one logical communication step (possibly multi-round)."""
        with self._lock:
            pc = self._get()
            pc.supersteps += rounds
            pc.alpha_seconds += alpha_seconds
            pc.comm_seconds += comm_seconds
            pc.compute_seconds += compute_seconds
            pc.total_bytes += total_bytes
            pc.max_rank_bytes += max_rank_bytes
            pc.messages += messages
            pc.total_flops += total_flops
            if ranks is not None:
                self.sync_advance(
                    ranks, alpha_seconds + comm_seconds + compute_seconds
                )

    def charge_compute(
        self,
        seconds: float,
        flops: float = 0.0,
        ranks: Sequence[int] | None = None,
        per_rank_seconds: Sequence[float] | None = None,
        kernel: str | None = None,
    ) -> None:
        """Charge local computation.

        ``seconds`` is the slowest rank's time (volume stat);
        ``per_rank_seconds`` (with ``ranks``) drives the clocks.
        ``kernel`` additionally tallies the charge under that kernel name
        in the phase's per-kernel breakdown.
        """
        with self._lock:
            pc = self._get()
            pc.compute_seconds += seconds
            pc.total_flops += flops
            if kernel is not None:
                pc.charge_kernel(kernel, seconds, flops)
            if ranks is not None:
                self.local_advance(
                    ranks,
                    per_rank_seconds if per_rank_seconds is not None else seconds,
                )

    def record_wire(
        self,
        codec: str,
        raw_bytes: float,
        encoded_bytes: float,
    ) -> None:
        """Record a codec-mediated collective's raw vs. encoded volume.

        Pure volume accounting — clocks are driven by the collective's
        own (encoded-size) charge; this counter answers "how many bytes
        did the codec keep off the wire?" per phase and per codec.
        """
        with self._lock:
            self._get().record_wire(codec, raw_bytes, encoded_bytes)

    def charge_io(
        self,
        seconds: float,
        ranks: Sequence[int] | None = None,
        per_rank_seconds: Sequence[float] | None = None,
    ) -> None:
        """Charge file-system time."""
        with self._lock:
            pc = self._get()
            pc.io_seconds += seconds
            if ranks is not None:
                self.local_advance(
                    ranks,
                    per_rank_seconds if per_rank_seconds is not None else seconds,
                )

    # ---- aggregate views ----------------------------------------------

    @property
    def total(self) -> PhaseCost:
        agg = PhaseCost()
        with self._lock:
            for pc in self.phases.values():
                agg.merge(pc)
        return agg

    @property
    def simulated_seconds(self) -> float:
        """Modelled makespan of everything charged so far."""
        return self.makespan

    @property
    def communication_bytes(self) -> float:
        """Total bytes moved over the network (all ranks, all phases)."""
        return self.total.total_bytes

    @property
    def supersteps(self) -> int:
        return self.total.supersteps

    @property
    def kernel_totals(self) -> dict[str, tuple[float, float]]:
        """Per-kernel ``(seconds, flops)`` aggregated over all phases."""
        agg = self.total
        return {
            name: (agg.kernel_seconds.get(name, 0.0), flops)
            for name, flops in sorted(agg.kernel_flops.items())
        }

    @property
    def wire_raw_bytes(self) -> float:
        """Codec-mediated traffic, charged as if sent raw."""
        return self.total.wire_raw_bytes

    @property
    def wire_encoded_bytes(self) -> float:
        """Codec-mediated traffic as actually charged (encoded frames)."""
        return self.total.wire_encoded_bytes

    @property
    def wire_compression_ratio(self) -> float:
        """``raw / encoded`` over all codec-mediated traffic (1.0 if none)."""
        enc = self.wire_encoded_bytes
        return self.wire_raw_bytes / enc if enc > 0.0 else 1.0

    @property
    def wire_codec_totals(self) -> dict[str, tuple[float, float]]:
        """Per-codec ``(raw_bytes, encoded_bytes)`` over all phases."""
        agg = self.total
        names = sorted(set(agg.codec_raw_bytes) | set(agg.codec_encoded_bytes))
        return {
            name: (
                agg.codec_raw_bytes.get(name, 0.0),
                agg.codec_encoded_bytes.get(name, 0.0),
            )
            for name in names
        }

    def snapshot(self) -> dict:
        """State marker for later :meth:`diff` (phases + makespan)."""
        out: dict[str, PhaseCost] = {}
        with self._lock:
            for name, pc in self.phases.items():
                copy = PhaseCost()
                copy.merge(pc)
                out[name] = copy
            return {
                "phases": out,
                "makespan": self.makespan,
                "overlap_credited": self.overlap_credited_seconds,
            }

    def diff(self, before: dict) -> "CostLedger":
        """A ledger holding only the charges accrued since ``before``."""
        prev_phases: dict[str, PhaseCost] = before.get("phases", {})
        out = CostLedger()
        with self._lock:
            for name, pc in self.phases.items():
                prev = prev_phases.get(name, PhaseCost())
                kernel_flops = {
                    k: f - prev.kernel_flops.get(k, 0.0)
                    for k, f in pc.kernel_flops.items()
                    if f - prev.kernel_flops.get(k, 0.0) != 0.0
                }
                kernel_seconds = {
                    k: s - prev.kernel_seconds.get(k, 0.0)
                    for k, s in pc.kernel_seconds.items()
                    if s - prev.kernel_seconds.get(k, 0.0) != 0.0
                }
                codec_raw = {
                    k: b - prev.codec_raw_bytes.get(k, 0.0)
                    for k, b in pc.codec_raw_bytes.items()
                    if b - prev.codec_raw_bytes.get(k, 0.0) != 0.0
                }
                codec_encoded = {
                    k: b - prev.codec_encoded_bytes.get(k, 0.0)
                    for k, b in pc.codec_encoded_bytes.items()
                    if b - prev.codec_encoded_bytes.get(k, 0.0) != 0.0
                }
                delta = PhaseCost(
                    supersteps=pc.supersteps - prev.supersteps,
                    wall_seconds=pc.wall_seconds - prev.wall_seconds,
                    alpha_seconds=pc.alpha_seconds - prev.alpha_seconds,
                    comm_seconds=pc.comm_seconds - prev.comm_seconds,
                    compute_seconds=pc.compute_seconds - prev.compute_seconds,
                    io_seconds=pc.io_seconds - prev.io_seconds,
                    total_bytes=pc.total_bytes - prev.total_bytes,
                    max_rank_bytes=pc.max_rank_bytes - prev.max_rank_bytes,
                    messages=pc.messages - prev.messages,
                    total_flops=pc.total_flops - prev.total_flops,
                    kernel_flops=kernel_flops,
                    kernel_seconds=kernel_seconds,
                    wire_raw_bytes=pc.wire_raw_bytes - prev.wire_raw_bytes,
                    wire_encoded_bytes=(
                        pc.wire_encoded_bytes - prev.wire_encoded_bytes
                    ),
                    codec_raw_bytes=codec_raw,
                    codec_encoded_bytes=codec_encoded,
                )
                if (
                    delta.supersteps
                    or delta.seconds
                    or delta.total_bytes
                    or delta.total_flops
                    or delta.wire_raw_bytes
                ):
                    out.phases[name] = delta
            out._makespan_override = self.makespan - before.get("makespan", 0.0)
            out.overlap_credited_seconds = (
                self.overlap_credited_seconds - before.get("overlap_credited", 0.0)
            )
        return out

    def report(self) -> str:
        """Tabular per-phase breakdown, for logs and EXPERIMENTS.md."""
        from repro.util.units import format_bytes, format_time

        header = (
            f"{'phase':<18}{'steps':>8}{'time':>12}{'comm':>12}"
            f"{'compute':>12}{'io':>12}{'bytes':>14}{'flops':>12}"
        )
        lines = [header, "-" * len(header)]
        for name in sorted(self.phases):
            pc = self.phases[name]
            lines.append(
                f"{name:<18}{pc.supersteps:>8}{format_time(pc.seconds):>12}"
                f"{format_time(pc.comm_seconds):>12}"
                f"{format_time(pc.compute_seconds):>12}"
                f"{format_time(pc.io_seconds):>12}"
                f"{format_bytes(pc.total_bytes):>14}{pc.total_flops:>12.3g}"
            )
        tot = self.total
        lines.append("-" * len(header))
        lines.append(
            f"{'TOTAL':<18}{tot.supersteps:>8}"
            f"{format_time(self.simulated_seconds):>12}"
            f"{format_time(tot.comm_seconds):>12}"
            f"{format_time(tot.compute_seconds):>12}"
            f"{format_time(tot.io_seconds):>12}"
            f"{format_bytes(tot.total_bytes):>14}{tot.total_flops:>12.3g}"
        )
        if self.overlap_credited_seconds > 0.0:
            lines.append(
                f"{'(overlap hid':<18}"
                f"{format_time(self.overlap_credited_seconds):>12} — "
                f"phase times sum to the serial schedule; the makespan "
                f"reflects the pipelined one)"
            )
        kernels = self.kernel_totals
        if kernels:
            lines.append("")
            lines.append(f"{'kernel':<18}{'time':>12}{'flops':>12}")
            for name, (seconds, flops) in kernels.items():
                lines.append(
                    f"{name:<18}{format_time(seconds):>12}{flops:>12.3g}"
                )
        wire = self.wire_codec_totals
        if wire:
            lines.append("")
            lines.append(
                f"{'wire codec':<18}{'raw':>14}{'encoded':>14}{'ratio':>8}"
            )
            for name, (raw, enc) in wire.items():
                ratio = raw / enc if enc > 0.0 else float("inf")
                lines.append(
                    f"{name:<18}{format_bytes(raw):>14}"
                    f"{format_bytes(enc):>14}{ratio:>7.2f}x"
                )
            lines.append(
                f"{'WIRE TOTAL':<18}{format_bytes(self.wire_raw_bytes):>14}"
                f"{format_bytes(self.wire_encoded_bytes):>14}"
                f"{self.wire_compression_ratio:>7.2f}x"
            )
        return "\n".join(lines)
