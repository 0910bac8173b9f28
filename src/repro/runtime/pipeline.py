"""Pipelined batch scheduling with modelled communication/compute overlap.

The paper's Listing 1 processes k-mer batches strictly one after
another, yet its own cost analysis (§III-D) splits every batch into two
stages that use **disjoint resources**:

* **prepare** — read the batch's coordinates (file I/O), filter zero
  rows and bitmask-pack (small collectives + integer compute);
* **accumulate** — the SUMMA panel broadcasts plus the local Gram
  kernel (network bandwidth + popcount/scatter compute on the packed
  words of the *current* batch).

Nothing in batch ``b+1``'s preparation depends on batch ``b``'s Gram
accumulation, so a double-buffered schedule overlaps them — the classic
communication-avoiding trick of keeping the network busy behind the
compute (and vice versa):

::

    serial         |read+filter+pack b| gram b |read+filter+pack b+1| gram b+1 |
    double_buffer  |read+filter+pack b| gram b          | gram b+1 |
                              |read+filter+pack b+1|
                              ^ overlapped: per rank max(...) instead of sum

:func:`run_batches` is the scheduler.  For determinism (and bit-exact
results regardless of mode) the simulator *executes* the two stages
back to back in a fixed order; the overlap shows up in the **cost
model**: after each overlapped pair the scheduler credits every rank
``min(prepare_advance, accumulate_advance)`` back to its clock
(:meth:`~repro.runtime.cost.CostLedger.credit_overlap`), which turns
the serial per-rank time ``prepare + accumulate`` into the pipelined
``max(prepare, accumulate)``.  Rank-local kernels inside either stage
run one rank after another, as every
:meth:`~repro.runtime.comm.Communicator.run_local` does.

Only one prepared batch is in flight beyond the one being accumulated,
so peak memory matches the serial schedule plus a single batch's packed
words — the double buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from repro.runtime.engine import Machine

P = TypeVar("P")

#: Batch schedules understood by :func:`run_batches` (and the
#: ``pipeline`` knob of :class:`~repro.core.config.SimilarityConfig`).
PIPELINE_MODES = ("off", "double_buffer")


@dataclass(frozen=True)
class StageTiming:
    """Modelled per-batch stage costs under the chosen schedule.

    ``prepare_seconds`` and ``accumulate_seconds`` are the *serial*
    makespan advances of the two stages; ``overlap_saved_seconds`` is
    the makespan reduction credited when this batch's accumulation hid
    the next batch's preparation (always 0 for the last batch and in
    ``"off"`` mode).
    """

    index: int
    prepare_seconds: float
    accumulate_seconds: float
    overlap_saved_seconds: float = 0.0

    @property
    def effective_seconds(self) -> float:
        """This batch's contribution to the pipelined makespan."""
        return (
            self.prepare_seconds
            + self.accumulate_seconds
            - self.overlap_saved_seconds
        )


def run_batches(
    machine: Machine,
    n_batches: int,
    prepare: Callable[[int], P],
    accumulate: Callable[[int, P], None],
    mode: str = "off",
) -> list[StageTiming]:
    """Run ``n_batches`` prepare/accumulate pairs under a schedule.

    Parameters
    ----------
    machine:
        The simulated machine whose ledger receives the charges (and,
        in ``"double_buffer"`` mode, the overlap credits).
    n_batches:
        How many batches to process; ``prepare``/``accumulate`` are
        called exactly once per index, in index order.
    prepare:
        ``prepare(idx)`` reads/filters/packs batch ``idx`` and returns
        the prepared payload handed to ``accumulate``.
    accumulate:
        ``accumulate(idx, prepared)`` folds the prepared batch into the
        running result (the local Gram + distributed accumulation).
    mode:
        One of :data:`PIPELINE_MODES`.  ``"off"`` is the paper's serial
        Listing 1 schedule; ``"double_buffer"`` overlaps batch ``b``'s
        accumulation with batch ``b+1``'s preparation in the cost
        model.  Results are bit-identical either way.

    Returns one :class:`StageTiming` per batch; the sum of their
    ``effective_seconds`` equals the total makespan advance of the loop.
    A single batch degenerates to the serial schedule (nothing to
    overlap), as does ``n_batches == 0``.
    """
    if mode not in PIPELINE_MODES:
        raise ValueError(
            f"pipeline mode must be one of {PIPELINE_MODES}, got {mode!r}"
        )
    if n_batches < 0:
        raise ValueError(f"n_batches must be non-negative, got {n_batches}")
    ledger = machine.ledger
    timings: list[StageTiming] = []

    if mode == "off" or n_batches <= 1:
        for idx in range(n_batches):
            t0 = ledger.makespan
            prepared = prepare(idx)
            t1 = ledger.makespan
            accumulate(idx, prepared)
            t2 = ledger.makespan
            timings.append(StageTiming(idx, t1 - t0, t2 - t1))
        return timings

    # Double buffer: while batch idx accumulates, batch idx+1 prepares.
    # The simulator serializes the pair (prepare first — it only reads
    # the source, so ordering cannot change any result) and then credits
    # the modelled overlap.
    t0 = ledger.makespan
    prepared = prepare(0)
    prepare_seconds = ledger.makespan - t0
    for idx in range(n_batches):
        if idx + 1 < n_batches:
            clocks0 = ledger.rank_clocks()
            m0 = ledger.makespan
            next_prepared = prepare(idx + 1)
            clocks1 = ledger.rank_clocks()
            m1 = ledger.makespan
            accumulate(idx, prepared)
            m2 = ledger.makespan
            saved = 0.0
            if clocks0 is not None:
                clocks2 = ledger.rank_clocks()
                credit = np.minimum(clocks1 - clocks0, clocks2 - clocks1)
                saved = ledger.credit_overlap(credit)
            timings.append(
                StageTiming(idx, prepare_seconds, m2 - m1, saved)
            )
            prepared = next_prepared
            prepare_seconds = m1 - m0
        else:
            t1 = ledger.makespan
            accumulate(idx, prepared)
            timings.append(
                StageTiming(idx, prepare_seconds, ledger.makespan - t1)
            )
    return timings
