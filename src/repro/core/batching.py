"""Batch and processor-grid planning.

The paper's tuning rules (§III-C):

* batch size: "we pick the batch size to use all available memory, so
  ``z = Theta(M p)``" — process as few, as large batches as the
  aggregate memory allows (larger batches amortize latency, Fig. 2c/2d);
* replication: "replicate ``B`` in so far as possible, so
  ``c = Theta(min(p, M p / n^2))``" — subject to that memory cap, pick
  the replication factor minimizing modelled communication.

The planner solves both against the machine model, while allowing the
config to pin either knob (the sensitivity benches sweep ``batch_count``
explicitly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.analysis import batch_cost
from repro.core.config import SimilarityConfig
from repro.runtime.machine import MachineSpec
from repro.util.partition import block_bounds

#: Share of a rank's memory the grid and batch planners budget for.
MEMORY_FRACTION = 0.8


@dataclass(frozen=True)
class GridPlan:
    """The processor-grid shape chosen for a run."""

    q: int
    c: int

    @property
    def active_ranks(self) -> int:
        return self.q * self.q * self.c


@dataclass(frozen=True)
class BatchPlan:
    """Row-batching decision for a run."""

    batch_count: int
    m: int

    @property
    def bounds(self) -> list[tuple[int, int]]:
        return [block_bounds(self.m, self.batch_count, i)
                for i in range(self.batch_count)]


def plan_grid(
    p: int,
    n: int,
    spec: MachineSpec,
    config: SimilarityConfig,
    z_hint: float | None = None,
) -> GridPlan:
    """Choose the ``q x q x c`` grid for ``p`` ranks and ``n`` samples.

    Enumerates feasible ``(q, c)`` with ``q^2 c <= p``; keeps the
    combinations maximizing active ranks; among those, honours the
    memory cap ``c <= max(1, M p / n^2)`` and picks the ``c`` minimizing
    the modelled per-batch communication volume on the ``a`` active
    ranks, :func:`~repro.core.analysis.batch_cost`'s words ``z /
    sqrt(c a) + c n^2 / a + a`` (the beta terms of §III-C; the ``a``
    term is the same for every candidate compared).
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    memory_words = MEMORY_FRACTION * spec.memory_per_rank / 8.0
    if config.replication is not None:
        c = min(config.replication, p)
        q = int(math.isqrt(p // c))
        if q < 1:
            raise ValueError(
                f"replication {config.replication} leaves no ranks for the face"
            )
        return GridPlan(q=q, c=c)
    c_cap = max(1.0, memory_words * p / float(max(n, 1)) ** 2)
    z = z_hint if z_hint is not None else memory_words * p
    candidates: list[tuple[int, float, GridPlan]] = []
    for c in range(1, p + 1):
        q = int(math.isqrt(p // c))
        if q < 1:
            continue
        active = q * q * c
        if c > c_cap and c > 1:
            continue
        comm_volume = batch_cost(
            z, n, memory_words, c, active, 0.0, spec
        ).words_communicated
        candidates.append((active, comm_volume, GridPlan(q=q, c=c)))
    if not candidates:
        return GridPlan(q=1, c=1)
    best_active = max(a for a, _, _ in candidates)
    in_play = [(v, g) for a, v, g in candidates if a == best_active]
    in_play.sort(key=lambda t: (t[0], t[1].c))
    return in_play[0][1]


def plan_batches(
    m: int,
    n: int,
    nnz_total: float,
    spec: MachineSpec,
    config: SimilarityConfig,
    grid: GridPlan,
) -> BatchPlan:
    """Choose the batch count ``r`` (Eq. 3).

    When unpinned, finds the smallest ``r`` whose per-rank footprint —
    read-stage COO coordinates, the packed word blocks, and the resident
    output replicas ``B``/``C``/``S`` — fits in the memory budget.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    if config.batch_count is not None:
        return BatchPlan(batch_count=min(config.batch_count, m), m=m)
    budget = MEMORY_FRACTION * spec.memory_per_rank
    q = grid.q
    active = grid.active_ranks
    # Resident output blocks per rank: B (int64), C (int64), S (float64).
    block_elems = math.ceil(n / q) ** 2
    resident = 3 * 8 * block_elems
    avail = budget - resident
    if avail <= 0:
        # Memory already saturated by the output; fall back to row batches
        # of one word each (degenerate but well-defined).
        return BatchPlan(batch_count=m, m=m)
    density = nnz_total / (float(m) * n) if n else 0.0

    def footprint(m_batch: int) -> float:
        nnz_batch = density * m_batch * n
        # COO during read/filter: 2 int64 per coordinate, spread over ranks.
        coo_bytes = 16.0 * nnz_batch / active
        # Post-filter packed words: at most one surviving row per nonzero.
        rows_nz = min(float(m_batch), nnz_batch)
        word_rows = rows_nz / config.bit_width + 1.0
        packed_bytes = (
            word_rows * math.ceil(n / q) * (config.bit_width // 8) / grid.c
        )
        return coo_bytes + packed_bytes

    r = 1
    while r < m and footprint(math.ceil(m / r)) > avail:
        r *= 2
    return BatchPlan(batch_count=min(r, m), m=m)
