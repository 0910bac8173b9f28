"""Tests for grid and batch planning."""

import math
from dataclasses import replace

import pytest

from repro.core.batching import (
    MEMORY_FRACTION,
    BatchPlan,
    GridPlan,
    plan_batches,
    plan_grid,
)
from repro.core.config import SimilarityConfig
from repro.runtime.machine import laptop, stampede2_knl


class TestGridPlan:
    def test_active_ranks(self):
        assert GridPlan(q=4, c=2).active_ranks == 32


class TestPlanGrid:
    def test_single_rank(self):
        plan = plan_grid(1, 100, laptop(1), SimilarityConfig())
        assert (plan.q, plan.c) == (1, 1)

    def test_power_of_two_fully_utilized(self):
        for p in (4, 16, 64, 256):
            plan = plan_grid(p, 2580, stampede2_knl(1), SimilarityConfig())
            assert plan.active_ranks == p

    def test_32_ranks_fully_utilized_via_replication(self):
        # 32 is not a square; q=4, c=2 covers all ranks.
        plan = plan_grid(32, 2580, stampede2_knl(1), SimilarityConfig())
        assert plan.active_ranks == 32
        assert plan.q * plan.q * plan.c == 32

    def test_replication_pinned(self):
        cfg = SimilarityConfig(replication=2)
        plan = plan_grid(32, 100, laptop(32), cfg)
        assert plan.c == 2
        assert plan.q == 4

    def test_replication_capped_by_memory_for_large_n(self):
        # Huge n^2 relative to memory: c must stay at 1.
        spec = laptop(16)
        plan = plan_grid(16, 1_000_000, spec, SimilarityConfig())
        assert plan.c == 1

    def test_invalid_p(self):
        with pytest.raises(ValueError, match="positive"):
            plan_grid(0, 10, laptop(1), SimilarityConfig())

    def test_excess_replication_rejected(self):
        cfg = SimilarityConfig(replication=64)
        plan = plan_grid(4, 10, laptop(4), cfg)
        # Clamped to p, face becomes 1x1.
        assert plan.c == 4
        assert plan.q == 1

    @pytest.mark.parametrize("p", [2, 5, 16])
    def test_replication_p_is_the_1d_corner(self, p):
        # The 1-D all-reduce strawman: a 1 x 1 face, one layer per rank.
        cfg = SimilarityConfig(replication=p, reduce_every_batch=True)
        plan = plan_grid(p, 100, laptop(p), cfg)
        assert (plan.q, plan.c) == (1, p)
        assert plan.active_ranks == p


def paper_form_plan(p, n, spec, z_hint):
    """The grid ``plan_grid`` must pick, ranked by the §III-C beta terms
    written out inline: ``z / sqrt(c a) + c n^2 / a`` on ``a`` active
    ranks, without ``batch_cost``'s ``+ a`` term (equal for every
    candidate that keeps the most ranks busy)."""
    memory_words = MEMORY_FRACTION * spec.memory_per_rank / 8.0
    c_cap = max(1.0, memory_words * p / float(max(n, 1)) ** 2)
    z = z_hint if z_hint is not None else memory_words * p
    best = None
    for c in range(1, p + 1):
        q = math.isqrt(p // c)
        active = q * q * c
        if q < 1 or (c > c_cap and c > 1):
            continue
        volume = z / math.sqrt(c * active) + c * float(n) ** 2 / active
        key = (-active, volume, c)
        if best is None or key < best[0]:
            best = (key, GridPlan(q=q, c=c))
    return best[1]


class TestCommunicationRanking:
    SPECS = (
        laptop(4),
        stampede2_knl(1),
        replace(laptop(4), memory_per_rank=2**16),
        replace(laptop(4), memory_per_rank=2**24),
    )

    @pytest.mark.parametrize("z_hint", [None, 1e6], ids=["z-memory", "z-hint"])
    @pytest.mark.parametrize("n", [1, 2, 17, 640, 4096])
    def test_batch_cost_ranks_like_the_paper_form(self, n, z_hint):
        for spec in self.SPECS:
            for p in range(1, 65):
                got = plan_grid(p, n, spec, SimilarityConfig(), z_hint=z_hint)
                assert got == paper_form_plan(p, n, spec, z_hint), (spec, p)


class TestPlanBatches:
    def test_pinned_count(self):
        cfg = SimilarityConfig(batch_count=5)
        plan = plan_batches(1000, 10, 100.0, laptop(4), cfg, GridPlan(2, 1))
        assert plan.batch_count == 5
        bounds = plan.bounds
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 1000
        assert len(bounds) == 5

    def test_pinned_count_clamped_to_rows(self):
        cfg = SimilarityConfig(batch_count=50)
        plan = plan_batches(10, 4, 10.0, laptop(4), cfg, GridPlan(2, 1))
        assert plan.batch_count == 10

    def test_auto_single_batch_when_memory_ample(self):
        cfg = SimilarityConfig()
        plan = plan_batches(10_000, 20, 5_000.0, laptop(4), cfg, GridPlan(2, 1))
        assert plan.batch_count == 1

    def test_auto_more_batches_when_memory_tight(self):
        from dataclasses import replace

        spec = replace(laptop(4), memory_per_rank=1 << 16)
        cfg = SimilarityConfig()
        plan = plan_batches(
            10_000_000, 100, 5e7, spec, cfg, GridPlan(2, 1)
        )
        assert plan.batch_count > 1

    def test_budget_is_memory_fraction_of_rank_memory(self):
        from dataclasses import replace

        # n = 100 on a 1 x 1 face: B, C and S take 3 * 8 * 100^2 bytes.
        resident = 3 * 8 * 100**2
        assert MEMORY_FRACTION == 0.8
        cfg = SimilarityConfig()
        fits = replace(laptop(1), memory_per_rank=int(resident / 0.75))
        over = replace(laptop(1), memory_per_rank=int(resident / 0.85))
        # Both machines hold the output; only the first within the budget.
        assert plan_batches(1000, 100, 10.0, fits, cfg, GridPlan(1, 1)).batch_count == 1
        assert plan_batches(1000, 100, 10.0, over, cfg, GridPlan(1, 1)).batch_count == 1000

    def test_invalid_m(self):
        with pytest.raises(ValueError, match="positive"):
            plan_batches(0, 4, 1.0, laptop(1), SimilarityConfig(), GridPlan(1, 1))

    def test_bounds_cover_rows(self):
        plan = BatchPlan(batch_count=7, m=100)
        covered = sum(hi - lo for lo, hi in plan.bounds)
        assert covered == 100
