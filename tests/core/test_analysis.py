"""Tests for the §III-C analytic cost model."""

import pytest

from repro.core.analysis import batch_cost, strong_scaling_efficiency
from repro.runtime.machine import stampede2_knl

SPEC = stampede2_knl(4)


class TestBatchCost:
    def test_components_positive(self):
        cost = batch_cost(z=1e6, n=1000, M=1e7, c=1, p=64, F=1e8, spec=SPEC)
        assert cost.alpha_seconds > 0
        assert cost.beta_seconds > 0
        assert cost.gamma_seconds > 0
        assert cost.seconds == pytest.approx(
            cost.alpha_seconds + cost.beta_seconds + cost.gamma_seconds
        )

    def test_more_ranks_less_time(self):
        small = batch_cost(1e8, 1000, 1e7, 1, 16, 1e10, SPEC)
        large = batch_cost(1e8, 1000, 1e7, 1, 256, 1e10, SPEC)
        assert large.seconds < small.seconds

    def test_replication_reduces_gram_traffic(self):
        # The z/sqrt(cp) term shrinks with c (at fixed p).
        flat = batch_cost(1e9, 100, 1e7, 1, 64, 1e10, SPEC)
        replicated = batch_cost(1e9, 100, 1e7, 4, 64, 1e10, SPEC)
        assert replicated.words_communicated < flat.words_communicated

    def test_replication_bounded_by_p(self):
        with pytest.raises(ValueError, match="exceed"):
            batch_cost(1e6, 100, 1e7, 128, 64, 1e8, SPEC)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            batch_cost(1e6, 100, 1e7, 1, 0, 1e8, SPEC)


class TestStrongScalingEfficiency:
    def test_near_constant(self):
        # §III-C: E_p = O(1) — efficiency stays bounded as p grows.
        values = [
            strong_scaling_efficiency(n=4096, p0=64, p=p, spec=SPEC)
            for p in (64, 128, 256, 512, 1024)
        ]
        assert values[0] == pytest.approx(1.0)
        assert all(0.5 < v <= 4.0 for v in values)

    def test_requires_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            strong_scaling_efficiency(n=100, p0=3, p=4, spec=SPEC)
