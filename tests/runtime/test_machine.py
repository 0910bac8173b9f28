"""Tests for the machine model."""

import pytest

from repro.runtime.machine import CacheModel, MachineSpec, laptop, stampede2_knl


class TestMachineSpec:
    def test_total_ranks(self):
        assert MachineSpec(n_nodes=4, ranks_per_node=8).p == 32

    def test_node_of(self):
        spec = MachineSpec(n_nodes=2, ranks_per_node=4)
        assert spec.node_of(0) == 0
        assert spec.node_of(3) == 0
        assert spec.node_of(4) == 1

    def test_node_of_out_of_range(self):
        with pytest.raises(IndexError):
            MachineSpec(n_nodes=1, ranks_per_node=4).node_of(4)

    def test_beta_for_group(self):
        spec = stampede2_knl(2)
        same_node = list(range(spec.ranks_per_node))
        assert spec.beta_for_group(same_node) == spec.beta_intra
        assert spec.beta_for_group([0, 1]) == spec.beta_intra
        assert spec.beta_for_group([0, spec.ranks_per_node]) == spec.beta_inter

    def test_invalid_node_count(self):
        with pytest.raises(ValueError, match="n_nodes"):
            MachineSpec(n_nodes=0)

    def test_alpha_must_dominate(self):
        with pytest.raises(ValueError, match="alpha"):
            MachineSpec(alpha=1e-12, beta_inter=1e-9, gamma=1e-10)

    def test_nonpositive_costs_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            MachineSpec(gamma=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("memory_per_rank", 0),
            ("memory_per_rank", -5),
            ("io_bandwidth_per_rank", 0.0),
            ("io_bandwidth_per_rank", -1e9),
            ("io_bandwidth_per_rank", float("nan")),
        ],
    )
    def test_nonpositive_memory_and_io_rejected(self, field, value):
        # A zero I/O bandwidth used to build, and the first charged read
        # of a run divided by it.
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            MachineSpec(ranks_per_node=4, **{field: value})

    def test_compute_seconds_scales_linearly(self):
        spec = laptop()
        assert spec.compute_seconds(2e6) == pytest.approx(
            2 * spec.compute_seconds(1e6)
        )

    def test_compute_seconds_rejects_negative(self):
        with pytest.raises(ValueError):
            laptop().compute_seconds(-1)

    def test_io_seconds(self):
        spec = laptop()
        assert spec.io_seconds(spec.io_bandwidth_per_rank) == pytest.approx(1.0)


class TestCacheModel:
    def test_fit_in_fast_memory_is_nominal(self):
        cache = CacheModel(use_fast_cache=True, fast_bytes=100, slow_penalty=1.5)
        assert cache.gamma_multiplier(50) == 1.0

    def test_overflow_partially_penalized_with_cache(self):
        cache = CacheModel(use_fast_cache=True, fast_bytes=100, slow_penalty=1.5)
        assert 1.0 < cache.gamma_multiplier(200) < 1.5

    def test_no_cache_full_penalty(self):
        cache = CacheModel(use_fast_cache=False, slow_penalty=1.5)
        assert cache.gamma_multiplier(1) == 1.5

    def test_mcdram_ablation_is_small_effect(self):
        # §V-D: disabling MCDRAM-as-L3 changes batch time by a few percent.
        on = stampede2_knl(4)
        off = stampede2_knl(4, use_fast_cache=False)
        big = 64 * 2**30
        ratio = off.compute_seconds(1e9, big) / on.compute_seconds(1e9, big)
        assert 1.0 < ratio < 1.10


class TestPresets:
    def test_stampede2_matches_paper_setup(self):
        spec = stampede2_knl(1024)
        assert spec.ranks_per_node == 32  # §V-A1: 32 MPI processes/node
        assert spec.p == 32768
        assert spec.cache.fast_bytes == 16 * 2**30  # 16 GB MCDRAM

    def test_laptop_is_single_node(self):
        spec = laptop(8)
        assert spec.n_nodes == 1
        assert spec.p == 8
