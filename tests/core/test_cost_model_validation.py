"""Cross-validation: measured simulator costs vs the §III-C closed forms.

The analytic model and the executing simulator are independent
implementations of the same cost theory; these tests assert they agree
on *trends* (slopes in p, z and c), which is the reproduction's core
soundness check (DESIGN.md §5).
"""

import pytest

from repro import jaccard_similarity
from repro.core.analysis import batch_cost, strong_scaling_efficiency
from repro.core.indicator import SyntheticSource
from repro.runtime import Machine, stampede2_knl


def measured_run(p_ranks: int, m: int = 64_000, n: int = 256,
                 density: float = 0.01, **overrides):
    source = SyntheticSource(m=m, n=n, density=density, seed=21)
    machine = Machine(
        stampede2_knl(max(1, p_ranks // 4), ranks_per_node=min(p_ranks, 4))
    )
    result = jaccard_similarity(
        source, machine=machine, batch_count=2, gather_result=False,
        **overrides,
    )
    return result


class TestStrongScalingAgreement:
    def test_measured_speedup_tracks_model(self):
        # Model: in the compute-bound regime T ~ F/p; measured speedups
        # should be within 2x of proportional.
        times = {}
        for p in (1, 4, 16):
            times[p] = measured_run(p).simulated_seconds
        speedup_4 = times[1] / times[4]
        speedup_16 = times[1] / times[16]
        assert 2.0 < speedup_4 <= 4.4
        assert 6.0 < speedup_16 <= 17.6

    def test_model_efficiency_near_constant_like_simulator(self):
        # §III-C: E_p = O(1).  Both the closed form and the simulator
        # keep efficiency within a constant band across a 16x rank sweep.
        spec = stampede2_knl(4)
        model = [
            strong_scaling_efficiency(n=2048, p0=16, p=p, spec=spec)
            for p in (16, 64, 256)
        ]
        assert max(model) / min(model) < 4.0


class TestCommunicationSlopeAgreement:
    def test_panel_traffic_shrinks_with_replication(self):
        # Model: the Gram beta term is z / sqrt(c p).  Measured per-rank
        # traffic must decrease when c grows at fixed p.
        per_rank = {}
        for c in (1, 4):
            result = measured_run(64, replication=c)
            per_rank[c] = result.cost.total.max_rank_bytes
        assert per_rank[4] < per_rank[1]
        model_1 = batch_cost(1e6, 256, 1e7, 1, 64, 1e8, stampede2_knl(16))
        model_4 = batch_cost(1e6, 256, 1e7, 4, 64, 1e8, stampede2_knl(16))
        assert model_4.words_communicated < model_1.words_communicated

    def test_comm_volume_grows_with_z_like_model(self):
        # Model: beta term ~ z / sqrt(cp): doubling nnz should not more
        # than ~double the measured per-rank communication.
        low = measured_run(16, density=0.01)
        high = measured_run(16, density=0.02)
        ratio = (
            high.cost.total.max_rank_bytes / low.cost.total.max_rank_bytes
        )
        assert 1.0 < ratio < 3.0


class TestLatencyAmortization:
    def test_alpha_share_shrinks_with_batch_size(self):
        # Fig. 2c/2d mechanism: supersteps per processed nonzero fall as
        # batches grow.
        source = SyntheticSource(m=64_000, n=256, density=0.01, seed=22)

        def steps_per_nnz(batches: int) -> float:
            machine = Machine(stampede2_knl(2, ranks_per_node=4))
            result = jaccard_similarity(
                source, machine=machine, batch_count=batches,
                gather_result=False,
            )
            nnz = sum(b.nnz for b in result.batches)
            return result.cost.supersteps / nnz

        assert steps_per_nnz(2) < steps_per_nnz(16)


class TestPhaseAccounting:
    def test_phase_walls_sum_to_makespan(self):
        # Phases in the driver are flat and sequential, so their wall
        # times must add up to the run's makespan (no double counting).
        result = measured_run(8)
        wall_sum = sum(pc.wall_seconds for pc in result.cost.phases.values())
        assert wall_sum == pytest.approx(result.simulated_seconds, rel=1e-6)

    def test_costs_deterministic(self):
        a = measured_run(8).simulated_seconds
        b = measured_run(8).simulated_seconds
        assert a == pytest.approx(b, rel=1e-12)

    def test_volume_counters_positive(self):
        result = measured_run(8)
        total = result.cost.total
        assert total.total_bytes > 0
        assert total.total_flops > 0
        assert total.supersteps > 0
        assert result.cost.total.messages > 0

    def test_io_charged_in_read_phase_only(self):
        result = measured_run(8)
        for name, pc in result.cost.phases.items():
            if name != "read":
                assert pc.io_seconds == 0.0, name
        assert result.cost.phases["read"].io_seconds > 0.0

