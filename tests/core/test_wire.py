"""End-to-end wire-codec tests: config, bit-exactness, ledger regression.

The acceptance bar for the codec layer: similarity results identical to
``wire_codec="raw"`` under every policy, and the adaptive policy's
encoded wire bytes never exceeding (and on the hypersparse Fig. 2
regime, dramatically undercutting) the raw bytes of the same traffic.
"""

import numpy as np
import pytest

from repro import SimilarityConfig, jaccard_similarity
from repro.core.indicator import SyntheticSource
from repro.runtime import Machine, laptop, stampede2_knl
from repro.runtime.codec import WIRE_CODECS

#: Scaled-down Fig. 2 regimes (same shapes as the harness smoke specs).
FIG2A_DENSE = dict(m=2_000, n=64, density=0.2, seed=11)
FIG2B_HYPERSPARSE = dict(m=50_000, n=128, density=1e-4, density_skew=1.5,
                         seed=13)


def run(source_spec, machine=None, **overrides):
    source = SyntheticSource(**source_spec)
    machine = machine if machine is not None else Machine(laptop(4))
    config = SimilarityConfig(batch_count=2, **overrides)
    return jaccard_similarity(source, machine=machine, config=config)


class TestConfig:
    def test_default_is_raw(self):
        assert SimilarityConfig().wire_codec == "raw"

    @pytest.mark.parametrize("policy", WIRE_CODECS)
    def test_all_policies_accepted(self, policy):
        assert SimilarityConfig(wire_codec=policy).wire_codec == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="wire_codec"):
            SimilarityConfig(wire_codec="gzip")

    def test_cli_exposes_wire_codec(self):
        from repro.genomics.cli import build_parser

        args = build_parser().parse_args(
            ["in.fasta", "-o", "out", "--wire-codec", "adaptive"]
        )
        assert args.wire_codec == "adaptive"


class TestBitExactness:
    @pytest.mark.parametrize(
        "layout",
        [{}, {"replication": 4, "reduce_every_batch": True}],
        ids=["summa", "1d_allreduce"],
    )
    @pytest.mark.parametrize("policy", ["varint", "rle", "adaptive"])
    def test_identical_to_raw(self, layout, policy):
        base = run(FIG2A_DENSE, wire_codec="raw", **layout)
        other = run(FIG2A_DENSE, wire_codec=policy, **layout)
        assert np.array_equal(base.similarity, other.similarity)
        assert np.array_equal(base.intersections, other.intersections)
        assert np.array_equal(base.sample_sizes, other.sample_sizes)
        assert np.array_equal(base.distance, other.distance)

    def test_identical_under_pipelining_and_replication(self):
        machine = Machine(stampede2_knl(1, ranks_per_node=8))
        base = run(FIG2B_HYPERSPARSE, machine=machine, wire_codec="raw")
        other = run(
            FIG2B_HYPERSPARSE, machine=Machine(stampede2_knl(1, 8)),
            wire_codec="adaptive", pipeline="double_buffer",
        )
        assert np.array_equal(base.similarity, other.similarity)

    def test_identical_with_per_batch_reduction(self):
        machine = Machine(laptop(8))  # q=2, c=2 grid: fiber reductions
        base = run(FIG2A_DENSE, machine=machine, replication=2,
                   reduce_every_batch=True, wire_codec="raw")
        other = run(FIG2A_DENSE, machine=Machine(laptop(8)), replication=2,
                    reduce_every_batch=True, wire_codec="rle")
        assert np.array_equal(base.similarity, other.similarity)


class TestLedgerRegression:
    @pytest.mark.parametrize("spec", [FIG2A_DENSE, FIG2B_HYPERSPARSE],
                             ids=["fig2a_dense", "fig2b_hypersparse"])
    def test_adaptive_encoded_never_exceeds_raw(self, spec):
        result = run(spec, wire_codec="adaptive")
        assert result.wire_raw_bytes > 0.0
        assert result.wire_encoded_bytes <= result.wire_raw_bytes

    def test_hypersparse_reduction_clears_bar(self):
        result = run(FIG2B_HYPERSPARSE, wire_codec="adaptive")
        assert result.wire_raw_bytes / result.wire_encoded_bytes >= 1.5

    def test_codec_run_moves_fewer_total_bytes(self):
        raw = run(FIG2B_HYPERSPARSE, wire_codec="raw")
        enc = run(FIG2B_HYPERSPARSE, wire_codec="adaptive")
        assert enc.cost.communication_bytes < raw.cost.communication_bytes
        # The saving matches the wire counters' own bookkeeping.
        saved = enc.wire_raw_bytes - enc.wire_encoded_bytes
        assert enc.cost.communication_bytes == pytest.approx(
            raw.cost.communication_bytes - saved, rel=1e-9
        )

    def test_raw_policy_records_no_wire_traffic(self):
        result = run(FIG2A_DENSE, wire_codec="raw")
        assert result.wire_raw_bytes == 0.0
        assert result.wire_encoded_bytes == 0.0

    def test_codec_flops_are_charged(self):
        result = run(FIG2B_HYPERSPARSE, wire_codec="rle")
        kernels = result.cost.kernel_totals
        assert any(name.startswith("codec:") for name in kernels)


class TestSurfacing:
    def test_summary_reports_wire_line(self):
        result = run(FIG2B_HYPERSPARSE, wire_codec="adaptive")
        summary = result.summary()
        assert "wire codec=adaptive" in summary
        assert "on the wire" in summary
        assert "wire codec=raw" in run(FIG2A_DENSE).summary()

    @pytest.mark.parametrize("policy", WIRE_CODECS)
    def test_summary_names_the_configured_policy(self, policy):
        summary = run(FIG2B_HYPERSPARSE, wire_codec=policy).summary()
        assert f"wire codec={policy}" in summary
        assert ("on the wire" in summary) == (policy != "raw")

    def test_report_breaks_down_codecs(self):
        result = run(FIG2B_HYPERSPARSE, wire_codec="adaptive")
        assert "wire codec" in result.cost.report()
