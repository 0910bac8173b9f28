"""Tests for SimilarityConfig validation."""

import dataclasses

import pytest

from repro.core.config import SHARD_BAND_POLICIES, SimilarityConfig


class TestValidation:
    def test_defaults_valid(self):
        cfg = SimilarityConfig()
        assert cfg.bit_width == 64
        assert cfg.filter_strategy == "allgather"

    def test_bad_bit_width(self):
        with pytest.raises(ValueError, match="bit_width"):
            SimilarityConfig(bit_width=12)

    def test_bad_batch_count(self):
        with pytest.raises(ValueError, match="batch_count"):
            SimilarityConfig(batch_count=0)

    def test_bad_replication(self):
        with pytest.raises(ValueError, match="replication"):
            SimilarityConfig(replication=-1)

    def test_bad_filter_strategy(self):
        with pytest.raises(ValueError, match="filter_strategy"):
            SimilarityConfig(filter_strategy="magic")

    def test_frozen(self):
        cfg = SimilarityConfig()
        with pytest.raises(AttributeError):
            cfg.bit_width = 32


class TestEstimatorValidation:
    def test_default_exact(self):
        cfg = SimilarityConfig()
        assert cfg.estimator == "exact"
        assert cfg.sketch_size == 256
        assert cfg.sketch_bits == 8
        assert cfg.sketch_seed == 0

    def test_sketch_estimators_accepted(self):
        for est in ("minhash", "bbit_minhash", "hll"):
            assert SimilarityConfig(estimator=est).estimator == est

    def test_bad_estimator(self):
        with pytest.raises(ValueError, match="estimator"):
            SimilarityConfig(estimator="simhash")

    def test_bad_sketch_size(self):
        with pytest.raises(ValueError, match="sketch_size"):
            SimilarityConfig(sketch_size=0)

    def test_bad_sketch_bits(self):
        with pytest.raises(ValueError, match="sketch_bits"):
            SimilarityConfig(sketch_bits=0)
        with pytest.raises(ValueError, match="sketch_bits"):
            SimilarityConfig(sketch_bits=17)


class TestServiceKnobs:
    def test_fields(self):
        names = {f.name for f in dataclasses.fields(SimilarityConfig)}
        assert len(names) == 21
        # A query batch is one call over one snapshot: no batching knobs.
        # The 1-D strawman is replication=p, reduce_every_batch=True, and
        # the planners' memory share is batching.MEMORY_FRACTION.
        for gone in ("query_batch_size", "gram_algorithm", "memory_fraction"):
            assert gone not in names

    def test_shard_knob_validation(self):
        with pytest.raises(ValueError, match="store_shards"):
            SimilarityConfig(store_shards=0)
        for policy in ("alphabetical", "uniform"):
            with pytest.raises(ValueError, match="shard_band_policy"):
                SimilarityConfig(shard_band_policy=policy)

    @pytest.mark.parametrize("policy", SHARD_BAND_POLICIES)
    def test_band_policies_accepted(self, policy):
        assert SimilarityConfig(shard_band_policy=policy).shard_band_policy == policy
