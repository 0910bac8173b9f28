"""Tests for SimilarityConfig validation and the knob namespace."""

import dataclasses

import pytest

from repro.core.config import SimilarityConfig


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


class TestKnobNamespace:
    """Service knobs live under one ``query.*`` / ``store.*`` namespace."""

    CANONICAL = {
        "query.prefilter": "query_prefilter",
        "query.candidates": "query_candidates",
        "query.cache_size": "query_cache_size",
        "store.shards": "store_shards",
        "store.band_policy": "shard_band_policy",
    }

    def test_to_dict_emits_canonical_names(self):
        d = SimilarityConfig().to_dict()
        for canonical, field_name in self.CANONICAL.items():
            assert canonical in d
            assert field_name not in d

    def test_round_trip(self):
        cfg = SimilarityConfig(
            query_prefilter="size", store_shards=4,
            shard_band_policy="uniform",
        )
        assert SimilarityConfig.from_dict(cfg.to_dict()) == cfg

    def test_flat_spelling_rejected_naming_canonical(self):
        # The flat spellings were accepted (with a DeprecationWarning)
        # for one release; now they name the canonical key and raise.
        for canonical, field_name in self.CANONICAL.items():
            value = getattr(SimilarityConfig(), field_name)
            assert SimilarityConfig.from_dict({canonical: value}) == (
                SimilarityConfig()
            )
            with pytest.raises(ValueError, match=canonical):
                SimilarityConfig.from_dict({field_name: value})

    def test_plain_field_names_stay_silent(self):
        # Non-namespaced fields never warn.
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            cfg = SimilarityConfig.from_dict({"bit_width": 32})
        assert cfg.bit_width == 32

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown config knob"):
            SimilarityConfig.from_dict({"query.bogus": 1})
        # A query batch is one call over one snapshot: no batching knobs.
        for gone in ("query.batch_size", "query.max_wait"):
            with pytest.raises(ValueError, match="unknown config knob"):
                SimilarityConfig.from_dict({gone: 1})
        # The 1-D strawman is replication=p, reduce_every_batch=True, and
        # the planners' memory share is batching.MEMORY_FRACTION.
        for gone in ("gram_algorithm", "memory_fraction"):
            with pytest.raises(ValueError, match="unknown config knob"):
                SimilarityConfig.from_dict({gone: 1})
        assert len(dataclasses.fields(SimilarityConfig)) == 21

    def test_shard_knob_validation(self):
        with pytest.raises(ValueError, match="store_shards"):
            SimilarityConfig(store_shards=0)
        with pytest.raises(ValueError, match="shard_band_policy"):
            SimilarityConfig(shard_band_policy="alphabetical")

    def test_every_field_round_trips(self):
        cfg = SimilarityConfig()
        d = cfg.to_dict()
        assert len(d) == len(dataclasses.fields(cfg))
        assert SimilarityConfig.from_dict(d) == cfg
