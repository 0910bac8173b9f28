"""Tests for k-mer counting and noise thresholds."""

import numpy as np
import pytest

from repro.genomics import counting
from repro.genomics.counting import (
    clean_sample,
    clean_sample_counts,
    count_kmers,
    kingsford_threshold,
)


class TestCountKmers:
    def test_counts_duplicates(self):
        codes, counts = count_kmers(["AAAA"], 2, canonical=False)
        assert codes.tolist() == [0]
        assert counts.tolist() == [3]

    def test_across_sequences(self):
        codes, counts = count_kmers(["ACG", "ACG"], 3, canonical=False)
        assert counts.tolist() == [2]

    def test_empty(self):
        codes, counts = count_kmers([], 3)
        assert codes.size == 0
        assert counts.size == 0

    def test_canonical_merges_strands(self):
        from repro.genomics.sequence import reverse_complement

        seq = "ACGTAGC"
        codes, counts = count_kmers([seq, reverse_complement(seq)], 3)
        # Every canonical k-mer appears on both strands.
        assert np.all(counts >= 2)


class TestKingsfordThreshold:
    def test_small_sample_keeps_everything(self):
        assert kingsford_threshold(1_000_000) == 1

    def test_monotone_in_size(self):
        sizes = [1e6, 7e8, 2e9, 5e9, 2e10]
        values = [kingsford_threshold(int(s)) for s in sizes]
        assert values == sorted(values)
        assert values[-1] == 50

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kingsford_threshold(-1)


class TestCleaningReport:
    def test_counts_before_and_after_the_threshold(self):
        # AA x3 survives min_count=2; AC, CG, GT appear once each.
        kept, report = clean_sample(
            ["AAAA", "ACGT"], 2, min_count=2, canonical=False
        )
        assert kept.tolist() == [0]
        assert report.kmers_before == 4
        assert report.kmers_after == 1
        assert report.removed_fraction == pytest.approx(3 / 4)

    def test_empty_report(self):
        kept, report = clean_sample([], 3, min_count=3)
        assert kept.size == 0
        assert report.removed_fraction == 0.0


class TestCleanSample:
    def test_explicit_threshold(self):
        # "AAAA" has AA x3; "ACGT" k-mers appear once each.
        kept, report = clean_sample(
            ["AAAA", "ACGT"], 2, min_count=2, canonical=False
        )
        assert kept.tolist() == [0]
        assert report.threshold == 2

    def test_auto_threshold_small_sample(self):
        kept, report = clean_sample(["ACGTACGT"], 3, min_count=None)
        assert report.threshold == 1
        assert kept.size > 0

    def test_error_kmers_removed_from_reads(self, rng):
        # Simulated reads: genuine 5-mers recur with coverage; a one-off
        # error k-mer appears once and is cleaned away.
        from repro.genomics.simulate import random_genome, reads_from_genome

        genome = random_genome(rng, 800)
        reads = reads_from_genome(
            rng, genome, coverage=12.0, read_length=80, error_rate=0.003
        )
        raw, _ = clean_sample(reads, 5, min_count=1)
        cleaned, report = clean_sample(reads, 5, min_count=3)
        assert cleaned.size <= raw.size
        assert report.threshold == 3

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("min_count", [1, None, 2, 3])
    def test_equals_the_counting_path(self, rng, min_count, canonical):
        from repro.genomics.simulate import random_genome, reads_from_genome

        reads = reads_from_genome(
            rng, random_genome(rng, 600), coverage=8.0, read_length=60,
            error_rate=0.01,
        )
        codes, report = clean_sample(
            reads, 7, min_count=min_count, canonical=canonical
        )
        want, _, want_report = clean_sample_counts(
            reads, 7, min_count=min_count, canonical=canonical
        )
        assert codes.dtype == np.int64
        assert np.array_equal(codes, want)
        assert report == want_report

    @pytest.mark.parametrize("min_count", [1, None])
    def test_threshold_one_counts_nothing(self, monkeypatch, min_count):
        def no_counting(*args, **kwargs):
            raise AssertionError("counted abundances that nothing reads")

        monkeypatch.setattr(counting, "count_kmers", no_counting)
        codes, report = clean_sample(
            ["ACGTTGCA", "AAAAC"], 3, min_count=min_count
        )
        assert report == counting.CleaningReport(1, codes.size, codes.size)
        assert codes.tolist() == sorted(set(codes.tolist()))

    @pytest.mark.parametrize("min_count", [1, None, 2])
    def test_one_shot_iterable(self, min_count):
        seqs = ["AAAAAC", "ACGTAC", "AAAAAC"]
        codes, report = clean_sample(iter(seqs), 3, min_count=min_count)
        want, want_report = clean_sample(seqs, 3, min_count=min_count)
        assert np.array_equal(codes, want)
        assert report == want_report
