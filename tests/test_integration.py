"""Cross-module integration tests.

These exercise full paths through several subsystems at once, plus the
awkward machine shapes (prime rank counts, idle ranks, enormous
attribute spaces) that unit tests do not reach.
"""

import numpy as np
import pytest

from repro import SimilarityConfig, jaccard_similarity
from repro.baselines.exact import jaccard_pairwise_sorted
from repro.baselines.mapreduce import mapreduce_jaccard
from repro.core.indicator import SyntheticSource
from repro.genomics import GenomeAtScale, kingsford_like, simulate_cohort
from repro.genomics.kmer import kmer_set
from repro.genomics.simulate import with_reads
from repro.runtime import Machine, laptop, stampede2_knl
from tests.helpers import exact_jaccard, random_sets


class TestAwkwardMachineShapes:
    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_prime_rank_counts(self, rng, p):
        # Prime p cannot form a square face without idle ranks; results
        # must still be exact.
        sets = random_sets(rng, n=9, m=300, max_size=40)
        result = jaccard_similarity(sets, machine=Machine(laptop(p)))
        assert np.allclose(result.similarity, exact_jaccard(sets))
        assert result.active_ranks <= p

    def test_more_ranks_than_samples(self, rng):
        sets = random_sets(rng, n=4, m=100, max_size=20)
        result = jaccard_similarity(sets, machine=Machine(laptop(16)))
        assert np.allclose(result.similarity, exact_jaccard(sets))

    def test_two_rank_machine(self, rng):
        sets = random_sets(rng, n=6, m=200, max_size=30)
        result = jaccard_similarity(
            sets, machine=Machine(laptop(2)),
            config=SimilarityConfig(validate=True),
        )
        assert np.allclose(result.similarity, exact_jaccard(sets))


class TestExtremeAttributeSpaces:
    def test_k31_kmer_space(self):
        # m = 4^31 ~ 4.6e18: the hypersparse regime BIGSI lives in.
        from repro.core.indicator import SetSource

        sets = [
            {0, 4**31 - 1, 123_456_789_012_345},
            {4**31 - 1, 42},
        ]
        source = SetSource(sets, m=4**31)
        result = jaccard_similarity(source, machine=Machine(laptop(4)))
        assert result.similarity[0, 1] == pytest.approx(0.25)

    def test_many_tiny_batches(self, rng):
        sets = random_sets(rng, n=5, m=64, max_size=20)
        result = jaccard_similarity(
            sets, machine=Machine(laptop(2)), batch_count=64
        )
        assert np.allclose(result.similarity, exact_jaccard(sets))
        # One-row batches: the count clamps to the inferred m.
        assert result.batch_count == min(64, result.m)


class TestPipelinesAgree:
    def test_all_three_engines_identical(self, rng):
        sets = random_sets(rng, n=10, m=500, max_size=80)
        ref = exact_jaccard(sets)
        summa = jaccard_similarity(sets, machine=Machine(laptop(4)))
        one_d = jaccard_similarity(
            sets, machine=Machine(laptop(4)), replication=4,
            reduce_every_batch=True,
        )
        mapred = mapreduce_jaccard(sets, machine=Machine(laptop(4)))
        assert np.allclose(summa.similarity, ref)
        assert np.allclose(one_d.similarity, ref)
        assert np.allclose(mapred.similarity, ref)

    def test_genomics_reads_vs_assembled(self, tmp_path):
        # Cleaned reads must give distances close to the assembled-genome
        # truth (the GenomeAtScale value proposition on raw data).
        spec = kingsford_like(n_samples=5, genome_length=2000, seed=31)
        assembled = simulate_cohort(spec)
        sequenced = simulate_cohort(
            with_reads(spec, coverage=10.0, error_rate=0.001)
        )
        truth = jaccard_pairwise_sorted(
            [
                kmer_set([assembled.genomes[n]], 15)
                for n in assembled.names
            ]
        )
        paths = sequenced.write_fasta(tmp_path / "reads")
        tool = GenomeAtScale(
            machine=Machine(stampede2_knl(1, ranks_per_node=4)),
            k=15, min_count=3,
        )
        measured = tool.run_fasta(paths, tmp_path / "work")
        off = ~np.eye(5, dtype=bool)
        error = np.abs(measured.similarity - truth)[off].max()
        assert error < 0.15, f"read-based distances off by {error:.3f}"


class TestDeterminismAcrossRuns:
    def test_same_seed_same_everything(self):
        source = SyntheticSource(m=10_000, n=32, density=0.02, seed=77)
        a = jaccard_similarity(source, machine=Machine(laptop(4)))
        b = jaccard_similarity(source, machine=Machine(laptop(4)))
        assert np.array_equal(a.similarity, b.similarity)
        assert a.simulated_seconds == b.simulated_seconds
        assert a.cost.communication_bytes == b.cost.communication_bytes
