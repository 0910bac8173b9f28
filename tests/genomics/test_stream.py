"""Tests for streaming FASTA ingestion (chunked records -> k-mer batches)."""

import numpy as np
import pytest

from repro import SimilarityConfig, jaccard_similarity
from repro.genomics.fasta import iter_fasta, write_fasta
from repro.genomics.kmer import kmer_set
from repro.genomics.pipeline import GenomeAtScale
from repro.genomics.sequence import SequenceRecord
from repro.genomics.stream import (
    StreamingKmerSource,
    iter_sequence_chunks,
    stream_kmer_set,
    stream_sample_kmers,
)
from repro.runtime import Machine, laptop
from tests.helpers import exact_jaccard


def random_records(rng, n_records, max_len=400, n_prob=0.04):
    records = []
    for i in range(n_records):
        length = int(rng.integers(0, max_len))
        bases = rng.choice(
            list("ACGTN"), size=length,
            p=[(1 - n_prob) / 4] * 4 + [n_prob],
        )
        records.append(SequenceRecord(name=f"r{i}", sequence="".join(bases)))
    return records


def write_sample(path, records):
    write_fasta(path, records)
    return path


class TestSequenceChunks:
    def test_windows_partition_exactly(self, rng):
        """Every k-mer window of every record lands in exactly one chunk."""
        k = 7
        records = random_records(rng, 5)
        for chunk_bases in (k, 13, 50, 10_000):
            chunks = list(
                iter_sequence_chunks(records, k, chunk_bases=chunk_bases)
            )
            n_windows = sum(
                len(seg) - k + 1
                for chunk in chunks
                for seg in chunk
                if len(seg) >= k
            )
            expected = sum(
                max(len(r.sequence) - k + 1, 0) for r in records
            )
            assert n_windows == expected

    def test_record_straddling_chunk_boundary(self):
        """A record split across chunks loses no k-mer at the boundary."""
        k = 5
        seq = "ACGTACGTACGTACGTACGTA"  # 21 bases, will straddle repeatedly
        record = SequenceRecord(name="r", sequence=seq)
        for chunk_bases in range(k, len(seq) + 1):
            pieces = [
                seg
                for chunk in iter_sequence_chunks(
                    [record], k, chunk_bases=chunk_bases
                )
                for seg in chunk
            ]
            got = np.unique(
                np.concatenate(
                    [kmer_set([p], k, canonical=False) for p in pieces]
                )
            )
            ref = kmer_set([seq], k, canonical=False)
            assert np.array_equal(got, ref), chunk_bases

    def test_chunks_never_join_records(self, rng):
        """No segment spans a record boundary (no phantom k-mers)."""
        records = [
            SequenceRecord(name="a", sequence="AAAAA"),
            SequenceRecord(name="b", sequence="TTTTT"),
        ]
        chunks = list(iter_sequence_chunks(records, 3, chunk_bases=100))
        segments = [seg for chunk in chunks for seg in chunk]
        assert segments == ["AAAAA", "TTTTT"]

    def test_budget_bounds_chunk_size(self, rng):
        k, chunk_bases = 6, 40
        records = random_records(rng, 6, max_len=300)
        for chunk in iter_sequence_chunks(records, k, chunk_bases=chunk_bases):
            assert sum(len(s) for s in chunk) <= max(chunk_bases, k) + k

    def test_empty_stream_yields_nothing(self):
        assert list(iter_sequence_chunks([], 5)) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be positive"):
            list(iter_sequence_chunks(["ACGT"], 0))
        with pytest.raises(ValueError, match="chunk_bases"):
            list(iter_sequence_chunks(["ACGT"], 3, chunk_bases=0))


class TestStreamSampleKmers:
    def test_matches_in_memory_extraction(self, rng, tmp_path):
        k = 9
        records = random_records(rng, 4)
        path = write_sample(tmp_path / "s.fasta", records)
        ref = kmer_set(list(iter_fasta(path)), k)
        for chunk_bases in (11, 64, 1_000, 1 << 20):
            got = stream_kmer_set(path, k, chunk_bases=chunk_bases)
            assert np.array_equal(ref, got), chunk_bases

    def test_empty_chunk_yields_empty_batch(self, tmp_path):
        """All-ambiguous records produce empty batches, not crashes."""
        records = [
            SequenceRecord(name="n", sequence="NNNNNNNNNN"),
            SequenceRecord(name="short", sequence="AC"),
        ]
        path = write_sample(tmp_path / "n.fasta", records)
        batches = list(stream_sample_kmers(path, 5, chunk_bases=4))
        assert len(batches) >= 1
        assert all(b.size == 0 for b in batches)
        assert stream_kmer_set(path, 5, chunk_bases=4).size == 0


class TestStreamingKmerSource:
    def make_samples(self, rng, tmp_path, n=4):
        paths = []
        for i in range(n):
            records = random_records(rng, int(rng.integers(1, 4)))
            paths.append(
                write_sample(tmp_path / f"sample{i}.fasta", records)
            )
        return paths

    def test_matches_exact_jaccard(self, rng, tmp_path):
        k = 9
        paths = self.make_samples(rng, tmp_path)
        source = StreamingKmerSource(paths, k=k, chunk_bases=64)
        result = jaccard_similarity(source, machine=Machine(laptop(4)))
        sets = [
            set(kmer_set(list(iter_fasta(p)), k).tolist()) for p in paths
        ]
        assert np.allclose(result.similarity, exact_jaccard(sets))

    def test_pipelined_run_is_bit_exact(self, rng, tmp_path):
        k = 9
        paths = self.make_samples(rng, tmp_path)
        results = {}
        for mode in ("off", "double_buffer"):
            source = StreamingKmerSource(paths, k=k, chunk_bases=128)
            config = SimilarityConfig(batch_count=4, pipeline=mode)
            results[mode] = jaccard_similarity(
                source, machine=Machine(laptop(4)), config=config
            )
        assert np.array_equal(
            results["off"].similarity, results["double_buffer"].similarity
        )
        assert np.array_equal(
            results["off"].intersections,
            results["double_buffer"].intersections,
        )

    def test_single_batch_degenerates_to_serial_schedule(self, rng, tmp_path):
        """One batch leaves nothing to overlap: zero credit, serial stats."""
        paths = self.make_samples(rng, tmp_path, n=3)
        source = StreamingKmerSource(paths, k=7, chunk_bases=64)
        config = SimilarityConfig(batch_count=1, pipeline="double_buffer")
        result = jaccard_similarity(
            source, machine=Machine(laptop(4)), config=config
        )
        assert result.batch_count == 1
        assert result.overlap_saved_seconds == 0.0
        assert result.cost.overlap_credited_seconds == 0.0
        assert result.pipeline_mode == "double_buffer"

    def test_names_and_shapes(self, rng, tmp_path):
        paths = self.make_samples(rng, tmp_path, n=3)
        source = StreamingKmerSource(paths, k=7)
        assert source.n == 3
        assert source.m == 4**7
        assert source.names == [p.stem for p in paths]

    def test_requires_files(self):
        with pytest.raises(ValueError, match="at least one"):
            StreamingKmerSource([], k=7)

    def test_rejects_nonpositive_chunk_bases(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_bases"):
            StreamingKmerSource([tmp_path / "x.fasta"], k=7, chunk_bases=0)


class TestRunStreaming:
    def test_matches_store_path(self, rng, tmp_path):
        paths = []
        for i in range(3):
            records = random_records(rng, 2, max_len=200, n_prob=0.0)
            paths.append(write_sample(tmp_path / f"g{i}.fasta", records))
        tool = GenomeAtScale(machine=Machine(laptop(4)), k=9, min_count=1)
        streamed = tool.run_streaming(paths, chunk_bases=64)
        tool2 = GenomeAtScale(machine=Machine(laptop(4)), k=9, min_count=1)
        stored = tool2.run_fasta(paths, tmp_path / "work")
        assert np.allclose(streamed.similarity, stored.similarity)
        assert streamed.names == stored.names

    def test_rejects_abundance_cleaning(self, tmp_path):
        tool = GenomeAtScale(k=9, min_count=2)
        with pytest.raises(ValueError, match="min_count"):
            tool.run_streaming([tmp_path / "x.fasta"])
