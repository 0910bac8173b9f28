"""Integration tests for the GenomeAtScale pipeline and CLI."""

import gzip

import numpy as np
import pytest

from repro import SimilarityConfig
from repro.baselines.exact import jaccard_pairwise_sorted
from repro.genomics.cli import main as cli_main
from repro.genomics.fasta import iter_fasta, write_fasta
from repro.genomics.kmer import kmer_set
from repro.genomics.pipeline import GenomeAtScale
from repro.genomics.sequence import SequenceRecord
from repro.genomics.simulate import kingsford_like, simulate_cohort, with_reads
from repro.runtime import Machine, laptop
from repro.service import open_store
from tests.helpers import exact_jaccard


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    cohort = simulate_cohort(
        kingsford_like(n_samples=6, genome_length=1500, seed=4)
    )
    directory = tmp_path_factory.mktemp("fasta")
    paths = cohort.write_fasta(directory)
    return cohort, paths, directory


class TestPipeline:
    def test_matches_direct_kmer_jaccard(self, cohort_dir, tmp_path):
        cohort, paths, _ = cohort_dir
        tool = GenomeAtScale(machine=Machine(laptop(4)), k=19)
        result = tool.run_fasta(paths, tmp_path / "work")
        expected = jaccard_pairwise_sorted(
            [kmer_set([g], 19) for g in
             (cohort.genomes[n] for n in cohort.names)]
        )
        assert np.allclose(result.similarity, expected)

    def test_store_roundtrip(self, cohort_dir, tmp_path):
        _, paths, _ = cohort_dir
        tool = GenomeAtScale(machine=Machine(laptop(2)), k=19)
        store, reports = tool.build_store(paths, tmp_path / "store")
        assert store.n_samples == 6
        assert len(reports) == 6
        result = tool.run_store(store, cleaning=reports)
        assert result.similarity.shape == (6, 6)
        assert result.cleaning == reports

    def test_even_k_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            GenomeAtScale(k=20)

    def test_name_count_validated(self, cohort_dir, tmp_path):
        _, paths, _ = cohort_dir
        tool = GenomeAtScale(k=19)
        with pytest.raises(ValueError, match="names"):
            tool.build_store(paths, tmp_path / "s", names=["only-one"])

    def test_no_inputs_rejected(self, tmp_path):
        tool = GenomeAtScale(k=19)
        with pytest.raises(ValueError, match="at least one"):
            tool.build_store([], tmp_path / "s")

    def test_reads_with_threshold(self, tmp_path):
        cohort = simulate_cohort(
            with_reads(
                kingsford_like(n_samples=3, genome_length=1200, seed=9),
                coverage=8.0,
            )
        )
        paths = cohort.write_fasta(tmp_path / "reads")
        tool = GenomeAtScale(machine=Machine(laptop(2)), k=11, min_count=3)
        result = tool.run_fasta(paths, tmp_path / "work")
        assert np.allclose(np.diag(result.similarity), 1.0)
        # Related samples must remain detectably similar after cleaning.
        off_diag = result.similarity[np.triu_indices(3, k=1)]
        assert off_diag.min() > 0.2

    def test_phylip_export(self, cohort_dir, tmp_path):
        _, paths, _ = cohort_dir
        tool = GenomeAtScale(machine=Machine(laptop(2)), k=19)
        result = tool.run_fasta(paths, tmp_path / "work")
        out = tmp_path / "d.phylip"
        result.to_phylip(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "6"
        assert len(lines) == 7

    def test_most_similar_pairs(self, cohort_dir, tmp_path):
        _, paths, _ = cohort_dir
        tool = GenomeAtScale(machine=Machine(laptop(2)), k=19)
        result = tool.run_fasta(paths, tmp_path / "work")
        pairs = result.most_similar_pairs(top=3)
        assert len(pairs) == 3
        assert pairs[0][2] >= pairs[1][2] >= pairs[2][2]

    def test_tree_construction(self, cohort_dir, tmp_path):
        cohort, paths, _ = cohort_dir
        tool = GenomeAtScale(machine=Machine(laptop(2)), k=19)
        result = tool.run_fasta(paths, tmp_path / "work")
        tree = result.tree("nj")
        leaves = {x for x in tree.nodes if tree.degree(x) == 1}
        assert leaves == set(cohort.names)


def _same_run(a, b):
    """Bit-identical matrices, batch records and ledger."""
    import dataclasses

    ra, rb = a.similarity_result, b.similarity_result
    for name in ("similarity", "distance", "intersections", "sample_sizes"):
        x, y = getattr(ra, name), getattr(rb, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert [dataclasses.asdict(x) for x in ra.batches] == [
        dataclasses.asdict(x) for x in rb.batches
    ]
    assert ra.cost.phases == rb.cost.phases
    assert ra.cost.simulated_seconds == rb.cost.simulated_seconds
    assert a.names == b.names


class TestRunFastaHandsOver:
    """``run_fasta`` starts Part II from the arrays Part I just wrote."""

    def tool(self):
        return GenomeAtScale(machine=Machine(laptop(4)), k=19)

    def test_same_as_the_reopened_store(self, cohort_dir, tmp_path):
        from repro.genomics.samples import SampleStore

        _, paths, _ = cohort_dir
        result = self.tool().run_fasta(paths, tmp_path / "work")
        reopened = self.tool().run_store(
            SampleStore.open(tmp_path / "work" / "samples"),
            cleaning=result.cleaning,
        )
        _same_run(result, reopened)

    def test_store_bytes_equal_build_store(self, cohort_dir, tmp_path):
        _, paths, _ = cohort_dir
        self.tool().run_fasta(paths, tmp_path / "work")
        store, _ = self.tool().build_store(paths, tmp_path / "built")
        written = sorted((tmp_path / "work" / "samples").iterdir())
        assert [p.name for p in written] == sorted(
            p.name for p in store.root.iterdir()
        )
        for p in written:
            assert p.read_bytes() == (store.root / p.name).read_bytes()

    def test_reads_no_sample_file_back(self, cohort_dir, tmp_path, monkeypatch):
        _, paths, _ = cohort_dir
        loads = []
        real_load = np.load
        monkeypatch.setattr(
            np, "load", lambda *a, **kw: loads.append(a) or real_load(*a, **kw)
        )
        self.tool().run_fasta(paths, tmp_path / "work")
        assert loads == []

    def test_corrupted_file_in_reopened_store_is_named(
        self, cohort_dir, tmp_path
    ):
        from repro.genomics.samples import SampleStore

        _, paths, _ = cohort_dir
        self.tool().run_fasta(paths, tmp_path / "work")
        store = SampleStore.open(tmp_path / "work" / "samples")
        bad = store.root / f"{store.names[2]}.npy"
        bad.write_bytes(bad.read_bytes()[:40])
        with pytest.raises(ValueError, match="unreadable sample file") as info:
            self.tool().run_store(store)
        assert str(bad) in str(info.value)


def _messy_fasta(directory, seed=41, n_samples=4):
    """FASTA in the shapes it comes in, the last file gzipped.

    Each sample holds several CRLF-terminated, 60-column records of one
    mutated genome: two overlapping pieces (so the overlap's k-mers
    occur twice and survive ``min_count=2``), a lowercase copy of part
    of it, a piece cut by an N run, and a 12-base record (shorter than
    k = 15 or 31).
    """
    rng = np.random.default_rng(seed)
    base = rng.choice(list("ACGT"), size=900)
    paths = []
    for i in range(n_samples):
        genome = base.copy()
        hits = rng.random(genome.size) < 0.02 * (i + 1)
        genome[hits] = rng.choice(list("ACGT"), size=int(hits.sum()))
        genome = "".join(genome)
        records = [
            genome[:520],
            genome[330:],
            genome[600:720].lower(),
            genome[100:180] + "N" * 7 + genome[187:260],
            genome[40:52],
        ]
        text = "".join(
            f">s{i}_r{j} piece {j}\r\n"
            + "".join(seq[o:o + 60] + "\r\n" for o in range(0, len(seq), 60))
            for j, seq in enumerate(records)
        )
        if i == n_samples - 1:
            path = directory / f"s{i}.fasta.gz"
            with gzip.open(path, "wt", newline="") as fh:
                fh.write(text)
        else:
            path = directory / f"s{i}.fasta"
            path.write_text(text, newline="")
        paths.append(path)
    return paths


class TestRunStreaming:
    """``run_streaming`` is ``run_fasta`` without the sample store."""

    @pytest.mark.parametrize("min_count", [1, 2])
    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("k", [15, 31])
    def test_equals_run_fasta(self, tmp_path, k, canonical, min_count):
        paths = _messy_fasta(tmp_path)

        def tool():
            return GenomeAtScale(
                machine=Machine(laptop(4)),
                config=SimilarityConfig(batch_count=3),
                k=k, canonical=canonical, min_count=min_count,
            )

        streamed = tool().run_streaming(paths)
        stored = tool().run_fasta(paths, tmp_path / "work")
        _same_run(streamed, stored)
        assert streamed.names == ["s0", "s1", "s2", "s3"]
        assert streamed.cleaning == stored.cleaning
        assert sum(r.kmers_after for r in stored.cleaning) > 0

    def test_pipelined_run_is_bit_exact(self, tmp_path):
        paths = _messy_fasta(tmp_path)
        results = [
            GenomeAtScale(
                machine=Machine(laptop(4)),
                config=SimilarityConfig(batch_count=4, pipeline=mode),
                k=9,
            ).run_streaming(paths)
            for mode in ("off", "double_buffer")
        ]
        for name in ("similarity", "intersections"):
            assert np.array_equal(
                getattr(results[0].similarity_result, name),
                getattr(results[1].similarity_result, name),
            )

    def test_single_batch_degenerates_to_serial_schedule(self, tmp_path):
        """One batch leaves nothing to overlap: zero credit, serial stats."""
        result = GenomeAtScale(
            machine=Machine(laptop(4)),
            config=SimilarityConfig(batch_count=1, pipeline="double_buffer"),
            k=7,
        ).run_streaming(_messy_fasta(tmp_path, n_samples=3))
        run = result.similarity_result
        assert run.batch_count == 1
        assert run.overlap_saved_seconds == 0.0
        assert run.cost.overlap_credited_seconds == 0.0
        assert run.config.pipeline == "double_buffer"

    def test_matches_exact_jaccard(self, rng, tmp_path):
        k = 9
        paths = []
        for i in range(4):
            bases = rng.choice(list("ACGTN"), size=(3, 300),
                               p=[0.24] * 4 + [0.04])
            records = [
                SequenceRecord(name=f"r{j}", sequence="".join(row))
                for j, row in enumerate(bases)
            ]
            paths.append(tmp_path / f"sample{i}.fasta")
            write_fasta(paths[-1], records)
        result = GenomeAtScale(machine=Machine(laptop(4)), k=k).run_streaming(
            paths
        )
        sets = [kmer_set(list(iter_fasta(p)), k) for p in paths]
        assert np.allclose(result.similarity, exact_jaccard(sets))
        assert result.similarity_result.sample_sizes.tolist() == [
            s.size for s in sets
        ]

    def test_names_and_shapes(self, tmp_path):
        paths = _messy_fasta(tmp_path, n_samples=3)
        result = GenomeAtScale(machine=Machine(laptop(2)), k=15).run_streaming(
            paths
        )
        assert [p.name for p in paths] == ["s0.fasta", "s1.fasta",
                                           "s2.fasta.gz"]
        assert result.names == ["s0", "s1", "s2"]
        assert result.n_samples == 3
        assert result.similarity.shape == (3, 3)
        assert len(result.cleaning) == 3

    def test_all_ambiguous_sample_is_empty(self, tmp_path):
        """A sample of N runs and records shorter than k is an empty set."""
        empty = tmp_path / "n.fasta"
        write_fasta(empty, [SequenceRecord(name="n", sequence="N" * 10),
                            SequenceRecord(name="short", sequence="AC")])
        paths = [empty, *_messy_fasta(tmp_path, n_samples=2)]
        result = GenomeAtScale(machine=Machine(laptop(2)), k=5).run_streaming(
            paths
        )
        sizes = result.similarity_result.sample_sizes
        assert sizes[0] == 0 and (sizes[1:] > 0).all()
        assert result.cleaning[0].kmers_after == 0
        assert result.similarity[0, 0] == 1.0  # J(empty, empty) = 1
        assert (result.similarity[0, 1:] == 0.0).all()

    def test_records_are_never_joined(self, tmp_path):
        """No k-mer spans two records of one sample (no phantom k-mers)."""
        path = tmp_path / "ab.fasta"
        write_fasta(path, [SequenceRecord(name="a", sequence="AAAAA"),
                           SequenceRecord(name="b", sequence="TTTTT")])
        result = GenomeAtScale(k=3, canonical=False).run_streaming([path])
        assert result.similarity_result.sample_sizes.tolist() == [2]

    def test_line_wrapping_loses_no_kmer(self, tmp_path):
        """A record wrapped at any width is the same set as one line."""
        k = 5
        seq = "ACGTACGTTAGCCATGACGTACGTA"
        paths = []
        for width in (len(seq), k - 1, k, 7):
            paths.append(tmp_path / f"w{width}.fasta")
            write_fasta(paths[-1], [SequenceRecord(name="r", sequence=seq)],
                        line_width=width)
        result = GenomeAtScale(k=k, canonical=False).run_streaming(paths)
        assert (result.similarity == 1.0).all()
        sizes = result.similarity_result.sample_sizes
        assert (sizes == kmer_set([seq], k, canonical=False).size).all()

    def test_requires_files(self):
        with pytest.raises(ValueError, match="at least one"):
            GenomeAtScale(k=7).run_streaming([])

    def test_writes_nothing(self, tmp_path, monkeypatch):
        inputs = tmp_path / "in"
        inputs.mkdir()
        paths = _messy_fasta(inputs, n_samples=2)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        GenomeAtScale(k=15).run_streaming(paths)
        assert list(work.iterdir()) == []
        assert sorted(inputs.iterdir()) == sorted(paths)

    def test_cli_stream_keeps_no_store(self, tmp_path, capsys):
        directory = tmp_path / "fasta"
        directory.mkdir()
        _messy_fasta(directory)
        common = [str(directory), "-k", "15", "--min-count", "2",
                  "--tree", "none"]
        assert cli_main([*common, "-o", str(tmp_path / "plain")]) == 0
        assert cli_main([*common, "-o", str(tmp_path / "stream"),
                         "--stream"]) == 0
        assert (tmp_path / "plain" / "samples").is_dir()
        assert not (tmp_path / "stream" / "samples").exists()
        for name in ("similarity.npy", "distance.phylip"):
            assert (tmp_path / "plain" / name).read_bytes() == (
                tmp_path / "stream" / name
            ).read_bytes()


class TestCli:
    def test_end_to_end(self, cohort_dir, tmp_path, capsys):
        _, _, fasta_dir = cohort_dir
        out = tmp_path / "cli-out"
        rc = cli_main(
            [str(fasta_dir), "-o", str(out), "-k", "19", "--ranks", "2"]
        )
        assert rc == 0
        assert (out / "similarity.npy").exists()
        assert (out / "distance.phylip").exists()
        assert (out / "tree_nj.nwk").exists()
        assert "SimilarityAtScale" in capsys.readouterr().out

    def test_missing_inputs(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            cli_main([str(tmp_path / "nope.fasta"), "-o", str(tmp_path)])
        assert exited.value.code == 2
        assert "error: missing input files:" in capsys.readouterr().err

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit) as exited:
            cli_main([str(empty), "-o", str(tmp_path / "out")])
        assert exited.value.code == 2
        assert "error: no FASTA files found in" in capsys.readouterr().err


class TestIndexMethods:
    """GenomeAtScale's bridge to the persistent serving layer."""

    def test_build_extend_query_round_trip(self, cohort_dir, tmp_path):
        _, paths, _ = cohort_dir
        tool = GenomeAtScale(machine=Machine(laptop(2)), k=19)
        index = tmp_path / "idx"
        store = tool.build_index(paths[:-1], index)
        assert store.names == [p.stem for p in paths[:-1]]
        added = tool.extend_index(index, [paths[-1]])
        assert [e.name for e in added] == [paths[-1].stem]
        assert open_store(index).n_genomes == len(paths)
        result = tool.query_index(index, paths[0], threshold=0.99)
        assert paths[0].stem in result.names  # the stored copy, J = 1

    def test_config_mismatch_rejected(self, cohort_dir, tmp_path):
        _, paths, _ = cohort_dir
        index = tmp_path / "idx"
        GenomeAtScale(machine=Machine(laptop(2)), k=19).build_index(
            paths[:2], index
        )
        with pytest.raises(ValueError, match="k="):
            GenomeAtScale(k=21).query_index(index, paths[0], threshold=0.5)
        with pytest.raises(ValueError, match="canonical"):
            GenomeAtScale(k=19, canonical=False).query_index(
                index, paths[0], threshold=0.5
            )
        with pytest.raises(ValueError, match="min_count"):
            GenomeAtScale(k=19, min_count=2).query_index(
                index, paths[0], threshold=0.5
            )
        # A canonical mismatch must also refuse to extend (it would mix
        # two k-mer code spaces in one index).
        with pytest.raises(ValueError, match="canonical"):
            GenomeAtScale(k=19, canonical=False).extend_index(
                index, [paths[2]]
            )
