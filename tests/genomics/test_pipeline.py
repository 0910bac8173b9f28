"""Integration tests for the GenomeAtScale pipeline and CLI."""

import numpy as np
import pytest

from repro.baselines.exact import jaccard_pairwise_sorted
from repro.genomics.cli import main as cli_main
from repro.genomics.kmer import kmer_set
from repro.genomics.pipeline import GenomeAtScale
from repro.genomics.simulate import kingsford_like, simulate_cohort, with_reads
from repro.runtime import Machine, laptop
from repro.service import open_store


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
