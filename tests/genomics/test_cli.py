"""Tests for the genome-at-scale CLI, including the estimator flags."""

import gzip
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SHARD_BAND_POLICIES
from repro.genomics.cli import build_index_parser, build_parser, main
from repro.genomics.pipeline import GenomeAtScale
from repro.service import open_store

SMOKE_FASTA = (
    Path(__file__).resolve().parent.parent / "data" / "smoke_fasta"
)


class TestParser:
    def test_estimator_flags(self):
        args = build_parser().parse_args(
            [
                "x.fasta", "-o", "out",
                "--estimator", "bbit_minhash",
                "--sketch-size", "512",
                "--sketch-bits", "4",
            ]
        )
        assert args.estimator == "bbit_minhash"
        assert args.sketch_size == 512
        assert args.sketch_bits == 4

    def test_estimator_defaults(self):
        args = build_parser().parse_args(["x.fasta", "-o", "out"])
        assert args.estimator == "exact"
        assert args.sketch_size == 256
        assert args.sketch_bits == 8

    def test_rejects_unknown_estimator(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["x.fasta", "-o", "out", "--estimator", "simhash"]
            )


class TestIndexParser:
    @pytest.mark.parametrize("command", ["build", "shard"])
    def test_band_policy_choices(self, command):
        argv = {
            "build": ["build", "x.fasta", "--index", "idx"],
            "shard": ["shard", "--index", "idx", "--shards", "2"],
        }[command]
        parser = build_index_parser()
        assert parser.parse_args(argv).band_policy == "quantile"
        for policy in SHARD_BAND_POLICIES:
            assert parser.parse_args([*argv, "--band-policy", policy]).band_policy == policy
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, "--band-policy", "uniform"])


class TestEndToEnd:
    """The committed smoke FASTA must flow through both estimator modes.

    This mirrors the CI CLI-smoke step (tools/check_cli_smoke.py) at
    tier-1 speed: both modes exit 0 and agree within the sketch bound.
    """

    def run_cli(self, tmp_path, subdir, extra, inputs=SMOKE_FASTA):
        out = tmp_path / subdir
        rc = main([str(inputs), "-o", str(out), "--tree", "none", *extra])
        assert rc == 0
        return np.load(out / "similarity.npy")

    def test_exact_vs_minhash_within_bound(self, tmp_path, capsys):
        exact = self.run_cli(tmp_path, "exact", ["--estimator", "exact"])
        approx = self.run_cli(
            tmp_path,
            "minhash",
            ["--estimator", "minhash", "--sketch-size", "256"],
        )
        report = (tmp_path / "minhash" / "cost_report.txt").read_text()
        assert "estimated J +/-" in report
        bound = float(
            report.split("estimated J +/- ")[1].split(" at 95%")[0]
        )
        assert np.abs(exact - approx).max() <= bound

    def test_gzipped_directory_equals_plain(self, tmp_path, capsys):
        """``x.fasta.gz`` is sample ``x``, on every path that ingests it."""
        gz_dir = tmp_path / "gz"
        gz_dir.mkdir()
        for path in sorted(SMOKE_FASTA.glob("*.fasta")):
            with gzip.open(gz_dir / f"{path.name}.gz", "wb") as fh:
                fh.write(path.read_bytes())
        plain = self.run_cli(tmp_path, "plain", [])
        for subdir, extra in (("gz", []), ("gz-stream", ["--stream"])):
            assert np.array_equal(
                plain, self.run_cli(tmp_path, subdir, extra, inputs=gz_dir)
            )
            assert (tmp_path / subdir / "distance.phylip").read_text() == (
                tmp_path / "plain" / "distance.phylip"
            ).read_text()
        names = [f"sample_{c}" for c in "abcd"]
        stored = sorted(p.name for p in (tmp_path / "gz" / "samples").iterdir())
        assert stored == ["manifest.json", *(f"{n}.npy" for n in names)]
        index = tmp_path / "idx"
        assert main(["index", "build", str(gz_dir), "--index", str(index)]) == 0
        assert open_store(index).names == names


class TestIndexSubcommands:
    """build -> add -> query through the CLI, vs a fresh exact run."""

    FASTAS = sorted(SMOKE_FASTA.glob("*.fasta"))

    def test_build_add_query_threshold(self, tmp_path, capsys):
        index = tmp_path / "idx"
        rc = main(
            ["index", "build", *map(str, self.FASTAS[:3]),
             "--index", str(index)]
        )
        assert rc == 0
        rc = main(
            ["index", "add", str(self.FASTAS[3]), "--index", str(index)]
        )
        assert rc == 0
        out_json = tmp_path / "q.json"
        rc = main(
            ["index", "query", str(self.FASTAS[0]), "--index", str(index),
             "--threshold", "0.1", "--json", str(out_json)]
        )
        assert rc == 0
        capsys.readouterr()
        import json

        result = json.loads(out_json.read_text())

        # Reference: the batch engine over the same four files.
        out = tmp_path / "exact"
        rc = main(
            [*map(str, self.FASTAS), "-o", str(out), "--tree", "none"]
        )
        assert rc == 0
        capsys.readouterr()
        sim = np.load(out / "similarity.npy")
        names = [p.stem for p in self.FASTAS]
        expected = sorted(
            (
                (names[j], float(sim[0, j]))
                for j in range(len(names))
                if sim[0, j] >= 0.1
            ),
            key=lambda pair: -pair[1],
        )
        got = [(m["name"], m["similarity"]) for m in result["matches"]]
        assert [n for n, _ in got] == [n for n, _ in expected]
        for (_, gs), (_, es) in zip(got, expected):
            assert gs == pytest.approx(es, abs=1e-12)

    def test_query_top_k(self, tmp_path, capsys):
        index = tmp_path / "idx"
        assert main(
            ["index", "build", *map(str, self.FASTAS), "--index", str(index)]
        ) == 0
        assert main(
            ["index", "query", str(self.FASTAS[1]), "--index", str(index),
             "--top-k", "2"]
        ) == 0
        text = capsys.readouterr().out
        assert "top_k=2" in text
        assert "sample_b" in text  # the stored copy of the query itself

    def test_query_requires_threshold_or_top_k(self, tmp_path, capsys):
        index = tmp_path / "idx"
        assert main(
            ["index", "build", str(self.FASTAS[0]), "--index", str(index)]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(
                ["index", "query", str(self.FASTAS[0]),
                 "--index", str(index)]
            )
        assert_usage_error(
            capsys, exited, "index query requires --threshold and/or --top-k"
        )

    def test_batch_run_over_directory_named_index(self, tmp_path, capsys):
        """A FASTA directory literally named "index" stays a batch run."""
        import shutil

        fasta_dir = tmp_path / "index"
        fasta_dir.mkdir()
        for p in self.FASTAS[:2]:
            shutil.copy(p, fasta_dir / p.name)
        cwd = tmp_path
        out = tmp_path / "out"
        import os

        old = os.getcwd()
        os.chdir(cwd)
        try:
            rc = main(["index", "-o", str(out), "--tree", "none"])
        finally:
            os.chdir(old)
        assert rc == 0
        capsys.readouterr()
        assert (out / "similarity.npy").exists()

    def test_index_k_mismatch_rejected(self, tmp_path, capsys):
        index = tmp_path / "idx"
        assert main(
            ["index", "build", str(self.FASTAS[0]), "--index", str(index),
             "-k", "21"]
        ) == 0
        capsys.readouterr()
        message = (
            f"index at {index} was built with k=21, tool is configured "
            f"for k=31"
        )
        with pytest.raises(ValueError) as raised:
            GenomeAtScale(k=31).query_index(index, self.FASTAS[0], threshold=0.5)
        assert str(raised.value) == message
        for command, extra in (
            ("query", ["--threshold", "0.5"]), ("add", [])
        ):
            with pytest.raises(SystemExit) as exited:
                main(
                    ["index", command, str(self.FASTAS[1]),
                     "--index", str(index), "-k", "31", *extra]
                )
            assert_usage_error(capsys, exited, message)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--prefilter", "size"),
            ("--candidates", "lsh"),
            ("--batch-size", "8"),
            ("--query-batch-size", "8"),
            ("--max-wait", "0.1"),
            ("--query-max-wait", "0.1"),
        ],
    )
    def test_removed_query_spellings_exit_2(self, tmp_path, capsys, flag, value):
        argv = ["index", "query", str(self.FASTAS[0]),
                "--index", str(tmp_path / "idx"), "--threshold", "0.5"]
        with pytest.raises(SystemExit) as exited:
            main([*argv, flag, value])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_query_rejects_directory_input(self, tmp_path, capsys):
        index = tmp_path / "idx"
        assert main(
            ["index", "build", *map(str, self.FASTAS), "--index", str(index)]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(
                ["index", "query", str(SMOKE_FASTA), "--index", str(index),
                 "--threshold", "0.5"]
            )
        assert_usage_error(
            capsys, exited,
            "index query takes exactly one query FASTA file, got 4 (pass a "
            "single file, not a directory, or use --batch-file for many)",
        )

    def test_query_rejects_several_files(self, tmp_path, capsys):
        index = tmp_path / "idx"
        assert main(
            ["index", "build", *map(str, self.FASTAS), "--index", str(index)]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(
                ["index", "query", *map(str, self.FASTAS[:2]),
                 "--index", str(index), "--threshold", "0.5"]
            )
        assert_usage_error(
            capsys, exited,
            "index query takes exactly one query FASTA file, got 2 (pass a "
            "single file, not a directory, or use --batch-file for many)",
        )

    def _batch_usage_error(self, tmp_path, capsys, lines, positional=()):
        """``index query --batch-file`` over a list of ``lines`` (or no
        list file at all when ``lines`` is ``None``)."""
        index = tmp_path / "idx"
        assert main(
            ["index", "build", str(self.FASTAS[0]), "--index", str(index)]
        ) == 0
        capsys.readouterr()
        listing = tmp_path / "queries.txt"
        if lines is not None:
            listing.write_text("".join(f"{ln}\n" for ln in lines))
        with pytest.raises(SystemExit) as exited:
            main(
                ["index", "query", *positional, "--batch-file", str(listing),
                 "--index", str(index), "--threshold", "0.5"]
            )
        return listing, exited

    def test_batch_file_with_positional_fasta(self, tmp_path, capsys):
        _, exited = self._batch_usage_error(
            tmp_path, capsys, [self.FASTAS[1]], positional=[str(self.FASTAS[1])]
        )
        assert_usage_error(
            capsys, exited,
            "index query takes either positional FASTA files or "
            "--batch-file, not both",
        )

    def test_batch_file_missing(self, tmp_path, capsys):
        listing, exited = self._batch_usage_error(tmp_path, capsys, None)
        assert_usage_error(capsys, exited, f"missing --batch-file: {listing}")

    def test_batch_file_names_missing_fasta(self, tmp_path, capsys):
        gone = tmp_path / "gone.fasta"
        listing, exited = self._batch_usage_error(
            tmp_path, capsys, [self.FASTAS[1], gone]
        )
        assert_usage_error(
            capsys, exited, f"missing query FASTA from {listing}: {gone}"
        )

    def test_batch_file_empty(self, tmp_path, capsys):
        listing, exited = self._batch_usage_error(
            tmp_path, capsys, ["# nothing", ""]
        )
        assert_usage_error(
            capsys, exited, f"--batch-file {listing} lists no query FASTA files"
        )


def assert_usage_error(capsys, exited, message):
    """Exit 2 with one ``error:`` line naming the bad value, no traceback."""
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [ln for ln in err.splitlines() if "error:" in ln]
    assert line.endswith(f"error: {message}")


class TestInvalidValues:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--batches", "0"], "batch_count must be positive, got 0"),
            (["--ranks", "0"], "ranks_per_node must be positive, got 0"),
            (["-k", "4"], "k must be odd (paper §V-A2), got 4"),
            (["--sketch-size", "0"], "sketch_size must be positive, got 0"),
            (
                ["--machine", "stampede2", "--nodes", "0"],
                "n_nodes must be positive, got 0",
            ),
        ],
        ids=["batches", "ranks", "k", "sketch-size", "nodes"],
    )
    def test_batch_run_exits_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main([str(SMOKE_FASTA), "-o", str(out), *flags])
        assert_usage_error(capsys, exited, message)
        assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        gone = tmp_path / "gone.fasta"
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main([str(SMOKE_FASTA / "sample_a.fasta"), str(gone), "-o", str(out)])
        assert_usage_error(capsys, exited, f"missing input files: {gone}")
        assert not out.exists()
        with pytest.raises(SystemExit) as exited:
            main(["index", "build", str(gone), "--index", str(tmp_path / "idx")])
        assert_usage_error(capsys, exited, f"missing input files: {gone}")

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main([str(empty), "-o", str(out)])
        assert_usage_error(capsys, exited, f"no FASTA files found in {empty}")
        assert not out.exists()

    def test_one_sample_in_two_files_exits_2(self, tmp_path, capsys):
        """``x.fasta`` beside ``x.fasta.gz`` is one sample twice."""
        both = tmp_path / "both"
        both.mkdir()
        plain = SMOKE_FASTA / "sample_a.fasta"
        (both / plain.name).write_bytes(plain.read_bytes())
        with gzip.open(both / f"{plain.name}.gz", "wb") as fh:
            fh.write(plain.read_bytes())
        out = tmp_path / "out"
        for argv in ([str(both)], [str(both / plain.name), str(plain)]):
            with pytest.raises(SystemExit) as exited:
                main([*argv, "-o", str(out), "--stream"])
            assert_usage_error(
                capsys, exited, "several input files hold sample 'sample_a'"
            )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--shards", "0"], "store_shards must be >= 1, got 0"),
            (["--sketch-size", "0"], "sketch_size must be positive, got 0"),
            (["-k", "4"], "k must be odd (paper §V-A2), got 4"),
        ],
        ids=["shards", "sketch-size", "k"],
    )
    def test_index_build_exits_2(self, tmp_path, capsys, flags, message):
        index = tmp_path / "idx"
        with pytest.raises(SystemExit) as exited:
            main(["index", "build", str(SMOKE_FASTA), "--index", str(index), *flags])
        assert_usage_error(capsys, exited, message)
        assert not index.exists()
