#!/usr/bin/env python3
"""End-to-end CLI smoke over the committed tiny FASTA set.

Four sections, all driving the ``genome-at-scale`` CLI as subprocesses
over ``tests/data/smoke_fasta``:

* ``estimator`` — the batch engine: one ``--estimator exact`` run and
  one ``--estimator minhash`` run must exit 0, write similarity
  matrices of equal shape, and agree within the analytic 95% bound the
  sketch run prints in its cost report.  A third, exact run keeps no
  sample store (``--stream``) and sends every collective through
  ``--wire-codec adaptive``; its matrix must equal the first run's bit
  for bit, and its cost report must show the wire volume.  A fourth,
  exact run reads a gzipped copy of the FASTA directory
  (``sample_a.fasta.gz``, ...); its sample names and matrix must equal
  the first run's.  A fifth, exact run packs ``--bit-width 8``: four
  samples make every Gram block narrow enough for the blocked kernel's
  pattern body, and its matrix must equal the 64-bit run's bit for bit.
  The exact run's cost report must hold the
  measured-time table: a measured time on each of the read, filter,
  pack, spgemm, reduce and gather rows, and an ``unphased`` row.
  Measured times vary from run to run, so no report is compared byte
  for byte.
* ``index`` — the serving layer: ``index build`` over three samples,
  ``index add`` of the fourth, then four usage-error legs, each of
  which must exit 2 with one ``error:`` line naming the bad value and
  no traceback: an ``index query -k 21`` against that ``k = 31``
  index, a query FASTA given beside ``--batch-file``, the FASTA
  directory given as the query, and a query FASTA that does not
  exist.  Then ``index query --threshold`` of one
  sample against the four-genome index; the query's matches must agree
  exactly with a fresh batch-engine exact run over the same four
  samples (same qualifying set, same similarities), and so must the
  index's whole all-pairs matrix (``SimilarityService.all_pairs``, in
  the same sample order).  A second query
  pass feeds every sample through ``index query --batch-file`` and
  requires each batched answer to equal the per-query answer for the
  same sample, name for name and similarity for similarity.  Last,
  ``index migrate`` upgrades a copy of each committed format-1 store,
  flat and sharded (``tests/data/store_v1_{flat,sharded}``), which
  refuses to open before and answers after; a second ``index migrate``
  changes no byte.
* ``shard`` — the migration path: ``index build`` over every sample,
  per-sample baseline queries, then ``index shard --shards 2``
  upgrades the flat index into size bands in place; every re-run
  query must return the identical answer through the fan-out engine.
  Run twice: over a plain index and over a ``--similarity
  weighted_jaccard`` one, whose stored abundance counts must survive
  the migration (the scores move if they are dropped).
* ``similarity`` — the measure knob: per measure (containment, cosine
  and weighted Jaccard, the last over short k-mers so that abundances
  repeat), ``index build`` + per-sample ``index query --similarity``
  runs whose ``--json`` payloads must report the measure and its bound
  type, and whose matches must agree exactly with a fresh in-process
  reference computed straight from the k-mer sets (and counts).

These are the cheapest whole-pipeline checks there are: FASTA parsing,
k-mer extraction, the distributed engine, the sketch subsystem, the
persistent store, the incremental add, the query cascade, and the
result writers all have to work for them to pass.

Run:  python tools/check_cli_smoke.py [--section all|estimator|index|shard|similarity]
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

FASTA_DIR = REPO_ROOT / "tests" / "data" / "smoke_fasta"
#: The committed format-1 stores, one per layout: ``index migrate`` is
#: the only reader of format-1 payloads, so both go through it.
V1_STORES = [REPO_ROOT / "tests" / "data" / f"store_v1_{kind}" for kind in ("flat", "sharded")]

#: The bound line ``result.summary()`` prints for sketch runs.
BOUND_RE = re.compile(r"estimated J \+/- ([0-9.]+) at 95%")
WIRE_RE = re.compile(r"wire codec=adaptive \((raw .* on the wire)")
#: A row of the measured-time table: phase, modelled, measured, ratio.
TIME = r"-?[0-9.]+ (?:us|ms|s|min|h|days)"
MEASURED_RE = re.compile(rf"^(\w+) +(?:{TIME}|-) +({TIME}) +\S+$", re.MULTILINE)
#: The phases every exact run enters, plus the wall time none covered.
MEASURED_ROWS = ("read", "filter", "pack", "spgemm", "reduce", "gather", "unphased")

SECTIONS = ("estimator", "index", "shard", "similarity")


def _cli(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-m", "repro.genomics.cli", *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True)


def run_cli(args: list[str]) -> None:
    """Run the CLI as a subprocess; raise on a nonzero exit."""
    proc = _cli(args)
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"CLI exited {proc.returncode} for args {args}")


def run_cli_usage_error(args: list[str], message: str) -> None:
    """Run the CLI; it must exit 2 with one ``error:`` line ending in
    ``message`` and no traceback."""
    proc = _cli(args)
    errors = [ln for ln in proc.stderr.splitlines() if "error:" in ln]
    if (
        proc.returncode != 2
        or "Traceback" in proc.stderr
        or len(errors) != 1
        or not errors[0].endswith(f"error: {message}")
    ):
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(
            f"CLI exited {proc.returncode} for args {args}; expected exit 2 "
            f"with the one line 'error: {message}'"
        )


def check_estimator(
    workdir: Path, sketch_size: int, verbose: bool = False
) -> str:
    """Run both batch CLI modes and compare; returns a summary line."""
    exact_dir = workdir / "exact"
    sketch_dir = workdir / "minhash"
    stream_dir = workdir / "stream"
    gz_dir = workdir / "gz"
    byte_dir = workdir / "bit_width_8"
    run_cli(
        [str(FASTA_DIR), "-o", str(exact_dir), "--tree", "none",
         "--estimator", "exact"]
    )
    run_cli(
        [str(FASTA_DIR), "-o", str(sketch_dir), "--tree", "none",
         "--estimator", "minhash", "--sketch-size", str(sketch_size)]
    )
    run_cli(
        [str(FASTA_DIR), "-o", str(stream_dir), "--tree", "none",
         "--estimator", "exact", "--stream", "--wire-codec", "adaptive"]
    )
    gz_fasta = workdir / "gz_fasta"
    gz_fasta.mkdir(parents=True, exist_ok=True)
    for path in sorted(FASTA_DIR.glob("*.fasta")):
        with gzip.open(gz_fasta / f"{path.name}.gz", "wb") as fh:
            fh.write(path.read_bytes())
    run_cli([str(gz_fasta), "-o", str(gz_dir), "--tree", "none", "--estimator", "exact"])
    run_cli([str(FASTA_DIR), "-o", str(byte_dir), "--tree", "none", "--bit-width", "8"])
    exact = np.load(exact_dir / "similarity.npy")
    if not np.array_equal(exact, np.load(stream_dir / "similarity.npy")):
        raise SystemExit(
            "streamed, codec-framed exact run disagrees with the exact run"
        )
    gz_names = _sample_names(gz_dir)
    if gz_names != _sample_names(exact_dir):
        raise SystemExit(f"gzipped FASTA run names its samples {gz_names}")
    if not np.array_equal(exact, np.load(gz_dir / "similarity.npy")):
        raise SystemExit("gzipped FASTA run disagrees with the plain run")
    if not np.array_equal(exact, np.load(byte_dir / "similarity.npy")):
        raise SystemExit("--bit-width 8 run disagrees with the 64-bit run")
    measured = dict(MEASURED_RE.findall((exact_dir / "cost_report.txt").read_text()))
    missing = [name for name in MEASURED_ROWS if name not in measured]
    if missing:
        raise SystemExit(f"exact run's cost report has no measured time for {missing}")
    wire = WIRE_RE.search((stream_dir / "cost_report.txt").read_text())
    if wire is None:
        raise SystemExit(
            "streamed run's cost report prints no 'wire codec=adaptive' line"
        )
    approx = np.load(sketch_dir / "similarity.npy")
    if exact.shape != approx.shape:
        raise SystemExit(
            f"shape mismatch: exact {exact.shape} vs sketch {approx.shape}"
        )
    report = (sketch_dir / "cost_report.txt").read_text()
    match = BOUND_RE.search(report)
    if match is None:
        raise SystemExit(
            "sketch cost report prints no 'estimated J +/- ...' bound"
        )
    bound = float(match.group(1))
    diff = float(np.abs(exact - approx).max())
    if verbose:
        print(f"exact similarity:\n{np.round(exact, 4)}")
        print(f"minhash similarity:\n{np.round(approx, 4)}")
    if diff > bound:
        raise SystemExit(
            f"estimate disagrees with exact beyond the printed bound: "
            f"max |diff| = {diff:.4f} > {bound:.4f}"
        )
    return (
        f"cli smoke ok [estimator]: {exact.shape[0]} samples, "
        f"max |exact - minhash| = {diff:.4f} <= printed bound {bound:.4f}; "
        f"--stream --wire-codec adaptive equal to exact ({wire.group(1)}); "
        "gzipped FASTA and --bit-width 8 equal to plain; "
        f"measured filter {measured['filter']}, unphased {measured['unphased']}"
    )


def _sample_names(out_dir: Path) -> list[str]:
    """The sample names a batch run stored under ``out_dir``."""
    manifest = json.loads((out_dir / "samples" / "manifest.json").read_text())
    return manifest["names"]


def check_index(
    workdir: Path, threshold: float = 0.1, verbose: bool = False
) -> str:
    """build -> add -> query; matches must equal a fresh exact run."""
    fastas = sorted(FASTA_DIR.glob("*.fasta"))
    if len(fastas) < 2:
        raise SystemExit(f"need at least two smoke FASTA files in {FASTA_DIR}")
    index_dir = workdir / "index"
    query_json = workdir / "query.json"
    if index_dir.exists():
        # Keep the check rerunnable with a persistent --workdir: the
        # store refuses to build over an existing index.
        shutil.rmtree(index_dir)

    # Build from all but the last sample, then add the last incrementally.
    run_cli(
        ["index", "build", *map(str, fastas[:-1]), "--index", str(index_dir)]
    )
    run_cli(
        ["index", "add", str(fastas[-1]), "--index", str(index_dir)]
    )
    query_fasta = fastas[0]
    # A query with another -k than the index's is a usage error.
    mismatch = ["index", "query", str(query_fasta), "--index", str(index_dir), "-k", "21"]
    run_cli_usage_error(
        [*mismatch, "--threshold", str(threshold)],
        f"index at {index_dir} was built with k=31, tool is configured for k=21",
    )
    # So are query inputs the command cannot take.
    query_flags = ["--index", str(index_dir), "--threshold", str(threshold)]
    run_cli_usage_error(
        ["index", "query", str(query_fasta), "--batch-file",
         str(workdir / "unused_list.txt"), *query_flags],
        "index query takes either positional FASTA files or --batch-file, not both",
    )
    run_cli_usage_error(
        ["index", "query", str(FASTA_DIR), *query_flags],
        f"index query takes exactly one query FASTA file, got {len(fastas)} "
        f"(pass a single file, not a directory, or use --batch-file for many)",
    )
    missing = workdir / "missing.fasta"
    run_cli_usage_error(
        ["index", "query", str(missing), *query_flags],
        f"missing input files: {missing}",
    )
    run_cli(
        [
            "index", "query", str(query_fasta), "--index", str(index_dir),
            "--threshold", str(threshold), "--json", str(query_json),
        ]
    )
    result = json.loads(query_json.read_text())

    # Fresh exact batch run over the same four samples, same order.
    exact_dir = workdir / "exact_reference"
    run_cli(
        [*map(str, fastas), "-o", str(exact_dir), "--tree", "none",
         "--estimator", "exact"]
    )
    similarity = np.load(exact_dir / "similarity.npy")
    names = [p.stem for p in fastas]
    from repro.service import SimilarityService

    service = SimilarityService.open(index_dir)
    if service.store.names != names:
        raise SystemExit(f"index holds {service.store.names}, the exact run {names}")
    matrix = service.all_pairs().similarity
    if not np.array_equal(matrix, similarity):
        raise SystemExit(
            f"index all_pairs() differs from the fresh exact run: max "
            f"|diff| = {float(np.abs(matrix - similarity).max()):.3g}"
        )
    qi = names.index(query_fasta.stem)
    expected = sorted(
        (
            (names[j], float(similarity[qi, j]))
            for j in range(len(names))
            if similarity[qi, j] >= threshold
        ),
        key=lambda pair: (-pair[1], names.index(pair[0])),
    )
    got = [(m["name"], m["similarity"]) for m in result["matches"]]
    if verbose:
        print(f"expected: {expected}")
        print(f"query returned: {got}")
    if [n for n, _ in got] != [n for n, _ in expected]:
        raise SystemExit(
            f"index query match set differs from the fresh exact run: "
            f"{[n for n, _ in got]} vs {[n for n, _ in expected]}"
        )
    for (gn, gs), (en, es) in zip(got, expected):
        if abs(gs - es) > 1e-9:
            raise SystemExit(
                f"index query similarity for {gn} differs from the fresh "
                f"exact run: {gs!r} vs {es!r}"
            )

    # Batched front end: every sample through one --batch-file run must
    # give the same answer the per-query path gives for that sample.
    per_query: dict[str, list[tuple[str, float]]] = {}
    for fasta in fastas:
        single_json = workdir / f"single_{fasta.stem}.json"
        run_cli(
            [
                "index", "query", str(fasta), "--index", str(index_dir),
                "--threshold", str(threshold), "--json", str(single_json),
            ]
        )
        single = json.loads(single_json.read_text())
        per_query[fasta.stem] = [
            (m["name"], m["similarity"]) for m in single["matches"]
        ]
    batch_list = workdir / "batch_queries.txt"
    batch_list.write_text("".join(f"{p}\n" for p in fastas))
    batch_json = workdir / "batch.json"
    run_cli(
        [
            "index", "query", "--batch-file", str(batch_list),
            "--index", str(index_dir),
            "--threshold", str(threshold), "--json", str(batch_json),
        ]
    )
    batch = json.loads(batch_json.read_text())
    if not batch.get("batched") or batch.get("n_queries") != len(fastas):
        raise SystemExit(
            f"--batch-file payload malformed: expected a batched run over "
            f"{len(fastas)} queries, got {batch!r}"
        )
    for entry in batch["queries"]:
        stem = Path(entry["query"]).stem
        got_b = [(m["name"], m["similarity"]) for m in entry["matches"]]
        want = per_query[stem]
        if [n for n, _ in got_b] != [n for n, _ in want]:
            raise SystemExit(
                f"batched query for {stem} returned a different match set "
                f"than the per-query path: "
                f"{[n for n, _ in got_b]} vs {[n for n, _ in want]}"
            )
        for (bn, bs), (_, ss) in zip(got_b, want):
            if abs(bs - ss) > 1e-9:
                raise SystemExit(
                    f"batched similarity for {stem}/{bn} differs from the "
                    f"per-query path: {bs!r} vs {ss!r}"
                )
    migrated = "; ".join(check_migrate(workdir / "migrate", v1) for v1 in V1_STORES)
    return (
        f"cli smoke ok [index]: build({len(fastas) - 1}) -> add(1) -> "
        f"query -k 21, FASTA beside --batch-file, directory query and "
        f"missing FASTA refused with exit 2 -> "
        f"all_pairs() equal to the fresh exact run; "
        f"query t={threshold:g} returned {len(got)} match(es) identical "
        f"to it "
        f"({result['n_candidates']} candidate(s), "
        f"{result['n_verified']} verified); --batch-file over "
        f"{len(fastas)} queries matched the per-query path; {migrated}"
    )


def check_migrate(index_dir: Path, v1_store: Path) -> str:
    """``index migrate`` on a copy of a committed format-1 store."""
    from repro.service import SimilarityService, StoreError

    shutil.rmtree(index_dir, ignore_errors=True)
    shutil.copytree(v1_store, index_dir)
    try:
        SimilarityService.open(index_dir)
    except StoreError as exc:
        if "index migrate" not in str(exc):
            raise SystemExit(f"the format-1 store's open error names no migration: {exc}")
    else:
        raise SystemExit(f"the format-1 store at {index_dir} opened unmigrated")
    run_cli(["index", "migrate", "--index", str(index_dir)])
    service = SimilarityService.open(index_dir)
    name = service.store.names[0]
    top = service.query(values=service.store.load_values(name), top_k=1)
    if [m.name for m in top.matches] != [name] or top.matches[0].similarity != 1.0:
        raise SystemExit(f"the migrated store does not find {name} as its own best match")
    files = {p: p.read_bytes() for p in index_dir.rglob("*") if p.is_file()}
    run_cli(["index", "migrate", "--index", str(index_dir)])
    if {p: p.read_bytes() for p in index_dir.rglob("*") if p.is_file()} != files:
        raise SystemExit("a second index migrate rewrote the store")
    return f"index migrate upgraded {v1_store.name} ({service.store.n_genomes} genomes)"


def check_shard(
    workdir: Path, threshold: float = 0.1, verbose: bool = False
) -> str:
    """Shard a live flat index in place; answers must not move."""
    fastas = sorted(FASTA_DIR.glob("*.fasta"))
    if len(fastas) < 2:
        raise SystemExit(f"need at least two smoke FASTA files in {FASTA_DIR}")

    def query_all(index_dir: Path, similarity: str, k: int, tag: str) -> dict:
        answers = {}
        for fasta in fastas:
            out_json = workdir / f"shard_{similarity}_{tag}_{fasta.stem}.json"
            run_cli(
                [
                    "index", "query", str(fasta), "--index", str(index_dir),
                    "--similarity", similarity, "-k", str(k),
                    "--threshold", str(threshold), "--json", str(out_json),
                ]
            )
            payload = json.loads(out_json.read_text())
            answers[fasta.stem] = [
                (m["name"], m["similarity"]) for m in payload["matches"]
            ]
        return answers

    # The weighted index uses short k-mers so that they repeat within a
    # sample: with abundances of 1 throughout, dropped counts cost nothing.
    for similarity, k in (("jaccard", 31), ("weighted_jaccard", 5)):
        index_dir = workdir / f"shard_index_{similarity}"
        if index_dir.exists():
            shutil.rmtree(index_dir)
        run_cli(
            [
                "index", "build", *map(str, fastas), "-k", str(k),
                "--index", str(index_dir), "--similarity", similarity,
            ]
        )
        before = query_all(index_dir, similarity, k, "flat")
        run_cli(["index", "shard", "--index", str(index_dir), "--shards", "2"])
        manifest = json.loads((index_dir / "manifest.json").read_text())
        if manifest.get("layout") != "sharded":
            raise SystemExit(
                f"index shard left no sharded manifest in {index_dir}: "
                f"layout = {manifest.get('layout')!r}"
            )
        after = query_all(index_dir, similarity, k, "sharded")
        if verbose:
            print(f"{similarity} flat answers: {before}")
            print(f"{similarity} sharded answers: {after}")
        for stem in before:
            if after[stem] != before[stem]:
                raise SystemExit(
                    f"{similarity} query for {stem} moved after index shard: "
                    f"{before[stem]} -> {after[stem]}"
                )
    return (
        f"cli smoke ok [shard]: build({len(fastas)}) -> shard(2) kept "
        f"every query t={threshold:g} answer identical across "
        f"{len(fastas)} samples, under jaccard and weighted_jaccard"
    )


#: The ``similarity`` section's legs: measure, k-mer length and the bound
#: type ``--json`` must report.  The weighted leg uses short k-mers so
#: that they repeat within a sample and the abundances matter.
SIMILARITY_LEGS = (
    ("containment", 31, "one_sided_window"),
    ("cosine", 31, "symmetric_window"),
    ("weighted_jaccard", 5, "mass_window"),
)


def check_similarity(
    workdir: Path, threshold: float = 0.1, verbose: bool = False
) -> str:
    """Each ``--similarity`` leg vs a fresh exact in-process reference."""
    from repro.genomics.counting import clean_sample_counts
    from repro.genomics.fasta import read_fasta
    from repro.semantics import get_measure

    fastas = sorted(FASTA_DIR.glob("*.fasta"))
    if len(fastas) < 2:
        raise SystemExit(f"need at least two smoke FASTA files in {FASTA_DIR}")
    checked = []
    for similarity, k, bound_type in SIMILARITY_LEGS:
        index_dir = workdir / f"{similarity}_index"
        if index_dir.exists():
            shutil.rmtree(index_dir)
        run_cli(
            [
                "index", "build", *map(str, fastas), "-k", str(k),
                "--index", str(index_dir), "--similarity", similarity,
            ]
        )

        # The reference uses the CLI's own k-mer front end (canonical
        # k-mers, default cleaning threshold) but scores with the
        # measure object directly; only weighted Jaccard reads counts.
        measure = get_measure(similarity)
        samples = {
            p.stem: clean_sample_counts(read_fasta(p), k)[:2] for p in fastas
        }
        if measure.weighted and all(
            (counts == 1).all() for _, counts in samples.values()
        ):
            raise SystemExit(
                f"k={k} leaves every abundance at 1: the {similarity} leg "
                f"would not exercise the counts"
            )
        n_checked = 0
        for query_fasta in fastas:
            out_json = workdir / f"{similarity}_{query_fasta.stem}.json"
            run_cli(
                [
                    "index", "query", str(query_fasta),
                    "--index", str(index_dir), "-k", str(k),
                    "--similarity", similarity,
                    "--threshold", str(threshold), "--json", str(out_json),
                ]
            )
            payload = json.loads(out_json.read_text())
            if payload.get("similarity") != similarity:
                raise SystemExit(
                    f"--json reports similarity="
                    f"{payload.get('similarity')!r}, expected {similarity!r}"
                )
            if payload.get("bound_type") != bound_type:
                raise SystemExit(
                    f"--json reports bound_type="
                    f"{payload.get('bound_type')!r}, expected {bound_type!r}"
                )
            q, q_counts = samples[query_fasta.stem]
            scores = {
                name: measure.exact_pair(q, c, q_counts, c_counts)
                for name, (c, c_counts) in samples.items()
            }
            expected = sorted(
                ((n, s) for n, s in scores.items() if s >= threshold),
                key=lambda pair: (-pair[1], pair[0]),
            )
            got = [(m["name"], m["similarity"]) for m in payload["matches"]]
            if verbose:
                print(
                    f"{similarity} {query_fasta.stem}: expected {expected}, "
                    f"got {got}"
                )
            if [n for n, _ in got] != [n for n, _ in expected]:
                raise SystemExit(
                    f"{similarity} query for {query_fasta.stem} differs from "
                    f"the fresh exact reference: {[n for n, _ in got]} vs "
                    f"{[n for n, _ in expected]}"
                )
            for (gn, gs), (_, es) in zip(got, expected):
                if abs(gs - es) > 1e-9:
                    raise SystemExit(
                        f"{similarity} similarity for {query_fasta.stem}/{gn} "
                        f"differs from the fresh exact reference: "
                        f"{gs!r} vs {es!r}"
                    )
            n_checked += len(got)
        checked.append(f"{similarity} {n_checked}")
    return (
        f"cli smoke ok [similarity]: queries over {len(fastas)} samples "
        f"returned match(es) ({', '.join(checked)}) identical to the fresh "
        f"exact reference, each with its bound type reported"
    )


def check(
    workdir: Path,
    sketch_size: int,
    verbose: bool = False,
    sections: tuple[str, ...] = SECTIONS,
) -> list[str]:
    out = []
    if "estimator" in sections:
        out.append(check_estimator(workdir, sketch_size, verbose))
    if "index" in sections:
        out.append(check_index(workdir, verbose=verbose))
    if "shard" in sections:
        out.append(check_shard(workdir, verbose=verbose))
    if "similarity" in sections:
        out.append(check_similarity(workdir, verbose=verbose))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="where to write the output trees (default: a temp dir)",
    )
    parser.add_argument(
        "--sketch-size",
        type=int,
        default=256,
        help="bottom-s size of the minhash run (default 256)",
    )
    parser.add_argument(
        "--section",
        choices=["all", *SECTIONS],
        default="all",
        help="which smoke section(s) to run (default all)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print the compared results"
    )
    args = parser.parse_args(argv)
    if not FASTA_DIR.is_dir():
        raise SystemExit(f"committed FASTA directory missing: {FASTA_DIR}")
    sections = SECTIONS if args.section == "all" else (args.section,)
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
        lines = check(args.workdir, args.sketch_size, args.verbose, sections)
    else:
        with tempfile.TemporaryDirectory(prefix="cli_smoke_") as tmp:
            lines = check(Path(tmp), args.sketch_size, args.verbose, sections)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
