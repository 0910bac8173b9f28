"""Command-line interface: ``genome-at-scale``.

Two modes:

* **batch** (the default, no subcommand): runs the full all-pairs
  pipeline on a directory of FASTA files against a configurable
  simulated machine and writes the similarity/distance matrices, a
  PHYLIP export, a Newick tree, and the BSP cost report.
* **index** (``genome-at-scale index build|add|query|shard|migrate``):
  the persistent serving layer — build an on-disk similarity index from
  FASTA samples (flat, or size-band sharded with ``--shards``), extend
  it incrementally (an add writes only the new genomes), answer
  threshold/top-k queries through the pruning cascade of
  :mod:`repro.service.query` (fanned out per band on a sharded index),
  migrate an existing flat index into size bands in place
  (``index shard``), and upgrade an index written in an older store
  format once (``index migrate``).

Query knobs are spelled under the canonical ``--query-*`` namespace
(``--query-prefilter``, ``--query-candidates``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.config import (
    QUERY_CANDIDATES,
    QUERY_PREFILTERS,
    SHARD_BAND_POLICIES,
    SIMILARITY_MEASURES,
    SimilarityConfig,
)
from repro.core.sketch import ESTIMATORS
from repro.runtime.codec import WIRE_CODECS
from repro.runtime.pipeline import PIPELINE_MODES
from repro.sparse.dispatch import KERNEL_POLICIES
from repro.genomics.fasta import is_fasta, sample_name
from repro.genomics.phylogeny import tree_to_newick
from repro.genomics.pipeline import GenomeAtScale
from repro.runtime.engine import Machine
from repro.runtime.machine import laptop, stampede2_knl


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genome-at-scale",
        description=(
            "Distributed Jaccard genetic distances over FASTA samples "
            "(SimilarityAtScale on a simulated BSP machine)."
        ),
    )
    parser.add_argument(
        "inputs", nargs="+", type=Path,
        help="FASTA files, or a single directory of .fasta/.fa/.fna(.gz) files",
    )
    parser.add_argument("-o", "--output", type=Path, required=True,
                        help="output directory")
    parser.add_argument("-k", type=int, default=31,
                        help="k-mer length (odd; default 31)")
    parser.add_argument("--min-count", type=int, default=1,
                        help="k-mer abundance threshold (default 1)")
    parser.add_argument("--machine", choices=["laptop", "stampede2"],
                        default="laptop", help="machine model preset")
    parser.add_argument("--nodes", type=int, default=1,
                        help="node count for the stampede2 preset")
    parser.add_argument("--ranks", type=int, default=4,
                        help="rank count for the laptop preset")
    parser.add_argument("--batches", type=int, default=None,
                        help="batch count (default: memory-driven)")
    parser.add_argument("--bit-width", type=int, default=64,
                        choices=[8, 16, 32, 64], help="bitmask width b")
    parser.add_argument(
        "--kernel-policy", choices=list(KERNEL_POLICIES), default="adaptive",
        help=(
            "local Gram kernel routing: adaptive picks per batch by "
            "post-filter density; the rest force one kernel"
        ),
    )
    parser.add_argument(
        "--pipeline", choices=list(PIPELINE_MODES), default="off",
        help=(
            "batch schedule: off = the paper's serial Listing 1 loop; "
            "double_buffer overlaps each batch's Gram accumulation with "
            "the next batch's read/filter/pack (results are identical)"
        ),
    )
    parser.add_argument(
        "--wire-codec", choices=list(WIRE_CODECS), default="raw",
        help=(
            "wire-format codec for distributed-Gram payloads: raw = the "
            "legacy format; varint/rle force one codec; adaptive picks "
            "per payload by modelled encoded size (results are identical "
            "under every choice; only modelled wire bytes change)"
        ),
    )
    parser.add_argument(
        "--estimator", choices=list(ESTIMATORS), default="exact",
        help=(
            "similarity estimator: exact = the paper's bit-matrix "
            "pipeline; minhash/bbit_minhash/hll ship per-sample "
            "sketches instead and estimate J with an analytic 95%% "
            "error bound (printed in the cost report)"
        ),
    )
    parser.add_argument(
        "--sketch-size", type=int, default=256,
        help=(
            "sketch budget per sample: bottom-s size (minhash), lane "
            "count (bbit_minhash), or register count (hll); the bound "
            "shrinks as 1/sqrt(size) (default 256)"
        ),
    )
    parser.add_argument(
        "--sketch-bits", type=int, default=8,
        help="bits kept per b-bit MinHash lane (default 8)",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help=(
            "keep no sample store under -o: the cleaned k-mer sets go "
            "straight into the engine (results equal the default run's)"
        ),
    )
    parser.add_argument("--tree", choices=["nj", "upgma", "none"],
                        default="nj", help="phylogeny method")
    return parser


def _add_index_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--index", type=Path, required=True,
                        help="index store directory")
    parser.add_argument("-k", type=int, default=31,
                        help="k-mer length (odd; default 31)")
    parser.add_argument("--min-count", type=int, default=1,
                        help="k-mer abundance threshold (default 1)")
    parser.add_argument("--machine", choices=["laptop", "stampede2"],
                        default="laptop", help="machine model preset")
    parser.add_argument("--nodes", type=int, default=1,
                        help="node count for the stampede2 preset")
    parser.add_argument("--ranks", type=int, default=4,
                        help="rank count for the laptop preset")
    parser.add_argument(
        "--similarity", choices=list(SIMILARITY_MEASURES),
        default="jaccard",
        help=(
            "similarity measure the index serves: jaccard (default), "
            "weighted_jaccard (k-mer abundances kept through cleaning "
            "and scored as mass min/max), containment (asymmetric, "
            "one-sided pruning bound), or cosine (Ochiai); every "
            "measure's final scores are exact"
        ),
    )


def build_index_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genome-at-scale index",
        description=(
            "Persistent similarity index: build, extend incrementally, "
            "and serve threshold/top-k queries (repro.service)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser(
        "build", help="create an index from FASTA samples"
    )
    build.add_argument(
        "inputs", nargs="+", type=Path,
        help="FASTA files, or a single directory of .fasta/.fa/.fna(.gz) files",
    )
    _add_index_common(build)
    build.add_argument(
        "--wire-codec", choices=list(WIRE_CODECS), default="adaptive",
        help="codec policy of the stored shards (default adaptive)",
    )
    build.add_argument(
        "--sketch-size", type=int, default=256,
        help="stored sketch budget per genome (default 256)",
    )
    build.add_argument(
        "--sketch-bits", type=int, default=8,
        help="bits per stored b-bit MinHash lane (default 8)",
    )
    build.add_argument(
        "--shards", type=int, default=1,
        help=(
            "split the new index into this many size-banded shards "
            "(default 1 = the classic flat layout); threshold queries "
            "then consult only the bands their size-ratio window "
            "overlaps"
        ),
    )
    build.add_argument(
        "--band-policy", choices=list(SHARD_BAND_POLICIES),
        default="quantile",
        help=(
            "how the shard band edges are planned (with --shards; "
            "default quantile = equal-count bands over the sample "
            "sizes, best load balance)"
        ),
    )

    add = sub.add_parser(
        "add", help="incrementally add FASTA samples to an index"
    )
    add.add_argument(
        "inputs", nargs="+", type=Path,
        help="FASTA files, or a single directory of .fasta/.fa/.fna(.gz) files",
    )
    _add_index_common(add)

    query = sub.add_parser(
        "query", help="threshold/top-k query of one sample against an index"
    )
    query.add_argument(
        "inputs", nargs="*", type=Path,
        help="the query FASTA file (omit when using --batch-file)",
    )
    _add_index_common(query)
    query.add_argument(
        "--batch-file", type=Path, default=None,
        help=(
            "file listing query FASTA paths (one per line, # comments "
            "allowed); all queries run as one batch against one store "
            "snapshot and results match per-query runs exactly"
        ),
    )
    query.add_argument(
        "--threshold", type=float, default=None,
        help="return every genome with J >= threshold",
    )
    query.add_argument(
        "--top-k", type=int, default=None,
        help="return the k most similar genomes",
    )
    query.add_argument(
        "--query-prefilter", choices=list(QUERY_PREFILTERS),
        default="cascade",
        help=(
            "cascade depth: off = brute-force exact; size = size-ratio "
            "bound only; cascade (default) adds the conservative sketch "
            "prefilter before exact verification"
        ),
    )
    query.add_argument(
        "--query-candidates", choices=list(QUERY_CANDIDATES),
        default="scan",
        help=(
            "candidate generator: scan (default) = every stored genome "
            "enters the cascade; lsh = probe the store's banded "
            "MinHash-LSH buckets first (sub-linear, approximate "
            "recall bounded by the band plan); lsh_exact = probe the "
            "buckets but keep the full scan (exact answers, LSH "
            "recall auditable from the counters)"
        ),
    )
    query.add_argument(
        "--estimator", choices=list(ESTIMATORS), default="exact",
        help=(
            "stored sketch family the prefilter estimates with (exact = "
            "the store's first family; the final similarities are exact "
            "in every case)"
        ),
    )
    query.add_argument(
        "--json", type=Path, default=None,
        help="also write the matches and cascade stats as JSON",
    )

    shard = sub.add_parser(
        "shard",
        help=(
            "migrate an existing flat index into size-banded shards "
            "in place (queries before and after are identical)"
        ),
    )
    shard.add_argument("--index", type=Path, required=True,
                       help="index store directory")
    shard.add_argument(
        "--shards", type=int, required=True,
        help="number of size-banded shards to split the index into",
    )
    shard.add_argument(
        "--band-policy", choices=list(SHARD_BAND_POLICIES),
        default="quantile",
        help=(
            "how the band edges are planned over the stored sizes "
            "(default quantile = equal-count bands)"
        ),
    )

    migrate = sub.add_parser(
        "migrate",
        help=(
            "upgrade an index written in an older store format in place, "
            "one way: its sketches are rebuilt from the stored values"
        ),
    )
    migrate.add_argument("--index", type=Path, required=True,
                         help="index store directory")
    return parser


def _build_tool(
    parser: argparse.ArgumentParser, args: argparse.Namespace, **config_overrides
) -> GenomeAtScale:
    """The machine, config and pipeline the parsed flags describe.

    A value the library rejects (``--batches 0``, ``-k 4``, ...) is a
    usage error: one ``error:`` line and exit status 2, no traceback.
    """
    try:
        if args.machine == "stampede2":
            spec = stampede2_knl(args.nodes)
        else:
            spec = laptop(args.ranks)
        return GenomeAtScale(
            machine=Machine(spec), config=SimilarityConfig(**config_overrides),
            k=args.k, min_count=args.min_count,
        )
    except ValueError as exc:
        parser.error(str(exc))


def _check_index(
    parser: argparse.ArgumentParser, tool: GenomeAtScale, index: Path
) -> None:
    """An ``--index`` the tool cannot use is a usage error too.

    That is an index built with another ``-k`` (or canonical mode, or
    ``--min-count``), or one that does not open: one ``error:`` line
    naming the value, exit status 2.
    """
    try:
        tool._open_index(index)
    except ValueError as exc:
        parser.error(str(exc))


def index_main(argv: list[str]) -> int:
    parser = build_index_parser()
    args = parser.parse_args(argv)
    inputs = getattr(args, "inputs", None)
    fasta_paths = collect_inputs(parser, inputs) if inputs else []
    if args.command == "migrate":
        from repro.service import migrate_store
        from repro.service.store import FORMAT_VERSION

        store = migrate_store(args.index)
        print(store.summary())
        print(f"\n{args.index} is in store format {FORMAT_VERSION}")
        return 0
    if args.command == "shard":
        from repro.service import shard_store

        store = shard_store(
            args.index, args.shards, band_policy=args.band_policy
        )
        print(store.summary())
        print(
            f"\nsharded {args.index} into {store.n_shards} size "
            f"band(s) [{args.band_policy}]; queries are unchanged"
        )
        return 0
    if args.command == "build":
        tool = _build_tool(
            parser, args, similarity=args.similarity, wire_codec=args.wire_codec,
            sketch_size=args.sketch_size, sketch_bits=args.sketch_bits,
            store_shards=args.shards, shard_band_policy=args.band_policy,
        )
        store = tool.build_index(fasta_paths, args.index)
        print(store.summary())
        print(f"\nindexed {store.n_genomes} sample(s) into {args.index}")
        return 0
    if args.command == "add":
        from repro.service import open_store

        tool = _build_tool(parser, args, similarity=args.similarity)
        _check_index(parser, tool, args.index)
        added = [entry.name for entry in tool.extend_index(args.index, fasta_paths)]
        print(
            f"added {len(added)} sample(s) ({', '.join(added)}): index now "
            f"holds {open_store(args.index).n_genomes} genome(s)"
        )
        return 0
    # query
    if args.threshold is None and args.top_k is None:
        parser.error("index query requires --threshold and/or --top-k")
    tool = _build_tool(
        parser, args, similarity=args.similarity,
        query_prefilter=args.query_prefilter, estimator=args.estimator,
        query_candidates=args.query_candidates,
    )
    _check_index(parser, tool, args.index)
    if args.batch_file is not None:
        if fasta_paths:
            parser.error(
                "index query takes either positional FASTA files or "
                "--batch-file, not both"
            )
        batch_paths = _read_batch_file(parser, args.batch_file)
        results = tool.query_index_batch(
            args.index, batch_paths,
            threshold=args.threshold, top_k=args.top_k,
        )
        for path, result in zip(batch_paths, results):
            print(f"== {path} ==")
            print(result.summary())
            label = _SCORE_LABELS.get(result.similarity_measure, "sim")
            for m in result.matches:
                print(f"  {m.name:<24} {label} = {m.similarity:.6f}")
            if not result.matches:
                print("  (no genome qualified)")
        if args.json is not None:
            payload = {
                "batched": True,
                "n_queries": len(results),
                "queries": [
                    _query_payload(path, result)
                    for path, result in zip(batch_paths, results)
                ],
            }
            args.json.parent.mkdir(parents=True, exist_ok=True)
            args.json.write_text(json.dumps(payload, indent=2) + "\n")
        return 0
    if len(fasta_paths) != 1:
        parser.error(
            f"index query takes exactly one query FASTA file, got "
            f"{len(fasta_paths)} (pass a single file, not a directory, "
            f"or use --batch-file for many)"
        )
    result = tool.query_index(
        args.index, fasta_paths[0],
        threshold=args.threshold, top_k=args.top_k,
    )
    print(result.summary())
    label = _SCORE_LABELS.get(result.similarity_measure, "sim")
    for m in result.matches:
        print(f"  {m.name:<24} {label} = {m.similarity:.6f}")
    if not result.matches:
        print("  (no genome qualified)")
    if args.json is not None:
        payload = _query_payload(fasta_paths[0], result)
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


#: Score label per measure in the human-readable match listing.
_SCORE_LABELS = {
    "jaccard": "J",
    "weighted_jaccard": "Jw",
    "containment": "C",
    "cosine": "cos",
}


def _read_batch_file(parser: argparse.ArgumentParser, path: Path) -> list[Path]:
    """The query FASTAs a ``--batch-file`` lists; a list file that is
    missing or empty, or that names a missing FASTA, is a usage error."""
    if not path.exists():
        parser.error(f"missing --batch-file: {path}")
    out = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        p = Path(line)
        if not p.exists():
            parser.error(f"missing query FASTA from {path}: {p}")
        out.append(p)
    if not out:
        parser.error(f"--batch-file {path} lists no query FASTA files")
    return out


def _query_payload(path: Path, result) -> dict:
    return {
        "query": str(path),
        "threshold": result.threshold,
        "top_k": result.top_k,
        "prefilter": result.prefilter,
        "estimator": result.estimator,
        "candidates": result.candidates,
        "similarity": result.similarity_measure,
        "bound_type": result.bound_type,
        "error_bound": result.error_bound,
        "n_candidates": result.n_candidates,
        "n_after_lsh": result.n_after_lsh,
        "n_after_size": result.n_after_size,
        "n_verified": result.n_verified,
        "pruning_ratio": result.pruning_ratio,
        "store_version": result.store_version,
        "matches": [
            {"name": m.name, "index": m.index,
             "similarity": m.similarity}
            for m in result.matches
        ],
    }


def collect_inputs(
    parser: argparse.ArgumentParser, inputs: list[Path]
) -> list[Path]:
    """The FASTA files ``inputs`` name: the ``.fasta``/``.fa``/``.fna``
    files of a single directory, gzipped or not, or the files
    themselves.  An empty directory, a missing file or two files of one
    sample name (``x.fa`` beside ``x.fa.gz``) is a usage error."""
    if len(inputs) == 1 and inputs[0].is_dir():
        found = sorted(p for p in inputs[0].iterdir() if is_fasta(p))
        if not found:
            parser.error(f"no FASTA files found in {inputs[0]}")
    else:
        found = inputs
        missing = [p for p in inputs if not p.exists()]
        if missing:
            parser.error(f"missing input files: {', '.join(map(str, missing))}")
    names = [sample_name(p) for p in found]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        parser.error(f"several input files hold sample {repeated[0]!r}")
    return found


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Dispatch to the index subcommands only when the second token is
    # one of them, so a FASTA file or directory literally named
    # "index" still reaches the batch parser.
    if argv[:1] == ["index"] and (
        len(argv) == 1
        or argv[1] in ("build", "add", "query", "shard", "migrate", "-h", "--help")
    ):
        return index_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    fasta_paths = collect_inputs(parser, args.inputs)
    tool = _build_tool(
        parser, args, batch_count=args.batches, bit_width=args.bit_width,
        kernel_policy=args.kernel_policy, pipeline=args.pipeline,
        wire_codec=args.wire_codec, estimator=args.estimator,
        sketch_size=args.sketch_size, sketch_bits=args.sketch_bits,
    )
    args.output.mkdir(parents=True, exist_ok=True)
    if args.stream:
        result = tool.run_streaming(fasta_paths)
    else:
        result = tool.run_fasta(fasta_paths, args.output)

    np.save(args.output / "similarity.npy", result.similarity)
    np.save(args.output / "distance.npy", result.distance)
    result.to_phylip(args.output / "distance.phylip")
    (args.output / "cost_report.txt").write_text(
        result.similarity_result.summary() + "\n"
    )
    if args.tree != "none":
        tree = result.tree(method=args.tree)
        (args.output / f"tree_{args.tree}.nwk").write_text(
            tree_to_newick(tree) + "\n"
        )
    print(result.similarity_result.summary())
    print(f"\nwrote results for {result.n_samples} samples to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
