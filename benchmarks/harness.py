#!/usr/bin/env python3
"""Modelled-cost report: the α-β ledger's predictions for every layer.

Runs the paper-shaped Fig. 2a/2b workloads (the dense Kingsford-like and
the hypersparse BIGSI-like cohort) through each layer of the stack and
appends one entry per section to ``<out-dir>/BENCH_<section>.json``.
Every recorded figure is a quantity of the simulated distributed
machine — modelled seconds, wire bytes, candidate counts, error against
the exact matrix, exactness flags — never a stopwatch reading: ``bench/``
is the repo's wall-clock benchmark.  ``tools/check_bench.py`` gates the
same files against ``benchmarks/thresholds.json``.

The sections of :data:`SECTIONS`, in run order:

* ``kernels`` — every kernel policy (``adaptive`` and the three fixed
  kernels): modelled wall clock, the kernel dispatch chose per batch,
  adaptive's speedup over the worst fixed kernel, plus a Fig. 3
  sparsity sweep across the blocked/outer crossover.
* ``pipeline`` — ``pipeline="off"`` vs ``"double_buffer"``: the overlap
  the double buffer hides and the resulting speedup (the results are
  bit-identical; only the schedule differs).
* ``wire`` — every wire codec: raw vs encoded wire bytes, and every
  codec's similarity matrix checked bit for bit against ``raw``.
* ``sketch`` — the error-vs-wire-bytes frontier of ``minhash`` /
  ``bbit_minhash`` / ``hll`` against the exact adaptive-codec run (the
  wire section's, handed over), and the best estimator within a 2 %
  mean-error budget.
* ``query`` — an on-disk index queried with each sample's values through
  the pruning cascade and by brute force: candidate pruning, exactness,
  modelled speedup.
* ``service`` — one ``query_batch`` against the same queries one by one:
  modelled cost and exactness.
* ``lsh`` — the banded MinHash-LSH probe against the size-ratio scan:
  candidate reduction, measured recall against the plan's analytic bound
  ``1 - (1 - t^r)^b``, and ``lsh_exact`` == brute force.
* ``shards`` — the store migrated in place to 1/4/8 quantile size bands
  and served by the per-band fan-out: modelled speedup over flat,
  band-selection pruning, answers bit-identical to flat.
* ``semantics`` — every similarity measure over abundance-annotated
  corpora: per-measure pruning and exactness against a per-pair
  brute-force reference.

Run:  python benchmarks/harness.py                     # full sizes; appends
                                                       # to BENCH_<section>.json
                                                       # at the repo root
      python benchmarks/harness.py --smoke --out-dir /tmp/bench_smoke
                                                       # tiny sizes (CI); a smoke
                                                       # run writes nothing
                                                       # without --out-dir
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import SimilarityConfig, jaccard_similarity
from repro.core.config import SIMILARITY_MEASURES
from repro.core.indicator import SyntheticSource
from repro.runtime import WIRE_CODECS, Machine, laptop, stampede2_knl
from repro.semantics import get_measure
from repro.semantics.wminhash import WEIGHTED_MINHASH_FAMILY
from repro.service import (
    IndexStore,
    ShardedSimilarityIndex,
    SimilarityIndex,
    shard_store,
)
from repro.sparse.dispatch import KERNEL_POLICIES

# Every size table below is a ``(full, smoke)`` pair, indexed by the
# ``smoke`` flag itself.

#: The two Fig. 2 regimes, scaled so the kernels genuinely execute in
#: seconds while preserving the paper's density contrast: the
#: Kingsford-like cohort is dense after zero-row filtering (the Eq. 7
#: popcount regime), the BIGSI-like cohort hypersparse and heavy-tailed
#: (most sample pairs share nothing).
WORKLOADS = (
    {
        "fig2a_kingsford_like": dict(
            figure="Fig. 2a (dense regime)",
            m=12_000, n=256, density=0.35, skew=None, seed=11,
            nodes=2, ranks_per_node=4, batch_count=4,
        ),
        "fig2b_bigsi_like": dict(
            figure="Fig. 2b (hypersparse regime)",
            m=2_000_000, n=512, density=2e-5, skew=1.5, seed=13,
            nodes=4, ranks_per_node=4, batch_count=4,
        ),
    },
    {
        "fig2a_kingsford_like": dict(
            figure="Fig. 2a (dense regime)",
            m=2_000, n=64, density=0.2, skew=None, seed=11,
            nodes=1, ranks_per_node=4, batch_count=2,
        ),
        "fig2b_bigsi_like": dict(
            figure="Fig. 2b (hypersparse regime)",
            m=50_000, n=128, density=1e-4, skew=1.5, seed=13,
            nodes=1, ranks_per_node=4, batch_count=2,
        ),
    },
)

FIXED_POLICIES = tuple(p for p in KERNEL_POLICIES if p != "adaptive")

#: Fig. 3-style sparsity sweep ``(densities, shape)``: densities
#: straddling the blocked/outer crossover, adaptive policy only.
SWEEP = (
    (
        (1e-4, 1e-3, 5e-3, 2e-2, 5e-2, 0.15),
        dict(m=30_000, n=128, nodes=2, ranks_per_node=4, batch_count=2, seed=17),
    ),
    (
        (1e-3, 5e-2),
        dict(m=3_000, n=64, nodes=1, ranks_per_node=4, batch_count=2, seed=17),
    ),
)

#: Batch count of the pipeline comparison: more batches than the kernel
#: section so the non-overlappable first prepare / last Gram amortize,
#: as they would on the paper's full-size runs (hundreds of batches,
#: §V-B).
PIPELINE_BATCHES = (8, 3)

#: The sketch frontier: every estimator the config accepts, sized so the
#: b-bit path lands inside the 2 % mean-error budget on the dense Fig. 2a
#: regime (the bound shrinks as 1/sqrt(size); b=8 keeps the wire at one
#: byte per lane).
SKETCH_CONFIGS = (
    {
        "minhash": dict(sketch_size=512),
        "bbit_minhash": dict(sketch_size=512, sketch_bits=8),
        "hll": dict(sketch_size=4096),
    },
    {
        "minhash": dict(sketch_size=128),
        "bbit_minhash": dict(sketch_size=256, sketch_bits=8),
        "hll": dict(sketch_size=512),
    },
)

#: The threshold every serving section answers at: above the workloads'
#: background similarity, so the pruning stages have something to prune,
#: while every query still matches its own stored copy (queries go by
#: values, so the self pair must survive the whole cascade with J = 1).
#: The LSH tables are *planned* at the store default t=0.5; the recall
#: bound the lsh section reports is the plan's curve evaluated at this
#: threshold, the valid lower bound for every true match.
THRESHOLD = 0.3

#: Queries issued per workload; the semantics section checks every
#: answer against a per-pair Python reference, so it issues fewer.
N_QUERIES = {"fig2a_kingsford_like": (48, 12), "fig2b_bigsi_like": (64, 16)}
SEMANTICS_QUERIES = {"fig2a_kingsford_like": (24, 8), "fig2b_bigsi_like": (32, 10)}

#: Band counts of the shards section: the degenerate single band (must
#: behave exactly like the flat store), the balanced mid case, and the
#: gated 8-band fan-out.
SHARD_COUNTS = (1, 4, 8)


def _machine(spec: dict) -> Machine:
    if spec["nodes"] <= 1 and spec["ranks_per_node"] <= 4:
        return Machine(laptop(spec["ranks_per_node"]))
    return Machine(stampede2_knl(spec["nodes"], ranks_per_node=spec["ranks_per_node"]))


def _source(spec: dict) -> SyntheticSource:
    kwargs = dict(m=spec["m"], n=spec["n"], density=spec["density"], seed=spec["seed"])
    if spec.get("skew"):
        kwargs["density_skew"] = spec["skew"]
    return SyntheticSource(**kwargs)


def _run(spec: dict, gather: bool = False, batch_count: int | None = None, **config):
    """One all-pairs run of a workload on its own modelled machine."""
    return jaccard_similarity(
        _source(spec),
        machine=_machine(spec),
        config=SimilarityConfig(
            batch_count=batch_count or spec["batch_count"],
            gather_result=gather, compute_distance=False, **config,
        ),
    )


def section(title: str, workload):
    """A section runner: ``workload(name, spec, smoke)`` per Fig. 2 workload."""

    def run(smoke: bool) -> dict:
        records = {}
        for name, spec in WORKLOADS[smoke].items():
            print(f"== {name} ({spec['figure']}) {title} ==")
            records[name] = workload(name, dict(spec), smoke)
        return records

    return run


# ---- all-pairs sections -----------------------------------------------------


def run_policy(spec: dict, policy: str) -> dict:
    """One (workload, kernel policy) measurement."""
    result = _run(spec, kernel_policy=policy)
    spgemm = result.cost.phases.get("spgemm")
    return {
        "simulated_seconds": result.simulated_seconds,
        "mean_batch_seconds": result.mean_batch_seconds,
        "spgemm_seconds": spgemm.seconds if spgemm else 0.0,
        "kernels": [b.kernel for b in result.batches],
        "batch_densities": [round(b.density, 6) for b in result.batches],
        "planned_kernel": result.planned_kernel,
        "grid": f"{result.grid_q}x{result.grid_q}x{result.grid_c}",
    }


def kernels_workload(name: str, spec: dict, smoke: bool) -> dict:
    """Every kernel policy on one workload, plus adaptive vs fixed."""
    policies = {}
    for policy in KERNEL_POLICIES:
        rec = policies[policy] = run_policy(spec, policy)
        print(
            f"  {name:<24} {policy:<10} sim {rec['simulated_seconds']:.4f}s  "
            f"kernels {'/'.join(sorted(set(rec['kernels'])))}"
        )
    adaptive = policies["adaptive"]["simulated_seconds"]
    fixed = {p: policies[p]["simulated_seconds"] for p in FIXED_POLICIES}
    worst = max(fixed, key=fixed.get)
    summary = {
        "adaptive_simulated_seconds": adaptive,
        "worst_fixed_policy": worst,
        "worst_fixed_simulated_seconds": fixed[worst],
        "best_fixed_policy": min(fixed, key=fixed.get),
        "adaptive_speedup_vs_worst_fixed": (
            fixed[worst] / adaptive if adaptive > 0 else float("inf")
        ),
        "adaptive_kernels": sorted(set(policies["adaptive"]["kernels"])),
    }
    print(
        f"  -> adaptive {summary['adaptive_speedup_vs_worst_fixed']:.2f}x "
        f"over worst fixed ({worst})"
    )
    return {"params": spec, "policies": policies, "summary": summary}


def run_kernels(smoke: bool) -> dict:
    """The kernel section: every workload, then the Fig. 3 sweep."""
    records = section("kernel policies", kernels_workload)(smoke)
    print("== fig3_sparsity_sweep ==")
    densities, shape = SWEEP[smoke]
    points = []
    for density in densities:
        res = run_policy(dict(shape, density=density, skew=None), "adaptive")
        points.append(
            {
                "density": density,
                "kernels": res["kernels"],
                "batch_densities": res["batch_densities"],
                "simulated_seconds": res["simulated_seconds"],
            }
        )
        print(f"  sweep density {density:<8g} -> {'/'.join(sorted(set(res['kernels'])))}")
    records["fig3_sparsity_sweep"] = {"points": points}
    return records


def pipeline_workload(name: str, spec: dict, smoke: bool) -> dict:
    """Both batch schedules on one workload, plus off vs double buffer."""
    batch_count = PIPELINE_BATCHES[smoke]
    modes = {}
    for mode in ("off", "double_buffer"):
        result = _run(spec, batch_count=batch_count, pipeline=mode)
        modes[mode] = {
            "simulated_seconds": result.simulated_seconds,
            "mean_batch_seconds": result.mean_batch_seconds,
            "overlap_saved_seconds": result.overlap_saved_seconds,
            "batch_prepare_seconds": [round(b.prepare_seconds, 6) for b in result.batches],
            "batch_gram_seconds": [round(b.gram_seconds, 6) for b in result.batches],
            "batch_overlap_saved_seconds": [
                round(b.overlap_saved_seconds, 6) for b in result.batches
            ],
        }
        print(
            f"  {name:<24} {mode:<14} sim {result.simulated_seconds:.4f}s  "
            f"overlap hid {result.overlap_saved_seconds:.4f}s"
        )
    serial = modes["off"]["simulated_seconds"]
    piped = modes["double_buffer"]["simulated_seconds"]
    summary = {
        "serial_simulated_seconds": serial,
        "double_buffer_simulated_seconds": piped,
        "overlap_saved_seconds": modes["double_buffer"]["overlap_saved_seconds"],
        "speedup": serial / piped if piped > 0 else float("inf"),
    }
    print(f"  -> double_buffer {summary['speedup']:.2f}x over serial")
    return {
        "params": dict(spec, batch_count=batch_count),
        "modes": modes,
        "summary": summary,
    }


#: Each workload's exact adaptive-codec run ``(record, similarity)``,
#: left by the wire section for the sketch section (one exact run per
#: workload instead of two).
_exact_runs: dict[tuple[bool, str], tuple[dict, np.ndarray]] = {}


def run_wire_policy(spec: dict, policy: str) -> tuple[dict, np.ndarray]:
    """One (workload, wire codec) run: its record and gathered matrix."""
    result = _run(spec, gather=True, wire_codec=policy)
    record = {
        "simulated_seconds": result.simulated_seconds,
        "communication_bytes": result.cost.communication_bytes,
        "wire_raw_bytes": result.wire_raw_bytes,
        "wire_encoded_bytes": result.wire_encoded_bytes,
        "wire_codec_breakdown": {
            name: {"raw_bytes": raw, "encoded_bytes": enc}
            for name, (raw, enc) in result.cost.wire_codec_totals.items()
        },
    }
    return record, result.similarity


def wire_workload(name: str, spec: dict, smoke: bool) -> dict:
    """Every wire codec on one workload, plus raw vs adaptive."""
    policies = {}
    reference = None
    for policy in WIRE_CODECS:
        record, similarity = run_wire_policy(spec, policy)
        if policy == "raw":
            reference = similarity
        else:
            record["bit_exact_vs_raw"] = bool(np.array_equal(reference, similarity))
        policies[policy] = record
        enc = record["wire_encoded_bytes"]
        ratio = record["wire_raw_bytes"] / enc if enc else 1.0
        print(
            f"  {name:<24} {policy:<10} "
            f"comm {record['communication_bytes']:.3g} B  "
            f"wire {record['wire_raw_bytes']:.3g} -> {enc:.3g} B ({ratio:.2f}x)"
        )
    adaptive = policies["adaptive"]
    _exact_runs[smoke, name] = (adaptive, reference)
    reduction = (
        adaptive["wire_raw_bytes"] / adaptive["wire_encoded_bytes"]
        if adaptive["wire_encoded_bytes"]
        else 1.0
    )
    bit_exact = all(r.get("bit_exact_vs_raw", True) for r in policies.values())
    summary = {
        "raw_communication_bytes": policies["raw"]["communication_bytes"],
        "adaptive_communication_bytes": adaptive["communication_bytes"],
        "adaptive_wire_raw_bytes": adaptive["wire_raw_bytes"],
        "adaptive_wire_encoded_bytes": adaptive["wire_encoded_bytes"],
        "wire_reduction_raw_vs_adaptive": reduction,
        "all_policies_bit_exact": bit_exact,
    }
    print(f"  -> adaptive keeps {reduction:.2f}x off the wire (bit-exact: {bit_exact})")
    return {"params": spec, "policies": policies, "summary": summary}


def sketch_workload(name: str, spec: dict, smoke: bool) -> dict:
    """Every sketch estimator vs the exact adaptive-codec run."""
    exact_record, exact = _exact_runs.pop((smoke, name), None) or run_wire_policy(
        spec, "adaptive"
    )
    exact_wire = exact_record["wire_encoded_bytes"]
    print(f"  {name:<24} {'exact':<14} wire {exact_wire:.3g} B (adaptive codec baseline)")
    estimators = {}
    for estimator, kwargs in SKETCH_CONFIGS[smoke].items():
        result = _run(
            spec, gather=True, wire_codec="adaptive", estimator=estimator, **kwargs
        )
        err = np.abs(result.similarity - exact)[~np.eye(result.n, dtype=bool)]
        enc = result.wire_encoded_bytes
        rec = estimators[estimator] = {
            "sketch_params": dict(kwargs),
            "simulated_seconds": result.simulated_seconds,
            "communication_bytes": result.cost.communication_bytes,
            "wire_raw_bytes": result.wire_raw_bytes,
            "wire_encoded_bytes": enc,
            "sketch_payload_bytes": result.sketch_payload_bytes,
            "mean_abs_error": float(err.mean()),
            "max_abs_error": float(err.max()),
            "error_bound_95": result.error_bound,
            "wire_reduction_vs_exact": exact_wire / enc if enc else float("inf"),
        }
        print(
            f"  {name:<24} {estimator:<14} wire {enc:.3g} B "
            f"({rec['wire_reduction_vs_exact']:.1f}x less)  "
            f"mae {rec['mean_abs_error']:.4f} (bound {rec['error_bound_95']:.4f})"
        )
    in_budget = {e: r for e, r in estimators.items() if r["mean_abs_error"] <= 0.02}
    best = (
        max(in_budget, key=lambda e: in_budget[e]["wire_reduction_vs_exact"])
        if in_budget
        else None
    )
    summary = {
        "exact_wire_encoded_bytes": exact_wire,
        "exact_communication_bytes": exact_record["communication_bytes"],
        "best_estimator_within_2pct": best,
        "best_wire_reduction_vs_exact": (
            in_budget[best]["wire_reduction_vs_exact"] if best else 0.0
        ),
        "best_mean_abs_error": in_budget[best]["mean_abs_error"] if best else 1.0,
    }
    if best:
        print(
            f"  -> {best} keeps {summary['best_wire_reduction_vs_exact']:.1f}x "
            f"off the wire at {summary['best_mean_abs_error']:.4f} mean error"
        )
    else:
        print("  -> no estimator met the 2% mean-error budget")
    return {"params": spec, "estimators": estimators, "summary": summary}


# ---- serving sections -------------------------------------------------------


def _materialize_values(source) -> list[np.ndarray]:
    """Every sample's full sorted value set, read through the source."""
    per_sample: dict[int, np.ndarray] = {}
    n_readers = 4
    for r in range(n_readers):
        coo = source.read_batch(0, source.m, r, n_readers)
        for j in np.unique(coo.cols):
            per_sample[int(j)] = np.unique(coo.rows[coo.cols == j])
    return [per_sample.get(j, np.empty(0, dtype=np.int64)) for j in range(source.n)]


@contextmanager
def _indexed(spec: dict, families=("minhash",), weighted: bool = False):
    """The workload's samples persisted into a temporary on-disk index.

    Yields ``(store, values, counts)``: genome ``s{j:05d}`` holds the
    sorted value set ``values[j]``; ``counts`` are synthetic k-mer
    abundances when ``weighted``, else ``None``.
    """
    values = _materialize_values(_source(spec))
    genomes = [(f"s{j:05d}", vals) for j, vals in enumerate(values)]
    counts = None
    if weighted:
        rng = np.random.default_rng(spec["seed"] + 101)
        counts = [rng.integers(1, 6, size=v.size).astype(np.int64) for v in values]
        genomes = [g + (c,) for g, c in zip(genomes, counts)]
    with tempfile.TemporaryDirectory(prefix="bench_index_") as tmp:
        store = IndexStore.create(
            Path(tmp) / "index", m=spec["m"], codec="adaptive",
            families=families, sketch_size=256,
        )
        store.append_many(genomes)
        yield store, values, counts


def _engine(store, machine: Machine, **config) -> SimilarityIndex:
    """A query engine over ``store`` with its result cache off."""
    return SimilarityIndex(
        store, machine=machine, config=SimilarityConfig(query_cache_size=0, **config)
    )


def _hits(result) -> list[tuple[str, float]]:
    return [(m.name, m.similarity) for m in result.matches]


def _serving(name: str, smoke: bool, queries: dict = N_QUERIES) -> dict:
    """The serving parameters a section adds to a workload's params."""
    return {"threshold": THRESHOLD, "n_queries": queries[name][smoke]}


def query_workload(name: str, spec: dict, smoke: bool) -> dict:
    """Serve one workload from an on-disk index: cascade vs brute force."""
    qspec = _serving(name, smoke)
    with _indexed(spec) as (store, values, _):
        machine = _machine(spec)
        cascade = _engine(store, machine, query_prefilter="cascade")
        brute = _engine(store, machine, query_prefilter="off")
        q = min(qspec["n_queries"], spec["n"])
        candidates = verified = matches = 0
        cascade_sim = brute_sim = 0.0
        exact = True
        for vals in values[:q]:
            res = cascade.query_values(vals, threshold=THRESHOLD)
            ref = brute.query_values(vals, threshold=THRESHOLD)
            cascade_sim += res.simulated_seconds
            brute_sim += ref.simulated_seconds
            candidates += res.n_candidates
            verified += res.n_verified
            matches += len(res.matches)
            exact = exact and _hits(res) == _hits(ref)
        pruning = candidates / max(verified, 1)
        summary = {
            "threshold": THRESHOLD,
            "n_queries": q,
            "n_genomes": spec["n"],
            "total_candidates": candidates,
            "total_verified": verified,
            "total_matches": matches,
            "pruning_ratio": pruning,
            "exact_vs_bruteforce": bool(exact),
            "mean_simulated_seconds_cascade": cascade_sim / q,
            "mean_simulated_seconds_bruteforce": brute_sim / q,
            "simulated_speedup_vs_bruteforce": (
                brute_sim / cascade_sim if cascade_sim > 0 else float("inf")
            ),
            "store_bytes": store.total_bytes(),
        }
    print(
        f"  {name:<24} t={THRESHOLD:<5g} {q} queries: "
        f"{pruning:.1f}x pruning ({candidates} -> {verified} verified), "
        f"{matches} match(es), exact={exact}, modelled "
        f"{summary['simulated_speedup_vs_bruteforce']:.1f}x over brute force"
    )
    return {"params": dict(spec, **qspec), "summary": summary}


def service_workload(name: str, spec: dict, smoke: bool) -> dict:
    """One ``query_batch`` vs the same queries one by one, over one index
    at the ``size`` prefilter, both pinned to brute force."""
    sspec = _serving(name, smoke)
    with _indexed(spec) as (store, values, _):
        queries = values[: sspec["n_queries"]]
        q = len(queries)
        # Serial reference: the per-query engine, one query at a time.
        serial = _engine(store, _machine(spec), query_prefilter="size")
        serial_results = [serial.query_values(v, threshold=THRESHOLD) for v in queries]
        serial_sim = sum(r.simulated_seconds for r in serial_results)
        serial_keys = [_hits(r) for r in serial_results]
        # Brute force pins exactness independently of the size window.
        brute = _engine(store, _machine(spec), query_prefilter="off")
        exact_vs_bruteforce = all(
            _hits(brute.query_values(v, threshold=THRESHOLD)) == keys
            for v, keys in zip(queries, serial_keys)
        )
        batch = _engine(store, _machine(spec), query_prefilter="size")
        results = batch.query_batch(queries, threshold=THRESHOLD)
        batch_sim = sum(r.simulated_seconds for r in results)
        exact_vs_perquery = all(
            _hits(r) == keys for r, keys in zip(results, serial_keys)
        )
    summary = {
        "threshold": THRESHOLD,
        "n_queries": q,
        "n_genomes": spec["n"],
        "prefilter": "size",
        "serial_simulated_seconds": serial_sim,
        "serial_queries_per_simulated_second": q / serial_sim if serial_sim > 0 else 0.0,
        "batch_simulated_seconds": batch_sim,
        "batched_speedup_vs_serial": serial_sim / batch_sim if batch_sim > 0 else 0.0,
        "exact_vs_perquery": exact_vs_perquery,
        "exact_vs_bruteforce": exact_vs_bruteforce,
    }
    print(
        f"  {name:<24} {q} queries in one batch: "
        f"{summary['batched_speedup_vs_serial']:.2f}x modelled over serial, "
        f"exact={exact_vs_perquery and exact_vs_bruteforce}"
    )
    return {"params": dict(spec, **sspec), "summary": summary}


def lsh_workload(name: str, spec: dict, smoke: bool) -> dict:
    """LSH probe vs size-ratio scan vs brute force over one index."""
    lspec = _serving(name, smoke)
    with _indexed(spec, families=("minhash", "bbit_minhash")) as (store, values, _):
        plan = store.lsh_table().plan

        def engine(prefilter, candidates):
            return _engine(
                store, _machine(spec),
                query_prefilter=prefilter, query_candidates=candidates,
            )

        scan = engine("size", "scan")
        probe = engine("size", "lsh")
        audit = engine("size", "lsh_exact")
        brute = engine("off", "scan")
        q = min(lspec["n_queries"], spec["n"])
        scan_after_size = lsh_after_size = lsh_probed = 0
        scan_sim = lsh_sim = 0.0
        true_matches = retrieved_true = 0
        audit_exact = True
        for vals in values[:q]:
            ref = brute.query_values(vals, threshold=THRESHOLD)
            s = scan.query_values(vals, threshold=THRESHOLD)
            p = probe.query_values(vals, threshold=THRESHOLD)
            a = audit.query_values(vals, threshold=THRESHOLD)
            scan_after_size += s.n_after_size
            lsh_after_size += p.n_after_size
            lsh_probed += p.n_after_lsh or 0
            scan_sim += s.simulated_seconds
            lsh_sim += p.simulated_seconds
            got = {m.name for m in p.matches}
            true_matches += len(ref.matches)
            retrieved_true += sum(m.name in got for m in ref.matches)
            audit_exact = audit_exact and _hits(a) == _hits(ref)
    bound = plan.recall_at(THRESHOLD)
    measured = retrieved_true / true_matches if true_matches else 1.0
    summary = {
        "threshold": THRESHOLD,
        "n_queries": q,
        "n_genomes": spec["n"],
        "bands": plan.bands,
        "rows": plan.rows,
        "lsh_threshold": plan.threshold,
        "scan_candidates_after_size": scan_after_size,
        "lsh_candidates_after_probe": lsh_probed,
        "lsh_candidates_after_size": lsh_after_size,
        "candidate_reduction_vs_scan": scan_after_size / max(lsh_after_size, 1),
        "analytic_recall_bound": bound,
        "true_matches": true_matches,
        "measured_recall": measured,
        "recall_meets_analytic_bound": bool(measured >= bound - 1e-9),
        "lsh_exact_vs_bruteforce": bool(audit_exact),
        "simulated_seconds_scan": scan_sim,
        "simulated_seconds_lsh": lsh_sim,
        "modelled_speedup_vs_scan": scan_sim / lsh_sim if lsh_sim > 0 else float("inf"),
    }
    print(
        f"  {name:<24} t={THRESHOLD:<5g} {q} queries: LSH keeps "
        f"{lsh_after_size} of {scan_after_size} scan candidate(s) "
        f"({summary['candidate_reduction_vs_scan']:.1f}x reduction), "
        f"recall {measured:.3f} >= bound {bound:.3f}: "
        f"{summary['recall_meets_analytic_bound']}, lsh_exact==brute: {audit_exact}"
    )
    return {"params": dict(spec, **lspec), "summary": summary}


def shards_workload(name: str, spec: dict, smoke: bool) -> dict:
    """Flat vs 1/4/8-band sharded serving over one migrated index."""
    shspec = dict(_serving(name, smoke), shard_counts=SHARD_COUNTS)
    with _indexed(spec) as (store, values, _):
        queries = values[: shspec["n_queries"]]
        # Every engine gets its own fresh machine: simulated_seconds is a
        # makespan delta on that machine's rank clocks, so sharing one
        # machine across engines would telescope the comparisons.
        flat = _engine(store, _machine(spec))
        flat_sim = 0.0
        flat_candidates = 0
        flat_matches = []
        for vals in queries:
            r = flat.query_values(vals, threshold=THRESHOLD)
            flat_sim += r.simulated_seconds
            flat_candidates += r.n_candidates
            flat_matches.append(_hits(r))
        per_shards = {}
        for n_shards in SHARD_COUNTS:
            sh_root = store.root.parent / f"sh{n_shards}"
            shutil.copytree(store.root, sh_root)
            sh = shard_store(sh_root, n_shards)  # quantile bands, in place
            engine = ShardedSimilarityIndex(
                sh, machine=_machine(spec), config=SimilarityConfig(query_cache_size=0)
            )
            sim = 0.0
            candidates = 0
            exact = True
            for vals, ref in zip(queries, flat_matches):
                r = engine.query_values(vals, threshold=THRESHOLD)
                sim += r.simulated_seconds
                candidates += r.n_candidates
                exact = exact and _hits(r) == ref
            per_shards[str(n_shards)] = {
                "simulated_seconds": sim,
                "total_candidates": candidates,
                "exact_vs_flat": bool(exact),
                "shard_occupancy": [s.n_genomes for s in sh.shards],
            }
    at8 = per_shards[str(max(SHARD_COUNTS))]
    exact_all = all(s["exact_vs_flat"] for s in per_shards.values())
    summary = {
        "threshold": THRESHOLD,
        "n_queries": len(queries),
        "n_genomes": spec["n"],
        "shard_counts": list(SHARD_COUNTS),
        "flat_simulated_seconds": flat_sim,
        "flat_total_candidates": flat_candidates,
        "per_shards": per_shards,
        "fanout_speedup_at_8": (
            flat_sim / at8["simulated_seconds"]
            if at8["simulated_seconds"] > 0
            else float("inf")
        ),
        "candidate_pruning_at_8": flat_candidates / max(at8["total_candidates"], 1),
        "exact_at_all_shard_counts": exact_all,
    }
    print(
        f"  {name:<24} t={THRESHOLD:<5g} {len(queries)} queries: "
        f"8-band fan-out {summary['fanout_speedup_at_8']:.2f}x modelled "
        f"over flat, band selection keeps "
        f"{at8['total_candidates']} of {flat_candidates} candidate(s) "
        f"({summary['candidate_pruning_at_8']:.1f}x pruning), "
        f"exact at {summary['shard_counts']}: {exact_all}"
    )
    return {"params": dict(spec, **shspec), "summary": summary}


def semantics_workload(name: str, spec: dict, smoke: bool) -> dict:
    """Every similarity measure's cascade vs per-pair brute force."""
    sespec = _serving(name, smoke, SEMANTICS_QUERIES)
    families = ("minhash", WEIGHTED_MINHASH_FAMILY)
    with _indexed(spec, families=families, weighted=True) as (store, values, counts):
        q = min(sespec["n_queries"], spec["n"])
        machine = _machine(spec)
        summary: dict = {"threshold": THRESHOLD, "n_queries": q}
        per_measure = {}
        for measure_name in SIMILARITY_MEASURES:
            measure = get_measure(measure_name)
            engine = _engine(
                store, machine, similarity=measure_name, query_prefilter="cascade"
            )
            weighted = measure.weighted
            candidates = verified = matches = 0
            exact = True
            sim = 0.0
            for j in range(q):
                res = engine.query_values(
                    values[j], threshold=THRESHOLD, counts=counts[j] if weighted else None
                )
                sim += res.simulated_seconds
                candidates += res.n_candidates
                verified += res.n_verified
                matches += len(res.matches)
                # Independent per-pair reference straight off the measure.
                ref = []
                for i, (vals, cnts) in enumerate(zip(values, counts)):
                    score = (
                        measure.exact_pair(values[j], vals, counts[j], cnts)
                        if weighted
                        else measure.exact_pair(values[j], vals)
                    )
                    if score >= THRESHOLD:
                        ref.append((f"s{i:05d}", score))
                ref.sort(key=lambda kv: (-kv[1], kv[0]))
                got = _hits(res)
                exact = exact and (
                    [n for n, _ in got] == [n for n, _ in ref]
                    and all(abs(a - b) < 1e-9 for (_, a), (_, b) in zip(got, ref))
                )
            pruning = candidates / max(verified, 1)
            per_measure[measure_name] = {
                "bound_type": measure.bound_type,
                "total_candidates": candidates,
                "total_verified": verified,
                "total_matches": matches,
                "pruning_ratio": pruning,
                "exact_vs_bruteforce": bool(exact),
                "mean_simulated_seconds": sim / q,
            }
            summary[f"pruning_{measure_name}"] = pruning
            summary[f"exact_{measure_name}"] = bool(exact)
            print(
                f"  {name:<24} {measure_name:<17} "
                f"({measure.bound_type}): {pruning:.1f}x pruning "
                f"({candidates} -> {verified} verified), {matches} match(es), "
                f"exact={exact}"
            )
    summary["all_measures_exact"] = all(
        m["exact_vs_bruteforce"] for m in per_measure.values()
    )
    return {"params": dict(spec, **sespec), "measures": per_measure, "summary": summary}


#: The report: section name -> ``run(smoke) -> {workload: record}``, in
#: run order (``wire`` hands its exact runs to ``sketch``).  Section
#: ``x`` appends to ``BENCH_x.json``, the file ``tools/check_bench.py``
#: gates for it.
SECTIONS = {
    "kernels": run_kernels,
    "pipeline": section("batch schedules", pipeline_workload),
    "wire": section("wire codecs", wire_workload),
    "sketch": section("sketch estimators", sketch_workload),
    "query": section("threshold queries", query_workload),
    "service": section("batched queries", service_workload),
    "lsh": section("LSH candidate index", lsh_workload),
    "shards": section("sharded fan-out", shards_workload),
    "semantics": section("similarity measures", semantics_workload),
}


def append_entry(entry: dict, output: Path) -> None:
    """Append one trajectory entry to a persistent benchmark file."""
    data = json.loads(output.read_text()) if output.exists() else {"schema": 1, "runs": []}
    data["runs"].append(entry)
    output.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {output} ({len(data['runs'])} run(s) recorded)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes (CI); writes nothing unless --out-dir is given",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=None,
        help="directory of the BENCH_<section>.json files to append to "
        f"(default for a full run: {REPO_ROOT})",
    )
    args = parser.parse_args(argv)
    out_dir = args.out_dir or (None if args.smoke else REPO_ROOT)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name, run in SECTIONS.items():
        entry = {
            "label": "smoke" if args.smoke else "full",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "numpy": np.__version__,
            "workloads": run(args.smoke),
        }
        if out_dir is not None:
            append_entry(entry, out_dir / f"BENCH_{name}.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
