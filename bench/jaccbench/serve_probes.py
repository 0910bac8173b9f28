"""Per-layer probes of the serve workloads' traced run.

Every probe drives one service-layer module through its public
functions on the workload's real store and query pool, under spans
recorded here.  Each is wrapped by :class:`jaccbench.stats.Probes`, so a
probe whose target function has disappeared degrades to ``null`` with a
reason instead of failing the run.
"""

from __future__ import annotations

import shutil
from dataclasses import replace
from statistics import median

import numpy as np

from jaccbench import spec, workloads
from jaccbench.allpairs import codec_probe
from jaccbench.reference import SetModel
from jaccbench.spec import layer_names as _names
from jaccbench.stats import clock, median_time, time_call

STAGES = ("lsh", "window", "sketch", "verify")
#: Distinct threshold queries the stage replay and the differentials use.
STAGE_SAMPLE = 24
#: Sets the store-mutation probes append.
PROBE_SETS = 16


def _sample(ops) -> list[int]:
    """The first distinct pool indices the round's threshold queries use."""
    seen: dict[int, None] = {}
    for kind, payload in ops:
        if kind == "threshold":
            seen.setdefault(payload)
    return list(seen)[:STAGE_SAMPLE]


def _shards(store) -> list:
    return list(store.shards) if hasattr(store, "shards") else [store]


def _query_seconds(svc, queries, **kwargs) -> list[float]:
    return [time_call(svc.query, values=q, **kwargs)[0] for q in queries]


def run_all(wl, rec, probes, ctx, ops, answers) -> None:
    sizes = wl.sizes
    pool, t = wl.inputs.pool, sizes.threshold
    queries = [pool[i] for i in _sample(ops)]
    churn = wl.name == spec.SERVE_SPARSE_CHURN
    state: dict = {}

    probes.run(
        [
            "query.candidates", "query.after_lsh", "query.after_size",
            "query.after_sketch", "query.verified", "query.matches",
            "query.useful_verify_ratio", "query.model_ratio",
            "lsh.kept_ratio",
        ],
        lambda: _funnel(rec, ops, answers),
    )
    probes.run(
        ["cache.hit_rate", "cache.evictions", "cache.get_us"],
        lambda: _cache(ctx.svc, queries, t),
    )
    probes.run(
        [f"query.stage_ms.{s}" for s in STAGES]
        + ["sketch.estimate_pairs_per_s", "store.load_values_us",
           "store.load_sketch_payload_us", "lsh.probe_us", "lsh.recall"],
        lambda: _stages(wl, rec, queries, state),
    )
    probes.run(
        _names("query.prefilter_ms.") + ["query.vs_bruteforce_ratio"],
        lambda: _prefilter(wl, queries, state),
    )
    probes.run(
        ["query.stage_ms.other", "trace.layer_cover_ratio"],
        lambda: {
            "query.stage_ms.other": state["cascade_ms"] - state["stage_ms"],
            "trace.layer_cover_ratio": state["stage_ms"] / state["cascade_ms"],
        },
    )
    probes.run(
        ["sharded.bands_consulted_mean"],
        lambda: _bands_consulted(ctx.svc.store, ops, pool, t),
    )
    probes.run(_names("sketch.build_values_per_s."), lambda: _sketch_build(wl))
    probes.run(
        [n for n in _names("store.") if "load_" not in n]
        + ["incremental.border_ms_per_set"],
        lambda: _store(wl),
    )
    probes.run(
        _names("runtime.codec_"),
        lambda: codec_probe([v for _, v in wl.inputs.corpus]),
    )
    if churn:
        probes.run(["lsh.build_s", "lsh.update_ms"], lambda: _lsh(wl))
        probes.run(
            ["sharded.merge_us", "sharded.vs_flat_ratio", "sharded.migrate_s"],
            lambda: _sharded(wl, queries),
        )
        probes.run(
            ["executor.threaded_vs_sequential_ratio"],
            lambda: _executor(wl, queries),
        )
    else:
        probes.run(_names("batch."), lambda: _batch(wl.svc, pool, t))
        probes.run(
            _names("semantics.query_ms."), lambda: _semantics(wl, queries)
        )


# ---- service.query ----------------------------------------------------------


def _funnel(rec, ops, answers) -> dict:
    """The cascade funnel of the traced round's uncached threshold queries."""
    durations = iter(rec.durations("serve.threshold"))
    c = dict.fromkeys(
        ("candidates", "after_lsh", "after_size", "after_sketch", "matches"), 0
    )
    measured = modelled = 0.0
    for (kind, _), a in zip(ops, answers):
        if kind != "threshold":
            continue
        dt = next(durations)
        if isinstance(a, Exception) or a.from_cache:
            continue
        c["candidates"] += a.n_candidates
        c["after_lsh"] += a.n_after_lsh or 0
        c["after_size"] += a.n_after_size
        c["after_sketch"] += a.n_after_sketch
        c["matches"] += len(a.matches)
        measured += dt
        modelled += a.simulated_seconds
    out = {f"query.{k}": float(v) for k, v in c.items()}
    out["query.verified"] = out["query.after_sketch"]
    out["query.useful_verify_ratio"] = c["matches"] / max(c["after_sketch"], 1)
    out["query.model_ratio"] = measured / modelled if modelled else 0.0
    out["lsh.kept_ratio"] = c["after_lsh"] / max(c["candidates"], 1)
    return out


def _stages(wl, rec, queries, state) -> dict:
    """Replay lsh -> window -> sketch -> verify through public functions."""
    from repro.core.sketch import make_sketch
    from repro.semantics.measures import get_measure
    from repro.service.query import (
        exact_jaccard, size_ratio_window, sketch_estimates,
    )
    from repro.service.sharded import open_store
    from repro.service.store import LSH_FAMILY

    t = wl.sizes.threshold
    store = open_store(wl.root)
    plan = wl.open(wl.root).engine.plan()
    family, bound = plan.family, plan.error_bound
    use_lsh = plan.stage("lsh") is not None
    measure = get_measure(plan.measure)
    shards = _shards(store)

    loaded, t_values, t_payloads, n_loads = [], 0.0, 0.0, 0
    for shard in shards:
        names = shard.names
        dt_v, values = time_call(lambda: [shard.load_values(n) for n in names])
        dt_p, payloads = time_call(
            lambda: [shard.load_sketch_payload(n, family) for n in names]
        )
        t_values, t_payloads = t_values + dt_v, t_payloads + dt_p
        n_loads += len(names)
        loaded.append((names, shard.sizes(), values, payloads))

    model = SetModel(wl.inputs.corpus)
    per_query = {s: [] for s in STAGES}
    probe_s, pairs, true_n, found_n = [], 0, 0, 0
    for q in queries:
        w_lo, w_hi = size_ratio_window(int(q.size), t)
        if len(shards) > 1:
            b_lo, b_hi = store.band_range(w_lo, w_hi)
        else:
            b_lo = b_hi = 0
        spent = dict.fromkeys(STAGES, 0.0)
        probed_names: set[str] = set()
        with rec.operation("replay.query"):
            for band in range(b_lo, b_hi + 1):
                shard = shards[band]
                names, sizes, values, payloads = loaded[band]
                cand = np.arange(len(names), dtype=np.int64)
                if use_lsh and cand.size:
                    with rec.span("query.lsh") as span:
                        sk = make_sketch(
                            LSH_FAMILY, store.sketch_size, store.sketch_bits,
                            store.sketch_seed,
                        )
                        sk.update(q)
                        fps = sk.fingerprints()
                        t0 = clock()
                        probed, _ = shard.lsh_table().probe(fps)
                        probe_s.append(clock() - t0)
                    spent["lsh"] += span.duration
                    probed_names.update(names[int(i)] for i in probed)
                with rec.span("query.window") as span:
                    ext = sizes[cand]
                    cand = cand[(ext >= w_lo) & (ext <= w_hi)]
                spent["window"] += span.duration
                if family is not None and cand.size:
                    with rec.span("query.sketch") as span:
                        est = sketch_estimates(
                            q, cand, sizes, payloads, family,
                            store.sketch_size, store.sketch_bits,
                            store.sketch_seed,
                        )
                        _, s_hi = measure.sketch_score_bounds(
                            est, bound, int(q.size), sizes[cand]
                        )
                        pairs += int(cand.size)
                        cand = cand[s_hi >= t - 1e-12]
                    spent["sketch"] += span.duration
                with rec.span("query.verify") as span:
                    sims = [exact_jaccard(q, values[int(i)]) for i in cand]
                    sum(s >= t for s in sims)
                spent["verify"] += span.duration
        for s in STAGES:
            per_query[s].append(spent[s])
        if use_lsh:
            true = {
                n for n, s in zip(model.names, model.scores(q)) if s >= t
            }
            true_n += len(true)
            found_n += len(true & probed_names)

    stage_ms = {s: 1e3 * median(per_query[s]) for s in STAGES}
    state["stage_ms"] = sum(stage_ms.values())
    sketch_s = sum(per_query["sketch"])
    return {
        **{f"query.stage_ms.{s}": v for s, v in stage_ms.items()},
        "sketch.estimate_pairs_per_s": pairs / sketch_s if sketch_s else 0.0,
        "store.load_values_us": 1e6 * t_values / n_loads,
        "store.load_sketch_payload_us": 1e6 * t_payloads / n_loads,
        "lsh.probe_us": 1e6 * median(probe_s) if probe_s else 0.0,
        "lsh.recall": found_n / true_n if true_n else 0.0,
    }


def _prefilter(wl, queries, state) -> dict:
    """Facade differential: the same queries under each prefilter depth."""
    t = wl.sizes.threshold
    ms = {}
    for depth in ("off", "size", "cascade"):
        svc = wl.open(wl.root, query_prefilter=depth, query_cache_size=0)
        _query_seconds(svc, queries[:2], threshold=t)
        ms[depth] = 1e3 * median(_query_seconds(svc, queries, threshold=t))
    state["cascade_ms"] = ms["cascade"]
    return {
        **{f"query.prefilter_ms.{d}": v for d, v in ms.items()},
        "query.vs_bruteforce_ratio": ms["off"] / ms["cascade"],
    }


# ---- service.cache ------------------------------------------------------------


def _cache(svc, queries, t) -> dict:
    from repro.service.cache import QueryCache, result_cache_key

    stats = svc.engine.cache.stats
    cache = QueryCache(128)

    def key(q):
        return result_cache_key(q, t, None, "cascade", "minhash", "scan", None, 1)

    for q in queries:
        cache.put(key(q), q)
    get_s = median_time(lambda: [cache.get(key(q)) for q in queries], 5)
    return {
        "cache.hit_rate": stats.hit_rate,
        "cache.evictions": stats.evictions,
        "cache.get_us": 1e6 * get_s / len(queries),
    }


# ---- service.sharded + runtime.executor ----------------------------------------


def _bands_consulted(store, ops, pool, t) -> dict:
    from repro.service.query import size_ratio_window

    if not hasattr(store, "band_range"):
        return {"sharded.bands_consulted_mean": 0.0}
    spans = []
    for kind, payload in ops:
        if kind == "threshold":
            b_lo, b_hi = store.band_range(
                *size_ratio_window(int(pool[payload].size), t)
            )
            spans.append(b_hi - b_lo + 1)
    return {"sharded.bands_consulted_mean": float(np.mean(spans))}


def _sharded(wl, queries) -> dict:
    from repro.service.query import merge_shard_results, size_ratio_window

    t = wl.sizes.threshold
    svc = wl.open(wl.root, query_cache_size=0)
    engine, store = svc.engine, svc.store
    merge_s = []
    for q in queries:
        b_lo, b_hi = store.band_range(*size_ratio_window(int(q.size), t))
        parts = [
            engine.engines[b].query_values(q, threshold=t)
            for b in range(b_lo, b_hi + 1)
        ]
        merge_s.append(time_call(
            merge_shard_results, engine.plan(), parts, t, None,
            store.positions(), store.version,
        )[0])
    sharded_s = sum(_query_seconds(svc, queries, threshold=t))

    flat_root = wl.workdir / "probe_flat"
    flat = wl.create(flat_root, replace(wl.config(), store_shards=1))
    wl.build(flat)
    flat_svc = wl.open(flat_root, query_cache_size=0, store_shards=1)
    _query_seconds(flat_svc, queries[:2], threshold=t)
    flat_s = sum(_query_seconds(flat_svc, queries, threshold=t))
    migrate_s, _ = time_call(flat_svc.shard, wl.sizes.bands)
    shutil.rmtree(flat_root, ignore_errors=True)
    return {
        "sharded.merge_us": 1e6 * median(merge_s),
        "sharded.vs_flat_ratio": flat_s / sharded_s,
        "sharded.migrate_s": migrate_s,
    }


def _executor(wl, queries) -> dict:
    """Band fan-out under a thread pool vs sequentially (top-k consults
    every band, so it is the widest fan-out the workload has)."""
    from repro.runtime.executor import ThreadedExecutor

    k = wl.sizes.top_k
    sequential = wl.open(wl.root, query_cache_size=0)
    _query_seconds(sequential, queries[:2], top_k=k)
    seq_s = sum(_query_seconds(sequential, queries, top_k=k))
    with ThreadedExecutor(2) as pool:
        threaded = wl.open(wl.root, query_cache_size=0, executor=pool)
        _query_seconds(threaded, queries[:2], top_k=k)
        thr_s = sum(_query_seconds(threaded, queries, top_k=k))
    return {"executor.threaded_vs_sequential_ratio": seq_s / thr_s}


# ---- core.sketch ----------------------------------------------------------------


def _sketch_build(wl) -> dict:
    from repro.core.sketch import make_sketch

    sets = [v for _, v in wl.inputs.corpus[:32]]
    n_values = sum(v.size for v in sets)
    out = {}
    for family in ("minhash", "bbit_minhash", "hll"):
        seconds = median_time(
            lambda: [make_sketch(family, 256, 8, 0).update(v) for v in sets], 3
        )
        out[f"sketch.build_values_per_s.{family}"] = n_values / seconds
    return out


# ---- service.store + service.incremental -------------------------------------------


def _store(wl) -> dict:
    from repro.service.sharded import open_store

    rng = np.random.default_rng(int(wl.digest, 16))
    corpus = wl.inputs.corpus
    fresh = [
        (f"probe{i:03d}", workloads.perturb(
            rng, corpus[int(rng.integers(len(corpus)))][1], 0.9, 0.1,
            wl.sizes.m,
        ))
        for i in range(PROBE_SETS)
    ]
    copies = []
    for tag in ("a", "b"):
        target = wl.workdir / f"probe_{tag}"
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(wl.root, target)
        copies.append(target)
    add_s, _ = time_call(wl.open(copies[0]).add, fresh)
    store = open_store(copies[1])
    append_s, _ = time_call(store.append_many, fresh)
    remove_s = [time_call(store.remove, n)[0] for n in store.names[:5]]
    compact_s, _ = time_call(store.compact)
    open_s = median_time(lambda: open_store(wl.root), 5)
    built = open_store(wl.root)
    snapshot_s = median_time(
        lambda: [s.snapshot() for s in _shards(built)], 5
    )
    on_disk = sum(
        p.stat().st_size for p in wl.root.rglob("*") if p.is_file()
    )
    for target in copies:
        shutil.rmtree(target, ignore_errors=True)
    return {
        "store.append_ms_per_set": 1e3 * append_s / PROBE_SETS,
        "store.open_ms": 1e3 * open_s,
        "store.snapshot_us": 1e6 * snapshot_s,
        "store.remove_ms": 1e3 * median(remove_s),
        "store.compact_s": compact_s,
        "store.bytes_written_per_value": on_disk / wl.inputs.n_values,
        "incremental.border_ms_per_set": 1e3 * (add_s - append_s) / PROBE_SETS,
    }


# ---- service.lsh -----------------------------------------------------------------


def _lsh(wl) -> dict:
    from repro.core.sketch import unpack_lanes
    from repro.service.lsh import LSHTable
    from repro.service.sharded import open_store
    from repro.service.store import LSH_FAMILY

    store = open_store(wl.root)
    build_s, update_s = 0.0, []
    for shard in _shards(store):
        table = shard.lsh_table()
        fps = [
            unpack_lanes(
                shard.load_sketch_payload(n, LSH_FAMILY),
                store.sketch_bits, store.sketch_size,
            )
            for n in shard.names
        ]
        build_s += time_call(
            LSHTable.build, table.plan, table.bits, table.seed, fps
        )[0]
        if fps:
            update_s.append(
                time_call(table.with_added, fps[:1])[0]
                + time_call(table.with_removed, 0)[0]
            )
    return {"lsh.build_s": build_s, "lsh.update_ms": 1e3 * median(update_s)}


# ---- service.batch ---------------------------------------------------------------


def _batch(svc, pool, t) -> dict:
    out = {}
    for b in (1, 8, 32):
        queries = pool[:b]
        serial_s = sum(_query_seconds(svc, queries, threshold=t))
        batch_s = median_time(
            lambda: svc.query_batch(queries, threshold=t), 3 if b < 32 else 1
        )
        out[f"batch.qps.b{b}"] = b / batch_s
        if b != 8:
            out[f"batch.vs_serial_ratio.b{b}"] = serial_s / batch_s
    return out


# ---- semantics ---------------------------------------------------------------------


def _semantics(wl, queries) -> dict:
    t = wl.sizes.threshold
    out = {}
    for measure in ("jaccard", "containment", "cosine", "weighted_jaccard"):
        svc = wl.open(wl.root, similarity=measure, query_cache_size=0)
        _query_seconds(svc, queries[:1], threshold=t)
        out[f"semantics.query_ms.{measure}"] = 1e3 * median(
            _query_seconds(svc, queries[:8], threshold=t)
        )
    return out
