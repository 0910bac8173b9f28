"""Threshold / top-k similarity query engines over a persistent index.

The all-pairs-similarity literature (Özkural & Aykanat's 1-D/2-D
all-pairs algorithms, Bayardo et al.'s size-based pruning) shows that
*threshold* queries admit aggressive candidate pruning an exact
all-pairs engine never exploits.  The pruning itself — the
lsh -> window -> sketch -> verify cascade — lives once, in
:func:`repro.service.cascade.run_cascade`; this module is what stands
around it:

* :class:`QueryResult` / :class:`QueryMatch` — what a query returns,
  including the cascade funnel counters and the modelled cost;
* :class:`SimilarityIndex` — the engine over one flat
  :class:`~repro.service.store.IndexStore`: it pins one
  :class:`~repro.service.store.StoreSnapshot` per store version, probes
  the LRU :class:`~repro.service.cache.QueryCache` (keyed on the query
  digest and the store version, so any mutation invalidates every
  cached answer), hands the misses to the cascade, and splits the
  ledger cost the stages charged (the ``query:*`` kernels named by the
  compiled :class:`~repro.service.plan.QueryPlan`) across them;
* :class:`ShardedSimilarityIndex` — the band router over a
  :class:`~repro.service.sharded.ShardedStore`: it maps each request's
  extent window onto the size bands, runs the per-band cascades on the
  overlapping ones, and merges their answers exactly
  (:func:`merge_shard_results`).

A single query is a batch of one: ``query_values`` and ``query_batch``
both make one :meth:`execute` call over one snapshot, on either engine.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from repro.baselines.exact import intersection_size_sorted
from repro.core.config import QUERY_PREFILTERS, SimilarityConfig
from repro.runtime.engine import Machine
from repro.runtime.executor import SequentialExecutor
from repro.runtime.machine import laptop
from repro.semantics.measures import get_measure
from repro.service.cache import (
    SINGLE_TOPOLOGY,
    CacheStats,
    QueryCache,
    counts_cache_digest,
    result_cache_key,
)
from repro.service.cascade import Request, run_cascade, validate_request
from repro.service.cascade import sketch_estimates  # noqa: F401 - public from this module
from repro.service.errors import ConfigError, QueryError
from repro.service.plan import QueryPlan, compile_plan
from repro.service.sharded import ShardedStore
from repro.service.store import IndexStore, StoreSnapshot

#: Tolerance of the window arithmetic: protects the exact-equality
#: guarantee against float rounding in ``t * |A|``-style products, far
#: below any meaningful similarity difference.
_EPS = 1e-12


# ---- the exact size-ratio bound ------------------------------------------


def size_ratio_window(size: int, threshold: float) -> tuple[int, int]:
    """The ``|B|`` window compatible with ``J(A, B) >= threshold``.

    ``J <= min(|A|,|B|) / max(|A|,|B|)``, so ``J >= t`` forces
    ``t * |A| <= |B| <= |A| / t`` (for ``t > 0``); a threshold of 0
    admits every size, and an empty query only matches empty genomes.

    >>> size_ratio_window(100, 0.5)
    (50, 200)
    """
    if not 0.0 <= threshold <= 1.0:
        raise QueryError(f"threshold must be in [0, 1], got {threshold}")
    if threshold == 0.0:
        return (0, int(np.iinfo(np.int64).max))
    if size == 0:
        return (0, 0)
    lo = int(math.ceil(threshold * size - _EPS))
    hi = int(math.floor(size / threshold + _EPS))
    return lo, hi


def exact_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact J of two sorted unique value arrays (J(0, 0) = 1).

    The intersection count comes from the baselines' one-pass
    ``searchsorted`` scan — ``O(min log max)``, no materialized
    intersection array — since this sits on the query engine's hot
    verify path.
    """
    if a.size == 0 and b.size == 0:
        return 1.0
    if a.size == 0 or b.size == 0:
        return 0.0
    inter = intersection_size_sorted(a, b)
    return inter / (a.size + b.size - inter)


# ---- results --------------------------------------------------------------


@dataclass(frozen=True)
class QueryMatch:
    """One qualifying genome: its name, store position, and exact J."""

    name: str
    index: int
    similarity: float


@dataclass(frozen=True)
class QueryResult:
    """Everything one threshold/top-k query produced.

    ``matches`` is sorted by descending similarity (ties by ascending
    store position).  The ``n_*`` counters expose the cascade funnel:
    ``n_candidates >= n_after_size >= n_after_sketch == n_verified``.
    """

    matches: tuple[QueryMatch, ...]
    threshold: float | None
    top_k: int | None
    prefilter: str
    estimator: str
    error_bound: float | None
    n_candidates: int
    n_after_size: int
    n_after_sketch: int
    store_version: int
    simulated_seconds: float
    #: The candidate generator the plan ran
    #: (:data:`~repro.core.config.QUERY_CANDIDATES`).
    candidates: str = "scan"
    #: Candidates surviving the banded LSH bucket probe (``None`` when
    #: no ``lsh`` stage ran or there was nothing to probe).  Under
    #: ``"lsh_exact"`` this measures the probe without narrowing the
    #: scan — the recall-audit number.
    n_after_lsh: int | None = None
    from_cache: bool = False
    cache_stats: CacheStats | None = field(default=None, compare=False)
    #: The similarity semantics the scores were computed under (a
    #: :data:`~repro.core.config.SIMILARITY_MEASURES` value) and the
    #: shape of its pruning bound (``"symmetric_window"``,
    #: ``"one_sided_window"``, or ``"mass_window"``).
    similarity_measure: str = "jaccard"
    bound_type: str = "symmetric_window"

    @property
    def n_verified(self) -> int:
        """Exact verifications the cascade paid for."""
        return self.n_after_sketch

    @property
    def pruning_ratio(self) -> float:
        """Candidates per exact verification (1.0 = brute force)."""
        return self.n_candidates / max(self.n_verified, 1)

    @property
    def names(self) -> list[str]:
        return [m.name for m in self.matches]

    def summary(self) -> str:
        what = []
        if self.threshold is not None:
            what.append(f"threshold={self.threshold:g}")
        if self.top_k is not None:
            what.append(f"top_k={self.top_k}")
        bound = (
            f" (95% bound +/- {self.error_bound:.4f})"
            if self.error_bound is not None
            else ""
        )
        lsh = (
            f"{self.n_after_lsh} after LSH probe -> "
            if self.n_after_lsh is not None
            else ""
        )
        lines = [
            f"query [{' '.join(what)}]: {len(self.matches)} match(es), "
            f"measure={self.similarity_measure} ({self.bound_type}), "
            f"prefilter={self.prefilter} candidates={self.candidates} "
            f"estimator={self.estimator}{bound}",
            f"cascade: {self.n_candidates} candidate(s) -> {lsh}"
            f"{self.n_after_size} after size bound -> "
            f"{self.n_after_sketch} verified exactly "
            f"({self.pruning_ratio:.1f}x pruning)",
            f"store version {self.store_version}, simulated "
            f"{self.simulated_seconds:.6f}s"
            + (" [served from cache]" if self.from_cache else ""),
        ]
        if self.cache_stats is not None:
            lines.append(f"cache: {self.cache_stats}")
        return "\n".join(lines)


@dataclass(frozen=True)
class BatchQuery:
    """One item of ``query_batch``: values plus its own parameters.

    ``query_batch`` accepts raw value arrays (which take the call-level
    defaults) or explicit ``BatchQuery`` items, so one batch may mix
    threshold and top-k requests freely.
    """

    values: Any
    threshold: float | None = None
    top_k: int | None = None
    exclude_name: str | None = None
    #: Aligned per-value abundances; only consulted under
    #: ``similarity="weighted_jaccard"``.
    counts: Any = None


# ---- the engines ----------------------------------------------------------


def _result(plan: QueryPlan, matches, threshold, top_k, store_version, **counters) -> QueryResult:
    """A :class:`QueryResult` labelled with the plan it was computed under."""
    return QueryResult(
        matches=tuple(matches),
        threshold=threshold,
        top_k=top_k,
        prefilter=plan.prefilter,
        estimator=plan.estimator,
        error_bound=plan.error_bound,
        store_version=store_version,
        simulated_seconds=0.0,
        candidates=plan.candidates,
        similarity_measure=plan.measure,
        bound_type=plan.bound_type,
        **counters,
    )


class _QueryEngine:
    """What the flat engine and the band router share.

    The public front door (``query`` / ``query_name`` / ``query_values``
    / ``query_batch``), the per-version snapshot pin, and :meth:`execute`
    — cache probe, compute the misses together, split their modelled
    cost, cache the answers.  A subclass supplies ``plan``,
    ``_take_snapshot`` and ``_compute``.
    """

    #: Shard-layout component of this engine's cache keys.
    _topology: tuple = SINGLE_TOPOLOGY

    def __init__(self, store, machine: Machine | None, config: SimilarityConfig | None):
        self.store = store
        self.machine = machine if machine is not None else Machine(laptop(4))
        self.config = config if config is not None else SimilarityConfig()
        if self.config.query_prefilter not in QUERY_PREFILTERS:
            raise ConfigError(
                f"query_prefilter must be one of {QUERY_PREFILTERS}, "
                f"got {self.config.query_prefilter!r}"
            )
        self.cache = QueryCache(self.config.query_cache_size)
        self._pinned = None
        self._pin_lock = threading.Lock()

    def snapshot(self):
        """The pinned view of the store's current version.

        Re-taken only when ``store.version`` has moved, so everything
        the cascade loads is memoized for as long as the version lives;
        concurrent callers share the one pin.
        """
        with self._pin_lock:
            pinned = self._pinned
            if pinned is None or pinned.version != self.store.version:
                pinned = self._pinned = self._take_snapshot()
            return pinned

    # ---- public API ----------------------------------------------------

    def query(
        self,
        values=None,
        name: str | None = None,
        threshold: float | None = None,
        top_k: int | None = None,
        counts=None,
    ) -> QueryResult:
        """Query by values or by the name of an indexed genome.

        ``counts`` (aligned per-value abundances) only matters under
        ``similarity="weighted_jaccard"``; name queries load the
        genome's stored counts automatically.
        """
        if (values is None) == (name is None):
            raise QueryError("pass exactly one of values or name")
        if name is not None:
            if counts is not None:
                raise QueryError("counts only apply to value queries")
            return self.query_name(name, threshold=threshold, top_k=top_k)
        return self.query_values(
            values, threshold=threshold, top_k=top_k, counts=counts
        )

    def query_name(
        self,
        name: str,
        threshold: float | None = None,
        top_k: int | None = None,
    ) -> QueryResult:
        """Query an indexed genome against the rest of the index."""
        counts = None
        if self.config.similarity == "weighted_jaccard":
            counts = self.store.load_counts(name)
        return self.query_values(
            self.store.load_values(name),
            threshold=threshold,
            top_k=top_k,
            exclude_name=name,
            counts=counts,
        )

    def query_values(
        self,
        values,
        threshold: float | None = None,
        top_k: int | None = None,
        exclude_name: str | None = None,
        counts=None,
    ) -> QueryResult:
        """Answer one query set of attribute values: a batch of one."""
        return self.query_batch(
            [BatchQuery(values, threshold, top_k, exclude_name, counts)]
        )[0]

    def query_batch(
        self,
        queries: Sequence,
        threshold: float | None = None,
        top_k: int | None = None,
    ) -> list[QueryResult]:
        """Answer many queries against one store version, in input order.

        Items are raw value arrays (taking the call-level ``threshold`` /
        ``top_k``) or :class:`BatchQuery` instances.  Every item is
        validated before anything runs; then one :meth:`execute` answers
        them all over one snapshot.  :meth:`query_values` is the batch
        of one.
        """
        items = [
            q if isinstance(q, BatchQuery)
            else BatchQuery(q, threshold=threshold, top_k=top_k)
            for q in queries
        ]
        requests = [
            validate_request(
                self.store.m, item.values, item.threshold, item.top_k,
                item.counts, item.exclude_name,
            )
            for item in items
        ]
        return self.execute(requests, self.snapshot(), self.plan())

    def execute(
        self, requests: list[Request], snapshot, plan: QueryPlan
    ) -> list[QueryResult]:
        """Answer validated requests against one pinned snapshot.

        Cache hits are served as stored and charged nothing; the misses
        are computed together and split the modelled cost they charged
        evenly.  The cache key carries no batch context, so an entry
        written through any entry point serves every other.  A cache
        that retains nothing is probed with no key: every request still
        counts one miss, and no query is hashed for it.
        """
        keys: list = [None] * len(requests)
        if self.cache.capacity:
            keys = [
                result_cache_key(
                    req.vals, req.threshold, req.top_k, plan.prefilter,
                    plan.family, plan.candidates, req.exclude_name,
                    snapshot.version,
                    topology=self._topology,
                    similarity=plan.measure,
                    counts_digest=(
                        counts_cache_digest(req.counts)
                        if plan.measure == "weighted_jaccard"
                        else None
                    ),
                )
                for req in requests
            ]
        results: list[QueryResult | None] = [None] * len(requests)
        misses: list[int] = []
        for i, key in enumerate(keys):
            cached = self.cache.get(key)
            if cached is None:
                misses.append(i)
            else:
                results[i] = replace(
                    cached, from_cache=True, cache_stats=self.cache.stats
                )
        if misses:
            before = self.machine.ledger.makespan
            computed = self._compute(
                [requests[i] for i in misses], snapshot, plan
            )
            cost = self.machine.ledger.makespan - before
            for i, result in zip(misses, computed):
                bare = replace(result, simulated_seconds=cost / len(misses))
                self.cache.put(keys[i], bare)
                results[i] = replace(bare, cache_stats=self.cache.stats)
        return results  # type: ignore[return-value]


class SimilarityIndex(_QueryEngine):
    """Threshold / top-k query engine over an :class:`IndexStore`.

    Parameters
    ----------
    store:
        The persistent index to serve from.
    machine:
        The simulated machine whose ledger the ``query:*`` kernels are
        charged to; defaults to a 4-rank laptop (queries execute on one
        serving rank).
    config:
        ``query_prefilter`` selects the cascade depth (``"off"`` =
        brute-force exact, ``"size"`` = size bound only — both exact
        unconditionally; ``"cascade"`` adds the sketch prefilter, exact
        at the sketches' 95% confidence), ``query_cache_size`` sizes
        the LRU result cache, and ``estimator`` picks the stored sketch
        family the prefilter uses (``"exact"`` falls back to the
        store's first family).
    """

    def __init__(
        self,
        store: IndexStore,
        machine: Machine | None = None,
        config: SimilarityConfig | None = None,
        serving_rank: int = 0,
    ):
        super().__init__(store, machine, config)
        # Which machine rank this engine's cascade charges.  The band
        # router assigns each shard engine a distinct rank, so per-shard
        # cascades overlap in the ledger's per-rank clocks (the
        # makespan, not the sum, is the modelled fan-out cost).
        self.serving_rank = serving_rank % self.machine.world.size

    def plan(self) -> QueryPlan:
        """The :class:`QueryPlan` this engine's config compiles to."""
        return compile_plan(self.config, self.store)

    def _take_snapshot(self) -> StoreSnapshot:
        return self.store.snapshot()

    def _compute(
        self, requests: list[Request], snapshot: StoreSnapshot, plan: QueryPlan
    ) -> list[QueryResult]:
        serving = self.machine.world.sub([self.serving_rank])
        with self.machine.phase("query"):
            outcomes = run_cascade(plan, snapshot, requests, serving)
        return [
            _result(
                plan,
                (
                    QueryMatch(
                        name=snapshot.names[int(i)], index=int(i),
                        similarity=float(s),
                    )
                    for i, s in zip(out.positions, out.sims)
                ),
                req.threshold, req.top_k, snapshot.version,
                n_candidates=out.n_candidates,
                n_after_lsh=out.n_after_lsh,
                n_after_size=out.n_after_size,
                n_after_sketch=out.n_after_sketch,
            )
            for req, out in zip(requests, outcomes)
        ]


# ---- the sharded band router ----------------------------------------------


def merge_shard_results(
    plan: QueryPlan,
    shard_results: list[QueryResult],
    threshold: float | None,
    top_k: int | None,
    positions: dict[str, int],
    store_version: int,
) -> QueryResult:
    """Merge per-shard results into one exact global answer.

    ``positions`` maps each live name to its **global insertion
    position** (the top-level manifest's order), which re-bases every
    per-shard match index and is the tie-break of the merged ordering —
    the same ``(descending J, ascending position)`` order the flat
    store produces, so merged results are bit-identical to it.  A
    candidate a shard's local top-``k`` cut dropped is always correctly
    dropped globally: within one shard, local order equals relative
    global order, so at least ``k`` same-shard candidates outrank it.

    The cascade counters are summed over the *consulted* shards only —
    shards outside the query's band range contribute nothing, which is
    exactly the per-shard candidate pruning the fan-out buys.
    ``simulated_seconds`` is left 0.0 for the caller to fill with the
    ledger makespan of the whole fan-out.
    """
    matches = [
        QueryMatch(
            name=m.name, index=positions[m.name], similarity=m.similarity
        )
        for r in shard_results
        for m in r.matches
    ]
    matches.sort(key=lambda m: (-m.similarity, m.index))
    if top_k is not None:
        matches = matches[:top_k]
    lsh_counts = [
        r.n_after_lsh for r in shard_results if r.n_after_lsh is not None
    ]
    return _result(
        plan, matches, threshold, top_k, store_version,
        n_candidates=sum(r.n_candidates for r in shard_results),
        n_after_lsh=sum(lsh_counts) if lsh_counts else None,
        n_after_size=sum(r.n_after_size for r in shard_results),
        n_after_sketch=sum(r.n_after_sketch for r in shard_results),
    )


@dataclass(frozen=True)
class ShardedSnapshot:
    """One sharded-store version: each band's pinned snapshot plus the
    global insertion positions the merge re-bases and tie-breaks on."""

    version: int
    positions: dict[str, int]
    bands: tuple[StoreSnapshot, ...]


class ShardedSimilarityIndex(_QueryEngine):
    """Band router over a :class:`~repro.service.sharded.ShardedStore`.

    Compiles the same :class:`QueryPlan` as the flat engine (with
    ``fanout = n_shards``); the plan's ``window`` stage runs first as a
    *band selector* — each request's extent window is mapped onto the
    store's band edges, and only the overlapping shards are consulted.
    Each consulted shard runs the cascade over the requests routed to it
    through its own :class:`SimilarityIndex`, pinned to machine rank
    ``shard % ranks``: the ledger's per-rank clocks advance
    independently, so the ``simulated_seconds`` of a fan-out (one ledger
    diff around all of it) is the parallel **makespan** of the per-shard
    cascades, not their sum.  Per-shard results merge via
    :func:`merge_shard_results` into answers bit-identical to the flat
    store's.  One router serves a single query and a batch alike.

    ``executor`` maps the per-shard work (default
    :class:`~repro.runtime.executor.SequentialExecutor`; parallelism is
    *modelled* by the rank assignment either way).  Results are cached
    at this level — keyed with the store's shard topology — while the
    per-shard engines run only the bare cascade, so one mutation
    invalidates exactly one layer.

    The band snapshots and the global positions are pinned together
    under the store's lock, so a concurrent multi-shard ``add`` can
    never interleave between per-shard cascades — every answer
    reflects exactly one store version.
    """

    def __init__(
        self,
        store: ShardedStore,
        machine: Machine | None = None,
        config: SimilarityConfig | None = None,
        executor=None,
    ):
        super().__init__(store, machine, config)
        self._topology = store.topology()
        self.executor = (
            executor if executor is not None else SequentialExecutor()
        )
        ranks = self.machine.world.size
        shard_config = replace(self.config, query_cache_size=0)
        self.engines = [
            SimilarityIndex(
                shard, machine=self.machine, config=shard_config,
                serving_rank=i % ranks,
            )
            for i, shard in enumerate(store.shards)
        ]

    def plan(self) -> QueryPlan:
        return compile_plan(self.config, self.store, shards=self.store.n_shards)

    def _take_snapshot(self) -> ShardedSnapshot:
        with self.store._lock:
            return ShardedSnapshot(
                version=self.store.version,
                positions=self.store.positions(),
                bands=tuple(eng.snapshot() for eng in self.engines),
            )

    def _bands(self, req: Request, plan: QueryPlan) -> range:
        """The shards whose size band ``req``'s extent window overlaps."""
        measure = get_measure(plan.measure)
        if (
            req.threshold is not None
            and req.threshold > 0.0
            and plan.stage("window") is not None
            and not measure.weighted
        ):
            # jaccard/cosine select a contiguous band range; the
            # containment window is one-sided, so every band from the
            # lower edge up is consulted.
            w_lo, w_hi = measure.window(int(req.vals.size), req.threshold)
            b_lo, b_hi = self.store.band_range(w_lo, w_hi)
            return range(b_lo, b_hi + 1)
        # Top-k-only and unwindowed queries can match in any band, and
        # so can weighted ones: shards band by *support* size, about
        # which weighted Jaccard admits no bound (a single huge-count
        # value can dominate the mass).
        return range(self.store.n_shards)

    def _compute(
        self, requests: list[Request], snapshot: ShardedSnapshot, plan: QueryPlan
    ) -> list[QueryResult]:
        routed: dict[int, list[int]] = {}
        for i, req in enumerate(requests):
            for band in self._bands(req, plan):
                routed.setdefault(band, []).append(i)
        with self.machine.phase("query"):
            # Band selection: one comparison per band edge per request,
            # on rank 0.
            self.machine.world.sub([0]).charge_compute(
                float(self.store.n_shards * len(requests)),
                kernel="query:bands",
            )
        bands = sorted(routed)
        band_plan = replace(plan, fanout=1)
        # Each band runs the bare cascade: this router caches, keys and
        # costs the merged answers, so the per-band cache probe and cost
        # split would only be thrown away.
        answers = self.executor.map(
            lambda band: self.engines[band]._compute(
                [requests[i] for i in routed[band]],
                snapshot.bands[band],
                band_plan,
            ),
            bands,
        )
        parts: list[list[QueryResult]] = [[] for _ in requests]
        for band, band_answers in zip(bands, answers):
            for i, answer in zip(routed[band], band_answers):
                parts[i].append(answer)
        return [
            merge_shard_results(
                plan, shard_results, req.threshold, req.top_k,
                snapshot.positions, snapshot.version,
            )
            for req, shard_results in zip(requests, parts)
        ]
