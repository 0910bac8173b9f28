"""The unified service facade: one front door to the serving layer.

The serving layer grew piecewise — stores (flat, then size-banded
sharded), mutations, single and batched queries, LSH candidate
tables — and every caller had to know which concrete pieces
to wire together.  :class:`SimilarityService` is the public API
that hides the wiring:

* ``create`` / ``open`` pick the store layout (flat
  :class:`~repro.service.store.IndexStore` vs size-banded
  :class:`~repro.service.sharded.ShardedStore`) from the config's
  ``store_shards`` knob or the on-disk manifest, and build the matching
  query engine (:class:`~repro.service.query.SimilarityIndex` vs the
  band router :class:`~repro.service.query.ShardedSimilarityIndex`);
* ``add`` / ``remove`` / ``compact`` route mutations through the
  store's one write path (band-routed on a sharded store); none of them
  computes a similarity;
* ``all_pairs`` is the exact all-pairs matrix over the live genomes —
  an on-demand read of the batch engine that writes nothing;
* ``query`` / ``query_batch`` answer threshold/top-k queries through
  the one cascade executor (:func:`repro.service.cascade.run_cascade`)
  on either layout — a single query is a batch of one, and results are
  bit-identical across layouts and entry points;
* ``shard`` migrates an existing flat store in place (see
  :func:`~repro.service.sharded.shard_store`) and re-wires the engine;
* ``stats`` is the one-call health/introspection snapshot.

The genomics pipeline and the CLI route through this facade.

See ``docs/service.md`` for the full API contract.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

from repro.core.config import SimilarityConfig
from repro.core.result import SimilarityResult
from repro.core.similarity import SimilarityAtScale
from repro.runtime.engine import Machine
from repro.runtime.machine import laptop
from repro.service.errors import StoreError
from repro.core.sketch import SKETCH_ESTIMATORS
from repro.semantics.wminhash import WEIGHTED_MINHASH_FAMILY
from repro.service.query import (
    QueryResult,
    ShardedSimilarityIndex,
    SimilarityIndex,
)
from repro.service.sharded import (
    ShardedStore,
    create_store,
    open_store,
    shard_store,
)
from repro.service.store import GenomeEntry, IndexStore

__all__ = ["SimilarityService"]


class SimilarityService:
    """One facade over stores, mutations, queries and all-pairs reads.

    Parameters
    ----------
    store:
        A :class:`~repro.service.store.IndexStore` or
        :class:`~repro.service.sharded.ShardedStore`; usually built by
        :meth:`create` / :meth:`open` rather than passed directly.
    machine:
        The simulated machine every query and all-pairs read charges;
        defaults to a 4-rank laptop.
    config:
        The :class:`~repro.core.config.SimilarityConfig` whose
        ``query.*`` / ``store.*`` knobs drive plan compilation, cache
        sizing, and (at :meth:`create` time) the store layout.
    executor:
        Optional executor for the sharded band fan-out (parallelism is
        *modelled* by the ledger's rank assignment either way).
    """

    def __init__(
        self,
        store: IndexStore | ShardedStore,
        machine: Machine | None = None,
        config: SimilarityConfig | None = None,
        executor=None,
    ):
        self.store = store
        self.machine = machine if machine is not None else Machine(laptop(4))
        self.config = config if config is not None else SimilarityConfig()
        self._executor = executor
        self._make_engine()

    def _make_engine(self) -> None:
        if isinstance(self.store, ShardedStore):
            self.engine: SimilarityIndex | ShardedSimilarityIndex = (
                ShardedSimilarityIndex(
                    self.store, machine=self.machine, config=self.config,
                    executor=self._executor,
                )
            )
        else:
            self.engine = SimilarityIndex(
                self.store, machine=self.machine, config=self.config
            )

    # ---- lifecycle ------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | Path,
        m: int,
        machine: Machine | None = None,
        config: SimilarityConfig | None = None,
        metadata: dict | None = None,
        size_hint=None,
        executor=None,
    ) -> "SimilarityService":
        """Create a new empty index under ``root``.

        ``config.store_shards`` picks the layout: 1 (default) creates a
        flat :class:`~repro.service.store.IndexStore`, >= 2 a
        size-banded :class:`~repro.service.sharded.ShardedStore` with
        ``config.shard_band_policy`` band edges (``size_hint`` — a
        sample of expected genome sizes — is required by the
        ``"quantile"`` policy).
        """
        config = config if config is not None else SimilarityConfig()
        families = SKETCH_ESTIMATORS
        if config.similarity == "weighted_jaccard":
            # A weighted index gets the weighted-MinHash family on top
            # of the plain estimators, so the cascade's sketch stage
            # can bound the weighted score (plain sketches cannot).
            families = families + (WEIGHTED_MINHASH_FAMILY,)
        store = create_store(
            root, m, shards=config.store_shards,
            band_policy=config.shard_band_policy, size_hint=size_hint,
            codec=config.wire_codec,
            sketch_size=config.sketch_size,
            sketch_bits=config.sketch_bits,
            sketch_seed=config.sketch_seed,
            families=families,
            metadata=metadata,
        )
        return cls(store, machine=machine, config=config, executor=executor)

    @classmethod
    def open(
        cls,
        root: str | Path,
        machine: Machine | None = None,
        config: SimilarityConfig | None = None,
        executor=None,
    ) -> "SimilarityService":
        """Open an existing index, whatever its layout.

        The on-disk manifest decides: a flat store gets the classic
        single-store engine, a sharded store the fan-out engine — the
        caller never branches on layout.  A store written before store
        format 2 raises :class:`~repro.service.errors.StoreError` until
        :func:`~repro.service.sharded.migrate_store` upgraded it.
        """
        return cls(
            open_store(root), machine=machine, config=config,
            executor=executor,
        )

    # ---- mutations ------------------------------------------------------

    def add(self, named_values) -> list[GenomeEntry]:
        """Append ``(name, values[, counts])`` items; returns their entries.

        The store's ``append_many``: the batch is validated once, up
        front (:func:`~repro.service.store.validate_add`: a bad item
        anywhere raises :class:`~repro.service.errors.StoreError` with
        nothing written), each genome routes to its size band — a flat
        store is the one-band case — and the touched bands' records,
        sketch rows and LSH rows land in one atomic commit.  An empty
        batch is a :class:`~repro.service.errors.StoreError`.
        """
        if not named_values:
            raise StoreError("need at least one genome to add")
        return self.store.append_many(named_values)

    def remove(self, name: str) -> None:
        """Tombstone one genome (space is reclaimed by :meth:`compact`)."""
        self.store.remove(name)

    def compact(self) -> int:
        """Drop tombstoned genomes; returns the number of record files
        (one per tombstoned genome) reclaimed.

        A sharded store compacts only the shards that hold tombstones.
        """
        return self.store.compact()

    def all_pairs(self) -> SimilarityResult:
        """The exact all-pairs result over the live genomes.

        One run of the batch engine
        (:class:`~repro.core.similarity.SimilarityAtScale`, charged to
        this service's machine) over the stored sets in ``store.names``
        order — one result on either layout, whose ``intersections`` /
        ``sample_sizes`` / ``similarity`` equal a from-scratch
        :func:`~repro.jaccard_similarity` over the same sets.  Writes
        nothing.  Raises :class:`~repro.service.errors.StoreError` on
        an empty store or a non-exact ``config.estimator``.
        """
        if self.config.estimator != "exact":
            raise StoreError(
                "all_pairs is exact; it requires estimator='exact', "
                f"got {self.config.estimator!r}"
            )
        engine = SimilarityAtScale(machine=self.machine, config=self.config)
        return engine.run(self.store.as_source())

    def shard(
        self, shards: int, band_policy: str = "quantile"
    ) -> ShardedStore:
        """Migrate this service's flat store into ``shards`` size bands.

        In-place, atomic (one top-level manifest replacement commits
        the migration), and query-preserving — answers before and after
        are bit-identical.  The service's engine is re-wired to the
        fan-out engine; raises :class:`~repro.service.errors.StoreError`
        if the store is already sharded.
        """
        if isinstance(self.store, ShardedStore):
            raise StoreError(
                f"{self.store.root} is already a sharded store"
            )
        self.store = shard_store(
            self.store.root, shards, band_policy=band_policy
        )
        self._make_engine()
        return self.store

    # ---- queries --------------------------------------------------------

    def query(
        self,
        values=None,
        name: str | None = None,
        threshold: float | None = None,
        top_k: int | None = None,
        counts=None,
    ) -> QueryResult:
        """One threshold/top-k query, by values or by indexed name.

        ``counts`` (aligned per-value abundances) only matters under
        ``similarity="weighted_jaccard"``; name queries load the
        stored counts automatically.
        """
        return self.engine.query(
            values=values, name=name, threshold=threshold, top_k=top_k,
            counts=counts,
        )

    def query_batch(
        self,
        queries,
        threshold: float | None = None,
        top_k: int | None = None,
    ) -> list[QueryResult]:
        """Many queries against one store version, in input order.

        Items are raw value arrays (taking the call-level ``threshold``
        / ``top_k``) or :class:`~repro.service.query.BatchQuery`
        instances; all are validated before anything runs.  Then one
        cascade pass answers them all over one snapshot: on a flat store
        each request searches the same window order and gathers from the
        same rank-space matrix, on a sharded store the band router sends
        each request to the shards its extent window overlaps and merges
        the per-shard answers.  Results equal :meth:`query` exactly on
        both layouts.
        """
        return self.engine.query_batch(
            queries, threshold=threshold, top_k=top_k
        )

    # ---- introspection --------------------------------------------------

    def stats(self) -> dict:
        """One health/introspection snapshot of the store and engine.

        ``cache`` holds the result cache's counters as numbers: ``hits``,
        ``misses``, ``evictions``, ``size``, ``capacity`` and
        ``hit_rate``.
        """
        store = self.store
        sharded = isinstance(store, ShardedStore)
        cache = self.engine.cache.stats
        out = {
            "layout": "sharded" if sharded else "flat",
            "root": str(store.root),
            "m": store.m,
            "n_genomes": store.n_genomes,
            "version": store.version,
            "total_bytes": store.total_bytes(),
            "families": list(store.families),
            "cache": dict(asdict(cache), hit_rate=cache.hit_rate),
            "plan": self.engine.plan().describe(),
            "summary": store.summary(),
        }
        if sharded:
            out["n_shards"] = store.n_shards
            out["band_policy"] = store.band_policy
            out["band_edges"] = [int(e) for e in store.band_edges]
            out["shard_occupancy"] = [s.n_genomes for s in store.shards]
        return out
