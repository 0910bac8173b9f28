"""Persistent similarity index + threshold/top-k query serving layer.

The fourth architectural layer of the repo: the batch engine
(:mod:`repro.core`) computes, the codecs (:mod:`repro.runtime.codec`)
compress, the sketches (:mod:`repro.core.sketch`) estimate — this
package **persists and serves**:

* :mod:`repro.service.api` — :class:`SimilarityService`, the **public
  facade**: one front door over both store layouts, mutations, single
  and batched queries, and the exact all-pairs matrix as an on-demand
  read of the batch engine (no mutation maintains it);
* :mod:`repro.service.store` — a versioned on-disk index of genomes
  (sorted value columns + sketches as codec frames), its one write path
  (validate -> route -> staged band operations -> one transaction), a
  store-level lock, and version-consistent snapshots;
* :mod:`repro.service.sharded` — the size-banded sharded layout: a
  top-level manifest maps size bands to shard directories, each shard
  a full :class:`~repro.service.store.IndexStore`; plus the in-place
  flat-to-sharded migration (:func:`shard_store`), the one-way
  format-1 upgrade of either layout (:func:`migrate_store`) and the
  layout-dispatching :func:`open_store` / :func:`create_store`;
* :mod:`repro.service.lsh` — banded MinHash-LSH bucket tables over the
  stored b-bit lane fingerprints: band/row planning from the collision
  curve ``1 - (1 - s^r)^b``, incremental maintenance, and codec-frame
  persistence alongside the manifest;
* :mod:`repro.service.plan` — the explicit :class:`QueryPlan` stage
  pipeline (pure data) every query compiles to;
* :mod:`repro.service.cascade` — the one executor of that plan:
  request validation and the lsh / window / sketch / verify stage
  bodies, a function of ``(plan, snapshot, requests)``;
* :mod:`repro.service.query` — the threshold/top-k query engines
  around the executor: the flat engine (snapshot pin, result cache,
  cost split) and the sharded band router that runs it per size band
  and merges exactly; ``query_batch`` answers many queries in one
  pass over one snapshot;
* :mod:`repro.service.cache` — the LRU query/result cache, shared by
  every entry point through one topology-aware key schema;
* :mod:`repro.service.errors` — the :class:`ServiceError` hierarchy
  every service-layer failure raises under.

See ``docs/service.md`` for the store layouts, the cascade correctness
argument, batched queries, and the facade contract.
"""

from repro.service.api import SimilarityService
from repro.service.cache import CacheStats, QueryCache, result_cache_key
from repro.service.errors import (
    ConfigError,
    QueryError,
    ServiceError,
    StoreError,
)
from repro.service.lsh import (
    BandPlan,
    LSHTable,
    band_keys,
    collision_probability,
    plan_bands,
)
from repro.service.plan import PlanStage, QueryPlan, compile_plan
from repro.service.query import (
    BatchQuery,
    QueryMatch,
    QueryResult,
    ShardedSimilarityIndex,
    SimilarityIndex,
    exact_jaccard,
    merge_shard_results,
    size_ratio_window,
)
from repro.service.sharded import (
    ShardedEntry,
    ShardedStore,
    create_store,
    migrate_store,
    open_store,
    plan_size_bands,
    shard_store,
)
from repro.service.store import GenomeEntry, IndexStore, StoreSnapshot

__all__ = [
    "SimilarityService",
    "BatchQuery",
    "CacheStats",
    "QueryCache",
    "result_cache_key",
    "ServiceError",
    "StoreError",
    "QueryError",
    "ConfigError",
    "BandPlan",
    "LSHTable",
    "band_keys",
    "collision_probability",
    "plan_bands",
    "PlanStage",
    "QueryPlan",
    "compile_plan",
    "QueryMatch",
    "QueryResult",
    "SimilarityIndex",
    "ShardedSimilarityIndex",
    "exact_jaccard",
    "merge_shard_results",
    "size_ratio_window",
    "GenomeEntry",
    "IndexStore",
    "StoreSnapshot",
    "ShardedEntry",
    "ShardedStore",
    "create_store",
    "migrate_store",
    "open_store",
    "plan_size_bands",
    "shard_store",
]

