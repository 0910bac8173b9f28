"""LRU query/result cache for the similarity index (serving layer).

A :class:`QueryCache` memoizes query results keyed by everything that
determines the answer — the query digest, the query parameters, and the
store *version* (so any mutation of the index invalidates every cached
entry without an explicit flush).  Eviction is least-recently-used;
hit/miss/eviction counters are kept so the serving layer can surface a
hit rate in ``QueryResult.summary()``.

The key schema lives in exactly one place — :func:`result_cache_key` —
and deliberately contains **no batch context**: keys are built in one
spot (the engines' ``execute``), whether the query arrived alone or in a
``query_batch``, so an entry written through either entry point is
served to the other.  ``tests/service/test_batcher.py`` pins this schema
with a regression test.

The cache is internally locked: threads querying one shared engine may
probe it concurrently.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

from repro.service.errors import ConfigError

#: Topology component of a single-shard store's cache key.  Sharded
#: stores pass their own ``ShardedStore.topology()`` tuple instead, so
#: re-banding a store (which changes which shards a query fans out
#: over, but not the answer) still keys distinctly from the flat
#: layout.
SINGLE_TOPOLOGY = ("single",)


def result_cache_key(
    vals: np.ndarray,
    threshold: float | None,
    top_k: int | None,
    prefilter: str,
    family: str | None,
    candidates: str,
    exclude_name: str | None,
    store_version: int,
    topology: tuple = SINGLE_TOPOLOGY,
    similarity: str = "jaccard",
    counts_digest: str | None = None,
) -> tuple:
    """The canonical cache key of one threshold/top-k query.

    Everything that determines the answer, nothing else: the query's
    content digest and size, the query parameters, the sketch family
    the prefilter would consult (``None`` unless the cascade runs), the
    candidate generator (an approximate ``"lsh"`` answer must never be
    served for a ``"scan"`` / ``"lsh_exact"`` request, or vice versa),
    the excluded self-match, and the store version (any index mutation
    changes the version and so invalidates every prior entry).  Batch
    membership is deliberately absent — a query answers the same
    whether it arrived alone or coalesced, so both entry points share
    entries.  ``topology`` is the store's shard topology
    (:data:`SINGLE_TOPOLOGY` for a flat store, the sharded store's band
    layout otherwise): the answers are exactly equal across layouts,
    but the per-shard counters a cached :class:`~repro.service.query.
    QueryResult` carries are not, so entries never cross topologies.

    ``similarity`` is the measure the scores are computed under — the
    same values score differently under jaccard vs containment, so the
    measure is part of the key.  ``counts_digest`` is the digest of the
    query's multiplicity vector (``None`` for an unweighted query):
    under ``weighted_jaccard`` two queries over the same support but
    different abundances answer differently.
    """
    return (
        hashlib.sha256(vals.tobytes()).hexdigest(),
        int(vals.size), threshold, top_k, prefilter,
        family, candidates, exclude_name, store_version, topology,
        similarity, counts_digest,
    )


def counts_cache_digest(counts: np.ndarray | None) -> str | None:
    """Digest of a query's multiplicity vector (``None`` stays ``None``)."""
    if counts is None:
        return None
    arr = np.ascontiguousarray(counts, dtype=np.int64)
    return hashlib.sha256(arr.tobytes()).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache's lifetime (monotone except ``size``)."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:
        return (
            f"{self.hits} hit(s) / {self.misses} miss(es) "
            f"({self.hit_rate:.0%}), {self.size}/{self.capacity} entries"
        )


class QueryCache:
    """A least-recently-used mapping with hit/miss accounting.

    ``capacity`` is the maximum number of retained entries; ``0``
    disables retention entirely (every lookup is a miss, nothing is
    stored) while keeping the counters alive, so a cache-less
    configuration still reports its miss traffic.

    All operations hold an internal lock, so one cache may be shared
    by concurrent callers.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ConfigError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """The cached value, refreshed to most-recently-used, or ``None``."""
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self._misses += 1
            return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU one if full."""
        with self._lock:
            if self.capacity == 0:
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )
