"""Batched query admission: the coalescing front end of the cascade.

Serving thousands of concurrent users one query at a time repeats work
the cascade can share: a batch runs against one pinned snapshot, so the
extent-sorted window order and the rank-space matrix verify gathers
from are built once per store version and searched, not rebuilt, by
every request.  The stages themselves live once, in
:func:`repro.service.cascade.run_cascade`; the :class:`QueryBatcher` is
**admission only** — it decides *which requests run together, against
which store version*:

* requests enter a pending batch pinned to the engine's
  version-consistent snapshot; the batch flushes when it reaches
  ``query_batch_size`` requests, when ``query_max_wait`` expires, or
  when a new request observes a newer store version (a batch never
  mixes versions).  Because shards are append-only, a batch admitted
  under version ``v`` computes correct answers for ``v`` even while
  ``add`` moves the store on;
* each flushed batch is handed to the engine's
  :meth:`~repro.service.query.SimilarityIndex.execute` under the
  ``batched=True`` plan, which charges the ``query:batch:*`` kernels
  (``admit`` / ``lsh`` / ``window`` / ``sketch`` / ``verify``) and
  splits the batch's modelled cost evenly across the requests it
  actually computed (cache hits are served for free).

Exactness is the executor's: a batched answer equals the single-query
answer (a batch of one through the same code), which equals brute
force — property- and stress-tested in ``tests/service/test_batcher.py``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.runtime.executor import SequentialExecutor, ThreadedExecutor
from repro.service.cascade import Request, validate_request
from repro.service.errors import ConfigError
from repro.service.query import (
    QueryResult,
    ShardedSimilarityIndex,
    SimilarityIndex,
)


@dataclass(frozen=True)
class BatchQuery:
    """One query of a batch: values plus its own parameters.

    ``query_many`` accepts raw value arrays (which take the call-level
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


@dataclass
class _Batch:
    """The pending batch: requests pinned to one engine snapshot."""

    snapshot: Any
    requests: list[Request] = field(default_factory=list)
    futures: list[Future] = field(default_factory=list)
    timer: threading.Timer | None = None


class QueryBatcher:
    """Coalescing front end over a query engine (flat or sharded).

    Batches run on the engine's machine, config, and result cache —
    entries written through the batcher serve single queries and vice
    versa (the cache key carries no batch context).  ``submit`` returns a
    :class:`concurrent.futures.Future`; ``query_many`` is the
    deterministic synchronous API (fixed chunking, no timers).

    Parameters
    ----------
    index:
        The engine to batch over.
    executor:
        Where flushed batches execute; defaults to a 1-worker
        :class:`~repro.runtime.executor.ThreadedExecutor` (batches
        serialize on the ledger anyway).  Pass a
        :class:`~repro.runtime.executor.SequentialExecutor` to execute
        flushes inline on the admitting thread.
    batch_size / max_wait:
        Override ``config.query_batch_size`` / ``config.query_max_wait``.
    """

    def __init__(
        self,
        index: SimilarityIndex | ShardedSimilarityIndex,
        executor: SequentialExecutor | ThreadedExecutor | None = None,
        batch_size: int | None = None,
        max_wait: float | None = None,
    ):
        self.index = index
        self.batch_size = int(
            batch_size if batch_size is not None
            else index.config.query_batch_size
        )
        if self.batch_size <= 0:
            raise ConfigError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        self.max_wait = float(
            max_wait if max_wait is not None else index.config.query_max_wait
        )
        if self.max_wait < 0:
            raise ConfigError(
                f"max_wait must be >= 0, got {self.max_wait}"
            )
        self._owns_executor = executor is None
        self._executor = (
            executor if executor is not None else ThreadedExecutor(1)
        )
        self._admit_lock = threading.Lock()
        self._exec_lock = threading.Lock()
        self._pending: _Batch | None = None
        self.n_batches = 0
        self.n_requests = 0

    # ---- admission ------------------------------------------------------

    def submit(
        self,
        values,
        threshold: float | None = None,
        top_k: int | None = None,
        exclude_name: str | None = None,
        counts=None,
    ) -> Future:
        """Admit one query; resolves to its :class:`QueryResult`.

        Validation errors raise here, synchronously.  The returned
        future completes when the request's batch executes (full batch,
        ``max_wait`` expiry, version-change flush, or :meth:`flush`).
        """
        request = validate_request(
            self.index.store.m, values, threshold, top_k, counts,
            exclude_name,
        )
        future: Future = Future()
        with self._admit_lock:
            batch = self._admit_batch_locked()
            batch.requests.append(request)
            batch.futures.append(future)
            self.n_requests += 1
            if len(batch.requests) >= self.batch_size or self.max_wait == 0:
                self._dispatch_locked()
            elif batch.timer is None and self.max_wait > 0:
                batch.timer = threading.Timer(
                    self.max_wait, self._flush_expired, args=(batch,)
                )
                batch.timer.daemon = True
                batch.timer.start()
        return future

    def query_many(
        self,
        queries: Sequence,
        threshold: float | None = None,
        top_k: int | None = None,
    ) -> list[QueryResult]:
        """Run many queries through the batched path, deterministically.

        Items are raw value arrays (taking the call-level
        ``threshold`` / ``top_k``) or :class:`BatchQuery` instances.
        Every item is validated before anything runs; the requests are
        then chunked into batches of ``batch_size`` in order, each
        chunk executed inline against the engine's current snapshot —
        no timers, no executor handoff — so results are reproducible
        and returned in input order.
        """
        items = [
            q if isinstance(q, BatchQuery)
            else BatchQuery(q, threshold=threshold, top_k=top_k)
            for q in queries
        ]
        requests = [
            validate_request(
                self.index.store.m, item.values, item.threshold,
                item.top_k, item.counts, item.exclude_name,
            )
            for item in items
        ]
        self.n_requests += len(requests)
        results: list[QueryResult] = []
        for lo in range(0, len(requests), self.batch_size):
            results.extend(
                self._run_batch(
                    requests[lo : lo + self.batch_size],
                    self.index.snapshot(),
                )
            )
        return results

    def flush(self) -> None:
        """Dispatch the pending batch (if any) without waiting for it."""
        with self._admit_lock:
            self._dispatch_locked()

    def close(self) -> None:
        """Flush, then shut down an executor this batcher created."""
        self.flush()
        if self._owns_executor:
            self._executor.shutdown()

    def __enter__(self) -> "QueryBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- admission internals --------------------------------------------

    def _admit_batch_locked(self) -> _Batch:
        """The pending batch for the *current* store version.

        A pending batch admitted under an older version is flushed
        first — batches never mix versions.  (If the store moves
        between this check and execution, the batch still answers
        correctly for the snapshot it holds; the check only bounds
        staleness, it is not needed for correctness.)
        """
        snapshot = self.index.snapshot()
        if (
            self._pending is not None
            and self._pending.snapshot.version != snapshot.version
        ):
            self._dispatch_locked()
        if self._pending is None:
            self._pending = _Batch(snapshot=snapshot)
        return self._pending

    def _dispatch_locked(self) -> None:
        batch = self._pending
        self._pending = None
        if batch is None or not batch.requests:
            return
        if batch.timer is not None:
            batch.timer.cancel()
        self._executor.submit(self._execute_batch, batch)

    def _flush_expired(self, batch: _Batch) -> None:
        with self._admit_lock:
            if self._pending is batch:
                self._dispatch_locked()

    # ---- batch execution ------------------------------------------------

    def _execute_batch(self, batch: _Batch) -> None:
        try:
            results = self._run_batch(batch.requests, batch.snapshot)
            for future, res in zip(batch.futures, results):
                future.set_result(res)
        except BaseException as exc:  # pragma: no cover - defensive
            for future in batch.futures:
                if not future.done():
                    future.set_exception(exc)
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise

    def _run_batch(self, requests: list[Request], snapshot) -> list[QueryResult]:
        """Hand one admitted batch to the engine; results in request order."""
        with self._exec_lock:
            self.n_batches += 1
            return self.index.execute(
                requests, snapshot, self.index.plan(batched=True)
            )
