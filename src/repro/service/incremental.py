"""Incremental index maintenance: add genomes without recomputing all pairs.

A from-scratch rebuild of an ``n``-genome index costs an ``n x n`` Gram
product; adding ``n_new`` genomes to an index that already persists its
Gram only needs the **border block** — intersections of every live
genome against the new ones (``n x n_new``), the old-vs-old block is
already on disk.  The border is computed by the 1-D exact driver's own
read -> zero-row filter -> bit-pack step
(:meth:`~repro.core.similarity.SimilarityAtScale.prepare_1d`), the
rectangular form of the word-tiled popcount kernel
(:func:`~repro.sparse.spgemm.gram_popcount_blocked` with the new
columns as the right operand), and a codec-riding allreduce — so the
cost ledger charges the incremental add exactly like a (rectangular
slice of a) batch engine run, under the ``incremental:border`` kernel
label.

Because every intersection count is an exact integer, merging the
border into the stored Gram produces results **bit-identical** to a
from-scratch rebuild over the same genome order (the regression tests
assert ``np.array_equal``).

Both entry points are layout-blind compositions of the store's one
write path (:mod:`repro.service.store`): validate once, route to bands
(a flat store is its own only band), stage each touched band's records
and Gram, and commit everything with the scope's single manifest
replacement — so an ``add`` is atomic on either layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SimilarityConfig
from repro.core.indicator import SetSource
from repro.core.similarity import SimilarityAtScale
from repro.runtime.codec import resolve_wire_codec
from repro.runtime.engine import Machine
from repro.runtime.machine import laptop
from repro.service.store import IndexStore, StoreError, route, transaction, validate_add
from repro.sparse.spgemm import gram_popcount_blocked


@dataclass(frozen=True)
class IncrementalReport:
    """What an incremental ``add`` did (for logs and tests)."""

    added: tuple[str, ...]
    n_before: int
    n_after: int
    batches: int
    border_shape: tuple[int, int]
    simulated_seconds: float


def _resolve(machine: Machine | None, config: SimilarityConfig | None):
    machine = machine if machine is not None else Machine(laptop(4))
    config = config if config is not None else SimilarityConfig()
    return machine, config


def _border_block(
    machine: Machine,
    config: SimilarityConfig,
    source,
    n_all: int,
    n_new: int,
) -> tuple[np.ndarray, int]:
    """Exact ``(n_all, n_new)`` intersection counts of all-vs-new columns.

    The new columns are the last ``n_new`` of the source.  Returns the
    border block and the number of batches executed.
    """
    engine = SimilarityAtScale(machine=machine, config=config)
    comm = machine.world
    codec = resolve_wire_codec(config.wire_codec)
    batch_plan = engine.plan_1d(source)
    border = np.zeros((n_all, n_new), dtype=np.int64)
    new_lo = n_all - n_new
    for lo, hi in batch_plan.bounds:
        blocks, _, _ = engine.prepare_1d(source, lo, hi, codec)
        with machine.phase("spgemm"):
            results = [gram_popcount_blocked(b, b.col_slice(new_lo, n_all)) for b in blocks]
            comm.charge_compute([r.flops for r in results], kernel="incremental:border")
            border += comm.allreduce([r.value for r in results], op="sum", codec=codec)[0]
    return border, batch_plan.batch_count


def rebuild(
    store,
    machine: Machine | None = None,
    config: SimilarityConfig | None = None,
):
    """Recompute and persist the store's Gram with the batch engine.

    Runs the full exact pipeline over each non-empty band's live
    genomes (a flat store is its own only band) and commits every
    band's intersection matrix + sizes in one transaction.  Returns the
    engine's :class:`~repro.core.result.SimilarityResult` for a flat
    store, the list of per-band results for a sharded one.
    """
    machine, config = _resolve(machine, config)
    if config.estimator != "exact":
        raise StoreError(
            "the persisted Gram must be exact; rebuild requires "
            f"estimator='exact', got {config.estimator!r}"
        )
    if not store.n_genomes:
        raise StoreError("index store is empty")
    engine = SimilarityAtScale(machine=machine, config=config)
    with transaction(store) as txn:
        results = []
        for band in store._bands:
            if band.n_genomes:
                result = engine.run(band.as_source())
                band._stage_gram(result.intersections, result.sample_sizes, None, txn)
                results.append(result)
    return results[0] if store._bands[0] is store else results


def _merged_gram(
    band: IndexStore,
    group: list[tuple[str, np.ndarray, np.ndarray | None]],
    machine: Machine,
    config: SimilarityConfig,
) -> tuple[np.ndarray, int]:
    """One band's stored Gram extended by the border of ``group``.

    A pure computation over the band's live genomes plus the validated
    new ones (nothing is written); returns the merged intersection
    matrix and the number of border batches executed.
    """
    n_before = band.n_genomes
    n_all = n_before + len(group)
    old_values = [band.load_values(name) for name in band.names]
    source = SetSource(old_values + [vals for _, vals, _ in group], m=band.m)
    border, batches = _border_block(machine, config, source, n_all, len(group))
    inter = np.zeros((n_all, n_all), dtype=np.int64)
    if n_before:
        old_inter, old_sizes, _ = band.gram()
        if not np.array_equal(old_sizes, band.sizes()):
            raise StoreError("stored Gram sizes disagree with the manifest sizes")
        inter[:n_before, :n_before] = old_inter
    inter[:, n_before:] = border
    inter[n_before:, :] = border.T
    return inter, batches


def add_genomes(
    store,
    named_values: list[tuple[str, object]],
    machine: Machine | None = None,
    config: SimilarityConfig | None = None,
) -> IncrementalReport:
    """Append genomes and fold only the border block into the stored Gram.

    ``named_values`` is a list of ``(name, values[, counts])`` items
    (see :func:`~repro.service.store.validate_add`).  Every band the
    batch routes to must either be empty (its "border" is then the
    whole Gram) or hold a current Gram to merge into; otherwise call
    :func:`rebuild` first.

    Only the touched bands pay a border — each block is ``(band live +
    band new) x (band new)``, never the whole corpus on a sharded store
    — and records, LSH tables and Grams of every touched band commit in
    one transaction: a crash anywhere rolls all of them back.
    """
    if not named_values:
        raise StoreError("need at least one genome to add")
    machine, config = _resolve(machine, config)
    with transaction(store) as txn:
        n_before = store.n_genomes
        clean = validate_add(store, named_values)
        routed = route(store, clean)
        if any(band.n_genomes and not band.gram_current for band, _ in routed):
            raise StoreError("store has no current Gram to merge into; run rebuild() first")
        before = machine.ledger.snapshot()
        batches = 0
        for band, group in routed:
            inter, n_batches = _merged_gram(band, group, machine, config)
            batches += n_batches
            band._stage_append(group, txn)
            band._stage_gram(inter, band.sizes(), None, txn)
        cost = machine.ledger.diff(before)
    n_all = n_before + len(clean)
    return IncrementalReport(
        added=tuple(name for name, _, _ in clean),
        n_before=n_before,
        n_after=n_all,
        batches=batches,
        border_shape=(n_all, len(clean)),
        simulated_seconds=cost.simulated_seconds,
    )


def similarity_from_gram(intersections: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Eq. 2 on a stored Gram: ``S = B / (a_i + a_j - B)`` (J(0,0)=1)."""
    inter = np.asarray(intersections, dtype=np.float64)
    a = np.asarray(sizes, dtype=np.float64)
    unions = a[:, None] + a[None, :] - inter
    return np.where(unions == 0.0, 1.0, inter / np.where(unions == 0.0, 1.0, unions))
