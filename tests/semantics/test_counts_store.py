"""Counts persistence: round-trip, normalization, and back-compat.

The store invariant under test: a counts record exists on disk iff the
genome's total mass differs from its support size; all-ones counts
normalize away entirely, leaving shards byte-identical to a pair-based
append — so weighted-capable stores stay readable by (and identical
to) the presence/absence layout whenever no real multiplicity exists.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.store import IndexStore


def test_counts_round_trip(tmp_path):
    store = IndexStore.create(tmp_path / "s", m=256)
    vals = np.array([3, 7, 11, 200], dtype=np.int64)
    counts = np.array([4, 1, 9, 2], dtype=np.int64)
    store.append_many([("a", vals, counts)])
    assert np.array_equal(store.load_counts("a"), counts)
    assert np.array_equal(store.load_values("a"), vals)
    assert int(store.masses()[0]) == int(counts.sum())

    reopened = IndexStore.open(tmp_path / "s")
    assert np.array_equal(reopened.load_counts("a"), counts)
    assert int(reopened.masses()[0]) == int(counts.sum())


def test_snapshot_counts_round_trip(tmp_path):
    store = IndexStore.create(tmp_path / "s", m=256)
    vals = np.array([1, 2, 5], dtype=np.int64)
    counts = np.array([2, 2, 3], dtype=np.int64)
    store.append_many([("a", vals, counts), ("b", vals)])
    snap = store.snapshot()
    assert np.array_equal(snap.load_counts("a"), counts)
    assert np.array_equal(snap.load_counts("b"), np.ones(3, dtype=np.int64))
    assert list(snap.masses()) == [7, 3]
    with pytest.raises(KeyError):
        snap.load_counts("missing")


def test_pair_appended_genomes_report_unit_counts(tmp_path):
    store = IndexStore.create(tmp_path / "s", m=64)
    vals = np.array([4, 9], dtype=np.int64)
    store.append_many([("plain", vals)])
    assert np.array_equal(
        store.load_counts("plain"), np.ones(2, dtype=np.int64)
    )
    assert int(store.masses()[0]) == 2


def test_all_ones_counts_are_byte_identical_to_pairs(tmp_path):
    """Multiplicity-free triples write exactly the pair layout."""
    vals = np.array([5, 6, 42], dtype=np.int64)
    a = IndexStore.create(tmp_path / "a", m=64)
    a.append_many([("g", vals, np.ones(3, dtype=np.int64))])
    b = IndexStore.create(tmp_path / "b", m=64)
    b.append_many([("g", vals)])
    shard_a = tmp_path / "a" / a.entries[0].shard
    shard_b = tmp_path / "b" / b.entries[0].shard
    assert shard_a.read_bytes() == shard_b.read_bytes()
    assert a.entries[0].to_json() == b.entries[0].to_json()


def test_true_counts_survive_but_add_one_record(tmp_path):
    vals = np.array([5, 6, 42], dtype=np.int64)
    a = IndexStore.create(tmp_path / "a", m=64)
    a.append_many([("g", vals, np.array([1, 2, 1], dtype=np.int64))])
    b = IndexStore.create(tmp_path / "b", m=64)
    b.append_many([("g", vals)])
    shard_a = tmp_path / "a" / a.entries[0].shard
    shard_b = tmp_path / "b" / b.entries[0].shard
    assert shard_a.stat().st_size > shard_b.stat().st_size
    assert a.entries[0].mass == 4
    assert b.entries[0].mass == 3
