"""A store version bump decodes only what changed.

``IndexStore.snapshot`` seeds each new ``StoreSnapshot`` with what the
previous one decoded — its rank space and its decoded sketch rows, by
shard name — so the first query after ``add`` / ``remove`` / ``compact``
reads only the new record files.  Pinned here, on a flat and a 3-band
sharded store with weighted and unweighted genomes, through a history
of adds, removes, compacts, reopens, an in-place re-sketch that renames
every shard, ``migrate_store`` and a failed append whose rolled-back
shard names the next append reuses with new content:

* after every step, each band's pinned snapshot builds a rank space
  (``universe``, ``ranks``, ``offsets``, ``counts``, ``lut``), sketch
  blocks and posting indexes equal to those of a snapshot built with no
  predecessor;
* the build decodes exactly the records of the shards its predecessor
  did not hold: ``k`` value records (plus their counts and sketch
  records) after adding ``k`` genomes, none after a ``remove`` or a
  ``compact``;
* no snapshot keeps its predecessor alive, so memory does not grow
  with history;
* racing first readers of a family decode and stack it once.
"""

import gc
import json
import time
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro.service.store as store_module
from repro.core.config import SimilarityConfig
from repro.core.sketch import BOTTOM_S_FAMILIES
from repro.service import SimilarityIndex, migrate_store, open_store
from repro.service.sharded import create_store
from repro.service.store import MANIFEST_NAME, STORE_FAMILIES, IndexStore, transaction
from tests.helpers import race

M = 600
LAYOUTS = {"flat": 1, "sharded": 3}


def bands_of(store):
    """A sharded store's bands; a flat store is its own only band."""
    return getattr(store, "shards", [store])


def genome(rng, name, weighted):
    """One add item of 0-580 values spread over the three size bands,
    with abundance counts when ``weighted``."""
    vals = np.unique(rng.integers(0, M, size=int(rng.integers(0, 580))))
    if weighted and vals.size:
        return name, vals, rng.integers(1, 5, size=vals.size)
    return name, vals


@pytest.fixture
def reads(monkeypatch):
    """Every ``read_record`` call, as ``(file path, record index)``."""
    log = []
    real = store_module.read_record

    def counting(path, index):
        log.append((str(path), index))
        return real(path, index)

    monkeypatch.setattr(store_module, "read_record", counting)
    return log


def build_all(snap) -> None:
    """Build every part a query can ask a snapshot for."""
    snap.rank_space()
    for family in snap.families:
        snap.family_payloads(family)
        if family in BOTTOM_S_FAMILIES:
            snap.posting_index(family)


def expected_reads(snap, held) -> list:
    """The records a build of every part of ``snap`` decodes when its
    seed holds the shards ``held``: each other shard's value record, one
    record per family and, when its mass differs from its size, its
    counts record."""
    per_shard = 1 + len(snap.families)
    out = []
    for shard, size, mass in zip(snap.shards, snap.sizes(), snap.masses()):
        if shard not in held:
            path = str(snap.root / shard)
            out += [(path, index) for index in range(per_shard)]
            if mass != size:
                out.append((path, per_shard))
    return sorted(out)


def assert_same_build(got, cold) -> None:
    """Two built snapshots of one store version hold equal parts."""
    assert got.shards == cold.shards
    space, want = got.rank_space()[0], cold.rank_space()[0]
    for name in ("universe", "ranks", "offsets", "counts", "lut"):
        a, b = getattr(space, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    for family in got.families:
        for a, b in zip(got.family_payloads(family), cold.family_payloads(family)):
            assert a.dtype == b.dtype and np.array_equal(a, b), family
        if family in BOTTOM_S_FAMILIES:
            a, b = got.posting_index(family), cold.posting_index(family)
            assert a.width == b.width
            for x, y in zip(a[1:], b[1:]):
                assert x.dtype == y.dtype and np.array_equal(x, y), family


@contextmanager
def crash_at_manifest(monkeypatch):
    """Crash the commit at its manifest write, as a torn write would;
    yields the paths of the files staged before it."""
    real, staged = store_module._atomic_write_bytes, []

    def torn(path, data):
        if path.name == MANIFEST_NAME:
            raise OSError("injected crash at the manifest write")
        staged.append(str(path))
        real(path, data)

    monkeypatch.setattr(store_module, "_atomic_write_bytes", torn)
    try:
        yield staged
    finally:
        monkeypatch.setattr(store_module, "_atomic_write_bytes", real)


def mark_format_1(root) -> None:
    """Stamp the store's manifest (each band payload, when sharded) as
    format 1, so that ``migrate_store`` re-sketches every genome."""
    path = root / MANIFEST_NAME
    meta = json.loads(path.read_text())
    payloads = [sh["manifest"] for sh in meta["shards"]] if "shards" in meta else [meta]
    for payload in payloads:
        payload["format_version"] = 1
    path.write_text(json.dumps(meta))


class TestExactUnderHistory:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_every_step_builds_what_a_cold_snapshot_builds(
        self, tmp_path, rng, reads, monkeypatch, layout
    ):
        root = tmp_path / layout
        store = create_store(
            root,
            m=M,
            shards=LAYOUTS[layout],
            band_policy="quantile",
            size_hint=np.arange(M + 1),
            sketch_size=32,
            families=STORE_FAMILIES,
        )
        names = iter(f"g{i:02d}" for i in range(100))
        pinned: list = []  # (band, its last pinned snapshot)

        def add(k):
            store.append_many([genome(rng, next(names), i % 2 == 0) for i in range(k)])

        def step(value_reads):
            """Pin and build each band's snapshot of the store's current
            version; check its decodes and parts against a cold build."""
            want = []
            snaps = [band.snapshot() for band in bands_of(store)]
            for band, snap in zip(bands_of(store), snaps):
                held = [set(old.shards) for b, old in pinned if b is band]
                want += expected_reads(snap, held[0] if held else set())
            pinned[:] = zip(bands_of(store), snaps)
            reads.clear()
            for snap in snaps:
                build_all(snap)
            assert sorted(reads) == sorted(want)
            assert sum(index == 0 for _, index in reads) == value_reads
            for snap, cold in zip(snaps, bands_of(open_store(root))):
                assert_same_build(snap, cold.snapshot())

        def live():
            return store.n_genomes

        store.append_many([("empty", np.zeros(0, dtype=np.int64))])
        add(7)
        step(value_reads=8)  # the first build: nothing to inherit
        add(3)
        step(value_reads=3)
        store.remove(store.names[2])
        step(value_reads=0)
        store.remove(store.names[-1])
        add(1)
        step(value_reads=1)
        store.compact()
        step(value_reads=0)

        # A failed append rolls back; the retry reuses its shard names
        # with new content.
        with crash_at_manifest(monkeypatch) as staged:
            with pytest.raises(OSError, match="injected crash"):
                add(2)
        step(value_reads=0)
        add(2)
        reused = {str(band.root / e.shard) for band in bands_of(store) for e in band.entries}
        assert reused & {p for p in staged if Path(p).parent.name == store_module.SHARD_DIR}
        step(value_reads=2)

        store = open_store(root)  # reopened: nothing to inherit
        step(value_reads=live())
        add(2)
        step(value_reads=2)
        store.remove(store.names[0])
        store.remove(store.names[3])
        step(value_reads=0)

        # The migration's re-sketch on the live store renames every
        # shard, so the seed holds none of them.
        with transaction(store) as txn:
            for band in bands_of(store):
                band._stage_resketch(txn)
        step(value_reads=live())
        mark_format_1(root)
        store = migrate_store(root)
        step(value_reads=live())
        add(1)
        store.remove(store.names[1])
        step(value_reads=1)
        store.compact()
        step(value_reads=0)


class TestNoChain:
    def test_old_snapshots_and_rank_spaces_are_freed(self, tmp_path, rng, reads):
        """20 mutation + query cycles on one engine: each cycle decodes
        only its added genome, and after ``gc.collect()`` every earlier
        snapshot and rank space is gone — the live ones do not grow with
        history."""
        store = IndexStore.create(tmp_path / "s", m=M, sketch_size=32, families=("minhash",))
        store.append_many([genome(rng, f"base{i}", i % 2 == 0) for i in range(6)])
        engine = SimilarityIndex(store, config=SimilarityConfig(query_cache_size=0))
        query = np.arange(0, M, 3)
        refs = []
        for cycle in range(20):
            store.append_many([genome(rng, f"c{cycle:02d}", cycle % 2 == 0)])
            if cycle % 3 == 2:
                store.remove(store.names[0])
            if cycle % 5 == 4:
                store.compact()
            reads.clear()
            engine.query_values(query, threshold=0.05)
            snap = engine.snapshot()
            space, _ = snap.rank_space()
            if cycle:
                assert sum(index == 0 for _, index in reads) == 1
            refs.append((weakref.ref(snap), weakref.ref(space)))
            del snap, space
            gc.collect()
            dead = [r() is None for pair in refs for r in pair]
            assert dead == [True] * (2 * cycle) + [False, False]


class TestFamilyPayloadsLock:
    def test_racing_first_readers_decode_and_stack_once(self, tmp_path, rng, reads, monkeypatch):
        """Threads race to the first ``family_payloads`` and
        ``posting_index`` of one fresh snapshot (the stacking is slowed
        so that they overlap): each family is stacked once per memo and
        each record decoded once."""
        store = IndexStore.create(tmp_path / "s", m=M, sketch_size=32, families=("minhash", "hll"))
        store.append_many([genome(rng, f"g{i:02d}", False) for i in range(12)])
        real, stacks = store_module.stack_payloads, []

        def slow_stack(family, *args):
            stacks.append(family)
            time.sleep(0.05)
            return real(family, *args)

        monkeypatch.setattr(store_module, "stack_payloads", slow_stack)
        snap = store.snapshot()
        readers = [
            lambda: snap.family_payloads("hll"),
            lambda: snap.family_payloads("minhash"),
            lambda: snap.posting_index("minhash"),
        ]
        turns = iter(range(6))

        def first_read():
            kind = next(turns) % 3
            return kind, readers[kind]()

        got = race(6, first_read)
        # One stack per memo: the hll and minhash blocks, and the one
        # the minhash posting index is built from.
        assert sorted(stacks) == ["hll", "minhash", "minhash"]
        assert sorted(reads) == sorted(
            (str(snap.root / shard), index) for shard in snap.shards for index in (1, 2)
        )
        for kind in range(3):
            same = [value for k, value in got if k == kind]
            assert len(same) == 2 and same[0] is same[1]
