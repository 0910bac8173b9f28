"""Tests for the on-disk index store: round trips under every codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import SKETCH_ESTIMATORS, make_sketch
from repro.runtime.codec import WIRE_CODECS
from repro.service.store import (
    IndexStore,
    StoreError,
    read_record,
    read_records,
    write_records,
)

M = 10_000

value_sets = st.sets(st.integers(min_value=0, max_value=M - 1), max_size=200)


def make_store(tmp_path, codec="adaptive", **kwargs):
    return IndexStore.create(tmp_path / "idx", m=M, codec=codec, **kwargs)


class TestRecordFraming:
    @pytest.mark.parametrize("codec", WIRE_CODECS)
    def test_mixed_payloads_round_trip(self, tmp_path, codec):
        path = tmp_path / "shard.bin"
        payloads = [
            np.array([3, 17, 912], dtype=np.int64),
            np.empty(0, dtype=np.uint64),
            np.arange(12, dtype=np.uint8).reshape(3, 4),
            np.array([2**63 - 1], dtype=np.int64),
        ]
        nbytes = write_records(path, payloads, codec)
        assert nbytes == path.stat().st_size
        out = read_records(path)
        assert len(out) == len(payloads)
        for a, b in zip(payloads, out):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "shard.bin"
        write_records(path, [np.arange(10)], "raw")
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(StoreError, match="truncated"):
            read_records(path)

    @pytest.mark.parametrize("codec", WIRE_CODECS)
    def test_read_record_skips_without_decoding(self, tmp_path, codec):
        path = tmp_path / "shard.bin"
        payloads = [
            np.arange(1000, dtype=np.int64),
            np.array([7, 8], dtype=np.uint64),
            np.arange(4, dtype=np.uint8),
        ]
        write_records(path, payloads, codec)
        for i, expect in enumerate(payloads):
            got = read_record(path, i)
            assert np.array_equal(got, expect)

    def test_read_record_index_out_of_range(self, tmp_path):
        path = tmp_path / "shard.bin"
        write_records(path, [np.arange(3)], "raw")
        with pytest.raises(StoreError, match="record"):
            read_record(path, 1)


class TestStoreRoundTrip:
    @pytest.mark.parametrize("codec", WIRE_CODECS)
    def test_values_round_trip_every_codec(self, tmp_path, codec, rng):
        store = make_store(tmp_path, codec=codec)
        sets = {
            "empty": np.empty(0, dtype=np.int64),
            "single": np.array([42], dtype=np.int64),
            "dense": np.arange(0, M, 3, dtype=np.int64),
            "random": np.unique(rng.integers(0, M, size=500)),
            "edges": np.array([0, M - 1], dtype=np.int64),
        }
        for name, vals in sets.items():
            store.append(name, vals)
        reopened = IndexStore.open(tmp_path / "idx")
        assert reopened.codec == codec
        for name, vals in sets.items():
            assert np.array_equal(reopened.load_values(name), vals)
        assert np.array_equal(
            reopened.sizes(), [v.size for v in sets.values()]
        )

    @pytest.mark.parametrize("codec", WIRE_CODECS)
    @pytest.mark.parametrize("family", SKETCH_ESTIMATORS)
    def test_sketches_round_trip(self, tmp_path, codec, family, rng):
        store = make_store(
            tmp_path, codec=codec, sketch_size=64, sketch_bits=6
        )
        vals = np.unique(rng.integers(0, M, size=300))
        store.append("g", vals)
        payload = store.load_sketch_payload("g", family)
        reference = make_sketch(family, 64, 6, 0).update(vals)
        if family == "minhash":
            assert np.array_equal(payload, reference.hashes)
        elif family == "bbit_minhash":
            assert np.array_equal(payload, reference.packed())
        else:
            assert np.array_equal(payload, reference.registers)

    @given(values=value_sets)
    @settings(max_examples=25, deadline=None)
    def test_any_value_set_round_trips(self, tmp_path_factory, values):
        root = tmp_path_factory.mktemp("hyp") / "idx"
        store = IndexStore.create(
            root, m=M, codec="adaptive", families=("minhash",)
        )
        store.append("g", values)
        out = IndexStore.open(root).load_values("g")
        assert np.array_equal(out, np.unique(np.array(sorted(values))))
        assert out.dtype == np.int64

    def test_single_genome_store(self, tmp_path):
        store = make_store(tmp_path)
        store.append("only", [1, 2, 3])
        reopened = IndexStore.open(tmp_path / "idx")
        assert reopened.names == ["only"]
        assert reopened.n_genomes == 1
        src = reopened.as_source()
        assert src.n == 1 and src.m == M


class TestEmptyStore:
    def test_open_empty(self, tmp_path):
        make_store(tmp_path)
        reopened = IndexStore.open(tmp_path / "idx")
        assert reopened.names == []
        assert reopened.n_genomes == 0
        assert reopened.sizes().size == 0
        assert not reopened.has_gram

    def test_as_source_rejected(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(StoreError, match="empty"):
            store.as_source()

    def test_compact_noop(self, tmp_path):
        store = make_store(tmp_path)
        version = store.version
        assert store.compact() == 0
        assert store.version == version


class TestMutations:
    def test_duplicate_name_rejected(self, tmp_path):
        store = make_store(tmp_path)
        store.append("g", [1])
        with pytest.raises(StoreError, match="already present"):
            store.append("g", [2])

    def test_out_of_range_values_rejected(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(StoreError, match="outside"):
            store.append("g", [M])

    def test_version_bumps_on_every_mutation(self, tmp_path):
        store = make_store(tmp_path)
        v0 = store.version
        store.append("a", [1, 2])
        assert store.version == v0 + 1
        store.append("b", [2, 3])
        store.remove("a")
        assert store.version == v0 + 3
        store.compact()
        assert store.version == v0 + 4

    def test_remove_tombstones_then_compact_reclaims(self, tmp_path):
        store = make_store(tmp_path)
        store.append("a", [1, 2])
        store.append("b", [2, 3])
        store.append("c", [5])
        shard_b = store.root / store._entry("b").shard
        store.remove("b")
        assert store.names == ["a", "c"]
        assert shard_b.exists()  # tombstoned, not yet reclaimed
        with pytest.raises(KeyError):
            store.load_values("b")
        assert store.compact() == 1
        assert not shard_b.exists()
        reopened = IndexStore.open(tmp_path / "idx")
        assert reopened.names == ["a", "c"]
        assert np.array_equal(reopened.load_values("a"), [1, 2])
        assert np.array_equal(reopened.load_values("c"), [5])

    def test_reappend_after_remove(self, tmp_path):
        store = make_store(tmp_path)
        store.append("g", [1, 2])
        store.remove("g")
        store.append("g", [7, 8, 9])
        assert np.array_equal(store.load_values("g"), [7, 8, 9])

    def test_compact_after_remove_of_all(self, tmp_path):
        store = make_store(tmp_path)
        store.append("a", [1])
        store.remove("a")
        assert store.compact() == 1
        assert store.n_genomes == 0
        assert store.total_bytes() == 0

    def test_create_over_existing_rejected(self, tmp_path):
        make_store(tmp_path)
        with pytest.raises(StoreError, match="already exists"):
            make_store(tmp_path)

    def test_append_many_is_one_mutation(self, tmp_path):
        store = make_store(tmp_path)
        v0 = store.version
        entries = store.append_many(
            [("a", [1, 2]), ("b", [3]), ("c", [])]
        )
        assert [e.name for e in entries] == ["a", "b", "c"]
        assert store.version == v0 + 1
        assert store.append_many([]) == []
        assert store.version == v0 + 1

    def test_append_many_validates_before_writing(self, tmp_path):
        store = make_store(tmp_path)
        store.append("a", [1])
        with pytest.raises(StoreError, match="already present"):
            store.append_many([("b", [2]), ("a", [3])])
        with pytest.raises(StoreError, match="already present"):
            store.append_many([("c", [2]), ("c", [3])])
        with pytest.raises(StoreError, match="outside"):
            store.append_many([("d", [2]), ("e", [M])])
        assert store.names == ["a"]
        assert len(list((store.root / "shards").iterdir())) == 1


class TestGramArtifact:
    def test_round_trip_and_currency(self, tmp_path):
        store = make_store(tmp_path)
        store.append("a", [1, 2, 3])
        store.append("b", [2, 3])
        inter = np.array([[3, 2], [2, 2]], dtype=np.int64)
        sizes = np.array([3, 2], dtype=np.int64)
        store.set_gram(inter, sizes)
        assert store.gram_current
        got_inter, got_sizes, names = IndexStore.open(tmp_path / "idx").gram()
        assert np.array_equal(got_inter, inter)
        assert np.array_equal(got_sizes, sizes)
        assert names == ["a", "b"]

    def test_append_staleness(self, tmp_path):
        store = make_store(tmp_path)
        store.append("a", [1])
        store.set_gram(np.array([[1]]), np.array([1]))
        store.append("b", [2])
        assert store.has_gram and not store.gram_current

    def test_remove_drops_row_and_column(self, tmp_path):
        store = make_store(tmp_path)
        store.append("a", [1, 2, 3])
        store.append("b", [2, 3])
        store.append("c", [9])
        inter = np.array(
            [[3, 2, 0], [2, 2, 0], [0, 0, 1]], dtype=np.int64
        )
        store.set_gram(inter, np.array([3, 2, 1]))
        store.remove("b")
        assert store.gram_current
        got_inter, got_sizes, names = store.gram()
        assert names == ["a", "c"]
        assert np.array_equal(got_inter, [[3, 0], [0, 1]])
        assert np.array_equal(got_sizes, [3, 1])

    def test_shape_validation(self, tmp_path):
        store = make_store(tmp_path)
        store.append("a", [1])
        with pytest.raises(StoreError, match="shape"):
            store.set_gram(np.zeros((2, 2), dtype=np.int64), np.array([1]))


class TestCrashConsistency:
    """Fault injection: a crash mid-write must never tear the store.

    Every byte the store writes flows through
    ``repro.service.store._atomic_write_bytes``.  The injector below
    simulates a crash during the N-th write of a mutation: a torn temp
    file lands on disk, the target is never replaced, and the mutation
    raises.  Whatever N (mid-shard, mid-Gram, mid-LSH-table,
    mid-manifest), the live store must roll back in memory and a fresh
    ``open`` must see the previous committed version intact — and the
    retried mutation must then succeed.
    """

    @staticmethod
    def _baseline(tmp_path, tag):
        store = IndexStore.create(
            tmp_path / f"idx-{tag}", m=M, sketch_size=64
        )
        sets = {
            "a": np.array([1, 2, 3, 4], dtype=np.int64),
            "b": np.array([2, 3, 4], dtype=np.int64),
            "c": np.array([500, 501], dtype=np.int64),
        }
        for name, vals in sets.items():
            store.append(name, vals)
        inter = np.array(
            [[4, 3, 0], [3, 3, 0], [0, 0, 2]], dtype=np.int64
        )
        store.set_gram(inter, np.array([4, 3, 2]))
        return store, sets

    @staticmethod
    def _state(store):
        return (
            store.version,
            store.names,
            {n: store.load_values(n).tolist() for n in store.names},
            store.gram_file,
            store.lsh_file,
        )

    @staticmethod
    def _install_injector(monkeypatch, fail_on):
        import repro.service.store as store_module

        real = store_module._atomic_write_bytes
        calls = {"n": 0}

        def torn(path, data):
            calls["n"] += 1
            if calls["n"] == fail_on:
                torn_tmp = path.with_name(path.name + ".tmp")
                torn_tmp.write_bytes(data[: max(1, len(data) // 2)])
                raise OSError(
                    f"injected crash during write #{fail_on} "
                    f"({path.name})"
                )
            real(path, data)

        monkeypatch.setattr(store_module, "_atomic_write_bytes", torn)
        return calls

    # Each entry is (prep, mutation): prep commits normally, the
    # mutation is the single transaction the crash is injected into.
    MUTATIONS = {
        "append_many": (
            None,
            lambda s: s.append_many([("x", [7, 8]), ("y", [9])]),
        ),
        "remove": (None, lambda s: s.remove("b")),
        "compact": (lambda s: s.remove("b"), lambda s: s.compact()),
        "set_gram": (
            None,
            lambda s: s.set_gram(
                np.eye(3, dtype=np.int64), np.array([4, 3, 2])
            ),
        ),
    }

    def _count_writes(self, tmp_path, monkeypatch, label):
        # A dry run with an injector that never fires counts the
        # mutation's writes, so the sweep below hits every one.
        prep, mutate = self.MUTATIONS[label]
        with monkeypatch.context() as mp:
            calls = self._install_injector(mp, fail_on=0)
            store, _ = self._baseline(tmp_path, f"count-{label}")
            if prep is not None:
                prep(store)
            before = calls["n"]
            mutate(store)
            return calls["n"] - before

    @pytest.mark.parametrize("label", sorted(MUTATIONS))
    def test_crash_at_every_write_rolls_back(
        self, tmp_path, monkeypatch, label
    ):
        prep, mutate = self.MUTATIONS[label]
        n_writes = self._count_writes(tmp_path, monkeypatch, label)
        assert n_writes >= 2  # data file(s) + LSH table + manifest
        for fail_on in range(1, n_writes + 1):
            store, _ = self._baseline(tmp_path, f"{label}-{fail_on}")
            if prep is not None:
                prep(store)
            committed = self._state(store)
            table = store.lsh_table()
            with monkeypatch.context() as mp:
                self._install_injector(mp, fail_on)
                with pytest.raises(OSError, match="injected crash"):
                    mutate(store)
            # Live store rolled back in memory...
            assert self._state(store) == committed
            assert store.lsh_table().equals(table)
            # ...and a fresh open sees the previous committed version.
            reopened = IndexStore.open(store.root)
            assert self._state(reopened) == committed
            assert reopened.lsh_table().equals(table)
            # The interrupted mutation retries cleanly.
            mutate(store)
            assert store.version == committed[0] + 1
            final = IndexStore.open(store.root)
            assert final.names == store.names
            assert final.lsh_table().equals(store.lsh_table())

    def test_torn_manifest_never_observed(self, tmp_path, monkeypatch):
        # The injected crash lands during the manifest write itself:
        # the torn bytes sit in a temp file, the committed manifest is
        # still the old one, and open() parses it fine.
        store, _ = self._baseline(tmp_path, "manifest")
        n_writes = 3  # shard, lsh table, manifest — manifest is last
        version = store.version
        with monkeypatch.context() as mp:
            self._install_injector(mp, fail_on=n_writes)
            with pytest.raises(OSError, match="injected crash"):
                store.append("late", [42])
        torn = list(store.root.glob("manifest.json.tmp"))
        assert torn, "expected the torn temp file to remain"
        reopened = IndexStore.open(store.root)
        assert reopened.version == version
        assert "late" not in reopened.names

    def test_orphaned_staged_files_are_ignored(self, tmp_path, monkeypatch):
        # A crash after the LSH table write leaves an unreferenced
        # lsh-<v+1>.bin on disk; open() reads only the manifest's file.
        store, _ = self._baseline(tmp_path, "orphan")
        with monkeypatch.context() as mp:
            self._install_injector(mp, fail_on=2)  # the LSH-table write
            with pytest.raises(OSError, match="injected crash"):
                store.append("late", [42])
        reopened = IndexStore.open(store.root)
        assert reopened.lsh_file == store.lsh_file
        assert reopened.lsh_table().equals(store.lsh_table())


def _sharded_rebuild(store):
    from repro.service.incremental import rebuild

    return rebuild(store)


def _sharded_add(store):
    from repro.service.incremental import add_genomes

    return add_genomes(
        store,
        [
            ("x", np.array([7, 8], dtype=np.int64)),
            ("y", np.arange(4000, 8000, dtype=np.int64)),
        ],
    )


class TestShardedCrashConsistency:
    """Fault injection on the two-level (shard + top manifest) commit.

    A sharded mutation appends to several shard stores and then bumps
    the top-level manifest; a crash at ANY write — inside a shard's
    data file, inside a shard's LSH table, between one shard's commit
    and the next, or during the top-level manifest replacement itself —
    must leave a fresh ``ShardedStore.open`` at the previous version on
    **every** shard (the top-level manifest embeds the shard payloads,
    so a shard's committed-but-unreferenced files are simply ignored).
    """

    @staticmethod
    def _baseline(tmp_path, tag):
        from repro.service.sharded import ShardedStore

        store = ShardedStore.create(
            tmp_path / f"sh-{tag}", m=M, shards=3,
            band_policy="uniform", sketch_size=64,
        )
        sets = {
            "small": np.array([1, 2, 3], dtype=np.int64),
            # M // 3 = 3333: mid band starts there.
            "mid": np.arange(3400, 7000, dtype=np.int64),
            "large": np.arange(100, 7900, dtype=np.int64),
        }
        store.append_many(list(sets.items()))
        return store, sets

    @staticmethod
    def _state(store):
        return (
            store.version,
            store.names,
            {n: store.load_values(n).tolist() for n in store.names},
            [s.version for s in store.shards],
            [s.gram_file for s in store.shards],
            [s.lsh_file for s in store.shards],
        )

    _install_injector = staticmethod(
        TestCrashConsistency._install_injector
    )

    # Every mutation below touches >= 2 shards, so the sweep hits
    # crash points between shard commits, not just within one.
    MUTATIONS = {
        "append_many": (
            None,
            lambda s: s.append_many(
                [
                    ("x", np.array([7, 8], dtype=np.int64)),
                    ("y", np.arange(4000, 8000, dtype=np.int64)),
                ]
            ),
        ),
        "remove": (None, lambda s: s.remove("mid")),
        "compact": (
            lambda s: (s.remove("small"), s.remove("large")),
            lambda s: s.compact(),
        ),
        # The border-merge needs a current Gram on every touched shard.
        "add_genomes": (
            lambda s: _sharded_rebuild(s),
            lambda s: _sharded_add(s),
        ),
    }

    def _count_writes(self, tmp_path, monkeypatch, label):
        prep, mutate = self.MUTATIONS[label]
        with monkeypatch.context() as mp:
            calls = self._install_injector(mp, fail_on=0)
            store, _ = self._baseline(tmp_path, f"count-{label}")
            if prep is not None:
                prep(store)
            before = calls["n"]
            mutate(store)
            return calls["n"] - before

    @pytest.mark.parametrize("label", sorted(MUTATIONS))
    def test_crash_at_every_write_rolls_back(
        self, tmp_path, monkeypatch, label
    ):
        from repro.service.sharded import ShardedStore

        prep, mutate = self.MUTATIONS[label]
        n_writes = self._count_writes(tmp_path, monkeypatch, label)
        # Two shards' files plus the top-level manifest, at least.
        assert n_writes >= 3
        for fail_on in range(1, n_writes + 1):
            store, _ = self._baseline(tmp_path, f"{label}-{fail_on}")
            if prep is not None:
                prep(store)
            committed = self._state(store)
            with monkeypatch.context() as mp:
                self._install_injector(mp, fail_on)
                with pytest.raises(OSError, match="injected crash"):
                    mutate(store)
            # Live store rolled back in memory...
            assert self._state(store) == committed
            # ...and a fresh open sees the previous committed version
            # on the top level AND on every shard.
            reopened = ShardedStore.open(store.root)
            assert self._state(reopened) == committed
            # The interrupted mutation retries cleanly.
            mutate(store)
            assert store.version == committed[0] + 1
            final = ShardedStore.open(store.root)
            assert final.names == store.names
            assert [s.version for s in final.shards] == [
                s.version for s in store.shards
            ]

    def test_crash_between_shard_commit_and_manifest(
        self, tmp_path, monkeypatch
    ):
        # The top-level manifest is the LAST write of a multi-shard
        # append.  Crash exactly there: every shard has already written
        # its new files, yet reopening must still see the old version —
        # the new shard files are unreferenced and ignored.
        from repro.service.sharded import ShardedStore

        n_writes = self._count_writes(tmp_path, monkeypatch, "append_many")
        _, mutate = self.MUTATIONS["append_many"]
        store, _ = self._baseline(tmp_path, "last-write")
        committed = self._state(store)
        with monkeypatch.context() as mp:
            self._install_injector(mp, fail_on=n_writes)
            with pytest.raises(OSError, match="injected crash"):
                mutate(store)
        torn = list(store.root.glob("manifest.json.tmp"))
        assert torn, "the crash must have hit the top-level manifest"
        reopened = ShardedStore.open(store.root)
        assert self._state(reopened) == committed
        assert "x" not in reopened.names and "y" not in reopened.names

    def test_rolled_back_add_leaves_no_stale_band_engine(
        self, tmp_path, monkeypatch
    ):
        # The rollback *replaces* the band stores that had already
        # committed; a service whose band engines kept the discarded
        # objects would serve the rolled-back genomes after the next
        # successful mutation.
        from repro.service import SimilarityService
        from tests.helpers import without_modelled_cost

        n_writes = self._count_writes(tmp_path, monkeypatch, "add_genomes")
        store, sets = self._baseline(tmp_path, "stale-engine")
        _sharded_rebuild(store)
        service = SimilarityService(store)
        service.query(values=sets["small"], top_k=5)  # pins every band
        with monkeypatch.context() as mp:
            self._install_injector(mp, fail_on=n_writes)  # top manifest
            with pytest.raises(OSError, match="injected crash"):
                _sharded_add(service.store)
        service.add([("z", np.array([7, 9], dtype=np.int64))])
        fresh = SimilarityService.open(store.root)
        for query in (np.array([7, 8, 9]), sets["mid"]):
            got = service.query(values=query, top_k=5)
            want = fresh.query(values=query, top_k=5)
            assert without_modelled_cost(got) == without_modelled_cost(want)
            assert "x" not in got.names and "y" not in got.names
