"""Tests for the on-disk index store: round trips under every codec."""

import struct
from dataclasses import replace

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
from tests.helpers import install_torn_writes

M = 10_000

value_sets = st.sets(st.integers(min_value=0, max_value=M - 1), max_size=200)


def make_store(tmp_path, codec="adaptive", **kwargs):
    return IndexStore.create(tmp_path / "idx", m=M, codec=codec, **kwargs)


def answered(result):
    """A query result without its modelled cost: two services that lived
    through different mutations and queries charge their ledgers from
    different clocks, but must answer alike."""
    return replace(result, simulated_seconds=0.0)


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


SMALL = np.array([1, 2, 3], dtype=np.int64)
# M // 3 = 3333: on three equal-width bands the mid band starts there.
MID = np.arange(3400, 7000, dtype=np.int64)
LARGE = np.arange(100, 7900, dtype=np.int64)
# New genomes landing in two different bands of the sharded layout.
X = ("x", np.array([7, 8], dtype=np.int64))
Y = ("y", np.arange(4000, 8000, dtype=np.int64))


def bands_of(store):
    """A sharded store's bands; a flat store is its own only band."""
    return getattr(store, "shards", [store])


class TestCrashConsistency:
    """Fault injection: a crash mid-write must never tear the store.

    Every byte either layout writes flows through
    ``repro.service.store._atomic_write_bytes``.  The injector below
    simulates a crash during the N-th write of a mutation: a torn temp
    file lands on disk, the target is never replaced, and the mutation
    raises.  Whatever N (mid-record, mid-LSH-table, between two bands'
    files, mid-manifest), the live store must roll back in
    memory — in place, so a service's engines keep serving it — and a
    fresh ``open`` must see the previous committed version intact on
    every band; the retried mutation must then succeed.  One table
    covers layout x mutation: both layouts commit through the same
    scope, so they owe the same contract (``sh-*`` rows = sharded).
    """

    @staticmethod
    def _baseline(tmp_path, tag, layout="flat"):
        from repro.service import SimilarityService, create_store

        store = create_store(
            tmp_path / f"{layout}-{tag}", m=M,
            shards=3 if layout == "sharded" else 1,
            band_policy="quantile", size_hint=np.arange(M + 1), sketch_size=64,
        )
        store.append_many([("small", SMALL), ("mid", MID), ("large", LARGE)])
        return SimilarityService(store)

    @staticmethod
    def _state(store):
        return (
            store.version,
            store.names,
            {n: store.load_values(n).tolist() for n in store.names},
            [
                (b.version, b.names, b.lsh_file)
                for b in bands_of(store)
            ],
        )

    @staticmethod
    def _tables(store):
        return [b.lsh_table() for b in bands_of(store)]

    _install_injector = staticmethod(install_torn_writes)

    # Each row is (prep, mutation) over a SimilarityService: prep
    # commits normally, the mutation is the single transaction the
    # crash is injected into.  On the sharded layout every row touches
    # >= 2 bands or a band plus the top level, so the sweep hits crash
    # points between bands, not just within one.
    MUTATIONS = {
        "append_many": (None, lambda svc: svc.store.append_many([X, Y])),
        "add": (None, lambda svc: svc.add([X, Y])),
        "remove": (None, lambda svc: svc.remove("mid")),
        "compact": (
            lambda svc: (svc.remove("small"), svc.remove("large")),
            lambda svc: svc.compact(),
        ),
    }
    FLAT_ONLY = {
        "shard_store": (None, lambda svc: svc.shard(3)),
    }
    ROWS = {
        **{label: ("flat", *row) for label, row in MUTATIONS.items()},
        **{label: ("flat", *row) for label, row in FLAT_ONLY.items()},
        **{
            f"sh-{label}": ("sharded", *row)
            for label, row in MUTATIONS.items()
        },
    }

    def _write_log(self, tmp_path, monkeypatch, row):
        # A dry run with an injector that never fires logs the
        # mutation's writes, so the sweep below hits every one.
        layout, prep, mutate = self.ROWS[row]
        service = self._baseline(tmp_path, f"count-{row}", layout)
        if prep is not None:
            prep(service)
        with monkeypatch.context() as mp:
            log = self._install_injector(mp, fail_on=0)
            mutate(service)
            return list(log)

    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_crash_at_every_write_rolls_back(
        self, tmp_path, monkeypatch, row
    ):
        from repro.service import SimilarityService, open_store

        layout, prep, mutate = self.ROWS[row]
        log = self._write_log(tmp_path, monkeypatch, row)
        # Data file(s) first, then exactly one manifest — the commit.
        assert len(log) >= 2
        assert log.count("manifest.json") == 1
        assert log[-1] == "manifest.json"
        for fail_on in range(1, len(log) + 1):
            service = self._baseline(tmp_path, f"{row}-{fail_on}", layout)
            if prep is not None:
                prep(service)
            root = service.store.root
            committed = self._state(service.store)
            tables = self._tables(service.store)
            service.query(values=SMALL, top_k=5)  # pins every band
            with monkeypatch.context() as mp:
                self._install_injector(mp, fail_on)
                with pytest.raises(OSError, match="injected crash"):
                    mutate(service)
            # The live store rolled back in memory...
            assert self._state(service.store) == committed
            # ...and a fresh open sees the previous committed version,
            # top level AND every band.
            reopened = open_store(root)
            assert self._state(reopened) == committed
            for store in (service.store, reopened):
                for got, want in zip(self._tables(store), tables):
                    assert got.equals(want)
            # The interrupted mutation retries cleanly, and the service
            # that lived through the crash answers like a fresh one.
            mutate(service)
            assert service.store.version == committed[0] + 1
            assert self._state(open_store(root)) == self._state(service.store)
            fresh = SimilarityService.open(root)
            for query in (np.array([7, 8, 9]), MID):
                assert answered(service.query(values=query, top_k=5)) == answered(
                    fresh.query(values=query, top_k=5)
                )

    @pytest.mark.parametrize(
        "layout, mutate, n_writes, touched",
        [
            # record + LSH table, then the manifest
            ("flat", lambda svc: svc.add([X]), 3, [0]),
            # band 0: 1 record + LSH; band 1: 3 records + LSH; then the
            # one top-level manifest
            (
                "sharded",
                lambda svc: svc.add(
                    [X, Y, ("y2", Y[1][1:]), ("y3", Y[1][2:])]
                ),
                7,
                [0, 1],
            ),
            # the band's LSH table, then the manifest
            ("sharded", lambda svc: svc.remove("mid"), 2, [1]),
        ],
        ids=["flat-add", "sharded-add-two-bands", "sharded-remove"],
    )
    def test_one_manifest_and_one_version_per_mutation(
        self, tmp_path, monkeypatch, layout, mutate, n_writes, touched
    ):
        service = self._baseline(tmp_path, "traffic", layout)
        bands = bands_of(service.store)
        before = [b.version for b in bands]
        version = service.store.version
        log = self._install_injector(monkeypatch, fail_on=0)
        mutate(service)
        assert len(log) == n_writes
        assert log.count("manifest.json") == 1 and log[-1] == "manifest.json"
        assert service.store.version == version + 1
        assert [b.version for b in bands] == [
            v + (i in touched) for i, v in enumerate(before)
        ]

    @pytest.mark.parametrize("layout", ["flat", "sharded"])
    def test_all_pairs_writes_nothing(self, tmp_path, monkeypatch, layout):
        service = self._baseline(tmp_path, "read", layout)
        committed = self._state(service.store)
        log = self._install_injector(monkeypatch, fail_on=0)
        assert service.all_pairs().n == 3
        assert log == []
        assert self._state(service.store) == committed

    def test_torn_manifest_never_observed(self, tmp_path, monkeypatch):
        # The injected crash lands during the manifest write itself:
        # the torn bytes sit in a temp file, the committed manifest is
        # still the old one, and open() parses it fine.
        store = self._baseline(tmp_path, "manifest").store
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
        store = self._baseline(tmp_path, "orphan").store
        with monkeypatch.context() as mp:
            self._install_injector(mp, fail_on=2)  # the LSH-table write
            with pytest.raises(OSError, match="injected crash"):
                store.append("late", [42])
        reopened = IndexStore.open(store.root)
        assert reopened.lsh_file == store.lsh_file
        assert reopened.lsh_table().equals(store.lsh_table())


class TestShardedCrashConsistency:
    """What only the sharded layout can get wrong: the top-level
    manifest is the one commit of every band (the crash sweep itself is
    ``TestCrashConsistency``'s ``sh-*`` rows)."""

    def test_rolled_back_add_leaves_no_stale_band_engine(
        self, tmp_path, monkeypatch
    ):
        # The rollback restores the band stores in place, so a service
        # whose band engines pinned them before the crash must not
        # serve the rolled-back genomes after the next successful
        # mutation.
        from repro.service import SimilarityService

        sweep = TestCrashConsistency()
        n_writes = len(
            sweep._write_log(tmp_path, monkeypatch, "sh-add")
        )
        service = sweep._baseline(tmp_path, "stale-engine", "sharded")
        bands = list(service.store.shards)
        service.query(values=SMALL, top_k=5)  # pins every band
        with monkeypatch.context() as mp:
            sweep._install_injector(mp, fail_on=n_writes)  # top manifest
            with pytest.raises(OSError, match="injected crash"):
                service.add([X, Y])
        assert all(a is b for a, b in zip(service.store.shards, bands))
        service.add([("z", np.array([7, 9], dtype=np.int64))])
        fresh = SimilarityService.open(service.store.root)
        for query in (np.array([7, 8, 9]), MID):
            got = service.query(values=query, top_k=5)
            want = fresh.query(values=query, top_k=5)
            assert answered(got) == answered(want)
            assert "x" not in got.names and "y" not in got.names

    def test_band_manifests_of_an_older_layout_are_never_read(self, tmp_path):
        # Stores written before bands stopped committing on their own
        # hold a manifest.json per band directory.  Whether it is stale
        # or ahead of the top-level manifest (an interrupted two-level
        # commit left both), open() trusts only the embedded payloads.
        import json

        from repro.service import SimilarityService

        service = TestCrashConsistency._baseline(tmp_path, "legacy", "sharded")
        root = service.store.root
        assert not list(root.glob("bands/*/manifest.json"))
        committed = TestCrashConsistency._state(service.store)
        want = [service.query(values=q, top_k=5) for q in (SMALL, MID)]
        stale, ahead, _ = service.store.shards
        payload = stale._manifest_payload()
        payload.update(version=0, genomes=[])
        (stale.root / "manifest.json").write_text(json.dumps(payload))
        payload = ahead._manifest_payload()
        payload["version"] += 2
        payload["genomes"].append(
            {"name": "ghost", "shard": "shards/000099.bin", "n_values": 4000,
             "removed": False, "mass": 4000}
        )
        (ahead.root / "manifest.json").write_text(json.dumps(payload))
        reopened = SimilarityService.open(root)
        assert TestCrashConsistency._state(reopened.store) == committed
        got = [reopened.query(values=q, top_k=5) for q in (SMALL, MID)]
        assert [answered(r) for r in got] == [answered(r) for r in want]
        # ...and the next mutation commits past them without touching them.
        reopened.add([X, Y])
        assert "ghost" not in SimilarityService.open(root).store.names


class TestRecordFileErrors:
    """Hostile bytes in a genome's record file: every reader raises a
    :class:`StoreError` or answers — never another exception."""

    @staticmethod
    def _service(tmp_path):
        from repro.core.config import SimilarityConfig
        from repro.service import SimilarityService

        service = SimilarityService.create(
            tmp_path / "idx", m=M,
            config=SimilarityConfig(sketch_size=16, query_cache_size=0),
        )
        service.add(
            [("a", SMALL), ("b", np.arange(10, 60)), ("c", np.arange(40, 90))]
        )
        return service

    @staticmethod
    def _readers(root, name, query):
        """``load_values``, every family's stacked payloads and a query,
        each from a fresh open; the values (or ``None`` on StoreError)."""
        from repro.service import SimilarityService

        store = IndexStore.open(root)
        calls = [lambda: store.load_values(name)]
        calls += [
            lambda f=f: store.snapshot().family_payloads(f)
            for f in store.families
        ]
        calls.append(
            lambda: SimilarityService.open(root).query(values=query, top_k=3)
        )
        out = []
        for call in calls:
            try:
                out.append(call())
            except StoreError:
                out.append(None)
        return out

    def test_flipped_length_prefixes_and_frame_headers(self, tmp_path):
        from repro.runtime.codec import HEADER_NBYTES

        service = self._service(tmp_path)
        path = service.store.root / service.store._entry("b").shard
        blob = path.read_bytes()
        positions, offset = [], 0
        while offset < len(blob):
            (length,) = struct.unpack_from("<Q", blob, offset)
            positions.extend(range(offset, offset + 8 + HEADER_NBYTES))
            offset += 8 + length
        assert len(positions) == 4 * (8 + HEADER_NBYTES)  # values + 3 sketches
        for position in positions:
            for flip in (0xFF, 0x01):
                corrupt = bytearray(blob)
                corrupt[position] ^= flip
                path.write_bytes(bytes(corrupt))
                self._readers(service.store.root, "b", SMALL)

    def test_every_truncation_is_a_store_error(self, tmp_path):
        service = self._service(tmp_path)
        root = service.store.root
        path = root / service.store._entry("b").shard
        blob = path.read_bytes()
        records = read_records(path)
        intact = self._readers(root, "b", SMALL)
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            # A cut at a record boundary leaves whole records (a file
            # cannot tell it held more); anywhere else the file is torn.
            try:
                kept = read_records(path)
            except StoreError as exc:
                assert path.name in str(exc)
            else:
                assert 0 < len(kept) < len(records)
                for got, want in zip(kept, records):
                    assert np.array_equal(got, want)
            values, *payloads, answer = self._readers(root, "b", SMALL)
            # The last record is the last family's sketch, so that
            # family never reads; every other reader gets intact records
            # or a typed error.
            assert payloads[-1] is None
            assert values is None or np.array_equal(values, intact[0])
            assert answer is None or answer == intact[-1]
