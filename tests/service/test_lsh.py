"""Tests for the banded MinHash-LSH candidate index.

The load-bearing invariants, property-tested with Hypothesis:

* the table is *canonical* — incremental ``with_added`` /
  ``with_removed`` maintenance equals a from-scratch ``build`` over the
  same item sequence (in memory and byte for byte on disk), and the
  table rebuilt from its on-disk codec frames equals the in-memory one;
* ``probe`` equals its brute-force definition — the items sharing the
  query's key *in the same band* — kept here as the reference;
* a table file that is not this store's table raises ``StoreError``
  (never a numpy / struct error), except the pre-key-matrix layout,
  which is rebuilt from the stored fingerprints and replaced by the
  next mutation;
* measured recall over true matches is no worse than the analytic
  collision bound ``1 - (1 - s^r)^b`` minus a statistical tolerance;
* ``query_candidates="lsh_exact"`` returns exactly the brute-force
  answer under the exact prefilters (the probe only audits; it never
  narrows), and a subset of it, exactly scored, under the cascade.
"""

import doctest

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.service.cascade as cascade_module
import repro.service.lsh
import repro.service.store as store_module
from repro.core.config import SimilarityConfig
from repro.core.sketch import make_sketch
from repro.service import IndexStore, SimilarityIndex, SimilarityService, StoreError
from repro.service.lsh import (
    BandPlan,
    LSHTable,
    band_keys,
    collision_probability,
    plan_bands,
)
from repro.service.query import exact_jaccard
from repro.service.store import LSH_FAMILY, read_records, write_records
from tests.helpers import legacy_payloads

M = 20_000
LANES = 64
BITS = 8


def fingerprints_for(vals, n_lanes=LANES, bits=BITS, seed=0):
    sk = make_sketch(LSH_FAMILY, n_lanes, bits, seed)
    sk.update(np.asarray(sorted(vals), dtype=np.int64))
    return sk.fingerprints()


def corpus_fingerprints(rng, n_items, n_lanes=LANES, seed=0):
    return [
        fingerprints_for(
            np.unique(rng.integers(0, M, size=int(rng.integers(1, 400)))),
            n_lanes=n_lanes, seed=seed,
        )
        for _ in range(n_items)
    ]


class TestCollisionCurve:
    def test_endpoints(self):
        assert collision_probability(1.0, 4, 64) == pytest.approx(1.0)
        assert collision_probability(0.0, 4, 64) == 0.0

    def test_monotone_in_similarity(self):
        s = np.linspace(0.0, 1.0, 101)
        p = collision_probability(s, 4, 64)
        assert np.all(np.diff(p) >= -1e-12)

    def test_vectorized_matches_scalar(self):
        s = np.array([0.1, 0.5, 0.9])
        vec = collision_probability(s, 3, 42)
        for si, pi in zip(s, vec):
            assert collision_probability(float(si), 3, 42) == pytest.approx(pi)

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError, match="positive"):
            collision_probability(0.5, 0, 64)
        with pytest.raises(ValueError, match="positive"):
            collision_probability(0.5, 4, -1)


class TestBandPlanning:
    def test_default_plan_is_pinned(self):
        plan = plan_bands(0.5, 256, 0.05)
        assert (plan.bands, plan.rows) == (64, 4)
        assert plan.meets_budget
        assert plan.recall >= 0.95

    def test_plan_honours_lane_budget(self):
        for n_lanes in (8, 64, 128, 256, 512):
            plan = plan_bands(0.5, n_lanes)
            assert plan.bands * plan.rows <= n_lanes

    @given(
        threshold=st.floats(min_value=0.05, max_value=1.0),
        n_lanes=st.sampled_from([16, 64, 128, 256, 512]),
        fn_budget=st.floats(min_value=0.001, max_value=0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_plan_is_precision_optimal_within_budget(
        self, threshold, n_lanes, fn_budget
    ):
        plan = plan_bands(threshold, n_lanes, fn_budget)
        assert plan.bands * plan.rows <= plan.n_lanes == n_lanes
        if plan.meets_budget:
            # The next-steeper banding must miss the budget (or the
            # plan used every admissible row already).
            rows = plan.rows + 1
            if rows <= n_lanes:
                worse = collision_probability(
                    threshold, rows, n_lanes // rows
                )
                assert worse < 1.0 - fn_budget or plan.rows == n_lanes
        else:
            # Fallback: the highest-recall banding, r = 1.
            assert plan.rows == 1 and plan.bands == n_lanes

    def test_infeasible_budget_falls_back_to_r1(self):
        plan = plan_bands(0.01, 16, 0.001)
        assert (plan.bands, plan.rows) == (16, 1)
        assert not plan.meets_budget
        assert "NOT met" in plan.describe()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            plan_bands(0.0, 256)
        with pytest.raises(ValueError, match="n_lanes"):
            plan_bands(0.5, 0)
        with pytest.raises(ValueError, match="fn_budget"):
            plan_bands(0.5, 256, 1.0)
        with pytest.raises(ValueError, match="exceeds"):
            BandPlan(bands=4, rows=4, n_lanes=8, threshold=0.5, fn_budget=0.05)


class TestBandKeys:
    def test_deterministic_and_seed_sensitive(self, rng):
        plan = plan_bands(0.5, LANES)
        fps = fingerprints_for(rng.integers(0, M, size=100))
        assert np.array_equal(band_keys(fps, plan, 7), band_keys(fps, plan, 7))
        assert not np.array_equal(
            band_keys(fps, plan, 7), band_keys(fps, plan, 8)
        )

    def test_equal_lanes_equal_keys(self, rng):
        # Two items agreeing on every lane of a band share that band key.
        plan = plan_bands(0.5, LANES)
        a = fingerprints_for(rng.integers(0, M, size=100))
        b = a.copy()
        b[plan.rows] ^= np.uint64(1)  # corrupt one lane of band 1 only
        ka, kb = band_keys(a, plan, 0), band_keys(b, plan, 0)
        assert ka[0] == kb[0]
        assert ka[1] != kb[1]
        assert np.array_equal(ka[2:], kb[2:])

    def test_too_few_lanes_rejected(self):
        plan = plan_bands(0.5, LANES)
        with pytest.raises(ValueError, match="lane"):
            band_keys(np.zeros(LANES - 1, dtype=np.uint64), plan, 0)
        with pytest.raises(ValueError, match="lane"):
            band_keys(np.zeros((3, LANES - 1), dtype=np.uint64), plan, 0)

    def test_stacked_block_agrees_row_for_row(self, rng):
        # Surplus lanes (LANES + 5 > bands * rows) are ignored either way.
        plan = plan_bands(0.5, LANES)
        block = np.stack(corpus_fingerprints(rng, 9, n_lanes=LANES + 5))
        keys = band_keys(block, plan, 11)
        assert keys.shape == (9, plan.bands) and keys.dtype == np.uint64
        for row, fps in zip(keys, block):
            assert np.array_equal(row, band_keys(fps, plan, 11))
        assert band_keys(block[:0], plan, 11).shape == (0, plan.bands)


class TestTableCanonical:
    """Incremental maintenance == from-scratch build, bit for bit."""

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_incremental_add_equals_scratch(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        n = data.draw(st.integers(min_value=0, max_value=24))
        split = data.draw(st.integers(min_value=0, max_value=n))
        rng = np.random.default_rng(seed)
        fps = corpus_fingerprints(rng, n)
        plan = plan_bands(0.5, LANES)
        scratch = LSHTable.build(plan, BITS, 0, fps)
        grown = LSHTable.build(plan, BITS, 0, fps[:split]).with_added(
            fps[split:]
        )
        assert scratch.equals(grown)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_removal_equals_scratch_without_item(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        n = data.draw(st.integers(min_value=1, max_value=20))
        pos = data.draw(st.integers(min_value=0, max_value=n - 1))
        rng = np.random.default_rng(seed)
        fps = corpus_fingerprints(rng, n)
        plan = plan_bands(0.5, LANES)
        removed = LSHTable.build(plan, BITS, 0, fps).with_removed(pos)
        scratch = LSHTable.build(plan, BITS, 0, fps[:pos] + fps[pos + 1 :])
        assert removed.equals(scratch)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_history_equals_scratch(self, data):
        # An arbitrary interleaving of adds and removes vs one build
        # over the sequence it leaves behind.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        plan = plan_bands(0.5, LANES)
        table = LSHTable.build(plan, BITS, 0, [])
        kept: list[np.ndarray] = []
        for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
            if kept and data.draw(st.booleans()):
                pos = data.draw(st.integers(0, len(kept) - 1))
                del kept[pos]
                table = table.with_removed(pos)
            else:
                new = corpus_fingerprints(rng, data.draw(st.integers(0, 4)))
                kept += new
                table = table.with_added(new)
        scratch = LSHTable.build(plan, BITS, 0, kept)
        assert table.equals(scratch) and table.n_items == len(kept)
        assert np.array_equal(table.keymat, scratch.keymat)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_payload_round_trip(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        n = data.draw(st.integers(min_value=0, max_value=16))
        rng = np.random.default_rng(seed)
        table = LSHTable.build(
            plan_bands(0.5, LANES), BITS, 3, corpus_fingerprints(rng, n)
        )
        back = LSHTable.from_payloads(table.to_payloads())
        assert back.equals(table)

    def test_add_nothing_is_identity(self, rng):
        table = LSHTable.build(
            plan_bands(0.5, LANES), BITS, 0, corpus_fingerprints(rng, 5)
        )
        assert table.with_added([]) is table

    def test_remove_out_of_range_rejected(self, rng):
        table = LSHTable.build(
            plan_bands(0.5, LANES), BITS, 0, corpus_fingerprints(rng, 3)
        )
        with pytest.raises(ValueError, match="outside"):
            table.with_removed(3)

    def test_truncated_payloads_rejected(self, rng):
        table = LSHTable.build(
            plan_bands(0.5, LANES), BITS, 0, corpus_fingerprints(rng, 4)
        )
        with pytest.raises(ValueError, match="frame"):
            LSHTable.from_payloads(table.to_payloads()[:-1])

    def test_table_is_three_payloads(self, rng):
        table = LSHTable.build(
            plan_bands(0.5, LANES), BITS, 0, corpus_fingerprints(rng, 4)
        )
        header, params, keymat = table.to_payloads()
        assert header.tolist() == [
            table.plan.bands, table.plan.rows, LANES, BITS, 0, 4
        ]
        assert params.tolist() == [0.5, 0.05]
        assert keymat is table.keymat and keymat.shape == (4, table.plan.bands)

    def test_stacked_block_builds_the_same_table(self, rng):
        fps = corpus_fingerprints(rng, 6)
        plan = plan_bands(0.5, LANES)
        assert LSHTable.build(plan, BITS, 0, np.stack(fps)).equals(
            LSHTable.build(plan, BITS, 0, fps)
        )

    def test_module_doctests_execute(self):
        failed, attempted = doctest.testmod(repro.service.lsh)
        assert attempted >= 8 and failed == 0


def brute_probe(table, fingerprints):
    """The definition ``probe`` must equal: an item is a candidate iff
    some band's key equals the query's key *in that same band*;
    ``retrieved`` counts the matching (item, band) cells."""
    qkeys = band_keys(fingerprints, table.plan, table.seed)
    cells = [
        (item, band)
        for item in range(table.n_items)
        for band in range(table.plan.bands)
        if table.keymat[item, band] == qkeys[band]
    ]
    return sorted({item for item, _ in cells}), len(cells)


class TestProbe:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_probe_equals_brute_force(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n = data.draw(st.integers(min_value=0, max_value=12))
        fps = corpus_fingerprints(rng, n)
        # Duplicate items (every band collides) and near-duplicates (one
        # band differs) make buckets with several members.
        for src in data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=4)):
            if n:
                twin = fps[src].copy()
                if data.draw(st.booleans()):
                    twin[data.draw(st.integers(0, LANES - 1))] ^= np.uint64(1)
                fps.append(twin)
        table = LSHTable.build(plan_bands(0.5, LANES), BITS, 0, fps)
        queries = fps + corpus_fingerprints(rng, 2)
        for q in queries:
            cands, retrieved = table.probe(q)
            want, want_retrieved = brute_probe(table, q)
            assert cands.dtype == np.int64 and cands.tolist() == want
            assert retrieved == want_retrieved

    def test_key_shared_across_bands_is_not_a_hit(self):
        # One 64-bit key planted in two *different* bands: exactness does
        # not rest on band keys never colliding across bands.
        plan = BandPlan(bands=4, rows=1, n_lanes=4, threshold=0.5, fn_budget=0.05)
        query = np.array([1, 2, 3, 4], dtype=np.uint64)
        qkeys = band_keys(query, plan, 0)
        keymat = np.arange(100, 112, dtype=np.uint64).reshape(3, 4)
        keymat[0, 2] = qkeys[1]  # the query's band-1 key, sitting in band 2
        keymat[1, 0] = qkeys[3]  # ... its band-3 key, in band 0
        keymat[2, 3] = qkeys[3]  # a true hit, for contrast
        table = LSHTable(plan, BITS, 0, keymat)
        cands, retrieved = table.probe(query)
        assert (cands.tolist(), retrieved) == ([2], 1)
        assert (cands.tolist(), retrieved) == brute_probe(table, query)

    def test_probe_cost_is_the_deepest_band(self, rng):
        # bands * log2(most distinct keys any band holds) + retrieved.
        fps = corpus_fingerprints(rng, 9)
        fps += [fps[0], fps[0]]  # duplicates share every bucket
        table = LSHTable.build(plan_bands(0.5, LANES), BITS, 0, fps)
        deepest = max(
            np.unique(table.keymat[:, band]).size for band in range(table.plan.bands)
        )
        assert table.probe_cost(5) == table.plan.bands * float(np.log2(deepest)) + 5.0

    def test_bad_key_matrix_payload_rejected(self, rng):
        table = LSHTable.build(plan_bands(0.5, LANES), BITS, 0, corpus_fingerprints(rng, 2))
        header, params, keymat = table.to_payloads()
        for bad in (keymat.view(np.int64), keymat[:, :-1], keymat[:1], keymat.ravel(), b"x"):
            with pytest.raises(ValueError, match="key matrix"):
                LSHTable.from_payloads([header, params, bad])
        for bad in ([header[:5], params, keymat], [header, params[:1], keymat]):
            with pytest.raises(ValueError, match="frame"):
                LSHTable.from_payloads(bad)

    def test_identical_item_always_retrieved(self, rng):
        # Equal fingerprints share every band key, so every stored
        # duplicate of the query is a guaranteed candidate.
        fps = corpus_fingerprints(rng, 12)
        table = LSHTable.build(plan_bands(0.5, LANES), BITS, 0, fps)
        for i, f in enumerate(fps):
            cands, retrieved = table.probe(f)
            assert i in cands
            assert retrieved >= cands.size

    def test_probe_empty_table(self):
        table = LSHTable.build(plan_bands(0.5, LANES), BITS, 0, [])
        cands, retrieved = table.probe(
            np.zeros(LANES, dtype=np.uint64)
        )
        assert cands.size == 0 and retrieved == 0
        assert table.probe_cost(0) > 0.0

    def test_candidates_sorted_unique(self, rng):
        fps = corpus_fingerprints(rng, 30)
        table = LSHTable.build(plan_bands(0.5, LANES), BITS, 0, fps)
        cands, _ = table.probe(fps[0])
        assert np.array_equal(cands, np.unique(cands))
        assert cands.dtype == np.int64


class TestStorePersistence:
    """Disk-rebuilt tables equal the in-memory ones, across mutations."""

    def stored_sets(self, rng, n=10):
        return [
            np.unique(rng.integers(0, M, size=int(rng.integers(5, 300))))
            for _ in range(n)
        ]

    def make_store(self, tmp_path, rng, n=10):
        store = IndexStore.create(
            tmp_path / "idx", m=M, sketch_size=LANES, sketch_bits=BITS
        )
        for i, vals in enumerate(self.stored_sets(rng, n)):
            store.append(f"g{i}", vals)
        return store

    def test_reopened_table_equals_live(self, tmp_path, rng):
        store = self.make_store(tmp_path, rng)
        reopened = IndexStore.open(tmp_path / "idx")
        assert reopened.lsh_table().equals(store.lsh_table())
        # ... and both equal a from-scratch rebuild over the sketches.
        assert store.lsh_table().equals(store._build_lsh())

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_mutations_keep_disk_table_canonical(
        self, tmp_path_factory, seed
    ):
        rng = np.random.default_rng(seed)
        root = tmp_path_factory.mktemp("lsh") / "idx"
        store = IndexStore.create(
            root, m=M, sketch_size=LANES, sketch_bits=BITS
        )
        for i, vals in enumerate(self.stored_sets(rng, 8)):
            store.append(f"g{i}", vals)
        victim = f"g{int(rng.integers(0, 8))}"
        store.remove(victim)
        store.compact()
        store.append("late", np.unique(rng.integers(0, M, size=50)))
        assert store.lsh_table().equals(store._build_lsh())
        assert IndexStore.open(root).lsh_table().equals(store.lsh_table())
        # ... and the table *file* is canonical too: a store that got
        # the surviving genomes in one batch holds the same bytes.
        fresh = IndexStore.create(
            root.parent / "fresh", m=M, sketch_size=LANES, sketch_bits=BITS
        )
        fresh.append_many([(n, store.load_values(n)) for n in store.names])
        assert (fresh.root / fresh.lsh_file).read_bytes() == (
            root / store.lsh_file
        ).read_bytes()

    def test_store_without_lsh_family_has_no_table(self, tmp_path):
        store = IndexStore.create(
            tmp_path / "idx", m=M, families=("minhash",)
        )
        assert not store.has_lsh
        assert store.lsh_file is None

    def test_lsh_planning_params_persist(self, tmp_path, rng):
        store = IndexStore.create(
            tmp_path / "idx", m=M, sketch_size=LANES,
            lsh_threshold=0.4, lsh_fn_budget=0.02,
        )
        store.append("g", rng.integers(0, M, size=40))
        reopened = IndexStore.open(tmp_path / "idx")
        assert reopened.lsh_threshold == 0.4
        assert reopened.lsh_fn_budget == 0.02
        plan = reopened.lsh_table().plan
        assert plan.threshold == 0.4 and plan.fn_budget == 0.02

    def test_invalid_lsh_params_rejected_at_create(self, tmp_path):
        from repro.service.store import StoreError

        with pytest.raises((StoreError, ValueError), match="threshold"):
            IndexStore.create(tmp_path / "bad", m=M, lsh_threshold=0.0)


class TestTableFile:
    """What ``IndexStore.lsh_table()`` makes of the bytes in ``lsh-*.bin``."""

    N = 3

    def small_store(self, tmp_path, rng):
        store = IndexStore.create(
            tmp_path / "idx", m=M, sketch_size=LANES, sketch_bits=BITS
        )
        store.append_many(
            [
                (f"g{i}", np.unique(rng.integers(0, M, size=40 + 30 * i)))
                for i in range(self.N)
            ]
        )
        return store, store.root / store.lsh_file

    @staticmethod
    def assert_unreadable(root, path):
        for read in (IndexStore.lsh_table, IndexStore.snapshot):
            with pytest.raises(StoreError) as err:
                read(IndexStore.open(root))
            assert str(path) in str(err.value)

    def test_every_truncation_is_a_store_error(self, tmp_path, rng):
        store, path = self.small_store(tmp_path, rng)
        blob = path.read_bytes()
        assert len(read_records(path)) == 3
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            self.assert_unreadable(store.root, path)
        path.write_bytes(blob)
        assert IndexStore.open(store.root).lsh_table().equals(store.lsh_table())

    def test_every_header_field_is_checked(self, tmp_path, rng):
        store, path = self.small_store(tmp_path, rng)
        header, params, keymat = store.lsh_table().to_payloads()
        for field in range(header.size):
            for delta in (-1, 1):
                bad = header.copy()
                bad[field] += delta
                write_records(path, [bad, params, keymat], "raw")
                self.assert_unreadable(store.root, path)
        for field in range(params.size):
            bad = params.copy()
            bad[field] /= 2
            write_records(path, [header, bad, keymat], "raw")
            self.assert_unreadable(store.root, path)

    def test_wrong_frames_are_store_errors(self, tmp_path, rng):
        store, path = self.small_store(tmp_path, rng)
        header, params, keymat = store.lsh_table().to_payloads()
        fewer = header.copy()
        fewer[5] -= 1  # consistent with its matrix, not with the manifest
        for payloads in (
            [header, params],
            [header, params, keymat, keymat],
            [header.astype(np.float64), params, keymat],
            [header[:5], params, keymat],
            [header, params.astype(np.float32), keymat],
            [header, params, keymat.view(np.int64)],
            [header, params, keymat.astype(np.float64)],
            [header, params, keymat.astype(np.uint32)],
            [header, params, keymat[:-1]],
            [header, params, keymat[:, :-1]],
            [header, params, keymat.ravel()],
            [header, params, np.frombuffer(b"not a matrix", np.uint8)],
            [fewer, params, keymat[:-1]],
            legacy_payloads(store.lsh_table()),
            legacy_payloads(store.lsh_table())[:-1],
            [np.frombuffer(b"junk", np.uint8)] * len(legacy_payloads(store.lsh_table())),
        ):
            write_records(path, payloads, "raw")
            self.assert_unreadable(store.root, path)
        path.write_bytes(b"\x05\x00\x00\x00\x00\x00\x00\x00RWF1!")  # no frame
        self.assert_unreadable(store.root, path)


class TestWriteTraffic:
    """A mutation writes one three-record table file per *touched* band
    — counted at the byte sink, so a regression to per-bucket frames (or
    to rewriting untouched bands) fails without a stopwatch."""

    @staticmethod
    def sized(rng, size):
        return np.sort(rng.choice(M, size=size, replace=False))

    def test_one_table_file_per_touched_band(self, tmp_path, rng, monkeypatch):
        # Quantile bands over an even spread of sizes: 8 equal-width bands.
        service = SimilarityService.create(
            tmp_path / "idx", m=M,
            config=SimilarityConfig(
                store_shards=8, shard_band_policy="quantile", sketch_size=LANES
            ),
            size_hint=np.arange(M + 1),
        )
        width = (M + 1) // 8 + 1
        service.add(
            [(f"b{band}", self.sized(rng, band * width + 50)) for band in range(5)]
        )
        real = store_module._atomic_write_bytes
        log: list[tuple[str, str, int]] = []

        def counting(path, data):
            real(path, data)
            if path.name.startswith("lsh-"):
                log.append((path.parent.name, path.name, len(read_records(path))))

        monkeypatch.setattr(store_module, "_atomic_write_bytes", counting)

        def tables_written(mutation):
            log.clear()
            mutation()
            assert all(n == 3 for _, _, n in log), log
            return sorted(band for band, _, _ in log)

        batch = [
            ("x1", self.sized(rng, width + 10)),
            ("x5", self.sized(rng, 5 * width + 10)),
            ("y1", self.sized(rng, width + 20)),
        ]
        assert tables_written(lambda: service.add(batch)) == ["001", "005"]
        assert tables_written(lambda: service.remove("b3")) == ["003"]
        service.remove("x1")
        service.remove("b0")
        assert tables_written(service.compact) == ["000", "001", "003"]
        assert tables_written(service.compact) == []  # nothing to reclaim
        assert [s.n_genomes for s in service.store.shards] == [0, 2, 1, 0, 1, 1, 0, 0]


def planted_corpus(rng, n_families=8, copies=3, size=250, overlap=0.8):
    """Families of mutated copies: many pairs with high, known-ish J."""
    sets = []
    for _ in range(n_families):
        base = np.unique(rng.integers(0, M, size=size))
        for _ in range(copies):
            keep = rng.random(base.size) < overlap
            extra = rng.integers(0, M, size=max(1, int(size * (1 - overlap))))
            sets.append(np.unique(np.concatenate([base[keep], extra])))
    for _ in range(6):
        sets.append(np.unique(rng.integers(0, M, size=size)))
    return sets


class TestRecallBound:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_measured_recall_meets_analytic_bound(
        self, tmp_path_factory, seed
    ):
        # Aggregate recall over the true matches of many probes must
        # clear the per-match analytic bound minus a statistical slack
        # (the bound holds per pair in expectation; with >= 2 true
        # matches per family the 0.15 slack is > 5 sigma here).
        threshold = 0.5
        rng = np.random.default_rng(seed)
        sets = planted_corpus(rng)
        plan = plan_bands(threshold, LANES)
        fps = [fingerprints_for(s) for s in sets]
        table = LSHTable.build(plan, BITS, 0, fps)
        truths = retrieved = 0
        for i, s in enumerate(sets):
            cands, _ = table.probe(fps[i])
            hits = set(int(c) for c in cands)
            for j, other in enumerate(sets):
                if j == i:
                    continue
                if exact_jaccard(s, other) >= threshold:
                    truths += 1
                    retrieved += j in hits
        # An unlucky seed can mutate every family below the threshold;
        # recall over zero true matches is vacuous, not a failure.
        assume(truths > 0)
        bound = plan.recall_at(threshold)
        assert retrieved / truths >= bound - 0.15

    def test_bound_is_reported_at_query_threshold(self):
        plan = plan_bands(0.5, 256)
        # Matches far above the planning threshold are retrieved with
        # near certainty; the bound at lower thresholds stays valid but
        # weaker — monotone in t.
        assert plan.recall_at(0.9) > plan.recall_at(0.5) > plan.recall_at(0.3)
        assert plan.recall_at(0.3) == pytest.approx(
            collision_probability(0.3, plan.rows, plan.bands)
        )


class TestLshExactEqualsBruteForce:
    """``lsh_exact`` only audits, so each prefilter answers as it would
    over a scan: ``off`` and ``size`` exactly the brute-force matches,
    ``cascade`` a subset of them with exact scores (its sketch band
    prunes a true match at ``J`` close to ``t`` about 2.5 % of the
    time, by design)."""

    THRESHOLD = 0.5

    def answers(self, root, seed):
        sets = planted_corpus(np.random.default_rng(seed), n_families=4, copies=2)
        store = IndexStore.create(root, m=M, sketch_size=LANES)
        for i, s in enumerate(sets):
            store.append(f"g{i}", s)
        query = sets[0]
        brute = {
            f"g{i}": exact_jaccard(np.asarray(query), np.asarray(s))
            for i, s in enumerate(sets)
        }
        expect = sorted(name for name, j in brute.items() if j >= self.THRESHOLD)
        for prefilter in ("off", "size", "cascade"):
            eng = SimilarityIndex(
                store,
                config=SimilarityConfig(
                    query_prefilter=prefilter, query_candidates="lsh_exact"
                ),
            )
            result = eng.query(query, threshold=self.THRESHOLD)
            assert result.candidates == "lsh_exact"
            assert result.n_after_lsh is not None
            for m in result.matches:
                assert m.similarity == pytest.approx(brute[m.name])
            yield prefilter, sorted(m.name for m in result.matches), expect

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_lsh_exact_matches_brute_force(self, tmp_path_factory, seed):
        root = tmp_path_factory.mktemp("eng") / "idx"
        for prefilter, got, expect in self.answers(root, seed):
            if prefilter == "cascade":
                assert set(got) <= set(expect)
            else:
                assert got == expect

    def test_exact_prefilters_keep_a_match_at_the_threshold(self, tmp_path):
        # Seed 25982 plants g1 at J = 0.5104 against t = 0.5: the
        # cascade's sketch band prunes it, the exact prefilters keep it.
        for prefilter, got, expect in self.answers(tmp_path / "idx", 25982):
            assert "g1" in expect
            if prefilter != "cascade":
                assert got == expect

    def test_lsh_mode_returns_subset_of_brute_force(self, tmp_path, rng):
        # "lsh" may miss sub-threshold-recall matches but must never
        # invent one: every returned match is exact and qualifying.
        sets = planted_corpus(rng, n_families=3, copies=3)
        store = IndexStore.create(tmp_path / "idx", m=M, sketch_size=LANES)
        for i, s in enumerate(sets):
            store.append(f"g{i}", s)
        eng = SimilarityIndex(
            store,
            config=SimilarityConfig(
                query_prefilter="size", query_candidates="lsh"
            ),
        )
        threshold = 0.5
        for qi in (0, 4, len(sets) - 1):
            result = eng.query(sets[qi], threshold=threshold)
            for m in result.matches:
                j = exact_jaccard(
                    np.asarray(sets[qi]), np.asarray(sets[m.index])
                )
                assert m.similarity == pytest.approx(j)
                assert j >= threshold


def test_a_sharded_probe_hashes_each_query_once(tmp_path, rng, monkeypatch):
    # Every band of a sharded store shares one plan, so the bands a
    # query consults reuse its memoised keys, and the fan-out answers as
    # the flat store did.
    sets = planted_corpus(rng, n_families=4, copies=3)
    service = SimilarityService.create(
        tmp_path / "idx", m=M,
        config=SimilarityConfig(sketch_size=LANES, query_candidates="lsh_exact"),
    )
    service.add([(f"g{i}", s) for i, s in enumerate(sets)])
    queries = [sets[i] for i in (0, 5, 9)]

    def answers():
        return [
            (r.names, r.n_after_lsh, r.n_after_size)
            for r in (service.query(values=q, top_k=5) for q in queries)
        ]

    flat = answers()
    service.shard(4)
    real = cascade_module.band_keys
    hashed = []

    def counting(fingerprints, plan, seed):
        hashed.append(plan)
        return real(fingerprints, plan, seed)

    monkeypatch.setattr(cascade_module, "band_keys", counting)
    assert answers() == flat
    assert len(hashed) == len(queries)
