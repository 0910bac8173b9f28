"""Tests for zero-row filtering and compaction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import filtering
from repro.core.filtering import _cell_starts, _rank_in, apply_filter
from repro.runtime import Machine, laptop
from repro.sparse.coo import CooMatrix


def scatter(coo, p):
    idx = np.array_split(np.arange(coo.nnz), p)
    return [CooMatrix(coo.rows[i], coo.cols[i], coo.shape) for i in idx]


def reassemble(chunks):
    rows = np.concatenate([c.rows for c in chunks])
    cols = np.concatenate([c.cols for c in chunks])
    return rows, cols


@pytest.fixture
def sparse_batch(rng):
    dense = np.zeros((200, 8), dtype=bool)
    hot_rows = rng.choice(200, size=25, replace=False)
    for r in hot_rows:
        cols = rng.choice(8, size=rng.integers(1, 4), replace=False)
        dense[r, cols] = True
    return dense


class TestStrategiesAgree:
    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_allgather_equals_transpose(self, sparse_batch, p):
        coo = CooMatrix.from_dense(sparse_batch)
        out_a = apply_filter(
            Machine(laptop(p)).world, scatter(coo, p), "allgather"
        )
        out_t = apply_filter(
            Machine(laptop(p)).world, scatter(coo, p), "transpose"
        )
        assert out_a.n_nonzero_rows == out_t.n_nonzero_rows
        ra, ca = reassemble(out_a.chunks)
        rt, ct = reassemble(out_t.chunks)
        order_a = np.lexsort((ca, ra))
        order_t = np.lexsort((ct, rt))
        assert np.array_equal(ra[order_a], rt[order_t])
        assert np.array_equal(ca[order_a], ct[order_t])


@pytest.mark.parametrize("strategy", ["allgather", "transpose"])
class TestCompaction:
    def test_row_count_is_nonzero_rows(self, sparse_batch, strategy):
        coo = CooMatrix.from_dense(sparse_batch)
        out = apply_filter(Machine(laptop(4)).world, scatter(coo, 4), strategy)
        assert out.n_nonzero_rows == int(sparse_batch.any(axis=1).sum())

    def test_compaction_preserves_matrix(self, sparse_batch, strategy):
        coo = CooMatrix.from_dense(sparse_batch)
        out = apply_filter(Machine(laptop(4)).world, scatter(coo, 4), strategy)
        rows, cols = reassemble(out.chunks)
        compact = np.zeros((out.n_nonzero_rows, 8), dtype=bool)
        compact[rows, cols] = True
        expected = sparse_batch[sparse_batch.any(axis=1)]
        assert np.array_equal(compact, expected)

    def test_order_preserved(self, sparse_batch, strategy):
        # Compacted ids must be assigned in increasing global-row order
        # (the prefix-sum semantics of Eq. 6).
        coo = CooMatrix.from_dense(sparse_batch)
        out = apply_filter(Machine(laptop(2)).world, scatter(coo, 2), strategy)
        rows, _ = reassemble(out.chunks)
        orig_rows, _ = reassemble(scatter(coo, 2))
        order = np.argsort(orig_rows, kind="stable")
        assert np.all(np.diff(rows[order]) >= 0)

    def test_empty_batch(self, strategy):
        chunks = [CooMatrix.empty((50, 4)) for _ in range(3)]
        out = apply_filter(Machine(laptop(3)).world, chunks, strategy)
        assert out.n_nonzero_rows == 0
        assert out.fill == 0.0

    def test_all_rows_nonzero(self, strategy):
        dense = np.ones((20, 3), dtype=bool)
        coo = CooMatrix.from_dense(dense)
        out = apply_filter(Machine(laptop(2)).world, scatter(coo, 2), strategy)
        assert out.n_nonzero_rows == 20
        assert out.fill == 1.0


class TestOffStrategy:
    def test_off_keeps_all_rows(self, sparse_batch):
        coo = CooMatrix.from_dense(sparse_batch)
        out = apply_filter(Machine(laptop(2)).world, scatter(coo, 2), "off")
        assert out.n_nonzero_rows == 200

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown filter"):
            apply_filter(
                Machine(laptop(1)).world, [CooMatrix.empty((5, 2))], "bogus"
            )

    def test_chunk_count_validated(self):
        with pytest.raises(ValueError, match="one chunk per rank"):
            apply_filter(Machine(laptop(2)).world, [CooMatrix.empty((5, 2))])


class TestCosts:
    def test_filter_charges_communication(self, sparse_batch):
        machine = Machine(laptop(4))
        coo = CooMatrix.from_dense(sparse_batch)
        apply_filter(machine.world, scatter(coo, 4), "allgather")
        assert machine.ledger.communication_bytes > 0

    def test_transpose_uses_scan(self, sparse_batch):
        machine = Machine(laptop(4))
        coo = CooMatrix.from_dense(sparse_batch)
        before = machine.ledger.supersteps
        apply_filter(machine.world, scatter(coo, 4), "transpose")
        assert machine.ledger.supersteps > before


# ---- differential: the cell-grid rank against np.unique / np.searchsorted ----

#: Batch heights: tiny dense batches, and hypersparse ones up to the
#: ``m-tilde = 4^31 / r`` of the k = 31 genome path (r = 1 and r = 4).
HEIGHTS = [3, 8, 64, 1000, 2**40, 4**31 // 4, 4**31]


def expected_filter(chunks):
    """Eq. 5-6 by brute force: the union of row ids and each id's rank."""
    union = np.unique(np.concatenate([c.rows for c in chunks]))
    return union, [np.searchsorted(union, c.rows) for c in chunks]


def assert_filters_exactly(chunks, strategy):
    p = len(chunks)
    out = apply_filter(Machine(laptop(p)).world, chunks, strategy)
    union, ranks = expected_filter(chunks)
    assert out.n_nonzero_rows == union.size
    for got, chunk, want in zip(out.chunks, chunks, ranks):
        assert np.array_equal(got.rows, want)
        assert np.array_equal(got.cols, chunk.cols)
        assert got.shape == (union.size, chunk.shape[1])


def rank_all_ways(keys, rows, m):
    """``_rank_in`` with and without the batch's cell table, both checked
    against ``np.searchsorted`` (every row is a key where ``m`` is at most
    the row count: the dense lookup ranks keys only)."""
    keys = np.asarray(keys, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    want = np.searchsorted(keys, rows)
    for cells in (None, _cell_starts(keys, m)):
        got = _rank_in(keys, rows, m, cells)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


@st.composite
def filter_batches(draw):
    """One batch of 1-4 chunks over a small pool of row ids."""
    m = draw(st.sampled_from(HEIGHTS))
    top = draw(st.sampled_from([m, min(m, 50)]))  # all rows, or one corner
    pool = np.array(
        draw(st.lists(st.integers(m - top, m - 1), min_size=1, max_size=40, unique=True)),
        dtype=np.int64,
    )
    chunks = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["empty", "one run", "sorted runs", "any"]))
        if shape == "empty":
            rows = np.empty(0, np.int64)
        elif shape == "any":  # duplicates and disorder
            rows = pool[draw(st.lists(st.integers(0, pool.size - 1), max_size=60))]
        else:
            runs = draw(st.integers(1, 1 if shape == "one run" else 5))
            index = st.integers(0, pool.size - 1)
            picks = [draw(st.lists(index, max_size=20)) for _ in range(runs)]
            rows = np.concatenate([np.unique(pool[pick]) for pick in picks]).astype(np.int64)
        cols = np.arange(rows.size, dtype=np.int64) % 3
        chunks.append(CooMatrix(rows, cols, (m, 3)))
    return chunks


class TestCellRankDifferential:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(chunks=filter_batches())
    @pytest.mark.parametrize("strategy", ["allgather", "transpose"])
    def test_apply_filter_equals_brute_force(self, strategy, chunks):
        assert_filters_exactly(chunks, strategy)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        m=st.sampled_from(HEIGHTS),
        data=st.data(),
    )
    def test_rank_in_equals_searchsorted(self, m, data):
        ids = st.integers(0, m - 1)
        keys = data.draw(st.lists(ids, max_size=50))
        rows = data.draw(st.lists(st.sampled_from(keys), max_size=60)) if keys else []
        # Ids that are no key have a rank only where f is not dense.
        strays = data.draw(st.lists(ids, max_size=5))
        if m > len(rows) + len(strays):
            rows += strays
        rank_all_ways(np.unique(np.array(keys, dtype=np.int64)), rows, m)

    def test_every_key_in_one_cell_falls_to_the_residual_search(self, monkeypatch):
        m, n_keys = 2**40, 1000
        shift = (m - 1).bit_length() - n_keys.bit_length()
        keys = (5 << shift) + np.arange(n_keys, dtype=np.int64) * 3  # all in cell 5
        cells = _cell_starts(keys, m)
        assert cells[0] == shift and np.count_nonzero(np.diff(cells[1])) == 1
        rows = keys[np.random.default_rng(7).permutation(n_keys)]
        searched = []
        search = np.searchsorted
        monkeypatch.setattr(
            np, "searchsorted", lambda a, v: searched.append(len(v)) or search(a, v)
        )
        got = _rank_in(keys, rows, m, cells)
        monkeypatch.undo()
        assert np.array_equal(got, np.searchsorted(keys, rows))
        # Four scan rounds place the cell's first five keys; the rest
        # are binary-searched.
        assert searched == [n_keys - 5]

    @pytest.mark.parametrize("m", [2**20, 2**40, 4**31 // 4, 4**31])
    def test_ids_on_cell_edges(self, m):
        # Both edges of five cells, the last one included: ten keys.
        shift = (m - 1).bit_length() - (10).bit_length()
        cells = np.array([0, 1, 2, 7, (m - 1) >> shift], dtype=np.int64)
        edges = np.sort(np.concatenate([cells << shift, ((cells + 1) << shift) - 1]))
        assert edges[-1] == m - 1
        assert _cell_starts(edges, m)[0] == shift
        rows = np.concatenate([edges, edges[::-1], edges[1::2]])
        rank_all_ways(edges, rows, m)
        for keys in (edges[::2], edges[1::2]):  # ids between keys, and past the last
            rank_all_ways(keys, rows, m)
        chunks = [CooMatrix(rows, rows % 2, (m, 2)), CooMatrix(edges, edges % 2, (m, 2))]
        for strategy in ("allgather", "transpose"):
            assert_filters_exactly(chunks, strategy)

    def test_rows_near_the_top_of_a_k31_batch(self):
        m = 4**31  # r = 1: every canonical 31-mer is a row
        rng = np.random.default_rng(31)
        keys = np.unique(m - 1 - rng.integers(0, 2**20, size=500))
        rows = rng.choice(keys, size=2000)
        rank_all_ways(keys, rows, m)
        rank_all_ways(keys, np.array([m - 1, m - 2**21, 0]), m)

    @pytest.mark.parametrize("strategy", ["allgather", "transpose"])
    def test_empty_keys_empty_chunks_and_a_single_key(self, strategy):
        m = 2**40
        rank_all_ways([], [], m)
        rank_all_ways([], [5, 0, m - 1], m)
        rank_all_ways([9], [9, 9, 9], m)
        rank_all_ways([m - 1], [m - 1, 0, m - 2], m)
        empty = CooMatrix.empty((m, 2))
        one = CooMatrix(np.array([m - 1, m - 1]), np.array([0, 1]), (m, 2))
        assert_filters_exactly([empty, one, empty], strategy)
        assert_filters_exactly([empty, empty], strategy)

    @pytest.mark.parametrize("strategy", ["allgather", "transpose"])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_dense_branch_boundary(self, strategy, delta):
        # A chunk of ``n`` coordinates in a batch of ``n - 1``, ``n`` or
        # ``n + 1`` rows: dense lookup at and below, cell grid above.
        n = 40
        m = n + delta
        rng = np.random.default_rng(n + delta)
        rows = np.concatenate([np.sort(rng.choice(m, 15, replace=False)) for _ in range(2)])
        rows = np.concatenate([rows, rng.integers(0, m, size=n - rows.size)])
        keys = np.unique(rows)
        rank_all_ways(keys, rows, m)
        chunks = [CooMatrix(r, np.zeros(r.size, np.int64), (m, 1)) for r in (rows, keys)]
        assert_filters_exactly(chunks, strategy)

    @pytest.mark.parametrize("strategy", ["allgather", "transpose"])
    def test_duplicate_rows_and_one_run_chunks(self, strategy, monkeypatch):
        m = 2**50
        rng = np.random.default_rng(5)
        pool = np.unique(rng.integers(0, m, size=300))
        one_run = pool[::3]
        runs = np.concatenate([np.sort(rng.choice(pool, 60, replace=False)) for _ in range(4)])
        dups = np.repeat(pool[:50], 3)
        built = []
        cell_starts = filtering._cell_starts
        monkeypatch.setattr(
            filtering, "_cell_starts", lambda k, mb: built.append(k.size) or cell_starts(k, mb)
        )
        chunks = [CooMatrix(r, r % 4, (m, 4)) for r in (one_run, runs, dups)]
        assert_filters_exactly(chunks, strategy)
        assert built  # the multi-run chunks went through the cell grid
        built.clear()
        assert_filters_exactly([CooMatrix(one_run, one_run % 4, (m, 4))] * 2, strategy)
        assert built == []  # one-run chunks keep the plain sorted search
