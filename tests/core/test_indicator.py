"""Tests for indicator-matrix sources."""

import io

import numpy as np
import pytest

from repro.core.indicator import (
    FileSource,
    IndicatorSource,
    SetSource,
    SyntheticSource,
)
from repro.sparse.coo import CooMatrix


def _npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


def _npz_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, values=array)
    return buf.getvalue()


def assemble(source, batch_bounds, n_readers):
    """Reassemble the full dense indicator matrix from batched reads."""
    dense = np.zeros((source.m, source.n), dtype=bool)
    for lo, hi in batch_bounds:
        for r in range(n_readers):
            coo = source.read_batch(lo, hi, r, n_readers)
            dense[coo.rows + lo, coo.cols] = True
    return dense


class TestSetSource:
    def test_shape(self):
        src = SetSource([{0, 5}, {1}], m=10)
        assert (src.n, src.m) == (2, 10)
        assert isinstance(src, IndicatorSource)

    def test_m_inferred(self):
        assert SetSource([{0, 7}]).m == 8

    def test_m_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            SetSource([{9}], m=5)

    def test_full_read_matches_sets(self):
        sets = [{0, 3, 9}, {1, 3}, set()]
        src = SetSource(sets, m=10)
        dense = assemble(src, [(0, 10)], 2)
        expect = CooMatrix.from_sets(sets, 10).to_dense()
        assert np.array_equal(dense, expect)

    def test_batching_invariance(self, rng):
        sets = [set(rng.integers(0, 50, 12).tolist()) for _ in range(5)]
        src = SetSource(sets, m=50)
        whole = assemble(src, [(0, 50)], 3)
        batched = assemble(src, [(0, 17), (17, 34), (34, 50)], 3)
        assert np.array_equal(whole, batched)

    def test_readers_partition_samples(self):
        src = SetSource([{1}, {2}, {3}, {4}], m=5)
        cols = []
        for r in range(3):
            cols.extend(src.read_batch(0, 5, r, 3).cols.tolist())
        assert sorted(cols) == [0, 1, 2, 3]

    def test_bad_reader_rank_raises(self):
        sources = [SetSource([{1}, {2}], m=5), SyntheticSource(m=5, n=2, density=0.5)]
        for src in sources:
            for rank in (-1, 3):
                with pytest.raises(IndexError):
                    src.read_batch(0, 5, rank, 3)
                with pytest.raises(IndexError):
                    src.read_bytes(0, 5, rank, 3)

    def test_read_bytes_proportional_to_values(self):
        src = SetSource([set(range(20)), set()], m=30)
        assert src.read_bytes(0, 30, 0, 2) == 20 * 8
        assert src.read_bytes(0, 30, 1, 2) == 0

    def test_nnz_estimate_exact(self):
        src = SetSource([{1, 2}, {3}], m=5)
        assert src.nnz_estimate() == 3


    def test_retains_no_caller_memory(self):
        # np.unique used to copy every input; the sort-based dedup hands a
        # strictly increasing array back uncopied, so the source must copy.
        mine = [np.array([1, 4, 7], dtype=np.int64), np.array([4, 2, 2])]
        src = SetSource(mine, m=10)
        before = assemble(src, [(0, 10)], 2)
        for arr in mine:
            arr[:] = 9
        assert np.array_equal(assemble(src, [(0, 10)], 2), before)
        assert before[:, 0].nonzero()[0].tolist() == [1, 4, 7]

    def test_batch_order_is_sample_major_values_ascending(self):
        # The within-chunk order feeds the varint codec's frame sizes.
        src = SetSource([{5, 1}, {9}, {3, 1, 8}, {2}], m=10)
        coo = src.read_batch(1, 9, 0, 2)  # reader 0 owns samples 0 and 2
        assert coo.cols.tolist() == [0, 0, 2, 2, 2]
        assert coo.rows.tolist() == [0, 4, 0, 2, 7]
        assert coo.shape == (8, 4)


class TestWindowTable:
    """The per-batch table of each sample's ``[lo, hi)`` slice bounds."""

    @pytest.fixture
    def source(self, rng):
        sizes = (0, 1, 17, 60, 150)
        return SetSource([rng.choice(200, size=k, replace=False) for k in sizes], m=200)

    @pytest.mark.parametrize(
        "lo, hi", [(0, 200), (0, 50), (50, 120), (120, 200), (30, 30), (199, 200)]
    )
    def test_rows_are_each_samples_searchsorted_window(self, source, lo, hi):
        table = source._window_table(lo, hi)
        assert table.dtype == np.int64
        assert table.shape == (source.n, 2)
        for j in range(source.n):
            expect = np.searchsorted(source._load(j), [lo, hi])
            assert table[j].tolist() == expect.tolist()

    def test_same_window_reuses_the_table(self, source):
        assert source._window_table(10, 90) is source._window_table(10, 90)

    def test_next_window_starts_where_the_last_ended(self, source):
        first = source._window_table(0, 100).copy()
        second = source._window_table(100, 200)
        assert first[:, 1].tolist() == second[:, 0].tolist()
        assert second[:, 1].tolist() == [source._load(j).size for j in range(source.n)]

    def test_file_samples_match_the_same_sets_in_memory(self, tmp_path, rng):
        # .npy files keep their own integer dtype until loaded.
        sets = [np.unique(rng.integers(0, 90, size=20)).astype(np.int32) for _ in range(3)]
        paths = []
        for i, vals in enumerate(sets):
            paths.append(tmp_path / f"s{i}.npy")
            np.save(paths[-1], vals)
        files, memory = FileSource(paths, m=90), SetSource(sets, m=90)
        for lo, hi in [(0, 30), (30, 60), (60, 90)]:
            assert np.array_equal(files._window_table(lo, hi), memory._window_table(lo, hi))


class TestReadBytes:
    """``read_bytes`` is the window count, answered without a read."""

    @pytest.fixture
    def sources(self, tmp_path, rng):
        sets = [np.unique(rng.integers(0, 200, size=s)) for s in (0, 30, 5, 60, 1)]
        paths = []
        for j, vals in enumerate(sets):
            paths.append(tmp_path / f"s{j}.npy")
            np.save(paths[-1], vals)

        def counting(cls, *args, **kwargs):
            class Counting(cls):
                reads = 0

                def read_batch(self, *a):
                    type(self).reads += 1
                    return super().read_batch(*a)

            return Counting(*args, **kwargs)

        return [
            counting(SetSource, sets, m=200),
            counting(FileSource, paths, m=200),
        ]

    def test_equals_the_batch_nnz_without_reading_it(self, sources):
        windows = [(0, 200), (0, 1), (17, 90), (90, 200), (50, 50)]
        for src in sources:
            got = [
                src.read_bytes(lo, hi, r, p)
                for lo, hi in windows for p in (1, 2, 3) for r in range(p)
            ]
            assert type(src).reads == 0, type(src).__mro__[1].__name__
            want = [
                src.read_batch(lo, hi, r, p).nnz * 8
                for lo, hi in windows for p in (1, 2, 3) for r in range(p)
            ]
            assert got == want
            assert sum(got[:1]) == src.nnz_estimate() * 8


class TestFileSource:
    @pytest.fixture
    def sample_dir(self, tmp_path, rng):
        sets = [np.unique(rng.integers(0, 100, size=15)) for _ in range(4)]
        paths = []
        for i, vals in enumerate(sets):
            if i % 2 == 0:
                path = tmp_path / f"s{i}.npy"
                np.save(path, vals)
            else:
                path = tmp_path / f"s{i}.txt"
                np.savetxt(path, vals, fmt="%d")
            paths.append(path)
        return paths, sets

    def test_reads_both_formats(self, sample_dir):
        paths, sets = sample_dir
        src = FileSource(paths, m=100)
        dense = assemble(src, [(0, 100)], 2)
        for j, vals in enumerate(sets):
            assert np.array_equal(np.flatnonzero(dense[:, j]), vals)

    def test_batched_reads_window_correctly(self, sample_dir):
        paths, _ = sample_dir
        src = FileSource(paths, m=100)
        whole = assemble(src, [(0, 100)], 1)
        parts = assemble(src, [(0, 33), (33, 66), (66, 100)], 1)
        assert np.array_equal(whole, parts)

    def test_out_of_range_value_rejected(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.array([150]))
        src = FileSource([path], m=100)
        with pytest.raises(ValueError, match="outside"):
            src.read_batch(0, 100, 0, 1)

    def test_requires_files(self):
        with pytest.raises(ValueError, match="at least one"):
            FileSource([], m=10)

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("s.npy", lambda data: data[: len(data) // 2]),
            ("s.npy", lambda data: data[:20]),
            ("s.npy", lambda data: b""),
            ("s.npy", lambda data: b"not an npy file at all"),
            ("s.npy", lambda data: _npy_bytes(np.arange(6).reshape(2, 3))),
            ("s.npy", lambda data: _npy_bytes(np.array([1.5, 2.0]))),
            ("s.npy", lambda data: _npy_bytes(np.array([{1}], dtype=object))),
            ("s.npy", lambda data: _npz_bytes(np.arange(3))),
            ("s.txt", lambda data: b"1\nabc\n"),
            ("s.txt", lambda data: b"1 2\n3 4\n"),
            ("s.txt", lambda data: b"1.5\n"),
            ("missing.npy", None),
        ],
        ids=[
            "truncated_body", "truncated_header", "empty", "garbage", "2d", "float",
            "pickled", "npz", "text_garbage", "text_2d", "text_float", "missing",
        ],
    )
    def test_hostile_sample_bytes_name_the_file(self, tmp_path, name, corrupt):
        good = tmp_path / "good.npy"
        np.save(good, np.array([3, 7]))
        path = tmp_path / name
        if corrupt is not None:
            path.write_bytes(corrupt(good.read_bytes()))
        src = FileSource([good, path], m=100)
        with pytest.raises(ValueError) as info:
            src.read_batch(0, 100, 0, 1)
        assert str(path) in str(info.value)
        assert FileSource([good], m=100).read_batch(0, 100, 0, 1).rows.tolist() == [3, 7]

    def test_nnz_estimate(self, sample_dir):
        paths, sets = sample_dir
        src = FileSource(paths, m=100)
        assert src.nnz_estimate() == sum(len(v) for v in sets)


class TestSyntheticSource:
    def test_deterministic_across_instances(self):
        a = SyntheticSource(m=200, n=6, density=0.1, seed=3)
        b = SyntheticSource(m=200, n=6, density=0.1, seed=3)
        ca = a.read_batch(0, 100, 0, 2)
        cb = b.read_batch(0, 100, 0, 2)
        assert np.array_equal(ca.rows, cb.rows)
        assert np.array_equal(ca.cols, cb.cols)

    def test_seed_changes_data(self):
        a = SyntheticSource(m=500, n=4, density=0.2, seed=1)
        b = SyntheticSource(m=500, n=4, density=0.2, seed=2)
        assert not np.array_equal(
            a.read_batch(0, 500, 0, 1).rows, b.read_batch(0, 500, 0, 1).rows
        )

    def test_density_roughly_respected(self):
        src = SyntheticSource(m=20_000, n=4, density=0.05, seed=0)
        coo = src.read_batch(0, 20_000, 0, 1)
        observed = coo.nnz / (20_000 * 4)
        assert 0.03 < observed < 0.07

    def test_density_skew_creates_variance(self):
        flat = SyntheticSource(m=5000, n=30, density=0.02, seed=0)
        skewed = SyntheticSource(
            m=5000, n=30, density=0.02, seed=0, density_skew=1.5
        )

        def col_counts(src):
            coo = src.read_batch(0, 5000, 0, 1)
            counts = np.zeros(30)
            np.add.at(counts, coo.cols, 1)
            return counts

        assert col_counts(skewed).std() > col_counts(flat).std()

    def test_invalid_density(self):
        with pytest.raises(ValueError, match="density"):
            SyntheticSource(m=10, n=2, density=1.5)

    def test_invalid_shape(self):
        with pytest.raises(ValueError, match="positive"):
            SyntheticSource(m=0, n=2, density=0.1)

    def test_nnz_estimate_close(self):
        src = SyntheticSource(m=10_000, n=10, density=0.03, seed=0)
        est = src.nnz_estimate()
        assert est == pytest.approx(10_000 * 10 * 0.03, rel=0.2)
