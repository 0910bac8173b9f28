"""Tests for the on-disk sample store."""

import numpy as np
import pytest

from repro.genomics.samples import SampleStore


class TestSampleStore:
    def test_create_and_reopen(self, tmp_path):
        store = SampleStore.create(tmp_path / "store", k=19)
        store.add_sample("a", np.array([5, 1, 5, 9]))
        reopened = SampleStore.open(tmp_path / "store")
        assert reopened.k == 19
        assert reopened.names == ["a"]
        assert reopened.load_sample("a").tolist() == [1, 5, 9]

    def test_open_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SampleStore.open(tmp_path / "nothing")

    def test_duplicate_name_rejected(self, tmp_path):
        store = SampleStore.create(tmp_path / "s", k=5)
        store.add_sample("x", np.array([1]))
        with pytest.raises(ValueError, match="already present"):
            store.add_sample("x", np.array([2]))

    def test_code_range_checked(self, tmp_path):
        store = SampleStore.create(tmp_path / "s", k=3)
        with pytest.raises(ValueError, match="outside"):
            store.add_sample("x", np.array([64]))  # 4^3 = 64

    def test_unknown_sample(self, tmp_path):
        store = SampleStore.create(tmp_path / "s", k=3)
        with pytest.raises(KeyError):
            store.load_sample("nope")

    def test_m_is_kmer_space(self, tmp_path):
        store = SampleStore.create(tmp_path / "s", k=5)
        assert store.m == 4**5

    def test_as_source(self, tmp_path):
        store = SampleStore.create(tmp_path / "s", k=3)
        store.add_sample("a", np.array([0, 7]))
        store.add_sample("b", np.array([7, 20]))
        source = store.as_source()
        assert source.n == 2
        assert source.m == 64
        coo = source.read_batch(0, 64, 0, 1)
        assert coo.nnz == 4

    def test_as_source_with_contents_reads_no_file(self, tmp_path, monkeypatch):
        store = SampleStore.create(tmp_path / "s", k=3)
        arrays = [np.array([0, 7]), np.array([7, 20])]
        store.add_samples(zip("ab", arrays))
        loads = []
        real_load = np.load
        monkeypatch.setattr(
            np, "load", lambda *a, **kw: loads.append(a) or real_load(*a, **kw)
        )
        handed = store.as_source(contents=arrays).read_batch(0, 64, 0, 1)
        assert loads == []
        read = store.as_source().read_batch(0, 64, 0, 1)
        assert len(loads) == 2
        assert np.array_equal(handed.rows, read.rows)
        assert np.array_equal(handed.cols, read.cols)

    def test_as_source_contents_must_match_the_files(self, tmp_path):
        store = SampleStore.create(tmp_path / "s", k=3)
        store.add_samples([("a", np.array([1])), ("b", np.array([2]))])
        with pytest.raises(ValueError, match="1 arrays for 2 sample files"):
            store.as_source(contents=[np.array([1])])

    def test_as_source_empty_store(self, tmp_path):
        store = SampleStore.create(tmp_path / "s", k=3)
        with pytest.raises(ValueError, match="empty"):
            store.as_source()

    def test_total_bytes(self, tmp_path):
        store = SampleStore.create(tmp_path / "s", k=3)
        store.add_sample("a", np.arange(10))
        assert store.total_bytes() > 0


class TestCorruptManifest:
    """A corrupt manifest raises ValueError naming the file."""

    @pytest.fixture
    def root(self, tmp_path):
        store = SampleStore.create(tmp_path / "s", k=5)
        store.add_samples([("a", np.array([1, 2])), ("b", np.array([3]))])
        return store.root

    def _raises_naming_the_file(self, root):
        with pytest.raises(ValueError) as info:
            SampleStore.open(root)
        assert str(root / "manifest.json") in str(info.value)

    def test_every_prefix(self, root):
        manifest = root / "manifest.json"
        data = manifest.read_bytes()
        for k in range(len(data)):
            manifest.write_bytes(data[:k])
            self._raises_naming_the_file(root)
        manifest.write_bytes(data)
        assert SampleStore.open(root).names == ["a", "b"]

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff{}",
            b"[]",
            b"7",
            b'{"k": 5, "canonical": true}',
            b'{"k": "x", "canonical": true, "names": []}',
        ],
        ids=["invalid_utf8", "json_list", "json_number", "missing_names", "k_not_a_number"],
    )
    def test_corruptions(self, root, content):
        (root / "manifest.json").write_bytes(content)
        self._raises_naming_the_file(root)


class TestHostileSampleBytes:
    """A sample file ``np.load`` cannot read raises ValueError naming it."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: data[: len(data) // 2],
            lambda data: data[:20],
            lambda data: b"",
            lambda data: b"not an npy file at all",
        ],
        ids=["truncated_body", "truncated_header", "empty", "garbage"],
    )
    def test_unreadable_sample_names_the_file(self, tmp_path, corrupt):
        store = SampleStore.create(tmp_path / "s", k=5)
        store.add_samples([("a", np.arange(100)), ("b", np.array([3]))])
        path = store.root / "a.npy"
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError) as info:
            store.load_sample("a")
        assert str(path) in str(info.value)
        assert store.load_sample("b").tolist() == [3]

    def test_missing_sample_file_names_the_file(self, tmp_path):
        store = SampleStore.create(tmp_path / "s", k=5)
        store.add_sample("a", np.arange(10))
        (store.root / "a.npy").unlink()
        with pytest.raises(ValueError, match="a.npy"):
            store.load_sample("a")
