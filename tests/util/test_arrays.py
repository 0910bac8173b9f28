"""Tests for the sort/scan primitives of the pre-Gram pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.util.arrays import sorted_unique, split_by_destination

int_arrays = st.one_of(
    hnp.arrays(np.int64, st.integers(0, 60), elements=st.integers(-5, 5)),
    hnp.arrays(np.int64, st.integers(0, 60)),
    hnp.arrays(np.uint64, st.integers(0, 60)),
    # 4^31-scale k-mer codes, the values the genome pipeline sorts
    hnp.arrays(
        np.int64, st.integers(0, 60),
        elements=st.integers(4**31 - 40, 4**31 - 1),
    ),
)


class TestSortedUnique:
    @settings(max_examples=200)
    @given(arr=int_arrays, kind=st.sampled_from([None, "stable"]))
    def test_equals_np_unique_in_value_and_dtype(self, arr, kind):
        got, want = sorted_unique(arr, kind), np.unique(arr)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([], np.int64),
            ([7], np.uint64),
            ([3, 3, 3, 3], np.int64),
            ([1, 2, 3, 9], np.int64),
            ([9, 3, 2, 1], np.int64),
            ([2**63 - 1, 0, 2**63 - 1, -(2**63)], np.int64),
            ([2**64 - 1, 2**63, 0, 2**64 - 1], np.uint64),
        ],
    )
    def test_edge_cases(self, values, dtype):
        arr = np.array(values, dtype=dtype)
        got = sorted_unique(arr)
        assert got.dtype == arr.dtype
        assert got.tolist() == sorted(set(values))

    @pytest.mark.parametrize("values", [[], [4], [1, 2, 5, 2**62]])
    def test_strictly_increasing_input_comes_back_uncopied(self, values):
        arr = np.array(values, dtype=np.int64)
        assert sorted_unique(arr) is arr

    def test_anything_else_is_a_fresh_array(self):
        for values in ([1, 1, 2], [2, 1], [1, 2, 2]):
            arr = np.array(values, dtype=np.int64)
            before = arr.copy()
            got = sorted_unique(arr)
            assert not np.shares_memory(got, arr)
            assert np.array_equal(arr, before)  # input left untouched

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValueError, match="1-D"):
            sorted_unique(np.zeros((2, 2), dtype=np.int64))


def _mask_loop(dests, rows, cols, size):
    """The per-destination mask loop this primitive replaced."""
    out = [None] * size
    for d in np.unique(dests):
        sel = dests == d
        out[int(d)] = np.stack([rows[sel], cols[sel]])
    return out


class TestSplitByDestination:
    @settings(max_examples=200)
    @given(data=st.data(), size=st.integers(1, 300), nnz=st.integers(0, 200))
    def test_equals_the_mask_loop_message_for_message(self, data, size, nnz):
        draw = lambda hi: data.draw(  # noqa: E731
            hnp.arrays(np.int64, nnz, elements=st.integers(0, hi))
        )
        dests, rows, cols = draw(size - 1), draw(2**62), draw(1000)
        got = split_by_destination(dests, rows, cols, size)
        want = _mask_loop(dests, rows, cols, size)
        assert len(got) == size
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                # element order included: codec frame sizes depend on it
                assert g.dtype == np.int64 and np.array_equal(g, w)

    def test_more_ranks_than_a_byte_holds(self):
        dests = np.array([70_000, 3, 70_000, 65_536], dtype=np.int64)
        rows = np.arange(4, dtype=np.int64)
        got = split_by_destination(dests, rows, rows + 10, 70_001)
        assert got[70_000].tolist() == [[0, 2], [10, 12]]
        assert got[65_536].tolist() == [[3], [13]]
        assert sum(m is not None for m in got) == 3

    def test_out_of_range_destination_rejected(self):
        z = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            split_by_destination(np.array([4]), z, z, 4)
        with pytest.raises(ValueError):
            split_by_destination(np.array([-1]), z, z, 4)
        # Ids the narrowing cast would wrap to 1 (uint8, uint16 and
        # uint32 keys): the check must see them before the cast.
        for dest, size in [(257, 4), (65_537, 300), (2**32 + 1, 70_001)]:
            with pytest.raises(ValueError):
                split_by_destination(np.array([dest]), z, z, size)
        # ... while an id past 2**16 that is in range is kept.
        got = split_by_destination(np.array([65_537]), z, z + 7, 70_001)
        assert got[65_537].tolist() == [[0], [7]] and got[1] is None
