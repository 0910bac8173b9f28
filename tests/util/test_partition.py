"""Tests for index-space partitioning helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.partition import block_bounds, round_robin_indices


class TestBlockLayout:
    @given(
        total=st.integers(min_value=0, max_value=500),
        parts=st.integers(min_value=1, max_value=40),
    )
    def test_bounds_partition_the_range(self, total, parts):
        cursor = 0
        for i in range(parts):
            lo, hi = block_bounds(total, parts, i)
            assert lo == cursor
            assert hi - lo in (total // parts, total // parts + 1)
            cursor = hi
        assert cursor == total

    def test_remainder_spread_over_leading_blocks(self):
        sizes = [hi - lo for lo, hi in (block_bounds(10, 4, i) for i in range(4))]
        assert sizes == [3, 3, 2, 2]

    def test_invalid_parts(self):
        with pytest.raises(ValueError, match="positive"):
            block_bounds(10, 0, 0)

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            block_bounds(10, 4, 4)


class TestChunks:
    def test_round_robin_partition(self):
        total, parts = 23, 5
        seen = np.concatenate(
            [round_robin_indices(total, parts, r) for r in range(parts)]
        )
        assert sorted(seen.tolist()) == list(range(total))

    def test_round_robin_membership(self):
        idx = round_robin_indices(20, 4, 1)
        assert np.all(idx % 4 == 1)

    def test_round_robin_bad_rank(self):
        with pytest.raises(IndexError):
            round_robin_indices(10, 4, 4)

    def test_round_robin_negative_rank(self):
        # np.arange(-1, 10, 4) would silently hand out [-1, 3, 7].
        with pytest.raises(IndexError):
            round_robin_indices(10, 4, -1)

    def test_round_robin_invalid_parts(self):
        with pytest.raises(ValueError, match="positive"):
            round_robin_indices(10, 0, 0)
