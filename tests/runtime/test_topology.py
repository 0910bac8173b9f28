"""Tests for processor grids."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.runtime import Machine, laptop
from repro.runtime.topology import ProcessorGrid


class TestProcessorGrid:
    @pytest.fixture
    def grid(self):
        return ProcessorGrid(Machine(laptop(24)).world, 2, 3, 4)

    def test_size_must_match(self):
        with pytest.raises(ValueError, match="needs"):
            ProcessorGrid(Machine(laptop(8)).world, 2, 3, 4)

    def test_positive_dims(self):
        with pytest.raises(ValueError, match="positive"):
            ProcessorGrid(Machine(laptop(4)).world, 2, 2, 0)

    @given(rank=st.integers(min_value=0, max_value=23))
    def test_coords_roundtrip(self, rank):
        grid = ProcessorGrid(Machine(laptop(24)).world, 2, 3, 4)
        c = grid.coords(rank)
        assert grid.local_rank(c.row, c.col, c.layer) == rank

    def test_coords_out_of_range(self, grid):
        with pytest.raises(IndexError):
            grid.coords(24)
        with pytest.raises(IndexError):
            grid.local_rank(2, 0, 0)

    def test_row_comm_members(self, grid):
        comm = grid.row_comm(1, layer=0)
        coords = [grid.coords(grid.comm.ranks.index(r)) for r in comm.ranks]
        assert all(c.row == 1 and c.layer == 0 for c in coords)
        assert sorted(c.col for c in coords) == [0, 1, 2]

    def test_col_comm_members(self, grid):
        comm = grid.col_comm(2, layer=1)
        coords = [grid.coords(grid.comm.ranks.index(r)) for r in comm.ranks]
        assert all(c.col == 2 and c.layer == 1 for c in coords)
        assert sorted(c.row for c in coords) == [0, 1]

    def test_layer_comm_is_face(self, grid):
        assert grid.layer_comm(0).size == 6

    def test_fiber_comm_spans_layers(self, grid):
        comm = grid.fiber_comm(0, 1)
        assert comm.size == 4
        coords = [grid.coords(grid.comm.ranks.index(r)) for r in comm.ranks]
        assert all(c.row == 0 and c.col == 1 for c in coords)

    def test_subcomms_are_cached(self, grid):
        assert grid.row_comm(0) is grid.row_comm(0)

    def test_layers_partition_ranks(self, grid):
        seen = set()
        for layer in range(4):
            seen.update(grid.layer_comm(layer).ranks)
        assert seen == set(range(24))
