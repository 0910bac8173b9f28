"""Tests for processor grids."""

import pytest

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

    def test_local_rank_covers_every_rank(self):
        # A q x q x c grid: local_rank is a layer-major, then row-major
        # bijection onto the communicator's ranks.
        grid = ProcessorGrid(Machine(laptop(12)).world, 2, 2, 3)
        order = [
            grid.local_rank(row, col, layer)
            for layer in range(3)
            for row in range(2)
            for col in range(2)
        ]
        assert order == list(range(12))

    def test_local_rank_out_of_range(self, grid):
        for coords in ((2, 0, 0), (0, 3, 0), (0, 0, 4), (-1, 0, 0)):
            with pytest.raises(IndexError):
                grid.local_rank(*coords)

    def members(self, grid, coords):
        return [grid.comm.ranks[grid.local_rank(*c)] for c in coords]

    def test_row_comm_members(self, grid):
        comm = grid.row_comm(1, layer=0)
        assert list(comm.ranks) == self.members(
            grid, [(1, col, 0) for col in range(3)]
        )

    def test_col_comm_members(self, grid):
        comm = grid.col_comm(2, layer=1)
        assert list(comm.ranks) == self.members(
            grid, [(row, 2, 1) for row in range(2)]
        )

    def test_layer_comm_is_face(self, grid):
        assert grid.layer_comm(0).size == 6

    def test_fiber_comm_spans_layers(self, grid):
        comm = grid.fiber_comm(0, 1)
        assert list(comm.ranks) == self.members(
            grid, [(0, 1, layer) for layer in range(4)]
        )

    def test_subcomms_are_cached(self, grid):
        assert grid.row_comm(0) is grid.row_comm(0)

    def test_layers_partition_ranks(self, grid):
        seen = set()
        for layer in range(4):
            seen.update(grid.layer_comm(layer).ranks)
        assert seen == set(range(24))
