"""Processor grids and grid sub-communicators.

SimilarityAtScale computes ``B = A^T A`` on a ``sqrt(p/c) x sqrt(p/c) x c``
processor grid (§III-C): each of the ``c`` replication layers owns a copy
of the output and a slice of the input rows; within a layer, a 2-D SUMMA
runs over the ``sqrt(p/c) x sqrt(p/c)`` face.  This module maps grid
coordinates to ranks and builds the row / column / layer / fiber
sub-communicators those algorithms need.  The grid's shape is planned
by the driver (:func:`repro.core.batching.plan_grid`), not here.
"""

from __future__ import annotations

from repro.runtime.comm import Communicator


class ProcessorGrid:
    """A 3-D (rows x cols x layers) view over a communicator's ranks.

    A 2-D grid is the special case ``layers == 1``.  Rank mapping is
    layer-major, then row-major within a layer, so that a layer's face is
    a contiguous rank range (replication layers map naturally to node
    subsets).
    """

    def __init__(self, comm: Communicator, rows: int, cols: int, layers: int = 1):
        if rows <= 0 or cols <= 0 or layers <= 0:
            raise ValueError(
                f"grid dims must be positive, got {rows}x{cols}x{layers}"
            )
        if rows * cols * layers != comm.size:
            raise ValueError(
                f"grid {rows}x{cols}x{layers} needs {rows * cols * layers} "
                f"ranks but communicator has {comm.size}"
            )
        self.comm = comm
        self.rows = rows
        self.cols = cols
        self.layers = layers
        self._cache: dict[tuple, Communicator] = {}

    # ---- coordinates -> rank -------------------------------------------

    def local_rank(self, row: int, col: int, layer: int = 0) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols and 0 <= layer < self.layers):
            raise IndexError(
                f"coords ({row},{col},{layer}) out of range for "
                f"{self.rows}x{self.cols}x{self.layers}"
            )
        return layer * self.rows * self.cols + row * self.cols + col

    # ---- sub-communicators ------------------------------------------------

    def _cached(self, key: tuple, indices: list[int]) -> Communicator:
        if key not in self._cache:
            self._cache[key] = self.comm.sub(indices)
        return self._cache[key]

    def row_comm(self, row: int, layer: int = 0) -> Communicator:
        """Ranks sharing ``row`` within ``layer`` (varies over columns)."""
        idx = [self.local_rank(row, c, layer) for c in range(self.cols)]
        return self._cached(("row", row, layer), idx)

    def col_comm(self, col: int, layer: int = 0) -> Communicator:
        """Ranks sharing ``col`` within ``layer`` (varies over rows)."""
        idx = [self.local_rank(r, col, layer) for r in range(self.rows)]
        return self._cached(("col", col, layer), idx)

    def layer_comm(self, layer: int) -> Communicator:
        """All ranks of one replication layer (a 2-D face)."""
        idx = [
            self.local_rank(r, c, layer)
            for r in range(self.rows)
            for c in range(self.cols)
        ]
        return self._cached(("layer", layer), idx)

    def fiber_comm(self, row: int, col: int) -> Communicator:
        """Ranks sharing a face position across layers (the reduce fiber)."""
        idx = [self.local_rank(row, col, layer) for layer in range(self.layers)]
        return self._cached(("fiber", row, col), idx)

    def __repr__(self) -> str:
        return f"ProcessorGrid({self.rows}x{self.cols}x{self.layers})"
