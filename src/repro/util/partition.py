"""Index-space partitioning helpers used by the distributed layers.

Two layouts recur throughout the system:

* **block**: contiguous ranges, remainder spread over the leading ranks
  (the layout used for distributed matrix dimensions), and
* **round-robin / cyclic**: element ``i`` owned by rank ``i mod p`` (the
  layout the paper's ``readFiles`` uses to assign input files to ranks).
"""

from __future__ import annotations

import numpy as np


def block_bounds(total: int, parts: int, index: int) -> tuple[int, int]:
    """Half-open ``[lo, hi)`` bounds of block ``index``."""
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if not 0 <= index < parts:
        raise IndexError(f"block index {index} out of range for {parts} parts")
    base, rem = divmod(total, parts)
    lo = index * base + min(index, rem)
    return lo, lo + base + (1 if index < rem else 0)


def round_robin_indices(total: int, parts: int, index: int) -> np.ndarray:
    """Global indices owned by ``index`` under the cyclic layout."""
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if not 0 <= index < parts:
        raise IndexError(f"rank {index} out of range for {parts} parts")
    return np.arange(index, total, parts, dtype=np.int64)
