"""Shared low-level utilities: bit manipulation, sort/scan array
primitives, RNG, partitioning, units.

These helpers are deliberately free of any distributed-runtime concepts so
that every other subpackage (``runtime``, ``sparse``, ``core``, ...) can
depend on them without import cycles.
"""

from repro.util.arrays import sorted_unique, split_by_destination
from repro.util.bits import unpack_bits, words_needed
from repro.util.partition import block_bounds, round_robin_indices
from repro.util.prng import derive_seed, rng_for
from repro.util.units import format_bytes, format_count, format_time

__all__ = [
    "unpack_bits",
    "words_needed",
    "sorted_unique",
    "split_by_destination",
    "block_bounds",
    "round_robin_indices",
    "derive_seed",
    "rng_for",
    "format_bytes",
    "format_count",
    "format_time",
]
