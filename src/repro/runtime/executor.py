"""Executors for the sharded service's band fan-out.

Both executors map a function over per-band inputs and return the
results in input order.  The :class:`SequentialExecutor` runs them one
after another (fully deterministic, the default); the
:class:`ThreadedExecutor` runs them on a bounded thread pool — NumPy
kernels release the GIL, so band-local work can overlap without
changing any result.  The simulated machine itself needs neither: its
ranks always run in rank order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class SequentialExecutor:
    """Runs each item one at a time, in order."""

    def map(self, fn: Callable[..., R], *iterables: Iterable) -> list[R]:
        # One argument list per item: a ragged zip means a caller lost an
        # item's inputs somewhere, so fail loudly instead of truncating.
        return [fn(*args) for args in zip(*iterables, strict=True)]

    def shutdown(self) -> None:  # symmetry with ThreadedExecutor
        pass


class ThreadedExecutor:
    """Runs items concurrently on a bounded thread pool."""

    def __init__(self, max_workers: int = 4):
        if max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self._pool = ThreadPoolExecutor(max_workers=max_workers)
        self.max_workers = max_workers

    def map(self, fn: Callable[..., R], *iterables: Iterable) -> list[R]:
        # Accept the same inputs as SequentialExecutor.map (including
        # generators) and fail the same way on ragged lengths.
        seqs = [
            seq if hasattr(seq, "__len__") else list(seq)
            for seq in iterables
        ]
        if seqs:
            lengths = {len(seq) for seq in seqs}
            if len(lengths) > 1:
                raise ValueError(
                    f"map expects equally sized iterables, got lengths "
                    f"{sorted(lengths)}"
                )
        return list(self._pool.map(fn, *seqs))

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
