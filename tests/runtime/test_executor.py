"""Tests for local-compute executors."""

import numpy as np
import pytest

from repro.runtime.executor import SequentialExecutor, ThreadedExecutor


class TestSequentialExecutor:
    def test_map(self):
        ex = SequentialExecutor()
        assert ex.map(lambda a, b: a + b, [1, 2], [10, 20]) == [11, 22]

    def test_preserves_order(self):
        ex = SequentialExecutor()
        assert ex.map(lambda x: x, range(100)) == list(range(100))

    def test_ragged_iterables_rejected(self):
        # Regression: zip() without strict silently truncated to the
        # shortest iterable, dropping ranks' work without a trace.
        ex = SequentialExecutor()
        with pytest.raises(ValueError):
            ex.map(lambda a, b: a + b, [1, 2, 3], [10, 20])


class TestThreadedExecutor:
    def test_matches_sequential(self):
        fn = lambda x: np.sum(np.arange(x))  # noqa: E731
        items = list(range(1, 50))
        seq = SequentialExecutor().map(fn, items)
        with ThreadedExecutor(max_workers=4) as ex:
            thr = ex.map(fn, items)
        assert seq == thr

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="positive"):
            ThreadedExecutor(max_workers=0)

    def test_context_manager_shuts_down(self):
        with ThreadedExecutor(max_workers=2) as ex:
            assert ex.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_ragged_iterables_rejected(self):
        with ThreadedExecutor(max_workers=2) as ex:
            with pytest.raises(ValueError, match="equally sized"):
                ex.map(lambda a, b: a + b, [1, 2, 3], [10, 20])

    def test_accepts_generators_like_sequential(self):
        with ThreadedExecutor(max_workers=2) as ex:
            got = ex.map(lambda a, b: a + b, (x for x in [1, 2]), [10, 20])
        assert got == [11, 22]
        with ThreadedExecutor(max_workers=2) as ex:
            with pytest.raises(ValueError, match="equally sized"):
                ex.map(lambda a, b: a + b, (x for x in [1, 2, 3]), [10, 20])
