"""Timing discipline and small statistics shared by the workloads."""

from __future__ import annotations

import gc
import resource
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

import numpy as np

clock = time.perf_counter


@contextmanager
def timed_section():
    """Run a timed section with the collector frozen and off.

    Single passes on a shared 2-core box swing by up to 20%; a
    collection landing inside one operation is noise the benchmark can
    remove itself.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def time_call(fn, *args, **kwargs):
    """``(seconds, result)`` of one call; the result is kept alive so the
    work cannot be skipped."""
    t0 = clock()
    out = fn(*args, **kwargs)
    return clock() - t0, out


def median_time(fn, repeats: int) -> float:
    """Median seconds of ``repeats`` calls."""
    return median(time_call(fn)[0] for _ in range(repeats))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Round:
    """Latencies (seconds) of one replay of a workload's operation list."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    n_ops: int = 0
    failed: int = 0

    def add(self, kind: str, seconds: float | None, n_ops: int = 1) -> None:
        """Record one operation; ``None`` marks one that failed."""
        self.latencies.setdefault(kind, []).append(seconds)
        self.n_ops += n_ops
        self.failed += seconds is None

    def close(self) -> "Round":
        """A failed operation counts as its round's slowest sample."""
        for kind, values in self.latencies.items():
            worst = max((v for v in values if v is not None), default=0.0)
            self.latencies[kind] = [worst if v is None else v for v in values]
        return self

    @property
    def wall(self) -> float:
        return sum(sum(v) for v in self.latencies.values())

    def p50_ms(self, *kinds: str) -> float:
        values = [x for k in kinds for x in self.latencies.get(k, ())]
        return 1e3 * median(values) if values else 0.0


class Probes:
    """Collects per-layer metric values; a failing probe degrades.

    A probe whose target function has disappeared (or now raises) must
    not fail the run: every name it was to report becomes ``None`` with
    the reason recorded.
    """

    def __init__(self):
        self.values: dict[str, float | None] = {}
        self.reasons: dict[str, str] = {}

    def run(self, names, fn) -> None:
        """``fn()`` returns ``{name: value}`` for exactly ``names``."""
        try:
            got = fn()
            missing = [n for n in names if n not in got]
            if missing:
                raise KeyError(f"probe did not report {missing}")
        except Exception as exc:  # the probe boundary: keep the run alive
            reason = f"{type(exc).__name__}: {exc}"
            tb = traceback.extract_tb(exc.__traceback__)
            if tb:
                reason += f" (at {tb[-1].name}:{tb[-1].lineno})"
            for n in names:
                self.values[n] = None
                self.reasons[n] = reason
            return
        for n in names:
            self.values[n] = float(got[n])
