"""Shared test utilities: brute-force references, generators, the
store's torn-write injector, a thread race and the LSH table-file layout
that preceded the key matrix."""

from __future__ import annotations

import sys
import threading

import numpy as np


def exact_jaccard(sets) -> np.ndarray:
    """Brute-force all-pairs Jaccard similarity (the ground truth).

    Follows the paper's convention: ``J(empty, empty) = 1``.
    """
    materialized = [set(int(v) for v in s) for s in sets]
    n = len(materialized)
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            union = materialized[i] | materialized[j]
            if not union:
                out[i, j] = 1.0
            else:
                out[i, j] = len(materialized[i] & materialized[j]) / len(union)
    return out


def random_sets(rng: np.random.Generator, n: int, m: int, max_size: int) -> list:
    """Random integer sample sets over ``[0, m)`` (possibly empty)."""
    return [
        set(rng.integers(0, m, size=rng.integers(0, max_size + 1)).tolist())
        for _ in range(n)
    ]


def install_torn_writes(monkeypatch, fail_on: int) -> list[str]:
    """Route the store's one byte sink through a crash injector.

    Every write's file name is logged; the ``fail_on``-th (counted from
    1, so 0 never fails) leaves half its bytes in the temp file and
    raises ``OSError``, as a crash mid-write would.  Returns the log.
    """
    import repro.service.store as store_module

    real = store_module._atomic_write_bytes
    log: list[str] = []

    def torn(path, data):
        log.append(path.name)
        if len(log) == fail_on:
            torn_tmp = path.with_name(path.name + ".tmp")
            torn_tmp.write_bytes(data[: max(1, len(data) // 2)])
            raise OSError(f"injected crash during write #{fail_on} ({path.name})")
        real(path, data)

    monkeypatch.setattr(store_module, "_atomic_write_bytes", torn)
    return log


def race(workers, fn) -> list:
    """Run ``fn`` on ``workers`` threads released together, with a short
    switch interval; returns what each call returned."""
    start = threading.Barrier(workers)
    results, errors = [], []

    def run():
        try:
            start.wait(timeout=30)
            results.append(fn())
        except BaseException as exc:  # re-raised below, in the test's thread
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert not errors, errors
    assert len(results) == workers
    return results


def legacy_payloads(table):
    """An LSH table in the file layout that preceded the key matrix:
    header and parameters, then per band the sorted unique keys, the CSR
    offsets and the member positions (``2 + 3 * bands`` frames)."""
    payloads = table.to_payloads()[:2]
    for col in table.keymat.T:
        order = np.argsort(col, kind="stable")
        uniq, starts = np.unique(col[order], return_index=True)
        payloads += [
            uniq, np.append(starts, col.size).astype(np.int64), order.astype(np.int64)
        ]
    return payloads
