"""Sort- and scan-based array primitives of the pre-Gram pipeline.

Everything in front of the Gram (read, zero-row filter, redistribution,
bit-pack) is meant to be a linear streaming pass over sorted data
(paper §III-B, §IV).  The two helpers here are the only places that
pipeline deduplicates values or groups coordinates by destination, and
both are one sort plus one scan — never a hash set, never one boolean
mask per destination.  The receiving end needs no helper: an owner
packs straight from its messages
(:meth:`repro.sparse.bitmatrix.BitMatrix.from_messages`).
"""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct elements of a 1-D integer array.

    Equal to ``np.unique(values)`` in value and dtype, but always by
    sort + neighbour compare: the inputs here are sample files and
    coordinate chunks that are sorted or nearly so, which a sort exploits
    and a hash set (NumPy >= 2.3's ``np.unique``) cannot.  An input that
    is already strictly increasing is returned *as is*, without a copy —
    callers that retain the result and do not own ``values`` must copy.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"sorted_unique expects a 1-D array, got shape {arr.shape}")
    if arr.size < 2 or bool((arr[1:] > arr[:-1]).all()):
        return arr
    arr = np.sort(arr)
    keep = np.empty(arr.size, dtype=bool)
    keep[0] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def split_by_destination(
    dests: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    size: int,
    out: np.ndarray | None = None,
) -> list[np.ndarray | None]:
    """Group ``(row, col)`` coordinates into one message per destination.

    ``dests[k]`` in ``[0, size)`` is the rank coordinate ``k`` travels
    to; any other id raises :class:`ValueError`, checked before the ids
    are narrowed.  Message ``d`` is the ``(2, count_d)`` stack of the
    rows and columns bound for ``d`` in their original relative order
    (the varint codec's frame size depends on it); destinations that
    receive nothing get ``None``.  The messages are views into one
    gathered int64 array: ``out`` (a ``(2, len(dests))`` view, so that
    several senders can share one allocation) or a fresh one.

    One stable argsort of the ids, narrowed once to the smallest integer
    type that holds ``size - 1`` (a radix sort up to 2^16 ranks);
    the message bounds are a binary search of the sorted ids, so no
    ``bincount`` pass; then one gather per coordinate row.
    """
    messages: list[np.ndarray | None] = [None] * size
    if dests.size == 0:
        return messages
    if dests.min() < 0 or dests.max() >= size:
        raise ValueError(f"destination id out of range for {size} ranks")
    keys = dests.astype(np.min_scalar_type(size - 1), copy=False)
    order = np.argsort(keys, kind="stable")
    firsts = np.searchsorted(keys[order], np.arange(size, dtype=keys.dtype))
    bounds = np.append(firsts, dests.size)
    grouped = np.empty((2, dests.size), dtype=np.int64) if out is None else out
    # ``order`` is a permutation, so "clip" never clips; it lets numpy
    # gather straight into ``grouped`` ("raise" gathers into a copy).
    np.take(rows, order, out=grouped[0], mode="clip")
    np.take(cols, order, out=grouped[1], mode="clip")
    for d in np.flatnonzero(bounds[1:] > bounds[:-1]):
        messages[d] = grouped[:, bounds[d] : bounds[d + 1]]
    return messages
