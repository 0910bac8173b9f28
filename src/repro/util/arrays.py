"""Sort- and scan-based array primitives of the pre-Gram pipeline.

Everything in front of the Gram (read, zero-row filter, redistribution,
bit-pack) is meant to be a linear streaming pass over sorted data
(paper §III-B, §IV).  The two helpers here are the only places that
pipeline deduplicates values or groups coordinates by destination, and
both are one sort plus one scan — never a hash set, never one boolean
mask per destination.  :func:`merge_messages` is the receiving end.
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
    dests: np.ndarray, rows: np.ndarray, cols: np.ndarray, size: int
) -> list[np.ndarray | None]:
    """Group ``(row, col)`` coordinates into one message per destination.

    ``dests[k]`` in ``[0, size)`` is the rank coordinate ``k`` travels
    to.  Message ``d`` is the ``(2, count_d)`` stack of the rows and
    columns bound for ``d`` in their original relative order (the varint
    codec's frame size depends on it); destinations that receive nothing
    get ``None``.  One stable argsort of the destination ids (narrowed
    to the smallest integer type that holds them, which makes it a radix
    sort) and one ``bincount`` for the offsets, whatever ``size`` is; the
    messages are views into a single gathered int64 array.
    """
    messages: list[np.ndarray | None] = [None] * size
    if dests.size == 0:
        return messages
    counts = np.bincount(dests, minlength=size)
    if counts.size > size:
        raise ValueError(f"destination id out of range for {size} ranks")
    order = np.argsort(dests.astype(np.min_scalar_type(size - 1)), kind="stable")
    grouped = np.empty((2, dests.size), dtype=np.int64)
    np.take(rows, order, out=grouped[0])
    np.take(cols, order, out=grouped[1])
    ends = np.cumsum(counts)
    for d in np.flatnonzero(counts):
        messages[d] = grouped[:, ends[d] - counts[d] : ends[d]]
    return messages


def merge_messages(messages: list[np.ndarray | None]) -> np.ndarray:
    """The ``(2, k)`` coordinate stack one owner received, in sender order
    (what :func:`split_by_destination` sent it, ``None`` = nothing)."""
    parts = [a for a in messages if a is not None]
    if not parts:
        return np.empty((2, 0), dtype=np.int64)
    return np.concatenate(parts, axis=1)
