"""The BSP price list of the simulated collectives.

Each collective has one body, in :class:`~repro.runtime.comm.Communicator`,
which computes its functional result exactly (bit-identical to what an MPI
program would produce) and charges the ledger through the ``*_charge``
builder here, on the byte sizes that actually travel.  Every collective is
priced as a standard implementation algorithm:

==========  ==================================  =====================================
collective  algorithm                           BSP cost (group size ``s``)
==========  ==================================  =====================================
bcast       binomial tree                       ``log2 s * (alpha + n*beta)``
allreduce   recursive doubling (n <= 64 KiB)    ``log2 s * (alpha + n*beta)`` + flops
allreduce   Rabenseifner (n > 64 KiB)           ``2 log2 s * alpha + 2 n beta`` + flops
allgather   recursive doubling                  ``log2 s * alpha + (S - n_i) * beta``
alltoallv   single h-relation                   ``alpha + max_i h_i * beta``
gatherv     binomial tree                       ``log2 s * alpha + S_root * beta``
exscan      Hillis–Steele doubling              ``log2 s * (alpha + n*beta)`` + flops
==========  ==================================  =====================================

where ``n`` is the per-rank payload, ``S`` the aggregate payload, and
``h_i`` rank ``i``'s max(send, recv) traffic.  The allreduce algorithm is
picked by payload size alone.  These match the collective cost assumptions
of the paper's §III-C analysis (e.g. the prefix sum of the filter vector
costing ``O(alpha + p*beta)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.runtime.cost import CostLedger
from repro.runtime.machine import MachineSpec


def payload_nbytes(obj: Any) -> int:
    """Approximate serialized size of a message payload, in bytes.

    Byte-string payloads — ``bytes``/``bytearray`` and the
    :class:`~repro.runtime.codec.Frame` objects the wire-codec layer
    emits — are charged at their exact length; a ``memoryview`` is
    charged at ``.nbytes`` (its ``len()`` counts *elements*, which
    under-charges any view wider than one byte).
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, memoryview):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (bool, np.bool_)):
        return 1
    if isinstance(obj, (int, np.integer, float, np.floating)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    return 64  # opaque object: charge a nominal envelope


def _log2_ceil(s: int) -> int:
    return max(0, math.ceil(math.log2(s))) if s > 1 else 0


def _combine_flops(nbytes: float) -> float:
    """Arithmetic ops to combine two payloads of ``nbytes`` (8 B words)."""
    return nbytes / 8.0


@dataclass(frozen=True)
class Charge:
    """The BSP cost of one collective invocation."""

    rounds: int
    alpha_seconds: float
    comm_seconds: float
    compute_seconds: float = 0.0
    total_bytes: float = 0.0
    max_rank_bytes: float = 0.0
    messages: int = 0
    flops: float = 0.0

    def apply(self, ledger: CostLedger, ranks: Sequence[int]) -> None:
        """Record volume stats and advance the group's clocks."""
        ledger.charge_superstep(
            alpha_seconds=self.alpha_seconds,
            comm_seconds=self.comm_seconds,
            compute_seconds=self.compute_seconds,
            total_bytes=self.total_bytes,
            max_rank_bytes=self.max_rank_bytes,
            messages=self.messages,
            total_flops=self.flops,
            rounds=self.rounds,
            ranks=ranks,
        )


def bcast_charge(
    spec: MachineSpec, group: Sequence[int], nbytes: float
) -> Charge:
    """BSP charge of a binomial-tree broadcast of ``nbytes`` per member."""
    s = len(group)
    rounds = _log2_ceil(s)
    beta = spec.beta_for_group(group)
    return Charge(
        rounds=rounds,
        alpha_seconds=rounds * spec.alpha,
        comm_seconds=rounds * nbytes * beta,
        total_bytes=(s - 1) * nbytes,
        max_rank_bytes=rounds * nbytes,
        messages=s - 1,
    )


def resolve_allreduce_algorithm(nbytes: float) -> str:
    """The all-reduce algorithm for ``nbytes`` per member, by size alone.

    Recursive doubling up to 64 KiB, Rabenseifner above.
    """
    return "recursive_doubling" if nbytes <= 65536 else "rabenseifner"


def allreduce_charge(
    spec: MachineSpec,
    group: Sequence[int],
    nbytes: float,
    algorithm: str | None = None,
    combine_nbytes: float | None = None,
) -> Charge:
    """BSP charge of an all-reduce (a sum) moving ``nbytes`` per member.

    ``algorithm`` defaults to the one ``nbytes`` picks.  The communicator
    names it to price its raw wire tally on the algorithm the encoded
    payload picked: pricing raw and encoded under different algorithms
    would make the wire counters compare algorithm shapes, not
    compression.  ``combine_nbytes`` sizes the reduction arithmetic
    separately from the wire traffic — the communicator passes the
    *decoded* payload size there, since ranks combine decoded values
    while (in the model) forwarding encoded frames.
    """
    s = len(group)
    if combine_nbytes is None:
        combine_nbytes = nbytes
    if algorithm is None:
        algorithm = resolve_allreduce_algorithm(nbytes)
    log_s = _log2_ceil(s)
    beta = spec.beta_for_group(group)
    if algorithm == "recursive_doubling":
        rounds = log_s
        comm = rounds * nbytes * beta
        total_bytes = s * rounds * nbytes
        flops = rounds * _combine_flops(combine_nbytes)
    elif algorithm == "rabenseifner":
        # Reduce-scatter + allgather: each rank moves ~2*nbytes total.
        rounds = 2 * log_s
        effective = 2.0 * nbytes * (s - 1) / s if s > 1 else 0.0
        comm = effective * beta
        total_bytes = s * effective
        flops = (
            _combine_flops(combine_nbytes) * (s - 1) / s if s > 1 else 0.0
        )
    else:
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
    return Charge(
        rounds=rounds,
        alpha_seconds=rounds * spec.alpha,
        comm_seconds=comm,
        compute_seconds=spec.compute_seconds(flops),
        total_bytes=total_bytes,
        max_rank_bytes=comm / beta if beta else 0.0,
        messages=s * max(1, log_s) if s > 1 else 0,
        flops=s * flops,
    )


def allgather_charge(
    spec: MachineSpec, group: Sequence[int], sizes: Sequence[float]
) -> Charge:
    """BSP charge of an all-gather; ``sizes[i]`` is member ``i``'s part."""
    s = len(group)
    total = sum(sizes)
    rounds = _log2_ceil(s)
    beta = spec.beta_for_group(group)
    max_recv = max((total - sz for sz in sizes), default=0)
    return Charge(
        rounds=rounds,
        alpha_seconds=rounds * spec.alpha,
        comm_seconds=max_recv * beta,
        total_bytes=float(s) * max_recv if s > 1 else 0.0,
        max_rank_bytes=max_recv,
        messages=s * max(1, rounds) if s > 1 else 0,
    )


def alltoallv_charge(
    spec: MachineSpec, group: Sequence[int], sizes: Sequence[Sequence[float]]
) -> Charge:
    """BSP h-relation charge for an all-to-all with the given byte matrix.

    ``sizes[i][j]`` is what rank ``i`` sends to rank ``j``: a frame's
    size for a framed message, the payload's for a raw one.
    """
    s = len(group)
    sent = [sum(row) for row in sizes]
    recv = [sum(sizes[i][j] for i in range(s)) for j in range(s)]
    off_rank = sum(
        sizes[i][j] for i in range(s) for j in range(s) if i != j
    )
    h = max((max(a, b) for a, b in zip(sent, recv)), default=0)
    messages = sum(
        1 for i in range(s) for j in range(s) if i != j and sizes[i][j] > 0
    )
    beta = spec.beta_for_group(group)
    return Charge(
        rounds=1,
        alpha_seconds=spec.alpha,
        comm_seconds=h * beta,
        total_bytes=off_rank,
        max_rank_bytes=h,
        messages=messages,
    )


def gatherv_charge(
    spec: MachineSpec, group: Sequence[int], incoming: float
) -> Charge:
    """BSP charge of a binomial gather of ``incoming`` off-root bytes."""
    s = len(group)
    rounds = _log2_ceil(s)
    beta = spec.beta_for_group(group)
    return Charge(
        rounds=rounds,
        alpha_seconds=rounds * spec.alpha,
        comm_seconds=incoming * beta,
        total_bytes=incoming,
        max_rank_bytes=incoming,
        messages=s - 1,
    )


def exscan_charge(
    spec: MachineSpec, group: Sequence[int], nbytes: float
) -> Charge:
    """BSP charge of an exclusive prefix sum of ``nbytes`` per member.

    This is the collective behind the paper's filter-vector prefix sum
    (§III-C: BSP cost ``O(alpha + p*beta)``).
    """
    s = len(group)
    rounds = _log2_ceil(s)
    beta = spec.beta_for_group(group)
    return Charge(
        rounds=rounds,
        alpha_seconds=rounds * spec.alpha,
        comm_seconds=rounds * nbytes * beta,
        compute_seconds=spec.compute_seconds(rounds * _combine_flops(nbytes)),
        total_bytes=s * rounds * nbytes,
        max_rank_bytes=rounds * nbytes,
        messages=s * max(1, rounds) if s > 1 else 0,
        flops=s * rounds * _combine_flops(nbytes),
    )
