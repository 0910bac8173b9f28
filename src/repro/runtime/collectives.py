"""MPI-style collectives over the simulated machine: their BSP prices.

Every collective is charged as a standard implementation algorithm.
``bcast``, ``allreduce``, ``alltoallv`` and ``gatherv`` carry wire-codec
frames, so this module only *prices* them (``*_charge``, on the byte
sizes that actually travel); their one body lives in
:class:`~repro.runtime.comm.Communicator`.  The others compute their
*functional* result here exactly (bit-identical to what an MPI program
would produce) and return it with their charge:

===============  ===========================  =============================
collective       algorithm                     BSP cost (group size ``s``)
===============  ===========================  =============================
barrier          dissemination                 ``ceil(log2 s) * alpha``
bcast            binomial tree                 ``log2 s * (alpha + n*beta)``
reduce           binomial tree                 ``log2 s * (alpha + n*beta)`` + combine flops
allreduce        recursive doubling            ``log2 s * (alpha + n*beta)`` + combine flops
allreduce        Rabenseifner (large n)        ``2 log2 s * alpha + 2 n beta`` + flops
allgather(v)     recursive doubling            ``log2 s * alpha + (S - n_i) * beta``
alltoallv        single h-relation             ``alpha + max_i h_i * beta``
gatherv          binomial tree                 ``log2 s * alpha + S_root * beta``
scatterv         binomial tree                 ``log2 s * alpha + S_root * beta``
scan / exscan    Hillis–Steele doubling        ``log2 s * (alpha + n*beta)`` + flops
===============  ===========================  =============================

where ``n`` is the per-rank payload, ``S`` the aggregate payload, and
``h_i`` rank ``i``'s max(send, recv) traffic.  These match the collective
cost assumptions of the paper's §III-C analysis (e.g. the prefix sum of
the filter vector costing ``O(alpha + p*beta)``).

Results that are NumPy arrays may be shared between ranks to avoid
simulation-side copies; callers must treat collective outputs as
read-only (copy before mutating), exactly as they would an MPI receive
buffer handed to multiple consumers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.runtime.cost import CostLedger
from repro.runtime.machine import MachineSpec

ReduceOp = Callable[[Any, Any], Any]

#: Named reduction operators accepted everywhere an ``op`` is expected.
NAMED_OPS: dict[str, ReduceOp] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
    "bor": lambda a, b: a | b,
    "band": lambda a, b: a & b,
}


def resolve_op(op: str | ReduceOp) -> ReduceOp:
    """Map an operator name or callable to a binary callable."""
    if callable(op):
        return op
    try:
        return NAMED_OPS[op]
    except KeyError:
        raise ValueError(
            f"unknown reduce op {op!r}; expected one of {sorted(NAMED_OPS)} "
            "or a callable"
        ) from None


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

    @property
    def seconds(self) -> float:
        return self.alpha_seconds + self.comm_seconds + self.compute_seconds

    def apply(
        self,
        ledger: CostLedger,
        ranks: Sequence[int] | None = None,
        phase: str | None = None,
    ) -> None:
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
            phase=phase,
            ranks=ranks,
        )


def barrier_charge(spec: MachineSpec, group: Sequence[int]) -> Charge:
    rounds = max(1, _log2_ceil(len(group)))
    return Charge(
        rounds=rounds,
        alpha_seconds=rounds * spec.alpha,
        comm_seconds=0.0,
        messages=len(group) * rounds if len(group) > 1 else 0,
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


def reduce(
    spec: MachineSpec,
    group: Sequence[int],
    values: list,
    op: str | ReduceOp,
    root: int,
) -> tuple[list, Charge]:
    """Binomial-tree reduction to ``root``; non-roots receive ``None``."""
    s = len(group)
    if not 0 <= root < s:
        raise IndexError(f"root {root} out of range for group of {s}")
    fn = resolve_op(op)
    acc = values[0]
    for v in values[1:]:
        acc = fn(acc, v)
    nbytes = payload_nbytes(values[root])
    rounds = _log2_ceil(s)
    beta = spec.beta_for_group(group)
    charge = Charge(
        rounds=rounds,
        alpha_seconds=rounds * spec.alpha,
        comm_seconds=rounds * nbytes * beta,
        compute_seconds=spec.compute_seconds(rounds * _combine_flops(nbytes)),
        total_bytes=(s - 1) * nbytes,
        max_rank_bytes=rounds * nbytes,
        messages=s - 1,
        flops=(s - 1) * _combine_flops(nbytes),
    )
    results: list = [None] * s
    results[root] = acc
    return results, charge


def resolve_allreduce_algorithm(nbytes: float, algorithm: str = "auto") -> str:
    """Resolve ``"auto"`` to a concrete all-reduce algorithm by size.

    Callers comparing two charges of the same collective (e.g. the
    communicator's raw-vs-encoded wire counters) must resolve once and
    pass the explicit name to both, or the comparison would straddle
    the size threshold and mix algorithms.
    """
    if algorithm == "auto":
        return "recursive_doubling" if nbytes <= 65536 else "rabenseifner"
    return algorithm


def allreduce_charge(
    spec: MachineSpec,
    group: Sequence[int],
    nbytes: float,
    algorithm: str = "auto",
    combine_nbytes: float | None = None,
) -> Charge:
    """BSP charge of an all-reduce moving ``nbytes`` per member.

    ``combine_nbytes`` sizes the reduction arithmetic separately from
    the wire traffic — the communicator passes the *decoded* payload
    size there, since ranks combine decoded values while (in the model)
    forwarding encoded frames.
    """
    s = len(group)
    if combine_nbytes is None:
        combine_nbytes = nbytes
    log_s = _log2_ceil(s)
    beta = spec.beta_for_group(group)
    algorithm = resolve_allreduce_algorithm(nbytes, algorithm)
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
    elif algorithm == "ring":
        rounds = 2 * (s - 1)
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


def allgather(
    spec: MachineSpec, group: Sequence[int], values: list
) -> tuple[list, Charge]:
    """All-gather; every member receives the list of all contributions."""
    s = len(group)
    sizes = [payload_nbytes(v) for v in values]
    total = sum(sizes)
    rounds = _log2_ceil(s)
    beta = spec.beta_for_group(group)
    max_recv = max((total - sz for sz in sizes), default=0)
    charge = Charge(
        rounds=rounds,
        alpha_seconds=rounds * spec.alpha,
        comm_seconds=max_recv * beta,
        total_bytes=float(s) * max_recv if s > 1 else 0.0,
        max_rank_bytes=max_recv,
        messages=s * max(1, rounds) if s > 1 else 0,
    )
    gathered = list(values)
    return [gathered] * s, charge


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


def scatterv(
    spec: MachineSpec, group: Sequence[int], parts: list, root: int
) -> tuple[list, Charge]:
    """Scatter ``parts`` (held at ``root``) so member ``i`` gets ``parts[i]``."""
    s = len(group)
    if not 0 <= root < s:
        raise IndexError(f"root {root} out of range for group of {s}")
    if len(parts) != s:
        raise ValueError(f"scatterv needs {s} parts, got {len(parts)}")
    sizes = [payload_nbytes(v) for v in parts]
    outgoing = sum(sz for i, sz in enumerate(sizes) if i != root)
    rounds = _log2_ceil(s)
    beta = spec.beta_for_group(group)
    charge = Charge(
        rounds=rounds,
        alpha_seconds=rounds * spec.alpha,
        comm_seconds=outgoing * beta,
        total_bytes=outgoing,
        max_rank_bytes=outgoing,
        messages=s - 1,
    )
    return list(parts), charge


def scan(
    spec: MachineSpec,
    group: Sequence[int],
    values: list,
    op: str | ReduceOp,
    exclusive: bool = False,
    identity: Any = None,
) -> tuple[list, Charge]:
    """(Ex)clusive prefix reduction across group ranks.

    This is the collective behind the paper's filter-vector prefix sum
    (§III-C: BSP cost ``O(alpha + p*beta)``).
    """
    s = len(group)
    fn = resolve_op(op)
    inclusive: list = []
    acc = None
    for v in values:
        acc = v if acc is None else fn(acc, v)
        inclusive.append(acc)
    if exclusive:
        if identity is None and s > 0:
            raise ValueError("exclusive scan requires an identity element")
        results = [identity] + inclusive[:-1] if s > 0 else []
    else:
        results = inclusive
    nbytes = max((payload_nbytes(v) for v in values), default=0)
    rounds = _log2_ceil(s)
    beta = spec.beta_for_group(group)
    charge = Charge(
        rounds=rounds,
        alpha_seconds=rounds * spec.alpha,
        comm_seconds=rounds * nbytes * beta,
        compute_seconds=spec.compute_seconds(rounds * _combine_flops(nbytes)),
        total_bytes=s * rounds * nbytes,
        max_rank_bytes=rounds * nbytes,
        messages=s * max(1, rounds) if s > 1 else 0,
        flops=s * rounds * _combine_flops(nbytes),
    )
    return results, charge
