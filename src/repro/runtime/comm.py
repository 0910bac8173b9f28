"""The SPMD communication façade.

A :class:`Communicator` represents a group of simulated ranks, analogous
to an ``MPI_Comm``.  Algorithms written against it look like coordinator
code: per-rank local state lives in Python lists indexed by group-local
rank, local kernels run through :meth:`run_local` (one rank after another,
in rank order), and data exchange goes through the collectives the
paper's §III-C analysis charges — ``bcast``, ``allreduce`` (a sum),
``allgather``, ``alltoallv``, ``gatherv`` and ``exscan`` (an exclusive
prefix sum).  Each has one body here, which produces the exact functional
result and charges the BSP price that :mod:`repro.runtime.collectives`
lists to the machine's ledger.  A wire codec changes only what one
message costs: each payload that crosses the wire is framed iff the codec
supports it (:meth:`Communicator._send`), and the collective is charged
once, on the sizes that actually travel.

Results that are NumPy arrays may be shared between ranks to avoid
simulation-side copies; callers must treat collective outputs as
read-only (copy before mutating), exactly as they would an MPI receive
buffer handed to multiple consumers.

Example
-------
>>> from repro.runtime import Machine, laptop
>>> mach = Machine(laptop(4))
>>> comm = mach.world
>>> partials = comm.run_local(lambda rank: rank + 1)
>>> comm.allreduce(partials)[0]
10
>>> comm.exscan(partials)
[0, 1, 3, 6]
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TYPE_CHECKING

import numpy as np

from repro.runtime import collectives as coll
from repro.runtime.collectives import payload_nbytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.codec import Frame, WireCodec
    from repro.runtime.engine import Machine


class Communicator:
    """A group of simulated ranks with MPI-like collectives."""

    def __init__(self, machine: "Machine", ranks: Sequence[int] | None = None):
        self.machine = machine
        if ranks is None:
            ranks = range(machine.spec.p)
        self.ranks: tuple[int, ...] = tuple(int(r) for r in ranks)
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError("communicator ranks must be distinct")
        for r in self.ranks:
            if not 0 <= r < machine.spec.p:
                raise IndexError(f"rank {r} out of range for p={machine.spec.p}")

    # ---- group structure ----------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ranks)

    @property
    def spec(self):
        return self.machine.spec

    @property
    def ledger(self):
        return self.machine.ledger

    def sub(self, local_indices: Sequence[int]) -> "Communicator":
        """Sub-communicator from group-local indices."""
        return Communicator(self.machine, [self.ranks[i] for i in local_indices])

    def _check_values(self, values: Sequence, what: str) -> list:
        if len(values) != self.size:
            raise ValueError(
                f"{what} expects one value per rank ({self.size}), "
                f"got {len(values)}"
            )
        return list(values)

    # ---- local compute --------------------------------------------------

    def run_local(self, fn: Callable[..., Any], *per_rank_args: Sequence) -> list:
        """Run ``fn(local_rank, *args_i)`` for every rank, in rank order.

        Results are returned as a list indexed by group-local rank.  Pure
        execution — charge modelled compute separately via
        :meth:`charge_compute` with the kernel's operation count.
        """
        for args in per_rank_args:
            self._check_values(args, "run_local")
        return [fn(*args) for args in zip(range(self.size), *per_rank_args)]

    def charge_compute(
        self,
        flops: float | Sequence[float],
        working_set_bytes: float = 0.0,
        kernel: str | None = None,
    ) -> None:
        """Charge local compute; each rank's clock advances independently.

        ``kernel`` labels the charge in the ledger's per-kernel breakdown
        (used by the adaptive Gram dispatch to account each kernel
        separately within the ``spgemm`` phase).
        """
        if isinstance(flops, (int, float, np.integer, np.floating)):
            seq = [float(flops)] * self.size
        else:
            seq = [float(f) for f in flops]
            self._check_values(seq, "charge_compute")
        per_rank = [
            self.spec.compute_seconds(f, working_set_bytes) for f in seq
        ]
        self.ledger.charge_compute(
            max(per_rank, default=0.0),
            flops=sum(seq),
            ranks=self.ranks,
            per_rank_seconds=per_rank,
            kernel=kernel,
        )

    def charge_io(self, bytes_per_rank: float | Sequence[float]) -> None:
        """Charge file I/O; each rank's clock advances independently."""
        if isinstance(bytes_per_rank, (int, float, np.integer, np.floating)):
            seq = [float(bytes_per_rank)] * self.size
        else:
            seq = [float(b) for b in bytes_per_rank]
            self._check_values(seq, "charge_io")
        per_rank = [self.spec.io_seconds(b) for b in seq]
        self.ledger.charge_io(
            max(per_rank, default=0.0),
            ranks=self.ranks,
            per_rank_seconds=per_rank,
        )

    # ---- wire codec ------------------------------------------------------

    @staticmethod
    def _send(
        codec: "WireCodec | None", value: Any
    ) -> tuple[Any, int, "Frame | None"]:
        """Put one message on the wire: framed iff ``codec.supports`` it.

        This is the codec rule of every collective, decided per payload.
        Returns what the receiver holds (the bit-exact decode of the
        frame, or ``value`` itself), the bytes that travel, and the frame
        (``None`` for a raw send).
        """
        if codec is None or not codec.supports(value):
            return value, payload_nbytes(value), None
        frame = codec.encode(value)
        return codec.decode(frame), frame.nbytes, frame

    def _charge_codec(
        self, frames: Sequence["Frame"], per_rank_flops: Sequence[float]
    ) -> str:
        """Charge encode/decode work, tallied under ``codec:<name>``.

        ``<name>`` is the one codec that ran on every frame, or
        ``"mixed"``; it is returned for the caller's wire tally.
        """
        names = {f.codec for f in frames}
        name = names.pop() if len(names) == 1 else "mixed"
        per_rank = [self.spec.compute_seconds(f) for f in per_rank_flops]
        self.ledger.charge_compute(
            max(per_rank, default=0.0),
            flops=sum(per_rank_flops),
            ranks=self.ranks,
            per_rank_seconds=per_rank,
            kernel=f"codec:{name}",
        )
        return name

    def _record_frames(self, frames: Sequence["Frame"]) -> None:
        """Tally point-to-point frames' raw vs. encoded bytes per codec."""
        wire: dict[str, list[float]] = {}
        for frame in frames:
            tally = wire.setdefault(frame.codec, [0.0, 0.0])
            tally[0] += frame.raw_nbytes
            tally[1] += frame.nbytes
        for name, (raw, enc) in wire.items():
            self.ledger.record_wire(name, raw, enc)

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise IndexError(
                f"root {root} out of range for group of {self.size}"
            )

    # ---- collectives -----------------------------------------------------

    def bcast(
        self,
        value: Any,
        root: int = 0,
        codec: "WireCodec | None" = None,
    ) -> list:
        """Broadcast ``value``, held by ``root``, to every rank."""
        self._check_root(root)
        # A single-rank group's "broadcast" never touches the wire, so
        # the codec (and its flop cost) is rightly skipped.
        payload, nbytes, frame = self._send(
            codec if self.size > 1 else None, value
        )
        charge = coll.bcast_charge(self.spec, self.ranks, nbytes)
        charge.apply(self.ledger, self.ranks)
        if frame is not None:
            flops = [codec.decode_flops(frame)] * self.size
            flops[root] = codec.encode_flops(frame)
            name = self._charge_codec([frame], flops)
            raw = coll.bcast_charge(self.spec, self.ranks, frame.raw_nbytes)
            self.ledger.record_wire(name, raw.total_bytes, charge.total_bytes)
        return [payload] * self.size

    def allreduce(
        self,
        values: Sequence,
        codec: "WireCodec | None" = None,
    ) -> list:
        """Sum one value per rank; every rank receives the total."""
        vals = self._check_values(values, "allreduce")
        # As in bcast, a single-rank group never touches the wire.
        wire = codec if self.size > 1 else None
        sends = [self._send(wire, v) for v in vals]
        # Left to right, as ``+`` sums: the first ``+`` makes a fresh
        # result, and each later array of its shape whose dtype it keeps
        # is added into that result in place — no block per summand, and
        # no caller's value written to.
        acc = sends[0][0]
        for i, (v, _, _) in enumerate(sends[1:]):
            if (
                i
                and isinstance(acc, np.ndarray)
                and isinstance(v, np.ndarray)
                and v.shape == acc.shape
                and np.result_type(acc, v) == acc.dtype
            ):
                np.add(acc, v, out=acc)
            else:
                acc = acc + v
        frames = [f for _, _, f in sends if f is not None]
        nbytes = max(n for _, n, _ in sends)
        raw_nbytes = max(payload_nbytes(v) for v in vals)
        # The algorithm is picked once, from what actually travels, and
        # the raw wire tally is priced on it too.  Ranks combine decoded
        # values, so the arithmetic is sized raw.
        algorithm = coll.resolve_allreduce_algorithm(nbytes)
        charge = coll.allreduce_charge(
            self.spec, self.ranks, nbytes, algorithm,
            combine_nbytes=raw_nbytes,
        )
        charge.apply(self.ledger, self.ranks)
        if frames:
            name = self._charge_codec(
                frames,
                [
                    codec.encode_flops(f) + codec.decode_flops(f) if f else 0.0
                    for _, _, f in sends
                ],
            )
            raw = coll.allreduce_charge(
                self.spec, self.ranks, raw_nbytes, algorithm
            )
            self.ledger.record_wire(name, raw.total_bytes, charge.total_bytes)
        return [acc] * self.size

    def allgather(self, values: Sequence) -> list[list]:
        """Every rank receives the list of all ranks' values."""
        vals = self._check_values(values, "allgather")
        coll.allgather_charge(
            self.spec, self.ranks, [payload_nbytes(v) for v in vals]
        ).apply(self.ledger, self.ranks)
        return [vals] * self.size

    def alltoallv(
        self,
        chunks: Sequence[Sequence],
        codec: "WireCodec | None" = None,
    ) -> list[list]:
        """Personalized all-to-all: ``chunks[i][j]`` goes from rank i to j."""
        rows = [list(row) for row in chunks]
        s = self.size
        if len(rows) != s or any(len(row) != s for row in rows):
            raise ValueError(
                f"alltoallv expects an {s}x{s} chunk matrix, got "
                f"{len(rows)}x{[len(r) for r in rows]}"
            )
        sizes = [[0] * s for _ in range(s)]
        flops = [0.0] * s
        frames = []
        for i in range(s):
            for j in range(s):
                # Self-chunks never cross the wire; keep them as-is.
                rows[i][j], sizes[i][j], frame = self._send(
                    codec if i != j else None, rows[i][j]
                )
                if frame is not None:
                    frames.append(frame)
                    flops[i] += codec.encode_flops(frame)
                    flops[j] += codec.decode_flops(frame)
        coll.alltoallv_charge(self.spec, self.ranks, sizes).apply(
            self.ledger, self.ranks
        )
        if frames:
            self._charge_codec(frames, flops)
            self._record_frames(frames)
        return [[rows[i][j] for i in range(s)] for j in range(s)]

    def gatherv(
        self,
        values: Sequence,
        root: int = 0,
        codec: "WireCodec | None" = None,
    ) -> list:
        """Gather all contributions at ``root``; non-roots receive ``None``."""
        gathered = self._check_values(values, "gatherv")
        self._check_root(root)
        flops = [0.0] * self.size
        frames = []
        incoming = 0
        for i, v in enumerate(gathered):
            if i == root:
                # The root's own part never crosses the wire.
                continue
            gathered[i], nbytes, frame = self._send(codec, v)
            incoming += nbytes
            if frame is not None:
                frames.append(frame)
                flops[i] += codec.encode_flops(frame)
                flops[root] += codec.decode_flops(frame)
        coll.gatherv_charge(self.spec, self.ranks, incoming).apply(
            self.ledger, self.ranks
        )
        if frames:
            self._charge_codec(frames, flops)
            self._record_frames(frames)
        results: list = [None] * self.size
        results[root] = gathered
        return results

    def exscan(self, values: Sequence) -> list:
        """Exclusive prefix sum: rank ``i`` receives the sum of the
        values of ranks ``0 .. i-1`` (rank 0 receives ``0``)."""
        vals = self._check_values(values, "exscan")
        coll.exscan_charge(
            self.spec, self.ranks,
            max((payload_nbytes(v) for v in vals), default=0),
        ).apply(self.ledger, self.ranks)
        out, acc = [], 0
        for v in vals:
            out.append(acc)
            acc = acc + v
        return out

    def __repr__(self) -> str:
        return f"Communicator(size={self.size}, machine={self.spec.name!r})"
