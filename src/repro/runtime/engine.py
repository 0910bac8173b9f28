"""The simulation engine: machine spec + cost ledger.

A :class:`Machine` owns everything mutable about one simulated run.  All
distributed objects and algorithms hold a reference to a machine (usually
through a :class:`~repro.runtime.comm.Communicator`) and charge their
communication and compute to its ledger.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.runtime.comm import Communicator
from repro.runtime.cost import CostLedger, PhaseCost
from repro.runtime.machine import MachineSpec


class Machine:
    """A simulated distributed-memory machine executing one program."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.ledger = CostLedger(n_ranks=spec.p)
        self._world: Communicator | None = None

    @property
    def p(self) -> int:
        """Total rank count."""
        return self.spec.p

    @property
    def world(self) -> Communicator:
        """The communicator spanning every rank (MPI_COMM_WORLD)."""
        if self._world is None:
            self._world = Communicator(self)
        return self._world

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseCost]:
        """Attribute charges inside the block to phase ``name``."""
        with self.ledger.phase(name) as pc:
            yield pc

    @property
    def simulated_seconds(self) -> float:
        return self.ledger.simulated_seconds

    def __repr__(self) -> str:
        return (
            f"Machine(spec={self.spec.name!r}, p={self.p}, "
            f"simulated={self.simulated_seconds:.3g}s)"
        )
