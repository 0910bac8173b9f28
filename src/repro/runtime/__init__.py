"""Simulated BSP distributed-memory runtime.

This package is the substitute for the paper's MPI + Cyclops execution
substrate (see DESIGN.md §2).  It provides:

* :class:`~repro.runtime.machine.MachineSpec` — the machine model
  (ranks, nodes, latency ``alpha``, bandwidth ``beta``, compute ``gamma``,
  per-rank memory, cache behaviour, I/O bandwidth), with a preset mirroring
  the paper's Stampede2 KNL configuration;
* :class:`~repro.runtime.engine.Machine` — the execution engine holding a
  cost ledger; ranks' local kernels run one after another, in rank order;
* :class:`~repro.runtime.comm.Communicator` — the SPMD communication
  façade: the collectives the paper's §III-C analysis charges (``bcast``,
  ``allreduce`` (a sum), ``allgather``, ``alltoallv``, ``gatherv``,
  ``exscan``), each with one body that computes its *functional* result
  exactly and charges its *cost* to the ledger under the Bulk
  Synchronous Parallel model;
* :mod:`~repro.runtime.collectives` — the price list: one ``*_charge``
  builder per collective (the allreduce algorithm is chosen by payload
  size alone);
* :class:`~repro.runtime.topology.ProcessorGrid` — the
  ``sqrt(p/c) x sqrt(p/c) x c`` processor grid (shaped by
  :func:`repro.core.batching.plan_grid`) with row/column/layer/fiber
  sub-communicators, as used by SUMMA and the 2.5D replication scheme;
* :mod:`~repro.runtime.codec` — lossless wire-format codecs
  (delta+varint, zero-word RLE, and an adaptive per-payload policy)
  that collectives can route payloads through, charging the ledger
  *encoded* bytes and tallying raw-vs-encoded wire volume.

Programs written against :class:`Communicator` are deterministic and
produce bit-identical results to a serial computation; the ledger's
``simulated_seconds`` gives the modelled distributed runtime.
"""

from repro.runtime.codec import (
    WIRE_CODECS,
    Frame,
    WireCodec,
    decode_frame,
    encode_frame,
    resolve_wire_codec,
)
from repro.runtime.comm import Communicator
from repro.runtime.cost import CostLedger, PhaseCost
from repro.runtime.engine import Machine
from repro.runtime.executor import SequentialExecutor, ThreadedExecutor
from repro.runtime.machine import CacheModel, MachineSpec, laptop, stampede2_knl
from repro.runtime.pipeline import PIPELINE_MODES, StageTiming, run_batches
from repro.runtime.topology import ProcessorGrid

__all__ = [
    "WIRE_CODECS",
    "Frame",
    "WireCodec",
    "decode_frame",
    "encode_frame",
    "resolve_wire_codec",
    "Communicator",
    "CostLedger",
    "PhaseCost",
    "Machine",
    "PIPELINE_MODES",
    "StageTiming",
    "run_batches",
    "SequentialExecutor",
    "ThreadedExecutor",
    "CacheModel",
    "MachineSpec",
    "laptop",
    "stampede2_knl",
    "ProcessorGrid",
]
