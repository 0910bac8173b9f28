"""Machine model: the parameters of the simulated distributed system.

The paper analyses SimilarityAtScale in a BSP model where a superstep costs
``alpha``, a transferred byte costs ``beta``, and an arithmetic operation
costs ``gamma`` (with ``alpha >= beta >= gamma``).  The evaluation runs on
Stampede2: Intel Xeon Phi 7250 (KNL) nodes, 96 GB DDR4 + 16 GB MCDRAM
(configured as direct-mapped L3), a 100 Gb/s Omni-Path fat tree, and 32 MPI
ranks per node.  :func:`stampede2_knl` encodes that configuration; the
parameter values are order-of-magnitude calibrations of public latency /
bandwidth / flop-rate figures, which is all the reproduction needs — the
*shape* of every result (scaling slopes, crossovers) is governed by the
ratios, not the absolute constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheModel:
    """Models the effect of the on-package fast memory (MCDRAM).

    When ``use_fast_cache`` is true and a kernel's working set fits within
    ``fast_bytes``, compute is charged at the nominal ``gamma``.  Otherwise
    the effective compute cost is multiplied by ``slow_penalty`` — a small
    factor, because the paper's §V-D measures only a few percent difference
    between MCDRAM-as-cache and MCDRAM-as-storage for these bandwidth-bound
    kernels (e.g. 9.26 s vs 9.33 s per batch on 4 nodes).
    """

    use_fast_cache: bool = True
    fast_bytes: int = 16 * 2**30
    slow_penalty: float = 1.04

    def gamma_multiplier(self, working_set_bytes: float) -> float:
        """Compute-cost multiplier for a kernel touching the given bytes."""
        if self.use_fast_cache and working_set_bytes <= self.fast_bytes:
            return 1.0
        if self.use_fast_cache:
            # Direct-mapped L3 still captures part of a larger working set.
            return 1.0 + (self.slow_penalty - 1.0) * 0.5
        return self.slow_penalty


@dataclass(frozen=True)
class MachineSpec:
    """Parameters of the simulated distributed-memory machine.

    Attributes
    ----------
    n_nodes:
        Number of compute nodes.
    ranks_per_node:
        SPMD ranks (MPI processes) per node; the paper uses 32.
    alpha:
        Cost of one BSP superstep / global synchronization, in seconds.
    beta_inter:
        Per-byte cost of inter-node communication, in seconds.
    beta_intra:
        Per-byte cost of intra-node (shared-memory) communication.
    gamma:
        Per-arithmetic-operation cost, in seconds (inverse effective rate
        of the bandwidth-bound sparse kernels, not peak flops).
    memory_per_rank:
        Usable memory per rank, in bytes; drives the batch planner.
    io_bandwidth_per_rank:
        Sustained file-system read bandwidth per rank, bytes/second.
    cache:
        The :class:`CacheModel` for the MCDRAM ablation.
    name:
        Human-readable label used in benchmark reports.
    """

    n_nodes: int = 1
    ranks_per_node: int = 32
    alpha: float = 10e-6
    beta_inter: float = 1.0 / 10e9
    beta_intra: float = 1.0 / 50e9
    gamma: float = 1.0 / 2e9
    memory_per_rank: int = 3 * 2**30
    io_bandwidth_per_rank: float = 300e6
    cache: CacheModel = field(default_factory=CacheModel)
    name: str = "machine"

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.ranks_per_node <= 0:
            raise ValueError(
                f"ranks_per_node must be positive, got {self.ranks_per_node}"
            )
        if min(self.alpha, self.beta_inter, self.beta_intra, self.gamma) <= 0:
            raise ValueError("alpha, beta and gamma must all be positive")
        # The batch planner sizes batches from the memory budget and the
        # I/O charge divides by the bandwidth: neither has a meaning at 0.
        for name in ("memory_per_rank", "io_bandwidth_per_rank"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        # The paper's alpha >= beta >= gamma ordering is stated in abstract
        # word units; in per-byte/per-flop units the binding constraint is
        # that synchronization dominates a single transfer/operation.
        if self.alpha < self.beta_inter or self.alpha < self.gamma:
            raise ValueError(
                "BSP model requires alpha to dominate per-byte and per-op "
                f"costs, got alpha={self.alpha}, beta_inter={self.beta_inter}, "
                f"gamma={self.gamma}"
            )

    @property
    def p(self) -> int:
        """Total number of ranks in the machine."""
        return self.n_nodes * self.ranks_per_node

    def node_of(self, rank: int) -> int:
        """Node hosting a given global rank (ranks are node-contiguous)."""
        if not 0 <= rank < self.p:
            raise IndexError(f"rank {rank} out of range for p={self.p}")
        return rank // self.ranks_per_node

    def beta_for_group(self, ranks: tuple[int, ...] | list[int]) -> float:
        """Per-byte cost charged to collectives over a rank group.

        Conservatively uses the inter-node rate as soon as the group spans
        more than one node, since BSP collectives are bottlenecked by their
        slowest link.
        """
        nodes = {self.node_of(r) for r in ranks}
        return self.beta_intra if len(nodes) <= 1 else self.beta_inter

    def compute_seconds(self, flops: float, working_set_bytes: float = 0.0) -> float:
        """Modelled time for ``flops`` operations on one rank."""
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        return flops * self.gamma * self.cache.gamma_multiplier(working_set_bytes)

    def io_seconds(self, nbytes: float) -> float:
        """Modelled time for one rank to read ``nbytes`` from storage."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return nbytes / self.io_bandwidth_per_rank


def stampede2_knl(
    n_nodes: int = 1, ranks_per_node: int = 32, use_fast_cache: bool = True
) -> MachineSpec:
    """The paper's evaluation platform (§V-A1), as a machine model.

    Stampede2 KNL: 68-core Xeon Phi 7250, 96 GB DDR4 + 16 GB MCDRAM,
    100 Gb/s Omni-Path.  The paper runs 32 MPI ranks per node because the
    on-node kernels are memory-bandwidth bound.
    """
    return MachineSpec(
        n_nodes=n_nodes,
        ranks_per_node=ranks_per_node,
        alpha=15e-6,
        beta_inter=1.0 / 12.5e9,
        beta_intra=1.0 / 80e9,
        gamma=1.0 / 1.5e9,
        memory_per_rank=(96 * 2**30) // ranks_per_node,
        io_bandwidth_per_rank=250e6,
        cache=CacheModel(use_fast_cache=use_fast_cache),
        name="stampede2-knl",
    )


def laptop(n_ranks: int = 4) -> MachineSpec:
    """A small single-node machine, convenient for tests and examples."""
    return MachineSpec(
        n_nodes=1,
        ranks_per_node=n_ranks,
        alpha=2e-6,
        beta_inter=1.0 / 20e9,
        beta_intra=1.0 / 20e9,
        gamma=1.0 / 4e9,
        memory_per_rank=2**30,
        io_bandwidth_per_rank=1e9,
        name="laptop",
    )
