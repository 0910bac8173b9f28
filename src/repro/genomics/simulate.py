"""Synthetic cohorts: the stand-in for the paper's real datasets.

The paper evaluates on 2,580 human RNASeq experiments (Kingsford/BBB,
low variability, k=19, indicator density ~1.5e-4) and on the 446,506
bacterial/viral samples behind BIGSI (high variability, k=31, density
~4e-12).  Neither dataset — 170 TB of raw reads — is available offline,
so this module generates cohorts with the *load-bearing properties* of
each regime (see DESIGN.md §2):

* **kingsford-like** — samples related through a phylogeny, sharing most
  of their k-mer content (dense columns, low variance);
* **bigsi-like** — mutually unrelated genomes at k=31, whose indicator
  matrix over ``m = 4^31`` rows is genuinely hypersparse with
  heavy-tailed per-sample density.

Every generator is deterministic in its seed (via
:mod:`repro.util.prng`), and the true phylogeny is returned so
downstream analyses (Fig. 1 parts ¼–Ł) can be validated against ground
truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.genomics.phylogeny import require_networkx
from repro.genomics.sequence import ALPHABET, SequenceRecord, reverse_complement
from repro.util.prng import rng_for

if TYPE_CHECKING:
    import networkx as nx


def random_genome(rng: np.random.Generator, length: int, gc: float = 0.5) -> str:
    """A random genome of the given length and GC content."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if not 0.0 <= gc <= 1.0:
        raise ValueError(f"gc must be in [0, 1], got {gc}")
    probs = np.array([(1 - gc) / 2, gc / 2, gc / 2, (1 - gc) / 2])
    draws = rng.choice(4, size=length, p=probs)
    return "".join(ALPHABET[i] for i in draws)


def mutate(rng: np.random.Generator, seq: str, rate: float) -> str:
    """Apply i.i.d. point substitutions at the given per-site rate."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    if not seq or rate == 0.0:
        return seq
    arr = np.frombuffer(seq.encode(), dtype=np.uint8).copy()
    hits = np.flatnonzero(rng.random(arr.size) < rate)
    if hits.size:
        # Substitute with one of the three *other* bases.
        bases = np.frombuffer(b"ACGT", dtype=np.uint8)
        current = arr[hits]
        offsets = rng.integers(1, 4, size=hits.size)
        idx = np.searchsorted(bases, current)
        # Positions holding N map past the table; leave those untouched.
        ok = (idx < 4) & (bases[np.minimum(idx, 3)] == current)
        arr[hits[ok]] = bases[(idx[ok] + offsets[ok]) % 4]
    return arr.tobytes().decode()


def random_phylogeny(
    rng: np.random.Generator, names: list[str], mean_branch: float
) -> nx.Graph:
    """A random binary tree over the leaves, with exponential branches.

    Built by repeated random coalescence; edge attribute ``length`` holds
    the per-site substitution probability along that branch.
    """
    if not names:
        raise ValueError("need at least one leaf")
    tree = require_networkx().Graph()
    active = list(names)
    tree.add_nodes_from(active)
    counter = 0
    while len(active) > 1:
        i, j = sorted(rng.choice(len(active), size=2, replace=False))
        a, b = active[i], active[j]
        parent = f"anc{counter}"
        counter += 1
        tree.add_node(parent)
        tree.add_edge(parent, a, length=float(rng.exponential(mean_branch)))
        tree.add_edge(parent, b, length=float(rng.exponential(mean_branch)))
        active = [x for k, x in enumerate(active) if k not in (i, j)]
        active.append(parent)
    tree.graph["root"] = active[0]
    return tree


def evolve_down_tree(
    rng: np.random.Generator, tree: nx.Graph, root_genome: str
) -> dict[str, str]:
    """Evolve a root genome down the phylogeny; returns node -> genome."""
    root = tree.graph["root"]
    genomes = {root: root_genome}
    for parent, child in require_networkx().bfs_edges(tree, root):
        rate = min(0.75, tree.edges[parent, child]["length"])
        genomes[child] = mutate(rng, genomes[parent], rate)
    return genomes


def reads_from_genome(
    rng: np.random.Generator,
    genome: str,
    coverage: float,
    read_length: int,
    error_rate: float,
    sample_name: str = "sample",
) -> list[SequenceRecord]:
    """Shotgun reads: random positions, random strand, point errors.

    Models the paper's Fig. 1 part ¶-¸ — sequencing breaks the genome
    into amplified fragments before any analysis sees it.
    """
    if read_length <= 0:
        raise ValueError(f"read_length must be positive, got {read_length}")
    if coverage < 0:
        raise ValueError(f"coverage must be non-negative, got {coverage}")
    if len(genome) < read_length:
        raise ValueError(
            f"genome ({len(genome)} bp) shorter than read length "
            f"{read_length}"
        )
    n_reads = int(round(coverage * len(genome) / read_length))
    starts = rng.integers(0, len(genome) - read_length + 1, size=n_reads)
    reads = []
    for idx, s in enumerate(starts):
        fragment = genome[s : s + read_length]
        if rng.random() < 0.5:
            fragment = reverse_complement(fragment)
        fragment = mutate(rng, fragment, error_rate)
        reads.append(
            SequenceRecord(name=f"{sample_name}_read{idx}", sequence=fragment)
        )
    return reads


@dataclass(frozen=True)
class CohortSpec:
    """Parameters of a synthetic sequencing cohort."""

    n_samples: int = 16
    genome_length: int = 20_000
    k: int = 19
    mean_branch: float = 0.01
    independent: bool = False
    reads: bool = False
    coverage: float = 4.0
    read_length: int = 100
    error_rate: float = 0.002
    gc: float = 0.45
    seed: int = 0
    name: str = "cohort"

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if self.genome_length <= 0:
            raise ValueError(
                f"genome_length must be positive, got {self.genome_length}"
            )
        if self.k % 2 == 0:
            # §V-A2: odd k avoids k-mers equal to their reverse complement.
            raise ValueError(f"k must be odd (paper §V-A2), got {self.k}")


@dataclass
class SimulatedCohort:
    """A generated cohort: per-sample sequences plus ground truth."""

    spec: CohortSpec
    names: list[str]
    sample_records: list[list[SequenceRecord]]
    genomes: dict[str, str]
    true_tree: nx.Graph | None = None
    fasta_paths: list[Path] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return len(self.names)

    def write_fasta(self, directory: str | Path) -> list[Path]:
        """Materialize one FASTA file per sample; returns the paths."""
        from repro.genomics.fasta import write_fasta

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, records in zip(self.names, self.sample_records):
            path = directory / f"{name}.fasta"
            write_fasta(path, records)
            paths.append(path)
        self.fasta_paths = paths
        return paths

    def true_distances(self) -> np.ndarray:
        """Pairwise path lengths on the true tree (additive distances)."""
        if self.true_tree is None:
            raise ValueError("cohort has no phylogeny (independent samples)")
        from repro.genomics.phylogeny import cophenetic_distances

        return cophenetic_distances(self.true_tree, self.names)


def simulate_cohort(spec: CohortSpec) -> SimulatedCohort:
    """Generate a cohort per the spec (deterministic in ``spec.seed``)."""
    names = [f"{spec.name}_{i:04d}" for i in range(spec.n_samples)]
    tree: nx.Graph | None = None
    if spec.independent:
        genomes = {
            name: random_genome(
                rng_for(spec.seed, "genome", i), spec.genome_length, spec.gc
            )
            for i, name in enumerate(names)
        }
    else:
        tree_rng = rng_for(spec.seed, "tree")
        tree = random_phylogeny(tree_rng, names, spec.mean_branch)
        root_genome = random_genome(
            rng_for(spec.seed, "root"), spec.genome_length, spec.gc
        )
        genomes = evolve_down_tree(rng_for(spec.seed, "evolve"), tree, root_genome)

    sample_records: list[list[SequenceRecord]] = []
    for i, name in enumerate(names):
        genome = genomes[name]
        if spec.reads:
            records = reads_from_genome(
                rng_for(spec.seed, "reads", i),
                genome,
                spec.coverage,
                spec.read_length,
                spec.error_rate,
                sample_name=name,
            )
        else:
            records = [SequenceRecord(name=name, sequence=genome)]
        sample_records.append(records)
    return SimulatedCohort(
        spec=spec,
        names=names,
        sample_records=sample_records,
        genomes={n: genomes[n] for n in names},
        true_tree=tree,
    )


def kingsford_like(
    n_samples: int = 32, genome_length: int = 20_000, seed: int = 0
) -> CohortSpec:
    """A low-variability cohort in the Kingsford/BBB regime (§V-A2).

    Phylogeny-related samples at k=19: column densities are high and
    similar, like the RNASeq experiments from the same three tissues.
    """
    return CohortSpec(
        n_samples=n_samples,
        genome_length=genome_length,
        k=19,
        mean_branch=0.008,
        independent=False,
        seed=seed,
        name="kingsford",
    )


def bigsi_like(
    n_samples: int = 32, genome_length: int = 20_000, seed: int = 0
) -> CohortSpec:
    """A high-variability cohort in the BIGSI regime (§V-A2).

    Mutually unrelated genomes at k=31: over ``m = 4^31`` possible rows
    the indicator matrix is hypersparse and column densities vary freely
    (genome lengths could be varied too; unrelatedness is the dominant
    effect for the algorithm's behaviour).
    """
    return CohortSpec(
        n_samples=n_samples,
        genome_length=genome_length,
        k=31,
        independent=True,
        seed=seed,
        name="bigsi",
    )


def with_reads(spec: CohortSpec, coverage: float = 4.0,
               error_rate: float = 0.002) -> CohortSpec:
    """Variant of a cohort spec that emits raw reads instead of genomes."""
    return replace(spec, reads=True, coverage=coverage, error_rate=error_rate)
