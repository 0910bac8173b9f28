"""GenomeAtScale — distributed genetic distance computation.

The genomics tool of §IV: wraps SimilarityAtScale with everything needed
to go from sequencing data to a matrix of Jaccard genetic distances
(paper Fig. 1, parts I and III):

* :mod:`~repro.genomics.sequence` — DNA alphabet, reverse complements,
  sequence records;
* :mod:`~repro.genomics.fasta` — FASTA/FASTQ reading and writing
  (the standard input format, §V-A2);
* :mod:`~repro.genomics.kmer` — 2-bit k-mer encoding, canonical k-mers,
  ambiguous-base handling;
* :mod:`~repro.genomics.counting` — k-mer abundance counting and the
  noise thresholds used to clean raw reads (§V-A2);
* :mod:`~repro.genomics.samples` — the sorted numeric per-sample
  representation GenomeAtScale materializes on disk (§IV);
* :mod:`~repro.genomics.pipeline` — the end-to-end tool, with one
  ingest loop (FASTA -> cleaned k-mer arrays) behind the sample-store
  run, the store-free run and the index paths;
* :mod:`~repro.genomics.simulate` — synthetic cohorts: phylogeny-aware
  genome evolution, read simulation with errors, and generators
  calibrated to the Kingsford and BIGSI dataset regimes (§V-A2);
* :mod:`~repro.genomics.phylogeny` — neighbor-joining / UPGMA tree
  construction from distance matrices (Fig. 1, part ¼/Ł).
"""

from repro.genomics.fasta import read_fasta, read_fastq, write_fasta
from repro.genomics.kmer import (
    canonical_kmers,
    decode_kmer,
    encode_kmers,
    kmer_set,
)
from repro.genomics.phylogeny import neighbor_joining, upgma
from repro.genomics.pipeline import GenomeAtScale, GenomeAtScaleResult
from repro.genomics.samples import SampleStore
from repro.genomics.sequence import SequenceRecord, reverse_complement
from repro.genomics.simulate import (
    CohortSpec,
    bigsi_like,
    kingsford_like,
    simulate_cohort,
)

__all__ = [
    "read_fasta",
    "read_fastq",
    "write_fasta",
    "canonical_kmers",
    "decode_kmer",
    "encode_kmers",
    "kmer_set",
    "neighbor_joining",
    "upgma",
    "GenomeAtScale",
    "GenomeAtScaleResult",
    "SampleStore",
    "SequenceRecord",
    "reverse_complement",
    "CohortSpec",
    "bigsi_like",
    "kingsford_like",
    "simulate_cohort",
]
