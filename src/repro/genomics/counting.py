"""k-mer abundance counting and noise thresholds.

Raw high-throughput reads contain sequencing errors; an error in one
read produces k spurious k-mers that appear once (or very few times)
across the sample.  Both evaluation datasets were cleaned this way
(§V-A2): "raw sequences were preprocessed to remove rare (considered
noise) k-mers.  Minimum k-mer count thresholds were set based on the
total sizes of the raw sequencing read sets" (the Kingsford/SBT rule),
and BIGSI "considered longer contiguous stretches of k-mers to
determine k-mer count thresholds".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.genomics.kmer import canonical_kmers, encode_kmers, kmer_set


def count_kmers(
    sequences, k: int, canonical: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Count k-mer occurrences across a sample's sequences.

    Returns ``(codes, counts)`` sorted by code.
    """
    parts = []
    for seq in sequences:
        kmers = canonical_kmers(seq, k) if canonical else encode_kmers(seq, k)
        if kmers.size:
            parts.append(kmers)
    if not parts:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy()
    merged = np.concatenate(parts)
    return np.unique(merged, return_counts=True)


def kingsford_threshold(total_bases: int) -> int:
    """The SBT-style minimum-count rule, keyed on raw sample size.

    Following Solomon & Kingsford's preprocessing [73]: small samples
    keep everything; progressively larger read sets require counts of
    at least 3, 7, 20, 50.
    """
    if total_bases < 0:
        raise ValueError(f"total_bases must be non-negative, got {total_bases}")
    gig = 1e9
    if total_bases < 0.5 * gig:
        return 1
    if total_bases < 1.0 * gig:
        return 3
    if total_bases < 3.0 * gig:
        return 7
    if total_bases < 10.0 * gig:
        return 20
    return 50


@dataclass(frozen=True)
class CleaningReport:
    """What abundance filtering removed from one sample."""

    threshold: int
    kmers_before: int
    kmers_after: int

    @property
    def removed_fraction(self) -> float:
        if self.kmers_before == 0:
            return 0.0
        return 1.0 - self.kmers_after / self.kmers_before


def clean_sample(
    sequences, k: int, min_count: int | None = None, canonical: bool = True
) -> tuple[np.ndarray, CleaningReport]:
    """A sample's sorted k-mer codes, thresholded by abundance.

    ``min_count=None`` applies :func:`kingsford_threshold` on the
    sample's total base count.  The threshold is resolved first: at 1
    nothing can fall under it, so the codes are the sample's
    :func:`~repro.genomics.kmer.kmer_set` and no abundance is counted;
    above 1 the sample is counted and filtered as in
    :func:`clean_sample_counts`.  Either way the report is the same.
    """
    sequences = list(sequences)
    min_count = _resolve_min_count(sequences, min_count)
    if min_count > 1:
        codes, _, report = clean_sample_counts(
            sequences, k, min_count=min_count, canonical=canonical
        )
        return codes, report
    codes = kmer_set(sequences, k, canonical)
    return codes, CleaningReport(
        threshold=min_count,
        kmers_before=int(codes.size),
        kmers_after=int(codes.size),
    )


def _resolve_min_count(sequences, min_count: int | None) -> int:
    """``min_count``, or the Kingsford rule's when it is ``None``."""
    if min_count is None:
        total_bases = sum(
            len(getattr(seq, "sequence", seq)) for seq in sequences
        )
        min_count = kingsford_threshold(total_bases)
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    return min_count


def clean_sample_counts(
    sequences, k: int, min_count: int | None = None, canonical: bool = True
) -> tuple[np.ndarray, np.ndarray, CleaningReport]:
    """Like :func:`clean_sample`, but keeps the surviving abundances.

    Returns ``(codes, counts, report)`` with ``counts`` aligned to the
    kept codes — the input of the weighted-Jaccard index path
    (``similarity="weighted_jaccard"``), where each sample's k-mer
    multiplicities feed the min/max mass accumulation instead of being
    discarded after cleaning.
    """
    sequences = list(sequences)
    min_count = _resolve_min_count(sequences, min_count)
    codes, counts = count_kmers(sequences, k, canonical)
    keep = counts >= min_count
    kept, kept_counts = codes[keep], counts[keep]
    report = CleaningReport(
        threshold=min_count,
        kmers_before=int(codes.size),
        kmers_after=int(kept.size),
    )
    return kept, kept_counts, report
