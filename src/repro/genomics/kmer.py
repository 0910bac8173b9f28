"""k-mer extraction and 2-bit encoding.

Alignment-free comparison represents a sequencing sample as the set of
its length-``k`` subsequences (§II-B).  GenomeAtScale maps each k-mer to
an integer in ``[0, 4^k)`` via the 2-bit code A=0, C=1, G=2, T=3 — these
integers are the *row indices* of the indicator matrix ``A``.

Two conventions from the paper's evaluation (§V-A2):

* **canonical k-mers** — a k-mer and its reverse complement are the same
  molecule on opposite strands, so the smaller of the two encodings
  represents both;
* **odd k** — the paper uses k=19 for Kingsford (not 20) and k=31 for
  BIGSI precisely so no k-mer can equal its own reverse complement,
  which would bias canonical counting.

Windows containing an ambiguous base (``N``) produce no k-mer.

Both strands are encoded by binary doubling over the base-code array
(:func:`_window_codes`): ``O(log k)`` vector passes for all windows at
once, where folding in one base at a time takes ``k``.
"""

from __future__ import annotations

import numpy as np

from repro.genomics.sequence import ALPHABET, SequenceRecord, sequence_to_codes
from repro.util.arrays import sorted_unique

#: k is capped so encodings fit a signed 64-bit integer: 4^31 < 2^63.
MAX_K = 31


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}], got {k}")


def _window_codes(digits: np.ndarray, k: int) -> np.ndarray:
    """The span-``k`` window codes of a 2-bit digit array, by doubling.

    ``out[i]`` is digits ``i .. i+k-1`` read as one base-4 number, most
    significant first.  Horner's rule over the bits of ``k``, most
    significant bit first: the span-``r`` windows become span ``2r`` by
    one shift-or of the array with itself shifted by ``r`` windows
    (``w[i] << 2r | w[i + r]``), and a set bit then appends one more
    digit in place (``w[i] << 2 | digits[i + r]``).  That is
    ``2 * (log2 k + popcount k)`` passes instead of ``2k``, and never
    more than two window arrays beside the digits.  Needs
    ``digits.size >= k``.
    """
    vals = digits.astype(np.int64)
    span = 1
    for bit in bin(k)[3:]:
        doubled = np.left_shift(vals[:-span], 2 * span)
        np.bitwise_or(doubled, vals[span:], out=doubled)
        vals, span = doubled, 2 * span
        if bit == "1":
            vals = vals[:-1]
            np.left_shift(vals, 2, out=vals)
            np.bitwise_or(vals, digits[span:], out=vals)
            span += 1
    return vals


def _kmer_codes(seq, k: int, canonical: bool) -> np.ndarray:
    _check_k(k)
    if isinstance(seq, SequenceRecord):
        codes = seq.codes
    else:
        codes = sequence_to_codes(getattr(seq, "sequence", seq))
    if codes.size < k:
        return np.empty(0, dtype=np.int64)
    digits = codes & 3
    vals = _window_codes(digits, k)
    if canonical:
        rc = _window_codes(3 - digits[::-1], k)[::-1]
        np.minimum(vals, rc, out=vals)
    ambiguous = codes == 255
    if not ambiguous.any():
        return vals
    # A window is valid iff the running count of N is the same at both
    # of its ends.
    seen = np.concatenate(([0], np.cumsum(ambiguous)))
    return vals[seen[k:] == seen[: vals.size]]


def encode_kmers(seq, k: int) -> np.ndarray:
    """All forward-strand k-mer codes of ``seq``, in order.

    ``seq`` is a string or a
    :class:`~repro.genomics.sequence.SequenceRecord`, whose base codes
    are taken as they are.

    Windows overlapping an ambiguous base are skipped.  The codes of
    every window come from :func:`_window_codes`: ``O(log k)`` doubling
    passes over the base-code array, no ``(n, k)`` window matrix.  The
    ambiguity mask, when ``seq`` has an ``N`` at all, is one cumulative
    sum: a window is valid iff the running count of ``N`` is the same at
    both of its ends.
    """
    return _kmer_codes(seq, k, canonical=False)


def canonical_kmers(seq, k: int) -> np.ndarray:
    """Canonical (strand-independent) k-mer codes of ``seq`` (a string
    or a :class:`~repro.genomics.sequence.SequenceRecord`).

    For each window, the minimum of the forward and reverse-complement
    encodings.  The reverse strand is encoded by the same doubling as
    the forward one: complementing a base is ``3 - digit``, so the
    reverse-complement codes are the window codes of the reversed,
    complemented digits, read backwards.  With even ``k`` a palindromic
    k-mer can equal its own reverse complement; the paper avoids this
    by using odd ``k`` (§V-A2), and so does every caller in this
    repository.
    """
    return _kmer_codes(seq, k, canonical=True)


def kmer_set(
    sequences, k: int, canonical: bool = True
) -> np.ndarray:
    """The sorted, deduplicated k-mer set of a sample.

    ``sequences`` is an iterable of strings or
    :class:`~repro.genomics.sequence.SequenceRecord`; the result is the
    sample's row-index set for the indicator matrix.
    """
    parts = []
    for seq in sequences:
        kmers = _kmer_codes(seq, k, canonical)
        if kmers.size:
            parts.append(kmers)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return sorted_unique(np.concatenate(parts))


def decode_kmer(code: int, k: int) -> str:
    """Inverse of the 2-bit encoding: code -> k-mer string."""
    _check_k(k)
    if not 0 <= code < 4**k:
        raise ValueError(f"code {code} out of range for k={k}")
    out = []
    for _ in range(k):
        out.append(ALPHABET[code % 4])
        code //= 4
    return "".join(reversed(out))


def kmer_space_size(k: int) -> int:
    """``m = 4^k``, the row count of the indicator matrix (§III-B)."""
    _check_k(k)
    return 4**k
