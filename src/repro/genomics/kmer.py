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
"""

from __future__ import annotations

import numpy as np

from repro.genomics.sequence import ALPHABET, sequence_to_codes
from repro.util.arrays import sorted_unique

#: k is capped so encodings fit a signed 64-bit integer: 4^31 < 2^63.
MAX_K = 31


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}], got {k}")


def encode_kmers(seq: str, k: int) -> np.ndarray:
    """All forward-strand k-mer codes of ``seq``, in order.

    Windows overlapping an ambiguous base are skipped.  A rolling
    encode: ``k`` shift-or passes, pass ``i`` folding base ``i`` of every
    window in as the next 2-bit digit (``code = code << 2 | base``) over
    one contiguous slice of the base-code array — ``O(k * n)`` word
    operations on ``n``-length vectors, no ``(n, k)`` window matrix.
    The ambiguity mask is one cumulative sum: a window is valid iff the
    running count of ``N`` is the same at both of its ends.
    """
    _check_k(k)
    codes = sequence_to_codes(seq)
    n = codes.size - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    ambiguous = np.concatenate(([0], np.cumsum(codes == 255)))
    digits = codes & 3
    vals = np.zeros(n, dtype=np.int64)
    for i in range(k):
        np.left_shift(vals, 2, out=vals)
        np.bitwise_or(vals, digits[i : i + n], out=vals)
    if ambiguous[-1] == 0:
        return vals
    return vals[ambiguous[k:] == ambiguous[:n]]


#: Masks that swap adjacent 2-bit digits / adjacent nibbles of a word.
_PAIR_MASK = np.uint64(0x3333333333333333)
_NIBBLE_MASK = np.uint64(0x0F0F0F0F0F0F0F0F)


def reverse_complement_codes(kmers: np.ndarray, k: int) -> np.ndarray:
    """Reverse-complement encodings, computed on the 64-bit word.

    Complement in 2-bit code is ``3 - digit``, i.e. every bit flipped;
    reversal flips digit order.  Both act on all 32 digit slots of the
    word at once: flip the bits, reverse the digits (swap the digits of
    each nibble, the nibbles of each byte, then the bytes), and shift
    the ``k`` digits that ended up at the top back down by ``64 - 2k``
    — which also drops the complemented padding.  Equivalent to encoding
    ``reverse_complement(decode(x))``, in a fixed handful of word
    operations whatever ``k`` is.
    """
    _check_k(k)
    x = ~np.asarray(kmers, dtype=np.int64).view(np.uint64)
    x = ((x >> np.uint64(2)) & _PAIR_MASK) | ((x & _PAIR_MASK) << np.uint64(2))
    x = ((x >> np.uint64(4)) & _NIBBLE_MASK) | ((x & _NIBBLE_MASK) << np.uint64(4))
    x = x.byteswap() >> np.uint64(64 - 2 * k)
    return x.view(np.int64)


def canonical_kmers(seq: str, k: int) -> np.ndarray:
    """Canonical (strand-independent) k-mer codes of ``seq``.

    For each window, the minimum of the forward and reverse-complement
    encodings.  With even ``k`` a palindromic k-mer can equal its own
    reverse complement; the paper avoids this by using odd ``k``
    (§V-A2), and so does every caller in this repository.
    """
    fwd = encode_kmers(seq, k)
    if fwd.size == 0:
        return fwd
    rev = reverse_complement_codes(fwd, k)
    return np.minimum(fwd, rev)


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
        text = getattr(seq, "sequence", seq)
        kmers = canonical_kmers(text, k) if canonical else encode_kmers(text, k)
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
