"""Sketch data structures for error-bounded approximate Jaccard.

The paper's exact bit-matrix pipeline is communication-optimal for
*exact* Jaccard; its own Table II comparison point — MinHash tools like
Mash and BinDash — marks the other end of the accuracy/traffic
trade-off.  This module provides that end as a first-class subsystem:
three sketch types with a common protocol, each carrying an analytic
error bound, each streamable (batched updates commute with one-shot
construction) and mergeable (sketch of a union from sketches of the
parts).

``minhash`` — :class:`KMinValuesSketch`
    Bottom-``s`` (k-min-values) MinHash: the ``s`` smallest 64-bit
    hashes of the set.  The Mash estimator reads J off the shared
    fraction of the union's bottom-``s``; standard error is
    ``sqrt(J(1-J)/s)``.

``bbit_minhash`` — :class:`BBitMinHashSketch`
    One-permutation hashing (Li, Owen & Zhang) into ``k`` bins with
    optimal densification (Shrivastava) of the bins a small set leaves
    empty, each lane keeping only the low ``b`` bits of a fingerprint of
    its minimum hash (Li & König).  One hash per value: a build costs
    ``O(|S| + k)``.  Wire size is ``k*b`` bits per sample — 8x smaller
    than bottom-k at ``b=8`` — at the price of a known collision floor
    ``C = 2^-b`` corrected out by the unbiased estimator
    ``(m - C) / (1 - C)``.

``hll`` — :class:`HyperLogLogSketch`
    HyperLogLog union-cardinality registers.  Merge is an elementwise
    register ``max`` (associative, commutative, idempotent), so the
    union cardinality of any pair is sketchable from per-sample
    sketches; J follows by inclusion–exclusion against the exact
    per-sample sizes.  Relative cardinality error is ``1.04/sqrt(r)``
    for ``r`` registers.

The serial baseline in :mod:`repro.baselines.minhash` re-exports the
hash primitives defined here, so both layers agree bit-for-bit on what
a hash is.  The distributed exchange lives in
:mod:`repro.sparse.sketch_exchange`; estimator semantics and the wire
layout of packed sketches are documented in ``docs/sketches.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.util.arrays import sorted_unique
from repro.util.prng import derive_seed

#: Sketch-based estimator names (the lossy family).
SKETCH_ESTIMATORS = ("minhash", "bbit_minhash", "hll")

#: Every estimator accepted by ``SimilarityConfig.estimator``.
ESTIMATORS = ("exact",) + SKETCH_ESTIMATORS

#: Two-sided 95% normal quantile used by every analytic bound.
Z_95 = 1.959963984540054

#: Supported ``b`` range for b-bit packed MinHash lanes.
MIN_SKETCH_BITS, MAX_SKETCH_BITS = 1, 16

_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_SHIFT_27, _SHIFT_30, _SHIFT_31, _SHIFT_32 = (np.uint64(n) for n in (27, 30, 31, 32))

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)
_TWO_64 = 2.0**64


def _clamp_union_count(estimate: float, a: int, b: int) -> int:
    """Clamp a union-cardinality estimate to its exact bounds.

    ``|A ∪ B|`` always lies in ``[max(|A|, |B|), |A| + |B|]``; merged
    sketches track their cardinality as an estimate clamped to that
    window (exact inputs make the window tight for disjoint or nested
    parts).
    """
    return int(min(a + b, max(a, b, round(estimate))))


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 in place on a uint64 array (array ufuncs wrap silently;
    only NumPy *scalar* arithmetic warns on overflow)."""
    x += _GOLDEN
    x ^= x >> _SHIFT_30
    x *= _MIX_1
    x ^= x >> _SHIFT_27
    x *= _MIX_2
    x ^= x >> _SHIFT_31
    return x


def splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: a cheap, well-mixed 64-bit hash."""
    return _mix(np.array(x, dtype=np.uint64))


def hash_values(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Hash integer attribute values to uniform 64-bit keys."""
    x = np.array(values, dtype=np.uint64)
    x += np.uint64(int(seed) * int(_GOLDEN) % 2**64)
    return _mix(x)


def _as_value_array(values) -> np.ndarray:
    """Coerce any iterable of non-negative ints to a sorted unique int64
    array (the input itself when it already is one)."""
    if isinstance(values, np.ndarray):
        arr = values.astype(np.int64, copy=False)
    else:
        arr = np.asarray(sorted(values), dtype=np.int64)
    return sorted_unique(arr.ravel())


# ---- b-bit lane packing ---------------------------------------------------


def pack_lanes(lanes: np.ndarray, bits: int) -> np.ndarray:
    """Pack ``k`` ``bits``-wide lane values into a dense uint64 word array.

    Lane ``l`` occupies bit positions ``[l*bits, (l+1)*bits)`` of the
    word stream, LSB-first — the layout ``docs/sketches.md`` documents
    for the wire.  Values may straddle a word boundary when ``bits``
    does not divide 64.
    """
    if not MIN_SKETCH_BITS <= bits <= MAX_SKETCH_BITS:
        raise ValueError(
            f"bits must be in [{MIN_SKETCH_BITS}, {MAX_SKETCH_BITS}], "
            f"got {bits}"
        )
    lanes = np.ascontiguousarray(lanes, dtype=np.uint64)
    if np.any(lanes >> np.uint64(bits)):
        raise ValueError(f"lane values exceed {bits} bits")
    k = lanes.size
    n_words = -(-(k * bits) // 64)
    words = np.zeros(n_words, dtype=np.uint64)
    pos = np.arange(k, dtype=np.int64) * bits
    word_idx = pos // 64
    offset = (pos % 64).astype(np.uint64)
    np.bitwise_or.at(words, word_idx, lanes << offset)
    straddle = (pos % 64) + bits > 64
    if np.any(straddle):
        hi = lanes[straddle] >> (np.uint64(64) - offset[straddle])
        np.bitwise_or.at(words, word_idx[straddle] + 1, hi)
    return words


def unpack_lanes(words: np.ndarray, bits: int, k: int) -> np.ndarray:
    """Invert :func:`pack_lanes` into ``k`` lane values.

    ``words`` is one packed word array or a stacked ``[n, n_words]``
    block of them; the lanes come back along the last axis.
    """
    if not MIN_SKETCH_BITS <= bits <= MAX_SKETCH_BITS:
        raise ValueError(
            f"bits must be in [{MIN_SKETCH_BITS}, {MAX_SKETCH_BITS}], "
            f"got {bits}"
        )
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.shape[-1] < -(-(k * bits) // 64):
        raise ValueError(
            f"{words.shape[-1]} word(s) cannot hold {k} lanes of {bits} bits"
        )
    mask = (np.uint64(1) << np.uint64(bits)) - np.uint64(1)
    pos = np.arange(k, dtype=np.int64) * bits
    word_idx = pos // 64
    offset = (pos % 64).astype(np.uint64)
    lanes = (words[..., word_idx] >> offset) & mask
    straddle = (pos % 64) + bits > 64
    if np.any(straddle):
        hi = words[..., word_idx[straddle] + 1] << (
            np.uint64(64) - offset[straddle]
        )
        lanes[..., straddle] = (lanes[..., straddle] | hi) & mask
    return lanes


# ---- uint64 bit lengths (exact, vectorized) -------------------------------


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Exact ``int.bit_length`` of each uint64 (0 for 0), vectorized."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    out = np.zeros(x.shape, dtype=np.int64)
    work = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = work >= (np.uint64(1) << np.uint64(shift))
        out[big] += shift
        work[big] >>= np.uint64(shift)
    out[x != 0] += 1
    return out


# ---- bottom-s (k-min-values) MinHash --------------------------------------


@dataclass
class BottomSSketch:
    """What the bottom-``s`` families share: at most ``size`` sorted
    unique 64-bit hashes, compared by the Mash estimator.

    :class:`KMinValuesSketch` keeps the smallest hashes of a set,
    :class:`~repro.semantics.wminhash.WeightedMinHashSketch` those of
    an expanded abundance multiset; a sketch holding fewer than
    ``size`` hashes holds all of them, and its estimates are exact.
    """

    size: int
    seed: int = 0
    hashes: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint64)
    )

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"sketch size must be positive, got {self.size}")

    def _check_compatible(self, other: "BottomSSketch") -> None:
        if self.size != other.size or self.seed != other.seed:
            raise ValueError(
                f"incompatible sketches: size/seed "
                f"({self.size}, {self.seed}) vs ({other.size}, {other.seed})"
            )

    def jaccard(self, other: "BottomSSketch") -> float:
        """Mash estimator: shared fraction of the union's bottom-``s``."""
        self._check_compatible(other)
        n = np.array([other.hashes.size])
        return float(
            estimate_rows(
                "minhash", self.hashes, self.hashes.size,
                pad_rows(other.hashes, n, self.size), n, n,
            )[0]
        )

    def error_bound(self, z: float = Z_95) -> float:
        """Worst-case (J = 1/2) additive bound on the estimate."""
        return min(1.0, z * 0.5 / math.sqrt(self.size))

    @property
    def nbytes(self) -> int:
        """Wire bytes of the hash payload."""
        return int(self.hashes.nbytes)


@dataclass
class KMinValuesSketch(BottomSSketch):
    """Bottom-``size`` MinHash sketch: the smallest hashes, sorted."""

    #: Distinct values inserted via ``update`` (exact when batched
    #: inserts are disjoint); after ``merge``, the clamped
    #: union-cardinality estimate (see :func:`_clamp_union_count`).
    n_values: int = 0

    @classmethod
    def from_values(
        cls, values, size: int, seed: int = 0
    ) -> "KMinValuesSketch":
        sk = cls(size=size, seed=seed)
        sk.update(values)
        return sk

    def update(self, values) -> "KMinValuesSketch":
        """Fold more attribute values in (streaming insertion)."""
        vals = _as_value_array(values)
        if vals.size == 0:
            return self
        merged = sorted_unique(
            np.concatenate((self.hashes, hash_values(vals, self.seed)))
        )
        # n_values tracks distinct *hashes* seen, which equals distinct
        # values up to 64-bit hash collisions — the same approximation
        # every MinHash tool makes.
        self.n_values += merged.size - self.hashes.size
        self.hashes = merged[: self.size]
        return self

    def merge(self, other: "KMinValuesSketch") -> "KMinValuesSketch":
        """Sketch of the union of the two underlying sets.

        The merged ``n_values`` is the union cardinality — exact while
        the merged sketch is unsaturated (it then holds every hash of
        the union), the standard k-min-values estimate
        ``(s - 1) / U_(s)`` once saturated — clamped to the exact
        ``[max, sum]`` window the part counts imply.
        """
        self._check_compatible(other)
        merged = np.union1d(self.hashes, other.hashes)
        out = KMinValuesSketch(size=self.size, seed=self.seed)
        out.hashes = merged[: self.size]
        if merged.size < self.size:
            estimate = float(merged.size)
        else:
            kth = float(out.hashes[-1]) / _TWO_64
            estimate = (self.size - 1) / kth if kth > 0 else merged.size
        out.n_values = _clamp_union_count(
            estimate, self.n_values, other.n_values
        )
        return out


# ---- b-bit packed MinHash -------------------------------------------------


@dataclass
class BBitMinHashSketch:
    """``k`` one-permutation MinHash lanes, truncated to ``b`` bits.

    Every value is hashed once; the hash's high 32 bits pick its bin
    (multiply-high, so any ``k`` works) and each bin keeps the smallest
    full 64-bit hash that landed in it, ``_U64_MAX`` while empty — so
    streaming updates and merges stay exact.  :meth:`fingerprints`
    densifies the empty bins, rehashes the minima and keeps the low
    ``b`` bits — the only part that ever crosses the wire, packed by
    :func:`pack_lanes`.
    """

    size: int
    bits: int = 8
    seed: int = 0
    mins: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Distinct values inserted via ``update`` (exact when batched
    #: inserts are disjoint); after ``merge``, the clamped
    #: union-cardinality estimate (see :func:`_clamp_union_count`).
    n_values: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"sketch size must be positive, got {self.size}")
        if not MIN_SKETCH_BITS <= self.bits <= MAX_SKETCH_BITS:
            raise ValueError(
                f"bits must be in [{MIN_SKETCH_BITS}, {MAX_SKETCH_BITS}], "
                f"got {self.bits}"
            )
        if self.mins is None:
            self.mins = np.full(self.size, _U64_MAX, dtype=np.uint64)

    @classmethod
    def from_values(
        cls, values, size: int, bits: int = 8, seed: int = 0
    ) -> "BBitMinHashSketch":
        sk = cls(size=size, bits=bits, seed=seed)
        sk.update(values)
        return sk

    def update(self, values) -> "BBitMinHashSketch":
        """Fold more attribute values in (streaming insertion)."""
        vals = _as_value_array(values)
        if vals.size == 0:
            return self
        self.n_values += vals.size
        h = hash_values(vals, self.seed)
        bins = ((h >> _SHIFT_32) * np.uint64(self.size)) >> _SHIFT_32
        np.minimum.at(self.mins, bins.astype(np.intp), h)
        return self

    def merge(self, other: "BBitMinHashSketch") -> "BBitMinHashSketch":
        """Sketch of the union: elementwise bin minima.

        The merged ``n_values`` is estimated from where each bin's
        minimum sits inside its bin (the minimum of ``n`` uniform draws
        averages ``1/(n+1)``; an empty bin counts as 1), so with ``k``
        bins ``n ≈ k (k / sum(frac_i) - 1)``, clamped to the exact
        ``[max, sum]`` window the part counts imply.
        """
        self._check_compatible(other)
        out = BBitMinHashSketch(size=self.size, bits=self.bits, seed=self.seed)
        out.mins = np.minimum(self.mins, other.mins)
        k = self.size
        frac = out.mins / _TWO_64 * k - np.arange(k)
        frac[out.mins == _U64_MAX] = 1.0
        total = float(frac.sum())
        estimate = k * (k / total - 1) if total > 0 else 0.0
        out.n_values = _clamp_union_count(
            estimate, self.n_values, other.n_values
        )
        return out

    def _check_compatible(self, other: "BBitMinHashSketch") -> None:
        if (
            self.size != other.size
            or self.bits != other.bits
            or self.seed != other.seed
        ):
            raise ValueError(
                f"incompatible sketches: (size, bits, seed) "
                f"({self.size}, {self.bits}, {self.seed}) vs "
                f"({other.size}, {other.bits}, {other.seed})"
            )

    def fingerprints(self) -> np.ndarray:
        """Low-``b``-bit lane fingerprints (what travels on the wire).

        Empty bins are densified first (Shrivastava's optimal
        densification): empty bin ``i`` borrows the minimum of the
        filled bin ``f`` with the smallest ``splitmix64(key_i ^ f)``,
        where ``key_i`` depends on the seed and ``i`` only — never on
        the set — so two sets that both leave bin ``i`` empty borrow
        alike.  That is ``|empty| * |filled| <= k^2 / 4`` hashes,
        whatever the set size.  The minima are then rehashed before
        truncation, so two *different* minima collide with probability
        ``2^-b`` regardless of the structure of the raw hash values.
        """
        mins = self.mins
        empty = mins == _U64_MAX
        holes = np.flatnonzero(empty)
        if 0 < holes.size < self.size:
            filled = np.flatnonzero(~empty)
            # key_i ^ f = salt ^ (i << 32 | f): one distinct input per pair.
            salt = np.uint64(derive_seed(self.seed, "bbit", "densify"))
            keys = (holes.astype(np.uint64) << _SHIFT_32) ^ salt
            bins = filled.astype(np.uint64)
            mins = mins.copy()
            # Rows of holes at a time, so the score table stays ~1M cells.
            step = max(1, (1 << 20) // filled.size)
            for lo in range(0, holes.size, step):
                rows = slice(lo, lo + step)
                scores = _mix(keys[rows, None] ^ bins)
                mins[holes[rows]] = mins[filled[scores.argmin(axis=1)]]
        mask = (np.uint64(1) << np.uint64(self.bits)) - np.uint64(1)
        return splitmix64(mins) & mask

    def packed(self) -> np.ndarray:
        """The b-bit-packed wire payload (see :func:`pack_lanes`)."""
        return pack_lanes(self.fingerprints(), self.bits)

    @property
    def collision_floor(self) -> float:
        """``C = 2^-b``: the match probability of unrelated lanes."""
        return 2.0 ** -self.bits

    def jaccard(self, other: "BBitMinHashSketch") -> float:
        """Li–König unbiased estimator ``(m - C) / (1 - C)``, clipped."""
        self._check_compatible(other)
        return float(
            estimate_rows(
                "bbit_minhash", self.fingerprints(), self.n_values,
                other.fingerprints()[None, :], np.array([other.n_values]),
                bits=self.bits,
            )[0]
        )

    def error_bound(self, z: float = Z_95) -> float:
        """Worst-case additive bound of the corrected estimator."""
        c = self.collision_floor
        return min(1.0, z * 0.5 / math.sqrt(self.size) / (1.0 - c))

    @property
    def nbytes(self) -> int:
        """Wire bytes of the packed payload."""
        return (-(-(self.size * self.bits) // 64)) * 8


def estimate_bbit_jaccard(match_fraction, bits: int):
    """Collision-corrected Jaccard from lane match fraction(s)."""
    c = 2.0 ** -bits
    return np.clip((match_fraction - c) / (1.0 - c), 0.0, 1.0)


# ---- HyperLogLog ----------------------------------------------------------

#: Standard HLL bias constants alpha_r for small register counts.
_HLL_ALPHA_SMALL = {16: 0.673, 32: 0.697, 64: 0.709}


@dataclass
class HyperLogLogSketch:
    """HyperLogLog union-cardinality registers.

    ``registers`` holds ``2**precision`` rank-of-first-one maxima.
    Merging two sketches (elementwise ``max``) yields exactly the
    sketch of the union — the property the pairwise union-cardinality
    estimates in the distributed exchange rely on.
    """

    precision: int
    seed: int = 0
    registers: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Distinct values inserted via ``update`` (exact when batched
    #: inserts are disjoint); after ``merge``, the clamped
    #: union-cardinality estimate (see :func:`_clamp_union_count`).
    n_values: int = 0

    def __post_init__(self) -> None:
        if not 4 <= self.precision <= 18:
            raise ValueError(
                f"precision must be in [4, 18], got {self.precision}"
            )
        if self.registers is None:
            self.registers = np.zeros(1 << self.precision, dtype=np.uint8)

    @classmethod
    def from_values(
        cls, values, precision: int, seed: int = 0
    ) -> "HyperLogLogSketch":
        sk = cls(precision=precision, seed=seed)
        sk.update(values)
        return sk

    @property
    def n_registers(self) -> int:
        return 1 << self.precision

    def update(self, values) -> "HyperLogLogSketch":
        """Fold more attribute values in (streaming insertion)."""
        vals = _as_value_array(values)
        if vals.size == 0:
            return self
        self.n_values += vals.size
        h = hash_values(vals, self.seed)
        p = np.uint64(self.precision)
        idx = (h >> (np.uint64(64) - p)).astype(np.int64)
        rest = h & ((np.uint64(1) << (np.uint64(64) - p)) - np.uint64(1))
        # rho = number of leading zeros of the remaining 64-p bits, + 1.
        rho = (64 - self.precision + 1 - _bit_length_u64(rest)).astype(
            np.uint8
        )
        np.maximum.at(self.registers, idx, rho)
        return self

    def merge(self, other: "HyperLogLogSketch") -> "HyperLogLogSketch":
        """Sketch of the union: elementwise register maxima.

        The merged ``n_values`` is the register-based union-cardinality
        estimate, clamped to the exact ``[max, sum]`` window the part
        counts imply (so the inclusion–exclusion estimator stays sound
        on merged sketches).
        """
        self._check_compatible(other)
        out = HyperLogLogSketch(precision=self.precision, seed=self.seed)
        out.registers = np.maximum(self.registers, other.registers)
        out.n_values = _clamp_union_count(
            out.cardinality(), self.n_values, other.n_values
        )
        return out

    def _check_compatible(self, other: "HyperLogLogSketch") -> None:
        if self.precision != other.precision or self.seed != other.seed:
            raise ValueError(
                f"incompatible sketches: precision/seed "
                f"({self.precision}, {self.seed}) vs "
                f"({other.precision}, {other.seed})"
            )

    def cardinality(self) -> float:
        """Bias-corrected HLL estimate with linear-counting fallback."""
        return hll_cardinality(self.registers[None, :])[0]

    def jaccard(self, other: "HyperLogLogSketch") -> float:
        """Inclusion–exclusion against the exact per-sketch sizes."""
        self._check_compatible(other)
        return float(
            estimate_rows(
                "hll", self.registers, self.n_values,
                other.registers[None, :], np.array([other.n_values]),
            )[0]
        )

    def error_bound(self, z: float = Z_95) -> float:
        """Worst-case (J = 1) additive bound via error propagation.

        ``J = (a + b - u) / u`` with exact ``a``, ``b`` gives
        ``sigma_J = (1 + J) * sigma_u / u <= 2 * 1.04 / sqrt(r)``.
        """
        return min(1.0, z * 2.0 * 1.04 / math.sqrt(self.n_registers))

    @property
    def nbytes(self) -> int:
        """Wire bytes of the register payload."""
        return int(self.registers.nbytes)


def hll_alpha(n_registers: int) -> float:
    """The HLL bias-correction constant ``alpha_r``."""
    if n_registers in _HLL_ALPHA_SMALL:
        return _HLL_ALPHA_SMALL[n_registers]
    return 0.7213 / (1.0 + 1.079 / n_registers)


def hll_cardinality(registers: np.ndarray) -> np.ndarray:
    """Row-wise HLL cardinality estimates of a ``(rows, r)`` array."""
    regs = np.ascontiguousarray(registers)
    if regs.ndim != 2:
        raise ValueError(f"expected a 2-D register array, got {regs.ndim}-D")
    r = regs.shape[1]
    harmonic = np.power(2.0, -regs.astype(np.float64)).sum(axis=1)
    raw = hll_alpha(r) * r * r / harmonic
    zeros = (regs == 0).sum(axis=1)
    out = raw.copy()
    small = (raw <= 2.5 * r) & (zeros > 0)
    with np.errstate(divide="ignore"):
        linear = r * np.log(r / np.maximum(zeros, 1).astype(np.float64))
    out[small] = linear[small]
    return out


# ---- the row kernel -------------------------------------------------------
#
# Every estimate in the repo — a sketch object's ``jaccard``, the
# all-pairs exchange, the query cascade's sketch stage — is one query
# row against a stacked ``[n, width]`` block of candidate rows.  A row
# is: the sorted bottom-``s`` hashes zero-padded to ``s`` (``lengths``
# holds each row's valid prefix), the ``k`` unpacked b-bit lane
# fingerprints, or the ``r`` HLL registers.

#: Families whose rows are sorted bottom-``s`` hashes.
BOTTOM_S_FAMILIES = ("minhash", "weighted_minhash")


def pad_rows(flat: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """Scatter concatenated hash rows (row ``i`` is the next
    ``lengths[i]`` values of ``flat``) into a zero-padded block."""
    lengths = np.asarray(lengths, dtype=np.int64)
    rows = np.zeros((lengths.size, width), dtype=np.uint64)
    rows[np.arange(width) < lengths[:, None]] = flat
    return rows


def stack_payloads(
    family: str, payloads, size: int, bits: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-set stored payloads (sorted hashes, b-bit *packed*
    words, registers) into the row kernel's ``(rows, lengths)`` block."""
    n = len(payloads)
    if family in BOTTOM_S_FAMILIES:
        lengths = np.array([p.size for p in payloads], dtype=np.int64)
        flat = np.concatenate(payloads) if n else np.empty(0, dtype=np.uint64)
        return pad_rows(flat, lengths, size), lengths
    if not n:
        rows = np.empty((0, 0), dtype=np.uint64)
    elif family == "bbit_minhash":
        rows = unpack_lanes(np.stack(payloads), bits, size)
    else:
        rows = np.stack(payloads)
    return rows, np.full(n, rows.shape[1], dtype=np.int64)


class PostingIndex(NamedTuple):
    """The bottom-``s`` row kernel's search structure: the valid entries
    of a stacked ``(rows, lengths)`` block as postings sorted by hash,
    each with its row and its column.

    A row is a set: an entry equal to its left neighbour is not posted,
    ``columns`` count only the row's distinct hashes, and ``lengths``
    holds each row's distinct count.
    """

    width: int
    hashes: np.ndarray
    rows: np.ndarray
    columns: np.ndarray
    lengths: np.ndarray

    @classmethod
    def build(cls, rows: np.ndarray, lengths: np.ndarray) -> "PostingIndex":
        n, width = rows.shape
        valid = np.arange(width) < np.asarray(lengths)[:, None]
        valid[:, 1:] &= rows[:, 1:] != rows[:, :-1]
        distinct = valid.sum(axis=1)
        owner = np.repeat(np.arange(n), distinct)
        # A row's k-th distinct entry sits at column k.
        columns = np.arange(owner.size) - np.repeat(np.cumsum(distinct) - distinct, distinct)
        hashes = rows[valid]
        # Ties need no order: a hash is posted at most once per row.
        by_hash = np.argsort(hashes)
        # Rows and columns in their narrowest types: grouping hits by
        # row is then a radix sort.
        return cls(
            width,
            hashes[by_hash],
            owner[by_hash].astype(np.min_scalar_type(n)),
            columns[by_hash].astype(np.min_scalar_type(width)),
            distinct,
        )

    def estimate(
        self,
        query: np.ndarray,
        q_size: int,
        cand: np.ndarray,
        row_sizes: np.ndarray,
    ) -> np.ndarray:
        """The Mash estimate of ``query`` against each block row ``cand``.

        Per match (a query hash posted in a row) the rank in the pair's
        union is ``column + query index - shared entries before it in
        the row``; each row's estimate is the count of its matches
        ranked below ``width`` over ``min(width, |union|)``.  Only the
        postings of the query's hashes are read.  ``q_size`` /
        ``row_sizes`` apply :func:`estimate_rows`'s empty-set rule.
        """
        q = sorted_unique(np.asarray(query, dtype=np.uint64))
        first = np.searchsorted(self.hashes, q, side="left")
        counts = np.searchsorted(self.hashes, q, side="right") - first
        # Hit range j is postings first[j] : first[j] + counts[j]; all in
        # one gather, one run per query hash.
        hits = np.repeat(first - (np.cumsum(counts) - counts), counts)
        hits += np.arange(hits.size)
        qidx = np.repeat(np.arange(q.size), counts)
        # A stable sort by row groups the hits by row, query index rising.
        row = self.rows[hits]
        by_row = np.argsort(row, kind="stable")
        hits, qidx, row = hits[by_row], qidx[by_row], row[by_row]
        shared = np.bincount(row, minlength=self.lengths.size)
        before = np.arange(hits.size) - (np.cumsum(shared) - shared)[row]
        union_rank = self.columns[hits] + qidx - before
        inside = np.bincount(row[union_rank < self.width], minlength=self.lengths.size)
        n_union = np.minimum(self.width, q.size + self.lengths[cand] - shared[cand])
        return _empty_set_rule(inside[cand] / np.maximum(n_union, 1), q_size, row_sizes)


def estimate_rows(
    family: str,
    query: np.ndarray,
    q_size: int,
    rows: np.ndarray,
    row_sizes: np.ndarray,
    lengths: np.ndarray | None = None,
    bits: int = 8,
) -> np.ndarray:
    """The row kernel: estimate J of one query against each block row.

    ``query`` is the query's own row (bottom-``s``: only its valid
    hashes); ``lengths`` is read for bottom-``s`` blocks only.
    ``q_size`` / ``row_sizes`` are the exact set sizes: they decide the
    empty-set rule — ``J(0, 0) = 1``, ``J(0, B) = 0`` — whatever the
    sketches say, and anchor HLL's inclusion–exclusion.
    """
    row_sizes = np.asarray(row_sizes)
    if family in BOTTOM_S_FAMILIES:
        return PostingIndex.build(rows, lengths).estimate(
            query, q_size, np.arange(rows.shape[0]), row_sizes
        )
    if family == "bbit_minhash":
        est = estimate_bbit_jaccard((rows == query).mean(axis=1), bits)
    elif family == "hll":
        unions = np.maximum(
            hll_cardinality(np.maximum(rows, query)), 1e-12
        )
        inter = q_size + row_sizes.astype(np.float64) - unions
        est = np.clip(inter / unions, 0.0, 1.0)
    else:
        raise ValueError(f"unknown sketch family {family!r}")
    return _empty_set_rule(est, q_size, row_sizes)


def _empty_set_rule(est: np.ndarray, q_size: int, row_sizes) -> np.ndarray:
    """``J(0, 0) = 1`` and ``J(0, B) = 0``, whatever the sketches say."""
    empty = np.asarray(row_sizes) == 0
    if q_size == 0:
        return empty.astype(np.float64)
    return np.where(empty, 0.0, est)


# ---- factory --------------------------------------------------------------


def hll_precision_for(sketch_size: int) -> int:
    """Smallest HLL precision with at least ``sketch_size`` registers."""
    if sketch_size <= 0:
        raise ValueError(
            f"sketch size must be positive, got {sketch_size}"
        )
    return max(4, min(18, max(4, (sketch_size - 1).bit_length())))


def make_sketch(
    estimator: str, size: int, bits: int = 8, seed: int = 0
):
    """Build an empty sketch of the given estimator family.

    ``size`` is the sketch-size knob of :class:`SimilarityConfig`:
    bottom-``s`` for ``minhash``, lane count ``k`` for ``bbit_minhash``,
    and (rounded up to a power of two) register count for ``hll``.
    """
    if estimator == "minhash":
        return KMinValuesSketch(size=size, seed=seed)
    if estimator == "bbit_minhash":
        return BBitMinHashSketch(size=size, bits=bits, seed=seed)
    if estimator == "hll":
        return HyperLogLogSketch(
            precision=hll_precision_for(size), seed=seed
        )
    raise ValueError(
        f"estimator must be one of {SKETCH_ESTIMATORS}, got {estimator!r}"
    )


def sketch_error_bound(
    estimator: str, size: int, bits: int = 8, z: float = Z_95
) -> float:
    """The analytic worst-case bound of an estimator configuration.

    Also covers the opt-in ``"weighted_minhash"`` store family
    (:mod:`repro.semantics.wminhash`), whose bottom-``s`` estimator over
    the expanded multiset carries the bound of plain bottom-``s``
    MinHash.
    """
    if estimator in BOTTOM_S_FAMILIES:
        estimator = "minhash"
    return make_sketch(estimator, size, bits).error_bound(z)
