"""Banded MinHash-LSH candidate index (sub-linear candidate generation).

The query cascade's candidate generator was a linear scan of the
size-ratio window — the one serving stage that grows with corpus size.
This module adds the standard banded LSH construction over the b-bit
MinHash lane fingerprints the store already persists (the
``bbit_minhash`` family): the ``k`` lanes are split into ``b`` bands of
``r`` rows, each band's ``r`` fingerprints fold into one 64-bit bucket
key, and two genomes become candidates iff they share a bucket in at
least one band.  For a pair with Jaccard similarity ``s``, a band
collides with probability at least ``s^r`` (exactly ``s^r`` absent the
``2^-bits`` fingerprint-collision floor, which only *adds* collisions),
so the pair is retrieved with probability at least

    ``P(s) = 1 - (1 - s^r)^b``

— the classic LSH S-curve.  The curve treats the lanes as independent
MinHash draws; the stored lanes are bins of one permutation, densified
(:class:`~repro.core.sketch.BBitMinHashSketch`), so it is an assumption
that the measured recall checks (``TestRecallBound`` in
``tests/service/test_lsh.py``, the harness's LSH recall flags and
``lsh.recall`` in ``bench/``), not a theorem.  :func:`plan_bands` picks ``(b, r)`` from
this curve for a target threshold and false-negative budget;
:func:`collision_probability` evaluated at a query's threshold is the
analytic per-match recall bound the benchmarks audit against.

An :class:`LSHTable` *is* its **key matrix**: ``keymat[i, j]`` is the
bucket key of item ``i`` (a store position) in band ``j``, one
``uint64[n_items, bands]`` array in item order — in memory, on disk and
under the probe.  Adding items is a ``vstack`` of their freshly hashed
rows, removing one an ``np.delete``, so the table is trivially
*canonical*: it depends only on the (ordered) item fingerprints, never
on insertion history (property-tested in ``tests/service/test_lsh.py``).
Tables are value objects — mutation returns a new table — so a
:class:`~repro.service.store.StoreSnapshot` holding a table stays
frozen while the store moves on.

A probe is one search, not one per band: the first probe of a table
sorts the flattened matrix once (a pure function of ``keymat``, cached
on the table), and every probe then finds all ``b`` band keys with two
vectorised binary searches, gathers the hit cells and keeps a cell only
when it sits in the band that probed for it — so a key that happens to
occur in two *different* bands never makes a candidate:

>>> plan = BandPlan(bands=2, rows=1, n_lanes=2, threshold=0.5, fn_budget=0.05)
>>> stored = np.array([[3, 7], [3, 8], [9, 7], [5, 5]], dtype=np.uint64)
>>> table = LSHTable.build(plan, bits=8, seed=0, fingerprints=stored)
>>> table.keymat.shape, table.n_items
((4, 2), 4)
>>> table.probe(np.array([3, 7], dtype=np.uint64))  # (candidates, cells hit)
(array([0, 1, 2]), 4)
>>> grown = table.with_removed(1).with_added([stored[1]])
>>> grown.equals(LSHTable.build(plan, 8, 0, stored[[0, 2, 3, 1]]))
True

Serialization is three codec frames — header, planning parameters and
the key matrix — persisted by :mod:`repro.service.store` next to the
manifest and versioned with it.  The matrix frame is stored raw: the
keys are hash outputs, which no varint / RLE coding can shrink, so
sizing them would only cost time.

On a size-banded :class:`~repro.service.sharded.ShardedStore` there is
no global table: every size band is a full
:class:`~repro.service.store.IndexStore` owning its *own* LSH table
over its own members, so a fan-out query probes only the tables of the
shards its size-ratio window overlaps — the probe cost shrinks with
the same band selection that prunes the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.core.sketch import splitmix64
from repro.util.arrays import sorted_unique
from repro.util.prng import derive_seed

__all__ = [
    "BandPlan",
    "LSHTable",
    "band_keys",
    "collision_probability",
    "plan_bands",
]


def collision_probability(s, rows: int, bands: int):
    """The banded-LSH retrieval probability ``1 - (1 - s^r)^b``.

    For a pair with Jaccard similarity ``s``, each of the ``b`` bands
    collides independently with probability ``s^r`` (``r`` lanes must
    all match), so the pair shares at least one bucket with this
    probability.  Monotone increasing in ``s``: evaluated at a query
    threshold ``t`` it lower-bounds the retrieval probability of every
    true match (``J >= t``).  Accepts scalars or arrays.

    >>> round(collision_probability(1.0, 4, 64), 4)
    1.0
    >>> collision_probability(0.0, 4, 64)
    0.0
    """
    if rows <= 0 or bands <= 0:
        raise ValueError(f"rows and bands must be positive, got r={rows}, b={bands}")
    s = np.clip(np.asarray(s, dtype=np.float64), 0.0, 1.0)
    out = 1.0 - (1.0 - s**rows) ** bands
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BandPlan:
    """A banding of ``n_lanes`` fingerprint lanes into ``bands x rows``.

    ``threshold`` / ``fn_budget`` record what the plan was chosen for;
    ``recall`` is the analytic retrieval probability at exactly the
    planning threshold, and ``meets_budget`` says whether the lane
    budget admitted a plan honouring ``recall >= 1 - fn_budget`` (when
    it cannot, :func:`plan_bands` falls back to the highest-recall
    banding, ``r = 1``).
    """

    bands: int
    rows: int
    n_lanes: int
    threshold: float
    fn_budget: float

    def __post_init__(self) -> None:
        if self.bands <= 0 or self.rows <= 0:
            raise ValueError(f"bands and rows must be positive, got b={self.bands}, r={self.rows}")
        if self.bands * self.rows > self.n_lanes:
            raise ValueError(
                f"bands*rows = {self.bands * self.rows} exceeds n_lanes = {self.n_lanes}"
            )

    @property
    def recall(self) -> float:
        """Analytic retrieval probability at the planning threshold."""
        return collision_probability(self.threshold, self.rows, self.bands)

    @property
    def meets_budget(self) -> bool:
        return self.recall >= 1.0 - self.fn_budget

    def recall_at(self, threshold: float) -> float:
        """The retrieval-probability bound for matches at ``threshold``."""
        return collision_probability(threshold, self.rows, self.bands)

    def describe(self) -> str:
        return (
            f"{self.bands} band(s) x {self.rows} row(s) over "
            f"{self.n_lanes} lane(s): recall >= {self.recall:.4f} at "
            f"t={self.threshold:g} (budget {self.fn_budget:g}"
            f"{'' if self.meets_budget else ', NOT met'})"
        )


def plan_bands(threshold: float, n_lanes: int, fn_budget: float = 0.05) -> BandPlan:
    """Pick ``(bands, rows)`` from the collision-probability curve.

    Among the bandings ``r in 1..n_lanes`` with ``b = n_lanes // r``,
    the largest ``r`` (the steepest S-curve, hence the fewest false-
    positive candidates) whose analytic recall at the planning
    threshold still honours the false-negative budget:

        ``1 - (1 - threshold^r)^b  >=  1 - fn_budget``

    Larger ``r`` always means lower recall at fixed lane count, so the
    feasible set is a prefix of ``r`` values and the choice is the
    precision-optimal plan inside the recall budget.  When even
    ``r = 1`` misses the budget (tiny thresholds, few lanes), the
    ``r = 1`` banding is returned with ``meets_budget`` False — the
    caller can audit via ``lsh_exact`` or add lanes.

    >>> plan = plan_bands(threshold=0.5, n_lanes=256, fn_budget=0.05)
    >>> (plan.bands, plan.rows)
    (64, 4)
    >>> plan.meets_budget
    True
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if n_lanes <= 0:
        raise ValueError(f"n_lanes must be positive, got {n_lanes}")
    if not 0.0 < fn_budget < 1.0:
        raise ValueError(f"fn_budget must be in (0, 1), got {fn_budget}")
    best = None
    for rows in range(1, n_lanes + 1):
        bands = n_lanes // rows
        if collision_probability(threshold, rows, bands) >= 1.0 - fn_budget:
            best = (bands, rows)
        else:
            break
    if best is None:
        best = (n_lanes, 1)
    return BandPlan(
        bands=best[0],
        rows=best[1],
        n_lanes=n_lanes,
        threshold=float(threshold),
        fn_budget=float(fn_budget),
    )


def band_keys(fingerprints: np.ndarray, plan: BandPlan, seed: int) -> np.ndarray:
    """One 64-bit bucket key per band from lane fingerprints.

    ``fingerprints`` is one item's lanes (``(lanes,)`` -> ``(bands,)``
    keys) or a stacked block (``(n, lanes)`` -> ``(n, bands)``, row
    ``i`` equal to the 1-D call on row ``i``), hashed in one pass.

    Band ``j``'s key absorbs lanes ``j*r .. (j+1)*r - 1`` into a
    splitmix64 sponge seeded with a per-band salt, so equal keys in
    band ``j`` mean (up to a ``2^-64`` hash collision) equal
    fingerprints on all ``r`` of that band's lanes.  Deterministic in
    (fingerprints, plan, seed) — the store side hashes stored
    fingerprints, the query side hashes the query sketch's, and equal
    inputs bucket together.
    """
    fps = np.asarray(fingerprints, dtype=np.uint64)
    used = plan.bands * plan.rows
    if fps.ndim not in (1, 2) or fps.shape[-1] < used:
        raise ValueError(
            f"need {used} lane fingerprint(s) per item, got an array of shape {fps.shape}"
        )
    grid = fps[..., :used].reshape(*fps.shape[:-1], plan.bands, plan.rows)
    salt = np.uint64(derive_seed(seed, "lsh", "bands"))
    with np.errstate(over="ignore"):
        keys = splitmix64(np.arange(plan.bands, dtype=np.uint64) + salt)
        for j in range(plan.rows):
            keys = splitmix64(keys ^ grid[..., j])
    return keys


@dataclass(frozen=True, eq=False)
class LSHTable:
    """The band-key matrix of one store version's live genomes.

    ``keymat[i, j]`` is the bucket key (:func:`band_keys`) of the item
    at store position ``i`` in band ``j``; positions index the
    live-genome order of the version the table was built for.  The same
    items in the same order produce the same matrix whatever the
    history of ``with_added`` / ``with_removed`` calls that led there.
    """

    plan: BandPlan
    bits: int
    seed: int
    keymat: np.ndarray

    @property
    def n_items(self) -> int:
        return int(self.keymat.shape[0])

    # ---- construction -------------------------------------------------

    @classmethod
    def build(cls, plan: BandPlan, bits: int, seed: int, fingerprints) -> "LSHTable":
        """Build from the items' lane fingerprints, in store order (a
        sequence of per-item arrays or one stacked ``(n, lanes)`` block)."""
        empty = cls(plan, int(bits), int(seed), np.empty((0, plan.bands), dtype=np.uint64))
        return empty.with_added(fingerprints)

    def with_added(self, fingerprints) -> "LSHTable":
        """A new table with items appended (incremental maintenance).

        Equals a from-scratch :meth:`build` over the concatenated item
        sequence: the new rows are hashed in one pass and stacked under
        the existing ones.
        """
        if len(fingerprints) == 0:
            return self
        rows = band_keys(fingerprints, self.plan, self.seed)
        return replace(self, keymat=np.vstack([self.keymat, rows]))

    def with_removed(self, position: int) -> "LSHTable":
        """A new table without the item at ``position``.

        Later positions shift down by one, mirroring how removing a
        live genome shifts the store's live order.
        """
        if not 0 <= position < self.n_items:
            raise ValueError(f"position {position} outside [0, {self.n_items})")
        return replace(self, keymat=np.delete(self.keymat, position, axis=0))

    # ---- probing ------------------------------------------------------

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """The probe's search structure: ``(cells, keys)``, the stable
        argsort of the flattened key matrix and the keys in that order
        (cell ``c`` is item ``c // bands``, band ``c % bands``).  A pure
        function of ``keymat``, so racing first probes agree."""
        flat = self.keymat.ravel()
        cells = np.argsort(flat, kind="stable")
        return cells, flat[cells]

    def probe(self, fingerprints: np.ndarray) -> tuple[np.ndarray, int]:
        """Store positions sharing >= 1 bucket with the query.

        Returns ``(candidates, retrieved)``: candidates sorted unique
        (int64), and the total bucket members touched across bands —
        the number of ``(item, band)`` cells whose key equals the
        query's key *in that band* (the data-dependent part of the
        probe's modelled cost; the control part is ``bands`` binary
        searches).
        """
        return self.probe_keys(band_keys(fingerprints, self.plan, self.seed))

    def probe_keys(self, qkeys: np.ndarray) -> tuple[np.ndarray, int]:
        """:meth:`probe` for a query already hashed into its bucket keys
        (:func:`band_keys` under this table's plan and seed)."""
        bands = self.plan.bands
        cells, keys = self._index
        lo = np.searchsorted(keys, qkeys, side="left")
        counts = np.searchsorted(keys, qkeys, side="right") - lo
        # Hit range j is cells[lo[j] : lo[j] + counts[j]]; all of them in one gather.
        first = np.cumsum(counts) - counts
        hits = cells[np.repeat(lo - first, counts) + np.arange(int(counts.sum()))]
        items, hit_band = np.divmod(hits, bands)
        items = items[hit_band == np.repeat(np.arange(bands), counts)]
        return sorted_unique(items.astype(np.int64, copy=False)), int(items.size)

    @cached_property
    def _max_buckets(self) -> int:
        """The most distinct keys any one band holds (one column sort)."""
        col = np.sort(self.keymat, axis=0)
        return int((col[1:] != col[:-1]).sum(axis=0).max()) + (self.n_items > 0)

    def probe_cost(self, retrieved: int) -> float:
        """Modelled flop count of one probe (searches + retrieval)."""
        per_band = float(np.log2(max(self._max_buckets, 2)))
        return self.plan.bands * per_band + float(retrieved)

    # ---- serialization ------------------------------------------------

    def to_payloads(self) -> list[np.ndarray]:
        """The table as three codec-frameable arrays: header, planning
        parameters and the key matrix."""
        plan = self.plan
        header = [plan.bands, plan.rows, plan.n_lanes, self.bits, self.seed, self.n_items]
        params = [plan.threshold, plan.fn_budget]
        return [np.array(header, dtype=np.int64), np.array(params, dtype=np.float64), self.keymat]

    @classmethod
    def from_payloads(cls, payloads: list) -> "LSHTable":
        """Inverse of :meth:`to_payloads`; ``ValueError`` unless the three
        arrays describe one consistent table."""
        if len(payloads) != 3:
            raise ValueError(f"LSH table payload holds {len(payloads)} frame(s), expected 3")
        plan, bits, seed, n_items = read_header(payloads)
        keymat = np.asarray(payloads[2])
        if keymat.dtype != np.uint64 or keymat.shape != (n_items, plan.bands):
            raise ValueError(
                f"LSH table header declares a uint64 {n_items} x {plan.bands} key matrix, "
                f"the third frame holds {keymat.dtype}{list(keymat.shape)}"
            )
        return cls(plan, bits, seed, keymat)

    # ---- comparison ---------------------------------------------------

    def equals(self, other: "LSHTable") -> bool:
        """Structural equality (the item-ordered matrix makes it decidable)."""
        return (
            self.plan == other.plan
            and self.bits == other.bits
            and self.seed == other.seed
            and np.array_equal(self.keymat, other.keymat)
        )


def read_header(payloads: list) -> tuple[BandPlan, int, int, int]:
    """``(plan, bits, seed, n_items)`` from a payload list's first two
    frames; ``ValueError`` when they are not a table header."""
    header, params = (np.asarray(p) for p in (*payloads, None, None)[:2])
    if header.dtype != np.int64 or header.shape != (6,):
        raise ValueError("the first frame is no LSH table header (int64[6])")
    if params.dtype != np.float64 or params.shape != (2,):
        raise ValueError("the second frame is no LSH planning parameters (float64[2])")
    plan = BandPlan(*(int(x) for x in header[:3]), *(float(x) for x in params))
    bits, seed, n_items = (int(x) for x in header[3:])
    return plan, bits, seed, n_items
