"""Size-banded sharded index store (horizontal partitioning layer).

The size-ratio theorem (Eq. 6: ``J(A,B) >= t`` implies
``t*|A| <= |B| <= |A|/t``) means a threshold query only ever touches a
*contiguous band* of genome sizes.  A :class:`ShardedStore` exploits
that: the corpus is partitioned by exact distinct-value count into
``n_shards`` contiguous size bands, each band a complete, self-contained
:class:`~repro.service.store.IndexStore` (its own genome records,
sketch payloads and banded LSH table) under ``bands/<id>/``.  A
threshold query maps its size-ratio window onto the band edges and fans
out only over the overlapping shards — the serving analogue of the 1-D
all-pairs distribution of Özkural & Aykanat — and an ``add`` routes
each new genome to its band, so only the touched bands write anything.

On-disk layout::

    root/
      manifest.json     <- the ONLY manifest: format_version 2, layout
                           "sharded", band edges, the genome -> band
                           list and every band's payload embedded
      bands/000/         <- one IndexStore per size band, no manifest
        shards/...
        lsh-*.bin
      bands/001/
        ...

Band edges are **upper-exclusive** distinct-value counts, one per
shard; the last edge is ``m + 1``, so every possible size lands in
exactly one band (``band_of``).  :func:`plan_size_bands` plans the
edges under one of :data:`~repro.core.config.SHARD_BAND_POLICIES`.

Writes go through the flat store's one write path
(:mod:`repro.service.store`): the same ``validate_add``, the same
router (``_assign`` maps sizes to bands and keeps the top-level genome
list), the same staged band operations, and the same
:func:`~repro.service.store.transaction`, whose single commit here is
the atomic replacement of the top-level manifest.  Bands write no
manifest of their own; ``ShardedStore.open`` rebuilds every band from
the payloads embedded in the top-level one, the one copy of the store
settings (``m``, codec, sketches, families, metadata, LSH planning),
equal in every band.  A crash at any write leaves the previous
top-level manifest referencing only fully written files, on every band.

Migrations: :func:`shard_store` rebands a flat (single-directory) store
in place through that same path — every live genome (values *and* stored
abundance counts) is routed into a staged band tree, and the one atomic
top-level manifest replacement commits the new layout, after which the
old flat artifacts are unlinked.  An interrupted migration
leaves the flat store intact (plus an unreferenced ``bands/`` tree a
retry clears).  :func:`migrate_store` upgrades a store of either layout
written in store format 1 (see
:data:`~repro.service.store.FORMAT_VERSION`) by re-sketching it in one
transaction, the one reader of format-1 payloads and of what older
releases left in them.  :func:`open_store` / :func:`create_store`
dispatch on the layout, so callers open or create either transparently.
"""

from __future__ import annotations

import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import SHARD_BAND_POLICIES
from repro.service import store as _flat
from repro.service.errors import StoreError
from repro.service.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    IndexStore,
    Transaction,
    _manifest_bytes,
    _manifest_fields,
    _StoreAPI,
    check_format,
    read_manifest,
    route,
    transaction,
)

__all__ = [
    "BAND_DIR",
    "SHARDED_FORMAT_VERSION",
    "ShardedEntry",
    "ShardedStore",
    "create_store",
    "migrate_store",
    "open_store",
    "plan_size_bands",
    "shard_store",
]

#: Directory (under the store root) holding one IndexStore per band.
#: Distinct from the flat store's ``shards/`` record directory, so a
#: band tree can coexist with a flat store mid-migration.
BAND_DIR = "bands"

#: On-disk layout revision of the sharded (two-level) store.
SHARDED_FORMAT_VERSION = 2


def plan_size_bands(
    m: int,
    n_bands: int,
    policy: str = "geometric",
    sizes: np.ndarray | None = None,
) -> np.ndarray:
    """Plan ``n_bands`` upper-exclusive size-band edges over ``[0, m]``.

    Returns an int64 array of length ``n_bands``, strictly increasing,
    whose last element is ``m + 1`` — so ``np.searchsorted(edges, size,
    side="right")`` maps every size in ``[0, m]`` to exactly one band.

    ``"geometric"`` grows the edges by a constant ratio across
    ``[1, m]`` (the multiplicative shape of the size-ratio window);
    ``"quantile"`` places the edges at equal-count quantiles of
    ``sizes`` (the observed corpus), which guarantees balanced shards
    when the corpus sizes are concentrated.
    """
    if n_bands < 1:
        raise StoreError(f"need at least one size band, got {n_bands}")
    if n_bands > m:
        raise StoreError(
            f"cannot split the size range [0, {m}] into {n_bands} band(s)"
        )
    if policy not in SHARD_BAND_POLICIES:
        raise StoreError(
            f"shard_band_policy must be one of {SHARD_BAND_POLICIES}, "
            f"got {policy!r}"
        )
    if n_bands == 1:
        return np.array([m + 1], dtype=np.int64)
    if policy == "geometric":
        ratio = float(m) ** (1.0 / n_bands)
        interior = [
            int(round(ratio ** (i + 1))) for i in range(n_bands - 1)
        ]
    else:  # quantile
        if sizes is None or len(sizes) == 0:
            raise StoreError(
                "quantile banding needs observed sizes "
                "(pass a size sample, or use geometric)"
            )
        arr = np.sort(np.asarray(sizes, dtype=np.int64))
        qs = np.quantile(arr, [(i + 1) / n_bands for i in range(n_bands - 1)])
        # +1 keeps a genome sitting exactly on the quantile in the
        # lower band (edges are upper-exclusive).
        interior = [int(np.floor(q)) + 1 for q in qs]
    # Force strict monotonicity inside [1, m]: forward pass lifts
    # collapsed edges, backward pass caps them below m.
    for i in range(n_bands - 1):
        lo = 1 if i == 0 else interior[i - 1] + 1
        interior[i] = max(interior[i], lo)
    for i in range(n_bands - 2, -1, -1):
        hi = m if i == n_bands - 2 else interior[i + 1] - 1
        interior[i] = min(interior[i], hi)
    return np.array(interior + [m + 1], dtype=np.int64)


@dataclass
class ShardedEntry:
    """One genome's top-level record: which band owns it.

    The top-level genome list preserves **global insertion order**
    across bands — that order is the tie-break of every merged query
    result, which is what makes sharded answers bit-identical to the
    flat store's.
    """

    name: str
    band: int
    removed: bool = False

    def to_json(self) -> dict:
        return {"name": self.name, "band": self.band, "removed": self.removed}

    @classmethod
    def from_json(cls, data: dict) -> "ShardedEntry":
        return cls(
            name=str(data["name"]),
            band=int(data["band"]),
            removed=bool(data["removed"]),
        )


def _band_setting(name: str) -> property:
    """A store setting of a sharded store: its first band's, which every
    band shares."""
    return property(lambda self: getattr(self.shards[0], name))


@dataclass
class ShardedStore(_StoreAPI):
    """A size-banded collection of :class:`IndexStore` shards.

    Shares the flat store's mutation API (``append_many`` / ``remove``
    / ``compact``, one definition) and mirrors its read API (``names``
    / ``sizes`` / ``load_*``), routing by size band; every mutation is
    one transaction committed by the atomic top-level manifest
    replacement.  Its store settings are its bands'.
    """

    root: Path
    band_policy: str
    band_edges: np.ndarray
    shards: list[IndexStore]
    genomes: list[ShardedEntry] = field(default_factory=list)
    version: int = 0
    _lock: threading.RLock = field(
        default_factory=threading.RLock, init=False, repr=False,
        compare=False,
    )

    m = _band_setting("m")
    codec = _band_setting("codec")
    sketch_size = _band_setting("sketch_size")
    sketch_bits = _band_setting("sketch_bits")
    sketch_seed = _band_setting("sketch_seed")
    families = _band_setting("families")
    metadata = _band_setting("metadata")

    # ---- lifecycle ----------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | Path,
        m: int,
        shards: int,
        band_policy: str = "geometric",
        size_hint: np.ndarray | None = None,
        **settings,
    ) -> "ShardedStore":
        """Create an empty sharded store with planned band edges.

        ``size_hint`` is an optional sample of expected genome sizes —
        required by the ``"quantile"`` policy, ignored by the others;
        ``settings`` are :meth:`IndexStore.create`'s (``codec``,
        ``sketch_*``, ``families``, ``metadata``, ``lsh_*``), shared by
        every band.
        """
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            raise StoreError(f"an index store already exists at {root}")
        edges = plan_size_bands(m, shards, band_policy, sizes=size_hint)
        store = cls._stage_create(root, m, edges, band_policy, **settings)
        store._save_manifest()
        return store

    @classmethod
    def _stage_create(
        cls, root: Path, m: int, edges, band_policy: str, version: int = 0,
        **settings,
    ) -> "ShardedStore":
        """Stage one empty band per edge under ``root/bands/`` and the
        store over them; nothing is committed until a manifest lands."""
        bands = [
            IndexStore._stage_create(
                root / BAND_DIR / f"{i:03d}", m, **settings
            )
            for i in range(len(edges))
        ]
        return cls(
            root=root, band_policy=band_policy, band_edges=edges,
            shards=bands, version=version,
        )

    @classmethod
    def open(cls, root: str | Path) -> "ShardedStore":
        root = Path(root)
        return cls._open(root, read_manifest(root))

    @classmethod
    def _open(cls, root: Path, meta: dict) -> "ShardedStore":
        """Open ``root`` from its already-read manifest payload."""
        _check_sharded(root, meta)
        with _manifest_fields(root):
            for sh in meta["shards"]:
                check_format(root, sh["manifest"])
            return cls._from_payload(root, meta)

    @classmethod
    def _from_payload(cls, root: Path, meta: dict) -> "ShardedStore":
        """Materialize a store from an already-parsed top-level manifest
        whose band payloads may be of any format (the caller checks) and
        must agree on the settings; top-level copies an earlier release
        wrote are not read."""
        with _manifest_fields(root):
            bands = [
                IndexStore._from_payload(root / sh["dir"], sh["manifest"])
                for sh in meta["shards"]
            ]
            first, *rest = bands  # a ValueError when there is no band
            if any((b.m, b._settings()) != (first.m, first._settings()) for b in rest):
                raise ValueError("the band payloads disagree on the store settings")
            return cls(
                root=root,
                band_policy=str(meta["band_policy"]),
                band_edges=np.array(meta["band_edges"], dtype=np.int64),
                shards=bands,
                genomes=[ShardedEntry.from_json(g) for g in meta["genomes"]],
                version=int(meta["version"]),
            )

    def _save_manifest(self) -> None:
        payload = {
            "format_version": SHARDED_FORMAT_VERSION,
            "layout": "sharded",
            "version": self.version,
            "band_policy": self.band_policy,
            "band_edges": [int(e) for e in self.band_edges],
            "genomes": [g.to_json() for g in self.genomes],
            "shards": [
                {
                    "dir": f"{BAND_DIR}/{i:03d}",
                    "manifest": shard._manifest_payload(),
                }
                for i, shard in enumerate(self.shards)
            ],
        }
        # The atomic top-level replacement is the ONLY commit point of
        # the whole store (through the flat store's byte sink, so fault
        # injection covers it too).
        _flat._atomic_write_bytes(self.root / MANIFEST_NAME, _manifest_bytes(payload))

    # ---- the transaction protocol (see store.transaction) -------------

    @property
    def _bands(self) -> list[IndexStore]:
        return self.shards

    def _assign(self, clean) -> list[int]:
        """Each genome's band, by support size regardless of counts;
        the top-level list records the batch in input order."""
        owners = [self.band_of(vals.size) for _, vals, _ in clean]
        self.genomes.extend(
            ShardedEntry(name=name, band=band)
            for (name, _, _), band in zip(clean, owners)
        )
        return owners

    def _state(self) -> tuple:
        flags = [g.removed for g in self.genomes]
        return list(self.genomes), flags, self.version

    def _restore(self, state: tuple) -> None:
        self.genomes, flags, self.version = state
        for entry, removed in zip(self.genomes, flags):
            entry.removed = removed

    def _stage_remove(self, name: str, txn: Transaction) -> None:
        entry = self._entry(name)
        self.shards[entry.band]._stage_remove(name, txn)
        entry.removed = True

    def _stage_compact(self, txn: Transaction) -> int:
        reclaimed = sum(shard._stage_compact(txn) for shard in self.shards)
        self.genomes = [g for g in self.genomes if not g.removed]
        return reclaimed

    # ---- band geometry ------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def band_of(self, size: int) -> int:
        """The band index owning a genome of ``size`` distinct values."""
        band = int(
            np.searchsorted(self.band_edges, int(size), side="right")
        )
        return min(band, self.n_shards - 1)

    def band_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Inclusive band-index range overlapping size window [lo, hi]."""
        return self.band_of(int(lo)), self.band_of(min(int(hi), self.m))

    def topology(self) -> tuple:
        """The shard-layout component of query cache keys."""
        return (
            "sharded",
            self.n_shards,
            self.band_policy,
            tuple(int(e) for e in self.band_edges),
        )

    # ---- views --------------------------------------------------------

    @property
    def names(self) -> list[str]:
        """Live genome names, in global insertion order across bands."""
        return [g.name for g in self.genomes if not g.removed]

    @property
    def n_genomes(self) -> int:
        return sum(1 for g in self.genomes if not g.removed)

    def _entry(self, name: str) -> ShardedEntry:
        for g in self.genomes:
            if g.name == name and not g.removed:
                return g
        raise KeyError(f"unknown genome {name!r}")

    def _live(self, attr: str) -> np.ndarray:
        """One integer field of the live genomes' band entries, in
        global insertion order."""
        by_name = {e.name: getattr(e, attr) for b in self.shards for e in b.live_entries}
        return np.array([by_name[name] for name in self.names], dtype=np.int64)

    def sizes(self) -> np.ndarray:
        """Exact distinct-value counts, in global insertion order."""
        return self._live("n_values")

    def positions(self) -> dict[str, int]:
        """Live name -> global insertion position (merge tie-break)."""
        return {name: i for i, name in enumerate(self.names)}

    def masses(self) -> np.ndarray:
        """Total k-mer masses, in global insertion order."""
        return self._live("mass")

    def load_values(self, name: str) -> np.ndarray:
        return self.shards[self._entry(name).band].load_values(name)

    def load_sketch_payload(self, name: str, family: str) -> np.ndarray:
        return self.shards[self._entry(name).band].load_sketch_payload(
            name, family
        )

    def load_counts(self, name: str) -> np.ndarray:
        return self.shards[self._entry(name).band].load_counts(name)

    def total_bytes(self) -> int:
        return sum(shard.total_bytes() for shard in self.shards)

    def summary(self) -> str:
        occupancy = "/".join(str(s.n_genomes) for s in self.shards)
        return (
            f"ShardedStore at {self.root}: {self.n_genomes} genome(s) in "
            f"{self.n_shards} size-banded shard(s) [{occupancy}], "
            f"m={self.m}, codec={self.codec}, "
            f"policy={self.band_policy}, version={self.version}, "
            f"{self.total_bytes()} shard byte(s)"
        )


def _check_sharded(root: Path, meta: dict) -> None:
    """:class:`StoreError` naming the manifest unless it is a sharded one
    in :data:`SHARDED_FORMAT_VERSION` (the top level's own revision)."""
    found = meta.get("format_version")
    if meta.get("layout") != "sharded" or found != SHARDED_FORMAT_VERSION:
        raise StoreError(
            f"{root / MANIFEST_NAME}: not a sharded store of format "
            f"{SHARDED_FORMAT_VERSION} (format {found!r})"
        )


def open_store(root: str | Path) -> "IndexStore | ShardedStore":
    """Open a store of either layout, dispatching on its manifest.

    A flat (single-directory) store opens as a plain
    :class:`IndexStore`, a sharded one as a :class:`ShardedStore`.
    This is the one opener the
    :class:`~repro.service.api.SimilarityService` facade uses.  A store
    written before :data:`~repro.service.store.FORMAT_VERSION` raises
    :class:`StoreError` naming :func:`migrate_store`'s CLI.
    """
    root = Path(root)
    meta = read_manifest(root)
    if meta.get("layout") == "sharded":
        return ShardedStore._open(root, meta)
    return IndexStore._open(root, meta)


def create_store(
    root: str | Path,
    m: int,
    shards: int = 1,
    band_policy: str = "geometric",
    size_hint: np.ndarray | None = None,
    **settings,
) -> "IndexStore | ShardedStore":
    """Create an empty store: flat for ``shards == 1``, else size-banded.

    ``settings`` are the layout-independent store settings (``codec``,
    ``sketch_*``, ``families``, ``metadata``, ``lsh_*``); the twin of
    :func:`open_store` for :meth:`SimilarityService.create`.
    """
    if shards == 1:
        return IndexStore.create(root, m, **settings)
    return ShardedStore.create(
        root, m, shards, band_policy=band_policy, size_hint=size_hint,
        **settings,
    )


def shard_store(
    root: str | Path,
    shards: int,
    band_policy: str = "quantile",
) -> ShardedStore:
    """Upgrade a flat (single-directory) store to a sharded store, in place.

    One transaction on the new layout: every live genome (values and
    stored abundance counts) is routed into a freshly staged band tree
    — rebuilding sketches and per-band LSH tables.  The atomic top-level
    manifest replacement commits the migration, after which the old
    flat artifacts are unlinked.  A crash at any earlier write leaves
    the flat store fully intact (plus an unreferenced ``bands/`` tree a
    retry clears and rebuilds).

    The default ``"quantile"`` policy plans the band edges from the
    observed corpus sizes, which keeps the shards balanced even when
    the sizes are tightly concentrated.
    """
    root = Path(root)
    meta = read_manifest(root)
    if meta.get("layout") == "sharded":
        raise StoreError(f"{root} is already a sharded store")
    flat = IndexStore._open(root, meta)
    sizes = flat.sizes()
    edges = plan_size_bands(
        flat.m, shards, band_policy,
        sizes=sizes if sizes.size else None,
    )
    if (root / BAND_DIR).exists():
        # Leftovers of an interrupted migration: unreferenced by the
        # committed flat manifest, safe to clear and rebuild.
        shutil.rmtree(root / BAND_DIR)
    store = ShardedStore._stage_create(
        root, flat.m, edges, band_policy, version=flat.version,
        **flat._settings(),
    )
    with transaction(store) as txn:
        txn.touch(store)  # an empty corpus still commits the new layout
        # Stored genomes are already clean triples: a counts record
        # exists iff the mass differs from the support size.
        clean = [
            (
                e.name, flat.load_values(e.name),
                None if e.mass == e.n_values else flat.load_counts(e.name),
            )
            for e in flat.live_entries
        ]
        for band, group in route(store, clean):
            band._stage_append(group, txn)
        # Unreferenced once the top-level manifest lands; a crash during
        # the cleanup merely leaks them.
        txn.stale.extend(root / e.shard for e in flat.entries)
        if flat.lsh_file is not None:
            txn.stale.append(root / flat.lsh_file)
    old_records = root / _flat.SHARD_DIR
    if old_records.exists() and not any(old_records.iterdir()):
        old_records.rmdir()
    return store


def _upgrade_payload(payload: dict, band_root: Path) -> Path | None:
    """Give a format-1 payload written before LSH tables or abundance
    counts the ``lsh`` block and genome ``mass`` of that time; return the
    Gram file it names (a ``gram_file``, or oldest ``gram_names`` over
    ``gram.bin``), if any."""
    defaults = {"threshold": 0.5, "fn_budget": 0.05, "file": None}
    payload["lsh"] = {**defaults, **(payload.get("lsh") or {})}
    for genome in payload["genomes"]:
        genome.setdefault("mass", genome["n_values"])
    gram = payload.get("gram_file")
    if gram is None and payload.get("gram_names") is not None:
        gram = "gram.bin"
    return None if gram is None else band_root / gram


def migrate_store(root: str | Path) -> "IndexStore | ShardedStore":
    """Upgrade a format-1 store of either layout to
    :data:`~repro.service.store.FORMAT_VERSION`, in place and one way.

    Every sketch is a pure function of the stored values, so the
    migration is one transaction that rewrites each live genome's record
    file with freshly built sketches (the one-permutation
    ``bbit_minhash`` lanes among them) and rebuilds each band's LSH
    table; the atomic manifest replacement commits it, after which the
    old files — record files, LSH tables in any layout, Gram files — are
    unlinked.  A crash before the commit leaves the format-1 store as it
    was.  A store already in the current format is opened and returned
    untouched.
    """
    root = Path(root)
    meta = read_manifest(root)
    sharded = meta.get("layout") == "sharded"
    if sharded:
        _check_sharded(root, meta)
    with _manifest_fields(root):
        shards = meta["shards"] if sharded else [{"dir": ".", "manifest": meta}]
        bands = [(root / sh["dir"], sh["manifest"]) for sh in shards]
        found = {payload.get("format_version") for _, payload in bands}
        if found == {FORMAT_VERSION}:
            return open_store(root)
        if not found <= {1, FORMAT_VERSION}:
            raise StoreError(
                f"{root / MANIFEST_NAME}: cannot migrate store format(s) "
                f"{sorted(map(repr, found))}"
            )
        grams = [
            _upgrade_payload(payload, band_root)
            for band_root, payload in bands
            if payload.get("format_version") == 1
        ]
        store = (ShardedStore if sharded else IndexStore)._from_payload(root, meta)
    with transaction(store) as txn:
        for band in store._bands:
            band._stage_resketch(txn)
        txn.stale.extend(gram for gram in grams if gram is not None)
    return store
