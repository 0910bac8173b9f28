"""Size-banded sharded index store (horizontal partitioning layer).

The size-ratio theorem (Eq. 6: ``J(A,B) >= t`` implies
``t*|A| <= |B| <= |A|/t``) means a threshold query only ever touches a
*contiguous band* of genome sizes.  A :class:`ShardedStore` exploits
that: the corpus is partitioned by exact distinct-value count into
``n_shards`` contiguous size bands, each band a complete, self-contained
:class:`~repro.service.store.IndexStore` (its own genome records,
sketch payloads, banded LSH table, and Gram block) under
``bands/<id>/``.  A threshold query maps its size-ratio window onto the
band edges and fans out only over the overlapping shards — the serving
analogue of the 1-D all-pairs distribution of Özkural & Aykanat — and
an incremental ``add_genomes`` routes each new genome to its band, so
only the touched bands recompute border blocks.

On-disk layout::

    root/
      manifest.json     <- top level: format_version 2, layout "sharded"
      bands/000/         <- one complete IndexStore per size band
        manifest.json
        shards/...
        gram-*.bin
        lsh-*.bin
      bands/001/
        ...

Band edges are **upper-exclusive** distinct-value counts, one per
shard; the last edge is ``m + 1``, so every possible size lands in
exactly one band (``band_of``).  :func:`plan_size_bands` plans the
edges under one of :data:`~repro.core.config.SHARD_BAND_POLICIES`.

Crash consistency (the same contract as the flat store, now two-level):
the **top-level manifest embeds every band's full manifest payload**,
and its atomic replacement is the *only* durable commit point.  A
mutation first commits each touched band (the band's own manifest bump,
with cleanup of its superseded files *deferred* via
``IndexStore._defer_cleanup``), then bumps the top-level manifest;
only after that commit are the deferred stale files unlinked.  A crash
between a band's commit and the top-level bump therefore leaves a
top-level manifest whose embedded payloads still describe the previous
version of every band — and since the band's superseded files were not
unlinked, ``ShardedStore.open`` reconstructs every band at the
committed version from the embedded payloads alone, ignoring the
band's own (ahead) manifest file.  Fault-injected in
``tests/service/test_store.py``.

Migration: :func:`shard_store` upgrades a v1 single-directory store
in place — the band stores are built fully (values, sketches, LSH, and
the Gram sliced exactly per band from the flat store's current Gram),
then one atomic top-level manifest replacement commits the new layout
and the old flat artifacts are unlinked.  An interrupted migration
leaves the v1 store intact (plus an unreferenced ``bands/`` tree that
a retry rebuilds).  :func:`open_store` dispatches on the manifest, so
callers open either layout transparently.
"""

from __future__ import annotations

import json
import shutil
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import SHARD_BAND_POLICIES
from repro.core.sketch import SKETCH_ESTIMATORS
from repro.service import store as _flat
from repro.service.errors import StoreError
from repro.service.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    GenomeEntry,
    IndexStore,
    _normalize_item,
)

__all__ = [
    "BAND_DIR",
    "SHARDED_FORMAT_VERSION",
    "ShardedEntry",
    "ShardedStore",
    "open_store",
    "plan_size_bands",
    "shard_store",
]

#: Directory (under the store root) holding one IndexStore per band.
#: Distinct from the flat store's ``shards/`` record directory, so a
#: band tree can coexist with a v1 store mid-migration.
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
    ``"uniform"`` uses equal-width bands; ``"quantile"`` places the
    edges at equal-count quantiles of ``sizes`` (the observed corpus),
    which is the only policy that guarantees balanced shards when the
    corpus sizes are concentrated.
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
    elif policy == "uniform":
        interior = [
            int(round((i + 1) * m / n_bands)) for i in range(n_bands - 1)
        ]
    else:  # quantile
        if sizes is None or len(sizes) == 0:
            raise StoreError(
                "quantile banding needs observed sizes "
                "(pass a size sample, or use geometric/uniform)"
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


@dataclass
class ShardedStore:
    """A size-banded collection of :class:`IndexStore` shards.

    Mirrors the flat store's mutation API (``append_many`` / ``remove``
    / ``compact``) and read API (``names`` / ``sizes`` / ``load_*``),
    routing by size band; every mutation is one two-level transaction
    committed by the atomic top-level manifest replacement (see the
    module docstring for the crash contract).
    """

    root: Path
    m: int
    codec: str
    sketch_size: int
    sketch_bits: int
    sketch_seed: int
    families: tuple[str, ...]
    metadata: dict
    band_policy: str
    band_edges: np.ndarray
    shards: list[IndexStore]
    genomes: list[ShardedEntry] = field(default_factory=list)
    version: int = 0
    lsh_threshold: float = 0.5
    lsh_fn_budget: float = 0.05
    _lock: threading.RLock = field(
        default_factory=threading.RLock, init=False, repr=False,
        compare=False,
    )

    # ---- lifecycle ----------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | Path,
        m: int,
        shards: int,
        band_policy: str = "geometric",
        codec: str = "adaptive",
        sketch_size: int = 256,
        sketch_bits: int = 8,
        sketch_seed: int = 0,
        families: tuple[str, ...] = SKETCH_ESTIMATORS,
        metadata: dict | None = None,
        lsh_threshold: float = 0.5,
        lsh_fn_budget: float = 0.05,
        size_hint: np.ndarray | None = None,
    ) -> "ShardedStore":
        """Create an empty sharded store with planned band edges.

        ``size_hint`` is an optional sample of expected genome sizes —
        required by the ``"quantile"`` policy, ignored by the others.
        """
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            raise StoreError(f"an index store already exists at {root}")
        edges = plan_size_bands(m, shards, band_policy, sizes=size_hint)
        bands: list[IndexStore] = []
        for i in range(shards):
            band = IndexStore.create(
                root / BAND_DIR / f"{i:03d}", m,
                codec=codec, sketch_size=sketch_size,
                sketch_bits=sketch_bits, sketch_seed=sketch_seed,
                families=families, metadata=dict(metadata or {}),
                lsh_threshold=lsh_threshold, lsh_fn_budget=lsh_fn_budget,
            )
            band._defer_cleanup = True
            bands.append(band)
        store = cls(
            root=root, m=int(m), codec=codec,
            sketch_size=int(sketch_size), sketch_bits=int(sketch_bits),
            sketch_seed=int(sketch_seed), families=tuple(families),
            metadata=dict(metadata or {}), band_policy=band_policy,
            band_edges=edges, shards=bands,
            lsh_threshold=float(lsh_threshold),
            lsh_fn_budget=float(lsh_fn_budget),
        )
        store._save_manifest()
        return store

    @classmethod
    def open(cls, root: str | Path) -> "ShardedStore":
        root = Path(root)
        manifest = root / MANIFEST_NAME
        if not manifest.exists():
            raise StoreError(f"no index store at {root}")
        meta = json.loads(manifest.read_text())
        if (
            meta.get("format_version") != SHARDED_FORMAT_VERSION
            or meta.get("layout") != "sharded"
        ):
            raise StoreError(
                f"{root}: not a sharded store "
                f"(format {meta.get('format_version')!r})"
            )
        bands: list[IndexStore] = []
        for sh in meta["shards"]:
            # The embedded payload is authoritative: a band whose own
            # manifest ran ahead of an interrupted top-level commit is
            # re-read at the committed version, zero recovery writes.
            band = IndexStore._from_payload(root / sh["dir"], sh["manifest"])
            band._defer_cleanup = True
            bands.append(band)
        lsh = meta.get("lsh") or {}
        return cls(
            root=root,
            m=int(meta["m"]),
            codec=str(meta["codec"]),
            sketch_size=int(meta["sketch"]["size"]),
            sketch_bits=int(meta["sketch"]["bits"]),
            sketch_seed=int(meta["sketch"]["seed"]),
            families=tuple(meta["families"]),
            metadata=dict(meta["metadata"]),
            band_policy=str(meta["band_policy"]),
            band_edges=np.array(meta["band_edges"], dtype=np.int64),
            shards=bands,
            genomes=[ShardedEntry.from_json(g) for g in meta["genomes"]],
            version=int(meta["version"]),
            lsh_threshold=float(lsh.get("threshold", 0.5)),
            lsh_fn_budget=float(lsh.get("fn_budget", 0.05)),
        )

    def _save_manifest(self) -> None:
        payload = {
            "format_version": SHARDED_FORMAT_VERSION,
            "layout": "sharded",
            "version": self.version,
            "m": self.m,
            "codec": self.codec,
            "sketch": {
                "size": self.sketch_size,
                "bits": self.sketch_bits,
                "seed": self.sketch_seed,
            },
            "families": list(self.families),
            "metadata": self.metadata,
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
            "lsh": {
                "threshold": self.lsh_threshold,
                "fn_budget": self.lsh_fn_budget,
            },
        }
        # The atomic top-level replacement is the ONLY durable commit
        # point of the whole two-level store (goes through the flat
        # store's byte sink so fault injection covers it too).
        _flat._atomic_write_bytes(
            self.root / MANIFEST_NAME,
            (json.dumps(payload, indent=2) + "\n").encode("utf-8"),
        )

    # ---- the two-level mutation transaction ---------------------------

    @contextmanager
    def _mutation(self):
        """Transactional multi-shard mutation scope.

        The body mutates any number of band stores (each band commit
        defers its stale-file cleanup); the top-level manifest bump is
        the single durable commit, after which every band's deferred
        stale files are drained.  On failure the top-level state rolls
        back in memory and any band that already committed is rebuilt
        from its saved manifest payload — disk may run ahead (exactly
        as after a crash), but both a reopen and a retry converge, and
        no file the rolled-back state references was unlinked.
        """
        with self._lock:
            saved_payloads = [s._manifest_payload() for s in self.shards]
            saved_genomes = list(self.genomes)
            saved_flags = [(g, g.removed) for g in self.genomes]
            saved_version = self.version
            try:
                yield
                self.version += 1
                self._save_manifest()  # the atomic two-level commit
            except BaseException:
                restored: list[IndexStore] = []
                for shard, payload in zip(self.shards, saved_payloads):
                    if shard.version != payload["version"]:
                        shard = IndexStore._from_payload(
                            shard.root, payload
                        )
                        shard._defer_cleanup = True
                    restored.append(shard)
                self.shards = restored
                self.genomes = saved_genomes
                for entry, removed in saved_flags:
                    entry.removed = removed
                self.version = saved_version
                raise
            for shard in self.shards:
                shard.drain_deferred()

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

    def band_bounds(self, band: int) -> tuple[int, int]:
        """The half-open size interval ``[lo, hi)`` of one band."""
        lo = 0 if band == 0 else int(self.band_edges[band - 1])
        return lo, int(self.band_edges[band])

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

    def sizes(self) -> np.ndarray:
        """Exact distinct-value counts, in global insertion order."""
        by_name = {
            e.name: e.n_values
            for shard in self.shards
            for e in shard.live_entries
        }
        return np.array(
            [by_name[g.name] for g in self.genomes if not g.removed],
            dtype=np.int64,
        )

    def positions(self) -> dict[str, int]:
        """Live name -> global insertion position (merge tie-break)."""
        return {name: i for i, name in enumerate(self.names)}

    def masses(self) -> np.ndarray:
        """Total k-mer masses, in global insertion order."""
        by_name = {
            e.name: e.total_mass
            for shard in self.shards
            for e in shard.live_entries
        }
        return np.array(
            [by_name[g.name] for g in self.genomes if not g.removed],
            dtype=np.int64,
        )

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

    @property
    def grams_current(self) -> bool:
        """Whether every non-empty band's stored Gram is current."""
        return all(
            shard.gram_current for shard in self.shards if shard.n_genomes
        )

    def summary(self) -> str:
        occupancy = "/".join(str(s.n_genomes) for s in self.shards)
        return (
            f"ShardedStore at {self.root}: {self.n_genomes} genome(s) in "
            f"{self.n_shards} size-banded shard(s) [{occupancy}], "
            f"m={self.m}, codec={self.codec}, "
            f"policy={self.band_policy}, version={self.version}, "
            f"{self.total_bytes()} shard byte(s)"
        )

    # ---- content ------------------------------------------------------

    def append(self, name: str, values) -> GenomeEntry:
        return self.append_many([(name, values)])[0]

    def append_many(self, named_values) -> list[GenomeEntry]:
        """Route a batch of ``(name, values[, counts])`` to its bands.

        One two-level transaction.  Validation (unique names
        store-wide, in-range values) happens before any band is
        touched; the top-level genome list records the batch in input
        order, whatever bands it scattered to.  Band routing is by
        support size regardless of counts — the abundance mass rides
        along inside the owning band's shard records.
        """
        with self._lock:
            clean: list[tuple[str, np.ndarray, np.ndarray | None]] = []
            seen = set(self.names)
            for item in named_values:
                name, vals, cnts = _normalize_item(item)
                if name in seen:
                    raise StoreError(f"genome {name!r} already present")
                seen.add(name)
                if vals.size and (vals[0] < 0 or vals[-1] >= self.m):
                    raise StoreError(
                        f"genome {name!r} has values outside [0, {self.m})"
                    )
                clean.append((name, vals, cnts))
            if not clean:
                return []
            by_name: dict[str, GenomeEntry] = {}
            with self._mutation():
                bands = sorted(
                    {self.band_of(v.size) for _, v, _ in clean}
                )
                for band in bands:
                    group = [
                        item
                        for item in clean
                        if self.band_of(item[1].size) == band
                    ]
                    for entry in self.shards[band].append_many(group):
                        by_name[entry.name] = entry
                self.genomes.extend(
                    ShardedEntry(name=n, band=self.band_of(v.size))
                    for n, v, _ in clean
                )
            return [by_name[n] for n, _, _ in clean]

    def remove(self, name: str) -> None:
        """Tombstone a genome in its band and the top-level list."""
        with self._lock:
            entry = self._entry(name)
            with self._mutation():
                self.shards[entry.band].remove(name)
                entry.removed = True

    def compact(self) -> int:
        """Per-shard compaction; returns total shards files reclaimed."""
        with self._lock:
            if not any(g.removed for g in self.genomes):
                return 0
            with self._mutation():
                reclaimed = sum(
                    shard.compact()
                    for shard in self.shards
                    if any(e.removed for e in shard.entries)
                )
                self.genomes = [g for g in self.genomes if not g.removed]
            return reclaimed


def open_store(root: str | Path) -> "IndexStore | ShardedStore":
    """Open a store of either layout, dispatching on its manifest.

    A v1 single-directory store is read in compat mode (as a plain
    :class:`IndexStore`); a v2 sharded store opens as a
    :class:`ShardedStore`.  This is the one opener the
    :class:`~repro.service.api.SimilarityService` facade uses.
    """
    root = Path(root)
    manifest = root / MANIFEST_NAME
    if not manifest.exists():
        raise StoreError(f"no index store at {root}")
    meta = json.loads(manifest.read_text())
    if meta.get("layout") == "sharded":
        return ShardedStore.open(root)
    if meta.get("format_version") == FORMAT_VERSION:
        return IndexStore.open(root)
    raise StoreError(
        f"{root}: unsupported store format "
        f"{meta.get('format_version')!r}"
    )


def shard_store(
    root: str | Path,
    shards: int,
    band_policy: str = "quantile",
) -> ShardedStore:
    """Upgrade a v1 single-directory store to a sharded store, in place.

    The band stores are built completely before anything commits: every
    live genome's values are re-appended into its band (rebuilding
    sketches and per-band LSH tables), and if the flat store holds a
    *current* Gram, each band's Gram block is sliced out of it exactly
    — no similarity is recomputed.  The atomic top-level manifest
    replacement then commits the new layout, after which the old flat
    artifacts (record files, Gram, LSH table) are unlinked.  A crash at
    any earlier point leaves the v1 store fully intact (plus an
    unreferenced ``bands/`` tree a retry clears and rebuilds).

    The default ``"quantile"`` policy plans the band edges from the
    observed corpus sizes, which keeps the shards balanced even when
    the sizes are tightly concentrated.
    """
    root = Path(root)
    manifest = root / MANIFEST_NAME
    if manifest.exists():
        meta = json.loads(manifest.read_text())
        if meta.get("layout") == "sharded":
            raise StoreError(f"{root} is already a sharded store")
    flat = IndexStore.open(root)
    names = flat.names
    sizes = flat.sizes()
    edges = plan_size_bands(
        flat.m, shards, band_policy,
        sizes=sizes if sizes.size else None,
    )
    band_tree = root / BAND_DIR
    if band_tree.exists():
        # Leftovers of an interrupted migration: unreferenced by the
        # committed v1 manifest, safe to clear and rebuild.
        shutil.rmtree(band_tree)
    bands: list[IndexStore] = []
    for i in range(shards):
        band = IndexStore.create(
            band_tree / f"{i:03d}", flat.m,
            codec=flat.codec, sketch_size=flat.sketch_size,
            sketch_bits=flat.sketch_bits, sketch_seed=flat.sketch_seed,
            families=flat.families, metadata=dict(flat.metadata),
            lsh_threshold=flat.lsh_threshold,
            lsh_fn_budget=flat.lsh_fn_budget,
        )
        band._defer_cleanup = True
        bands.append(band)
    store = ShardedStore(
        root=root, m=flat.m, codec=flat.codec,
        sketch_size=flat.sketch_size, sketch_bits=flat.sketch_bits,
        sketch_seed=flat.sketch_seed, families=flat.families,
        metadata=dict(flat.metadata), band_policy=band_policy,
        band_edges=edges, shards=bands,
        version=flat.version + 1,
        lsh_threshold=flat.lsh_threshold,
        lsh_fn_budget=flat.lsh_fn_budget,
    )
    band_names: dict[int, list[str]] = {}
    for name, size in zip(names, sizes):
        band_names.setdefault(store.band_of(int(size)), []).append(name)
    gram = flat.gram() if flat.gram_current else None
    for band, members in sorted(band_names.items()):
        bands[band].append_many(
            [(name, flat.load_values(name)) for name in members]
        )
        if gram is not None:
            inter, gram_sizes, gram_names = gram
            idx = [gram_names.index(name) for name in members]
            bands[band].set_gram(
                inter[np.ix_(idx, idx)], gram_sizes[idx], members
            )
    store.genomes = [
        ShardedEntry(name=name, band=store.band_of(int(size)))
        for name, size in zip(names, sizes)
    ]
    # The atomic replacement of the v1 manifest is the migration's
    # single commit point.
    store._save_manifest()
    for shard in bands:
        shard.drain_deferred()
    # The old flat artifacts are unreferenced now; a crash here merely
    # leaks them.
    stale = [e.shard for e in flat.entries]
    if flat.gram_file is not None:
        stale.append(flat.gram_file)
    if flat.lsh_file is not None:
        stale.append(flat.lsh_file)
    for fname in stale:
        (root / fname).unlink(missing_ok=True)
    old_records = root / _flat.SHARD_DIR
    if old_records.exists() and not any(old_records.iterdir()):
        old_records.rmdir()
    return store
