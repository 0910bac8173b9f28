"""Versioned on-disk similarity index store (the persistence layer).

The serving layer persists the genomes, not a similarity matrix: the
all-pairs result is an on-demand read of the batch engine over the
stored sets (``SimilarityService.all_pairs``), so no mutation pays for
it.  An :class:`IndexStore` is a directory holding

* ``manifest.json`` — format version, a monotonically increasing
  **store version** (bumped on every mutation; query caches key on it),
  the attribute-space size ``m``, the wire-codec policy, the sketch
  configuration, arbitrary metadata (e.g. ``k`` for genomic stores),
  and one entry per genome (name, shard file, exact distinct-value
  count, total mass, tombstone flag);
* ``shards/<id>.bin`` — one shard per genome: the genome's sorted
  attribute values (its packed indicator column) followed by its
  sketches, each persisted as a **codec frame** from
  :mod:`repro.runtime.codec` — the store rides the exact varint / RLE /
  adaptive policies the wire uses, so a sorted k-mer column is stored
  delta+varint-compressed, not raw;
* ``lsh-<version>.bin`` — when the ``bbit_minhash`` family is stored,
  the banded LSH table of :mod:`repro.service.lsh` over the live
  genomes: three records — header, planning parameters and the
  ``uint64[n_live, bands]`` band-key matrix, stored raw (hash keys do
  not compress) — maintained incrementally on ``append_many`` /
  ``remove`` and rebuilt from the stored fingerprints on ``compact``.

Shard files are sequences of length-prefixed frame records
(``<u64 little-endian frame length><frame bytes>``); the frame headers
are self-describing, so a shard can be decoded with no side channel
beyond the record order, which is fixed per store (values first, then
one sketch per configured family).

``remove`` only tombstones an entry (and drops its LSH row);
``compact`` rewrites the store without the tombstoned shards.  Only
format 2 opens, strictly: a manifest field it lacks is malformed, and
what older releases wrote differently is left to
:func:`~repro.service.sharded.migrate_store`.

The write path is one for both layouts (:mod:`repro.service.sharded`
adds only size-band routing and its top-level genome list):
:func:`validate_add` is the only place an add batch is normalised and
checked; :func:`route` groups it by owning band (a flat store is the
one-band case); the *staged operations* (``IndexStore._stage_append`` /
``_stage_remove`` / ``_stage_compact``) write fresh version-stamped
files, update the in-memory state and register the files they
supersede, never a manifest; and :func:`transaction` is the one scope
they run in.  Every mutation — ``append_many`` / ``remove`` /
``compact``, the ``shard_store`` migration — is a composition of staged
operations inside one such scope; ``append_many`` and ``remove`` read
no other genome's values.

Concurrency: the scope and :meth:`IndexStore.snapshot` hold the same
re-entrant lock(s), so a snapshot never observes a half-applied batch.
A :class:`StoreSnapshot` is the frozen view a query batch runs
against: shard files are append-only and immutable, so a snapshot stays
readable after later appends — only ``compact`` (which unlinks shards)
invalidates older snapshots, and running it with queries in flight is
unsupported.  A record file name is never reused once committed, so
each snapshot takes what the store's previous one decoded (value
columns, counts and sketch rows) by shard name: the first read after a
mutation decodes only the new shards, the first after ``open`` all.

Crash consistency: every file lands via write-to-temp + ``os.replace``
(:func:`_atomic_write_bytes`) under a *fresh name*, and the scope
commits by bumping the version of the store (and of each touched band)
by one and atomically replacing **one** manifest — the store's own, or
a sharded store's top-level one, whose bands write none — before it
unlinks the superseded files.  An interrupted write anywhere leaves the
previous manifest referencing only fully-written files, so the store
reopens at the previous version with no torn state, and the live
objects are rolled back *in place* (fault-injected at every write of
every mutation in ``tests/service/test_store.py``).  A crash during the
cleanup merely leaks an unreferenced file.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import weakref
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.core.sketch import (
    BOTTOM_S_FAMILIES,
    SKETCH_ESTIMATORS,
    PostingIndex,
    estimate_rows,
    make_sketch,
    pack_lanes,
    stack_payloads,
)
from repro.runtime.codec import WIRE_CODECS, decode_frame, encode_frame
from repro.semantics.weighted import coerce_counts
from repro.semantics.wminhash import (
    WEIGHTED_MINHASH_FAMILY,
    WeightedMinHashSketch,
)
from repro.service.errors import StoreError
from repro.service.lsh import BandPlan, LSHTable, plan_bands, read_header
from repro.util.arrays import sorted_unique

__all__ = [
    "GenomeEntry",
    "IndexStore",
    "RankSpace",
    "StoreError",
    "StoreSnapshot",
]

MANIFEST_NAME = "manifest.json"
SHARD_DIR = "shards"

#: The sketch family whose stored lane fingerprints the banded LSH
#: table (:mod:`repro.service.lsh`) is built over.
LSH_FAMILY = "bbit_minhash"

#: Families a store may persist: the core sketch estimators plus the
#: opt-in weighted-MinHash family (built from abundance counts at
#: append time; see :mod:`repro.semantics.wminhash`).
STORE_FAMILIES = SKETCH_ESTIMATORS + (WEIGHTED_MINHASH_FAMILY,)

#: On-disk layout revision of the store itself (not the store version).
#: Format 2 stores one-permutation ``bbit_minhash`` lanes, and LSH keys
#: over them; a format-1 store opens only after :func:`migrate_store
#: <repro.service.sharded.migrate_store>` re-sketched it.
FORMAT_VERSION = 2

_LEN = struct.Struct("<Q")


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write a file so it is either fully present or not (crash-safe).

    Bytes land in a same-directory temp file, fsync'd, then renamed
    over the target: a crash mid-write leaves only the temp file, never
    a torn target.  This is the single byte sink of every store write
    (shards, LSH tables, the manifest) — the fault-injection tests
    monkeypatch it.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _manifest_bytes(payload: dict) -> bytes:
    """A manifest payload as a commit writes it: compact JSON, which
    keeps ``json`` on its C encoder (``indent`` forces the Python one)."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def read_manifest(root: Path) -> dict:
    """The parsed manifest of the store at ``root``: the one manifest
    reader of every opener, flat or sharded.

    Raises :class:`StoreError` naming the file when it is missing,
    unreadable, not UTF-8 JSON, or anything but a JSON object.
    """
    manifest = root / MANIFEST_NAME
    if not manifest.exists():
        raise StoreError(f"no index store at {root}")
    try:
        meta = json.loads(manifest.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise StoreError(f"{manifest}: unreadable manifest ({exc})") from None
    if not isinstance(meta, dict):
        raise StoreError(f"{manifest}: manifest is a JSON {type(meta).__name__}, not an object")
    return meta


def check_format(root: Path, payload: dict) -> None:
    """:class:`StoreError` unless a flat manifest, or a band payload
    embedded in ``root``'s sharded one, is in :data:`FORMAT_VERSION`
    and, holding the :data:`LSH_FAMILY`, names its table file; a
    format-1 payload names the migration that upgrades it."""
    found = payload.get("format_version")
    if found == FORMAT_VERSION:
        if LSH_FAMILY in payload["families"] and payload["lsh"]["file"] is None:
            raise StoreError(
                f"{root / MANIFEST_NAME}: malformed manifest (a {LSH_FAMILY} "
                "store names no LSH table file)"
            )
        return
    if found == 1:
        raise StoreError(
            f"{root / MANIFEST_NAME}: store format 1 predates the one-permutation "
            f"bbit_minhash lanes of format {FORMAT_VERSION}; upgrade it once with "
            f"`genome-at-scale index migrate --index {root}` "
            "(repro.service.migrate_store)"
        )
    raise StoreError(
        f"{root / MANIFEST_NAME}: unsupported store format {found!r} (expected {FORMAT_VERSION})"
    )


@contextmanager
def _manifest_fields(root: Path):
    """Report a missing or mistyped field read from ``root``'s manifest
    inside the block as a :class:`StoreError` naming the file."""
    try:
        yield
    except StoreError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StoreError(
            f"{root / MANIFEST_NAME}: malformed manifest ({type(exc).__name__}: {exc})"
        ) from None


# ---- length-prefixed frame records ---------------------------------------


def write_records(path: Path, payloads: list, policy: str) -> int:
    """Encode each payload as a codec frame; write length-prefixed records.

    Returns the number of bytes written.  ``policy`` is a
    :data:`~repro.runtime.codec.WIRE_CODECS` name; ``"raw"`` stores
    unencoded frames (still self-describing).  The write is atomic —
    the file appears fully written or not at all.
    """
    blob = bytearray()
    for payload in payloads:
        frame = encode_frame(payload, policy)
        blob += _LEN.pack(frame.nbytes)
        blob += frame.data
    _atomic_write_bytes(path, bytes(blob))
    return len(blob)


def _decode_record(path: Path, offset: int, body: bytes) -> np.ndarray:
    """One record's frame as an array; :class:`StoreError` naming the
    file unless it decodes to one (every store record is an array)."""
    try:
        payload = decode_frame(body)
    except ValueError as exc:  # a CodecError included
        raise StoreError(f"{path}: unreadable record at {offset}: {exc}") from None
    if not isinstance(payload, np.ndarray):
        raise StoreError(f"{path}: the record at {offset} holds no array")
    return payload


def read_records(path: Path) -> list:
    """Decode every length-prefixed frame record of a shard file (every
    store file holds at least one)."""
    blob = path.read_bytes()
    if not blob:
        raise StoreError(f"{path}: holds no record")
    out = []
    offset = 0
    while offset < len(blob):
        if offset + _LEN.size > len(blob):
            raise StoreError(f"{path}: truncated record length at {offset}")
        (length,) = _LEN.unpack_from(blob, offset)
        offset += _LEN.size
        if offset + length > len(blob):
            raise StoreError(f"{path}: truncated record body at {offset}")
        out.append(_decode_record(path, offset, blob[offset : offset + length]))
        offset += length
    return out


def read_record(path: Path, index: int):
    """Decode only record ``index``, seeking past earlier records unread.

    The length prefixes make skipping free — loading one genome's
    sketch payload does not pay for decoding its (much larger) value
    column.
    """
    with path.open("rb") as f:
        size = os.fstat(f.fileno()).st_size
        offset = 0
        for position in range(index + 1):
            header = f.read(_LEN.size)
            if len(header) < _LEN.size:
                raise StoreError(
                    f"{path}: holds only {position} record(s), "
                    f"need index {index}"
                )
            (length,) = _LEN.unpack(header)
            offset += _LEN.size
            # Checked before seeking or reading: a corrupt prefix must
            # not turn into a huge seek or allocation.
            if offset + length > size:
                raise StoreError(f"{path}: truncated record body at {offset}")
            if position < index:
                f.seek(length, 1)
                offset += length
        return _decode_record(path, offset, f.read(length))


def sketch_row(
    family: str, vals, counts, size: int, bits: int, seed: int
) -> np.ndarray:
    """Sketch one set under a stored family, as a row of the kernel's
    block layout (:func:`repro.core.sketch.estimate_rows`).

    ``counts`` (``None`` = all ones) only matter to the weighted family.
    """
    if family == WEIGHTED_MINHASH_FAMILY:
        sk = WeightedMinHashSketch(size=size, seed=seed)
        return sk.update(vals, counts).hashes
    sk = make_sketch(family, size, bits, seed).update(vals)
    if family == LSH_FAMILY:
        return sk.fingerprints()
    return sk.hashes if family == "minhash" else sk.registers


def _int_array(data, what: str, error=StoreError) -> np.ndarray:
    """``data`` as a flat int64 array; ``error`` unless it is a
    one-dimensional collection of integers (no floats, bools, strings).

    The one integer check of both front doors: add items raise
    :class:`StoreError`, query values :class:`QueryError`."""
    try:
        arr = np.asarray(data if isinstance(data, np.ndarray) else list(data))
    except (TypeError, ValueError):
        raise error(f"{what} must be a collection of integers") from None
    if arr.ndim != 1:
        raise error(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _clean_item(item, m: int) -> tuple[str, np.ndarray, np.ndarray | None]:
    """Normalise and check one ``(name, values[, counts])`` add item.

    Returns ``(name, sorted unique values, counts | None)``; counts
    that carry no multiplicity (all 1) normalise to ``None`` so the
    on-disk layout of unweighted appends never changes.
    """
    if not isinstance(item, (tuple, list)) or len(item) not in (2, 3):
        raise StoreError(
            "an add item must be (name, values) or (name, values, counts)"
        )
    name, values, counts = (*item, None)[:3]
    if not isinstance(name, str) or not name:
        raise StoreError(
            f"genome name must be a non-empty str, got {name!r}"
        )
    vals = _int_array(values, f"genome {name!r} values")
    if counts is None:
        vals = sorted_unique(vals)
    else:
        try:
            vals, counts = coerce_counts(
                vals, _int_array(counts, f"genome {name!r} counts")
            )
        except ValueError as exc:
            raise StoreError(f"genome {name!r}: {exc}") from None
        if not bool((counts > 1).any()):
            counts = None
    if vals.size and (vals[0] < 0 or vals[-1] >= m):
        raise StoreError(f"genome {name!r} has values outside [0, {m})")
    return name, vals, counts


def validate_add(
    store, items
) -> list[tuple[str, np.ndarray, np.ndarray | None]]:
    """Normalise and check one add batch against ``store`` (either layout).

    The one place an add batch is validated, whichever entry point it
    came through — the twin of
    :func:`repro.service.cascade.validate_request`.  Raises
    :class:`StoreError` on the first bad item, before anything is
    written; returns clean ``(name, values, counts | None)`` triples.
    """
    clean = []
    seen = set(store.names)
    for item in items:
        triple = _clean_item(item, store.m)
        if triple[0] in seen:
            raise StoreError(f"genome {triple[0]!r} already present")
        seen.add(triple[0])
        clean.append(triple)
    return clean


def route(store, clean) -> list[tuple["IndexStore", list]]:
    """The one band router: a validated batch grouped by owning band.

    ``(band, group)`` pairs in band order, input order within a group.
    A flat store is the one-band case and owns the whole batch; a
    sharded store routes by support size and records each genome's band
    in its top-level list (rolled back with the enclosing scope).
    """
    owners = store._assign(clean)
    bands = store._bands
    return [
        (bands[b], [item for item, o in zip(clean, owners) if o == b])
        for b in sorted(set(owners))
    ]


@dataclass
class Transaction:
    """What one :func:`transaction` scope has staged so far."""

    #: Stores a staged operation mutated, by ``id`` — the commit bumps
    #: each one's version by exactly one.
    touched: dict = field(default_factory=dict)
    #: Files the staged state supersedes; unlinked after the commit.
    stale: list[Path] = field(default_factory=list)

    def touch(self, store) -> None:
        self.touched[id(store)] = store


@contextmanager
def transaction(store):
    """The one write scope of either layout, committed by one manifest.

    The body runs staged operations against ``store``'s bands (a flat
    store is its own only band).  If any touched a band, the scope bumps
    the touched bands' and the store's versions and replaces the store's
    manifest — the single atomic commit — then unlinks the superseded
    files.  On failure every store is restored in place, leaving the
    staged (unreferenced) files orphaned: exactly the state an
    interrupted process leaves, and one ``open`` reads past.
    """
    owners = [store, *(b for b in store._bands if b is not store)]
    with ExitStack() as locks:
        for owner in owners:
            locks.enter_context(owner._lock)
        saved = [(owner, owner._state()) for owner in owners]
        txn = Transaction()
        try:
            yield txn
            if txn.touched:
                txn.touch(store)
                for owner in txn.touched.values():
                    owner.version += 1
                store._save_manifest()  # the atomic replace is the commit
        except BaseException:
            for owner, state in saved:
                owner._restore(state)
            raise
        for path in txn.stale:
            path.unlink(missing_ok=True)


class _StoreAPI:
    """The public mutations, defined once for both store layouts (each
    is staged operations inside one :func:`transaction`), and the bridge
    to the batch engine."""

    def append(self, name: str, values) -> "GenomeEntry":
        """Persist one genome's values + sketches as a new shard."""
        return self.append_many([(name, values)])[0]

    def append_many(self, named_values) -> list["GenomeEntry"]:
        """Persist a batch of ``(name, values[, counts])`` items.

        The whole batch is validated (:func:`validate_add`) before any
        shard is written, so a bad genome anywhere in the list leaves
        the store untouched; one transaction, one version bump, and a
        concurrent ``snapshot`` sees either none or all of the batch.
        On a sharded store each genome routes to its size band (by
        support size, whatever its counts) and the top-level list
        records the batch in input order.

        An optional third element carries per-value abundance counts
        (the weighted-Jaccard inputs); counts with real multiplicity
        are persisted as one extra record *after* the sketch records,
        and the entry's ``mass`` records their sum.  Items without
        counts (or with all-ones counts) produce byte-identical shards
        to the pre-counts layout.
        """
        with transaction(self) as txn:
            clean = validate_add(self, named_values)
            staged = {
                entry.name: entry
                for band, group in route(self, clean)
                for entry in band._stage_append(group, txn)
            }
            return [staged[name] for name, _, _ in clean]

    def remove(self, name: str) -> None:
        """Tombstone a genome.

        The owning band's LSH table (if maintained) drops the genome's
        position incrementally — later live positions shift down by
        one, in lockstep with the live-genome order.
        """
        with transaction(self) as txn:
            self._stage_remove(name, txn)

    def compact(self) -> int:
        """Drop tombstoned shards from disk; returns shards reclaimed.

        Unlinks shard files, so older :class:`StoreSnapshot` views stop
        being readable — do not compact with queries in flight.  Each
        touched band's LSH table is rebuilt from the surviving stored
        fingerprints (equal, by canonicity, to the maintained one).
        """
        with transaction(self) as txn:
            return self._stage_compact(txn)

    def as_source(self):
        """A batched indicator source over the live genomes, in
        :attr:`names` order — what the batch engine's all-pairs run
        reads."""
        from repro.core.indicator import SetSource

        if not self.n_genomes:
            raise StoreError("index store is empty")
        return SetSource([self.load_values(n) for n in self.names], m=self.m)


@dataclass
class GenomeEntry:
    """One genome's manifest record.

    ``mass`` is the total k-mer abundance (``sum`` of the stored
    counts), the support size ``n_values`` when no abundance is stored.
    The invariant the readers rely on: a counts record exists on disk
    iff ``mass != n_values``.
    """

    name: str
    shard: str
    n_values: int
    mass: int
    removed: bool = False

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "shard": self.shard,
            "n_values": self.n_values,
            "removed": self.removed,
            "mass": self.mass,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GenomeEntry":
        return cls(
            name=str(data["name"]),
            shard=str(data["shard"]),
            n_values=int(data["n_values"]),
            removed=bool(data["removed"]),
            mass=int(data["mass"]),
        )


@dataclass
class IndexStore(_StoreAPI):
    """A directory of codec-framed genome shards plus a manifest.

    ``families`` names the sketch estimators persisted per genome (in
    shard record order, after the values record); the query engine's
    sketch prefilter can use any stored family.
    """

    root: Path
    m: int
    codec: str
    sketch_size: int
    sketch_bits: int
    sketch_seed: int
    families: tuple[str, ...]
    metadata: dict
    entries: list[GenomeEntry] = field(default_factory=list)
    version: int = 0
    next_shard: int = 0
    #: Banded-LSH planning target + false-negative budget (see
    #: :func:`repro.service.lsh.plan_bands`) and the version-stamped
    #: table artifact (``lsh-<v>.bin``); the table exists iff the
    #: :data:`LSH_FAMILY` sketches are stored.
    lsh_threshold: float = 0.5
    lsh_fn_budget: float = 0.05
    lsh_file: str | None = None
    _lsh: "LSHTable | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _lock: threading.RLock = field(
        default_factory=threading.RLock, init=False, repr=False,
        compare=False,
    )
    #: The last snapshot :meth:`snapshot` returned, weakly: the next one
    #: inherits what it decoded (see :meth:`StoreSnapshot._handoff`).
    _last: "weakref.ref[StoreSnapshot] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    # ---- lifecycle ----------------------------------------------------

    @classmethod
    def create(cls, root: str | Path, m: int, **settings) -> "IndexStore":
        """Create and commit an empty store under ``root``.

        ``settings`` are the optional ``codec``, ``sketch_size`` /
        ``sketch_bits`` / ``sketch_seed``, ``families``, ``metadata``
        and ``lsh_threshold`` / ``lsh_fn_budget`` (signature and
        defaults: :meth:`_stage_create`).
        """
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            raise StoreError(f"an index store already exists at {root}")
        store = cls._stage_create(root, m, **settings)
        store._save_manifest()
        return store

    @classmethod
    def _stage_create(
        cls,
        root: Path,
        m: int,
        codec: str = "adaptive",
        sketch_size: int = 256,
        sketch_bits: int = 8,
        sketch_seed: int = 0,
        families: tuple[str, ...] = SKETCH_ESTIMATORS,
        metadata: dict | None = None,
        lsh_threshold: float = 0.5,
        lsh_fn_budget: float = 0.05,
    ) -> "IndexStore":
        """Validate the settings and stage an empty store under ``root``
        (its directory and empty LSH table) without a manifest — the
        caller's manifest write, the store's own or a sharded parent's
        top-level one, is what commits it."""
        if m <= 0:
            raise StoreError(f"m must be positive, got {m}")
        if codec not in WIRE_CODECS:
            raise StoreError(
                f"codec must be one of {WIRE_CODECS}, got {codec!r}"
            )
        families = tuple(families)
        for fam in families:
            if fam not in STORE_FAMILIES:
                raise StoreError(
                    f"sketch family must be one of {STORE_FAMILIES}, "
                    f"got {fam!r}"
                )
        if not families:
            raise StoreError("need at least one sketch family")
        (root / SHARD_DIR).mkdir(parents=True, exist_ok=True)
        store = cls(
            root=root, m=int(m), codec=codec,
            sketch_size=int(sketch_size), sketch_bits=int(sketch_bits),
            sketch_seed=int(sketch_seed), families=families,
            metadata=dict(metadata or {}),
            lsh_threshold=float(lsh_threshold),
            lsh_fn_budget=float(lsh_fn_budget),
        )
        if LSH_FAMILY in families:
            # The banding plan is validated here (raises on a bad
            # threshold/budget) and the empty table persisted, so
            # every later mutation only maintains it.
            store._lsh = store._build_lsh()
            store.lsh_file = store._write_lsh(store._lsh, target=0)
        return store

    @classmethod
    def open(cls, root: str | Path) -> "IndexStore":
        root = Path(root)
        return cls._open(root, read_manifest(root))

    @classmethod
    def _open(cls, root: Path, meta: dict) -> "IndexStore":
        """Open ``root`` from its already-read manifest payload."""
        if meta.get("layout") == "sharded":
            raise StoreError(
                f"{root}: this is a sharded store — open it with "
                "repro.service.open_store or ShardedStore.open"
            )
        with _manifest_fields(root):
            check_format(root, meta)
            return cls._from_payload(root, meta)

    @classmethod
    def _from_payload(cls, root: Path, meta: dict) -> "IndexStore":
        """Materialize a store from an already-parsed manifest payload.

        This is how :class:`~repro.service.sharded.ShardedStore` opens
        its bands, from the payloads embedded in its top-level manifest
        (bands write no manifest of their own).
        """
        lsh = meta["lsh"]
        return cls(
            root=root,
            m=int(meta["m"]),
            codec=str(meta["codec"]),
            sketch_size=int(meta["sketch"]["size"]),
            sketch_bits=int(meta["sketch"]["bits"]),
            sketch_seed=int(meta["sketch"]["seed"]),
            families=tuple(meta["families"]),
            metadata=dict(meta["metadata"]),
            entries=[GenomeEntry.from_json(e) for e in meta["genomes"]],
            version=int(meta["version"]),
            next_shard=int(meta["next_shard"]),
            lsh_threshold=float(lsh["threshold"]),
            lsh_fn_budget=float(lsh["fn_budget"]),
            lsh_file=lsh["file"],
        )

    def _manifest_payload(self) -> dict:
        """The JSON manifest payload for the current in-memory state.

        Shared by :meth:`_save_manifest` and the sharded store, which
        embeds each band's payload inside its top-level manifest.
        """
        return {
            "format_version": FORMAT_VERSION,
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
            "genomes": [e.to_json() for e in self.entries],
            "next_shard": self.next_shard,
            "lsh": {
                "threshold": self.lsh_threshold,
                "fn_budget": self.lsh_fn_budget,
                "file": self.lsh_file,
            },
        }

    def _settings(self) -> dict:
        """The settings :meth:`_stage_create` takes besides ``m`` — what
        every band of a sharded store shares."""
        return {
            "codec": self.codec, "sketch_size": self.sketch_size,
            "sketch_bits": self.sketch_bits, "sketch_seed": self.sketch_seed,
            "families": self.families, "metadata": self.metadata,
            "lsh_threshold": self.lsh_threshold, "lsh_fn_budget": self.lsh_fn_budget,
        }

    def _save_manifest(self) -> None:
        # The atomic manifest replacement is every mutation's commit
        # point: older bytes are never partially overwritten.
        _atomic_write_bytes(
            self.root / MANIFEST_NAME, _manifest_bytes(self._manifest_payload())
        )

    # ---- the banded LSH table -----------------------------------------

    @property
    def has_lsh(self) -> bool:
        """Whether this store maintains a banded LSH table."""
        return LSH_FAMILY in self.families

    def lsh_table(self) -> "LSHTable | None":
        """The current banded LSH table (``None`` without the family).

        Loaded lazily from ``lsh-<version>.bin`` and cached; mutations
        replace the cache with the table they persist.
        """
        with self._lock:
            if self.has_lsh and self._lsh is None:
                self._lsh = self._read_lsh()
            return self._lsh

    def _lsh_plan(self) -> BandPlan:
        return plan_bands(self.lsh_threshold, self.sketch_size, self.lsh_fn_budget)

    def _read_lsh(self) -> "LSHTable":
        """The table in ``lsh_file``; :class:`StoreError` naming the file
        unless it holds exactly this store version's table."""
        path = self.root / self.lsh_file
        expected = (self._lsh_plan(), self.sketch_bits, self.sketch_seed, self.n_genomes)
        try:
            records = read_records(path)
            if read_header(records) != expected:
                raise ValueError(
                    "its header does not describe this store's plan, sketch "
                    f"configuration and {self.n_genomes} live genome(s)"
                )
            return LSHTable.from_payloads(records)
        except StoreError:
            raise
        except ValueError as exc:  # a CodecError included
            raise StoreError(f"{path}: unreadable LSH table: {exc}") from None

    def _build_lsh(self) -> "LSHTable":
        """Rebuild the table from the stored lane fingerprints."""
        return LSHTable.build(
            self._lsh_plan(),
            self.sketch_bits,
            self.sketch_seed,
            stack_payloads(
                LSH_FAMILY,
                [self.load_sketch_payload(n, LSH_FAMILY) for n in self.names],
                self.sketch_size, self.sketch_bits,
            )[0],
        )

    def _write_lsh(self, table: "LSHTable", target: int | None = None) -> str:
        """Persist a table under a fresh version-stamped name."""
        target = self.version + 1 if target is None else target
        fname = f"lsh-{target:06d}.bin"
        # Raw whatever the store's codec: the matrix is hash output.
        write_records(self.root / fname, table.to_payloads(), "raw")
        return fname

    def _stage_lsh(self, table: "LSHTable", txn: Transaction) -> None:
        """Stage a new table; the superseded file is unlinked on commit."""
        if self.lsh_file is not None:
            txn.stale.append(self.root / self.lsh_file)
        self.lsh_file = self._write_lsh(table)
        self._lsh = table

    # ---- the transaction protocol (see :func:`transaction`) -----------

    @property
    def _bands(self) -> list["IndexStore"]:
        return [self]

    def _assign(self, clean) -> list[int]:
        return [0] * len(clean)

    def _state(self) -> tuple:
        return (
            list(self.entries),
            [e.removed for e in self.entries],
            self.version,
            self.next_shard,
            self.lsh_file,
            self._lsh,
            self._last,
        )

    def _restore(self, state: tuple) -> None:
        (
            self.entries, flags, self.version, self.next_shard,
            self.lsh_file, self._lsh, self._last,
        ) = state
        for entry, removed in zip(self.entries, flags):
            entry.removed = removed

    # ---- views --------------------------------------------------------

    @property
    def names(self) -> list[str]:
        """Live genome names, in stable (append) order."""
        return [e.name for e in self.entries if not e.removed]

    @property
    def live_entries(self) -> list[GenomeEntry]:
        return [e for e in self.entries if not e.removed]

    @property
    def n_genomes(self) -> int:
        return len(self.live_entries)

    def sizes(self) -> np.ndarray:
        """Exact distinct-value counts of the live genomes, in order."""
        return np.array(
            [e.n_values for e in self.live_entries], dtype=np.int64
        )

    def masses(self) -> np.ndarray:
        """Total k-mer masses of the live genomes, in order.

        Read straight off the manifest (no shard I/O); equals
        :meth:`sizes` for genomes stored without abundance counts.
        """
        return np.array(
            [e.mass for e in self.live_entries], dtype=np.int64
        )

    def _entry(self, name: str) -> GenomeEntry:
        for e in self.entries:
            if e.name == name and not e.removed:
                return e
        raise KeyError(f"unknown genome {name!r}")

    def snapshot(self) -> "StoreSnapshot":
        """A frozen, version-consistent view of the live genomes.

        Taken under the store lock, so it never observes a mutation
        half-applied.  Because shards are append-only and immutable,
        the snapshot's reads stay valid across later ``append_many`` /
        ``remove`` calls — this is what lets a query
        batch started under version ``v`` finish correctly while the
        store has already moved on.

        The new snapshot is seeded with what the previous one decoded:
        a record file name is never reused once committed (``next_shard``
        only grows; a rolled-back staging restores the previous seed with
        the rest of the state), so a shard both hold has the same content
        and a version bump decodes only the new shards.
        """
        with self._lock:
            live = self.live_entries
            last = self._last() if self._last is not None else None
            snap = StoreSnapshot(
                root=self.root,
                m=self.m,
                version=self.version,
                names=tuple(e.name for e in live),
                shards=tuple(e.shard for e in live),
                _sizes=np.array(
                    [e.n_values for e in live], dtype=np.int64
                ),
                _masses=np.array([e.mass for e in live], dtype=np.int64),
                sketch_size=self.sketch_size,
                sketch_bits=self.sketch_bits,
                sketch_seed=self.sketch_seed,
                families=self.families,
                lsh=self.lsh_table(),
            )
            if last is not None:
                snap._seed = last._handoff()
            self._last = weakref.ref(snap)
            return snap

    def total_bytes(self) -> int:
        """On-disk footprint of the live shards (encoded frames)."""
        return sum(
            (self.root / e.shard).stat().st_size for e in self.live_entries
        )

    # ---- content ------------------------------------------------------

    def _stage_append(self, clean, txn: Transaction) -> list[GenomeEntry]:
        """Stage validated triples: one record file each (values, the
        sketches, then any counts) plus the extended LSH table."""
        if not clean:
            return []
        txn.touch(self)
        table = self.lsh_table()  # loaded before the entries change
        new_entries = []
        new_fps: list[np.ndarray] = []
        for name, vals, cnts in clean:
            shard, fps = self._write_record_file(vals, cnts)
            if fps is not None:
                new_fps.append(fps)
            entry = GenomeEntry(
                name=name, shard=shard, n_values=int(vals.size),
                mass=int(vals.size if cnts is None else cnts.sum()),
            )
            self.entries.append(entry)
            new_entries.append(entry)
        if table is not None:
            self._stage_lsh(table.with_added(new_fps), txn)
        return new_entries

    def _write_record_file(self, vals, cnts) -> tuple[str, np.ndarray | None]:
        """Write one genome's record file under a fresh name: its values,
        one sketch row per family, then any counts.  Returns the file
        name and the lane fingerprints (``None`` without the
        :data:`LSH_FAMILY`)."""
        payloads: list = [vals]
        fps = None
        for fam in self.families:
            # Stored payload = the sketch's kernel row, the b-bit lanes
            # packed.
            row = sketch_row(
                fam, vals, cnts, self.sketch_size,
                self.sketch_bits, self.sketch_seed,
            )
            if fam == LSH_FAMILY:
                fps = row
                row = pack_lanes(row, self.sketch_bits)
            payloads.append(row)
        if cnts is not None:
            payloads.append(cnts)
        shard = f"{SHARD_DIR}/{self.next_shard:06d}.bin"
        write_records(self.root / shard, payloads, self.codec)
        self.next_shard += 1
        return shard, fps

    def _stage_resketch(self, txn: Transaction) -> None:
        """Stage every live genome's record file rebuilt from its stored
        values and counts, and the LSH table rebuilt over the new lanes
        (the step :func:`~repro.service.sharded.migrate_store` runs per
        band).  The old record files go stale; a tombstoned entry keeps
        its file, which no reader opens, until ``compact``."""
        txn.touch(self)
        entries = []
        for entry in self.entries:
            if not entry.removed:
                path = self.root / entry.shard
                cnts = None
                if entry.mass != entry.n_values:
                    cnts = read_record(path, 1 + len(self.families))
                shard, _ = self._write_record_file(read_record(path, 0), cnts)
                txn.stale.append(path)
                entry = replace(entry, shard=shard)
            entries.append(entry)
        self.entries = entries
        if self.has_lsh:
            self._stage_lsh(self._build_lsh(), txn)

    def load_values(self, name: str) -> np.ndarray:
        """A genome's sorted attribute values (decoded from its shard)."""
        return read_record(self.root / self._entry(name).shard, 0)

    def load_sketch_payload(self, name: str, family: str) -> np.ndarray:
        """A genome's stored sketch payload for one family.

        Decodes only the requested record — the value column before it
        is seeked past, not decoded.
        """
        if family not in self.families:
            raise StoreError(
                f"family {family!r} not stored (store holds {self.families})"
            )
        idx = 1 + self.families.index(family)
        return read_record(self.root / self._entry(name).shard, idx)

    def load_counts(self, name: str) -> np.ndarray:
        """A genome's abundance counts, aligned with :meth:`load_values`.

        Genomes stored without counts (``mass == n_values``)
        return all-ones without touching disk; otherwise the counts
        record (the one after the sketch records) is decoded.
        """
        entry = self._entry(name)
        if entry.mass == entry.n_values:
            return np.ones(entry.n_values, dtype=np.int64)
        return read_record(
            self.root / entry.shard, 1 + len(self.families)
        )

    def _stage_remove(self, name: str, txn: Transaction) -> None:
        """Stage a tombstone and the LSH table minus its position."""
        entry = self._entry(name)
        position = self.names.index(name)
        table = self.lsh_table()
        txn.touch(self)
        if table is not None:
            self._stage_lsh(table.with_removed(position), txn)
        entry.removed = True

    def _stage_compact(self, txn: Transaction) -> int:
        """Stage the entry list without tombstones (their record files
        go stale) and the LSH table rebuilt over the survivors."""
        dead = [e for e in self.entries if e.removed]
        if not dead:
            return 0
        txn.touch(self)
        txn.stale.extend(self.root / e.shard for e in dead)
        self.entries = [e for e in self.entries if not e.removed]
        if self.has_lsh:
            self._stage_lsh(self._build_lsh(), txn)
        return len(dead)

    def summary(self) -> str:
        return (
            f"IndexStore at {self.root}: {self.n_genomes} genome(s), "
            f"m={self.m}, codec={self.codec}, "
            f"families={'/'.join(self.families)}, version={self.version}, "
            f"{self.total_bytes()} shard byte(s)"
        )


#: What one word of the packed layout's AND + popcount costs, in gathered
#: ranks.  Measured with NumPy 2.4 on a 2-core x86-64 box, universes of
#: 1e3-4e5 values: 2.5-3.7 ns a word against 2.5-3.4 ns a rank, once a
#: request touches more than ~1e5 of either.
PACKED_WORD_COST = 1.25

#: Bits of packed rows built per step.  A step per genome pays ~7 us of
#: call overhead a row (13x slower on a 27-row, 6-word layout); one step
#: for all of them needs index temporaries of ``nnz`` entries.
PACK_CHUNK_BITS = 1 << 18


@dataclass(eq=False)
class RankSpace:
    """One store version as a filtered indicator matrix, in CSC form.

    ``universe`` is the sorted set of values some live genome holds —
    the paper's zero-row filter: a value outside it cannot contribute to
    any intersection.  ``ranks[offsets[i]:offsets[i + 1]]`` are the rows
    (positions in ``universe``) of live genome ``i``'s values, in value
    order, so ``universe[ranks[lo:hi]]`` is the genome's stored value
    column.  ``counts`` is the aligned abundance column, ``None`` when
    every genome's mass equals its size.  ``lut`` is the value -> rank
    table (``-1`` = not in the universe) when the ranks came from a
    counting pass over ``[0, m)``, ``None`` when they came from a sort.

    The same matrix has a second, derived exact layout, ``_rows``:
    packed bit rows, one ``⌈U/64⌉``-word ``uint64`` row per genome, bit
    ``r`` set iff the genome holds rank ``r``.  :meth:`intersections`
    builds it lazily, at most once, under the rank space's lock, and
    only when it is no larger than the rank column
    (``n·⌈U/64⌉ <= nnz / 2``: its 8-byte words take no more bytes than
    the ``int32`` ranks) and the gathers it would have replaced have
    touched ``nnz`` ranks — it has paid for one full pass before it is
    bought (ski rental).
    """

    universe: np.ndarray
    ranks: np.ndarray
    offsets: np.ndarray
    counts: np.ndarray | None
    lut: np.ndarray | None
    _rows: np.ndarray | None = field(default=None, repr=False)
    _gathered: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def from_columns(
        cls, m: int, flat: np.ndarray, offsets: np.ndarray, counts
    ) -> "RankSpace":
        """Rank the concatenated value columns ``flat`` (values in
        ``[0, m)``).  A counting pass when ``m <= len(flat)``, else a
        sort; both give the same ``(universe, ranks)``."""
        if m <= flat.size:
            present = np.zeros(m, dtype=bool)
            present[flat] = True
            lut = np.cumsum(present, dtype=np.int32) - 1
            lut[~present] = -1
            universe = np.flatnonzero(present)
            ranks = np.take(lut, flat)
        else:
            lut = None
            universe = sorted_unique(flat)
            ranks = np.searchsorted(universe, flat).astype(np.int32)
        return cls(universe, ranks, offsets, counts, lut)

    @property
    def build_flops(self) -> float:
        """Modelled cost of :meth:`from_columns`: one pass over the
        values plus the counting pass over ``[0, m)`` or the sort."""
        nnz = float(self.ranks.size)
        if self.lut is not None:
            return nnz + float(self.lut.size)
        return nnz + nnz * float(np.log2(max(nnz, 2.0)))

    @property
    def words(self) -> int:
        """``⌈U/64⌉``, the length of one packed bit row."""
        return -(-self.universe.size // 64)

    def column(self, i: int) -> slice:
        """The slice of genome ``i``'s entries in ``ranks`` / ``counts``."""
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def intersections(self, vals, q_counts, cand: np.ndarray) -> np.ndarray:
        """Exact ``|Q ∩ C|`` of one query against each genome of ``cand``
        (``Σ min`` of the abundances when ``q_counts`` is not ``None``).

        The query's values are mapped to ranks (values outside the
        universe dropped).  An unweighted request whose candidates'
        packed rows cost fewer words than the ranks a gather would touch
        (``len(cand)·⌈U/64⌉·PACKED_WORD_COST < Σ lens``) ANDs the
        query's packed row into theirs and popcounts — the paper's
        Eq. 7 for one query row.  Every other request scatters the query
        into a ``[U]`` scratch column, gathers the candidates' rank
        slices — one per run of consecutive positions in the sorted
        ``cand`` — from it and sums them per candidate.
        """
        lens = self.offsets[cand + 1] - self.offsets[cand]
        inter = np.zeros(cand.size, dtype=np.int64)
        if not lens.any():  # also the only case with an empty universe
            return inter
        if self.lut is not None:
            q_ranks = np.take(self.lut, vals)
            keep = q_ranks >= 0
        else:
            q_ranks = np.searchsorted(self.universe, vals)
            keep = self.universe[np.minimum(q_ranks, self.universe.size - 1)] == vals
        q_ranks = q_ranks[keep]
        if q_counts is None:
            rows = self._packed(cand.size, int(lens.sum()))
            if rows is not None:
                hits = np.take(rows, cand, axis=0)
                np.bitwise_and(hits, self._pack(q_ranks), out=hits)
                return np.bitwise_count(hits).sum(axis=1, dtype=np.int64)
            scratch = np.zeros(self.universe.size, dtype=np.uint8)
            scratch[q_ranks] = 1
        else:
            scratch = np.zeros(self.universe.size, dtype=np.int64)
            scratch[q_ranks] = q_counts[keep]
        edges = [0, *(np.flatnonzero(np.diff(cand) != 1) + 1).tolist(), cand.size]
        off = self.offsets
        runs = [(off[cand[a]], off[cand[b - 1] + 1]) for a, b in zip(edges, edges[1:])]

        def gather(column: np.ndarray) -> np.ndarray:
            parts = [column[lo:hi] for lo, hi in runs]
            return parts[0] if len(parts) == 1 else np.concatenate(parts)

        hits = np.take(scratch, gather(self.ranks))
        if q_counts is not None:
            hits = np.minimum(hits, 1 if self.counts is None else gather(self.counts))
        # reduceat returns one element, not 0, for an empty segment, and
        # an empty last segment's start is out of range: sum the
        # non-empty candidates only (their starts strictly increase).
        filled = lens > 0
        starts = np.cumsum(lens) - lens
        inter[filled] = np.add.reduceat(hits, starts[filled], dtype=np.int64)
        return inter

    def _packed(self, n_cand: int, touched: int) -> np.ndarray | None:
        """The packed rows when ANDing ``n_cand`` of them beats gathering
        ``touched`` ranks, else ``None`` (gather).

        Never built when larger than the rank column.  A wide request
        that finds them unbuilt gathers and counts ``touched``; the first
        one to find ``nnz`` ranks counted builds them, under the lock.
        """
        words = self.words
        if n_cand * words * PACKED_WORD_COST >= touched:
            return None
        if self._rows is None:
            if 2 * (self.offsets.size - 1) * words > self.ranks.size:
                return None
            with self._lock:
                if self._rows is None:
                    if self._gathered < self.ranks.size:
                        self._gathered += touched
                        return None
                    self._rows = self._pack_rows()
        return self._rows

    def _pack(self, ranks: np.ndarray) -> np.ndarray:
        """One packed bit row: bit ``r % 64`` of word ``r // 64`` is set
        iff ``r`` is in ``ranks``; the bits past ``U`` stay zero."""
        bits = np.zeros(self.words * 64, dtype=bool)
        bits[ranks] = True
        return np.packbits(bits, bitorder="little").view("<u8")

    def _pack_rows(self) -> np.ndarray:
        """The ``[n, words]`` packed layout, built a chunk of genomes at a
        time: the temporaries hold ``PACK_CHUNK_BITS`` bits (or one
        row's), never the rank column's ``nnz`` entries."""
        n, words, off = self.offsets.size - 1, self.words, self.offsets
        width = 64 * words
        rows = np.empty((n, words), dtype=np.uint64)
        step = max(1, PACK_CHUNK_BITS // width)
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            bits = np.zeros((hi - lo) * width, dtype=bool)
            row_starts = np.repeat(np.arange(0, bits.size, width), np.diff(off[lo : hi + 1]))
            bits[row_starts + self.ranks[off[lo] : off[hi]]] = True
            rows[lo:hi] = np.packbits(bits, bitorder="little").view("<u8").reshape(hi - lo, words)
        return rows


@dataclass
class StoreSnapshot:
    """An immutable view of one store version's live genomes.

    Carries everything the query cascade reads — names, shard paths,
    exact sizes, the sketch configuration — captured atomically under
    the store lock.  Reads go to the same immutable shard files, and
    everything derived from them (the name -> position map, the
    rank-space matrix of the stored values and counts, the decoded
    sketch rows, their stacked block and posting indexes, the
    extent-sorted order the window stage searches) is built lazily and
    memoized here: an engine pins one snapshot per store version, so the
    snapshot *is* the per-version cache and never needs invalidation.

    It also seeds its successor.  ``_seed`` holds what the store's
    previous snapshot decoded — its rank space with its shard names,
    and its decoded sketch rows by shard name — never that snapshot
    itself, so snapshots form no chain.  A build takes a shard's column
    or row from the seed when the seed holds that shard and decodes
    only the others; each seed part is dropped once the part built from
    it is.
    """

    root: Path
    m: int
    version: int
    names: tuple[str, ...]
    shards: tuple[str, ...]
    _sizes: np.ndarray
    #: Per-genome total masses (see :attr:`GenomeEntry.mass`).
    _masses: np.ndarray
    sketch_size: int
    sketch_bits: int
    sketch_seed: int
    families: tuple[str, ...]
    #: The banded LSH table of this version's live genomes (``None``
    #: when the store holds no :data:`LSH_FAMILY` sketches).  Tables
    #: are immutable value objects, so the snapshot stays frozen while
    #: the store's own table moves on.
    lsh: "LSHTable | None" = None
    #: ``(rank, rows)``: ``rank`` is ``(shards, RankSpace)`` or ``None``,
    #: ``rows`` maps a family to ``{shard: decoded row}``.
    _seed: tuple = field(default_factory=lambda: (None, {}), repr=False, compare=False)
    _decoded: dict = field(default_factory=dict, repr=False, compare=False)
    _payloads: dict = field(default_factory=dict, repr=False, compare=False)
    _orders: dict = field(default_factory=dict, repr=False, compare=False)
    _postings: dict = field(default_factory=dict, repr=False, compare=False)
    _ranked: RankSpace | None = field(default=None, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def n_genomes(self) -> int:
        return len(self.names)

    def sizes(self) -> np.ndarray:
        return self._sizes

    def masses(self) -> np.ndarray:
        return self._masses

    @cached_property
    def positions(self) -> dict[str, int]:
        """Live name -> store position."""
        return {name: i for i, name in enumerate(self.names)}

    def _position(self, name: str) -> int:
        try:
            return self.positions[name]
        except KeyError:
            raise KeyError(
                f"unknown genome {name!r} at version {self.version}"
            ) from None

    def extent_order(self, by_mass: bool) -> tuple[np.ndarray, np.ndarray, bool]:
        """The genomes' stable argsort by extent (support size, or total
        mass when ``by_mass``) and the extents in that order.

        The third element says whether this call built the order — the
        cascade charges the sort to the ledger exactly then, so racing
        first queries build it under the snapshot's lock.
        """
        with self._lock:
            built = by_mass not in self._orders
            if built:
                extents = self._masses if by_mass else self._sizes
                order = np.argsort(extents, kind="stable")
                self._orders[by_mass] = (order, extents[order])
            return (*self._orders[by_mass], built)

    def rank_space(self) -> tuple[RankSpace, bool]:
        """The live genomes' values (and counts) as a :class:`RankSpace`.

        Built once per snapshot under its lock, however many threads ask
        at once; the second element says whether this call built it —
        the cascade charges the build to the ledger exactly then.
        """
        with self._lock:
            built = self._ranked is None
            if built:
                self._ranked = self._build_rank_space()
                self._seed = (None, self._seed[1])
            return self._ranked, built

    def _handoff(self) -> tuple:
        """The seed of the store's next snapshot: each part this snapshot
        has built, else the part it was seeded with."""
        rank, rows = self._seed
        if self._ranked is not None:
            rank = (self.shards, self._ranked)
        return rank, {**rows, **self._decoded}

    def _build_rank_space(self) -> RankSpace:
        """Fill one column with each genome's values (and counts, where a
        mass differs from its size): copied from the seeded rank space
        when it holds the genome's shard, else decoded from its record."""
        offsets = np.zeros(self.n_genomes + 1, dtype=np.int64)
        np.cumsum(self._sizes, out=offsets[1:])
        flat = np.empty(int(offsets[-1]), dtype=np.int64)
        weighted = self._masses != self._sizes
        counts = np.ones(flat.size, dtype=np.int64) if weighted.any() else None
        old_shards, old = self._seed[0] or ((), None)
        held = {shard: j for j, shard in enumerate(old_shards)}

        def fill(out: np.ndarray, i: int, index: int) -> None:
            path = self.root / self.shards[i]
            j = held.get(self.shards[i])
            if j is None:
                col = read_record(path, index)
            elif index == 0:
                col = old.universe[old.ranks[old.column(j)]]
            else:
                col = old.counts[old.column(j)]
            if col.shape != (int(self._sizes[i]),):
                raise StoreError(
                    f"{path}: record {index} holds {col.size} entries, "
                    f"the manifest says {int(self._sizes[i])}"
                )
            out[offsets[i] : offsets[i + 1]] = col

        for i in range(self.n_genomes):
            fill(flat, i, 0)
            if weighted[i]:
                fill(counts, i, 1 + len(self.families))
        if flat.size and (flat.min() < 0 or flat.max() >= self.m):
            raise StoreError(f"{self.root}: stored values outside [0, {self.m})")
        return RankSpace.from_columns(self.m, flat, offsets, counts)

    def load_values(self, name: str) -> np.ndarray:
        """A genome's sorted values, read back from :meth:`rank_space`."""
        i = self._position(name)
        space, _ = self.rank_space()
        return space.universe[space.ranks[space.column(i)]]

    def family_payloads(self, family: str) -> tuple[np.ndarray, np.ndarray]:
        """One family's stored sketches as the row kernel's stacked block.

        ``(rows, lengths)`` with one row per live genome, by position
        (see :func:`repro.core.sketch.stack_payloads`) — decoded and
        stacked once per store version, under the snapshot's lock.
        """
        with self._lock:
            if family not in self._payloads:
                self._payloads[family] = self._stack(family)
            return self._payloads[family]

    def _stack(self, family: str) -> tuple[np.ndarray, np.ndarray]:
        """Stack the family's decoded rows, memoized by shard name: a row
        the seed holds is taken from it, any other decoded from its
        record.  The caller holds the snapshot's lock."""
        if family not in self.families:
            raise StoreError(
                f"family {family!r} not stored (store holds {self.families})"
            )
        if family not in self._decoded:
            idx = 1 + self.families.index(family)
            rank, seeded = self._seed
            old = seeded.get(family, {})
            self._decoded[family] = {
                shard: old[shard] if shard in old else read_record(self.root / shard, idx)
                for shard in self.shards
            }
            self._seed = (rank, {f: r for f, r in seeded.items() if f != family})
        rows = list(self._decoded[family].values())
        try:
            return stack_payloads(family, rows, self.sketch_size, self.sketch_bits)
        except ValueError as exc:
            raise StoreError(
                f"{self.root}: stored {family!r} sketches do not stack: {exc}"
            ) from None

    def posting_index(self, family: str) -> PostingIndex:
        """A bottom-``s`` family's stored sketches as the row kernel's
        :class:`~repro.core.sketch.PostingIndex`.

        Built once per snapshot under its lock, however many threads ask
        at once, from the decoded rows :meth:`family_payloads` stacks too
        (the stacked block itself is not kept).
        """
        with self._lock:
            if family not in self._postings:
                self._postings[family] = PostingIndex.build(*self._stack(family))
            return self._postings[family]

    def sketch_estimates(
        self, family: str, query: np.ndarray, q_size: int, cand: np.ndarray
    ) -> np.ndarray:
        """The row kernel's estimates of a query — its own ``family`` row
        (:func:`sketch_row`) and exact size ``q_size`` — against the
        stored genomes at positions ``cand``: from :meth:`posting_index`
        for the bottom-``s`` families, from :meth:`family_payloads`
        otherwise."""
        sizes = self._sizes[cand]
        if family in BOTTOM_S_FAMILIES:
            return self.posting_index(family).estimate(query, q_size, cand, sizes)
        rows, _ = self.family_payloads(family)
        return estimate_rows(
            family, query, q_size, rows[cand], sizes, bits=self.sketch_bits
        )

    def load_counts(self, name: str) -> np.ndarray:
        """Abundance counts aligned with :meth:`load_values` (see
        :meth:`IndexStore.load_counts`), read back from :meth:`rank_space`."""
        i = self._position(name)
        space, _ = self.rank_space()
        if space.counts is None:
            return np.ones(int(self._sizes[i]), dtype=np.int64)
        return space.counts[space.column(i)].copy()
