"""The on-disk sample representation of GenomeAtScale.

"GenomeAtScale includes infrastructure to produce files with a sorted
numerical representation for each data sample.  Each processor is
responsible for reading in a subset of these files, scanning through one
batch at a time." (§IV)

A :class:`SampleStore` is a directory of ``.npy`` files (one sorted
int64 k-mer-code array per sample) plus a small JSON manifest recording
``k``, canonicalization, and the sample names.  It plugs directly into
the core pipeline through :class:`~repro.core.indicator.FileSource`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.indicator import FileSource
from repro.genomics.kmer import kmer_space_size
from repro.util.arrays import sorted_unique

MANIFEST_NAME = "manifest.json"


@dataclass
class SampleStore:
    """A directory of sorted numeric sample files."""

    root: Path
    k: int
    canonical: bool
    names: list[str]

    @classmethod
    def create(
        cls, root: str | Path, k: int, canonical: bool = True
    ) -> "SampleStore":
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        store = cls(root=root, k=k, canonical=canonical, names=[])
        store._write_manifest()
        return store

    @classmethod
    def open(cls, root: str | Path) -> "SampleStore":
        root = Path(root)
        manifest = root / MANIFEST_NAME
        if not manifest.exists():
            raise FileNotFoundError(f"no sample store at {root}")
        try:
            meta = json.loads(manifest.read_text(encoding="utf-8"))
            return cls(
                root=root,
                k=int(meta["k"]),
                canonical=bool(meta["canonical"]),
                names=list(meta["names"]),
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"{manifest}: corrupt sample store manifest ({type(exc).__name__}: {exc})"
            ) from None

    def _write_manifest(self) -> None:
        payload = {"k": self.k, "canonical": self.canonical, "names": self.names}
        (self.root / MANIFEST_NAME).write_text(json.dumps(payload, indent=2))

    def _path(self, name: str) -> Path:
        return self.root / f"{name}.npy"

    # ---- content ------------------------------------------------------

    def add_sample(self, name: str, kmer_codes: np.ndarray) -> None:
        """Store one sample's sorted, deduplicated k-mer codes."""
        self.add_samples([(name, kmer_codes)])

    def add_samples(self, samples: Iterable[tuple[str, np.ndarray]]) -> None:
        """Store ``(name, codes)`` samples under one manifest commit.

        ``samples`` may be a generator: each sample file is written as it
        arrives, and the manifest — which lists every sample stored so
        far, including those before a failing one — is rewritten once.
        """
        try:
            for name, kmer_codes in samples:
                if name in self.names:
                    raise ValueError(f"sample {name!r} already present")
                codes = sorted_unique(np.asarray(kmer_codes, dtype=np.int64))
                if codes.size and (
                    codes[0] < 0 or codes[-1] >= kmer_space_size(self.k)
                ):
                    raise ValueError(
                        f"sample {name!r} has codes outside [0, 4^{self.k})"
                    )
                np.save(self._path(name), codes)
                self.names.append(name)
        finally:
            self._write_manifest()

    def load_sample(self, name: str) -> np.ndarray:
        """One sample's sorted k-mer codes; ``ValueError`` naming the
        file when it is missing or holds no readable ``.npy`` array."""
        if name not in self.names:
            raise KeyError(f"unknown sample {name!r}")
        path = self._path(name)
        try:
            return np.load(path)
        except (OSError, EOFError, ValueError) as exc:
            raise ValueError(
                f"{path}: unreadable sample file ({type(exc).__name__}: {exc})"
            ) from None

    @property
    def n_samples(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        """Attribute-space size ``4^k`` of the indicator matrix."""
        return kmer_space_size(self.k)

    def total_bytes(self) -> int:
        """On-disk footprint of all sample files."""
        return sum(self._path(n).stat().st_size for n in self.names)

    def as_source(
        self, contents: Sequence[np.ndarray] | None = None
    ) -> FileSource:
        """A batched indicator source over this store's files.

        Every file is read and validated on first use, unless
        ``contents`` hands over the arrays :meth:`add_samples` just
        stored from the caller's own, in :attr:`names` order (see
        :class:`~repro.core.indicator.FileSource`).
        """
        if not self.names:
            raise ValueError("sample store is empty")
        return FileSource(
            [self._path(n) for n in self.names], m=self.m, contents=contents
        )
