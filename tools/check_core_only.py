#!/usr/bin/env python3
"""Core-only smoke: the NumPy-only install imports and runs.

``setup.py`` installs NumPy and nothing else, so ``repro.genomics``,
``repro.service`` and ``repro.analytics`` must import, and
``GenomeAtScale`` must compute a distance matrix, without networkx
(needed only to build phylogenies and graphs).
networkx is blocked in ``sys.modules`` first, so the check means the
same whether or not it happens to be installed.  The tree functions
must then raise an ``ImportError`` that names networkx.

Run:  python tools/check_core_only.py   # prints "core-only ok", exit 1 on failure

From a checkout without an install, put ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys

sys.modules["networkx"] = None  # any import of it raises ImportError

import tempfile
from pathlib import Path

import numpy as np

import repro.analytics  # noqa: F401  (imports without networkx)
import repro.service  # noqa: F401
from repro.genomics.fasta import write_fasta
from repro.genomics.phylogeny import neighbor_joining
from repro.genomics.pipeline import GenomeAtScale
from repro.genomics.sequence import SequenceRecord
from repro.genomics.simulate import random_genome, random_phylogeny


def main() -> int:
    rng = np.random.default_rng(7)
    base = random_genome(rng, 600)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i in range(3):
            path = Path(tmp) / f"s{i}.fasta"
            write_fasta(path, [SequenceRecord(f"s{i}", base[: 400 + 100 * i])])
            paths.append(path)
        result = GenomeAtScale(k=15).run_fasta(paths, Path(tmp) / "work")
    sim = result.similarity
    if sim.shape != (3, 3) or not np.allclose(np.diag(sim), 1.0) or not 0 < sim[0, 2] < 1:
        print(f"core-only: wrong similarity matrix\n{sim}", file=sys.stderr)
        return 1
    trees = {
        "GenomeAtScaleResult.tree": result.tree,
        "neighbor_joining": lambda: neighbor_joining(result.distance, result.names),
        "random_phylogeny": lambda: random_phylogeny(rng, ["a", "b"], 0.1),
    }
    for name, build in trees.items():
        try:
            build()
        except ImportError as exc:
            if "networkx" not in str(exc):
                print(f"core-only: {name} raised {exc!r}, not naming networkx", file=sys.stderr)
                return 1
        else:
            print(f"core-only: {name} built a tree without networkx", file=sys.stderr)
            return 1
    print("core-only ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
