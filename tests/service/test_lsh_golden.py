"""Golden answers of the LSH-backed cascade, asserted with ``==``.

First recorded at the commit before the key-matrix table; re-recorded
once when the ``bbit_minhash`` lanes became one-permutation bins
(store format 2), which changes every stored lane fingerprint and so
every band key.  At that re-record every ``lsh_exact`` match list and
``n_after_size`` / ``n_verified`` stayed equal; only ``n_after_lsh``,
the modelled ``simulated_seconds`` and, in one ``lsh`` row per
scenario, which match below the 0.5 planning threshold the probe misses
moved (62 and 63 ``lsh`` matches before and after, as at the previous
record).

The table representation, its file layout and the probe are free to
change; what a query reports is not.  For one flat and one 3-band
sharded store the funnel counters, the exact match list and the
modelled ``simulated_seconds`` of 20 threshold + 5 top-k queries are
pinned under ``query.candidates = lsh`` and ``lsh_exact``, before and
after an add + remove + compact.  The corpus comes from an integer LCG,
not a NumPy generator, so the table does not depend on the NumPy
version.

Re-record (only when an answer is *meant* to change):
``PYTHONPATH=src python tests/service/test_lsh_golden.py``.
"""

import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SimilarityConfig
from repro.service import SimilarityService

M = 50_000
GOLDEN = Path(__file__).resolve().parent.parent / "data" / "lsh_golden.json"
FAMILY_SIZES = (30, 60, 90, 150, 220, 300, 400, 500, 600)
THRESHOLDS = (0.3, 0.5, 0.7)


def _lcg(seed: int):
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 33


def _variant(base: list[int], draw, keep_per_8: int) -> np.ndarray:
    """``base`` with ~``keep_per_8``/8 of its values kept and the rest redrawn."""
    vals = [v if next(draw) % 8 < keep_per_8 else next(draw) % M for v in base]
    return np.unique(np.array(vals, dtype=np.int64))


def corpus():
    """``(stored, late, queries)``: families of mutated copies of one base
    set per size class, three later additions and 25 query sets."""
    draw = _lcg(20)
    stored, late, queries = [], [], []
    for fam, size in enumerate(FAMILY_SIZES):
        base = [next(draw) % M for _ in range(size)]
        for copy in range(4):
            stored.append((f"f{fam}c{copy}", _variant(base, draw, 7)))
        if fam % 3 == 0:
            late.append((f"f{fam}late", _variant(base, draw, 7)))
        for _ in range(3 if fam < 7 else 2):
            queries.append(_variant(base, draw, 6 + len(queries) % 2))
    return stored, late, queries


def _ask(root: Path, queries) -> dict:
    out = {}
    for candidates in ("lsh", "lsh_exact"):
        service = SimilarityService.open(
            root, config=SimilarityConfig(query_candidates=candidates, query_cache_size=0)
        )
        rows = []
        for i, vals in enumerate(queries):
            if i < 20:
                result = service.query(values=vals, threshold=THRESHOLDS[i % 3])
            else:
                result = service.query(values=vals, top_k=3)
            rows.append(
                [
                    result.n_after_lsh,
                    result.n_after_size,
                    result.n_verified,
                    [[m.name, m.index, repr(m.similarity)] for m in result.matches],
                    repr(result.simulated_seconds),
                ]
            )
        out[candidates] = rows
    return out


LAYOUTS = {"flat": 1, "sharded3": 3}


def scenario(tmp: Path, layout: str) -> dict:
    """``{"before": ..., "after": ...}`` for one store layout."""
    stored, late, queries = corpus()
    root = tmp / layout
    service = SimilarityService.create(
        root,
        M,
        config=SimilarityConfig(store_shards=LAYOUTS[layout], shard_band_policy="quantile"),
        size_hint=np.array([v.size for _, v in stored], dtype=np.int64),
    )
    service.add(stored[:20])
    service.add(stored[20:])
    table = {"before": _ask(root, queries)}
    service.add(late)
    service.remove("f4c1")
    service.remove("f0c0")
    service.compact()
    table["after"] = _ask(root, queries)
    return table


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_answers_equal_the_recorded_parent(tmp_path, layout):
    golden = json.loads(GOLDEN.read_text())[layout]
    got = scenario(tmp_path, layout)
    for moment in ("before", "after"):
        for candidates in ("lsh", "lsh_exact"):
            rows = golden[moment][candidates]
            assert len(rows) == 25 and any(row[3] for row in rows)
            assert got[moment][candidates] == rows, (moment, candidates)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        recorded = {layout: scenario(Path(scratch), layout) for layout in sorted(LAYOUTS)}
    # One query per line, so a re-record diffs by query.
    text = json.dumps(recorded, indent=1)
    text = re.sub(r"\n {4}\]", "]", re.sub(r"\n {5,}", " ", text))
    GOLDEN.write_text(text + "\n")
    sys.stdout.write(f"recorded {GOLDEN}\n")
