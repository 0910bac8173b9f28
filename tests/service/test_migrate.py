"""Store format 2 and the one-way ``migrate_store``.

Format 2 changed what the stored ``bbit_minhash`` payloads and the LSH
key matrix mean (one-permutation lanes), so a store written before it
is refused on open with a :class:`StoreError` naming ``index migrate``,
and :func:`~repro.service.migrate_store` re-sketches it from its stored
values.  The fixtures under ``tests/data/store_v1_*`` — one flat store
and one 2-band sharded store over eight integer-LCG genomes, one with
abundance counts and one tombstoned — were written by the last commit
before format 2, under the adaptive codec.

Re-record (only at a commit that still writes format 1):
``PYTHONPATH=src python tests/service/test_migrate.py``.
"""

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SimilarityConfig
from repro.service import SimilarityService, StoreError
from repro.service.lsh import LSHTable
from repro.service.store import read_records, write_records
from tests.helpers import legacy_payloads

M = 5_000
DATA = Path(__file__).resolve().parent.parent / "data"
LAYOUTS = {"flat": 1, "sharded": 2}
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
    """``(items, removed, queries)``: eight add items in order (the third
    carries abundance counts), the name the fixture tombstones, and
    six query sets."""
    draw = _lcg(31)
    items, queries = [], []
    for fam, size in enumerate((40, 150, 400)):
        base = [next(draw) % M for _ in range(size)]
        for copy in range(3 if fam < 2 else 2):
            items.append((f"g{fam}c{copy}", _variant(base, draw, 7)))
        queries += [_variant(base, draw, 6), _variant(base, draw, 7)]
    name, vals = items[2]
    items[2] = (name, vals, 1 + np.arange(vals.size, dtype=np.int64) % 3)
    return items, "g1c0", queries


def _config(layout: str, **query) -> SimilarityConfig:
    return SimilarityConfig(
        store_shards=LAYOUTS[layout],
        shard_band_policy="quantile",
        wire_codec="adaptive",
        sketch_size=64,
        **query,
    )


def build(root: Path, layout: str) -> None:
    """The fixture's history: add every item in one batch, then remove one."""
    items, removed, _ = corpus()
    service = SimilarityService.create(
        root,
        M,
        config=_config(layout),
        size_hint=np.array([item[1].size for item in items], dtype=np.int64),
    )
    service.add(items)
    service.remove(removed)


def _fixture(tmp_path: Path, layout: str) -> Path:
    root = tmp_path / f"v1_{layout}"
    shutil.copytree(DATA / f"store_v1_{layout}", root)
    return root


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def answered(result):
    """A result without what depends on the store's history rather than
    its contents: the version counter and the modelled seconds."""
    return replace(result, store_version=0, simulated_seconds=0.0)


def _answers(root: Path, layout: str, queries) -> list:
    out = []
    for candidates in ("scan", "lsh_exact", "lsh"):
        config = _config(layout, query_candidates=candidates, query_cache_size=0)
        service = SimilarityService.open(root, config=config)
        for vals in queries:
            out += [service.query(values=vals, threshold=t) for t in THRESHOLDS]
            out.append(service.query(values=vals, top_k=3))
    return [answered(r) for r in out]


def _bands(store):
    return getattr(store, "shards", [store])


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_open_refuses_a_format_1_store_naming_the_migration(tmp_path, layout):
    from repro.service import open_store

    root = _fixture(tmp_path, layout)
    before = _files(root)
    for opener in (SimilarityService.open, open_store):
        with pytest.raises(StoreError, match="index migrate"):
            opener(root)
    assert _files(root) == before


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_migrated_store_answers_like_a_fresh_build(tmp_path, layout):
    from repro.service import migrate_store

    items, removed, queries = corpus()
    root = _fixture(tmp_path, layout)
    migrated = migrate_store(root)
    build(tmp_path / "fresh", layout)
    fresh = SimilarityService.open(tmp_path / "fresh").store
    assert migrated.names == fresh.names == [i[0] for i in items if i[0] != removed]
    for name in fresh.names:
        assert np.array_equal(migrated.load_values(name), fresh.load_values(name))
        assert np.array_equal(migrated.load_counts(name), fresh.load_counts(name))
        for family in fresh.families:
            assert np.array_equal(
                migrated.load_sketch_payload(name, family),
                fresh.load_sketch_payload(name, family),
            )
    for got, want in zip(_bands(migrated), _bands(fresh), strict=True):
        assert got.lsh_table().equals(want.lsh_table())
    answers = _answers(root, layout, queries)
    assert any(r.matches for r in answers)
    assert answers == _answers(tmp_path / "fresh", layout, queries)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_second_migrate_is_a_no_op(tmp_path, layout):
    from repro.service import migrate_store

    root = _fixture(tmp_path, layout)
    version = migrate_store(root).version
    after = _files(root)
    assert migrate_store(root).version == version
    assert _files(root) == after


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_crash_at_any_write_leaves_the_format_1_store(tmp_path, monkeypatch, layout):
    from repro.service import migrate_store
    from tests.helpers import install_torn_writes

    _, _, queries = corpus()
    build(tmp_path / "fresh", layout)
    want = _answers(tmp_path / "fresh", layout, queries)
    with monkeypatch.context() as mp:
        log = install_torn_writes(mp, fail_on=0)
        migrate_store(_fixture(tmp_path / "dry", layout))
    # One record file per live genome, one LSH table per band, then the
    # one manifest, last.
    assert len(log) == 7 + LAYOUTS[layout] + 1
    assert log.count("manifest.json") == 1 and log[-1] == "manifest.json"
    for fail_on in range(1, len(log) + 1):
        root = _fixture(tmp_path / f"crash{fail_on}", layout)
        before = _files(root)
        with monkeypatch.context() as mp:
            install_torn_writes(mp, fail_on)
            with pytest.raises(OSError, match="injected crash"):
                migrate_store(root)
        after = _files(root)
        assert {path: after[path] for path in before} == before
        with pytest.raises(StoreError, match="index migrate"):
            SimilarityService.open(root)
        migrate_store(root)
        assert _answers(root, layout, queries) == want


def _payloads(meta: dict, root: Path) -> list[tuple[Path, dict]]:
    """``(band directory, payload)`` for each band of a parsed manifest."""
    if "shards" in meta:
        return [(root / sh["dir"], sh["manifest"]) for sh in meta["shards"]]
    return [(root, meta)]


def _gram(band_dir: Path, payload: dict, fname: str | None) -> list[Path]:
    """What a release that maintained a Gram wrote: ``gram_names``, over
    a versioned ``gram_file`` (``fname``) or, oldest, over ``gram.bin``."""
    payload["gram_names"] = [g["name"] for g in payload["genomes"]]
    if fname is not None:
        payload["gram_file"] = fname
    path = band_dir / (fname or "gram.bin")
    path.write_bytes(b"a Gram no reader may open")
    return [path]


def _pre_key_matrix_table(band_dir: Path, payload: dict) -> list[Path]:
    path = band_dir / payload["lsh"]["file"]
    table = LSHTable.from_payloads(read_records(path))
    write_records(path, legacy_payloads(table), payload["codec"])
    return [path]


def _no_lsh(band_dir: Path, payload: dict) -> list[Path]:
    # Written before LSH tables: neither the block nor the file.
    (band_dir / payload.pop("lsh")["file"]).unlink()
    return []


def _no_mass(band_dir: Path, payload: dict) -> list[Path]:
    # Written before abundance counts, when no genome had any.
    for genome in payload["genomes"]:
        if genome["mass"] == genome["n_values"]:
            del genome["mass"]
    return []


#: What a format-1 payload of an older release may hold, injected into
#: every band's; each returns the files the migration must unlink.
OLDER_ARTIFACTS = {
    "gram_file": lambda d, p: _gram(d, p, f"gram-{p['version']:06d}.bin"),
    "gram_bin": lambda d, p: _gram(d, p, None),
    "pre_key_matrix_table": _pre_key_matrix_table,
    "no_lsh": _no_lsh,
    "no_mass": _no_mass,
}


@pytest.mark.parametrize("artifact", sorted(OLDER_ARTIFACTS))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_migrate_upgrades_what_older_releases_left(tmp_path, layout, artifact):
    from repro.service import migrate_store, open_store

    _, _, queries = corpus()
    root = _fixture(tmp_path, layout)
    manifest = root / "manifest.json"
    meta = json.loads(manifest.read_text())
    old = [
        path
        for band_dir, payload in _payloads(meta, root)
        for path in OLDER_ARTIFACTS[artifact](band_dir, payload)
    ]
    manifest.write_text(json.dumps(meta))
    with pytest.raises(StoreError, match="index migrate"):
        open_store(root)
    migrate_store(root)
    build(tmp_path / "fresh", layout)
    assert _answers(root, layout, queries) == _answers(tmp_path / "fresh", layout, queries)
    assert not [path for path in old if path.exists()]
    text = manifest.read_text()
    assert "gram" not in text
    named = {
        band_dir / name
        for band_dir, payload in _payloads(json.loads(text), root)
        for name in [payload["lsh"]["file"], *(g["shard"] for g in payload["genomes"])]
    }
    assert not named & set(old)


@pytest.mark.parametrize(
    "layout, band, message",
    [
        ("sharded", None, r"not a sharded store of format 2 \(format 99\)"),
        ("sharded", 0, "cannot migrate store format"),
        ("flat", None, "cannot migrate store format"),
    ],
    ids=["sharded-top-level", "band", "flat"],
)
def test_migrate_refuses_an_unknown_format_naming_the_manifest(tmp_path, layout, band, message):
    from repro.service import migrate_store

    root = _fixture(tmp_path, layout)
    manifest = root / "manifest.json"
    meta = json.loads(manifest.read_text())
    (meta if band is None else meta["shards"][band]["manifest"])["format_version"] = 99
    manifest.write_text(json.dumps(meta))
    before = _files(root)
    with pytest.raises(StoreError, match=message) as info:
        migrate_store(root)
    assert str(manifest) in str(info.value)
    assert _files(root) == before


if __name__ == "__main__":
    for layout in LAYOUTS:
        target = DATA / f"store_v1_{layout}"
        shutil.rmtree(target, ignore_errors=True)
        with tempfile.TemporaryDirectory() as scratch:
            build(Path(scratch) / layout, layout)
            shutil.copytree(Path(scratch) / layout, target)
        sys.stdout.write(f"recorded {target}\n")
