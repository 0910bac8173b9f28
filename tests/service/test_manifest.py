"""Every store opener reads ``manifest.json`` through one guarded reader.

A corrupt manifest — truncated, empty, not UTF-8, not a JSON object,
or with a field missing or of the wrong type — raises ``StoreError``
naming the file from ``IndexStore.open``, ``ShardedStore.open``,
``open_store`` and ``shard_store`` alike, never a bare
``JSONDecodeError``, ``UnicodeDecodeError``, ``AttributeError`` or
``KeyError``.
"""

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from repro.service import IndexStore, ShardedStore, StoreError, open_store, shard_store
from repro.service.store import MANIFEST_NAME

M = 2_000


def _genomes():
    rng = np.random.default_rng(11)
    sizes = [3, 9, 30, 120, 400, 900]
    return [(f"g{i}", rng.choice(M, size=s, replace=False)) for i, s in enumerate(sizes)]


@pytest.fixture
def flat(tmp_path):
    store = IndexStore.create(tmp_path / "flat", m=M)
    store.append_many(_genomes())
    return store.root


@pytest.fixture
def sharded(tmp_path):
    store = ShardedStore.create(tmp_path / "sharded", m=M, shards=2)
    store.append_many(_genomes())
    assert store.n_shards == 2 and all(b.n_genomes for b in store.shards)
    return store.root


def _shard(root):
    return shard_store(root, 2)


FLAT_OPENERS = [IndexStore.open, open_store, _shard]
SHARDED_OPENERS = [ShardedStore.open, open_store]


def _raises_naming_the_file(opener, root):
    with pytest.raises(StoreError) as info:
        opener(root)
    assert str(root / MANIFEST_NAME) in str(info.value)
    return str(info.value)


def _sweep_prefixes(root, openers):
    manifest = root / MANIFEST_NAME
    data = manifest.read_bytes()
    for k in range(len(data)):
        manifest.write_bytes(data[:k])
        if data[:k].strip() == data.strip():
            continue  # only the trailing newline is missing: still valid
        for opener in openers:
            _raises_naming_the_file(opener, root)
    manifest.write_bytes(data)


class TestPrefixSweep:
    def test_every_prefix_of_a_flat_manifest(self, flat):
        _sweep_prefixes(flat, FLAT_OPENERS)
        assert IndexStore.open(flat).names == [name for name, _ in _genomes()]

    def test_every_prefix_of_a_sharded_manifest(self, sharded):
        _sweep_prefixes(sharded, SHARDED_OPENERS + [_shard])
        assert ShardedStore.open(sharded).names == [name for name, _ in _genomes()]

    def test_a_prefix_missing_only_the_newline_opens(self, flat):
        manifest = flat / MANIFEST_NAME
        data = manifest.read_bytes()
        assert data.endswith(b"\n")
        manifest.write_bytes(data[:-1])
        assert open_store(flat).names == IndexStore.open(flat).names


CORRUPTIONS = {
    "truncated": lambda data: data[: len(data) // 2],
    "empty": lambda data: b"",
    "invalid_utf8": lambda data: b"\xff" + data,
    "json_list": lambda data: b"[]",
    "json_string": lambda data: b'"manifest"',
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
class TestUnparsable:
    def test_flat(self, flat, corruption):
        manifest = flat / MANIFEST_NAME
        manifest.write_bytes(CORRUPTIONS[corruption](manifest.read_bytes()))
        for opener in FLAT_OPENERS:
            _raises_naming_the_file(opener, flat)

    def test_sharded(self, sharded, corruption):
        manifest = sharded / MANIFEST_NAME
        manifest.write_bytes(CORRUPTIONS[corruption](manifest.read_bytes()))
        for opener in SHARDED_OPENERS + [_shard]:
            _raises_naming_the_file(opener, sharded)


def _edit(root, change):
    manifest = root / MANIFEST_NAME
    meta = json.loads(manifest.read_text())
    change(meta)
    manifest.write_text(json.dumps(meta))


def _delete(*path):
    def change(meta):
        for key in path[:-1]:
            meta = meta[key]
        del meta[path[-1]]

    return change


def _set(value, *path):
    def change(meta):
        for key in path[:-1]:
            meta = meta[key]
        meta[path[-1]] = value

    return change


FLAT_FIELDS = {
    "missing_m": _delete("m"),
    "missing_genomes": _delete("genomes"),
    "missing_sketch_seed": _delete("sketch", "seed"),
    "m_not_a_number": _set("many", "m"),
    "sketch_a_list": _set([], "sketch"),
    "genomes_a_number": _set(7, "genomes"),
    "genome_a_string": _set(["g0"], "genomes"),
    "lsh_a_list": _set([1], "lsh"),
    "metadata_a_string": _set("meta", "metadata"),
    # What only format 1 may lack; migrate_store fills it in there.
    "missing_lsh": _delete("lsh"),
    "lsh_file_null": _set(None, "lsh", "file"),
    "genome_missing_mass": lambda meta: meta["genomes"][0].pop("mass"),
}


@pytest.mark.parametrize("field", sorted(FLAT_FIELDS))
def test_flat_field_errors(flat, field):
    _edit(flat, FLAT_FIELDS[field])
    for opener in FLAT_OPENERS:
        message = _raises_naming_the_file(opener, flat)
        assert "malformed manifest" in message


SHARDED_FIELDS = {
    "missing_version": _delete("version"),
    "missing_shards": _delete("shards"),
    "missing_band_policy": _delete("band_policy"),
    "band_edges_strings": _set(["a", "b"], "band_edges"),
    "genome_missing_band": lambda meta: meta["genomes"][0].pop("band"),
    "shard_a_string": _set(["bands/000"], "shards"),
    "band_manifest_a_list": lambda meta: meta["shards"][1].update(manifest=[]),
    "band_missing_m": lambda meta: meta["shards"][0]["manifest"].pop("m"),
    "band_genomes_a_number": lambda meta: meta["shards"][1]["manifest"].update(genomes=3),
    "band_missing_lsh": lambda meta: meta["shards"][0]["manifest"].pop("lsh"),
    "band_lsh_file_null": lambda meta: meta["shards"][1]["manifest"]["lsh"].update(file=None),
    "band_genome_missing_mass": lambda meta: meta["shards"][1]["manifest"]["genomes"][0].pop("mass"),
    "bands_disagree": lambda meta: meta["shards"][1]["manifest"].update(codec="raw"),
    "no_band": _set([], "shards"),
}


@pytest.mark.parametrize("field", sorted(SHARDED_FIELDS))
def test_sharded_field_errors(sharded, field):
    _edit(sharded, SHARDED_FIELDS[field])
    for opener in SHARDED_OPENERS:
        message = _raises_naming_the_file(opener, sharded)
        assert "malformed manifest" in message
    # Still recognisably sharded: the migration refuses before any field.
    with pytest.raises(StoreError, match="already a sharded store"):
        _shard(sharded)


def test_missing_store_keeps_its_message(tmp_path):
    for opener in FLAT_OPENERS + SHARDED_OPENERS:
        with pytest.raises(StoreError, match="no index store at"):
            opener(tmp_path / "nothing")


@pytest.mark.parametrize("layout", ["flat", "sharded"])
def test_open_store_reads_the_manifest_once(layout, request, monkeypatch):
    root = request.getfixturevalue(layout)
    reads = []
    read_text = pathlib.Path.read_text

    def counting(self, *args, **kwargs):
        if self.name == MANIFEST_NAME:
            reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "read_text", counting)
    store = open_store(root)
    assert reads == [root / MANIFEST_NAME]
    assert store.names == [name for name, _ in _genomes()]


@pytest.mark.parametrize(
    "layout, change",
    [
        ("flat", _set(99, "format_version")),
        ("sharded", lambda meta: meta["shards"][1]["manifest"].update(format_version=99)),
        ("sharded", _set(99, "format_version")),
    ],
    ids=["flat", "band", "sharded-top-level"],
)
def test_an_unsupported_format_names_the_manifest(request, layout, change):
    root = request.getfixturevalue(layout)
    _edit(root, change)
    for opener in FLAT_OPENERS if layout == "flat" else SHARDED_OPENERS:
        assert "format 99" in _raises_naming_the_file(opener, root)


#: The store settings a sharded manifest's top level carried before its
#: band payloads became their only copy.
TOP_LEVEL_SETTINGS = ("m", "codec", "sketch", "families", "metadata", "lsh")


def test_sharded_settings_are_written_once_in_the_bands(sharded):
    meta = json.loads((sharded / MANIFEST_NAME).read_text())
    assert not set(TOP_LEVEL_SETTINGS) & set(meta)
    store = ShardedStore.open(sharded)
    band = store.shards[0]
    assert (store.m, store.codec, store.families, store.metadata) == (
        M, band.codec, band.families, band.metadata
    )
    assert (store.sketch_size, store.sketch_bits, store.sketch_seed) == (
        band.sketch_size, band.sketch_bits, band.sketch_seed
    )


def test_top_level_settings_of_an_earlier_release_are_not_read(sharded):
    from repro.service import SimilarityService

    def answers(service):
        return [
            replace(service.query(values=values, top_k=3), cache_stats=None)
            for _, values in _genomes()
        ]

    want = answers(SimilarityService.open(sharded))

    def carry_old_settings(meta):
        # An earlier release's copies; the wrong values prove none is read.
        meta.update(m=7, codec="raw", sketch={"size": 1, "bits": 1, "seed": 9},
                    families=["hll"], metadata={"k": 3},
                    lsh={"threshold": 0.9, "fn_budget": 0.5})

    _edit(sharded, carry_old_settings)
    service = SimilarityService.open(sharded)
    assert service.store.m == M
    assert answers(service) == want
    service.remove("g0")
    meta = json.loads((sharded / MANIFEST_NAME).read_text())
    assert not set(TOP_LEVEL_SETTINGS) & set(meta)
