"""``SimilarityService.all_pairs()``: the exact matrix as a read.

After any history of adds, removes, re-adds, compacts, migrations and
reopens, ``all_pairs()`` must equal a from-scratch
:func:`~repro.jaccard_similarity` over the live sets, in ``store.names``
order — integer intersections and sizes ``np.array_equal``, the Eq. 2
similarity bit for bit — on both store layouts.  Mutations maintain no
matrix, so they must not read any stored genome either.
"""

import numpy as np
import pytest

from repro import SimilarityConfig, jaccard_similarity
from repro.runtime.engine import Machine
from repro.runtime.codec import WIRE_CODECS
from repro.runtime.machine import laptop
from repro.service import SimilarityService, StoreError

M = 2_000


def make_service(tmp_path, layout, name="idx"):
    # Quantile bands over an even spread of sizes are three equal-width
    # bands over [0, M] (edges 667 / 1334): the sizes below land in all
    # of them.
    config = SimilarityConfig(
        store_shards=3 if layout == "sharded" else 1,
        shard_band_policy="quantile",
    )
    return SimilarityService.create(
        tmp_path / name, m=M, config=config, machine=Machine(laptop(4)),
        size_hint=np.arange(M + 1),
    )


def random_set(rng, size=None):
    size = int(rng.integers(0, 1_500)) if size is None else size
    return np.unique(rng.integers(0, M, size=size))


def check(svc, model: dict) -> None:
    """``all_pairs()`` against a from-scratch engine run over ``model``."""
    assert svc.store.names == list(model)
    got = svc.all_pairs()
    ref = jaccard_similarity([set(v.tolist()) for v in model.values()])
    assert np.array_equal(got.intersections, ref.intersections)
    assert np.array_equal(got.sample_sizes, ref.sample_sizes)
    assert np.array_equal(got.similarity, ref.similarity)


@pytest.mark.parametrize("layout", ["flat", "sharded"])
def test_history(tmp_path, rng, layout):
    svc = make_service(tmp_path, layout)
    model: dict[str, np.ndarray] = {}

    def add(batch):
        svc.add(batch)
        model.update(batch)
        check(svc, model)

    def remove(name):
        svc.remove(name)
        del model[name]
        check(svc, model)

    add([(f"g{i}", random_set(rng)) for i in range(3)])
    add([("g3", random_set(rng, 40)), ("g4", random_set(rng, 1_200))])
    add([("g5", random_set(rng, 0)), ("g6", random_set(rng, 700))])
    remove("g1")
    # The same name re-added with different values: a row keyed by name
    # alone would be stale here.
    remove("g3")
    add([("g3", random_set(rng, 900))])
    assert svc.compact() == 2
    check(svc, model)
    if layout == "flat":
        svc.shard(3)
        check(svc, model)
    check(SimilarityService.open(svc.store.root), model)


@pytest.mark.parametrize("codec", WIRE_CODECS)
def test_every_codec_matches_the_engine(tmp_path, rng, codec):
    # ``wire_codec`` is both the store's record codec and the engine's
    # wire codec: neither may change an integer of the result.
    svc = SimilarityService.create(
        tmp_path / "idx", m=M, config=SimilarityConfig(wire_codec=codec)
    )
    model = {f"g{i}": random_set(rng) for i in range(6)}
    svc.add(list(model.items())[:4])
    svc.add(list(model.items())[4:])
    check(svc, model)


@pytest.mark.parametrize("layout", ["flat", "sharded"])
@pytest.mark.parametrize(
    "bad, match",
    [(("g0", [5, 6]), "already present"), (("bad", [M + 1]), "outside")],
    ids=["duplicate", "out_of_range"],
)
def test_rejected_batch_leaves_the_read_unchanged(
    tmp_path, rng, layout, bad, match
):
    svc = make_service(tmp_path, layout)
    model = {f"g{i}": random_set(rng) for i in range(3)}
    svc.add(list(model.items()))
    version = svc.store.version
    with pytest.raises(StoreError, match=match):
        svc.add([("g3", random_set(rng, 900)), bad])
    assert svc.store.version == version
    check(svc, model)
    # The store is still addable afterwards.
    model["g3"] = random_set(rng, 50)
    svc.add([("g3", model["g3"])])
    check(svc, model)


def test_empty_sets(tmp_path):
    svc = make_service(tmp_path, "flat")
    svc.add([("a", []), ("b", [1, 2]), ("c", [])])
    result = svc.all_pairs()
    assert np.array_equal(result.sample_sizes, [0, 2, 0])
    assert np.array_equal(np.diag(result.intersections), [0, 2, 0])
    assert result.similarity[0, 2] == 1.0  # J(empty, empty) = 1
    assert result.similarity[0, 1] == 0.0


@pytest.mark.parametrize("layout", ["flat", "sharded"])
def test_empty_store_rejected(tmp_path, layout):
    svc = make_service(tmp_path, layout)
    with pytest.raises(StoreError, match="empty"):
        svc.all_pairs()
    svc.add([("only", [1, 2, 3])])
    svc.remove("only")
    with pytest.raises(StoreError, match="empty"):
        svc.all_pairs()


def test_sketch_estimator_rejected(tmp_path):
    svc = SimilarityService.create(
        tmp_path / "idx", m=M, config=SimilarityConfig(estimator="minhash")
    )
    svc.add([("g", [1, 2, 3])])
    with pytest.raises(StoreError, match="exact"):
        svc.all_pairs()


def test_charged_to_the_service_machine(tmp_path, rng):
    svc = make_service(tmp_path, "flat")
    svc.add([(f"g{i}", random_set(rng)) for i in range(4)])
    before = svc.machine.ledger.simulated_seconds
    result = svc.all_pairs()
    assert result.cost.simulated_seconds > 0.0
    assert svc.machine.ledger.simulated_seconds > before


@pytest.mark.parametrize("layout", ["flat", "sharded"])
def test_mutations_read_no_stored_genome(tmp_path, rng, layout, monkeypatch):
    # With no matrix to maintain, add and remove cost O(delta): neither
    # decodes a single stored record.
    import repro.service.store as store_module

    svc = make_service(tmp_path, layout)
    svc.add([(f"g{i}", random_set(rng)) for i in range(6)])

    def refuse(path, index):
        raise AssertionError(f"a mutation read {path}")

    monkeypatch.setattr(store_module, "read_record", refuse)
    svc.add([("new", random_set(rng)), ("other", random_set(rng, 1_300))])
    svc.remove("g2")
    monkeypatch.undo()
    assert svc.store.names == ["g0", "g1", "g3", "g4", "g5", "new", "other"]
