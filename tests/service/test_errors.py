"""Regression pins for the service-layer error hierarchy.

Every service-layer failure raises under ``ServiceError``; the concrete
classes also subclass ``ValueError`` so call sites written against the
pre-hierarchy API keep working.  The message tests pin the exact
strings other tests (and downstream tooling) match on.
"""

import numpy as np
import pytest

from repro.core.config import SimilarityConfig
from repro.service import (
    ConfigError,
    IndexStore,
    QueryError,
    ServiceError,
    SimilarityIndex,
    SimilarityService,
    StoreError,
)
from repro.service.cache import QueryCache
from repro.service.errors import ServiceError as ModuleServiceError

M = 1_000


class TestHierarchy:
    def test_service_error_is_the_root(self):
        for exc in (StoreError, QueryError, ConfigError):
            assert issubclass(exc, ServiceError)

    def test_concrete_errors_stay_value_errors(self):
        # Backwards compatibility: pre-hierarchy call sites catch
        # ValueError; the hierarchy must not break them.
        for exc in (StoreError, QueryError, ConfigError):
            assert issubclass(exc, ValueError)

    def test_service_error_is_not_a_value_error(self):
        # The root is a plain Exception: "catch everything the service
        # raises" must not accidentally catch unrelated ValueErrors.
        assert not issubclass(ServiceError, ValueError)

    def test_one_canonical_module(self):
        assert ServiceError is ModuleServiceError

    def test_catching_the_root_catches_everything(self, tmp_path):
        with pytest.raises(ServiceError):
            IndexStore.open(tmp_path / "nope")
        store = IndexStore.create(tmp_path / "idx", m=M)
        engine = SimilarityIndex(store)
        with pytest.raises(ServiceError):
            engine.query_values(np.array([1], dtype=np.int64))


class TestPinnedMessages:
    """The exact strings: changing one is an API break."""

    def test_store_errors(self, tmp_path):
        with pytest.raises(StoreError, match=r"no index store at"):
            IndexStore.open(tmp_path / "missing")
        store = IndexStore.create(tmp_path / "idx", m=M)
        store.append("a", [1, 2])
        with pytest.raises(StoreError, match=r"already exists at"):
            IndexStore.create(tmp_path / "idx", m=M)
        with pytest.raises(
            StoreError, match=r"genome 'a' already present"
        ):
            store.append("a", [3])
        with pytest.raises(
            StoreError, match=r"genome 'b' has values outside \[0, 1000\)"
        ):
            store.append("b", [M])
        # Unknown-name lookups are KeyError (mapping semantics), not
        # StoreError — pinned so the distinction stays deliberate.
        with pytest.raises(KeyError, match=r"unknown genome 'zzz'"):
            store.load_values("zzz")

    def test_query_errors(self, tmp_path):
        store = IndexStore.create(tmp_path / "idx", m=M)
        store.append("a", [1, 2])
        engine = SimilarityIndex(store)
        q = np.array([1], dtype=np.int64)
        with pytest.raises(
            QueryError, match=r"pass threshold, top_k, or both"
        ):
            engine.query_values(q)
        with pytest.raises(
            QueryError, match=r"threshold must be in \[0, 1\], got 1.5"
        ):
            engine.query_values(q, threshold=1.5)
        with pytest.raises(
            QueryError, match=r"top_k must be positive, got 0"
        ):
            engine.query_values(q, top_k=0)
        with pytest.raises(
            QueryError, match=r"query values outside \[0, 1000\)"
        ):
            engine.query_values(np.array([M], dtype=np.int64), top_k=1)
        with pytest.raises(
            QueryError, match=r"pass exactly one of values or name"
        ):
            engine.query()

    def test_config_errors(self, tmp_path):
        store = IndexStore.create(tmp_path / "idx", m=M)
        with pytest.raises(
            ConfigError, match=r"query_prefilter must be one of"
        ):
            SimilarityIndex(store, config=_bad_prefilter_config())
        with pytest.raises(
            ConfigError, match=r"capacity must be >= 0, got -1"
        ):
            QueryCache(-1)


#: One bad add item per row -> the pinned ``StoreError`` message.
#: Every one of these was *accepted* before ``validate_add`` existed
#: (floats truncated, 2-D flattened, strings and bools coerced, the
#: name ``5`` stored as ``'5'``) or escaped as a bare ``ValueError``.
BAD_ADD_ITEMS = {
    "float-values": (
        ("f", [1.5, 2.7, 3.2]),
        r"genome 'f' values must be integers, got dtype float64",
    ),
    "2d-values": (
        ("d", np.array([[1, 2], [3, 4]])),
        r"genome 'd' values must be one-dimensional, got shape \(2, 2\)",
    ),
    "str-values": (
        ("s", ["1", "2"]),
        r"genome 's' values must be integers, got dtype <U1",
    ),
    "bool-values": (
        ("b", [True, False]),
        r"genome 'b' values must be integers, got dtype bool",
    ),
    "scalar-values": (
        ("n", 7),
        r"genome 'n' values must be a collection of integers",
    ),
    "int-name": (
        (5, [1, 2]),
        r"genome name must be a non-empty str, got 5",
    ),
    "empty-name": (
        ("", [1, 2]),
        r"genome name must be a non-empty str, got ''",
    ),
    "bare-name": (
        ("lonely",),
        r"an add item must be \(name, values\) or \(name, values, counts\)",
    ),
    "misaligned-counts": (
        ("c", [1, 2, 3], [1, 2]),
        r"genome 'c': counts must align with values: "
        r"2 count\(s\) for 3 value\(s\)",
    ),
    "zero-count": (
        ("z", [1, 2], [1, 0]),
        r"genome 'z': abundance counts must be >= 1",
    ),
    "float-counts": (
        ("fc", [1, 2], [1.5, 2.0]),
        r"genome 'fc' counts must be integers, got dtype float64",
    ),
    "out-of-range": (
        ("o", [M]),
        r"genome 'o' has values outside \[0, 1000\)",
    ),
    "negative": (
        ("neg", [-1]),
        r"genome 'neg' has values outside \[0, 1000\)",
    ),
    "duplicate-name": (
        ("a", [3]),
        r"genome 'a' already present",
    ),
    "repeated-in-batch": (
        ("ok", [4]),
        r"genome 'ok' already present",
    ),
}


class TestAddValidation:
    """``validate_add`` is the one front door of both layouts: a bad
    item anywhere in a batch raises the pinned ``StoreError`` and
    nothing — no record, no table, no manifest — is written."""

    @pytest.mark.parametrize("shards", [1, 3], ids=["flat", "sharded"])
    @pytest.mark.parametrize("case", sorted(BAD_ADD_ITEMS))
    def test_bad_item_rejected_before_any_write(self, tmp_path, shards, case):
        bad, message = BAD_ADD_ITEMS[case]
        service = SimilarityService.create(
            tmp_path / "idx", m=M,
            config=SimilarityConfig(store_shards=shards),
        )
        service.add([("a", [1, 2])])
        store = service.store

        def on_disk():
            return sorted(
                (str(p), p.stat().st_mtime_ns)
                for p in store.root.rglob("*") if p.is_file()
            )

        before = (store.version, store.names, on_disk())
        batch = [("ok", [1, 2, 3]), bad]
        with pytest.raises(StoreError, match=message):
            service.add(batch)
        with pytest.raises(StoreError, match=message):
            store.append_many(batch)
        assert (store.version, store.names, on_disk()) == before
        service.add([("ok", [1, 2, 3])])  # still addable
        assert store.names == ["a", "ok"]

    def test_clean_triples(self, tmp_path):
        from repro.service.store import validate_add

        store = IndexStore.create(tmp_path / "idx", m=M)
        clean = validate_add(
            store,
            [
                ("set", {3, 1, 2}),
                ("dups", [5, 5, 4], [1, 2, 1]),
                ("ones", np.array([9, 8], dtype=np.uint16), [1, 1]),
                ("empty", []),
            ],
        )
        assert [name for name, _, _ in clean] == ["set", "dups", "ones", "empty"]
        assert [v.tolist() for _, v, _ in clean] == [[1, 2, 3], [4, 5], [8, 9], []]
        assert all(v.dtype == np.int64 for _, v, _ in clean)
        # Duplicate occurrences sum; all-ones counts normalise away.
        assert [None if c is None else c.tolist() for _, _, c in clean] == [
            None, [1, 3], None, None,
        ]


BAD_QUERY_VALUES = {
    "float-values": (
        [1.5, 2.7],
        r"query values must be integers, got dtype float64",
    ),
    "float-array": (
        np.array([1.0, 2.0]),
        r"query values must be integers, got dtype float64",
    ),
    "str-values": (
        ["1", "2"],
        r"query values must be integers, got dtype <U1",
    ),
    "bool-values": (
        [True, False],
        r"query values must be integers, got dtype bool",
    ),
    "two-dimensional": (
        np.array([[1, 2], [3, 4]]),
        r"query values must be one-dimensional, got shape \(2, 2\)",
    ),
    "scalar-values": (
        7,
        r"query values must be a collection of integers",
    ),
}


#: Query ``counts`` get the add side's integer check and message
#: shapes.  ``[1.9, 1.2, 1.0]`` used to be truncated to ``[1, 1, 1]``
#: and answered; misaligned / zero counts raised a bare ``ValueError``.
BAD_QUERY_COUNTS = {
    "float-counts": (
        [1.9, 1.2, 1.0],
        r"query counts must be integers, got dtype float64",
    ),
    "str-counts": (
        ["1", "1", "1"],
        r"query counts must be integers, got dtype <U1",
    ),
    "bool-counts": (
        [True, True, True],
        r"query counts must be integers, got dtype bool",
    ),
    "two-dimensional": (
        np.ones((3, 1), dtype=np.int64),
        r"query counts must be one-dimensional, got shape \(3, 1\)",
    ),
    "scalar-counts": (
        3,
        r"query counts must be a collection of integers",
    ),
    "misaligned": (
        [1, 1],
        r"query counts must align with values: 2 count\(s\) for 3 value\(s\)",
    ),
    "zero-count": (
        [1, 0, 1],
        r"query abundance counts must be >= 1",
    ),
    "negative-count": (
        [1, -2, 1],
        r"query abundance counts must be >= 1",
    ),
}



#: ``top_k`` must be an integer and ``threshold`` a real number.
#: ``top_k=2.5`` used to escape from inside the cascade as NumPy's
#: ``TypeError``, the strings as a bare ``TypeError``, and ``top_k=True``
#: was answered as ``top_k=1``.
BAD_QUERY_PARAMS = {
    "float-top_k": ({"top_k": 2.5}, r"top_k must be an integer, got 2\.5"),
    "str-top_k": ({"top_k": "2"}, r"top_k must be an integer, got '2'"),
    "bool-top_k": ({"top_k": True}, r"top_k must be an integer, got True"),
    "str-threshold": (
        {"threshold": "0.5"},
        r"threshold must be a real number, got '0\.5'",
    ),
    "bool-threshold": (
        {"threshold": True},
        r"threshold must be a real number, got True",
    ),
}

class TestQueryValidation:
    """``validate_request`` is the query-side twin of ``validate_add``:
    the same integer check, the same message shape, ``QueryError``.  A
    float query used to be truncated and answered (``[1.5, 2.7]`` as
    ``[1, 2]``), a 2-D one flattened."""

    @pytest.mark.parametrize("shards", [1, 3], ids=["flat", "sharded"])
    @pytest.mark.parametrize("case", sorted(BAD_QUERY_VALUES))
    def test_bad_values_rejected_at_every_entry_point(
        self, tmp_path, shards, case
    ):
        bad, message = BAD_QUERY_VALUES[case]
        service = SimilarityService.create(
            tmp_path / "idx", m=M,
            config=SimilarityConfig(store_shards=shards),
        )
        service.add([("a", [1, 2]), ("b", [2, 3, 4])])
        with pytest.raises(QueryError, match=message):
            service.query(values=bad, threshold=0.1)
        with pytest.raises(QueryError, match=message):
            service.query(values=bad, top_k=1, counts=[1, 1])
        with pytest.raises(QueryError, match=message):
            service.query_batch([[1, 2], bad], threshold=0.1)

    @pytest.mark.parametrize("shards", [1, 3], ids=["flat", "sharded"])
    @pytest.mark.parametrize("case", sorted(BAD_QUERY_COUNTS))
    def test_bad_counts_rejected_at_every_entry_point(self, tmp_path, shards, case):
        from repro.service import BatchQuery

        bad, message = BAD_QUERY_COUNTS[case]
        service = SimilarityService.create(
            tmp_path / "idx", m=M,
            config=SimilarityConfig(
                similarity="weighted_jaccard",
                store_shards=shards,
            ),
        )
        service.add([("a", [1, 2, 3], [2, 1, 1]), ("b", [2, 3, 4])])
        with pytest.raises(QueryError, match=message):
            service.query(values=[1, 2, 3], counts=bad, threshold=0.1)
        with pytest.raises(QueryError, match=message):
            service.query_batch(
                [[1, 2], BatchQuery([1, 2, 3], counts=bad)], threshold=0.1
            )

    @pytest.mark.parametrize("shards", [1, 3], ids=["flat", "sharded"])
    @pytest.mark.parametrize("case", sorted(BAD_QUERY_PARAMS))
    def test_bad_top_k_and_threshold_rejected(self, tmp_path, shards, case):
        params, message = BAD_QUERY_PARAMS[case]
        service = SimilarityService.create(
            tmp_path / "idx", m=M,
            config=SimilarityConfig(store_shards=shards),
        )
        service.add([("a", [1, 2]), ("b", [2, 3, 4])])
        with pytest.raises(QueryError, match=message):
            service.query(values=[1, 2, 3], **params)
        with pytest.raises(QueryError, match=message):
            service.query_batch([[1, 2], [2, 3]], **params)

    def test_numpy_top_k_and_threshold_are_still_answered(self, tmp_path):
        service = SimilarityService.create(tmp_path / "idx", m=M)
        service.add([("a", [1, 2]), ("b", [2, 3, 4])])
        want = service.query(values=[1, 2, 3], threshold=0.5, top_k=1)
        got = service.query(
            values=[1, 2, 3], threshold=np.float32(0.5), top_k=np.int64(1)
        )
        assert [m.name for m in want.matches] == ["a"]
        assert got.matches == want.matches

    @pytest.mark.parametrize("shards", [1, 3], ids=["flat", "sharded"])
    def test_integer_counts_are_still_answered(self, tmp_path, shards):
        service = SimilarityService.create(
            tmp_path / "idx", m=M,
            config=SimilarityConfig(
                similarity="weighted_jaccard",
                store_shards=shards,
            ),
        )
        service.add([("a", [1, 2, 3], [2, 1, 1]), ("b", [2, 3, 4])])
        want = service.query(values=[1, 2, 3], counts=[2, 1, 1], threshold=0.9)
        assert [(m.name, m.similarity) for m in want.matches] == [("a", 1.0)]
        for same in ((2, 1, 1), np.array([2, 1, 1], dtype=np.uint8), iter([2, 1, 1])):
            got = service.query(values=[1, 2, 3], counts=same, threshold=0.9)
            assert got.matches == want.matches

    def test_integer_collections_are_still_answered(self, tmp_path):
        service = SimilarityService.create(tmp_path / "idx", m=M)
        service.add([("a", [1, 2]), ("b", [2, 3, 4])])
        want = service.query(values=[2, 1], threshold=0.5).matches
        assert [m.name for m in want] == ["a"]
        for same in ({1, 2}, (2, 1, 1), np.array([2, 1], dtype=np.uint8), iter([1, 2])):
            assert service.query(values=same, threshold=0.5).matches == want
        assert not service.query(values=[], threshold=0.5).matches


def _bad_prefilter_config():
    # SimilarityConfig validates query_prefilter itself, so sneak an
    # invalid value past __post_init__ to exercise the engine's check.
    config = SimilarityConfig()
    object.__setattr__(config, "query_prefilter", "bogus")
    return config
