"""Property tests of the weighted-Jaccard mass arithmetic.

``intersection_union_mass`` is checked against a
``collections.Counter`` multiset reference on arbitrary abundance
vectors.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semantics.weighted import (
    coerce_counts,
    intersection_union_mass,
    total_mass,
    weighted_jaccard_pair,
)

multisets_st = st.dictionaries(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=9),
    max_size=20,
)


def as_vectors(ms: dict) -> tuple[np.ndarray, np.ndarray]:
    vals = np.array(sorted(ms), dtype=np.int64)
    cnts = np.array([ms[v] for v in sorted(ms)], dtype=np.int64)
    return coerce_counts(vals, cnts)


@given(a=multisets_st, b=multisets_st)
@settings(max_examples=80, deadline=None)
def test_mass_arithmetic_matches_counter(a, b):
    ca, cb = Counter(a), Counter(b)
    inter_ref = sum((ca & cb).values())
    union_ref = sum((ca | cb).values())
    av, ac = as_vectors(a)
    bv, bc = as_vectors(b)
    assert intersection_union_mass(av, ac, bv, bc) == (inter_ref, union_ref)
    jw = weighted_jaccard_pair(av, ac, bv, bc)
    assert jw == pytest.approx(
        1.0 if union_ref == 0 else inter_ref / union_ref
    )


@given(a=multisets_st)
@settings(max_examples=40, deadline=None)
def test_total_mass_matches_counter(a):
    _, ac = as_vectors(a)
    assert total_mass(ac) == sum(Counter(a).values())


@given(a=multisets_st, b=multisets_st)
@settings(max_examples=40, deadline=None)
def test_weighted_jaccard_is_symmetric_and_bounded(a, b):
    av, ac = as_vectors(a)
    bv, bc = as_vectors(b)
    jw = weighted_jaccard_pair(av, ac, bv, bc)
    assert jw == weighted_jaccard_pair(bv, bc, av, ac)
    assert 0.0 <= jw <= 1.0
    assert weighted_jaccard_pair(av, ac, av, ac) == 1.0


def test_empty_sample_conventions():
    empty_v, empty_c = coerce_counts(np.array([], dtype=np.int64))
    av, ac = coerce_counts([3, 3, 8])
    assert intersection_union_mass(empty_v, empty_c, empty_v, empty_c) == (0, 0)
    assert weighted_jaccard_pair(empty_v, empty_c, empty_v, empty_c) == 1.0
    assert intersection_union_mass(av, ac, empty_v, empty_c) == (0, 3)
    assert weighted_jaccard_pair(av, ac, empty_v, empty_c) == 0.0
    assert weighted_jaccard_pair(empty_v, empty_c, av, ac) == 0.0


def test_coerce_counts_sorts_and_sums_duplicates():
    vals = np.array([3, 1, 2, 1], dtype=np.int64)
    v, c = coerce_counts(vals, np.array([5, 2, 1, 3], dtype=np.int64))
    assert list(v) == [1, 2, 3]
    assert list(c) == [5, 1, 5]
    v2, c2 = coerce_counts([4, 4, 7])
    assert list(v2) == [4, 7]
    assert list(c2) == [2, 1]


def test_coerce_counts_rejects_misaligned_and_nonpositive():
    vals = np.array([1, 2], dtype=np.int64)
    with pytest.raises(ValueError):
        coerce_counts(vals, np.array([1], dtype=np.int64))
    with pytest.raises(ValueError):
        coerce_counts(vals, np.array([1, 0], dtype=np.int64))


def test_no_support_size_bound_counterexample():
    """The docs/semantics.md counterexample: support size bounds nothing.

    A = {v with count 100} has support 1; B holds v with count 50 plus
    50 singleton values.  J_w = 50 / 150 = 1/3 despite the support
    sizes 1 vs 51 — a size-ratio window at t = 1/3 would wrongly prune.
    """
    av, ac = coerce_counts(
        np.array([0], dtype=np.int64), np.array([100], dtype=np.int64)
    )
    bvals = np.arange(51, dtype=np.int64)
    bcnts = np.ones(51, dtype=np.int64)
    bcnts[0] = 50
    bv, bc = coerce_counts(bvals, bcnts)
    assert weighted_jaccard_pair(av, ac, bv, bc) == pytest.approx(1 / 3)
