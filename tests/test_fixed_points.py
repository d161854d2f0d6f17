"""Level sets, fixed strata, and the free-action predicates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genfermat.errors import ParameterError
from genfermat.fixed_points import (
    acts_freely_subgroup,
    fixed_locus_strata,
    free_rank_bound,
    has_fixed_points,
    level_sets,
    strata_report,
)
from genfermat.groups import (
    GroupParams,
    elem_normalize,
    subgroup_from_generators,
    word,
)


def test_level_sets_partition(p3n4):
    x = elem_normalize((1, 1, 2, 0, 0), p3n4)
    ls = level_sets(x)
    covered = sorted(i for idx in ls.values() for i in idx)
    assert covered == list(range(1, p3n4.n + 2))
    assert sorted(len(v) for v in ls.values()) == [1, 2, 2]


@given(st.data())
def test_size_multiset_shift_invariant(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    n = data.draw(st.integers(2, 6))
    params = GroupParams(p=p, n=n, d=1)
    raw = data.draw(st.tuples(*[st.integers(0, p - 1) for _ in range(n + 1)]))
    c = data.draw(st.integers(0, p - 1))
    shifted = tuple((e + c) % p for e in raw)
    a = level_sets(elem_normalize(raw, params))
    b = level_sets(elem_normalize(shifted, params))
    assert sorted(len(v) for v in a.values()) == sorted(len(v) for v in b.values())


def test_identity_rejected(p3n4):
    with pytest.raises(ParameterError):
        has_fixed_points(elem_normalize((0,) * 5, p3n4), 2)


def test_cubic_example_strata():
    params = GroupParams(p=3, n=3, d=2)
    x = elem_normalize((1, 1, 2, 0), params)
    assert level_sets(x) == {0: (4,), 1: (1, 2), 2: (3,)}
    strata = fixed_locus_strata(x, 2)
    # level sets of size >= n+1-d = 2: only {1,2}
    assert len(strata) == 1
    assert strata[0].indices == (1, 2)
    assert strata[0].dim == 0
    assert strata[0].induced_type == (0, 3, 1)


@given(st.data())
def test_strata_empty_iff_free(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    n = data.draw(st.integers(3, 6))
    d = data.draw(st.integers(1, n - 1))
    params = GroupParams(p=p, n=n, d=d)
    raw = data.draw(st.tuples(*[st.integers(0, p - 1) for _ in range(n + 1)]))
    x = elem_normalize(raw, params)
    if x.is_identity():
        return
    assert has_fixed_points(x, d) == bool(fixed_locus_strata(x, d))


def test_stratum_dimensions_bounded(p2n6):
    x = elem_normalize((1, 1, 1, 1, 0, 0, 0), p2n6)
    for s in fixed_locus_strata(x, 2):
        assert 0 <= s.dim < 2
        assert s.induced_type == (s.dim, 2, len(s.indices) - 1)


def test_subgroup_freeness(p2n6):
    free_K = subgroup_from_generators(
        [word((1, 2, 4), p2n6), word((1, 3, 5), p2n6), word((2, 3, 6), p2n6)],
        p2n6,
    )
    assert acts_freely_subgroup(free_K, 2)
    bad_K = subgroup_from_generators([word((1, 2), p2n6)], p2n6)
    assert not acts_freely_subgroup(bad_K, 2)


def test_rank_bound_edges():
    # (p^m - 1)/(p - 1) counts the cyclic subgroups available to n+1 planes
    assert free_rank_bound(2, 3, 6)
    assert not free_rank_bound(2, 3, 7)
    assert free_rank_bound(3, 2, 3)
    assert not free_rank_bound(3, 2, 4)
    with pytest.raises(ParameterError):
        free_rank_bound(2, 0, 3)


def test_strata_report_shape(p2n6):
    x = elem_normalize((1, 1, 1, 1, 1, 0, 0), p2n6)
    report = strata_report(x, 2)
    assert report["element"] == list(x.exponents)
    for s in report["strata"]:
        assert set(s) == {"label", "indices", "dim", "type"}
