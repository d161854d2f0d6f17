"""Subgroup enumeration checked against an elementwise oracle, orbits, and
families."""

import gc
import random
import time
import tracemalloc
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genfermat import enumeration
from genfermat.enumeration import (
    EnumerationTask,
    _columns_free,
    _family_columns,
    _least_orbit_form,
    _orbit_closure,
    canonical_orbit_key,
    classify_orbits,
    construct_family,
    count_free,
    enumerate_all,
    enumeration_report,
    gaussian_binomial,
    iter_rref_bases,
    necessary_bounds,
    subgroup_is_free_dual,
)
from genfermat.errors import (
    InconsistencyError,
    ParameterError,
    ResourceLimitError,
    UnsupportedParameterError,
)
from genfermat.fixed_points import acts_freely_subgroup
from genfermat.groups import (
    GeneratorPermutation,
    GroupParams,
    Packed,
    Subgroup,
    autg_apply_subgroup,
    canonical_key,
    generator,
    quotient_columns,
    quotient_rank,
    rank_mod_p,
    rref_mod_p,
    subgroup_canonical_key,
    subgroup_from_columns,
    subgroup_from_generators,
    subgroup_from_lift_rows,
)

# Desk-scale sweep: every (d, p, n, m) whose candidate-subspace count stays
# small enough for the element-wise cross-checks to run in test time.
SWEEP = [
    (2, 2, 4, 2), (2, 2, 4, 3), (2, 2, 5, 2), (2, 2, 5, 3),
    (2, 2, 6, 3), (2, 2, 6, 4), (2, 3, 4, 2), (2, 3, 4, 3),
    (2, 5, 3, 2), (2, 5, 4, 2), (3, 2, 5, 3), (3, 2, 6, 3),
    (3, 3, 4, 3), (2, 5, 4, 3), (3, 2, 7, 4),
]


def test_gaussian_binomial_values():
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 7) == 1
    assert gaussian_binomial(3, 4, 2) == 0


@given(
    st.integers(1, 6), st.integers(0, 6), st.sampled_from((2, 3))
)
def test_gaussian_symmetry(n, k, p):
    assert gaussian_binomial(n, k, p) == gaussian_binomial(n, n - k, p)


@given(st.sampled_from((2, 3)), st.integers(1, 4), st.integers(0, 4))
def test_iter_rref_bases_complete(p, n, k):
    if k > n:
        return
    bases = list(iter_rref_bases(n, k, p))
    assert len(bases) == gaussian_binomial(n, k, p)
    assert len(set(bases)) == len(bases)
    for basis in bases:
        assert rref_mod_p(basis, p) == basis


# Cells small enough to filter every RREF basis elementwise: d in {2,3,4},
# p in {2,3,5}, d+1 <= n, at most 20,000 group elements over all candidates.
ORACLE_CELLS = [
    (d, p, n, m)
    for d in (2, 3, 4) for p in (2, 3, 5) for n in range(d + 1, 8) for m in range(n + 1)
    if gaussian_binomial(n, n - m, p) * p ** (n - m) <= 20_000
]


def _elementwise_free_keys(task):
    """Oracle: every RREF basis, filtered by the element-wise predicate."""
    return sorted(
        subgroup_canonical_key(K)
        for K in (
            subgroup_from_lift_rows([row + (0,) for row in basis], task.params)
            for basis in iter_rref_bases(task.n, task.n - task.m, task.p)
        )
        if acts_freely_subgroup(K, task.d)
    )


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ORACLE_CELLS))
@example((4, 2, 7, 5))
@example((4, 5, 5, 4))
# the leaf test at d >= 4 and p = 7: 280 of 3,280 and 120 of 2,801 free
@example((5, 3, 8, 7))
@example((4, 7, 5, 4))
# nonempty d=2 cells at p = 2, 3, 5
@example((2, 2, 6, 3))
@example((2, 3, 4, 3))
@example((2, 5, 3, 2))
@example((2, 5, 4, 3))
# both leaf paths (`_walk`): d = 1, whose lower span is empty, and p = 7 at d = 3
@example((1, 2, 4, 2))
@example((1, 3, 4, 2))
@example((1, 5, 3, 2))
@example((1, 3, 5, 3))
@example((3, 7, 4, 3))
@example((3, 7, 5, 4))
def test_enumerate_all_matches_elementwise_filter(cell):
    # enumerate_all keeps the walk's order, so the same multiset is compared
    task = EnumerationTask(*cell)
    brute = _elementwise_free_keys(task)
    assert sorted(subgroup_canonical_key(K) for K in enumerate_all(task, prune=False)) == brute
    if necessary_bounds(*cell).possibly_nonempty:
        assert sorted(subgroup_canonical_key(K) for K in enumerate_all(task)) == brute


def test_necessary_bounds_sound_on_oracle_cells():
    unsound = [
        cell for cell in ORACLE_CELLS
        if not necessary_bounds(*cell).possibly_nonempty
        and _elementwise_free_keys(EnumerationTask(*cell))
    ]
    assert unsound == []


def _every_d_subset_independent(cols, d, p):
    """Oracle: the rank definition of d-freeness the layered spans replace."""
    return all(rank_mod_p(subset, p) == d for subset in combinations(cols, d))


@settings(max_examples=300)
@given(st.data())
def test_layered_spans_match_subset_rank(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    m = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(0, p - 1)] * m)
    cols = data.draw(st.lists(vec, min_size=d, max_size=7))
    assert _columns_free(cols, d, p) == _every_d_subset_independent(cols, d, p)


def test_task_validation():
    with pytest.raises(UnsupportedParameterError):
        EnumerationTask(d=2, p=4, n=5, m=2)
    with pytest.raises(ParameterError):
        EnumerationTask(d=2, p=2, n=5, m=6)
    with pytest.raises(ParameterError):
        EnumerationTask(d=9, p=2, n=6, m=3)
    with pytest.raises(ParameterError, match="d\\+1 <= n"):
        EnumerationTask(d=2, p=3, n=2, m=2)
    with pytest.raises(ParameterError):
        EnumerationTask(d=2, p=2, n=6, m=3, cap_subspaces=-5)
    with pytest.raises(UnsupportedParameterError):
        EnumerationTask(d=2, p=257, n=3, m=2)


def test_necessary_bounds_prune():
    assert not necessary_bounds(2, 2, 5, 1).possibly_nonempty  # m < d
    assert not necessary_bounds(2, 2, 5, 2).possibly_nonempty  # m=d=2, p<4
    assert not necessary_bounds(2, 2, 7, 3).possibly_nonempty  # rank bound
    assert necessary_bounds(1, 2, 4, 2).possibly_nonempty  # no rank bound at d = 1
    assert necessary_bounds(2, 2, 6, 3).possibly_nonempty
    with pytest.raises(ParameterError, match="d\\+1 <= n"):
        necessary_bounds(2, 3, 2, 2)  # n = d: the trivial kernel would act freely


@pytest.mark.parametrize("d, p, n", [(2, 3, 5), (3, 2, 4), (2, 5, 3)])
def test_quotient_rank_range_is_refused(d, p, n):
    # a quotient of H ~ Z_p^n has rank 0..n; the bounds and the task agree
    for m in (-1, n + 1):
        with pytest.raises(ParameterError, match="0 <= m <= n"):
            necessary_bounds(d, p, n, m)
        with pytest.raises(ParameterError, match="0 <= m <= n"):
            EnumerationTask(d=d, p=p, n=n, m=m)


def test_subspace_cap():
    task = EnumerationTask(d=2, p=2, n=6, m=3, cap_subspaces=100)
    with pytest.raises(ResourceLimitError):
        enumerate_all(task, prune=False)


# Cells whose lift rows need two-byte packed fields (128 <= p <= 255).
WIDE_CELLS = [(1, 131, 2, 1), (1, 251, 2, 1)]
# Edge cells of the leaf lift: m = n (no kernel rows, the lift is all-ones)
# and d = 1 (only the zero column is rejected).
EDGE_CELLS = [(2, 2, 4, 4), (1, 131, 2, 2), (1, 2, 4, 2), (1, 3, 3, 1),
              (1, 5, 3, 2), (1, 7, 2, 1)]


def test_pruned_matches_unpruned():
    # at d = 1 the columns only need to be nonzero and may repeat, so the
    # rank bound n+1 <= (p^m-1)/(p-1) must not prune those cells
    d1_cells = [cell for cell in WIDE_CELLS + EDGE_CELLS if cell[0] == 1]
    for d, p, n, m in [(2, 2, 5, 3), (2, 3, 4, 2), (2, 2, 6, 3)] + d1_cells:
        task = EnumerationTask(d=d, p=p, n=n, m=m)
        a = [subgroup_canonical_key(K) for K in enumerate_all(task, prune=True)]
        b = [subgroup_canonical_key(K) for K in enumerate_all(task, prune=False)]
        assert a == b


def test_dual_matches_elementwise_on_sweep():
    for d, p, n, m in SWEEP:
        task = EnumerationTask(d=d, p=p, n=n, m=m)
        found = enumerate_all(task, prune=False)
        keys = {subgroup_canonical_key(K) for K in found}
        for K in found:
            assert subgroup_is_free_dual(K, d)
            assert acts_freely_subgroup(K, d), (d, p, n, m)
            assert quotient_rank(K) == m
        # spot-check a few rejected subgroups against the element-wise route
        from genfermat.enumeration import iter_rref_bases as irb
        from genfermat.groups import subgroup_from_lift_rows

        rejected_checked = 0
        for basis in irb(n, n - m, p):
            lift = [row + (0,) for row in basis]
            K = subgroup_from_lift_rows(lift, task.params)
            if subgroup_canonical_key(K) not in keys:
                assert not acts_freely_subgroup(K, d)
                rejected_checked += 1
            if rejected_checked >= 20:
                break


@pytest.mark.parametrize("cell", [(5, 7, 6, 5), (5, 3, 8, 7), (4, 5, 7, 6)],
                         ids=lambda cell: "-".join(map(str, cell)))
def test_dual_oracle_meets_in_the_middle(cell):
    # at d = 4 and 5 the spans grow to two layers and c is tested against
    # L_1 + L_2 or L_2 + L_2: 300 seeded candidates and up to 300 free
    # kernels agree with the element-wise route
    d, p, n, m = cell
    task = EnumerationTask(*cell)
    rng = random.Random(1)
    bases = rng.sample(list(iter_rref_bases(n, n - m, p)), 300)
    free = enumerate_all(task)
    candidates = [subgroup_from_lift_rows([row + (0,) for row in basis], task.params)
                  for basis in bases] + rng.sample(free, min(300, len(free)))
    verdicts = [subgroup_is_free_dual(K, d) for K in candidates]
    assert verdicts == [acts_freely_subgroup(K, d) for K in candidates]
    assert False in verdicts[:300] and all(verdicts[300:])


def assert_columns_invert(K):
    """`quotient_columns` and `subgroup_from_columns` invert each other on
    K, and the map with those columns sends every lift row to 0."""
    cols = quotient_columns(K)
    assert len(cols) == K.params.n + 1
    assert {len(c) for c in cols} == {quotient_rank(K)}
    assert subgroup_from_columns(cols, K.params) == K
    for row in K.basis:
        assert not any(sum(x * c[t] for x, c in zip(row, cols)) % K.params.p
                       for t in range(quotient_rank(K)))


def test_columns_invert_on_sweep_kernels():
    for d, p, n, m in SWEEP:
        for K in enumerate_all(EnumerationTask(d=d, p=p, n=n, m=m)):
            assert_columns_invert(K)


def test_enumerate_all_lifts_match_elimination():
    # the lift built along the walk is the basis a full elimination gives;
    # (2,5,5,2) has rows built above the leaf at p > 3 (k = 3, 20,306
    # candidates); (5,3,8,7) and (5,7,6,5) test the leaf at d = 5 (120 of
    # 19,608 free at p = 7), filtered element-wise; enumerate_all keeps the
    # walk's order, so the sorted bases are compared
    cells = [(cell, subgroup_is_free_dual)
             for cell in SWEEP + WIDE_CELLS + EDGE_CELLS + [(2, 7, 4, 3), (2, 5, 5, 2)]]
    cells += [(cell, acts_freely_subgroup) for cell in [(5, 3, 8, 7), (5, 7, 6, 5)]]
    for (d, p, n, m), is_free in cells:
        task = EnumerationTask(d=d, p=p, n=n, m=m)
        candidates = (subgroup_from_lift_rows([row + (0,) for row in basis], task.params)
                      for basis in iter_rref_bases(n, n - m, p))
        eliminated = sorted(
            (K for K in candidates if is_free(K, d)), key=subgroup_canonical_key
        )
        found = enumerate_all(task, prune=False)
        assert sorted(K.basis for K in found) == [K.basis for K in eliminated], (d, p, n, m)


# The cells of the orbits-d2 benchmark workload.
ORBIT_CELLS = [(2, 2, 7, 4), (2, 2, 7, 5), (2, 3, 6, 4), (2, 5, 5, 3), (2, 5, 6, 5)]


def test_count_free_matches_enumerate_all():
    for cell in SWEEP + ORBIT_CELLS:
        task = EnumerationTask(*cell)
        for prune in (True, False):
            assert count_free(task, prune) == len(enumerate_all(task, prune)), (cell, prune)
    with pytest.raises(ResourceLimitError):
        count_free(EnumerationTask(d=2, p=2, n=6, m=3, cap_subspaces=100), prune=False)
    assert count_free(EnumerationTask(2, 2, 7, 3)) == 0  # pruned by the rank bound


def test_trivial_kernel_cells():
    # k = 0: the one candidate is the trivial kernel, whose columns are the
    # m = n unit vectors and -all-ones, free as m >= d+1; no spans are built
    start = time.perf_counter()
    found = enumerate_all(EnumerationTask(6, 7, 7, 7))
    assert time.perf_counter() - start < 0.1
    assert [K.basis for K in found] == [((1,) * 8,)]
    for p in (2, 3, 5):
        for n in range(2, 6):
            for d in range(1, n):
                K = subgroup_from_generators([], GroupParams(p=p, n=n, d=d))
                want = [K.basis] if subgroup_is_free_dual(K, d) else []
                found = enumerate_all(EnumerationTask(d, p, n, n), prune=False)
                assert [F.basis for F in found] == want, (d, p, n)


def test_kernels_share_row_tuples():
    found = enumerate_all(EnumerationTask(2, 5, 5, 3))
    rows = [row for K in found for row in K.basis]
    assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)
    # at k = 1 no row recurs (row 0 is all-ones minus row 1), so none is shared
    for cell in [(3, 5, 6, 5), (2, 5, 6, 5)]:
        rows = [row for K in enumerate_all(EnumerationTask(*cell)) for row in K.basis]
        assert len(set(rows)) == len(rows), cell


def test_leaf_nodes_yield_ascending_bases():
    # a leaf node (one tail of kernel rows and one pivot of the last kernel
    # row placed) runs over its final totals in order, so its bases ascend,
    # and the walk's order, which enumerate_all keeps, is a few ascending
    # runs; the order of the columns c would not ascend
    for d, p, n, m in [(3, 5, 6, 5), (2, 5, 5, 3), (3, 3, 7, 6)]:
        bases = list(enumeration._leaves(Packed.byte_fields(p, m), n - m, d, {}.setdefault))
        within = 0
        for a, b in zip(bases, bases[1:]):
            if a[2:] == b[2:] and a[1].index(1) == b[1].index(1):
                assert a < b, (d, p, n, m)
                within += 1
        assert within > len(bases) // 2, (d, p, n, m)


def test_kernel_storage_bytes():
    tracemalloc.start()
    try:
        found = enumerate_all(EnumerationTask(2, 3, 6, 4))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(found) == 6055
    # slotted subgroups on shared rows: about 129 B each, 451 B unshared
    assert held / len(found) < 150
    # nothing but the kernels grows with the walk: the peak is about 1.09x
    assert peak <= 1.4 * held
    # nor with the number of distinct running totals, which nears the number
    # of kernels at p = 7: the peak is about 1.15x
    tracemalloc.start()
    try:
        found = enumerate_all(EnumerationTask(2, 7, 5, 4))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(found) == 2705
    assert peak <= 1.6 * held


def test_enumeration_leaves_no_reference_cycles():
    # the walk is a module-level generator: a nested recursive closure would
    # form a cycle that keeps the walk's getters and spans alive until the
    # cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        for d, p, n, m in [(2, 3, 6, 4), (3, 5, 6, 5), (2, 7, 5, 4)]:
            assert enumerate_all(EnumerationTask(d, p, n, m))
            assert gc.collect() == 0, (d, p, n, m)
    finally:
        gc.enable()


def test_orbit_members_are_the_input_objects(monkeypatch):
    found = enumerate_all(EnumerationTask(2, 3, 5, 3))
    calls = []

    def counting(K):
        calls.append(K)
        return subgroup_canonical_key(K)

    monkeypatch.setattr(enumeration, "subgroup_canonical_key", counting)
    orbits = classify_orbits(found)
    assert calls == []  # classification builds no key
    assert sorted(id(K) for o in orbits for K in o.subgroups) == sorted(map(id, found))
    for o in orbits:
        assert o.members == tuple(sorted(subgroup_canonical_key(K) for K in o.subgroups))
    assert len(calls) == len(found)  # the members were built when read
    assert sorted(key for o in orbits for key in o.members) == sorted(
        subgroup_canonical_key(K) for K in found)


def test_classification_refuses_duplicate_input():
    found = enumerate_all(EnumerationTask(2, 2, 6, 3))
    copy = Subgroup(found[7].basis, found[7].params)  # equal, not the same object
    with pytest.raises(InconsistencyError, match="duplicate subgroups"):
        classify_orbits(found + [copy])


def test_classification_refuses_input_not_closed():
    found = enumerate_all(EnumerationTask(2, 3, 5, 3))
    for i in (0, 100, len(found) - 1):
        with pytest.raises(InconsistencyError, match="orbit leaves the input set"):
            classify_orbits(found[:i] + found[i + 1:])


def test_classification_needs_byte_entries():
    # rows are packed from their bytes, as canonical keys are built
    K = subgroup_from_generators([], GroupParams(p=257, n=2, d=1))
    with pytest.raises(UnsupportedParameterError, match="p <= 255, got 257"):
        classify_orbits([K])


def test_classification_takes_one_cell():
    # Row tuples of 0s and 1s pack alike at every p: the trivial kernels of
    # (2,2,6,6) and (2,3,6,6) have the same basis, so kernels of two cells
    # are refused, not classified together.
    two = enumerate_all(EnumerationTask(2, 2, 6, 6)) + enumerate_all(EnumerationTask(2, 3, 6, 6))
    assert two[0].basis == two[1].basis
    with pytest.raises(ParameterError, match="one cell"):
        classify_orbits(two)
    with pytest.raises(ParameterError, match="one cell"):
        classify_orbits(enumerate_all(EnumerationTask(2, 3, 6, 5))
                        + enumerate_all(EnumerationTask(3, 3, 6, 5)))
    assert classify_orbits([]) == []


def test_classification_at_two_byte_fields():
    # 128 <= p <= 255: every row field is two bytes wide
    found = enumerate_all(EnumerationTask(1, 131, 2, 1))
    orbits = classify_orbits(found)
    assert len(found) == 129
    assert sum(o.orbit_size for o in orbits) == len(found)
    for o in orbits:
        assert set(o.members) == _orbit_keys_by_all_permutations(o.representative)


@pytest.mark.parametrize("cell", [(2, 2, 7, 4), (2, 2, 7, 5), (2, 3, 6, 4), (2, 5, 5, 3),
                                  (2, 5, 6, 5), (2, 2, 6, 3), (2, 7, 6, 5)],
                         ids=lambda cell: "-".join(map(str, cell)))
def test_orbit_key_search_agrees_with_closure(cell):
    # two independent routes: the closure's least member and orbit size, and
    # the information-set search's least key and stabilizer order
    for o in classify_orbits(enumerate_all(EnumerationTask(*cell))):
        key, stab = _least_orbit_form(o.representative)
        assert key == subgroup_canonical_key(o.representative)
        assert factorial(cell[2] + 1) // stab == o.orbit_size


def _orbit_keys(K):
    """Oracle: the canonical key of every subgroup in the S_{n+1}-orbit of
    K, by the closure `classify_orbits` runs on packed rows."""
    packed = Packed.byte_fields(K.params.p, K.params.n + 1)
    step = packed.w // 8  # an entry is the low byte of its field
    start = tuple(packed.pack(row) for row in K.basis)
    return {canonical_key(K.params, [r.to_bytes(step * packed.m, "little")[::step] for r in rows])
            for rows in _orbit_closure(packed, start, {})}


def _orbit_keys_by_all_permutations(K):
    """Oracle: the key of the image of K under each of the (n+1)!
    permutations, each by a full elimination."""
    return {
        subgroup_canonical_key(autg_apply_subgroup(GeneratorPermutation(perm), K))
        for perm in permutations(range(K.params.n + 1))
    }


@st.composite
def lift_subspaces(draw):
    """Any subspace of F_p^{n+1} that contains all-ones, free or not: the
    span of all-ones and up to n+1 random rows."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * (n + 1)), max_size=n + 1))
    return subgroup_from_lift_rows(rows, GroupParams(p=p, n=n, d=1))


def _trivial(p, n):
    return subgroup_from_generators([], GroupParams(p=p, n=n, d=1))


def _full(p, n):
    params = GroupParams(p=p, n=n, d=1)
    return subgroup_from_generators([generator(j, params) for j in range(1, n + 1)], params)


@settings(max_examples=150, deadline=None)
@given(lift_subspaces())
@example(_full(2, 1))
@example(_trivial(3, 1))
@example(_full(7, 5))
@example(_trivial(5, 5))
# 128 <= p <= 255: two-byte packed fields
@example(subgroup_from_lift_rows([(0, 1, 5, 130), (0, 0, 2, 7)], GroupParams(p=131, n=3, d=1)))
@example(subgroup_from_lift_rows([(3, 0, 250, 7, 1)], GroupParams(p=251, n=4, d=1)))
def test_orbit_closure_matches_all_permutations(K):
    assert _orbit_keys(K) == _orbit_keys_by_all_permutations(K)


@settings(max_examples=300)
@given(lift_subspaces())
@example(_trivial(2, 1))
@example(_full(3, 1))
@example(_trivial(7, 5))
@example(_full(5, 5))
# 128 <= p <= 255: quotient columns with entries above one byte's half
@example(subgroup_from_lift_rows([(0, 1, 5, 130), (0, 0, 2, 7)], GroupParams(p=131, n=3, d=1)))
@example(subgroup_from_lift_rows([(3, 0, 250, 7, 1)], GroupParams(p=251, n=4, d=1)))
def test_columns_invert_on_any_lift(K):
    assert_columns_invert(K)


@settings(max_examples=150, deadline=None)
@given(lift_subspaces())
@example(_full(2, 1))
@example(_trivial(3, 1))
@example(_full(3, 7))
@example(_trivial(5, 7))
@example(subgroup_from_lift_rows([(1, 0, 1, 0, 0, 1, 1, 0)], GroupParams(p=2, n=7, d=1)))
# 128 <= p <= 255
@example(subgroup_from_lift_rows([(0, 1, 5, 130), (0, 0, 2, 7)], GroupParams(p=131, n=3, d=1)))
@example(subgroup_from_lift_rows([(3, 0, 250, 7, 1)], GroupParams(p=251, n=4, d=1)))
# n = 9: 210 information sets against a closure of 30,240 members
@example(construct_family("even_m", m=4))
def test_canonical_orbit_key_matches_closure_minimum(K):
    # the information-set search finds the closure's least key, and its tie
    # count is the stabilizer order
    orbit = _orbit_keys(K)
    key, stab = _least_orbit_form(K)
    assert key == min(orbit) == canonical_orbit_key(K)
    assert factorial(K.params.n + 1) // stab == len(orbit)


def test_information_set_cap(monkeypatch):
    K = construct_family("even_m", m=4)  # n = 9, lift rank 6
    monkeypatch.setattr(enumeration, "INFORMATION_SET_CAP", comb(10, 6) - 1)
    with pytest.raises(ResourceLimitError):
        canonical_orbit_key(K)


def test_classification_single_orbit():
    task = EnumerationTask(d=2, p=2, n=6, m=3)
    found = enumerate_all(task)
    orbits = classify_orbits(found)
    assert len(orbits) == 1
    assert orbits[0].orbit_size == len(found)
    rep_key = subgroup_canonical_key(orbits[0].representative)
    assert rep_key == min(orbits[0].members)
    assert canonical_orbit_key(orbits[0].representative) == rep_key


def test_classification_ignores_input_order():
    # representatives, sizes and their order do not depend on the input's
    # order: each representative is its orbit's least member by basis
    found = enumerate_all(EnumerationTask(2, 5, 5, 3))
    shuffled = list(found)
    random.Random(31).shuffle(shuffled)
    a = classify_orbits(found)
    b = classify_orbits(shuffled)
    c = classify_orbits(sorted(found, key=lambda K: K.basis))
    assert [(o.representative, o.orbit_size) for o in a] == [
        (o.representative, o.orbit_size) for o in b] == [
        (o.representative, o.orbit_size) for o in c]
    assert [o.representative.basis for o in a] == sorted(o.representative.basis for o in a)
    for o in b:
        assert o.representative.basis == min(K.basis for K in o.subgroups)


def test_classification_deterministic():
    task = EnumerationTask(d=2, p=2, n=6, m=3)
    found = enumerate_all(task)
    a = classify_orbits(found)
    b = classify_orbits(list(reversed(found)))
    assert [subgroup_canonical_key(o.representative) for o in a] == [
        subgroup_canonical_key(o.representative) for o in b
    ]
    assert [o.orbit_size for o in a] == [o.orbit_size for o in b]


def test_orbit_members_closed_under_generators():
    task = EnumerationTask(d=2, p=3, n=4, m=3)
    found = enumerate_all(task)
    if not found:
        pytest.skip("empty enumeration at this size")
    orbits = classify_orbits(found)
    by_key = {subgroup_canonical_key(K): K for K in found}
    for o in orbits:
        for key in o.members:
            K = by_key[key]
            # a transposition and the full cycle generate S_5
            for sigma in (GeneratorPermutation((1, 0, 2, 3, 4)),
                          GeneratorPermutation((4, 0, 1, 2, 3))):
                assert subgroup_canonical_key(autg_apply_subgroup(sigma, K)) in o.members


@settings(max_examples=20)
@given(st.sampled_from([("n_minus_1", dict(n=5)), ("n_minus_1", dict(n=7)),
                        ("n_minus_2", dict(n=6)), ("n_minus_2", dict(n=8)),
                        ("even_m", dict(m=4)), ("odd_m", dict(m=3)),
                        ("odd_m", dict(m=5))]))
def test_families_free(case):
    kind, kwargs = case
    K = construct_family(kind, **kwargs)
    assert acts_freely_subgroup(K, 2)
    # the map that the lift is read off annihilates every lift row
    n, cols = _family_columns(kind, kwargs.get("n"), kwargs.get("m"))
    m = len(cols[0])
    assert len(cols) == n + 1 == K.params.n + 1
    for row in K.basis:
        assert all(sum(x * c[t] for x, c in zip(row, cols)) % 2 == 0 for t in range(m))
    assert_columns_invert(K)
    if kind == "n_minus_1":
        assert quotient_rank(K) == kwargs["n"] - 1
    elif kind == "n_minus_2":
        assert quotient_rank(K) == kwargs["n"] - 2
    else:
        assert quotient_rank(K) == kwargs["m"]


def test_family_validation():
    with pytest.raises(ParameterError):
        construct_family("n_minus_1", n=4)
    with pytest.raises(ParameterError):
        construct_family("even_m", m=3)
    with pytest.raises(ParameterError):
        construct_family("no_such_family", n=6)


def test_even_m_matches_closed_form_n():
    # the even-rank family lives at n = (m-1)(m+2)/2
    K = construct_family("even_m", m=4)
    assert K.params.n == 9
    K = construct_family("odd_m", m=5)
    assert K.params.n == 15
    assert len(K.basis) - 1 == 15 - 5


def test_enumeration_report_lists_subgroups_in_basis_order():
    # enumerate_all keeps the walk's order; the report sorts what it prints
    task = EnumerationTask(2, 5, 5, 3)
    bases = [tuple(map(tuple, K["basis"])) for K in enumeration_report(task)["subgroups"]]
    walk = [K.basis for K in enumerate_all(task)]
    assert bases == sorted(walk) != walk


def test_enumeration_report_shape():
    payload = enumeration_report(EnumerationTask(d=2, p=2, n=6, m=3), classify=True)
    assert payload["count"] == 30
    assert len(payload["orbits"]) == 1
    assert payload["orbits"][0]["orbitSize"] == 30
