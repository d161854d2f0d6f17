"""Invariant monomials, Hilbert bases, relations, and induced actions."""

import gc
import json
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfermat.errors import (
    DimensionError,
    ParameterError,
    ResourceLimitError,
    UnsupportedParameterError,
)
from genfermat.geometry import fermat_model, random_omega_sample, VarietyModel
from genfermat.golden import EXAMPLE_GENERATORS, EXAMPLE_RELATIONS
from genfermat.groups import (
    GroupParams,
    generator,
    quotient_rank,
    rank_mod_p,
    subgroup_from_generators,
    subgroup_from_lift_rows,
    word,
)
from genfermat import invariants
from genfermat.invariants import (
    DiagonalAction,
    action_from_subgroup,
    find_binomial_relations,
    generates_up_to,
    hilbert_basis,
    induced_action,
    invariant_monomials_up_to,
    is_invariant,
    linear_relations,
    quotient_generator_reps,
    quotient_model_report,
    verify_relations,
)

ROOT = Path(__file__).resolve().parent.parent
QUOTIENT_MODELS = ROOT / "bench" / "reference" / "quotient_models.json"
# The benchmark checks about this many relations per subgroup
# (RELATION_SAMPLE in bench/workloads.py).
RELATION_SAMPLE = 64


def reference_action():
    params = GroupParams(p=2, n=6, d=2)
    K = subgroup_from_generators(
        [word((1, 2, 4), params), word((1, 3, 5), params), word((2, 3, 6), params)],
        params,
    )
    return K, action_from_subgroup(K)


def test_action_validation():
    with pytest.raises(DimensionError):
        DiagonalAction(p=2, num_vars=3, rows=((1, 0),))
    act = DiagonalAction(p=3, num_vars=2, rows=((1, 2), (2, 4)))
    assert act.rows == ((1, 2), (2, 1))  # reduced mod p
    with pytest.raises(UnsupportedParameterError):
        DiagonalAction(p=4, num_vars=2, rows=((2, 1),))
    assert hilbert_basis(DiagonalAction(p=2, num_vars=0, rows=())) == []


def test_is_invariant_basics():
    act = DiagonalAction(p=2, num_vars=2, rows=((1, 1),))
    assert is_invariant((1, 1), act)
    assert is_invariant((2, 0), act)
    assert not is_invariant((1, 0), act)
    with pytest.raises(DimensionError):
        is_invariant((1, 1, 1), act)


@given(st.data())
@settings(max_examples=30)
def test_character_linearity(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    nv = data.draw(st.integers(1, 4))
    rows = data.draw(
        st.lists(st.tuples(*[st.integers(0, p - 1) for _ in range(nv)]),
                 min_size=1, max_size=3)
    )
    act = DiagonalAction(p=p, num_vars=nv, rows=tuple(rows))
    a = data.draw(st.tuples(*[st.integers(0, 2 * p) for _ in range(nv)]))
    b = data.draw(st.tuples(*[st.integers(0, 2 * p) for _ in range(nv)]))
    ab = tuple(x + y for x, y in zip(a, b))
    if is_invariant(a, act) and is_invariant(b, act):
        assert is_invariant(ab, act)


def test_hilbert_basis_cyclic_example():
    # Z_3 acting by (1, 2): invariants generated by x^3, xy, y^3
    act = DiagonalAction(p=3, num_vars=2, rows=((1, 2),))
    gens = hilbert_basis(act)
    assert set(gens) == {(3, 0), (1, 1), (0, 3)}
    assert generates_up_to(gens, act, 9)


def test_hilbert_basis_minimal_and_complete():
    _, act = reference_action()
    gens = hilbert_basis(act)
    assert len(gens) == 13
    # no generator divides another
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i != j:
                assert not all(x <= y for x, y in zip(a, b))
    assert generates_up_to(gens, act, 8)


def test_hilbert_basis_ordering():
    _, act = reference_action()
    gens = hilbert_basis(act)
    degrees = [sum(g) for g in gens]
    assert degrees == sorted(degrees)
    assert degrees == [2] * 6 + [3] * 4 + [4] * 3


def minimal_invariants_oracle(act, degree_bound):
    """Reference route for `hilbert_basis`: scan every monomial up to the
    bound and keep the invariant ones no other invariant one divides."""
    monos = invariant_monomials_up_to(act, degree_bound)
    minimal = [m for m in monos
               if not any(d != m and all(x <= y for x, y in zip(d, m)) for d in monos)]
    return sorted(minimal, key=lambda v: (sum(v), tuple(-x for x in v)))


def davenport_bound(act):
    """D(Z_p^r) = r(p-1)+1 (Olson): no minimal zero-sum sequence, so no
    minimal invariant monomial, is longer.  Keeps the oracle's scan small
    where a scan up to |G| would not."""
    r = rank_mod_p(act.rows, act.p)
    return min(act.p ** r, r * (act.p - 1) + 1)


@given(st.data())
@settings(max_examples=60)
def test_hilbert_basis_matches_oracle(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    nv = data.draw(st.integers(1, 5))
    rows = data.draw(
        st.lists(st.tuples(*[st.integers(0, p - 1) for _ in range(nv)]),
                 min_size=1, max_size=3)
    )
    act = DiagonalAction(p=p, num_vars=nv, rows=tuple(rows))
    assert hilbert_basis(act) == minimal_invariants_oracle(act, davenport_bound(act))


def test_hilbert_basis_beyond_the_monomial_scan():
    # |G| = 125 in 6 variables: comb(131, 6) monomials up to degree |G|,
    # far above the walk's cap, but few zero-sum-free prefixes.
    act = DiagonalAction(p=5, num_vars=6, rows=((1, 0, 0, 1, 2, 3),
                                                (0, 1, 0, 1, 3, 2),
                                                (0, 0, 1, 1, 4, 4)))
    assert hilbert_basis(act) == minimal_invariants_oracle(act, davenport_bound(act))


def test_hilbert_basis_cap(monkeypatch):
    act = DiagonalAction(p=3, num_vars=2, rows=((1, 2),))
    monkeypatch.setattr(invariants, "HILBERT_WALK_CAP", 3)
    with pytest.raises(ResourceLimitError) as info:
        hilbert_basis(act)
    assert info.value.attempted > 3
    monkeypatch.setattr(invariants, "HILBERT_WALK_CAP", 100)
    assert len(hilbert_basis(act)) == 3


def test_hilbert_basis_deeper_than_recursion_limit():
    act = DiagonalAction(p=1009, num_vars=1, rows=((1,),))
    assert hilbert_basis(act) == [(1009,)]


def test_invariant_monomials_up_to():
    act = DiagonalAction(p=2, num_vars=2, rows=((1, 1),))
    monos = invariant_monomials_up_to(act, 2)
    assert set(monos) == {(2, 0), (1, 1), (0, 2)}


def test_binomial_relations_found_and_verified(monkeypatch):
    _, act = reference_action()
    gens = hilbert_basis(act)
    monkeypatch.setattr(invariants, "RELATION_SIDE", 4)
    rels = find_binomial_relations(gens)
    assert rels
    assert all(verify_relations(gens, rels))
    # a deliberately wrong relation fails
    assert verify_relations(gens, [((0,), (1,))]) == [False]
    with pytest.raises(ParameterError):
        verify_relations(gens, [((99,), (0,))])


def relation_classes_oracle(gens, max_side):
    """Every multiset of at most max_side generators, grouped by exponent
    sum, each class sorted."""
    by_sum = {}
    for size in range(1, max_side + 1):
        for multiset in combinations_with_replacement(range(len(gens)), size):
            total = tuple(map(sum, zip(*(gens[i] for i in multiset))))
            by_sum.setdefault(total, []).append(multiset)
    return [sorted(group) for group in by_sum.values()]


def binomial_relations_oracle(gens, max_side):
    """Brute-force oracle for `find_binomial_relations`: all pairs (a, b)
    with a < b in each sum class, class-major: the classes in order of
    their least member, then the pairs of a class in order."""
    return [pair for group in sorted(relation_classes_oracle(gens, max_side))
            for pair in combinations(group, 2)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_binomial_relations_match_oracle(data):
    nv = data.draw(st.integers(1, 5))
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, 3) for _ in range(nv)]),
                              min_size=1, max_size=12))
    max_side = data.draw(st.integers(1, 4))
    # hypothesis runs many examples per test call, so it takes no
    # function-scoped monkeypatch fixture
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "RELATION_SIDE", max_side)
        rels = find_binomial_relations(gens)
    want = binomial_relations_oracle(gens, max_side)
    assert list(rels) == want
    assert [list(group) for group in rels.classes] == sorted(
        group for group in relation_classes_oracle(gens, max_side) if len(group) > 1)
    assert list(rels) == [pair for c in rels.classes for pair in combinations(c, 2)]
    assert len(rels) == len(want)
    assert [rels[i] for i in range(len(want))] == want
    assert [rels[i] for i in range(-len(want), 0)] == want
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            rels[i]
    for k in range(1, 6):
        assert rels[::k] == want[::k]
    a = data.draw(st.integers(-len(want) - 2, len(want) + 2))
    b = data.draw(st.integers(-len(want) - 2, len(want) + 2))
    assert rels[a:b] == want[a:b]


@pytest.mark.parametrize("max_side", [4, 5])
def test_binomial_relations_count_the_sum_classes(monkeypatch, max_side):
    monkeypatch.setattr(invariants, "RELATION_SIDE", max_side)
    rels = find_binomial_relations(EXAMPLE_GENERATORS)
    classes = relation_classes_oracle(EXAMPLE_GENERATORS, max_side)
    assert len(rels) == sum(comb(len(group), 2) for group in classes)
    assert set(rels) == set(binomial_relations_oracle(EXAMPLE_GENERATORS, max_side))


@pytest.mark.parametrize("n", [255, 260])
def test_binomial_relations_past_one_byte_indices(monkeypatch, n):
    # 255 generators fill one-byte code fields (index 254 beside the unused
    # fields); 260 would need two-byte fields and are refused, though at
    # side 2 their walk is under the cap.  The zero vector (i = 0) puts
    # shorter multisets in classes with longer ones.
    monkeypatch.setattr(invariants, "RELATION_SIDE", 2)
    gens = [(i, i * i % 61) for i in range(n)]
    if n > 255:
        with pytest.raises(ResourceLimitError) as info:
            find_binomial_relations(gens)
        assert info.value.attempted == (comb(n + 2, 2) - 1) * 2
        return
    rels = find_binomial_relations(gens)
    want = binomial_relations_oracle(gens, 2)
    assert list(rels) == want
    assert [list(group) for group in rels.classes] == sorted(
        group for group in relation_classes_oracle(gens, 2) if len(group) > 1)
    assert len(rels) == len(want)
    assert [rels[i] for i in range(-len(want), 0, 97)] == want[::97]
    assert rels[-1] == want[-1]
    for k in (1, 7, 1000):
        assert rels[::k] == want[::k]


def test_binomial_relations_walk_cap(monkeypatch):
    # the cap counts code fields, RELATION_SIDE per multiset: 40 fields are
    # 20 multisets of two
    monkeypatch.setattr(invariants, "RELATION_WALK_CAP", 40)
    monkeypatch.setattr(invariants, "RELATION_SIDE", 2)
    assert list(find_binomial_relations([(1, 0), (0, 1), (1, 1)])) == [((0, 1), (2,))]
    with pytest.raises(ResourceLimitError) as info:
        find_binomial_relations(EXAMPLE_GENERATORS)
    # refused before the walk: all C(15, 2) - 1 multisets of 13 generators
    assert info.value.attempted == (comb(15, 2) - 1) * 2


@pytest.mark.parametrize("side", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_binomial_relations_cap_is_exact(monkeypatch, side, n):
    # The walk visits C(n + side, side) - 1 multisets: a cap of exactly
    # their fields lets it run, and one field fewer refuses it.
    gens = [(i, 1) for i in range(n)]
    fields = (comb(n + side, side) - 1) * side
    monkeypatch.setattr(invariants, "RELATION_SIDE", side)
    monkeypatch.setattr(invariants, "RELATION_WALK_CAP", fields)
    assert len(find_binomial_relations(gens)) == len(binomial_relations_oracle(gens, side))
    monkeypatch.setattr(invariants, "RELATION_WALK_CAP", fields - 1)
    with pytest.raises(ResourceLimitError) as info:
        find_binomial_relations(gens)
    assert info.value.attempted == fields


def test_binomial_relations_match_the_frozen_quotient_models():
    # The benchmark's reference freezes each subgroup's Hilbert basis and
    # relation count; the relations are checked on the strided sample that
    # the benchmark takes.
    subgroups = json.loads(QUOTIENT_MODELS.read_text())["subgroups"]
    assert len(subgroups) == 65
    for name, entry in subgroups.items():
        gens = [tuple(v) for v in entry["hilbert_basis"]]
        rels = find_binomial_relations(gens)
        assert len(rels) == entry["relations"], name
        assert len(rels) == sum(comb(len(c), 2) for c in rels.classes), name
        sample = rels[::max(1, len(rels) // RELATION_SAMPLE)]
        assert len(sample) >= min(len(rels), RELATION_SAMPLE), name
        assert all(verify_relations(gens, sample)), name


def test_binomial_relations_memory_on_the_largest_frozen_basis():
    # The largest frozen quotient-model basis has 57 generators and 338,599
    # relations.  Held as class-major sum classes they peak at 0.96-0.97 MB
    # under tracemalloc on CPython 3.10-3.12; a record per multiset on top
    # of the classes would reach about 1.6 MB.
    subgroups = json.loads(QUOTIENT_MODELS.read_text())["subgroups"]
    gens = max(([tuple(v) for v in entry["hilbert_basis"]] for entry in subgroups.values()),
               key=len)
    assert len(gens) == 57
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rels = find_binomial_relations(gens)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(rels) == 338_599
    assert peak <= 1.2 * 2**20


def test_binomial_relations_leave_no_garbage_cycle():
    # The walk's closure refers to itself.  Left as a cycle, it keeps the
    # sum index until the collector's next pass: walking the 65 frozen
    # quotient-model bases three times then peaked 7.5 MB higher.
    gc.collect()
    rels = find_binomial_relations(EXAMPLE_GENERATORS)
    assert gc.collect() == 0
    assert len(rels) == 124


def test_binomial_relations_input_contract():
    with pytest.raises(DimensionError):
        find_binomial_relations([(1, 0), (0, 1, 1)])
    with pytest.raises(DimensionError):
        find_binomial_relations([(1, 0, 1), (0, 1)])
    with pytest.raises(ParameterError):
        find_binomial_relations([(1, 0), (2, -1)])


def test_binomial_relations_contain_the_golden_relations(monkeypatch):
    golden = [tuple(sorted(tuple(sorted(i - 1 for i in side)) for side in rel))
              for rel in EXAMPLE_RELATIONS]
    four_sided = {rel for rel in golden if max(map(len, rel)) == 4}
    assert len(four_sided) == 3
    default = find_binomial_relations(EXAMPLE_GENERATORS)
    assert len(default) == 124
    assert set(golden) - set(default) == four_sided
    monkeypatch.setattr(invariants, "RELATION_SIDE", 4)
    assert set(golden) <= set(find_binomial_relations(EXAMPLE_GENERATORS))


def test_linear_relations_on_fermat_chart():
    params = GroupParams(p=3, n=3, d=2)
    K = subgroup_from_generators([], params)
    act = action_from_subgroup(K)
    gens = hilbert_basis(act)  # trivial action: x1^3 is not needed... p=3 cubes
    model = fermat_model(p=3, d=2)
    # trivial subgroup invariants include all single variables
    assert (1, 0, 0) in gens
    rels = linear_relations(model, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert len(rels) == 1
    rel = rels[0]
    # x3^3 = -x1^3 - x2^3 - 1 on the chart x4 = 1
    assert rel.target == 2
    assert dict(rel.coeffs) == {0: Fraction(-1), 1: Fraction(-1)}
    assert rel.constant == Fraction(-1)


def test_quotient_generator_reps():
    K, _ = reference_action()
    reps = quotient_generator_reps(K)
    assert len(reps) == 3
    p = K.params.p
    for rep in reps:
        assert rank_mod_p(K.basis + (rep.exponents,), p) == len(K.basis) + 1
    # and together they span H modulo K
    assert rank_mod_p(K.basis + tuple(r.exponents for r in reps), p) == len(K.basis) + 3


def greedy_quotient_generator_reps(K):
    """Oracle: the canonical generators that raise the rank of K's lift
    together with the generators kept before them, one elimination per
    generator."""
    p = K.params.p
    reps, span = [], list(K.basis)
    for j in range(1, K.params.n + 2):
        g = generator(j, K.params)
        if rank_mod_p(span + [g.exponents], p) > rank_mod_p(span, p):
            reps.append(g)
            span.append(g.exponents)
    return reps


@settings(max_examples=300)
@given(st.data())
def test_quotient_generator_reps_match_greedy_oracle(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    n = data.draw(st.integers(1, 7))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * (n + 1)), max_size=n + 1))
    K = subgroup_from_lift_rows(rows, GroupParams(p=p, n=n, d=1))
    reps = quotient_generator_reps(K)
    assert reps == greedy_quotient_generator_reps(K)
    assert len(reps) == quotient_rank(K)


def test_induced_action_signs():
    K, act = reference_action()
    gens = hilbert_basis(act)
    table = induced_action(K, gens)
    assert len(table) == 3
    for _, chars in table:
        # squares of variables are always invariant under sign actions
        assert chars[:6] == (0,) * 6
        # each coset generator flips exactly four of the higher generators
        assert sum(chars[6:]) == 4


def test_quotient_model_report_shape():
    K, _ = reference_action()
    report = quotient_model_report(K)
    assert len(report["generators"]) == 13
    assert report["generators"][0]["name"] == "u1"
    relations = report["binomial_relations"]
    assert relations["count"] == 124  # as find_binomial_relations(EXAMPLE_GENERATORS)
    assert relations["max_side"] == 3
    assert sum(comb(len(group), 2) for group in relations["classes"]) == 124
    names = {g["name"]: g["exponents"] for g in report["generators"]}
    for group in relations["classes"]:
        # the monomials of one class have one exponent vector
        sums = {tuple(map(sum, zip(*(names[u] for u in mono.split("*"))))) for mono in group}
        assert len(sums) == 1
    assert set(report["action"]) == {"phi1", "phi2", "phi3"}


def test_report_with_linear_relations():
    params = GroupParams(p=2, n=4, d=2)
    task_K = subgroup_from_generators([word((1, 2, 3, 4), params)], params)
    arr = random_omega_sample(5, 4, 2)
    model = VarietyModel(p=2, arrangement=arr)
    report = quotient_model_report(task_K, model=model)
    assert "linear_relations" in report
    assert len(report["linear_relations"]) == 2
