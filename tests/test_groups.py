"""Group arithmetic, subgroup linear algebra, and generator permutations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genfermat.enumeration import canonical_orbit_key
from genfermat.errors import DimensionError, ParameterError, UnsupportedParameterError
from genfermat.groups import (
    GeneratorPermutation,
    GroupParams,
    autg_apply,
    autg_apply_element,
    autg_apply_subgroup,
    elem_inv,
    elem_mul,
    elem_normalize,
    elem_order,
    elem_pow,
    full_group,
    generator,
    identity,
    nullspace_mod_p,
    perm_full_cycle,
    perm_identity,
    perm_swap_first_two,
    quotient_rank,
    rank_mod_p,
    rref_mod_p,
    subgroup_canonical_key,
    subgroup_contains,
    subgroup_element_basis,
    subgroup_elements,
    subgroup_from_generators,
    subgroup_from_json,
    subgroup_from_lift_rows,
    subgroup_order,
    subgroup_to_json,
    trivial_subgroup,
    word,
)

PRIMES = (2, 3, 5, 7)


def params_strategy(primes=PRIMES, max_n=6):
    return st.builds(
        lambda p, n: GroupParams(p=p, n=n, d=1),
        st.sampled_from(primes),
        st.integers(min_value=1, max_value=max_n),
    )


def element_strategy(params):
    return st.tuples(
        *[st.integers(min_value=0, max_value=params.p - 1) for _ in range(params.n + 1)]
    ).map(lambda raw: elem_normalize(raw, params))


# --- parameters and normal form -------------------------------------------

def test_params_validation():
    with pytest.raises(ParameterError):
        GroupParams(p=1, n=3, d=2)
    with pytest.raises(ParameterError):
        GroupParams(p=2, n=3, d=4)
    with pytest.raises(ParameterError):
        GroupParams(p=2, n=0, d=1)
    GroupParams(p=4, n=3, d=2)  # non-prime p is fine for element arithmetic
    with pytest.raises(UnsupportedParameterError):
        GroupParams(p=4, n=3, d=2).require_prime()


def test_normalize_collapses_all_ones(p3n4):
    a = elem_normalize((1, 2, 0, 1, 2), p3n4)
    b = elem_normalize((2, 0, 1, 2, 0), p3n4)  # same plus all-ones
    assert a == b
    assert a.exponents[-1] == 0


@given(st.data())
def test_normalize_idempotent(data):
    params = data.draw(params_strategy())
    raw = data.draw(
        st.tuples(*[st.integers(0, params.p - 1) for _ in range(params.n + 1)])
    )
    x = elem_normalize(raw, params)
    assert elem_normalize(x.exponents, params) == x


def test_wrong_length_raises(p3n4):
    with pytest.raises(DimensionError):
        elem_normalize((1, 2, 0), p3n4)


# --- group axioms ----------------------------------------------------------

@given(st.data())
def test_group_axioms(data):
    params = data.draw(params_strategy())
    x = data.draw(element_strategy(params))
    y = data.draw(element_strategy(params))
    z = data.draw(element_strategy(params))
    e = identity(params)
    assert elem_mul(x, e) == x
    assert elem_mul(x, elem_inv(x)) == e
    assert elem_mul(elem_mul(x, y), z) == elem_mul(x, elem_mul(y, z))
    assert elem_mul(x, y) == elem_mul(y, x)  # abelian


@given(st.data())
def test_order_divides_p(data):
    params = data.draw(params_strategy())
    x = data.draw(element_strategy(params))
    k = elem_order(x)
    assert params.p % k == 0
    assert elem_pow(x, k) == identity(params)


def test_product_of_all_generators_is_identity(p3n4):
    prod = identity(p3n4)
    for j in range(1, p3n4.n + 2):
        prod = elem_mul(prod, generator(j, p3n4))
    assert prod.is_identity()


def test_word_builder(p2n6):
    w = word((1, 2, 4), p2n6)
    assert w == elem_mul(elem_mul(generator(1, p2n6), generator(2, p2n6)),
                         generator(4, p2n6))


# --- F_p linear algebra ----------------------------------------------------

def test_rref_unique_for_row_space():
    rows_a = [(1, 1, 0), (0, 1, 1)]
    rows_b = [(1, 0, 1), (0, 1, 1)]  # same span over F_2
    assert rref_mod_p(rows_a, 2) == rref_mod_p(rows_b, 2)


@given(st.data())
def test_rank_nullity(data):
    p = data.draw(st.sampled_from(PRIMES))
    ncols = data.draw(st.integers(1, 5))
    nrows = data.draw(st.integers(1, 5))
    rows = data.draw(
        st.lists(
            st.tuples(*[st.integers(0, p - 1) for _ in range(ncols)]),
            min_size=nrows, max_size=nrows,
        )
    )
    r = rank_mod_p(rows, p)
    ns = nullspace_mod_p(rows, p, ncols=ncols)
    assert r + len(ns) == ncols
    for v in ns:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) % p == 0


# --- subgroups -------------------------------------------------------------

def test_trivial_and_full(p2n6):
    t = trivial_subgroup(p2n6)
    f = full_group(p2n6)
    assert subgroup_order(t) == 1
    assert subgroup_order(f) == 2 ** 6
    assert quotient_rank(t) == 6
    assert quotient_rank(f) == 0


@given(st.data())
def test_subgroup_generating_set_invariance(data):
    params = data.draw(params_strategy(primes=(2, 3), max_n=5))
    gens = data.draw(st.lists(element_strategy(params), min_size=1, max_size=3))
    K = subgroup_from_generators(gens, params)
    # products of generators give the same subgroup
    extra = gens + [elem_mul(gens[0], gens[-1])]
    K2 = subgroup_from_generators(extra, params)
    assert K.basis == K2.basis
    assert subgroup_canonical_key(K) == subgroup_canonical_key(K2)
    for g in gens:
        assert subgroup_contains(K, g)


def test_canonical_key_rejects_entries_above_255():
    K = subgroup_from_lift_rows([(0, 1, 256, 0)], GroupParams(p=257, n=3, d=1))
    assert K.basis[1] == (0, 1, 256, 0)
    with pytest.raises(UnsupportedParameterError):
        subgroup_canonical_key(K)
    # entries below 256 whose least orbit form has larger ones
    L = subgroup_from_lift_rows([(1, 2, 3, 0)], GroupParams(p=257, n=3, d=1))
    with pytest.raises(UnsupportedParameterError):
        canonical_orbit_key(L)


def test_subgroup_elements_count(p2n6):
    gens = [word((1, 2, 4), p2n6), word((1, 3, 5), p2n6)]
    K = subgroup_from_generators(gens, p2n6)
    elems = subgroup_elements(K)
    assert len(elems) == subgroup_order(K) == 4
    assert len(set(e.exponents for e in elems)) == 4


def test_element_basis_matches_order(p2n6):
    gens = [word((1, 2, 4), p2n6), word((1, 3, 5), p2n6), word((2, 3, 6), p2n6)]
    K = subgroup_from_generators(gens, p2n6)
    basis = subgroup_element_basis(K)
    assert len(basis) == 3
    assert all(row[-1] == 0 for row in basis)
    assert subgroup_order(K) == 8


def test_subgroup_json_roundtrip(p2n6):
    K = subgroup_from_generators([word((1, 2, 4), p2n6)], p2n6)
    K2 = subgroup_from_json(subgroup_to_json(K))
    assert K2.basis == K.basis


def test_subgroup_json_rejects_wrong_row_length():
    for row in ([0, 1, 0, 1, 1], [0, 1]):
        with pytest.raises(DimensionError):
            subgroup_from_json({"p": 2, "n": 3, "basis": [[1, 1, 1, 1], row]})


def test_lift_rows_reject_wrong_row_length():
    for row in ((0, 1, 0, 1, 1), (0, 1)):
        with pytest.raises(DimensionError):
            subgroup_from_lift_rows([row], GroupParams(p=2, n=3, d=1))


# --- generator permutations ------------------------------------------------

def test_permutation_validation():
    with pytest.raises(ParameterError):
        GeneratorPermutation((0, 0, 1))


@given(st.data())
def test_autg_composition(data):
    params = data.draw(params_strategy())
    n = params.n
    sigma = data.draw(st.permutations(list(range(n + 1)))).copy()
    tau = data.draw(st.permutations(list(range(n + 1)))).copy()
    s = GeneratorPermutation(tuple(sigma))
    t = GeneratorPermutation(tuple(tau))
    x = data.draw(element_strategy(params))
    assert autg_apply_element(s.compose(t), x) == autg_apply_element(
        s, autg_apply_element(t, x)
    )


def test_autg_permutes_generators(p3n4):
    psi = perm_full_cycle(p3n4.n)
    for j in range(1, p3n4.n + 2):
        img = autg_apply_element(psi, generator(j, p3n4))
        expected = generator(psi.perm[j - 1] + 1, p3n4)
        assert img == expected


def test_autg_subgroup_preserves_order(p2n6):
    K = subgroup_from_generators(
        [word((1, 2, 4), p2n6), word((1, 3, 5), p2n6)], p2n6
    )
    for sigma in (perm_identity(6), perm_swap_first_two(6), perm_full_cycle(6)):
        img = autg_apply_subgroup(sigma, K)
        assert subgroup_order(img) == subgroup_order(K)
    assert autg_apply_subgroup(perm_identity(6), K).basis == K.basis


def test_autg_apply_dispatch(p2n6):
    x = generator(1, p2n6)
    K = subgroup_from_generators([x], p2n6)
    sigma = perm_swap_first_two(6)
    assert autg_apply(sigma, x) == generator(2, p2n6)
    assert autg_apply(sigma, K).basis == subgroup_from_generators(
        [generator(2, p2n6)], p2n6
    ).basis
    with pytest.raises(ParameterError):
        autg_apply(sigma, "not a group object")
