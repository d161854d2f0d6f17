"""Normal forms and words, subgroup linear algebra, and generator
permutations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genfermat.enumeration import canonical_orbit_key
from genfermat.errors import (
    DimensionError,
    InconsistencyError,
    ParameterError,
    UnsupportedParameterError,
)
from genfermat.groups import (
    GeneratorPermutation,
    GroupParams,
    autg_apply,
    autg_apply_element,
    autg_apply_subgroup,
    elem_normalize,
    generator,
    quotient_columns,
    quotient_rank,
    rank_mod_p,
    rref_mod_p,
    subgroup_canonical_key,
    subgroup_element_basis,
    subgroup_elements,
    subgroup_from_columns,
    subgroup_from_generators,
    subgroup_from_lift_rows,
    subgroup_to_json,
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
    with pytest.raises(UnsupportedParameterError, match="requires p prime, got 4"):
        GroupParams(p=4, n=3, d=2).require_prime()
    GroupParams(p=4, n=3, d=2).require_domain()  # the domain asks nothing of p
    GroupParams(p=2, n=2, d=2)  # n = d is a group, outside the paper's domain
    for d, n in ((2, 2), (1, 1), (5, 5)):
        with pytest.raises(ParameterError, match="d\\+1 <= n"):
            GroupParams(p=3, n=n, d=d).require_domain()


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


# --- words in the canonical generators -------------------------------------

def test_product_of_all_generators_is_identity(p3n4):
    assert word(range(1, p3n4.n + 2), p3n4).is_identity()


def test_word_builder(p2n6, p3n4):
    assert word((1, 2, 4), p2n6) == elem_normalize((1, 1, 0, 1, 0, 0, 0), p2n6)
    assert word((1, 4, 1), p3n4) == elem_normalize((2, 0, 0, 1, 0), p3n4)


# --- F_p linear algebra ----------------------------------------------------

def test_rref_unique_for_row_space():
    rows_a = [(1, 1, 0), (0, 1, 1)]
    rows_b = [(1, 0, 1), (0, 1, 1)]  # same span over F_2
    assert rref_mod_p(rows_a, 2) == rref_mod_p(rows_b, 2)


@given(st.data())
def test_row_rank_equals_column_rank(data):
    p = data.draw(st.sampled_from(PRIMES))
    ncols = data.draw(st.integers(1, 5))
    nrows = data.draw(st.integers(1, 5))
    rows = data.draw(
        st.lists(
            st.tuples(*[st.integers(0, p - 1) for _ in range(ncols)]),
            min_size=nrows, max_size=nrows,
        )
    )
    assert rank_mod_p(rows, p) == rank_mod_p(list(zip(*rows)), p)


# --- subgroups -------------------------------------------------------------

def test_trivial_and_full(p2n6):
    t = subgroup_from_generators([], p2n6)
    f = subgroup_from_generators([generator(j, p2n6) for j in range(1, 7)], p2n6)
    assert len(t.basis) - 1 == 0
    assert len(f.basis) - 1 == 6
    assert quotient_rank(t) == 6
    assert quotient_rank(f) == 0


@given(st.data())
def test_subgroup_generating_set_invariance(data):
    params = data.draw(params_strategy(primes=(2, 3), max_n=5))
    gens = data.draw(st.lists(element_strategy(params), min_size=1, max_size=3))
    K = subgroup_from_generators(gens, params)
    # products of generators give the same subgroup
    extra = gens + [elem_normalize(
        [a + b for a, b in zip(gens[0].exponents, gens[-1].exponents)], params)]
    K2 = subgroup_from_generators(extra, params)
    assert K.basis == K2.basis
    assert subgroup_canonical_key(K) == subgroup_canonical_key(K2)
    for g in gens:  # the lift basis already spans g
        assert rank_mod_p(K.basis + (g.exponents,), params.p) == len(K.basis)


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
    assert len(elems) == 2 ** (len(K.basis) - 1) == 4
    assert len(set(e.exponents for e in elems)) == 4


def test_element_basis_matches_order(p2n6):
    gens = [word((1, 2, 4), p2n6), word((1, 3, 5), p2n6), word((2, 3, 6), p2n6)]
    K = subgroup_from_generators(gens, p2n6)
    basis = subgroup_element_basis(K)
    assert len(basis) == 3
    assert all(row[-1] == 0 for row in basis)
    assert len(K.basis) - 1 == 3


def test_subgroup_json_roundtrip(p2n6):
    K = subgroup_from_generators([word((1, 2, 4), p2n6)], p2n6)
    data = subgroup_to_json(K)
    K2 = subgroup_from_lift_rows(data["basis"], GroupParams(p=data["p"], n=data["n"], d=1))
    assert K2.basis == K.basis


def test_lift_rows_reject_wrong_row_length():
    for row in ((0, 1, 0, 1, 1), (0, 1)):
        with pytest.raises(DimensionError):
            subgroup_from_lift_rows([row], GroupParams(p=2, n=3, d=1))


def test_quotient_columns_in_coordinate_order():
    params = GroupParams(p=5, n=3, d=1)
    K = subgroup_from_lift_rows([(0, 1, 0, 2)], params)  # basis (1,0,1,4), (0,1,0,2)
    # non-pivots 2, 3 carry e_1, e_2; the pivots carry minus their row there
    assert quotient_columns(K) == [(4, 1), (0, 3), (1, 0), (0, 1)]
    assert subgroup_from_columns(quotient_columns(K), params) == K
    # e_1 at coordinates 0 and 2: reading Q_1 = 2, not the first, gives the
    # lift rows e_0 - e_2 and e_3 - 3e_2 - 4e_1, the same kernel
    assert subgroup_from_columns([(1, 0), (0, 1), (1, 0), (3, 4)], params) == (
        subgroup_from_lift_rows([(1, 0, 4, 0), (0, 1, 2, 1)], params))


def test_columns_refused_without_product_relation_or_units():
    params = GroupParams(p=3, n=3, d=1)
    with pytest.raises(InconsistencyError, match="product relation"):
        subgroup_from_columns([(1, 0), (0, 1), (1, 1), (0, 0)], params)
    with pytest.raises(ParameterError, match="unit vectors"):
        subgroup_from_columns([(2, 0), (0, 1), (1, 1), (0, 1)], params)


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
    s_after_t = GeneratorPermutation(tuple(sigma[j] for j in tau))
    x = data.draw(element_strategy(params))
    assert autg_apply_element(s_after_t, x) == autg_apply_element(
        s, autg_apply_element(t, x)
    )


def test_autg_permutes_generators(p3n4):
    psi = GeneratorPermutation((4, 0, 1, 2, 3))  # the full cycle
    for j in range(1, p3n4.n + 2):
        img = autg_apply_element(psi, generator(j, p3n4))
        expected = generator(psi.perm[j - 1] + 1, p3n4)
        assert img == expected


def test_autg_subgroup_preserves_order(p2n6):
    K = subgroup_from_generators(
        [word((1, 2, 4), p2n6), word((1, 3, 5), p2n6)], p2n6
    )
    identity = GeneratorPermutation(tuple(range(7)))
    swap = GeneratorPermutation((1, 0, 2, 3, 4, 5, 6))
    cycle = GeneratorPermutation((6, 0, 1, 2, 3, 4, 5))
    for sigma in (identity, swap, cycle):
        img = autg_apply_subgroup(sigma, K)
        assert len(img.basis) == len(K.basis)
    assert autg_apply_subgroup(identity, K).basis == K.basis


def test_autg_apply_dispatch(p2n6):
    x = generator(1, p2n6)
    K = subgroup_from_generators([x], p2n6)
    sigma = GeneratorPermutation((1, 0, 2, 3, 4, 5, 6))
    assert autg_apply(sigma, x) == generator(2, p2n6)
    assert autg_apply(sigma, K).basis == subgroup_from_generators(
        [generator(2, p2n6)], p2n6
    ).basis
    with pytest.raises(ParameterError):
        autg_apply(sigma, "not a group object")
