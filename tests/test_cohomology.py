"""Twist dimensions, plurigenera, surface classes, and hyperbolicity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import comb

from genfermat import cohomology, reproduce
from genfermat.cohomology import (
    ORACLE_DEGREE_CAP,
    CohomologyProfile,
    canonical_twist,
    euler_characteristic,
    genus_profile,
    h0_oracle,
    h0_twist,
    h_i,
    hyperbolicity_verdict,
    plurigenus,
    rh_genus,
)
from genfermat.errors import InconsistencyError, ParameterError, ResourceLimitError
from genfermat.golden import K3_SURFACES, RATIONAL_SURFACES


def test_canonical_twist_values():
    assert canonical_twist(2, 3, 5) == (5 - 2) * 3 - 5 - 1
    assert canonical_twist(2, 4, 3) == 0  # K3
    assert canonical_twist(2, 2, 5) == 0  # K3
    assert canonical_twist(2, 2, 4) < 0  # rational


@given(
    st.integers(2, 3), st.integers(2, 5), st.integers(0, 15), st.data()
)
@settings(max_examples=60)
def test_h0_matches_oracle(d, p, r, data):
    n = data.draw(st.integers(d + 1, 7))
    assert h0_twist(d, p, n, r) == h0_oracle(d, p, n, r)


def test_h0_small_degree_is_full_polynomial_space():
    # below degree p no power bound is active
    for r in range(3):
        assert h0_twist(2, 3, 5, r) == comb(r + 5, 5)


def test_h0_negative_twist_vanishes():
    assert h0_twist(2, 3, 5, -1) == 0
    assert h0_oracle(2, 3, 5, -1) == 0


@given(st.integers(0, 12), st.integers(0, 12))
def test_h0_monotone(r, s):
    if r <= s:
        assert h0_twist(2, 3, 5, r) <= h0_twist(2, 3, 5, s)


def test_oracle_matches_closed_form_on_grid():
    # exhaustive: d 1..4, p 2..7, n d+1..8 and every r from -2 to the cap
    for d in range(1, 5):
        for p in range(2, 8):
            for n in range(d + 1, 9):
                for r in range(-2, ORACLE_DEGREE_CAP + 1):
                    assert h0_oracle(d, p, n, r) == h0_twist(d, p, n, r), (d, p, n, r)


def test_oracle_cap():
    assert h0_oracle(2, 3, 5, ORACLE_DEGREE_CAP) == h0_twist(2, 3, 5, ORACLE_DEGREE_CAP)
    for r in (ORACLE_DEGREE_CAP + 1, 100):
        with pytest.raises(ResourceLimitError, match=f"oracle degree {r} exceeds cap") as exc:
            h0_oracle(2, 3, 5, r)
        assert exc.value.attempted == r


def test_duality_and_vanishing():
    d, p, n = 3, 3, 6
    r1 = canonical_twist(d, p, n)
    for r in range(0, 10):
        assert h_i(d, p, n, 0, r) == h0_twist(d, p, n, r)
        assert h_i(d, p, n, d, r) == h0_twist(d, p, n, r1 - r)
        for i in range(1, d):
            assert h_i(d, p, n, i, r) == 0
    with pytest.raises(ParameterError):
        h_i(d, p, n, -1, 0)


def test_euler_characteristic_anchors():
    # chi(O_F): the K3 (2;2,5) has 2, the Campedelli cover (2;2,6) has
    # 8 = |K| * chi(O_S), the quintic threefold (3;5,4) has 0
    assert euler_characteristic(2, 2, 5, 0) == 2
    assert euler_characteristic(2, 2, 6, 0) == 8
    assert euler_characteristic(3, 5, 4, 0) == 0
    # a degree-7 surface in P^3 has K = O(3): chi(O(1)) = h^0(O(1)) +
    # h^0(O(2)) = 4 + 10
    assert euler_characteristic(2, 7, 3, 1) == 14


def test_cohomology_check_catches_a_wrong_canonical_twist(monkeypatch):
    assert reproduce.check_cohomology_sweep()[0]
    # duality with r1 + 1 in place of r1 must fail the check
    wrong = lambda d, p, n: (n - d) * p - n  # noqa: E731
    monkeypatch.setattr(cohomology, "canonical_twist", wrong)
    monkeypatch.setattr(reproduce, "canonical_twist", wrong)
    ok, detail = reproduce.check_cohomology_sweep()
    assert not ok
    assert "Euler characteristic" in detail


def test_plurigenus_basics():
    assert plurigenus(2, 3, 5, 0) == 1
    assert plurigenus(2, 3, 5, 1) == genus_profile(2, 3, 5).pg
    with pytest.raises(ParameterError):
        plurigenus(2, 3, 5, -1)


def test_surface_trichotomy():
    for (p, n) in RATIONAL_SURFACES:
        prof = genus_profile(2, p, n)
        assert prof.kodaira is None and prof.pg == 0
    for (p, n) in K3_SURFACES:
        prof = genus_profile(2, p, n)
        assert prof.kodaira == 0 and prof.pg == 1 and prof.is_calabi_yau
    prof = genus_profile(2, 5, 4)
    assert prof.surface_class == "GeneralType" and prof.kodaira == 2


def test_profile_json():
    prof = genus_profile(2, 2, 4)
    data = prof.to_json()
    assert data["kodaira"] == "-infinity"
    assert isinstance(prof, CohomologyProfile)
    with pytest.raises(ParameterError):
        genus_profile(1, 2, 4)
    with pytest.raises(ParameterError):
        genus_profile(2, 2, 2)


def test_rh_genus_values():
    assert rh_genus(4, (2, 2, 2)) == 0
    assert rh_genus(9, (3, 3, 3)) == 1
    assert rh_genus(4, (2, 2, 2, 2)) == 1
    assert rh_genus(25, (5, 5, 5)) == 6  # (p-1)(p-2)/2 at p=5
    with pytest.raises(InconsistencyError):
        rh_genus(4, (3,))  # order does not divide degree
    with pytest.raises(InconsistencyError):
        rh_genus(2, (2,))  # odd total: non-integral genus


def test_hyperbolicity_cases():
    # low n: rational witness
    v = hyperbolicity_verdict(3, 5, 4)
    assert v.case == 1 and v.witness_genus == 0
    # n = 2d with small p: genus (p-1)(p-2)/2 witness
    assert hyperbolicity_verdict(2, 2, 4).case == 2
    assert hyperbolicity_verdict(2, 3, 4).case == 2
    assert hyperbolicity_verdict(2, 5, 4).case is None
    # n = 2d+1 with p=2: genus-one witness
    v = hyperbolicity_verdict(2, 2, 5)
    assert v.case == "K3Exception"  # (2,5) is K3, takes precedence
    v = hyperbolicity_verdict(3, 2, 7)
    assert v.case == 3 and v.witness_genus == 1
    # K3 exception at (4,3)
    assert hyperbolicity_verdict(2, 4, 3).case == "K3Exception"
    # beyond the classified range
    assert hyperbolicity_verdict(2, 7, 7).status == "Unknown"
    with pytest.raises(ParameterError):
        hyperbolicity_verdict(1, 2, 4)


def test_verdict_json():
    data = hyperbolicity_verdict(2, 2, 4).to_json()
    assert data["status"] == "NotAlgebraicallyHyperbolic"
    assert set(data) == {"status", "case", "witnessGenus", "witness"}
