"""Arrangements, general position, the degree-p model, and fibers."""

import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfermat import geometry
from genfermat.errors import DimensionError, ParameterError, ResourceLimitError
from genfermat.geometry import (
    Arrangement,
    ProjectivePoint,
    RESIDUAL_TOL,
    VarietyModel,
    apply_element,
    arrangement_from_json,
    arrangement_to_json,
    fermat_model,
    fiber_over,
    in_general_position_minors,
    is_on_variety,
    on_branch_locus,
    pi_project,
    projectively_close,
    random_omega_sample,
    rational_rank,
    residual,
)


def test_rational_rank():
    assert rational_rank([(1, 2), (2, 4)]) == 1
    assert rational_rank([(Fraction(1, 2), 0), (0, Fraction(1, 3))]) == 2
    assert rational_rank([]) == 0


def test_arrangement_validation():
    with pytest.raises(ParameterError):
        Arrangement(lam=(), n=2, d=2)  # n < d+1
    with pytest.raises(DimensionError):
        Arrangement(lam=((1, 2, 3),), n=4, d=2)  # row length != d
    arr = Arrangement(lam=((Fraction(1, 2), 3),), n=4, d=2)
    assert len(arr.hyperplanes) == 5


def test_fermat_degeneration():
    arr = Arrangement(lam=(), n=3, d=2)
    assert arr.general_position
    model = fermat_model(p=3, d=2)
    assert model.n == 3 and model.d == 2
    # the one equation x_3^p = -(x_0^p + x_1^p + x_2^p) is the sum hyperplane
    assert model.arrangement.hyperplanes == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def test_general_position_detects_degeneracy():
    # tilted plane parallel to the sum hyperplane: coincident directions
    arr = Arrangement(lam=((Fraction(1), Fraction(1)),), n=4, d=2)
    assert not arr.general_position
    with pytest.raises(ParameterError, match="general position"):
        VarietyModel(p=2, arrangement=arr)
    good = Arrangement(lam=((Fraction(2), Fraction(3)),), n=4, d=2)
    assert good.general_position
    assert VarietyModel(p=2, arrangement=good).arrangement == good


@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 6))
@settings(max_examples=15)
def test_two_position_checkers_agree(seed, n):
    arr = random_omega_sample(seed, n, 2)
    assert arr.general_position
    assert in_general_position_minors(arr)


def test_two_position_checkers_agree_on_both_verdicts():
    # entries in {-2..2}/{1,2} repeat often, so many arrangements are not in
    # general position; the sampler's never are
    rng = random.Random(3)
    verdicts = []
    for _ in range(200):
        d = rng.choice((2, 3))
        n = rng.randint(d + 1, d + 4)
        lam = tuple(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d))
                    for _ in range(n - d - 1))
        arr = Arrangement(lam=lam, n=n, d=d)
        verdict = arr.general_position
        assert verdict == in_general_position_minors(arr), arr
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def test_general_position_decided_once(monkeypatch):
    # the model reads the verdict the sampler cached on the arrangement
    calls = []
    rank = geometry.rational_rank
    monkeypatch.setattr(geometry, "rational_rank", lambda rows: calls.append(rows) or rank(rows))
    arr = random_omega_sample(2024, 4, 2)
    sampled = len(calls)
    assert sampled > 0
    VarietyModel(p=2, arrangement=arr)
    assert arr.general_position
    assert len(calls) == sampled


def test_sampler_deterministic():
    a = random_omega_sample(7, 5, 2)
    b = random_omega_sample(7, 5, 2)
    assert a.lam == b.lam


def test_arrangement_json_roundtrip():
    arr = random_omega_sample(3, 5, 2)
    arr2 = arrangement_from_json(arrangement_to_json(arr))
    assert arr2.lam == arr.lam


def test_projective_normalization():
    x = ProjectivePoint((2 + 0j, 4 + 0j))
    assert max(abs(c) for c in x.coords) == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        ProjectivePoint((0, 0))
    for bad in (float("nan"), float("inf"), complex(0, float("-inf"))):
        with pytest.raises(ParameterError, match="finite"):
            ProjectivePoint((1, bad))
    y = ProjectivePoint((1, 2))
    assert projectively_close(x, y)
    assert not projectively_close(x, ProjectivePoint((1, 3)))


def test_normalization_near_the_float_limit():
    # a component above 2^1000 scales the point by 2^-1000 first, exactly,
    # so abs and the division cannot overflow
    assert ProjectivePoint((2.0 ** 1000, 3)).coords == (1, 3 * 2.0 ** -1000)
    assert ProjectivePoint((2.0 ** 1001, 3)).coords == (1, 3 * 2.0 ** -1001)
    for big in (1.7e308 + 1.7e308j, 1e308 + 1e308j):
        x = ProjectivePoint((big, 1, 1))
        assert x.coords[0] == 1 and x.coords[1] == x.coords[2]
        assert 0 < abs(x.coords[1]) < 1e-308


def test_residual_on_fermat_point():
    model = fermat_model(p=3, d=2)
    zeta = cmath.exp(1j * cmath.pi / 3)  # zeta^3 = -1
    pt = ProjectivePoint((1, zeta, 0, 0))
    assert residual(model, pt) <= RESIDUAL_TOL
    assert is_on_variety(model, pt)
    assert not is_on_variety(model, ProjectivePoint((1, 1, 0, 0)))


def test_apply_element_consistency():
    pt = ProjectivePoint((1, 1j, 0.5, -1))
    # phi_2 multiplies coordinate 2 by the primitive 4th root of unity i
    a = ProjectivePoint((1, -1, 0.5, -1))
    b = apply_element((0, 1, 0, 0), pt, 4)
    assert projectively_close(a, b)
    # the all-ones exponent vector acts trivially on projective points
    c = apply_element((1, 1, 1, 1), pt, 4)
    assert projectively_close(c, pt)


def test_fiber_size_and_residuals():
    arr = random_omega_sample(11, 4, 2)
    model = VarietyModel(p=2, arrangement=arr)
    y = ProjectivePoint((1, Fraction(3, 7), Fraction(2, 5)))
    assert not on_branch_locus(arr, y)
    pts = fiber_over(y, model)
    assert len(pts) == 2 ** 4
    for pt in pts:
        assert residual(model, pt) <= RESIDUAL_TOL
        assert projectively_close(pi_project(pt, 2, 2), y)


def test_fiber_is_deck_orbit():
    arr = random_omega_sample(11, 4, 2)
    model = VarietyModel(p=2, arrangement=arr)
    y = ProjectivePoint((1, 0.31, -0.57))
    pts = fiber_over(y, model)
    x0 = pts[0]
    orbit = []
    from itertools import product

    for exps in product(range(2), repeat=4):
        orbit.append(apply_element(exps + (0,), x0, 2))
    for img in orbit:
        assert any(projectively_close(img, q) for q in pts)


def test_fiber_rejects_branch_point():
    model = fermat_model(p=2, d=2)
    with pytest.raises(ParameterError):
        fiber_over(ProjectivePoint((1, 0, 0)), model)


def test_fiber_cap():
    model = fermat_model(p=2, d=2)
    with pytest.raises(ResourceLimitError):
        fiber_over(ProjectivePoint((1, 0.4, 0.7)), model, cap=4)
