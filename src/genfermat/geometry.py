"""Hyperplane data, the degree-p model, and numeric fiber verification.

The branch data is a rational (n-d-1) x d matrix whose rows extend the
d+2 standard hyperplanes of P^d to a configuration of n+1 hyperplanes
H_0..H_n.  The degree-p model is the variety x_t^p = -H_t(x_0^p, ..., x_d^p)
for t = d+1..n, read off the hyperplanes themselves.  An `Arrangement`
decides general position once, by exact rational ranks, and makes its float
image once; the model, the projection, and its fibers are numeric.
"""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

from .errors import DimensionError, ParameterError, ResourceLimitError
from .groups import require_domain

RESIDUAL_TOL = 1e-9
POINT_TOL = 1e-8
BRANCH_PROXIMITY = 1e-6
OMEGA_TRIALS = 1000


# ---------------------------------------------------------------------------
# Exact rational linear algebra
# ---------------------------------------------------------------------------

def rational_rank(rows) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [x / lead for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


# ---------------------------------------------------------------------------
# Arrangements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arrangement:
    """n+1 hyperplanes in P^d: the d+1 coordinate hyperplanes, the sum
    hyperplane, and one tilted hyperplane per row of the rational matrix.
    The degenerate case n = d+1 (classical Fermat hypersurface) carries an
    empty matrix."""

    lam: tuple  # (n-d-1) rows of d Fractions; empty for n = d+1
    n: int
    d: int

    def __post_init__(self):
        require_domain(self.d, self.n)
        expected = self.n - self.d - 1
        if len(self.lam) != expected:
            raise DimensionError(
                f"expected {expected} matrix rows for n={self.n}, d={self.d}, "
                f"got {len(self.lam)}"
            )
        lam = tuple(tuple(Fraction(x) for x in row) for row in self.lam)
        for row in lam:
            if len(row) != self.d:
                raise DimensionError(f"matrix row length {len(row)} != d={self.d}")
        object.__setattr__(self, "lam", lam)

    @cached_property
    def hyperplanes(self):
        """Coefficient vectors in Q^{d+1} of the n+1 hyperplanes, in order.
        Every H_t with t > d is 1 at coordinate d.  Built once per
        arrangement, for `general_position` and `float_planes`."""
        d = self.d
        out = [tuple(Fraction(int(i == j)) for j in range(d + 1)) for i in range(d + 1)]
        out.append(tuple(Fraction(1) for _ in range(d + 1)))
        for row in self.lam:
            out.append(row + (Fraction(1),))
        return tuple(out)

    @cached_property
    def general_position(self) -> bool:
        """Every k <= d+1 of the coefficient vectors has full rank k (so every
        k <= d hyperplanes meet in dimension d-k and every d+1 meet emptily).
        Only the (d+1)-subsets are tested: there are n+1 >= d+2 vectors, so
        every smaller subset lies in one of them, and a subset of independent
        vectors is independent."""
        return all(rational_rank(subset) == self.d + 1
                   for subset in combinations(self.hyperplanes, self.d + 1))

    @cached_property
    def float_planes(self):
        """The float image: the hyperplanes as floats, each paired with its
        Euclidean norm, the one place floats are made from the arrangement.
        The norm is `math.hypot`, which scales before squaring, so a large
        entry cannot overflow it to inf."""
        try:
            planes = [tuple(float(a) for a in plane) for plane in self.hyperplanes]
        except OverflowError as exc:
            raise ParameterError("arrangement entry too large for a float") from exc
        return tuple((plane, math.hypot(*plane)) for plane in planes)


def in_general_position_minors(arr: Arrangement) -> bool:
    """Independent slow check: determinant of every maximal square minor of
    every subset of every size 2..d+1, by cofactor expansion."""

    def det(mat):
        k = len(mat)
        if k == 1:
            return mat[0][0]
        total = Fraction(0)
        for j in range(k):
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            term = mat[0][j] * det(minor)
            total += term if j % 2 == 0 else -term
        return total

    planes = arr.hyperplanes
    for k in range(2, min(arr.d + 1, len(planes)) + 1):
        for subset in combinations(planes, k):
            cols = len(subset[0])
            if not any(
                det([[row[c] for c in colsel] for row in subset])
                for colsel in combinations(range(cols), k)
            ):
                return False
    return True


def random_omega_sample(seed: int, n: int, d: int) -> Arrangement:
    """Rejection-sample a rational matrix until the arrangement is in
    general position.  Deterministic for a given seed."""
    rng = random.Random(seed)
    rows = n - d - 1
    for _ in range(OMEGA_TRIALS):
        lam = tuple(
            tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(d))
            for _ in range(rows)
        )
        arr = Arrangement(lam=lam, n=n, d=d)
        if arr.general_position:
            return arr
    raise ResourceLimitError(f"no general-position sample found in {OMEGA_TRIALS} trials")


def arrangement_to_json(arr: Arrangement):
    return {
        "n": arr.n,
        "d": arr.d,
        "lambda": [[str(x) for x in row] for row in arr.lam],
    }


def arrangement_from_json(data) -> Arrangement:
    """Inverse of `arrangement_to_json`; JSON of any other shape raises
    ParameterError."""
    if not (
        isinstance(data, dict)
        and all(type(data.get(key)) is int for key in ("n", "d"))
        and isinstance(data.get("lambda"), list)
        and all(isinstance(row, list) for row in data["lambda"])
    ):
        raise ParameterError(
            "arrangement JSON must be an object with integers n, d and a list of rows lambda"
        )
    try:
        lam = tuple(tuple(Fraction(x) for x in row) for row in data["lambda"])
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ParameterError(f"non-numeric arrangement entry: {exc}") from exc
    return Arrangement(lam=lam, n=data["n"], d=data["d"])


# ---------------------------------------------------------------------------
# The degree-p model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarietyModel:
    """The complete intersection x_t^p = -H_t(x_0^p, ..., x_d^p), t = d+1..n,
    in P^n over an arrangement in general position (the paper's hypothesis;
    any other raises ParameterError)."""

    p: int
    arrangement: Arrangement

    def __post_init__(self):
        if self.p < 2:
            raise ParameterError(f"p must be >= 2, got {self.p}")
        if not self.arrangement.general_position:
            raise ParameterError("the arrangement is not in general position")

    @property
    def n(self):
        return self.arrangement.n

    @property
    def d(self):
        return self.arrangement.d


def fermat_model(p: int, d: int) -> VarietyModel:
    """Classical Fermat hypersurface of degree p in P^{d+1} (n = d+1)."""
    return VarietyModel(p=p, arrangement=Arrangement(lam=(), n=d + 1, d=d))


# ---------------------------------------------------------------------------
# Numeric points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectivePoint:
    coords: tuple  # complex, scaled so the largest-modulus coordinate is 1

    def __post_init__(self):
        object.__setattr__(self, "coords", normalize_coords(self.coords))


def normalize_coords(coords):
    coords = tuple(complex(c) for c in coords)
    if not all(map(cmath.isfinite, coords)):
        raise ParameterError("projective point coordinates must be finite")
    if any(max(abs(c.real), abs(c.imag)) > 2.0 ** 1000 for c in coords):
        # exactly, so that abs and the division below cannot overflow
        coords = tuple(complex(c.real * 2.0 ** -1000, c.imag * 2.0 ** -1000) for c in coords)
    mags = [abs(c) for c in coords]
    top = max(mags)
    if top == 0.0:
        raise ParameterError("projective point cannot be the zero vector")
    scale = coords[mags.index(top)]
    return tuple(c / scale for c in coords)


def projectively_close(a: ProjectivePoint, b: ProjectivePoint) -> bool:
    """Whether b, scaled to agree with a at a's largest coordinate, is
    within POINT_TOL of a in every coordinate."""
    xa, xb = a.coords, b.coords
    if len(xa) != len(xb):
        return False
    i = max(range(len(xa)), key=lambda k: abs(xa[k]))
    if abs(xb[i]) < POINT_TOL:
        return False
    s = xa[i] / xb[i]
    return all(abs(x - s * y) <= POINT_TOL for x, y in zip(xa, xb))


def residual(model: VarietyModel, x: ProjectivePoint) -> float:
    """Max over t > d of |x_t^p + H_t(x_0^p, ..., x_d^p)| at the normalized
    representative."""
    if len(x.coords) != model.n + 1:
        raise DimensionError(f"point has {len(x.coords)} coords, expected {model.n + 1}")
    powers = [c ** model.p for c in x.coords]
    d = model.d
    return max(abs(sum(a * z for a, z in zip(plane, powers)) + powers[t])
               for t, (plane, _) in enumerate(model.arrangement.float_planes[d + 1:], d + 1))


def is_on_variety(model: VarietyModel, x: ProjectivePoint) -> bool:
    return residual(model, x) <= RESIDUAL_TOL


def pi_project(x: ProjectivePoint, d: int, p: int) -> ProjectivePoint:
    """The covering projection: p-th powers of the first d+1 coordinates."""
    head = x.coords[: d + 1]
    if all(abs(c) == 0.0 for c in head):
        raise ParameterError("first d+1 coordinates all vanish; point not on the variety")
    return ProjectivePoint(tuple(c ** p for c in head))


def apply_element(exponents, x: ProjectivePoint, p: int) -> ProjectivePoint:
    """Diagonal action of an exponent vector (length n+1)."""
    if len(exponents) != len(x.coords):
        raise DimensionError("exponent vector length mismatch")
    w = cmath.exp(2j * cmath.pi / p)
    return ProjectivePoint(tuple(c * w ** e for c, e in zip(x.coords, exponents)))


def on_branch_locus(arr: Arrangement, y: ProjectivePoint) -> bool:
    ynorm = math.sqrt(sum(abs(c) ** 2 for c in y.coords))
    for plane, lnorm in arr.float_planes:
        if abs(sum(a * c for a, c in zip(plane, y.coords))) < BRANCH_PROXIMITY * ynorm * lnorm:
            return True
    return False


# Largest fiber (p^n points) that `fiber_over` computes by default.
FIBER_CAP = 2 ** 20


def fiber_over(y: ProjectivePoint, model: VarietyModel, cap: int = FIBER_CAP):
    """The full fiber of the covering projection over a point off the branch
    locus: exactly p^n points, ordered lexicographically in the root-choice
    exponents of coordinates 2..n+1."""
    n, d, p = model.n, model.d, model.p
    if cap < 0:
        raise ParameterError(f"cap must be non-negative, got {cap}")
    if len(y.coords) != d + 1:
        raise DimensionError(f"base point has {len(y.coords)} coords, expected {d + 1}")
    if on_branch_locus(model.arrangement, y):
        raise ParameterError("base point lies on (or too close to) the branch locus")
    if p ** n > cap:
        raise ResourceLimitError(f"fiber size {p ** n} exceeds cap {cap}", attempted=p ** n)
    # y holds x_0^p..x_d^p; x_t^p = -H_t(y) for the remaining coordinates
    z = list(y.coords) + [-sum((a * c for a, c in zip(plane, y.coords) if a), 0j)
                          for plane, _ in model.arrangement.float_planes[d + 1:]]
    w = cmath.exp(2j * cmath.pi / p)
    roots = [c ** (1.0 / p) if c != 0 else 0j for c in z]
    # principal root for coordinate 1 is pinned; the other n coordinates
    # range over all p-th root choices
    points = []
    for choice in product(range(p), repeat=n):
        coords = [roots[0]]
        for k, e in enumerate(choice, start=1):
            coords.append(roots[k] * w ** e)
        points.append(ProjectivePoint(tuple(coords)))
    return points


def point_to_json(x: ProjectivePoint):
    return [[c.real, c.imag] for c in x.coords]
