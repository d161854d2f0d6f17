"""Twisting-sheaf dimensions, plurigenera, Kodaira dimension, and the
hyperbolicity classifier.

All counts are exact big integers.  The canonical twist is
r1 = (n-d)p - n - 1; its sign decides the Kodaira dimension, and for d=2
the surface class: rational where r1 < 0 and K3 where r1 = 0 (`golden`).
"""

from dataclasses import dataclass
from itertools import accumulate
from math import comb, factorial, prod

from .errors import InconsistencyError, ParameterError, ResourceLimitError
from .groups import GroupParams, require_domain

# Highest degree `h0_oracle` counts monomials for.
ORACLE_DEGREE_CAP = 60


def canonical_twist(d: int, p: int, n: int) -> int:
    """r1 = (n-d)p - n - 1, the twist realizing the canonical sheaf."""
    return (n - d) * p - n - 1


def _bounded_sum_counts(length: int, bound: int, total_max: int):
    """counts[s] = number of tuples in {0..bound}^length with entry sum s,
    for s <= total_max."""
    counts = [1] + [0] * total_max
    for _ in range(length):
        new = [0] * (total_max + 1)
        for s, c in enumerate(counts):
            if not c:
                continue
            for v in range(min(bound, total_max - s) + 1):
                new[s + v] += c
        counts = new
    return counts


def h0_twist(d: int, p: int, n: int, r: int) -> int:
    """dim H^0 of the r-th twisting sheaf on the degree-p model."""
    if r < 0:
        return 0
    top = min(r, (n - d) * (p - 1))
    counts = _bounded_sum_counts(n - d, p - 1, top)
    return sum(c * comb(r - s + d, d) for s, c in enumerate(counts) if c)


def h0_oracle(d: int, p: int, n: int, r: int) -> int:
    """Independent count of the monomials of total degree r in n+1
    variables whose last n-d exponents are at most p-1, tabulated variable
    by variable: counts[s] is the number of monomials of degree s in the
    variables taken so far.  A free variable turns counts into its prefix
    sums, and a bounded one into their windows of width p.  No binomial
    formulas.  r may be at most ORACLE_DEGREE_CAP."""
    if r < 0:
        return 0
    if r > ORACLE_DEGREE_CAP:
        raise ResourceLimitError(f"oracle degree {r} exceeds cap {ORACLE_DEGREE_CAP}", attempted=r)
    counts = [1] + [0] * r
    for _ in range(d + 1):
        counts = list(accumulate(counts))
    for _ in range(n - d):
        sums = list(accumulate(counts))
        counts = sums[:p] + [sums[s] - sums[s - p] for s in range(p, r + 1)]
    return counts[r]


def h_i(d: int, p: int, n: int, i: int, r: int) -> int:
    """Cohomology of the r-th twist: nonzero only in degrees 0 and d
    (complete intersection), with top degree given by duality."""
    if i < 0:
        raise ParameterError(f"cohomological degree must be >= 0, got {i}")
    if i == 0:
        return h0_twist(d, p, n, r)
    if i == d:
        return h0_twist(d, p, n, canonical_twist(d, p, n) - r)
    return 0


def euler_characteristic(d: int, p: int, n: int, r: int) -> int:
    """chi of the r-th twisting sheaf, by the Koszul resolution of the n-d
    degree-p equations: sum_j (-1)^j C(n-d, j) P_n(r - jp), where P_n(s) =
    (s+1)...(s+n)/n! is chi(O(s)) on P^n, a product so that s < 0 works.
    It shares no code with `h0_twist` or `h_i`."""
    return sum((-1) ** j * comb(n - d, j) * prod(range(r - j * p + 1, r - j * p + n + 1))
               for j in range(n - d + 1)) // factorial(n)


def plurigenus(d: int, p: int, n: int, m: int) -> int:
    """m-th plurigenus: sections of the m-th power of the canonical sheaf."""
    if m < 0:
        raise ParameterError(f"plurigenus index must be >= 0, got {m}")
    return h0_twist(d, p, n, m * canonical_twist(d, p, n))


@dataclass(frozen=True)
class CohomologyProfile:
    d: int
    p: int
    n: int
    r1: int
    pg: int  # geometric genus = arithmetic genus
    kodaira: object  # None for -infinity, else 0 or d
    is_calabi_yau: bool
    surface_class: str  # "Rational" | "K3" | "GeneralType" | "" (d > 2)

    def to_json(self):
        return {
            "d": self.d,
            "p": self.p,
            "n": self.n,
            "r1": self.r1,
            "pg": self.pg,
            "kodaira": "-infinity" if self.kodaira is None else self.kodaira,
            "calabiYau": self.is_calabi_yau,
            "surfaceClass": self.surface_class,
        }


def genus_profile(d: int, p: int, n: int) -> CohomologyProfile:
    require_domain(d, n)
    GroupParams(p=p, n=n, d=d)  # refuses p < 2
    r1 = canonical_twist(d, p, n)
    pg = h0_twist(d, p, n, r1)
    if r1 < 0:
        kodaira = None
    elif r1 == 0:
        kodaira = 0
    else:
        kodaira = d
    surface_class = ""
    if d == 2:
        surface_class = {None: "Rational", 0: "K3", 2: "GeneralType"}[kodaira]
    return CohomologyProfile(
        d=d, p=p, n=n, r1=r1, pg=pg, kodaira=kodaira,
        is_calabi_yau=(r1 == 0), surface_class=surface_class,
    )


# ---------------------------------------------------------------------------
# Riemann-Hurwitz and hyperbolicity
# ---------------------------------------------------------------------------

def rh_genus(degree: int, branch_orders) -> int:
    """Genus of a degree-D cover of the line where every point over the
    i-th branch value has local order e_i: 2g-2 = -2D + sum (D/e_i)(e_i-1)."""
    if degree < 1:
        raise ParameterError(f"degree must be >= 1, got {degree}")
    total = -2 * degree
    for e in branch_orders:
        if e < 2 or degree % e:
            raise InconsistencyError(f"branch order {e} does not divide degree {degree}")
        total += (degree // e) * (e - 1)
    if total % 2:
        raise InconsistencyError("branching data gives a non-integral genus")
    g = (total + 2) // 2
    if g < 0:
        raise InconsistencyError("branching data gives a negative genus")
    return g


@dataclass(frozen=True)
class HyperbolicityVerdict:
    status: str  # "NotAlgebraicallyHyperbolic" | "Unknown"
    case: object  # 1 | 2 | 3 | "K3Exception" | None
    witness_genus: object  # int | None
    witness: str = ""

    def to_json(self):
        return {
            "status": self.status,
            "case": self.case,
            "witnessGenus": self.witness_genus,
            "witness": self.witness,
        }


def hyperbolicity_verdict(d: int, p: int, n: int) -> HyperbolicityVerdict:
    require_domain(d, n)
    GroupParams(p=p, n=n, d=d)  # refuses p < 2
    if d == 2 and canonical_twist(d, p, n) == 0:  # a K3 surface
        return HyperbolicityVerdict(
            status="NotAlgebraicallyHyperbolic",
            case="K3Exception",
            witness_genus=None,
            witness="K3 surface with infinite automorphism group",
        )
    if n <= 2 * d - 1:
        return HyperbolicityVerdict(
            status="NotAlgebraicallyHyperbolic",
            case=1,
            witness_genus=0,
            witness="line through two deep points of the branch configuration "
                    "lifts to a rational curve",
        )
    if n == 2 * d and p in (2, 3):
        g = rh_genus(p * p, (p, p, p))
        return HyperbolicityVerdict(
            status="NotAlgebraicallyHyperbolic",
            case=2,
            witness_genus=g,
            witness=f"degree-{p * p} abelian cover of a line with three branch "
                    f"points of order {p} has genus {g}",
        )
    if n == 2 * d + 1 and p == 2:
        g = rh_genus(4, (2, 2, 2, 2))
        return HyperbolicityVerdict(
            status="NotAlgebraicallyHyperbolic",
            case=3,
            witness_genus=g,
            witness=f"degree-4 abelian cover of a line with four branch points "
                    f"of order 2 has genus {g}",
        )
    return HyperbolicityVerdict(status="Unknown", case=None, witness_genus=None)
