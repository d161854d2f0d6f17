"""Level-set analysis of group elements and the free-action predicates.

A nontrivial diagonal automorphism has fixed points on the degree-p model
iff some residue value appears at least n+1-d times among its exponents
(equivalently, some shifted representative has at most d nonzero entries).
Each such level set contributes one fixed stratum, itself a generalized
Fermat variety of dimension |L| + d - n - 1.
"""

from dataclasses import dataclass

from .errors import ParameterError
from .groups import GroupElement, Subgroup, subgroup_elements


@dataclass(frozen=True)
class FixedStratum:
    label: int  # residue value l
    indices: tuple  # 1-based indices of the level set
    dim: int  # |L_l| + d - n - 1
    induced_type: tuple  # (dim; p, |L_l| - 1)


def level_sets(x: GroupElement) -> dict:
    """Partition of the 1-based index set {1,...,n+1} by exponent value, on
    the normalized (last entry 0) representative: residue -> sorted tuple
    of 1-based indices."""
    return {e: tuple(i for i, f in enumerate(x.exponents, start=1) if f == e)
            for e in dict.fromkeys(x.exponents)}


def _check_nontrivial(x: GroupElement, d: int):
    if x.is_identity():
        raise ParameterError("fixed-point predicate is undefined for the identity")
    if not (1 <= d <= x.params.n):
        raise ParameterError(f"need 1 <= d <= n, got d={d}, n={x.params.n}")


def has_fixed_points(x: GroupElement, d: int) -> bool:
    """True iff some level set has size >= n+1-d, i.e. some shifted
    representative of x has at most d nonzero entries."""
    _check_nontrivial(x, d)
    e = x.exponents
    return max(map(e.count, set(e))) >= x.params.n + 1 - d


def fixed_locus_strata(x: GroupElement, d: int):
    """One stratum per level set of size >= n+1-d; empty iff x acts freely."""
    _check_nontrivial(x, d)
    n = x.params.n
    p = x.params.p
    ls = level_sets(x)
    strata = []
    for label in sorted(ls):
        idx = ls[label]
        s = len(idx)
        if s >= n + 1 - d:
            dim = s + d - n - 1
            strata.append(
                FixedStratum(label=label, indices=idx, dim=dim, induced_type=(dim, p, s - 1))
            )
    return strata


def acts_freely_subgroup(K: Subgroup, d: int) -> bool:
    """Exhaustive check: every nonidentity element of K acts freely.  K may
    have at most `groups.ELEMENT_CAP` elements."""
    for x in subgroup_elements(K):
        if x.is_identity():
            continue
        if has_fixed_points(x, d):
            return False
    return True


def free_rank_bound(p: int, m: int, n: int) -> bool:
    """Necessary condition for a freely-acting K with quotient Z_p^m: the
    n+1 branch hyperplanes must map to distinct cyclic subgroups of the
    quotient, so n+1 <= (p^m - 1)/(p - 1)."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    return n + 1 <= (p ** m - 1) // (p - 1)


def strata_report(x: GroupElement, d: int):
    """JSON-ready fixed-locus report for one element."""
    return {
        "element": list(x.exponents),
        "strata": [
            {
                "label": s.label,
                "indices": list(s.indices),
                "dim": s.dim,
                "type": list(s.induced_type),
            }
            for s in fixed_locus_strata(x, d)
        ],
    }
