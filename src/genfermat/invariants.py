"""Monomial invariants of diagonal p-torsion actions and quotient models.

A diagonal action is a list of character rows: generator g scales variable
i by the p-th root of unity raised to row[i].  A monomial is invariant iff
every character row pairs to zero with its exponent vector mod p: the
characters of its variables (the columns of the rows), taken with
multiplicity, sum to zero.  The minimal monomial generators (the Hilbert
basis of the invariant monoid) are found by a walk over zero-sum-free
sequences of characters packed into ints.  Their binomial relations, with
at most RELATION_SIDE = 3 generators on a side, come from one depth-first
walk over generator multisets, keyed by packed-int exponent sums, in which
each multiset is one int code, a byte per index, whose order is the order
of its index tuple.  Every two members of one sum class form a relation,
so `find_binomial_relations` returns a `BinomialRelations` sequence that
stores the classes as arrays of codes and decodes the (a, b) pairs,
class-major, only when they are read.  The affine-linear relations coming
from the model x_t^p = -H_t(x_0^p, ..., x_d^p) on the chart x_{n+1}=1, and
the induced action of the quotient group, are computed here too; its
basis of H/K is the pivot columns of the quotient map.
"""

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement
from math import comb, isqrt
from operator import index

from .errors import (
    DimensionError,
    ParameterError,
    ResourceLimitError,
    UnsupportedParameterError,
)
from .groups import (
    Packed, Subgroup, generator, is_prime, quotient_columns, rref_mod_p, subgroup_element_basis,
)


@dataclass(frozen=True)
class DiagonalAction:
    p: int
    num_vars: int
    rows: tuple  # character rows, each of length num_vars

    def __post_init__(self):
        if not is_prime(self.p):
            raise UnsupportedParameterError(f"diagonal actions require p prime, got {self.p}")
        rows = tuple(tuple(x % self.p for x in row) for row in self.rows)
        for row in rows:
            if len(row) != self.num_vars:
                raise DimensionError("character row length mismatch")
        object.__setattr__(self, "rows", rows)


def action_from_subgroup(K: Subgroup) -> DiagonalAction:
    """Restriction of K to the affine chart x_{n+1}=1: character rows are
    the first n coordinates of the normalized basis elements."""
    n = K.params.n
    rows = [row[:-1] for row in subgroup_element_basis(K)]
    return DiagonalAction(p=K.params.p, num_vars=n, rows=tuple(rows))


def is_invariant(exponents, action: DiagonalAction) -> bool:
    if len(exponents) != action.num_vars:
        raise DimensionError("monomial length mismatch")
    return all(
        sum(c * a for c, a in zip(row, exponents)) % action.p == 0
        for row in action.rows
    )


# Steps the Hilbert basis walk may take: the largest frozen quotient-model
# subgroup takes 7,789.
HILBERT_WALK_CAP = 1_000_000


def hilbert_basis(action: DiagonalAction):
    """Minimal generators of the invariant-monomial monoid, sorted by
    (degree, x1 > x2 > ...).  They are the minimal zero-sum sequences of
    variable characters, found by a depth-first walk over monomials in
    non-decreasing variable order.  The walk carries the running sum and
    `reach`, the sums of all sub-multisets of the prefix (the empty one
    included).  Appending a variable of character c closes a generator when
    the sum becomes 0, cuts the branch when -c is in `reach` (every
    extension then has a proper invariant divisor), and otherwise extends
    the prefix.  Every prefix is zero-sum free, so it has fewer than
    D(G) <= |G| terms (the Davenport constant of the character group G),
    and the walk needs no degree bound of its own.  Characters are packed
    into ints (`Packed`), so a sum is one addition and a carry fix-up.
    `reach` is one set of ints for the whole walk: an extension adds the
    new sums and records them on the path, and backtracking removes them,
    as `Packed.grow`/`shrink` do, so the walk holds about twice the
    deepest prefix's `reach`.  HILBERT_WALK_CAP bounds the walk's steps: one
    per monomial visited plus one per sub-multiset sum formed."""
    p, n = action.p, action.num_vars
    packing = Packed(p, len(action.rows))
    high, bias, sh = packing.high, packing.bias, packing.w - 1
    chars = [packing.pack(row[j] for row in action.rows) for j in range(n)]
    negs = [packing.pack(-row[j] for row in action.rows) for j in range(n)]

    gens = []
    steps = 0
    mono = [0] * n  # the prefix's exponents
    reach = {0}
    path = []  # per extension: (variable, sum before it, sums it added)
    j, total = 0, 0  # next variable to append, and the prefix's sum
    while True:
        if j == n:  # every extension of this prefix is done: backtrack
            if not path:
                break
            j, total, added = path.pop()
            reach -= added
            mono[j] -= 1
            j += 1
            continue
        steps += 1
        if steps > HILBERT_WALK_CAP:
            raise ResourceLimitError(
                f"Hilbert basis walk passed cap {HILBERT_WALK_CAP}", attempted=steps
            )
        if negs[j] == total:
            mono[j] += 1
            gens.append(tuple(mono))
            mono[j] -= 1
        elif negs[j] not in reach:
            steps += len(reach)
            c = chars[j]
            added = {
                s for r in reach
                if (s := (t := r + c) - (((t + bias) & high) >> sh) * p) not in reach
            }
            reach |= added
            path.append((j, total, added))
            mono[j] += 1
            total = packing.add(total, c)
            continue  # the prefix's own extensions start at j
        j += 1
    return sorted(gens, key=lambda v: (sum(v), tuple(-x for x in v)))


def invariant_monomials_up_to(action: DiagonalAction, degree_bound: int):
    """All invariant monomials (nonconstant) of degree <= bound, by a scan
    of every monomial: the oracle the tests check `hilbert_basis` against."""
    out = []
    for deg in range(1, degree_bound + 1):
        for positions in combinations_with_replacement(range(action.num_vars), deg):
            mono = tuple(positions.count(i) for i in range(action.num_vars))
            if is_invariant(mono, action):
                out.append(mono)
    return out


def generates_up_to(gens, action: DiagonalAction, degree_bound: int) -> bool:
    """Oracle: every invariant monomial of degree <= bound factors into gens.

    Scans all invariant monomials up to the bound, independently of the
    walk in `hilbert_basis`, which the tests check with it."""
    genset = set(gens)

    def factors(mono):
        if not any(mono):
            return True
        for g in genset:
            if all(x <= y for x, y in zip(g, mono)):
                if factors(tuple(y - x for x, y in zip(g, mono))):
                    return True
        return False

    return all(factors(m) for m in invariant_monomials_up_to(action, degree_bound))


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

def _multiset_exponent_sum(gens, multiset):
    num_vars = len(gens[0])
    total = [0] * num_vars
    for idx in multiset:
        for i, x in enumerate(gens[idx]):
            total[i] += x
    return tuple(total)


# The largest number of generators on one side of a binomial relation.  At
# most 8, so a multiset's code, one byte per generator, is one 8-byte word.
RELATION_SIDE = 3

# Code fields the relation walk may hold, RELATION_SIDE per multiset: the
# largest quotient-model basis (57 generators) holds about 103 k, and any
# basis of 199 or more generators is refused.
RELATION_WALK_CAP = 4_000_000

# Byte translation from a one-byte code field to the generator index it
# holds, index + 1 -> index; the decoder deletes unused fields, 0, first.
_FIELD_TO_INDEX = bytes([0, *range(255)])


class BinomialRelations(Sequence):
    """The pairs (a, b) of `find_binomial_relations`, class-major, held as
    sum classes of multiset codes.  A code is one int: a multiset's indices,
    each plus one, in RELATION_SIDE one-byte fields, the first index in the
    most significant field and unused fields 0, so codes compare as the
    index tuples do.  A class holds its members' codes in ascending order,
    in an array of 8-byte words, and the classes come in order of their
    least member; the pairs of a class are its members' combinations(., 2).
    Only the classes of two or more members and the prefix sums of their
    pair counts are kept, and codes are decoded only when read: indexing is
    one bisection and decodes two codes, iteration and `classes` decode
    each member once."""

    __slots__ = ("_classes", "_ends", "_side")

    def __init__(self, classes, side):
        self._classes = classes
        self._ends = array("Q", accumulate(comb(len(group), 2) for group in classes))
        self._side = side

    def _decode(self, codes):
        """The index tuples of the multisets coded by `codes`, in order."""
        side = self._side
        return [tuple(c.to_bytes(side, "big").translate(_FIELD_TO_INDEX, b"\0"))
                for c in codes]

    def _pair(self, i):
        """The codes of pair i, for 0 <= i < len(self)."""
        j = bisect_right(self._ends, i)
        group = self._classes[j]
        # t pairs of the class follow pair i.  The last k rows of its
        # triangle hold C(k + 1, 2) pairs, so pair i is in the row with
        # C(k, 2) <= t < C(k + 1, 2), whose b ranges over the last k members.
        t = self._ends[j] - 1 - i
        k = (isqrt(8 * t + 1) + 1) // 2
        last = len(group) - 1
        return group[last - k], group[last - t + comb(k, 2)]

    def __len__(self):
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            sides = iter(self._decode(
                [code for k in range(*i.indices(len(self))) for code in self._pair(k)]))
            return list(zip(sides, sides))
        i = index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("relation index out of range")
        return tuple(self._decode(self._pair(i)))

    def __iter__(self):
        # each class is decoded once, when its pairs are reached
        for group in self._classes:
            yield from combinations(self._decode(group), 2)

    @property
    def classes(self) -> tuple:
        """The sum classes with at least two members, each once, as a tuple
        of its multisets in ascending order; the classes are ordered by
        least member."""
        return tuple(tuple(self._decode(group)) for group in self._classes)


def find_binomial_relations(gens) -> BinomialRelations:
    """All pairs (a, b) of distinct generator multisets, each side of size
    <= RELATION_SIDE, with equal exponent-vector sums.  Sides are sorted
    index tuples with a < b, and the sequence is class-major: the sum
    classes in order of their least member, the pairs of a class in (a, b)
    order.

    Each generator is packed into one int, with one field per variable wide
    enough for a sum of RELATION_SIDE entries, so a multiset's sum is an
    int addition and its dictionary key.  The multisets are walked
    depth-first in ascending order (the node, then its children by
    ascending index), and each one's int code (see `BinomialRelations`) is
    appended to the class of its sum, so each class fills in ascending
    order and the sum index meets the classes in order of their least
    member.  The walk visits C(n + RELATION_SIDE, RELATION_SIDE) - 1
    multisets of n generators, so it raises ResourceLimitError before it
    starts when they would hold more than RELATION_WALK_CAP code fields, or
    when n > 255 and an index would not fit a one-byte field.  Exponent
    vectors must be non-negative and of equal length, or the packing is not
    injective."""
    side = RELATION_SIDE
    if not gens:
        return BinomialRelations([], side)
    num_vars = len(gens[0])
    if any(len(g) != num_vars for g in gens):
        raise DimensionError("generator exponent vectors differ in length")
    if any(x < 0 for g in gens for x in g):
        raise ParameterError("generator exponents must be non-negative")
    n = len(gens)
    multisets = comb(n + side, side) - 1
    if multisets > RELATION_WALK_CAP // side or n > 255:
        raise ResourceLimitError(
            f"relation walk over {n} generators would hold {multisets * side} code "
            f"fields; the cap is {RELATION_WALK_CAP} fields and 255 generators",
            attempted=multisets * side)
    width = (side * max(max(g, default=0) for g in gens)).bit_length() + 1
    packed = [sum(x << (width * i) for i, x in enumerate(g)) for g in gens]
    template = array("Q", [0])  # a new class starts as a copy of this one
    by_sum = {}
    get = by_sum.get

    def walk(key, code, first, depth):
        # Joins the multisets below one node of `depth` generators, whose
        # code holds its fields in the low bytes; child j's code is base + j.
        base = (code << 8) + 1
        if depth < side - 1:
            shift = 8 * (side - 1 - depth)  # a child's code, moved to the top
            for j in range(first, n):
                s = key + packed[j]
                group = get(s)
                if group is None:
                    by_sum[s] = group = template[:]
                    group[0] = base + j << shift
                else:
                    group.append(base + j << shift)
                walk(s, base + j, j, depth + 1)
            return
        # kept: one loop body for every depth made the 65 frozen bases 117.3 -> 128.1 ms
        for j in range(first, n):  # the children are leaves
            s = key + packed[j]
            group = get(s)
            if group is None:
                by_sum[s] = group = template[:]
                group[0] = base + j
            else:
                group.append(base + j)

    walk(0, 0, 0, 0)
    # walk's closure holds walk itself: unbound, the cycle and by_sum go
    # now, not at the collector's next pass
    del walk
    return BinomialRelations([group for group in by_sum.values() if len(group) > 1], side)


def verify_relations(gens, relations):
    """One boolean per relation: exponent-vector sums of the two sides are
    equal."""
    out = []
    for a, b in relations:
        for idx in (*a, *b):
            if not (0 <= idx < len(gens)):
                raise ParameterError(f"generator index {idx} out of range")
        out.append(_multiset_exponent_sum(gens, a) == _multiset_exponent_sum(gens, b))
    return out


# ---------------------------------------------------------------------------
# Linear relations from the degree-p model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearRelation:
    """target = sum coeffs[j] * u_j + constant, indices into the generator
    list."""

    target: int
    coeffs: tuple  # ((gen index, Fraction), ...)
    constant: Fraction


def linear_relations(model, gens):
    """Rewrite each x_t^p = -H_t(x_0^p, ..., x_d^p) of the model, on the
    chart x_n = 1 (coordinates 0-based), as an affine-linear relation among
    the pure-power generators x_i^p.  Each t < n gives x_t^p; the last one,
    t = n, gives x_d^p, as H_n is 1 at coordinate d.  If K fixes a
    chart variable x_i, then x_i itself is a generator and x_i^p is not, so
    no such relation exists: that raises ParameterError."""
    n, d, p = model.n, model.d, model.p
    pure_power_index = {}
    for i in range(n):  # variable i (0-based), pure power p*e_i
        target_vec = tuple(p if j == i else 0 for j in range(n))
        for gi, g in enumerate(gens):
            if tuple(g) == target_vec:
                pure_power_index[i] = gi
                break
        else:
            raise ParameterError(
                f"x{i + 1}^{p} is not a generator (K fixes x{i + 1}), so the "
                "model gives no affine-linear relation among the generators"
            )
    relations = []
    for t, plane in enumerate(model.arrangement.hyperplanes[d + 1:], start=d + 1):
        solve_for = t if t < n else d
        relations.append(
            LinearRelation(
                target=pure_power_index[solve_for],
                coeffs=tuple((pure_power_index[i], -a)
                             for i, a in enumerate(plane) if a and i != solve_for),
                constant=Fraction(-1 if t == n else 0),
            )
        )
    return relations


# ---------------------------------------------------------------------------
# Induced action of the quotient group
# ---------------------------------------------------------------------------

def quotient_generator_reps(K: Subgroup):
    """Canonical generators whose images form a basis of H/K, chosen
    greedily in index order: phi_{j+1} is kept iff its quotient column c_j
    (`groups.quotient_columns`) is not spanned by c_0..c_{j-1}, that is, iff
    j is a pivot column of the quotient map's echelon form.  So one
    elimination of the m x (n+1) map picks all m of them."""
    echelon = rref_mod_p(zip(*quotient_columns(K)), K.params.p)
    return [generator(row.index(1) + 1, K.params) for row in echelon]


def induced_action(K: Subgroup, gens):
    """Character table of the quotient group on the invariant generators:
    for each coset representative, the root-of-unity exponent it applies to
    each generator.  Independent of the representative choice because the
    generators are K-invariant."""
    params = K.params
    p = params.p
    n = params.n
    table = []
    for rep in quotient_generator_reps(K):
        chars = []
        for g in gens:
            if len(g) != n:
                raise DimensionError("generator length mismatch with chart")
            chars.append(sum(e * a for e, a in zip(rep.exponents, g)) % p)
        table.append((rep, tuple(chars)))
    return table


# ---------------------------------------------------------------------------
# Full quotient-model report
# ---------------------------------------------------------------------------

def quotient_model_report(K: Subgroup, model=None):
    """JSON-ready quotient model: named generators, binomial relations,
    optional linear relations (needs the variety model), induced action.
    The binomial relations are reported as their count, their bound
    RELATION_SIDE on the generators per side, and their sum classes, each a
    list of monomials such as "u1*u4" that are all equal, so every two
    members of a class form one relation, and the report grows with the
    relation walk, not with the number of pairs."""
    action = action_from_subgroup(K)
    gens = hilbert_basis(action)
    names = [f"u{i + 1}" for i in range(len(gens))]
    binomials = find_binomial_relations(gens)
    report = {
        "generators": [
            {"name": name, "exponents": list(g)} for name, g in zip(names, gens)
        ],
        "binomial_relations": {
            "count": len(binomials),
            "max_side": RELATION_SIDE,
            "classes": [
                ["*".join(map(names.__getitem__, side)) for side in group]
                for group in binomials.classes
            ],
        },
        "action": {},
    }
    if model is not None:
        report["linear_relations"] = [
            {
                "target": names[rel.target],
                "coeffs": {names[i]: str(c) for i, c in rel.coeffs},
                "constant": str(rel.constant),
            }
            for rel in linear_relations(model, gens)
        ]
    for idx, (rep, chars) in enumerate(induced_action(K, gens), start=1):
        flipped = [names[i] for i, c in enumerate(chars) if c]
        report["action"][f"phi{idx}"] = flipped
    return report
