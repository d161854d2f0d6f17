"""Exact arithmetic in the deck group H and its subgroups.

H is the quotient of Z_p^{n+1} by the all-ones vector, generated by the
n+1 diagonal automorphisms phi_1, ..., phi_{n+1} (each multiplies one
projective coordinate by a primitive p-th root of unity, and their product
is the identity).  Elements are stored as normalized exponent vectors with
last entry 0.  Subgroups are stored through their lift to F_p^{n+1}, which
always contains the all-ones vector, as a unique reduced row-echelon basis.

Normal forms and words in the canonical generators work for any p >= 2;
the subgroup linear algebra (echelon forms, quotient ranks) requires p
prime.  Vectors over F_p can also be packed into ints (`Packed`), so that a
vector sum is one int addition; `canonical_key` is the one definition of a
subgroup's key bytes; `quotient_columns` reads the quotient map H -> H/K off
a subgroup's basis, and `subgroup_from_columns` is its exact inverse.
"""

from dataclasses import dataclass
from itertools import product

from .errors import (
    DimensionError, InconsistencyError, ParameterError, ResourceLimitError,
    UnsupportedParameterError,
)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def require_domain(d: int, n: int):
    """The paper's domain of types (d;p,n): 2 <= d and d+1 <= n.  Every
    command that takes d and n is gated here, and nowhere else; at n = d the
    trivial kernel would act freely."""
    if not 2 <= d < n:
        raise ParameterError(f"need 2 <= d and d+1 <= n, got d={d}, n={n}")


@dataclass(frozen=True)
class GroupParams:
    """Ambient parameters: exponent p, rank parameter n (H ~ Z_p^n), and the
    variety dimension d, checked here only as 1 <= d <= n, as the fixed-point
    predicates check it; the paper's domain is `require_domain`'s."""

    p: int
    n: int
    d: int

    def __post_init__(self):
        if self.p < 2:
            raise ParameterError(f"p must be >= 2, got {self.p}")
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if not (1 <= self.d <= self.n):
            raise ParameterError(f"need 1 <= d <= n, got d={self.d}, n={self.n}")

    def require_quotient_rank(self, m: int):
        """A quotient H/K ~ Z_p^m of H ~ Z_p^n has 0 <= m <= n."""
        if not 0 <= m <= self.n:
            raise ParameterError(f"need 0 <= m <= n, got m={m}, n={self.n}")

    def require_prime(self):
        if not is_prime(self.p):
            raise UnsupportedParameterError(f"requires p prime, got {self.p}")

    def require_byte_entries(self):
        """Keys and byte-packed rows hold one byte per entry."""
        if self.p > 255:
            raise UnsupportedParameterError(
                f"entries are held one byte each, so p <= 255, got {self.p}"
            )


@dataclass(frozen=True, slots=True)
class GroupElement:
    """An element of H in normal form: exponent vector of length n+1 with
    last entry 0."""

    exponents: tuple
    params: GroupParams

    def __post_init__(self):
        if len(self.exponents) != self.params.n + 1:
            raise DimensionError(
                f"expected {self.params.n + 1} exponents, got {len(self.exponents)}"
            )
        if self.exponents[-1] != 0:
            raise ParameterError("GroupElement exponents must be normalized (last entry 0)")

    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exponents)


def elem_normalize(raw, params: GroupParams) -> GroupElement:
    """Normal-form representative: subtract the last entry from every entry
    mod p, so raw vectors differing by a multiple of the all-ones vector
    collapse to the same element."""
    raw = tuple(raw)
    if len(raw) != params.n + 1:
        raise DimensionError(f"expected length {params.n + 1}, got {len(raw)}")
    c = raw[-1] % params.p
    return GroupElement(tuple((e - c) % params.p for e in raw), params)


def generator(j: int, params: GroupParams) -> GroupElement:
    """The canonical generator phi_j, 1-based j in {1, ..., n+1}."""
    return word((j,), params)


def word(indices, params: GroupParams) -> GroupElement:
    """Product of canonical generators: word([1,2,4], params) = phi1*phi2*phi4.
    A repeated index multiplies its generator in again."""
    raw = [0] * (params.n + 1)
    for j in indices:
        if not (1 <= j <= params.n + 1):
            raise ParameterError(f"generator index {j} out of range 1..{params.n + 1}")
        raw[j - 1] += 1
    return elem_normalize(raw, params)


# ---------------------------------------------------------------------------
# Linear algebra over F_p (p prime)
# ---------------------------------------------------------------------------

class Packed:
    """Vectors of F_p^m packed into one int, coordinate t in the w-bit field
    at bit w*t (w defaults to the narrowest width, p.bit_length() + 1;
    `byte_fields` gives fields of whole bytes).  Coordinatewise addition
    mod p is one int addition plus a carry fix-up: biasing every field by
    2^(w-1) - p sets its top bit exactly where the sum reached p.  The
    enumeration walk inlines the fix-up; orbit classification carries lift
    bases as tuples of packed rows, which also key its index."""

    __slots__ = ("p", "m", "w", "ones", "high", "bias")

    def __init__(self, p: int, m: int, w: int = None):
        self.p, self.m = p, m
        # kept: byte fields made hilbert_basis over 65 models +25%, canonical_orbit_key +7%
        self.w = w or p.bit_length() + 1
        self.ones = sum(1 << (self.w * t) for t in range(m))
        self.high = self.ones << (self.w - 1)
        self.bias = self.ones * ((1 << (self.w - 1)) - p)

    @staticmethod
    def byte_fields(p: int, m: int) -> "Packed":
        """Fields of B = ceil((p.bit_length() + 1) / 8) whole bytes, so for
        p <= 255 the entries of a vector are every B-th byte of its int."""
        return Packed(p, m, 8 * ((p.bit_length() + 8) // 8))

    def pack(self, vec) -> int:
        return sum((x % self.p) << (self.w * t) for t, x in enumerate(vec))

    def add(self, u: int, v: int) -> int:
        s = u + v
        return s - (((s + self.bias) & self.high) >> (self.w - 1)) * self.p

    def multiples(self, c: int) -> list:
        """[0, c, 2c, ..., (p-1)c]: entry a is a*c."""
        p, high, bias, sh = self.p, self.high, self.bias, self.w - 1
        mults = [0, c]
        s = c
        for _ in range(p - 2):
            s += c
            s -= (((s + bias) & high) >> sh) * p
            mults.append(s)
        return mults

    def vectors(self) -> list:
        """All of F_p^m, ordered so that the first p^(m-s) entries are the
        vectors supported on coordinates s..m-1."""
        out = [0]
        for t in range(self.m - 1, -1, -1):
            out = [v + (x << (self.w * t)) for x in range(self.p) for v in out]
        return out

    def grow(self, spans, c: int) -> list:
        """Add column c to the layered spans in place: spans[r] holds every
        combination of at most r columns, and gains spans[r-1] + a*c for
        a in F_p^*.  Returns the added sets, for shrink."""
        mults = self.multiples(c)[1:]
        p, high, bias, sh = self.p, self.high, self.bias, self.w - 1
        added = []
        for r in range(len(spans) - 1, 0, -1):
            new = {
                (s := v + a) - (((s + bias) & high) >> sh) * p
                for v in spans[r - 1] for a in mults
            }
            new -= spans[r]
            spans[r] |= new
            added.append((r, new))
        return added

    @staticmethod
    def shrink(spans, added):
        for r, new in added:
            spans[r] -= new


def rref_mod_p(rows, p):
    """Reduced row-echelon form over F_p.  Returns a tuple of nonzero rows
    with pivots scaled to 1, sorted by pivot column.  Unique per row space."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col] % p, -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                f = mat[r][col] % p
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rank] if any(x % p for x in r))


def rank_mod_p(rows, p) -> int:
    return len(rref_mod_p(rows, p))


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Subgroup:
    """A subgroup K of H, stored as the unique RREF basis of its lift to
    F_p^{n+1}.  The lift always contains the all-ones vector, so
    rank(basis) = dim(K) + 1.  Slotted, as `enumerate_all` keeps every
    kernel of a cell, and subgroups may share row tuples.  Frozen, with no
    `__post_init__`: a Subgroup is exactly its two slots, so
    `subgroups_of_bases` may set them through their descriptors."""

    basis: tuple  # tuple of tuples, RREF rows over F_p of length n+1
    params: GroupParams


def subgroups_of_bases(bases, params: GroupParams) -> list:
    """A Subgroup per RREF lift basis in `bases`, in order, each basis kept
    as it is: the value the generated `__init__` builds, with its two slots
    set through their descriptors, and no Python frame per subgroup."""
    new, set_basis, set_params = object.__new__, Subgroup.basis.__set__, Subgroup.params.__set__
    out = []
    append = out.append
    for basis in bases:
        K = new(Subgroup)
        set_basis(K, basis)
        set_params(K, params)
        append(K)
    return out


def subgroup_from_generators(gens, params: GroupParams) -> Subgroup:
    rows = []
    for g in gens:
        if g.params != params:
            raise DimensionError("generator parameter mismatch")
        rows.append(g.exponents)
    return subgroup_from_lift_rows(rows, params)


def subgroup_from_lift_rows(rows, params: GroupParams) -> Subgroup:
    """Subgroup from raw lift vectors (all-ones is adjoined automatically)."""
    params.require_prime()
    all_rows = [(1,) * (params.n + 1)] + [tuple(r) for r in rows]
    if any(len(r) != params.n + 1 for r in all_rows):
        raise DimensionError(f"lift rows must have n+1 = {params.n + 1} entries")
    return Subgroup(rref_mod_p(all_rows, params.p), params)


def quotient_rank(K: Subgroup) -> int:
    """m with H/K isomorphic to Z_p^m."""
    K.params.require_prime()
    return K.params.n - (len(K.basis) - 1)


def quotient_columns(K: Subgroup) -> list:
    """The columns c_0..c_n in F_p^m of a quotient map F_p^{n+1} -> F_p^m
    whose kernel is K's lift, read off its RREF basis with no elimination:
    with non-pivot coordinates Q_1 < ... < Q_m, the column at Q_t is the
    unit vector e_t and the column at row i's pivot is minus row i on Q."""
    p, n1 = K.params.p, K.params.n + 1
    rows = {row.index(1): row for row in K.basis}  # each row leads with its pivot's 1
    free = [j for j in range(n1) if j not in rows]
    units = {q: tuple(int(s == t) for s in range(len(free))) for t, q in enumerate(free)}
    return [units[j] if j in units else tuple(-rows[j][q] % p for q in free) for j in range(n1)]


def subgroup_from_columns(cols, params: GroupParams) -> Subgroup:
    """The kernel of the quotient map with columns `cols` (n+1 vectors in
    F_p^m), the inverse of `quotient_columns`.  With Q_t the first
    coordinate whose column is the unit vector e_t, every other coordinate
    j gives the lift vector e_j - sum_t c_j[t] e_{Q_t}.  The columns must
    sum to zero mod p (the product relation), or all-ones would not lie in
    the lift."""
    p, m = params.p, len(cols[0])
    if any(sum(c[t] for c in cols) % p for t in range(m)):
        raise InconsistencyError("columns do not satisfy the product relation")
    first = {}  # t -> Q_t
    for j, c in enumerate(cols):
        if c.count(0) == m - 1 and 1 in c:
            first.setdefault(c.index(1), j)
    if len(first) < m:
        raise ParameterError("the unit vectors are not all among the columns")
    q = {j: t for t, j in first.items()}
    rows = [[-c[q[i]] % p if i in q else int(i == j) for i in range(len(cols))]
            for j, c in enumerate(cols) if j not in q]
    return subgroup_from_lift_rows(rows, params)


def subgroup_element_basis(K: Subgroup):
    """RREF basis of the image of K in H under the m_{n+1}=0 normal form:
    rows of length n+1 with last entry 0, one per dimension of K."""
    return rref_mod_p([elem_normalize(row, K.params).exponents for row in K.basis], K.params.p)


# Largest subgroup order that `subgroup_elements` lists, and so that
# `fixed_points.acts_freely_subgroup` scans.
ELEMENT_CAP = 2 ** 20


def subgroup_elements(K: Subgroup):
    """All elements of K as normalized GroupElements.  |K| = p^dim(K) must
    not exceed ELEMENT_CAP."""
    p = K.params.p
    basis = subgroup_element_basis(K)
    count = p ** len(basis)
    if count > ELEMENT_CAP:
        raise ResourceLimitError(
            f"subgroup has {count} elements, above cap {ELEMENT_CAP}", attempted=count
        )
    n1 = K.params.n + 1
    out = []
    for coeffs in product(range(p), repeat=len(basis)):
        vec = [0] * n1
        for c, row in zip(coeffs, basis):
            if c:
                for i, x in enumerate(row):
                    vec[i] = (vec[i] + c * x) % p
        out.append(GroupElement(tuple(vec), K.params))
    return out


def canonical_key(params: GroupParams, row_bytes) -> bytes:
    """The canonical key of the lift basis whose rows have the entries
    `row_bytes` (one byte each, rows in pivot order): "p,n;" and then the
    rows joined by "|".  All rows have n+1 bytes, so for fixed params the
    keys order like the bases' row tuples."""
    return f"{params.p},{params.n};".encode() + b"|".join(row_bytes)


def subgroup_canonical_key(K: Subgroup) -> bytes:
    """Deterministic serialization of the RREF lift basis (`canonical_key`);
    equal keys iff equal subgroups (for fixed params).  One byte per entry,
    so p <= 255."""
    K.params.require_byte_entries()
    return canonical_key(K.params, [bytes(row) for row in K.basis])


def subgroup_to_json(K: Subgroup):
    return {"p": K.params.p, "n": K.params.n, "basis": [list(r) for r in K.basis]}


# ---------------------------------------------------------------------------
# Permutations of the canonical generators (Aut_g(H) ~ S_{n+1})
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorPermutation:
    """A permutation of the canonical generators; perm[i] is the 0-based
    image of index i, so phi_{i+1} maps to phi_{perm[i]+1}."""

    perm: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ParameterError(f"not a permutation: {self.perm}")


def autg_apply(sigma: GeneratorPermutation, obj):
    """The image of an element or a subgroup of H under sigma: entry i of
    its exponent vector, or of each lift basis row, moves to sigma.perm[i],
    and the result is brought back to normal or reduced echelon form."""
    if isinstance(obj, GroupElement):
        rows = (obj.exponents,)
    elif isinstance(obj, Subgroup):
        rows = obj.basis
    else:
        raise ParameterError(f"cannot apply permutation to {type(obj).__name__}")
    if len(sigma.perm) != obj.params.n + 1:
        raise DimensionError("permutation size mismatch")
    moved = []
    for row in rows:
        new = [0] * len(row)
        for i, e in zip(sigma.perm, row):
            new[i] = e
        moved.append(new)
    if isinstance(obj, GroupElement):
        return elem_normalize(moved[0], obj.params)
    return Subgroup(rref_mod_p(moved, obj.params.p), obj.params)
