"""Enumeration and classification of freely-acting subgroups.

The collection F(d;p,n,m) consists of subgroups K of H with elementary
abelian quotient of rank m that contain no nontrivial element supported
(up to the all-ones shift) on at most d generators.  Dually, K is free iff
no nonzero combination of at most d of the quotient map's n+1 columns
vanishes.

Enumeration is one depth-first walk over the reduced-echelon bases of the
(n-m)-dimensional subspaces of F_p^n, each the part of a kernel's lift in
F_p^{n+1} that is zero at coordinate 0, filling one basis row at a time.
The quotient columns are read off the basis without elimination, as
`groups.quotient_columns` reads them off any kernel for the dual oracle:
the non-pivot columns are unit vectors, row i alone fixes the column at its
pivot, and the column of coordinate 0 is minus the sum.  The walk keeps
layered spans L_0 <= ... <= L_{d-1} of the columns placed so far (L_r:
every combination of at most r of them); a column in L_{d-1} is rejected
together with every completion of its row prefix.  The walk packs
its columns into ints with whole-byte fields (`groups.Packed`, p <= 255)
and gathers each lift basis from their bytes, with no elimination, each
kernel row built once where the walk places it (`enumerate_all`), and each
row of a leaf node once per node.  A leaf node rejects its candidates with
one set, built where they outnumber its packed adds, and then builds its
kernels, in basis order, in one list comprehension, with no Python frame
per kernel (`_walk`); `groups.subgroups_of_bases` wraps them with none
either (`enumerate_all`).  The kernels stay in the walk's
deterministic order, unsorted, from listing to orbits: canonical order is
paid for only where it is read, in the reports that print kernels.
`count_free` runs the same walk and keeps no kernel.

Classification is up to the S_{n+1} of generator permutations.
`classify_orbits` indexes the kernels, in any order, by their lift bases as
tuples of packed rows, each distinct row packed once, and closes each orbit
under the two standard generators on those rows: either costs at most one
rank-one insertion, planned once per inserted row and cell, and no key
bytes are built.  An orbit's representative is its least member by basis,
the order of canonical keys (`groups.canonical_key`).  The canonical key of
an orbit is its least subgroup key [I | A]; `canonical_orbit_key` finds it
from the information sets of one member, merging search states equal up
to a column bijection, and the closure is its test oracle.  The explicit
p = 2 families are the kernels of their column lists
(`groups.subgroup_from_columns`).
"""

import time
from dataclasses import dataclass, field
from itertools import combinations, islice, product
from math import comb, factorial
from operator import attrgetter, itemgetter

from .errors import InconsistencyError, ParameterError, ResourceLimitError
from .fixed_points import free_rank_bound
from .groups import (
    GroupParams, Packed, Subgroup, canonical_key, quotient_columns, subgroup_canonical_key,
    subgroup_from_columns, subgroup_to_json, subgroups_of_bases,
)


@dataclass(frozen=True)
class EnumerationTask:
    """One cell (d, p, n, m) of the paper's domain: p prime (and at most 255,
    as the walk reads rows off bytes), d+1 <= n and 0 <= m <= n."""

    d: int
    p: int
    n: int
    m: int
    cap_subspaces: int = 2_000_000

    def __post_init__(self):
        params = self.params
        params.require_prime()
        params.require_domain()
        params.require_byte_entries()
        params.require_quotient_rank(self.m)
        if self.cap_subspaces < 0:
            raise ParameterError(f"cap_subspaces must be non-negative, got {self.cap_subspaces}")

    @property
    def params(self) -> GroupParams:
        return GroupParams(p=self.p, n=self.n, d=self.d)


@dataclass(frozen=True)
class Verdict:
    possibly_nonempty: bool
    reason: str = ""


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def necessary_bounds(d: int, p: int, n: int, m: int) -> Verdict:
    """Sound pruning on the paper's domain d+1 <= n: Empty verdicts are
    proven; PossiblyNonempty promises nothing.  The rank bound needs d >= 2:
    1-freeness only asks for nonzero quotient columns, which may repeat."""
    params = GroupParams(p=p, n=n, d=d)
    params.require_prime()
    params.require_domain()
    params.require_quotient_rank(m)
    if m < d:
        return Verdict(False, f"quotient rank m={m} below dimension d={d}")
    if m == d == 2 and p < 4:
        return Verdict(False, f"m=d=2 requires p >= 4, got p={p}")
    if d >= 2 and not free_rank_bound(p, m, n):
        return Verdict(
            False, f"n+1={n + 1} exceeds (p^m-1)/(p-1)={(p ** m - 1) // (p - 1)}"
        )
    return Verdict(True)


# ---------------------------------------------------------------------------
# The pruned walk over RREF bases
# ---------------------------------------------------------------------------

def _row_getter(packed, n: int, P: int, t: int, pivots):
    """An itemgetter that reads a lift row in F_p^{n+1} off the bytes of a
    packed vector on the non-pivot coordinates Q followed by the bytes 0
    and 1 (`_walk`'s row buffers): the row has its leading 1 at walk
    coordinate P (lift coordinate P+1, so P = -1 is coordinate 0), zeros
    left of it and at `pivots`, and the fields of Q from index t on at the
    other coordinates right of it."""
    step = packed.w // 8
    size = step * packed.m
    at = []
    for q in range(-1, n):
        if q < P or q in pivots:
            at.append(size)
        elif q == P:
            at.append(size + 1)
        else:
            at.append(step * t)
            t += 1
    return itemgetter(*at)


def _bytes_reader(get, nbytes):
    """The row that `get` (`_row_getter`) reads off the bytes of an int."""
    return lambda b: get(b.to_bytes(nbytes, "little"))


class _LeafRows(dict):
    """A leaf node's rows by the int whose bytes they are read off, each
    read on its first lookup and kept as the tuple `share` keeps: a node
    below kernel rows serves every tail of them, so its rows recur."""

    __slots__ = ("read", "share")

    def __init__(self, read, share):
        self.read, self.share = read, share

    def __missing__(self, b):
        self[b] = row = self.share(r := self.read(b), r)
        return row


def _walk(row, hi, packed, vecs, spans, total, tail, node, above, share):
    """Place basis rows row, row-1, ..., 0 below the rows in `tail`,
    yielding the lift basis in F_p^{n+1} each time row 0 is placed.  Row i
    has s_i <= s_{i+1} = hi non-pivot positions before its pivot P_i = s_i
    + i, and its quotient column c is any vector supported on coordinates
    s_i..m-1.  A column in the top span is rejected together with every
    completion of the prefix.

    Kernel row i is 1 at P_i, zero at the pivots `above` it (all right of
    P_i) and -c on the non-pivot coordinates right of P_i, so it is built
    here, once, as the tuple `share` keeps, and passed down in `tail`.  A
    leaf builds its own row and row 0 of the lift, all-ones reduced: 1 at
    coordinate 0, zero at every pivot and the final running total
    (all-ones plus every column) on Q.  Rows are read off the bytes of
    packed vectors by the getters of `node`, one per s, built on first use
    for the s-prefix placed so far.  A leaf node below kernel rows serves
    every tail of them, so it reads each of its rows once and keeps it by
    the int it is read off (`_LeafRows`); at k = 1 no row recurs, and the
    getters read each row straight off the bytes.

    A leaf node (row 0 at one s) runs over x = total + c.  Its dependent
    column -x is in the top span once c joins iff x is in spans[-1] or
    total + b*c = b*x - (b-1)*total is in spans[-2] for some b != 1 (b = 0
    rejects every leaf at once).  The spans are closed under scaling by
    F_p^*, so x is rejected iff it lies in R = top, top + total (c in top)
    or lower + a*total, a = 1 - 1/b = 2..p-1.  R is built when node s = 0's
    p^m candidates outnumber its 2|top| + (p-2)|lower| packed adds, and
    serves every node, and each node builds the bases of its survivors in
    one list comprehension, at most p^m of them, and yields from it; else
    each candidate is probed term by term.  x runs as head + y (total below
    field s, no carry) for y over the vectors on s..m-1 in lexicographic
    order, so a node yields its bases ascending."""
    p, high, bias, sh = packed.p, packed.high, packed.bias, packed.w - 1
    nbytes = packed.w // 8 * packed.m + 2
    one = 1 << (8 * nbytes - 8)  # the bytes 0 and 1 after the fields
    neg = packed.ones * p + one  # neg - c is -c with fields in [1, p]
    top = spans[-1]
    lower, more = (spans[-2], range(p - 2)) if len(spans) > 1 else ((), ())  # b = 2..p-1
    if not row:
        if total in lower:
            return
        neg += total  # neg - x is total - x = -c with fields in [1, 2p-1]
        rejects = None
        if p ** packed.m > 2 * len(top) + len(more) * len(lower):  # node s = 0 vs R's adds
            rejects = set(top)
            for a, span in zip(packed.multiples(total)[1:], [top] + [lower] * len(more)):
                rejects.update([(z := u + a) - (((z + bias) & high) >> sh) * p for u in span])
    for s in range(hi + 1):
        entry = node.get(s)
        if entry is None:
            n = packed.m + row + 1 + len(above)  # k = row + 1 + len(above)
            get = _row_getter(packed, n, s + row, s, above)
            if row:
                entry = node[s] = (get, {}, above + (s + row,))
            else:
                get_top = _row_getter(packed, n, -1, 0, above + (s,))
                read, read_top = _bytes_reader(get, nbytes), _bytes_reader(get_top, nbytes)
                if above:  # else k = 1, and no row recurs: row 0 is all-ones minus row 1
                    read = _LeafRows(read, share).__getitem__
                    read_top = _LeafRows(read_top, share).__getitem__
                    get = None  # rows are read through `read` and `read_top`
                entry = node[s] = (get, get_top, read, read_top)
        cols = islice(vecs, p ** (packed.m - s))
        if row:
            get, below, pivots = entry
            for c in cols:
                if c in top:
                    continue
                r = neg - c
                r = get((r - (((r + bias) & high) >> sh) * p).to_bytes(nbytes, "little"))
                added = packed.grow(spans, c)
                yield from _walk(row - 1, s, packed, vecs, spans, packed.add(total, c),
                                 (share(r, r),) + tail, below, pivots, share)
                packed.shrink(spans, added)
            continue
        get, get_top, read, read_top = entry
        if s:  # x = head + y has total's fields below s
            head = total & ((1 << packed.w * s) - 1)
            cols = [head + y for y in cols]
        if rejects is not None:
            if get is None:
                yield from [(read_top(x + one),
                             read((r := neg - x) - (((r + bias) & high) >> sh) * p)) + tail
                            for x in cols if x not in rejects]
            else:  # k = 1: the tail is empty
                yield from [(get_top((x + one).to_bytes(nbytes, "little")),
                             get(((r := neg - x) - (((r + bias) & high) >> sh) * p)
                                 .to_bytes(nbytes, "little"))) for x in cols if x not in rejects]
            continue
        bare = neg - one  # bare - x is -c, with no marker bytes
        for x in cols:
            if x in top:
                continue
            r = bare - x
            r -= (((r + bias) & high) >> sh) * p
            if r in top:
                continue
            z = x
            for _ in more:
                z += total
                z -= (((z + bias) & high) >> sh) * p
                if z in lower:
                    break
            else:
                yield (read_top(x + one), read(r + one)) + tail


def _leaves(packed, k, d, share):
    """The walk over k basis rows with d-free quotient columns in `packed`'s
    F_p^m, the iterator `_walk` itself, with no generator frame of its own
    around it: the lift basis of each leaf's kernel, each row the tuple
    `share` keeps, or at k <= 1, where no row recurs, the tuple as read.
    With pivots P and non-pivot positions Q = (Q_1..Q_m), the quotient
    column at Q_t is the unit vector e_t, the column at pivot P_i is minus
    row i restricted to Q, and the dependent column c_0 (the lift's
    coordinate 0, outside the walk) is minus their sum, so each row fixes
    one column and the walk never eliminates.  At k = 0 the columns
    are the m = n >= d+1 unit vectors and -all-ones, whose only vanishing
    combination takes all m+1 > d of them, so the one kernel is trivial and
    free, and its lift is all-ones."""
    if k == 0:
        return iter([((1,) * (packed.m + 1),)])
    spans = [{0} for _ in range(d)]
    for t in range(packed.m):
        packed.grow(spans, 1 << (packed.w * t))
    return _walk(k - 1, packed.m, packed, packed.vectors(), spans, packed.ones, (), {}, (), share)


def iter_rref_bases(n: int, k: int, p: int):
    """Oracle: every k-dimensional subspace of F_p^n, by brute force.

    Yields the unique RREF basis (k rows of length n) of each: every pivot
    set, and every filling of the entries right of a pivot outside the
    pivot columns.  It shares nothing with the walk; the tests filter its
    bases by elimination and compare with `enumerate_all`."""
    for pivots in combinations(range(n), k):
        slots = [(i, q) for i, P in enumerate(pivots)
                 for q in range(P + 1, n) if q not in pivots]
        for values in product(range(p), repeat=len(slots)):
            rows = [[int(q == P) for q in range(n)] for P in pivots]
            for (i, q), x in zip(slots, values):
                rows[i][q] = x
            yield tuple(map(tuple, rows))


def _columns_free(cols, d: int, p: int) -> bool:
    """No nonzero combination of at most d columns vanishes: no column lies
    in L_{d-1}, the combinations of at most d-1 earlier ones.  Met in the
    middle: the layered spans grow to b = ceil((d-1)/2) layers only, and as
    L_{d-1} = L_a + L_b with a = d-1-b, and L_a = -L_a, a column c is
    rejected when c + u lies in L_b for some u in L_a."""
    packed = Packed(p, len(cols[0]))
    high, bias, sh = packed.high, packed.bias, packed.w - 1
    spans = [{0} for _ in range(d // 2 + 1)]
    low, top = spans[(d - 1) // 2], spans[-1]
    for col in cols:
        c = packed.pack(col)
        if any((s := c + u) - (((s + bias) & high) >> sh) * p in top for u in low):
            return False
        packed.grow(spans, c)
    return True


def subgroup_is_free_dual(K: Subgroup, d: int) -> bool:
    """Oracle: whether K acts freely, by the dual route on K alone.

    Reads the quotient columns off K's own lift basis
    (`groups.quotient_columns`), with no element enumeration and no
    elimination.  It shares no code with the walk but
    the span growth `Packed.grow`, and its tests run `acts_freely_subgroup`
    beside it; they check every kernel the walk keeps, and elimination's
    candidates, with it."""
    return _columns_free(quotient_columns(K), d, K.params.p)


def _cell_leaves(task: EnumerationTask, prune: bool, share):
    """The walk over `task`'s cell under the proven bounds (when `prune`)
    and the subspace cap: the lift basis of each free kernel, in the walk's
    order, its recurring rows the tuples `share` keeps (`_leaves`)."""
    if prune and not necessary_bounds(task.d, task.p, task.n, task.m).possibly_nonempty:
        return iter(())
    n, p, m = task.n, task.p, task.m
    k = n - m
    count = gaussian_binomial(n, k, p)
    if count > task.cap_subspaces:
        raise ResourceLimitError(
            f"{count} candidate subspaces exceed cap {task.cap_subspaces}",
            attempted=count,
        )
    return _leaves(Packed.byte_fields(p, m), k, task.d, share)


def enumerate_all(task: EnumerationTask, prune: bool = True):
    """All of F(d;p,n,m), in the walk's deterministic order, not sorted: the
    reports that print kernels sort them by basis.  Walks the
    (n-m)-dimensional subspaces W = L ∩ {x_0 = 0} of the lifts L (walk
    coordinate q is lift coordinate q+1) under the subspace cap, pruning
    every row prefix whose quotient columns already fail freeness, and
    takes each lift basis in F_p^{n+1} from the walk's leaf.  L = W +
    <all-ones>, so its reduced echelon basis is
    - all-ones reduced against the kernel rows: 1 at coordinate 0, 0 at
      their pivots, and the running total = all-ones + sum c_i on the
      non-pivot coordinates Q;
    - the kernel rows: 1 at their pivots and -c_i on Q.
    The walk builds each kernel row once, where it places it, and a leaf
    only the last kernel row and the all-ones row (`_walk`).  The bases of
    one call share one tuple per distinct row, and the list of kernels is
    all that is kept; each kernel is built through its slots
    (`groups.subgroups_of_bases`)."""
    shared = {}  # one tuple per distinct basis row, which every basis reuses
    return subgroups_of_bases(_cell_leaves(task, prune, shared.setdefault), task.params)


def count_free(task: EnumerationTask, prune: bool = True) -> int:
    """|F(d;p,n,m)|: the walk of `enumerate_all`, under the same bounds and
    cap, with its leaves counted; no kernel is kept and no `Subgroup`
    built, so memory does not grow with the count."""
    return sum(1 for _ in _cell_leaves(task, prune, lambda row, _: row))


# ---------------------------------------------------------------------------
# Orbit classification under generator permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitClass:
    representative: Subgroup
    orbit_size: int
    subgroups: tuple = field(default=(), compare=False)  # the input objects

    @property
    def members(self) -> tuple:
        """The canonical keys of the members, sorted, built when read."""
        return tuple(sorted(map(subgroup_canonical_key, self.subgroups)))


def _orbit_closure(packed, start, plans):
    """Every lift basis in the S_{n+1}-orbit of `start`, as tuples of packed
    echelon rows (`Packed.byte_fields` over F_p^{n+1}), by closure under the
    transposition (0 1) and the cycle j+1 -> j, 0 -> n, which generate
    S_{n+1}.  Row 0 has pivot 0, as all-ones lies in every lift, and is
    all-ones minus rows 1..k, as a vector of the span is the sum of the rows
    times its entries at their pivots.
    - When coordinate 1 is a pivot, (0 1) exchanges rows 0 and 1 and their
      entries at coordinates 0 and 1, and the cycle leaves rows 1..k reduced
      echelon and the rotated row 0, v, zero at their pivots, so v goes back
      in by one rank-one insertion, one add per row nonzero at v's lead.
      Its lead, inverse and multiples are planned once per row 0 in `plans`,
      which must serve one (p, n) only.
    - Otherwise rows 1..k are zero at coordinates 0 and 1, so row 0 is 1 at
      both: (0 1) fixes the subgroup, and the rotated rows are reduced
      echelon as they stand, row 0 taking pivot 0, where the others are 0.
    """
    p, w, high, bias = packed.p, packed.w, packed.high, packed.bias
    sh, mask, e1 = w - 1, (1 << w) - 1, 1 << w
    # the cycle moves row 0's 1 at coordinate 0 to n and shifts rows 1..k, 0 there
    last = 1 << w * (packed.m - 1)
    seen = {start}
    frontier = [start]
    while frontier:
        rows = frontier.pop()
        if len(rows) > 1 and rows[1] & -rows[1] == e1:
            swap = (rows[1] - e1 + 1, rows[0] - 1 + e1) + rows[2:]
            if swap not in seen:
                seen.add(swap)
                frontier.append(swap)
            plan = plans.get(rows[0])
            if plan is None:
                v = (rows[0] >> w) | last
                c = ((v & -v).bit_length() - 1) // w * w
                inv, mults = pow((v >> c) & mask, -1, p), packed.multiples(v)
                plan = (c, 1 << c, p - inv, mults, mults[inv])
                if len(rows) > 2:  # at k = 1, row 0 fixes the kernel and never recurs
                    plans[rows[0]] = plan
            c, lead, ninv, mults, u = plan
            rot = []
            for r in rows[1:]:
                r >>= w
                f = (r >> c) & mask
                if f:
                    s = r + mults[f * ninv % p]
                    r = s - (((s + bias) & high) >> sh) * p
                elif u and r & -r > lead:
                    rot.append(u)
                    u = 0  # placed
                rot.append(r)
            if u:
                rot.append(u)
            rot = tuple(rot)
        else:
            rot = ((rows[0] >> w) | last, *[r >> w for r in rows[1:]])
        if rot not in seen:
            seen.add(rot)
            frontier.append(rot)
    return seen


class _RowPacker(dict):
    """Lift rows to their ints in `packed` (`Packed.byte_fields` over
    F_p^{n+1}), each distinct row packed once, from its bytes, on its first
    lookup."""

    __slots__ = ("step", "buf")

    def __init__(self, packed):
        self.step = packed.w // 8  # an entry is the low byte of its field
        self.buf = bytearray(self.step * packed.m)

    def pack(self, row) -> int:
        self.buf[::self.step] = bytes(row)
        return int.from_bytes(self.buf, "little")

    def __missing__(self, row):
        self[row] = r = self.pack(row)
        return r


def classify_orbits(subgroups):
    """Partition kernels of one cell (equal params) into orbits under the
    full permutation group of the canonical generators.  Each orbit's
    representative is its least member by basis, the order of their keys,
    and the orbits are ordered by representative; the input may come in any
    order.  The kernels are indexed by their packed kernel rows 1..k, which
    fix row 0 (`_orbit_closure`), each distinct row packed once, from its
    bytes, on first sight; an orbit's members, the input objects, are
    popped from the index.  Raises on mixed params, duplicates, or an orbit
    leaving it."""
    cell = list(subgroups)
    if not cell:
        return []
    params = cell[0].params
    if [K.params for K in cell].count(params) < len(cell):  # count() tries `is` first
        raise ParameterError("classification takes the kernels of one cell")
    params.require_byte_entries()  # rows are packed from their bytes
    packed = Packed.byte_fields(params.p, params.n + 1)
    rows = _RowPacker(packed)
    get = rows.__getitem__  # packs a row on its first lookup
    keys = [tuple(map(get, K.basis[1:])) for K in cell]
    index = dict(zip(keys, cell))
    if len(index) != len(cell):
        raise InconsistencyError("duplicate subgroups in classification input")
    plans = {}  # insertion plans of this cell (`_orbit_closure`)
    orbits = []
    for K, key in zip(cell, keys):
        if key not in index:
            continue  # taken by an earlier orbit
        closure = _orbit_closure(packed, (rows.pack(K.basis[0]),) + key, plans)
        try:
            members = tuple([index.pop(basis[1:]) for basis in closure])
        except KeyError:
            raise InconsistencyError("orbit leaves the input set; input was not "
                                     "closed under generator permutations") from None
        orbits.append(OrbitClass(min(members, key=attrgetter("basis")), len(members), members))
    orbits.sort(key=attrgetter("representative.basis"))
    return orbits


def _information_set_forms(K: Subgroup):
    """For every information set I of K's lift basis M (the k+1 columns
    where M is invertible), the rows of M_I^{-1} M restricted to the other
    columns, as tuples.  Rows are packed ints (`Packed`), so each pivot
    step is a table of multiples and one add per row."""
    p, size = K.params.p, K.params.n + 1
    packed = Packed(p, size)
    w, mask = packed.w, (1 << packed.w) - 1
    basis = [packed.pack(row) for row in K.basis]
    r = len(basis)
    for info in combinations(range(size), r):
        rows = list(basis)
        for l, c in enumerate(info):
            shift = w * c
            for i in range(l, r):
                a = (rows[i] >> shift) & mask
                if a:
                    break
            else:
                break  # M_I is singular
            inv = pow(a, -1, p)
            mults = packed.multiples(rows[i])
            rows[i] = rows[l]
            rows[l] = mults[inv]
            for i in range(r):
                f = (rows[i] >> shift) & mask
                if f and i != l:
                    rows[i] = packed.add(rows[i], mults[(p - f) * inv % p])
        else:
            rest = [w * j for j in range(size) if j not in info]
            yield [tuple([(row >> t) & mask for t in rest]) for row in rows]


def _least_orbit_form(K: Subgroup):
    """The least canonical key over the S_{n+1}-orbit of K, and the order
    of K's stabilizer in S_{n+1}.

    A least key has its pivots at 0..k (moving a pivot left past a
    non-pivot coordinate, whose column is nonzero as all-ones lies in the
    lift, lowers the first row where they differ), so it is [I | A] with A
    = M_I^{-1} M on the other columns, for an ordered information set I.
    Reordering I permutes the rows of A, and for a fixed row order the
    row-major least A has its columns sorted as tuples.  The search picks
    the rows one at a time, keeping only the states whose prefix of A is
    least so far; identical rows are taken once, with a weight.  Each least
    leaf (ordered I, column order) is one permutation onto the least key,
    so the weights times prod(multiplicity of equal columns)! sum to
    |Stab|, and the orbit has (n+1)!/|Stab| members.  After each step,
    states are merged, weights summed, whose columns agree as multisets,
    each column read as its prefix and then its entries in the remaining
    rows: they differ by a column bijection, which maps the continuations
    of one row for row onto the other's, with the same prefixes of A and
    final column multiplicities, so the least key and |Stab| are unchanged."""
    states = [(rows, tuple(range(len(rows))), [()] * len(rows[0]), 1)
              for rows in _information_set_forms(K)]
    prefix = []
    for _ in range(len(K.basis)):
        best, survivors = None, {}
        for rows, remaining, cols, weight in states:
            alike = {}
            for i in remaining:
                alike.setdefault(rows[i], []).append(i)
            for vals, same in alike.items():
                new = [c + (v,) for c, v in zip(cols, vals)]
                seq = [c[-1] for c in sorted(new)]
                if best is None or seq < best:
                    best, survivors = seq, {}
                if seq == best:
                    rest = tuple(j for j in remaining if j != same[0])
                    sig = tuple(sorted(zip(new, *[rows[j] for j in rest])))
                    survivors.setdefault(sig, [rows, rest, new, 0])[3] += weight * len(same)
        prefix.append(best)
        states = survivors.values()
    (_, _, cols, stab), = states  # every least leaf has the key's columns
    for col in set(cols):
        stab *= factorial(cols.count(col))
    r = len(prefix)
    key = canonical_key(
        K.params, [bytes([int(j == l) for j in range(r)] + seq) for l, seq in enumerate(prefix)]
    )
    return key, stab


# Most information sets, C(n+1, k+1) for a lift basis of k+1 rows, that
# `canonical_orbit_key` eliminates on: the odd_m family at m = 5 (n = 15)
# has 4,368 and takes about 1.5 s.
INFORMATION_SET_CAP = 5_000


def canonical_orbit_key(K: Subgroup) -> bytes:
    """Least canonical key over the S_{n+1}-orbit of K: equal for two
    subgroups iff they differ by a generator permutation.  Found from the
    information sets of K's lift basis (`_least_orbit_form`), at most
    C(n+1, k+1) <= INFORMATION_SET_CAP eliminations of k+1 packed rows and a
    pruned search over their row orders, with no orbit closure."""
    K.params.require_byte_entries()
    count = comb(K.params.n + 1, len(K.basis))
    if count > INFORMATION_SET_CAP:
        raise ResourceLimitError(
            f"{count} candidate information sets exceed cap {INFORMATION_SET_CAP}",
            attempted=count,
        )
    return _least_orbit_form(K)[0]


# ---------------------------------------------------------------------------
# Explicit constructions (p = 2 families)
# ---------------------------------------------------------------------------

def _family_columns(kind: str, n: int, m: int):
    """(n, cols) for the family `kind` of `construct_family`: the n+1
    quotient columns, the m unit vectors and then the 0/1 vectors on its
    index blocks."""
    if kind == "n_minus_1":
        if n is None or n < 5:
            raise ParameterError("n_minus_1 family requires n >= 5")
        m = n - 1
        blocks = (range(m // 2), range(m // 2, m))
    elif kind == "n_minus_2":
        if n is None or n < 6:
            raise ParameterError("n_minus_2 family requires n >= 6")
        m = n - 2
        if m >= 6:
            blocks = ((0, 1), (2, 3), range(4, m))
        else:
            # Too few indices for a disjoint partition; use overlapping
            # blocks whose characteristic vectors are still distinct,
            # of weight >= 2, and sum to the all-ones vector.
            blocks = ((0, 1), (1, 2), (1, *range(3, m)))
    elif kind == "even_m":
        if m is None or m < 4 or m % 2:
            raise ParameterError("even_m family requires even m >= 4")
        n = (m - 1) * (m + 2) // 2
        blocks = combinations(range(m), 2)
    elif kind == "odd_m":
        if m is None or m < 3 or m % 2 == 0:
            raise ParameterError("odd_m family requires odd m >= 3")
        n = m * (m + 1) // 2
        blocks = list(combinations(range(m), 2)) + [range(m)]
    else:
        raise ParameterError(f"unknown family kind {kind!r}")
    blocks = [(t,) for t in range(m)] + list(blocks)
    return n, [tuple(int(t in b) for t in range(m)) for b in blocks]


def construct_family(kind: str, *, n: int = None, m: int = None) -> Subgroup:
    """Explicit freely-acting kernels for p=2 and d=2, each the kernel of a
    quotient map whose columns are the m unit vectors followed by 0/1
    vectors of weight >= 2 on fixed index blocks (`_family_columns`), so
    its lift is read off the columns (`groups.subgroup_from_columns`).

    kind one of:
      n_minus_1: quotient rank n-1, needs n >= 5; two halves of the indices
      n_minus_2: quotient rank n-2, needs n >= 6; blocks {0,1}, {2,3} and
                 the rest, or {0,1}, {1,2}, {1,3,...} when n-2 < 6
      even_m:    quotient rank m (even, >= 4), n = (m-1)(m+2)/2; all pairs
      odd_m:     quotient rank m (odd, >= 3), n = m(m+1)/2; all pairs and
                 the full index set
    """
    n, cols = _family_columns(kind, n, m)
    return subgroup_from_columns(cols, GroupParams(p=2, n=n, d=2))


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def enumeration_report(task: EnumerationTask, classify: bool = False):
    t0 = time.perf_counter()
    subgroups = enumerate_all(task)
    payload = {
        "task": {"d": task.d, "p": task.p, "n": task.n, "m": task.m},
        "candidates": gaussian_binomial(task.n, task.n - task.m, task.p),
        "count": len(subgroups),
    }
    verdict = necessary_bounds(task.d, task.p, task.n, task.m)
    if not verdict.possibly_nonempty:
        payload["prunedBy"] = verdict.reason
    if classify:
        orbits = classify_orbits(subgroups)
        payload["orbits"] = [
            {
                "representative": subgroup_to_json(o.representative),
                "orbitSize": o.orbit_size,
            }
            for o in orbits
        ]
    else:
        payload["subgroups"] = [subgroup_to_json(K)
                                for K in sorted(subgroups, key=attrgetter("basis"))]
    payload["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    return payload
