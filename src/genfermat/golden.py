"""Frozen reference data for the golden reproduction checks.

The classification of rank-3 quotients at p=2 (one orbit of 30 subgroups
at n=6, empty at n=4,5), the quotient-model generators and relations of
the worked example, and the surface classification exceptions.
"""

from .groups import GroupParams, subgroup_from_generators, word

# --- surface classification at d=2 ----------------------------------------

# The paper's (p, n) of rational and of K3 surfaces; every other type
# (2;p,n) is of general type.
RATIONAL_SURFACES = {(2, 3), (3, 3), (2, 4)}
K3_SURFACES = {(4, 3), (2, 5)}

# --- rank-3 quotient classification at d=p=2 -------------------------------

RANK3_PARAMS = GroupParams(p=2, n=6, d=2)

# <phi1 phi2 phi4, phi1 phi3 phi5, phi2 phi3 phi6>
RANK3_REFERENCE_GENERATORS = ((1, 2, 4), (1, 3, 5), (2, 3, 6))

# Raw member count of the single orbit, confirmed by the brute-force
# subspace enumeration (1395 candidate 3-dimensional subspaces of F_2^6).
RANK3_MEMBER_COUNT = 30


def rank3_reference_subgroup():
    return subgroup_from_generators(
        [word(idx, RANK3_PARAMS) for idx in RANK3_REFERENCE_GENERATORS],
        RANK3_PARAMS,
    )


# --- invariant-ring worked example (p=2, n=6, quotient rank 3) -------------

# Expected minimal generators in (degree, x1 > x2 > ...) order: the six
# squares, four cubics, three quartics.
EXAMPLE_GENERATORS = (
    (2, 0, 0, 0, 0, 0),
    (0, 2, 0, 0, 0, 0),
    (0, 0, 2, 0, 0, 0),
    (0, 0, 0, 2, 0, 0),
    (0, 0, 0, 0, 2, 0),
    (0, 0, 0, 0, 0, 2),
    (1, 1, 1, 0, 0, 0),
    (1, 0, 0, 1, 1, 0),
    (0, 1, 0, 1, 0, 1),
    (0, 0, 1, 0, 1, 1),
    (1, 1, 0, 0, 1, 1),
    (1, 0, 1, 1, 0, 1),
    (0, 1, 1, 1, 1, 0),
)

# The 28 displayed binomial relations, as 1-based generator index
# multisets (left side, right side).
EXAMPLE_RELATIONS = (
    ((6, 13), (9, 10)),
    ((5, 12), (8, 10)),
    ((1, 2, 3), (7, 7)),
    ((5, 6, 7), (10, 11)),
    ((4, 11), (8, 9)),
    ((1, 2, 5, 6), (11, 11)),
    ((4, 6, 7), (9, 12)),
    ((1, 2, 10), (7, 11)),
    ((4, 5, 7), (8, 13)),
    ((3, 11), (7, 10)),
    ((1, 3, 4, 6), (12, 12)),
    ((3, 6, 8), (10, 12)),
    ((3, 5, 9), (10, 13)),
    ((3, 5, 6), (10, 10)),
    ((3, 8, 9), (12, 13)),
    ((2, 12), (7, 9)),
    ((1, 3, 9), (7, 12)),
    ((2, 6, 8), (9, 11)),
    ((2, 8, 10), (11, 13)),
    ((2, 4, 10), (9, 13)),
    ((2, 4, 6), (9, 9)),
    ((1, 4, 5), (8, 8)),
    ((2, 3, 8), (7, 13)),
    ((2, 3, 4, 5), (13, 13)),
    ((1, 13), (7, 8)),
    ((1, 4, 10), (8, 12)),
    ((1, 5, 9), (8, 11)),
    ((1, 9, 10), (11, 12)),
)

# Induced quotient action: which generators each coset generator negates
# (1-based indices).
EXAMPLE_SIGN_PATTERNS = (
    (7, 8, 11, 12),
    (7, 9, 11, 13),
    (7, 10, 12, 13),
)
