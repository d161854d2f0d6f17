"""Golden reproduction suite: every externally stated computable value is
re-derived and compared.  Each check returns (ok, detail); the CLI driver
exits 0 iff all selected checks pass, and tests/test_acceptance.py runs the
same checks under the time budgets below."""

import cmath
import random
import time
from itertools import product

from . import golden
from .cohomology import (
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
from .enumeration import (
    EnumerationTask,
    canonical_orbit_key,
    classify_orbits,
    construct_family,
    count_free,
    enumerate_all,
    gaussian_binomial,
    necessary_bounds,
)
from .fixed_points import acts_freely_subgroup, free_rank_bound, has_fixed_points, level_sets
from .geometry import (
    RESIDUAL_TOL,
    ProjectivePoint,
    VarietyModel,
    apply_element,
    fermat_model,
    fiber_over,
    is_on_variety,
    on_branch_locus,
    projectively_close,
    random_omega_sample,
    residual,
)
from .groups import (
    GroupParams,
    elem_normalize,
    quotient_rank,
    subgroup_canonical_key,
)
from .invariants import (
    action_from_subgroup,
    hilbert_basis,
    induced_action,
    verify_relations,
)


def check_rank3_classification():
    for n in (4, 5):
        task = EnumerationTask(d=2, p=2, n=n, m=3)
        found = enumerate_all(task, prune=False)
        if found:
            return False, f"expected no freely-acting rank-3 quotients at n={n}"
    if gaussian_binomial(6, 3, 2) != 1395:
        return False, "expected 1395 candidate 3-dimensional subspaces of F_2^6"
    task = EnumerationTask(d=2, p=2, n=6, m=3)
    found = enumerate_all(task, prune=False)
    if len(found) != golden.RANK3_MEMBER_COUNT:
        return False, f"expected {golden.RANK3_MEMBER_COUNT} subgroups, got {len(found)}"
    orbits = classify_orbits(found)
    if len(orbits) != 1:
        return False, f"expected a single orbit, got {len(orbits)}"
    ref = golden.rank3_reference_subgroup()
    if subgroup_canonical_key(ref) not in orbits[0].members:
        return False, "reference subgroup not in the orbit"
    if canonical_orbit_key(orbits[0].representative) != canonical_orbit_key(ref):
        return False, "orbit representative is not equivalent to the reference subgroup"
    return True, f"n=6: {len(found)} subgroups in one orbit with the expected representative"


def check_family_constructions():
    cases = []
    for n in range(5, 9):
        cases.append(("n_minus_1", {"n": n}, n - 1))
    for n in range(6, 9):
        cases.append(("n_minus_2", {"n": n}, n - 2))
    cases.append(("even_m", {"m": 4}, 4))
    cases.append(("odd_m", {"m": 3}, 3))
    for kind, kwargs, want_m in cases:
        K = construct_family(kind, **kwargs)
        if quotient_rank(K) != want_m:
            return False, f"{kind}{kwargs}: quotient rank {quotient_rank(K)} != {want_m}"
        if not acts_freely_subgroup(K, 2):
            return False, f"{kind}{kwargs}: constructed kernel does not act freely"
    if construct_family("even_m", m=4).params.n != 9:
        return False, "even_m at m=4 should live at n=9"
    return True, f"{len(cases)} constructed kernels free with the stated quotient ranks"


def check_rank_two_quotients_empty():
    for p in (2, 3):
        for n in range(3, 9):
            verdict = necessary_bounds(2, p, n, 2)
            if verdict.possibly_nonempty:
                return False, f"bounds failed to rule out (p={p}, n={n}, m=2)"
            if count_free(EnumerationTask(d=2, p=p, n=n, m=2), prune=False):
                return False, f"unexpected freely-acting subgroup at (p={p}, n={n}, m=2)"
    # every cell with at most 50,000 candidate subspaces: a free quotient has
    # m >= d; the bounds prune every m < d cell, so those also run unpruned
    cells = 0
    for d in (2, 3):
        for p in (2, 3, 5):
            for n in range(d + 1, 8):
                for m in range(1, n + 1):
                    if gaussian_binomial(n, n - m, p) > 50_000:
                        continue
                    task = EnumerationTask(d=d, p=p, n=n, m=m)
                    found = count_free(task)
                    if m < d and (found or count_free(task, prune=False)):
                        return False, f"free quotient of rank m < d at (d={d}, p={p}, n={n}, m={m})"
                    cells += 1
    if cells != 119:
        return False, f"m >= d sweep covered {cells} cells, want 119"
    return True, (f"no rank-2 quotients for p in {{2,3}}, 3 <= n <= 8; "
                  f"m >= d on all {cells} sweep cells")


def check_small_n_no_free_elements():
    checked = 0
    for d in (2, 3, 4):
        for n in range(d + 1, 2 * d + 1):
            params = GroupParams(p=2, n=n, d=d)
            for bits in product(range(2), repeat=n):
                if not any(bits):
                    continue
                x = elem_normalize(bits + (0,), params)
                if not has_fixed_points(x, d):
                    return False, f"free element found at (d={d}, n={n}): {bits}"
                checked += 1
    return True, f"{checked} nontrivial elements all have fixed points (p=2, n <= 2d)"


def check_rank_bound():
    cases = [
        ((2, 3, 6), True),
        ((2, 3, 7), False),
        ((3, 3, 12), True),
        ((3, 3, 13), False),
    ]
    for (p, m, n), want in cases:
        if free_rank_bound(p, m, n) != want:
            return False, f"rank bound wrong at (p={p}, m={m}, n={n})"
    for n in range(1, 10):
        if free_rank_bound(2, 1, n):
            return False, f"rank-1 quotient not excluded at n={n}"
    for n in range(3, 10):
        if free_rank_bound(2, 2, n):
            return False, f"rank-2 quotient at p=2 not excluded at n={n}"
    return True, "cyclic-subgroup counting bound matches on all cases"


def check_cubic_surface_fixed_points():
    params = GroupParams(p=3, n=3, d=2)
    x = elem_normalize((1, 1, 2, 0), params)
    ls = level_sets(x)
    if ls != {0: (4,), 1: (1, 2), 2: (3,)}:
        return False, f"unexpected level sets {ls}"
    model = fermat_model(p=3, d=2)
    points = [
        ProjectivePoint((1, zeta, 0, 0))
        for zeta in (
            -1,
            cmath.exp(1j * cmath.pi / 3),
            cmath.exp(-1j * cmath.pi / 3),
        )
    ]
    for pt in points:
        if not is_on_variety(model, pt):
            return False, "claimed fixed point is not on the cubic"
        if not projectively_close(apply_element(x.exponents, pt, 3), pt):
            return False, "claimed fixed point is not fixed"
    # no further solutions: the stratum is cut out by z^3 = -1 on the
    # second coordinate, which has exactly three roots
    return True, "three fixed points on the Fermat cubic confirmed numerically"


def check_fermat_free_elements():
    for d in (2, 3):
        n = d + 1
        for p in range(2, 8):
            params = GroupParams(p=p, n=n, d=d)
            free_exists = False
            for exps in product(range(p), repeat=n):
                if not any(exps):
                    continue
                x = elem_normalize(exps + (0,), params)
                if not has_fixed_points(x, d):
                    free_exists = True
                    break
            if free_exists != (p >= d + 2):
                return False, f"free element existence wrong at (d={d}, p={p})"
    return True, "free elements on the Fermat hypersurface exist iff p >= d+2 (p <= 7)"


def check_surface_classification():
    for p in range(2, 8):
        for n in range(3, 8):
            prof = genus_profile(2, p, n)
            if (p, n) in golden.RATIONAL_SURFACES:
                want = "Rational"
            elif (p, n) in golden.K3_SURFACES:
                want = "K3"
            else:
                want = "GeneralType"
            if prof.surface_class != want:
                return False, f"(p={p}, n={n}) classified {prof.surface_class}, want {want}"
            if prof.is_calabi_yau != (prof.r1 == 0):
                return False, f"Calabi-Yau flag inconsistent at (p={p}, n={n})"
    k3 = genus_profile(2, 4, 3)
    if (k3.r1, k3.pg) != (0, 1):
        return False, "K3 profile at (p=4, n=3) incorrect"
    return True, "surface trichotomy matches the exception lists exactly"


def check_invariant_ring_example():
    K = golden.rank3_reference_subgroup()
    action = action_from_subgroup(K)
    gens = hilbert_basis(action)
    if tuple(gens) != golden.EXAMPLE_GENERATORS:
        return False, f"generators differ: got {gens}"
    relations = [
        (tuple(i - 1 for i in a), tuple(i - 1 for i in b))
        for a, b in golden.EXAMPLE_RELATIONS
    ]
    if len(relations) != 28:
        return False, f"expected 28 displayed relations, got {len(relations)}"
    results = verify_relations(gens, relations)
    if not all(results):
        bad = [golden.EXAMPLE_RELATIONS[i] for i, ok in enumerate(results) if not ok]
        return False, f"relations failed: {bad}"
    table = induced_action(K, gens)
    patterns = tuple(tuple(i + 1 for i, c in enumerate(chars) if c) for _, chars in table)
    if patterns != golden.EXAMPLE_SIGN_PATTERNS:
        return False, f"sign patterns {patterns} != {golden.EXAMPLE_SIGN_PATTERNS}"
    return True, "13 generators, 28 relations, and 3 sign patterns all match"


def check_genus_table():
    if rh_genus(4, (2, 2, 2)) != 0:
        return False, "degree-4 cover with three order-2 branch points should have genus 0"
    if rh_genus(9, (3, 3, 3)) != 1:
        return False, "degree-9 cover with three order-3 branch points should have genus 1"
    if rh_genus(4, (2, 2, 2, 2)) != 1:
        return False, "degree-4 cover with four order-2 branch points should have genus 1"
    cells = 0
    for d in range(2, 5):
        for p in range(2, 8):
            for n in range(d + 1, 2 * d + 3):
                v = hyperbolicity_verdict(d, p, n)
                if d == 2 and (p, n) in golden.K3_SURFACES:
                    want = "K3Exception"
                elif n <= 2 * d - 1:
                    want = 1
                elif n == 2 * d and p in (2, 3):
                    want = 2
                elif n == 2 * d + 1 and p == 2:
                    want = 3
                else:
                    want = None
                if v.case != want:
                    return False, f"verdict case {v.case} != {want} at (d={d}, p={p}, n={n})"
                if (v.status == "Unknown") != (want is None):
                    return False, f"verdict status {v.status} at (d={d}, p={p}, n={n})"
                cells += 1
    return True, f"witness genera 0/1/1; hyperbolicity verdicts match the case split on all {cells} cells"


def check_cohomology_sweep():
    # duality, h^d(r) = h^0(r1 - r), is checked through chi: the alternating
    # sum of the h^i must equal the Koszul Euler characteristic
    for d in range(2, 4):
        for p in range(2, 6):
            for n in range(d + 1, 8):
                for r in range(0, 21):
                    a = h0_twist(d, p, n, r)
                    b = h0_oracle(d, p, n, r)
                    if a != b:
                        return False, f"h0 mismatch at (d={d}, p={p}, n={n}, r={r}): {a} != {b}"
                for r in range(-10, 21):
                    chi = sum((-1) ** i * h_i(d, p, n, i, r) for i in range(d + 1))
                    if chi != euler_characteristic(d, p, n, r):
                        return False, f"Euler characteristic mismatch at (d={d}, p={p}, n={n}, r={r})"
    return True, ("h0 closed form and enumeration oracle agree (0 <= r <= 20); the alternating "
                  "sum of h^i, with duality, equals the Koszul Euler characteristic "
                  "(-10 <= r <= 20)")


def check_fiber_geometry():
    arr = random_omega_sample(2024, 4, 2)
    model = VarietyModel(p=2, arrangement=arr)
    rng = random.Random(2024)
    fibers = 0
    while fibers < 20:
        y = ProjectivePoint(tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)
        ))
        if on_branch_locus(arr, y):
            continue
        pts = fiber_over(y, model)
        if len(pts) != 16:
            return False, f"fiber over {y.coords} has {len(pts)} points, want 16"
        if any(residual(model, pt) > RESIDUAL_TOL for pt in pts):
            return False, f"fiber over {y.coords} has a point off the variety"
        fibers += 1
    # the deck group Z_2^4 maps a point of the last fiber into that fiber
    for exps in product(range(2), repeat=4):
        img = apply_element(exps + (0,), pts[0], 2)
        if not any(projectively_close(img, q) for q in pts):
            return False, f"deck element {exps} leaves the fiber"
    return True, f"{fibers} fibers of 16 points each on the variety; deck orbit stays in the fiber"


def check_plurigenus_asymptotics():
    d, p, n = 2, 3, 5
    m = 200
    r1 = canonical_twist(d, p, n)
    pm = plurigenus(d, p, n, m)
    leading = p ** (n - d) * r1 ** d * m ** d  # times 1/d!
    ratio = pm * 2 / leading
    if abs(ratio - 1) > 0.05:
        return False, f"P_{m} ratio {ratio} outside 5% of the leading term"
    return True, f"P_{m} matches the degree-{d} leading term within {abs(ratio - 1):.4f}"


CHECKS = (
    ("rank3_classification", check_rank3_classification),
    ("family_constructions", check_family_constructions),
    ("rank_two_quotients_empty", check_rank_two_quotients_empty),
    ("small_n_no_free_elements", check_small_n_no_free_elements),
    ("rank_bound", check_rank_bound),
    ("cubic_surface_fixed_points", check_cubic_surface_fixed_points),
    ("fermat_free_elements", check_fermat_free_elements),
    ("surface_classification", check_surface_classification),
    ("invariant_ring_example", check_invariant_ring_example),
    ("genus_table", check_genus_table),
    ("cohomology_sweep", check_cohomology_sweep),
    ("fiber_geometry", check_fiber_geometry),
    ("plurigenus_asymptotics", check_plurigenus_asymptotics),
)

# Wall-time budgets in seconds; a budget over two checks bounds the sum
# of their times.
BUDGETS = {
    ("rank3_classification",): 10,
    ("rank_two_quotients_empty",): 60,
    ("family_constructions",): 10,
    ("cohomology_sweep", "surface_classification"): 60,
    ("plurigenus_asymptotics",): 5,
    ("fiber_geometry", "cubic_surface_fixed_points"): 30,
    ("invariant_ring_example",): 10,
}
RUN_BUDGET = 300


def run_check(name, fn):
    """Run one check; a crash is a failed check, not a crash of the driver."""
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:
        ok, detail = False, f"exception: {exc!r}"
    elapsed = round((time.perf_counter() - t0) * 1000, 1)
    return {"check": name, "ok": ok, "detail": detail, "elapsed_ms": elapsed}


def run_reproduce(filter_substring: str = None):
    """Run the golden checks; returns (all_ok, list of result dicts)."""
    results = [
        run_check(name, fn)
        for name, fn in CHECKS
        if not filter_substring or filter_substring in name
    ]
    return all(r["ok"] for r in results), results
