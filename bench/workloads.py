"""The benchmark's workloads: inputs made from a seed, one item at a time
through the public genfermat API, and the checks on each item's output.

free-d3          Every d=3 cell of the acceptance sweep grid (p in {2,3,5},
                 n <= 7, at most 50,000 candidate subspaces, pruned cells
                 included) except (3,5,7,6), which alone would take longer
                 than the rest.  The rank route of the freeness test does
                 almost all the work; cells range from rejecting every
                 candidate to accepting most of them.
orbits-d2        enumerate_all, classify_orbits and canonical_orbit_key on
                 five d=2 cells.  d=2 takes the projective-distinctness
                 route, not the rank route, and orbit closure plus the
                 (n+1)! canonical key take over half the time.
quotient-models  Invariant-ring models (hilbert_basis, find_binomial_relations,
                 induced_action) of 41 free subgroups rebuilt from frozen
                 generator rows, plus a cohomology block and a fiber block.
                 No enumeration runs; the invariant-ring module does almost
                 all the work, as a compute-bound scan and a memory-bound
                 relation list.

Every item's output is compared against the frozen data in reference/ and
against an independent route; each comparison is one check.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

from genfermat import golden
from genfermat.cohomology import canonical_twist
from genfermat.enumeration import (
    EnumerationTask,
    classify_orbits,
    enumerate_all,
    gaussian_binomial,
)
from genfermat.geometry import (
    in_general_position_minors,
    pi_project,
    projectively_close,
)
from genfermat.groups import (
    GroupElement,
    quotient_rank,
    rank_mod_p,
    subgroup_canonical_key,
    subgroup_from_generators,
)
from genfermat.invariants import verify_relations

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Subgroups per enumerated cell whose freeness is re-checked elementwise.
FREE_SAMPLE = 3


def load_reference(name):
    with open(REFERENCE_DIR / name) as fh:
        return json.load(fh)


def cell_id(d, p, n, m):
    return f"{d},{p},{n},{m}"


def subgroups_digest(subgroups):
    """SHA-256 over the sorted canonical keys: equal iff the same set."""
    h = hashlib.sha256()
    for key in sorted(subgroup_canonical_key(K) for K in subgroups):
        h.update(key)
        h.update(b"\n")
    return h.hexdigest()


def monomial_order(v):
    """The (degree, x1 > x2 > ...) order hilbert_basis returns."""
    return (sum(v), tuple(-x for x in v))


@dataclass(frozen=True)
class Cell:
    id: str
    d: int
    p: int
    n: int
    m: int
    rng_seed: str  # drives the elementwise sample and the orbit relabelling


def _enumerate_cell(api, cell):
    """The shared enumeration step: bounds verdict, candidate count, free
    subgroups, and an elementwise recheck of a seeded sample of them."""
    e = api.enumeration
    verdict = e.necessary_bounds(cell.d, cell.p, cell.n, cell.m)
    candidates = 0
    if verdict.possibly_nonempty:
        candidates = e.gaussian_binomial(cell.n, cell.n - cell.m, cell.p)
    subgroups = e.enumerate_all(e.EnumerationTask(d=cell.d, p=cell.p, n=cell.n, m=cell.m))
    rng = random.Random(cell.rng_seed)
    picks = sorted(rng.sample(range(len(subgroups)), min(FREE_SAMPLE, len(subgroups))))
    sample_free = [api.fixed_points.acts_freely_subgroup(subgroups[i], cell.d) for i in picks]
    out = {
        "pruned": not verdict.possibly_nonempty,
        "candidates": candidates,
        "subgroups": subgroups,
        "sampled": [subgroups[i] for i in picks],
        "sample_free": sample_free,
    }
    return out, rng


def _enumeration_checks(out, ref):
    checks = [
        ("count", len(out["subgroups"]) == ref["subgroups"]),
        ("candidates", out["candidates"] == ref["candidates"]),
        ("digest", subgroups_digest(out["subgroups"]) == ref["digest"]),
    ]
    checks += [("elementwise-free", ok is True) for ok in out["sample_free"]]
    return checks


def _enumeration_counters(cells, outputs):
    return {
        "enumeration.candidates": sum(o["candidates"] for o in outputs),
        "enumeration.free_found": sum(len(o["subgroups"]) for o in outputs),
        "enumeration.pruned_cells": sum(1 for o in outputs if o["pruned"]),
        "fixed_points.elements_checked": sum(
            c.p ** (len(K.basis) - 1) - 1 for c, o in zip(cells, outputs) for K in o["sampled"]
        ),
    }


# ---------------------------------------------------------------------------
# free-d3
# ---------------------------------------------------------------------------

FREE_D3_EXCLUDED = ((3, 5, 7, 6),)


def free_d3_cells():
    """The d=3 half of the acceptance sweep grid, minus the excluded cell."""
    cells = []
    for p in (2, 3, 5):
        for n in range(4, 8):
            for m in range(1, n + 1):
                if gaussian_binomial(n, n - m, p) > 50_000:
                    continue
                if (3, p, n, m) in FREE_D3_EXCLUDED:
                    continue
                cells.append((3, p, n, m))
    return cells


class FreeD3:
    name = "free-d3"
    reference_file = "free_d3.json"

    def make_inputs(self, seed, ref):
        cells = [Cell(cell_id(*c), *c, f"{seed}/{cell_id(*c)}") for c in free_d3_cells()]
        random.Random(seed).shuffle(cells)
        return cells

    def anchor_checks(self, ref, items):
        return [("grid", sorted(c.id for c in items) == sorted(ref["cells"]))]

    def run_item(self, api, cell):
        out, _ = _enumerate_cell(api, cell)
        return out

    def check_item(self, cell, out, ref):
        r = ref["cells"][cell.id]
        return [("pruned", out["pruned"] == r["pruned"])] + _enumeration_checks(out, r)

    def counters(self, items, outputs):
        return _enumeration_counters(items, outputs)


# ---------------------------------------------------------------------------
# orbits-d2
# ---------------------------------------------------------------------------

ORBIT_CELLS = ((2, 2, 7, 4), (2, 2, 7, 5), (2, 3, 6, 4), (2, 5, 5, 3), (2, 5, 6, 5))


class OrbitsD2:
    name = "orbits-d2"
    reference_file = "orbits_d2.json"

    def make_inputs(self, seed, ref):
        cells = [Cell(cell_id(*c), *c, f"{seed}/{cell_id(*c)}") for c in ORBIT_CELLS]
        random.Random(seed).shuffle(cells)
        return cells

    def anchor_checks(self, ref, items):
        """The golden rank-3 classification: 30 subgroups in one orbit at
        (2,2,6,3) that contains the reference kernel."""
        params = golden.RANK3_PARAMS
        found = enumerate_all(EnumerationTask(d=params.d, p=params.p, n=params.n, m=3))
        orbits = classify_orbits(found)
        ref_key = subgroup_canonical_key(golden.rank3_reference_subgroup())
        return [
            ("golden-count", len(found) == golden.RANK3_MEMBER_COUNT),
            ("golden-one-orbit", len(orbits) == 1),
            ("golden-member", any(ref_key in o.members for o in orbits)),
        ]

    def run_item(self, api, cell):
        out, rng = _enumerate_cell(api, cell)
        orbits = api.enumeration.classify_orbits(out["subgroups"])
        g = api.groups
        keys = []
        for orbit in orbits:
            sigma = g.GeneratorPermutation(tuple(rng.sample(range(cell.n + 1), cell.n + 1)))
            image = g.autg_apply(sigma, orbit.representative)
            keys.append(api.enumeration.canonical_orbit_key(image))
        out["orbit_sizes"] = [o.orbit_size for o in orbits]
        out["orbit_keys"] = keys
        return out

    def check_item(self, cell, out, ref):
        r = ref["cells"][cell.id]
        sizes = out["orbit_sizes"]
        return _enumeration_checks(out, r) + [
            ("orbit-count", len(sizes) == len(r["orbit_sizes"])),
            ("orbit-sizes", sorted(sizes) == r["orbit_sizes"]),
            ("orbit-sizes-sum", sum(sizes) == len(out["subgroups"])),
            ("orbit-keys", sorted(k.hex() for k in out["orbit_keys"]) == r["orbit_keys"]),
        ]

    def counters(self, items, outputs):
        out = _enumeration_counters(items, outputs)
        out["enumeration.orbits"] = sum(len(o["orbit_sizes"]) for o in outputs)
        return out


# ---------------------------------------------------------------------------
# quotient-models
# ---------------------------------------------------------------------------

# Cells whose every orbit representative is modelled.
QUOTIENT_CELLS = ((2, 2, 7, 4), (2, 2, 7, 5), (2, 3, 5, 3), (2, 3, 6, 4),
                  (2, 5, 4, 2), (2, 5, 4, 3), (2, 5, 5, 4))
# Cells from whose orbit representatives the seed draws a sample.
QUOTIENT_POOLS = (((2, 5, 5, 3), 8), ((2, 3, 6, 3), 1))

RELATION_SAMPLE = 64


@dataclass(frozen=True)
class Model:
    id: str
    ref_id: str
    d: int
    p: int
    n: int
    m: int
    sigma: tuple  # permutation of the n chart coordinates; x_{n+1} stays fixed
    rows: tuple  # sigma-relabelled generator exponent rows (length n+1)


@dataclass(frozen=True)
class CohomologyBlock:
    id: str
    h0_points: tuple  # (d, p, n, r)
    plurigenus_points: tuple  # (d, p, n, index, canonical twist)


@dataclass(frozen=True)
class FiberBlock:
    id: str
    arrangement_seed: int
    p: int
    n: int
    d: int
    base_points: tuple  # d+1 complex coordinates each


def relabel(vec, sigma):
    """Move entry i of vec to position sigma[i]; entries past len(sigma)
    stay where they are."""
    out = list(vec)
    for i, j in enumerate(sigma):
        out[j] = vec[i]
    return tuple(out)


def _cohomology_block(rng):
    grid = [(d, p, n, r) for d in (2, 3) for p in range(2, 6)
            for n in range(d + 1, 8) for r in range(21)]
    plurigenus_grid = []
    for d in (2, 3):
        for p in range(2, 6):
            for n in range(d + 1, 8):
                r1 = canonical_twist(d, p, n)
                plurigenus_grid += [(d, p, n, k, r1) for k in range(1, 9)
                                    if 0 <= k * r1 <= 60]
    return CohomologyBlock(
        id="cohomology",
        h0_points=tuple(rng.sample(grid, 48)),
        plurigenus_points=tuple(rng.sample(plurigenus_grid, 12)),
    )


def _fiber_block(rng):
    d = 2
    points = tuple(
        tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d + 1))
        for _ in range(8)
    )
    return FiberBlock(id="geometry", arrangement_seed=rng.randrange(2 ** 31),
                      p=3, n=4, d=d, base_points=points)


class QuotientModels:
    name = "quotient-models"
    reference_file = "quotient_models.json"

    def make_inputs(self, seed, ref):
        rng = random.Random(seed)
        entries = ref["subgroups"]
        chosen = ["golden"]
        for cell in QUOTIENT_CELLS:
            chosen += ref["cells"][cell_id(*cell)]
        for cell, k in QUOTIENT_POOLS:
            chosen += rng.sample(ref["cells"][cell_id(*cell)], k)
        items = []
        for ref_id in chosen:
            e = entries[ref_id]
            n = e["n"]
            # hilbert_basis works on the chart x_{n+1} = 1, so only a
            # relabelling that fixes x_{n+1} permutes the basis exactly.
            sigma = tuple(rng.sample(range(n), n))
            rows = tuple(relabel(row, sigma) for row in e["generators"])
            items.append(Model(f"model/{ref_id}", ref_id, e["d"], e["p"], n, e["m"], sigma, rows))
        items += [_cohomology_block(rng), _fiber_block(rng)]
        rng.shuffle(items)
        return items

    def anchor_checks(self, ref, items):
        """The frozen worked example is the golden one: 13 generators that
        satisfy the 28 displayed relations, on the reference kernel."""
        e = ref["subgroups"]["golden"]
        params = golden.RANK3_PARAMS
        K = subgroup_from_generators([GroupElement(tuple(r), params) for r in e["generators"]],
                                     params)
        basis = tuple(tuple(v) for v in e["hilbert_basis"])
        rels = [(tuple(i - 1 for i in a), tuple(i - 1 for i in b))
                for a, b in golden.EXAMPLE_RELATIONS]
        return [
            ("golden-kernel", K == golden.rank3_reference_subgroup()),
            ("golden-generators", basis == golden.EXAMPLE_GENERATORS),
            ("golden-relations", len(rels) == 28 and len(basis) == 13
             and all(verify_relations(basis, rels))),
            ("model-count", sum(isinstance(i, Model) for i in items) == 41),
        ]

    def run_item(self, api, item):
        if isinstance(item, Model):
            return self._run_model(api, item)
        if isinstance(item, CohomologyBlock):
            c = api.cohomology
            return {
                "h0": [(c.h0_twist(*pt), c.h0_oracle(*pt)) for pt in item.h0_points],
                "plurigenus": [(c.plurigenus(d, p, n, k), c.h0_oracle(d, p, n, k * r1))
                               for d, p, n, k, r1 in item.plurigenus_points],
            }
        geo = api.geometry
        arrangement = geo.random_omega_sample(item.arrangement_seed, item.n, item.d)
        model = geo.VarietyModel(p=item.p, arrangement=arrangement)
        fibers = []
        for coords in item.base_points:
            y = geo.ProjectivePoint(coords)
            points = geo.fiber_over(y, model)
            fibers.append((y, points, [geo.is_on_variety(model, x) for x in points]))
        return {"arrangement": arrangement, "fibers": fibers}

    def _run_model(self, api, item):
        g = api.groups
        inv = api.invariants
        params = g.GroupParams(p=item.p, n=item.n, d=item.d)
        K = g.subgroup_from_generators([g.GroupElement(r, params) for r in item.rows], params)
        free = api.fixed_points.acts_freely_subgroup(K, item.d)
        gens = inv.hilbert_basis(inv.action_from_subgroup(K))
        relations = inv.find_binomial_relations(gens)
        table = inv.induced_action(K, gens)
        return {
            "subgroup": K,
            "free": free,
            "generators": tuple(tuple(v) for v in gens),
            "relations": len(relations),
            "relation_sample": relations[:: max(1, len(relations) // RELATION_SAMPLE)],
            "characters": tuple(chars for _, chars in table),
        }

    def check_item(self, item, out, ref):
        if isinstance(item, Model):
            e = ref["subgroups"][item.ref_id]
            want = sorted((relabel(tuple(v), item.sigma) for v in e["hilbert_basis"]),
                          key=monomial_order)
            gens = out["generators"]
            chars = out["characters"]
            return [
                ("free", out["free"] is True),
                ("quotient-rank", quotient_rank(out["subgroup"]) == item.m),
                ("hilbert-basis", list(gens) == want),
                ("relation-count", out["relations"] == e["relations"]),
                ("relations-hold", all(verify_relations(gens, out["relation_sample"]))),
                ("faithful-action", len(chars) == item.m and rank_mod_p(chars, item.p) == item.m),
            ]
        if isinstance(item, CohomologyBlock):
            return [("h0-oracle", a == b) for a, b in out["h0"]] + [
                ("plurigenus-oracle", a == b) for a, b in out["plurigenus"]
            ]
        checks = [("general-position", in_general_position_minors(out["arrangement"]))]
        size = item.p ** item.n
        for y, points, on in out["fibers"]:
            checks += [
                ("fiber-size", len(points) == size),
                ("on-variety", len(on) == size and all(on)),
                ("over-base", all(projectively_close(pi_project(x, item.d, item.p), y)
                                  for x in points)),
            ]
        return checks

    def counters(self, items, outputs):
        models = [(i, o) for i, o in zip(items, outputs) if isinstance(i, Model)]
        # hilbert_basis scans every monomial up to degree |K| in n variables.
        scanned = sum(comb(i.p ** (i.n - i.m) + i.n, i.n) - 1 for i, _ in models)
        generators = sum(len(o["generators"]) for _, o in models)
        fibers = [o for i, o in zip(items, outputs) if isinstance(i, FiberBlock)]
        return {
            "invariants.search_space_monomials": scanned,
            "invariants.generators": generators,
            "invariants.useful_ratio": generators / scanned if scanned else 0.0,
            "invariants.relations": sum(o["relations"] for _, o in models),
            "fixed_points.elements_checked": sum(
                i.p ** (len(o["subgroup"].basis) - 1) - 1 for i, o in models
            ),
            "geometry.fiber_points": sum(len(pts) for o in fibers for _, pts, _ in o["fibers"]),
        }


WORKLOADS = {w.name: w for w in (FreeD3(), OrbitsD2(), QuotientModels())}
