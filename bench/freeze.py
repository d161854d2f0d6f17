#!/usr/bin/env python3
"""Regenerate the frozen reference data in bench/reference/ from the
current program.

Run from the repository root:

    python3 bench/freeze.py

Only refreeze after a change that is meant to alter results, and review the
diff of the JSON files: the benchmark's checks compare every run against
these files.  Takes about a minute and a half on a 2-core machine.
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from genfermat.enumeration import (  # noqa: E402
    EnumerationTask,
    canonical_orbit_key,
    classify_orbits,
    enumerate_all,
    gaussian_binomial,
    necessary_bounds,
)
from genfermat.golden import rank3_reference_subgroup  # noqa: E402
from genfermat.groups import quotient_rank, subgroup_element_basis  # noqa: E402
from genfermat.invariants import (  # noqa: E402
    action_from_subgroup,
    find_binomial_relations,
    hilbert_basis,
)

from workloads import (  # noqa: E402
    ORBIT_CELLS,
    QUOTIENT_CELLS,
    QUOTIENT_POOLS,
    REFERENCE_DIR,
    cell_id,
    free_d3_cells,
    subgroups_digest,
)


def enumeration_entry(d, p, n, m):
    found = enumerate_all(EnumerationTask(d=d, p=p, n=n, m=m))
    pruned = not necessary_bounds(d, p, n, m).possibly_nonempty
    entry = {
        "pruned": pruned,
        "candidates": 0 if pruned else gaussian_binomial(n, n - m, p),
        "subgroups": len(found),
        "digest": subgroups_digest(found),
    }
    return entry, found


def freeze_free_d3():
    cells = {}
    for cell in free_d3_cells():
        cells[cell_id(*cell)], _ = enumeration_entry(*cell)
    return {"cells": cells}


def freeze_orbits_d2():
    cells = {}
    for cell in ORBIT_CELLS:
        entry, found = enumeration_entry(*cell)
        orbits = classify_orbits(found)
        entry["orbit_sizes"] = sorted(o.orbit_size for o in orbits)
        entry["orbit_keys"] = sorted(canonical_orbit_key(o.representative).hex() for o in orbits)
        cells[cell_id(*cell)] = entry
    return {"cells": cells}


def model_entry(K, d, orbit_size):
    gens = hilbert_basis(action_from_subgroup(K))
    return {
        "d": d,
        "p": K.params.p,
        "n": K.params.n,
        "m": quotient_rank(K),
        "orbit_size": orbit_size,
        "generators": [list(row) for row in subgroup_element_basis(K)],
        "hilbert_basis": [list(v) for v in gens],
        "relations": len(find_binomial_relations(gens)),
    }


def freeze_quotient_models():
    golden = rank3_reference_subgroup()
    subgroups = {"golden": model_entry(golden, golden.params.d, 30)}
    cells = {}
    for d, p, n, m in QUOTIENT_CELLS + tuple(cell for cell, _ in QUOTIENT_POOLS):
        ids = []
        orbits = classify_orbits(enumerate_all(EnumerationTask(d=d, p=p, n=n, m=m)))
        for i, orbit in enumerate(orbits):
            ref_id = f"{cell_id(d, p, n, m)}#{i}"
            subgroups[ref_id] = model_entry(orbit.representative, d, orbit.orbit_size)
            ids.append(ref_id)
        cells[cell_id(d, p, n, m)] = ids
    return {"cells": cells, "subgroups": subgroups}


def write(name, data):
    text = json.dumps(data, indent=1, sort_keys=True)
    # One line per innermost list of numbers keeps the files diffable.
    text = re.sub(r"\[[\d,\s]*\]", lambda mo: json.dumps(json.loads(mo.group())), text)
    with open(REFERENCE_DIR / name, "w") as fh:
        fh.write(text + "\n")


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    write("free_d3.json", freeze_free_d3())
    write("orbits_d2.json", freeze_orbits_d2())
    write("quotient_models.json", freeze_quotient_models())


if __name__ == "__main__":
    main()
