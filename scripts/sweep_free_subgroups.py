#!/usr/bin/env python3
"""Sweep the enumeration of freely-acting subgroups over a parameter grid.

For each (d, p, n, m) cell within the subspace budget, report the number of
candidate subspaces and the number of freely-acting subgroups, counted
without keeping any (`count_free`); with --classify, also the orbit
decomposition under generator permutations.  elapsed_ms is the cell's time;
with --classify it is the total of enumerate_ms and classify_ms, the times
of the two phases.

Usage:
    python scripts/sweep_free_subgroups.py --d 2 --p 2 3 5 --max-n 7 --budget 100000
"""

import argparse
import json
import time

from genfermat.enumeration import (
    EnumerationTask,
    classify_orbits,
    count_free,
    enumerate_all,
    gaussian_binomial,
    necessary_bounds,
)
from genfermat.errors import ParameterError, ResourceLimitError


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--p", type=int, nargs="+", default=[2, 3, 5])
    ap.add_argument("--max-n", type=int, default=7)
    ap.add_argument("--budget", type=int, default=100_000,
                    help="skip cells with more candidate subspaces than this")
    ap.add_argument("--classify", action="store_true",
                    help="also decompose each nonempty cell into orbits")
    args = ap.parse_args()
    if args.budget < 0:
        ap.error(f"--budget must be non-negative, got {args.budget}")

    try:  # every cell is checked before any is run
        grid = [
            (EnumerationTask(d=args.d, p=p, n=n, m=m, cap_subspaces=args.budget),
             necessary_bounds(args.d, p, n, m))
            for p in args.p
            for n in range(args.d + 1, args.max_n + 1)
            for m in range(1, n + 1)
        ]
    except ParameterError as exc:
        ap.error(str(exc))
    if not grid:
        ap.error(f"empty grid: need --max-n > --d = {args.d}")

    for task, verdict in grid:
        cell = {"d": task.d, "p": task.p, "n": task.n, "m": task.m}
        if not verdict.possibly_nonempty:
            cell["count"] = 0
            cell["prunedBy"] = verdict.reason
            print(json.dumps(cell))
            continue
        t0 = time.perf_counter()
        try:  # only classification keeps the kernels
            if args.classify:
                found = enumerate_all(task)
                count = len(found)
            else:
                count = count_free(task)
        except ResourceLimitError as exc:
            cell["skipped"] = f"{exc.attempted} candidates over budget"
            print(json.dumps(cell))
            continue
        elapsed_ms = round((time.perf_counter() - t0) * 1000, 1)
        cell["candidates"] = gaussian_binomial(task.n, task.n - task.m, task.p)
        cell["count"] = count
        if args.classify:
            t0 = time.perf_counter()
            if found:
                cell["orbits"] = [o.orbit_size for o in classify_orbits(found)]
            cell["enumerate_ms"] = elapsed_ms
            cell["classify_ms"] = round((time.perf_counter() - t0) * 1000, 1)
            elapsed_ms = round(elapsed_ms + cell["classify_ms"], 1)
        cell["elapsed_ms"] = elapsed_ms
        print(json.dumps(cell))


if __name__ == "__main__":
    main()
