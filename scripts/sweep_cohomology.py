#!/usr/bin/env python3
"""Tabulate cohomological invariants over a parameter grid.

Prints one JSON line per (d, p, n): canonical twist, geometric genus,
Kodaira dimension, surface class (d=2), hyperbolicity verdict, and the
first few plurigenera.

Usage:
    python scripts/sweep_cohomology.py --d 2 --max-p 7 --max-n 8 --plurigenera 4
"""

import argparse
import json

from genfermat.cohomology import genus_profile, hyperbolicity_verdict, plurigenus
from genfermat.errors import ParameterError


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--max-p", type=int, default=7)
    ap.add_argument("--max-n", type=int, default=8)
    ap.add_argument("--plurigenera", type=int, default=3,
                    help="how many plurigenera P_1..P_k to include")
    args = ap.parse_args()
    if args.plurigenera < 0:
        ap.error(f"--plurigenera must be non-negative, got {args.plurigenera}")

    try:  # every row is computed before any is printed
        rows = []
        for p in range(2, args.max_p + 1):
            for n in range(args.d + 1, args.max_n + 1):
                row = genus_profile(args.d, p, n).to_json()
                row["hyperbolicity"] = hyperbolicity_verdict(args.d, p, n).to_json()
                row["plurigenera"] = [
                    plurigenus(args.d, p, n, m) for m in range(1, args.plurigenera + 1)
                ]
                rows.append(row)
    except ParameterError as exc:
        ap.error(str(exc))
    if not rows:
        ap.error(f"empty grid: need --max-p >= 2 and --max-n > --d = {args.d}")
    for row in rows:
        print(json.dumps(row))


if __name__ == "__main__":
    main()
