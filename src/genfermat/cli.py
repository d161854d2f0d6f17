"""Command-line front end.

One subcommand per pipeline, each report one canonical JSON line (sorted
keys) on stdout (`fiber` prints one JSON line per point), diagnostics on
stderr.  Exit codes: 0 success, 2 domain error, 3 resource-cap error,
4 reproduction-check failure.
"""

import argparse
import json
import sys
import time

from . import __version__
from .cohomology import genus_profile, h0_twist, hyperbolicity_verdict, plurigenus
from .enumeration import EnumerationTask, enumeration_report
from .errors import ParameterError, ResourceLimitError, VerificationError
from .fixed_points import strata_report
from .geometry import (
    FIBER_CAP,
    ProjectivePoint,
    arrangement_from_json,
    arrangement_to_json,
    fermat_model,
    fiber_over,
    in_general_position,
    point_to_json,
    random_omega_sample,
    VarietyModel,
)
from .groups import GroupParams, elem_normalize, subgroup_from_lift_rows
from .invariants import quotient_model_report
from .reproduce import run_reproduce

SCHEMA_VERSION = 1


def _emit(payload):
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "toolVersion": __version__,
        **payload,
    }
    print(json.dumps(report, sort_keys=True))
    return 0


def _parse_int_list(text):
    try:
        return tuple(int(x) for x in text.replace(";", ",").split(",") if x.strip())
    except ValueError as exc:
        raise ParameterError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_rows(text):
    return [_parse_int_list(chunk) for chunk in text.split(";") if chunk.strip()]


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read JSON from {path}: {exc}") from exc


def _load_arrangement(args):
    """The --lambda file's arrangement, which must have the --d and --n of
    the command line, else the --seed sample."""
    if args.lam:
        arr = arrangement_from_json(_read_json(args.lam))
        if (arr.d, arr.n) != (args.d, args.n):
            raise ParameterError(f"--lambda file has d={arr.d}, n={arr.n}, "
                                 f"but the command line has d={args.d}, n={args.n}")
        return arr
    if args.seed is None:
        raise ParameterError("either --lambda or --seed is required")
    return random_omega_sample(args.seed, args.n, args.d)


def cmd_fixed_points(args):
    params = GroupParams(p=args.p, n=args.n, d=args.d)
    params.require_domain()
    x = elem_normalize(_parse_int_list(args.element), params)
    return _emit({"task": {"p": args.p, "n": args.n, "d": args.d},
                  "results": strata_report(x, args.d)})


def cmd_enumerate(args):
    task = EnumerationTask(
        d=args.d, p=args.p, n=args.n, m=args.m,
        cap_subspaces=args.cap_subspaces,
    )
    payload = enumeration_report(task, classify=args.classify)
    return _emit(payload)


def cmd_cohomology(args):
    prof = genus_profile(args.d, args.p, args.n)
    results = prof.to_json()
    if args.r is not None:
        results["h0"] = {"r": args.r, "value": h0_twist(args.d, args.p, args.n, args.r)}
    if args.m is not None:
        results["plurigenus"] = {"m": args.m, "value": plurigenus(args.d, args.p, args.n, args.m)}
    results["hyperbolicity"] = hyperbolicity_verdict(args.d, args.p, args.n).to_json()
    return _emit({"task": {"d": args.d, "p": args.p, "n": args.n}, "results": results})


def cmd_hyperbolicity(args):
    v = hyperbolicity_verdict(args.d, args.p, args.n)
    return _emit({"task": {"d": args.d, "p": args.p, "n": args.n},
                  "results": v.to_json()})


def cmd_arrangement(args):
    arr = _load_arrangement(args)
    results = {"generalPosition": in_general_position(arr) if args.lam else True,
               "arrangement": arrangement_to_json(arr)}
    return _emit({"results": results})


def cmd_fiber(args):
    arr = _load_arrangement(args)
    model = VarietyModel(p=args.p, arrangement=arr)
    try:
        coords = [complex(c) for c in args.point.split(",")]
    except ValueError as exc:
        raise ParameterError(f"--point expects complex numbers, got {args.point!r}") from exc
    y = ProjectivePoint(tuple(coords))
    points = fiber_over(y, model, cap=args.cap_elements)
    for pt in points:
        print(json.dumps({"coords": point_to_json(pt)}))
    print(json.dumps({"schemaVersion": SCHEMA_VERSION, "count": len(points)},
                     sort_keys=True), file=sys.stderr)
    return 0


def cmd_invariants(args):
    params = GroupParams(p=args.p, n=args.n, d=args.d)
    params.require_domain()
    K = subgroup_from_lift_rows(_parse_rows(args.gens), params)
    model = None
    if args.lam:
        model = VarietyModel(p=args.p, arrangement=_load_arrangement(args))
    elif args.n == args.d + 1:
        model = fermat_model(p=args.p, d=args.d)
    results = quotient_model_report(K, model=model)
    return _emit({"task": {"p": args.p, "n": args.n, "d": args.d}, "results": results})


def cmd_reproduce_paper(args):
    t0 = time.perf_counter()
    all_ok, results = run_reproduce(args.filter)
    for r in results:
        status = "PASS" if r["ok"] else "FAIL"
        print(f"[{status}] {r['check']}: {r['detail']} ({r['elapsed_ms']} ms)",
              file=sys.stderr)
    _emit({"results": {"checks": results, "allPassed": all_ok},
           "elapsed_ms": round((time.perf_counter() - t0) * 1000, 1)})
    if not all_ok:
        raise VerificationError("one or more reproduction checks failed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="genfermat",
        description="Diagonal p-torsion actions on generalized Fermat varieties",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *, d=False, p=False, n=False, m=False):
        if d:
            sp.add_argument("--d", type=int, required=True)
        if p:
            sp.add_argument("--p", type=int, required=True)
        if n:
            sp.add_argument("--n", type=int, required=True)
        if m:
            sp.add_argument("--m", type=int, required=True)

    sp = sub.add_parser("fixed-points", help="level sets and fixed strata of one element")
    add_common(sp, d=True, p=True, n=True)
    sp.add_argument("--element", required=True, help="comma-separated raw exponents, length n+1")
    sp.set_defaults(func=cmd_fixed_points)

    sp = sub.add_parser("enumerate", help="enumerate freely-acting subgroups")
    add_common(sp, d=True, p=True, n=True, m=True)
    sp.add_argument("--cap-subspaces", type=int, default=EnumerationTask.cap_subspaces)
    sp.set_defaults(func=cmd_enumerate, classify=False)

    sp = sub.add_parser("classify", help="enumerate and classify into permutation orbits")
    add_common(sp, d=True, p=True, n=True, m=True)
    sp.add_argument("--cap-subspaces", type=int, default=EnumerationTask.cap_subspaces)
    sp.set_defaults(func=cmd_enumerate, classify=True)

    sp = sub.add_parser("cohomology", help="cohomological invariants")
    add_common(sp, d=True, p=True, n=True)
    sp.add_argument("--r", type=int, default=None, help="also report one twist dimension")
    sp.add_argument("--m", type=int, default=None, help="also report one plurigenus")
    sp.set_defaults(func=cmd_cohomology)

    sp = sub.add_parser("hyperbolicity", help="algebraic-hyperbolicity verdict")
    add_common(sp, d=True, p=True, n=True)
    sp.set_defaults(func=cmd_hyperbolicity)

    sp = sub.add_parser("arrangement", help="sample or validate hyperplane data")
    add_common(sp, d=True, n=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--lambda", dest="lam", default=None, help="path to arrangement JSON")
    sp.set_defaults(func=cmd_arrangement)

    sp = sub.add_parser("fiber", help="fiber of the covering projection (JSON lines)")
    add_common(sp, d=True, p=True, n=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.add_argument("--point", required=True,
                    help="comma-separated base-point coordinates (d+1 complex numbers)")
    sp.add_argument("--cap-elements", type=int, default=FIBER_CAP)
    sp.set_defaults(func=cmd_fiber)

    sp = sub.add_parser("invariants", help="invariant-monomial quotient model")
    add_common(sp, d=True, p=True, n=True)
    sp.add_argument("--gens", required=True,
                    help="semicolon-separated raw exponent vectors of length n+1")
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("reproduce-paper", help="run every golden reproduction check")
    sp.add_argument("--filter", default=None, help="only run checks whose name contains this")
    sp.set_defaults(func=cmd_reproduce_paper)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse takes the value "--" (as in --element=--) for its separator and
    # stores [] in place of the option's one string
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"argument {name}: expected one value, not '--'")
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
