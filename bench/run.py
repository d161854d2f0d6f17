#!/usr/bin/env python3
"""Run one genfermat benchmark workload and print its metrics.

    python3 bench/run.py --workload free-d3 --seed 1 --seconds 40 --trace 0

Workloads: free-d3, orbits-d2, quotient-models (see workloads.py and
README.md).  The program is imported from src/ of the checkout this file
sits in.  The run repeats whole passes over the seeded inputs until the next
pass would end after --seconds (at least one pass; two with --trace 1),
checks every pass's outputs outside the timed region, and prints one metric
per line followed by a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, reports the per-layer metrics from the traced ones, and
writes the spans of the last traced pass to .bench_out/ in the checkout.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Set-up is repeated in this many fresh processes; setup_s is the median
# over them and this process.
SETUP_CHILDREN = 8

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "slowest_item_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Self times come from spans around the benchmark's calls into each module;
# counts come from the outputs of the traced pass.
PER_LAYER = {
    "enumeration.self_s": "s",
    "enumeration.enumerate_all.self_s": "s",
    "enumeration.enumerate_all.calls": "count",
    "enumeration.candidates": "count",
    "enumeration.free_found": "count",
    "enumeration.accept_ratio": "ratio",
    "enumeration.candidates_per_s": "1/s",
    "enumeration.pruned_cells": "count",
    "enumeration.classify_orbits.self_s": "s",
    "enumeration.orbits": "count",
    "enumeration.canonical_orbit_key.self_s": "s",
    "enumeration.canonical_orbit_key.calls": "count",
    "invariants.self_s": "s",
    "invariants.hilbert_basis.self_s": "s",
    "invariants.hilbert_basis.calls": "count",
    "invariants.search_space_monomials": "count",
    "invariants.generators": "count",
    "invariants.useful_ratio": "ratio",
    "invariants.find_binomial_relations.self_s": "s",
    "invariants.relations": "count",
    "invariants.induced_action.self_s": "s",
    "fixed_points.self_s": "s",
    "fixed_points.acts_freely_subgroup.self_s": "s",
    "fixed_points.acts_freely_subgroup.calls": "count",
    "fixed_points.elements_checked": "count",
    "groups.self_s": "s",
    "groups.calls": "count",
    "cohomology.self_s": "s",
    "cohomology.h0_twist.self_s": "s",
    "cohomology.h0_oracle.self_s": "s",
    "cohomology.calls": "count",
    "geometry.self_s": "s",
    "geometry.random_omega_sample.self_s": "s",
    "geometry.fiber_over.self_s": "s",
    "geometry.is_on_variety.self_s": "s",
    "geometry.fiber_points": "count",
    "bench.self_s": "s",
    "bench.calibration_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "ops_failed_ratio": "ratio",
}

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("free-d3", "orbits-d2", "quotient-models"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="do the set-up, print its time as JSON and exit "
                         "(used to repeat set-up in fresh processes)")
    return ap.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cap_threads():
    """Keep BLAS/OpenMP pools of this process and its children within the
    cores it may use."""
    cores = nproc()
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, cores))
        except ValueError:
            current = cores
        os.environ[var] = str(max(1, min(current, cores)))


def setup(workload, seed):
    """Import the program, make the seeded inputs and load the reference."""
    src = ROOT / "src"
    if not (src / "genfermat" / "__init__.py").is_file():
        raise SystemExit(f"bench: no genfermat package under {src}")
    sys.path.insert(0, str(src))
    import genfermat

    if Path(genfermat.__file__).resolve().parent != (src / "genfermat").resolve():
        raise SystemExit(f"bench: imported genfermat from {genfermat.__file__}, not {src}")
    import spans  # noqa: F401  (imports every measured module)
    from workloads import WORKLOADS, load_reference

    wl = WORKLOADS[workload]
    ref = load_reference(wl.reference_file)
    return wl, ref, wl.make_inputs(seed, ref)


def child_setup_s(args):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def calibrate():
    """A fixed pure-Python loop, timed before each pass to show host drift."""
    t = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


@dataclass
class Pass:
    traced: bool
    wall_s: float
    slowest_item_s: float
    calibration_s: float
    spans: list
    counters: dict


def run_pass(wl, items, tracer):
    """One timed pass over every item.  An item that raises (including a
    hit cap) yields None, which its checks count as failed."""
    from spans import Api

    api = Api(tracer)
    outputs, item_s = [], []
    t_pass = time.perf_counter()
    with tracer.span("bench.pass") if tracer else nullcontext():
        for item in items:
            t = time.perf_counter()
            try:
                with api.item(item.id):
                    outputs.append(wl.run_item(api, item))
            except Exception:
                print(f"bench: item {item.id} raised:", file=sys.stderr)
                traceback.print_exc()
                outputs.append(None)
            item_s.append(time.perf_counter() - t)
    return time.perf_counter() - t_pass, max(item_s), outputs


def count_checks(label, checks):
    """(attempted, failed) over (name, ok) pairs, reporting each failure."""
    failed = 0
    for name, ok in checks:
        if not ok:
            failed += 1
            print(f"bench: check failed: {label}: {name}", file=sys.stderr)
    return len(checks), failed


def check_pass(wl, items, outputs, ref):
    attempted = failed = 0
    for item, out in zip(items, outputs):
        if out is None:
            checks = [("completed", False)]
        else:
            try:
                checks = wl.check_item(item, out, ref)
            except Exception:
                traceback.print_exc()
                checks = [("checkable", False)]
        a, f = count_checks(item.id, checks)
        attempted += a
        failed += f
    return attempted, failed


def layer_metrics(records, counters, attempted, failed):
    from spans import self_times

    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    per_pass = [self_times(r.spans) for r in traced]

    def self_s(select):
        return statistics.median(
            sum(s for name, (_, s) in st.items() if select(name)) for st in per_pass
        )

    def calls(select):
        return statistics.median(
            sum(c for name, (c, _) in st.items() if select(name)) for st in per_pass
        )

    values = {name: 0 for name in PER_LAYER}
    values.update(counters)
    for name in PER_LAYER:
        if name.endswith(".self_s") and name != "bench.self_s":
            base = name[: -len(".self_s")]
            values[name] = self_s(lambda n, b=base: n == b or n.startswith(b + "."))
        elif name.endswith(".calls"):
            base = name[: -len(".calls")]
            values[name] = calls(lambda n, b=base: n == b or n.startswith(b + "."))
    values["bench.self_s"] = self_s(lambda n: n.startswith("bench."))
    if values["enumeration.candidates"]:
        values["enumeration.accept_ratio"] = (
            values["enumeration.free_found"] / values["enumeration.candidates"])
    if values["enumeration.enumerate_all.self_s"]:
        values["enumeration.candidates_per_s"] = (
            values["enumeration.candidates"] / values["enumeration.enumerate_all.self_s"])
    traced_wall = statistics.median(r.wall_s for r in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = traced_wall / statistics.median(
        r.wall_s for r in untraced) - 1
    values["bench.calibration_s"] = statistics.median(r.calibration_s for r in records)
    values["ops_failed_ratio"] = failed / attempted
    return values


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args, load):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "loadavg_1m": load,
    }


def main(argv=None):
    args = parse_args(argv)
    cap_threads()
    if args.setup_only:
        setup(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    load = os.getloadavg()[0]
    wl, ref, items = setup(args.workload, args.seed)
    setup_samples = [time.perf_counter() - T0]
    setup_samples += [child_setup_s(args) for _ in range(SETUP_CHILDREN)]
    from spans import Tracer, spans_to_json

    attempted, failed = count_checks("anchor", wl.anchor_checks(ref, items))
    records = []
    t_begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        calibration_s = calibrate()
        tracer = Tracer() if traced else None
        wall_s, slowest_s, outputs = run_pass(wl, items, tracer)
        a, f = check_pass(wl, items, outputs, ref)
        attempted += a
        failed += f
        done = [(i, o) for i, o in zip(items, outputs) if o is not None]
        counters = wl.counters([i for i, _ in done], [o for _, o in done])
        del outputs, done
        records.append(Pass(traced, wall_s, slowest_s, calibration_s,
                            tracer.spans if tracer else None, counters))
        mean_wall = statistics.fmean(r.wall_s for r in records)
        enough = len(records) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - t_begin + mean_wall > args.seconds:
            break

    meta = run_metadata(args, load)
    meta["passes"] = len(records)
    if args.trace:
        values = layer_metrics(records, records[-1].counters, attempted, failed)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        last = next(r for r in reversed(records) if r.traced)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"meta": meta, "metrics": metrics,
                       "spans": spans_to_json(last.spans, last.spans[0][4])}, fh)
        meta["spans_file"] = str(path.relative_to(ROOT))
    else:
        untraced = [r for r in records if not r.traced]
        values = {
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "slowest_item_s": statistics.median(r.slowest_item_s for r in untraced),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
