"""Tests of the benchmark itself: metric names, input determinism, that
every kind of check rejects a corrupted answer, and that tracing does not
change outputs.

    python3 -m pytest -q bench/tests
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from spans import Api, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CohomologyBlock,
    FiberBlock,
    Model,
    load_reference,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def reference(name):
    return load_reference(WORKLOADS[name].reference_file)


def inputs(name, seed=7):
    return WORKLOADS[name].make_inputs(seed, reference(name))


def item(name, item_id, seed=7):
    return next(i for i in inputs(name, seed) if i.id == item_id)


def failed_checks(name, it, out):
    return [label for label, ok in WORKLOADS[name].check_item(it, out, reference(name)) if not ok]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in list(e2e) + list(layer):
        assert NAME.fullmatch(name), name
    assert not set(e2e) & set(layer)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    assert inputs(name, 1) == inputs(name, 1)
    assert inputs(name, 1) != inputs(name, 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_anchor_checks_pass_on_frozen_reference(name):
    wl = WORKLOADS[name]
    ref = reference(name)
    assert all(ok for _, ok in wl.anchor_checks(ref, wl.make_inputs(3, ref)))


def test_anchor_rejects_dropped_golden_generator():
    wl = WORKLOADS["quotient-models"]
    ref = copy.deepcopy(reference("quotient-models"))
    ref["subgroups"]["golden"]["hilbert_basis"].pop()
    assert not all(ok for _, ok in wl.anchor_checks(ref, wl.make_inputs(3, ref)))


def test_free_d3_checks_reject_corruption():
    it = item("free-d3", "3,2,7,5")
    out = WORKLOADS["free-d3"].run_item(Api(), it)
    assert failed_checks("free-d3", it, out) == []
    dropped = dict(out, subgroups=out["subgroups"][1:])
    assert {"count", "digest"} <= set(failed_checks("free-d3", it, dropped))
    assert failed_checks("free-d3", it, dict(out, candidates=out["candidates"] + 1)) == [
        "candidates"]
    assert failed_checks("free-d3", it, dict(out, pruned=True)) == ["pruned"]
    assert failed_checks("free-d3", it, dict(out, sample_free=[False])) == ["elementwise-free"]


@pytest.fixture(scope="module")
def orbit_cell():
    it = item("orbits-d2", "2,2,7,5")
    return it, WORKLOADS["orbits-d2"].run_item(Api(), it)


def test_orbits_d2_checks_reject_corruption(orbit_cell):
    it, out = orbit_cell
    assert failed_checks("orbits-d2", it, out) == []
    keys = out["orbit_keys"]
    wrong_key = dict(out, orbit_keys=[keys[0], keys[0]])
    assert failed_checks("orbits-d2", it, wrong_key) == ["orbit-keys"]
    sizes = out["orbit_sizes"]
    off_by_one = dict(out, orbit_sizes=[sizes[0] + 1] + sizes[1:])
    assert set(failed_checks("orbits-d2", it, off_by_one)) == {"orbit-sizes", "orbit-sizes-sum"}
    merged = dict(out, orbit_sizes=[sum(sizes)])
    assert "orbit-count" in failed_checks("orbits-d2", it, merged)


def test_quotient_model_checks_reject_corruption():
    it = item("quotient-models", "model/2,5,4,3#3")
    out = WORKLOADS["quotient-models"].run_item(Api(), it)
    assert failed_checks("quotient-models", it, out) == []
    # The relation sample may now name a missing generator, which raises;
    # the harness counts a check that raises as failed.
    dropped = dict(out, generators=out["generators"][:-1])
    wl = WORKLOADS["quotient-models"]
    attempted, failed = run.check_pass(wl, [it], [dropped], reference("quotient-models"))
    assert attempted >= 1 and failed >= 1
    assert failed_checks("quotient-models", it, dict(out, relations=out["relations"] + 1)) == [
        "relation-count"]
    bad_relation = dict(out, relation_sample=[((0,), (1,))])
    assert failed_checks("quotient-models", it, bad_relation) == ["relations-hold"]
    assert failed_checks("quotient-models", it, dict(out, characters=out["characters"][:-1])) == [
        "faithful-action"]
    assert failed_checks("quotient-models", it, dict(out, free=False)) == ["free"]


def test_cohomology_and_fiber_checks_reject_corruption():
    items = inputs("quotient-models")
    wl = WORKLOADS["quotient-models"]
    coh = next(i for i in items if isinstance(i, CohomologyBlock))
    out = wl.run_item(Api(), coh)
    assert failed_checks("quotient-models", coh, out) == []
    (a, b), *rest = out["h0"]
    assert failed_checks("quotient-models", coh, dict(out, h0=[(a + 1, b)] + rest)) == [
        "h0-oracle"]

    fib = next(i for i in items if isinstance(i, FiberBlock))
    out = wl.run_item(Api(), fib)
    assert failed_checks("quotient-models", fib, out) == []
    y, points, on = out["fibers"][0]
    short = dict(out, fibers=[(y, points[:-1], on[:-1])] + out["fibers"][1:])
    assert set(failed_checks("quotient-models", fib, short)) == {"fiber-size", "on-variety"}
    other_base = dict(out, fibers=[(out["fibers"][1][0], points, on)] + out["fibers"][1:])
    assert failed_checks("quotient-models", fib, other_base) == ["over-base"]


@pytest.mark.parametrize("name, item_ids", [
    ("free-d3", ["3,2,7,5", "3,5,4,1"]),
    ("quotient-models", ["model/2,5,4,3#1", "cohomology", "geometry"]),
])
def test_traced_and_untraced_outputs_are_identical(name, item_ids):
    wl = WORKLOADS[name]
    items = [i for i in inputs(name) if i.id in item_ids]
    tracer = Tracer()
    traced = []
    with tracer.span("bench.pass"):
        for it in items:
            api = Api(tracer)
            with api.item(it.id):
                traced.append(wl.run_item(api, it))
    assert traced == [wl.run_item(Api(), it) for it in items]
    times = self_times(tracer.spans)
    wall = tracer.spans[0][5] - tracer.spans[0][4]
    assert sum(s for _, s in times.values()) == pytest.approx(wall)
    assert {span[3] for span in tracer.spans[1:]} == set(item_ids)


def test_traced_orbit_output_matches(orbit_cell):
    it, out = orbit_cell
    tracer = Tracer()
    assert WORKLOADS["orbits-d2"].run_item(Api(tracer), it) == out
    assert self_times(tracer.spans)["enumeration.canonical_orbit_key"][0] == len(out["orbit_keys"])


def test_model_inputs_relabel_only_chart_coordinates():
    for it in inputs("quotient-models"):
        if isinstance(it, Model):
            assert sorted(it.sigma) == list(range(it.n))
            assert all(row[-1] == 0 for row in it.rows)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "free-d3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
