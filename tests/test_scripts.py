"""The sweep scripts run against the package API and print one JSON object
per line."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_script(name, *args):
    proc = run(name, *args)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def assert_usage_error(name, *args, message):
    # a usage error exits 2 before any row is printed, with no traceback
    proc = run(name, *args)
    assert (proc.returncode, proc.stdout) == (2, ""), (args, proc.stderr)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].endswith(message), (args, proc.stderr)


def test_sweep_free_subgroups():
    rows = run_script("sweep_free_subgroups.py", "--d", "2", "--p", "2",
                      "--max-n", "5", "--classify")
    assert [(r["n"], r["m"]) for r in rows] == [
        (n, m) for n in range(3, 6) for m in range(1, n + 1)
    ]
    for row in rows:
        assert {"d", "p", "n", "m", "count"} <= set(row)
        if "prunedBy" in row:
            assert row["count"] == 0
        else:
            assert {"candidates", "enumerate_ms", "classify_ms", "elapsed_ms"} <= set(row)
            assert row["elapsed_ms"] == round(row["enumerate_ms"] + row["classify_ms"], 1)
            assert sum(row.get("orbits", [])) == row["count"]
    assert {(r["n"], r["m"]): r["count"] for r in rows}[(5, 4)] == 10


def test_sweep_free_subgroups_budget():
    rows = run_script("sweep_free_subgroups.py", "--d", "2", "--p", "3",
                      "--max-n", "5", "--budget", "50")
    skipped = {(r["n"], r["m"]): r for r in rows if "skipped" in r}
    assert skipped == {
        (5, 3): {"d": 2, "p": 3, "n": 5, "m": 3, "skipped": "1210 candidates over budget"},
        (5, 4): {"d": 2, "p": 3, "n": 5, "m": 4, "skipped": "121 candidates over budget"},
    }
    assert {(r["n"], r["m"]): r["candidates"] for r in rows if "candidates" in r} == {
        (3, 3): 1, (4, 3): 40, (4, 4): 1, (5, 5): 1,
    }
    # without --classify there is one phase, timed by elapsed_ms alone
    assert all("elapsed_ms" in r and "enumerate_ms" not in r and "classify_ms" not in r
               for r in rows if "candidates" in r)


def test_sweep_free_subgroups_rejects_bad_parameters():
    script = "sweep_free_subgroups.py"
    assert_usage_error(script, "--p", "4", message="requires p prime, got 4")
    assert_usage_error(script, "--p", "2", "4", message="requires p prime, got 4")
    assert_usage_error(script, "--p", "257", message="so p <= 255, got 257")
    assert_usage_error(script, "--d", "0", message="need 1 <= d <= n, got d=0, n=1")
    # n starts at d + 1 = 3
    assert_usage_error(script, "--max-n", "2", message="empty grid: need --max-n > --d = 2")


def test_sweep_cohomology():
    rows = run_script("sweep_cohomology.py", "--d", "2", "--max-p", "3", "--max-n", "4")
    assert [(r["p"], r["n"]) for r in rows] == [(2, 3), (2, 4), (3, 3), (3, 4)]
    keys = {"d", "p", "n", "r1", "pg", "kodaira", "calabiYau", "surfaceClass",
            "hyperbolicity", "plurigenera"}
    for row in rows:
        assert set(row) == keys
        assert len(row["plurigenera"]) == 3


def test_sweep_cohomology_rejects_bad_parameters():
    script = "sweep_cohomology.py"
    assert_usage_error(script, "--d", "0", message="profile requires d >= 2, got 0")
    assert_usage_error(script, "--plurigenera", "-1",
                       message="--plurigenera must be non-negative, got -1")
    assert_usage_error(script, "--max-p", "1",
                       message="empty grid: need --max-p >= 2 and --max-n > --d = 2")
