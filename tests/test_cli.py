"""End-to-end command-line behavior: exit codes and JSON shape."""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genfermat import invariants, reproduce
from genfermat.cli import main
from genfermat.geometry import (
    ProjectivePoint,
    VarietyModel,
    arrangement_from_json,
    arrangement_to_json,
    is_on_variety,
    random_omega_sample,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fixed_points_command(capsys):
    code, out, _ = run(
        capsys, "fixed-points", "--d", "2", "--p", "3", "--n", "3",
        "--element", "1,1,2,0",
    )
    assert code == 0
    data = json.loads(out)
    assert data["schemaVersion"] == 1
    assert data["results"]["strata"][0]["indices"] == [1, 2]


def test_enumerate_and_classify(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--d", "2", "--p", "2", "--n", "6", "--m", "3",
    )
    assert code == 0
    assert json.loads(out)["count"] == 30
    code, out, _ = run(
        capsys, "classify", "--d", "2", "--p", "2", "--n", "6", "--m", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 30
    assert len(data["orbits"]) == 1
    assert data["orbits"][0]["orbitSize"] == 30


def test_cohomology_command(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--d", "2", "--p", "4", "--n", "3", "--r", "4",
    )
    assert code == 0
    data = json.loads(out)
    assert data["results"]["surfaceClass"] == "K3"
    assert data["results"]["r1"] == 0
    assert data["results"]["h0"]["r"] == 4


def test_hyperbolicity_command(capsys):
    code, out, _ = run(capsys, "hyperbolicity", "--d", "2", "--p", "2", "--n", "4")
    assert code == 0
    assert json.loads(out)["results"]["case"] == 2


def test_arrangement_command(capsys, tmp_path):
    code, out, _ = run(capsys, "arrangement", "--d", "2", "--n", "5", "--seed", "9")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["generalPosition"] is True
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(data["results"]["arrangement"]))
    code, out, _ = run(capsys, "arrangement", "--d", "2", "--n", "5",
                       "--lambda", str(path))
    assert code == 0
    assert json.loads(out)["results"]["generalPosition"] is True


def test_fiber_command(capsys, tmp_path):
    arr = random_omega_sample(11, 4, 2)
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(arrangement_to_json(arr)))
    code, out, err = run(
        capsys, "fiber", "--d", "2", "--p", "2", "--n", "4",
        "--lambda", str(path), "--point", "1,0.31,-0.57",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 16
    assert json.loads(err.strip().splitlines()[-1])["count"] == 16


def test_invariants_command(capsys):
    code, out, _ = run(
        capsys, "invariants", "--d", "2", "--p", "2", "--n", "6",
        "--gens", "1,1,0,1,0,0,0;1,0,1,0,1,0,0;0,1,1,0,0,1,0",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["results"]["generators"]) == 13
    relations = data["results"]["binomial_relations"]
    # each sum class is listed once; every two of its members are a relation
    assert relations["count"] == sum(len(c) * (len(c) - 1) // 2 for c in relations["classes"])
    assert relations["count"] > 0
    assert all(len(c) >= 2 for c in relations["classes"])


def test_invariants_report_grows_with_the_walk(capsys):
    # 71 generators and 3,438,067 relations, which lie in 1,763 sum classes
    code, out, _ = run(
        capsys, "invariants", "--d", "1", "--n", "4", "--p", "7", "--gens", "5,2,5,5,1",
    )
    assert code == 0
    relations = json.loads(out)["results"]["binomial_relations"]
    assert relations["count"] == 3_438_067
    assert len(out) < 4_000_000


def test_invariants_rejects_short_generator_rows(capsys):
    code, out, err = run(
        capsys, "invariants", "--d", "2", "--p", "2", "--n", "6", "--gens", "1,1",
    )
    assert code == 2
    assert out == ""
    assert "error" in err


def test_parameter_error_exit_code(capsys):
    code, _, err = run(
        capsys, "fixed-points", "--d", "2", "--p", "3", "--n", "3",
        "--element", "0,0,0,0",
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("fixed-points", "--d", "2", "--p", "3", "--n", "3", "--element", "1,x,2,0"),
    ("fiber", "--d", "2", "--p", "3", "--n", "4", "--seed", "1", "--point", "abc"),
    ("cohomology", "--d", "2", "--p", "0", "--n", "3"),
    ("cohomology", "--d", "2", "--p", "1", "--n", "3"),
    ("hyperbolicity", "--d", "2", "--p", "-3", "--n", "4"),
    ("enumerate", "--d", "2", "--p", "257", "--n", "3", "--m", "2"),
    ("fiber", "--d", "2", "--p", "2", "--n", "4", "--seed", "11",
     "--point", "1,0.31,-0.57", "--cap-elements", "-1"),
    # K fixes a chart variable: no affine-linear relation exists
    ("invariants", "--d", "2", "--p", "2", "--n", "3", "--gens", "0,0,0,0"),
    ("invariants", "--d", "2", "--p", "2", "--n", "3", "--gens", "1,0,0,0"),
    # n = d lies outside the paper's domain d+1 <= n
    ("fixed-points", "--d", "2", "--p", "3", "--n", "2", "--element", "1,2,0"),
    ("invariants", "--d", "2", "--p", "3", "--n", "2", "--gens", "1,2,0"),
    ("enumerate", "--d", "2", "--p", "3", "--n", "2", "--m", "2"),
    ("classify", "--d", "2", "--p", "3", "--n", "2", "--m", "2"),
    ("cohomology", "--d", "2", "--p", "3", "--n", "2"),
    ("hyperbolicity", "--d", "2", "--p", "3", "--n", "2"),
    ("arrangement", "--d", "2", "--n", "2", "--seed", "9"),
    ("fiber", "--d", "2", "--p", "3", "--n", "2", "--seed", "11", "--point", "1,0.31,-0.57"),
    # non-finite coordinates
    ("fiber", "--d", "2", "--p", "2", "--n", "4", "--seed", "11", "--point", "nan,1,1"),
    ("fiber", "--d", "2", "--p", "2", "--n", "4", "--seed", "11", "--point", "1,inf,1"),
])
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unreadable_lambda_file_exits_2(capsys, tmp_path):
    paths = [tmp_path / "missing.json"]
    for i, content in enumerate((
        "{not json",
        "[1, 2]",
        "{}",
        '{"lambda": "x", "n": 4, "d": 2}',
        '{"lambda": [["1", "2"]], "d": 2}',
        '{"lambda": [["1", "x"]], "n": 4, "d": 2}',
    )):
        paths.append(tmp_path / f"bad{i}.json")
        paths[-1].write_text(content)
    for path in paths:
        code, out, err = run(capsys, "arrangement", "--d", "2", "--n", "4",
                             "--lambda", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_lambda_file_outside_the_domain_exits_2(capsys, tmp_path):
    # a d=2, n=5 file given with other flags, and a file whose hyperplane 4
    # repeats hyperplane 2, so it is not in general position
    lam, degenerate = tmp_path / "lam.json", tmp_path / "degenerate.json"
    lam.write_text(json.dumps(arrangement_to_json(random_omega_sample(3, 5, 2))))
    degenerate.write_text('{"d": 2, "n": 4, "lambda": [["0", "0"]]}')
    for argv in (
        ("arrangement", "--d", "2", "--n", "2", "--lambda", str(lam)),
        ("fiber", "--d", "2", "--p", "2", "--n", "4", "--lambda", str(lam),
         "--point", "1,0.31,-0.57"),
        ("invariants", "--d", "3", "--p", "2", "--n", "5", "--lambda", str(lam),
         "--gens", "1,1,1,1,1,0"),
        ("fiber", "--d", "2", "--p", "2", "--n", "4", "--lambda", str(degenerate),
         "--point", "1,0.31,-0.57"),
        ("invariants", "--d", "2", "--p", "2", "--n", "4", "--lambda", str(degenerate),
         "--gens", "1,1,1,1,0"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv
    code, out, _ = run(capsys, "arrangement", "--d", "2", "--n", "4", "--lambda", str(degenerate))
    assert code == 0
    assert json.loads(out)["results"]["generalPosition"] is False


def test_float_overflow_exits_2(capsys, tmp_path):
    # an entry or coordinate beyond the float range is refused, not a
    # traceback; arrangement never makes floats and accepts the file
    big = tmp_path / "big.json"
    big.write_text('{"n": 4, "d": 2, "lambda": [["1e400", "3"]]}')
    fiber = ("fiber", "--d", "2", "--p", "2", "--n", "4")
    for argv, message in (
        (fiber + ("--lambda", str(big), "--point", "1,0.31,-0.57"), "too large for a float"),
        # normalized, both points are [1 : ~3e-309 : ~3e-309]
        (fiber + ("--seed", "11", "--point", "1.7e308+1.7e308j,1,1"), "branch locus"),
        (fiber + ("--seed", "11", "--point", "1e308+1e308j,1,1"), "branch locus"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and message in err, argv
        assert "Traceback" not in err, argv
    code, out, _ = run(capsys, "arrangement", "--d", "2", "--n", "4", "--lambda", str(big))
    assert code == 0
    assert json.loads(out)["results"]["generalPosition"] is True


def test_large_entry_fiber_off_the_branch_locus(capsys, tmp_path):
    # a plane's squared entries overflow above about 1.3e154, so its norm is
    # taken with scaling there: an infinite norm put every point on the locus
    for entry in ("1e200", "1e300", "1.7e308"):
        big = tmp_path / "big.json"
        big.write_text(f'{{"n": 4, "d": 2, "lambda": [["{entry}", "3"]]}}')
        code, out, err = run(capsys, "fiber", "--d", "2", "--p", "2", "--n", "4",
                             "--lambda", str(big), "--point", "1,0.31,-0.57")
        assert code == 0, (entry, err)
        model = VarietyModel(p=2, arrangement=arrangement_from_json(json.loads(big.read_text())))
        points = [ProjectivePoint(tuple(complex(*c) for c in json.loads(line)["coords"]))
                  for line in out.strip().splitlines()]
        assert len(points) == 16
        assert all(is_on_variety(model, x) for x in points), entry


def test_cap_flag_rejected_where_unread():
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--d", "2", "--p", "3", "--n", "5", "--cap-subspaces", "5"])
    assert exc.value.code == 2


def test_resource_limit_exit_code(capsys):
    code, _, err = run(
        capsys, "enumerate", "--d", "2", "--p", "2", "--n", "6", "--m", "3",
        "--cap-subspaces", "10",
    )
    assert code == 3
    assert "resource limit" in err
    code, _, err = run(
        capsys, "fiber", "--d", "2", "--p", "2", "--n", "4", "--seed", "11",
        "--point", "1,0.31,-0.57", "--cap-elements", "1",
    )
    assert code == 3
    assert "resource limit" in err


def test_enumerate_rejects_d_above_n(capsys):
    code, out, err = run(capsys, "enumerate", "--d", "9", "--p", "2", "--n", "6", "--m", "3")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_enumerate_rejects_n_equal_to_d(capsys):
    # the paper's domain is d+1 <= n; at n = d the trivial kernel acts freely
    for command in ("enumerate", "classify"):
        code, out, err = run(capsys, command, "--d", "2", "--p", "3", "--n", "2", "--m", "2")
        assert code == 2
        assert out == ""
        assert "d+1 <= n" in err


def test_enumerate_rejects_negative_cap(capsys):
    code, out, err = run(
        capsys, "enumerate", "--d", "2", "--p", "2", "--n", "6", "--m", "3",
        "--cap-subspaces", "-5",
    )
    assert code == 2
    assert out == ""
    assert "error" in err


def test_enumerate_classify_flag_removed():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--d", "2", "--p", "2", "--n", "6", "--m", "3", "--classify"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("enumerate", "--d", "2", "--p", "2", "--n", "6", "--m", "3", "--format", "json"),
    ("reproduce-paper", "--filter", "rank_bound", "--format", "json"),
])
def test_format_flag_removed(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_enumerate_reports_pruning_reason(capsys):
    code, out, _ = run(capsys, "enumerate", "--d", "2", "--p", "2", "--n", "7", "--m", "3")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 0
    assert data["candidates"] == 11811
    assert data["prunedBy"] == "n+1=8 exceeds (p^m-1)/(p-1)=7"
    code, out, _ = run(capsys, "enumerate", "--d", "2", "--p", "2", "--n", "6", "--m", "3")
    data = json.loads(out)
    assert (data["candidates"], data["count"]) == (1395, 30)
    assert "prunedBy" not in data


def test_reproduce_filter(capsys):
    code, out, err = run(capsys, "reproduce-paper", "--filter", "rank_bound")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["allPassed"] is True
    assert len(data["results"]["checks"]) == 1
    assert "[PASS] rank_bound" in err


def test_failed_reproduction_exits_4(capsys, monkeypatch):
    checks = (("fails", lambda: (False, "wrong value")), ("raises", lambda: 1 // 0))
    monkeypatch.setattr(reproduce, "CHECKS", checks)
    code, out, err = run(capsys, "reproduce-paper")
    assert code == 4
    data = json.loads(out)
    assert data["results"]["allPassed"] is False
    assert [r["ok"] for r in data["results"]["checks"]] == [False, False]
    assert "[FAIL] fails: wrong value" in err
    assert "[FAIL] raises: exception: ZeroDivisionError(" in err
    assert "Traceback" not in err


MISSING_LAMBDA = str(Path(__file__).parent / "no-such-lambda.json")
# d=2, n=4, with an entry no float can hold
BIG_LAMBDA = str(Path(__file__).parent / "big-entry-lambda.json")
SMALL = st.integers(-1, 7)
PRIMES = st.sampled_from((-1, 0, 1, 2, 3, 4, 5, 7, 257))
# comma-separated fields: integers, and strings no parser should accept
FIELDS = st.lists(
    st.one_of(st.integers(-3, 300).map(str),
              st.sampled_from(("", "x", "1.5", " ", "--", "0x1", "2j"))),
    max_size=9,
).map(",".join)
ROWS = st.one_of(FIELDS, st.lists(FIELDS, max_size=4).map(";".join))
COORDS = st.sampled_from(("1", "0", "0.31", "-0.57", "2j", "1+1j", "-1e300", "abc", "", "nan",
                          "inf", "1.7e308+1.7e308j", "1e308+1e308j"))
# invariants has no cap flag; its Hilbert basis and relation walks are
# capped at this many steps during the fuzz, so one draw takes at most
# about 0.1 s where the default caps allow seconds
FUZZ_WALK_CAP = 50_000


def _joined(strategy, size, sep=","):
    return st.lists(strategy, min_size=size, max_size=size).map(sep.join)


def _opt(flag, value):
    return [] if value is None else [f"{flag}={value}"]


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def computing_argv(draw):
    """argv for one of the eight computing subcommands.  Half the draws
    are cells of the paper's domain (1 <= d < n <= 7, p prime, lists of
    the right length, a seeded arrangement); the other half draw small or
    invalid integers, malformed lists and points, and a missing --lambda
    file.  Caps are drawn in both, negative ones included, and bound the
    work of a valid cell (FUZZ_WALK_CAP does so for invariants)."""
    cmd = draw(st.sampled_from((
        "fixed-points", "enumerate", "classify", "cohomology", "hyperbolicity",
        "arrangement", "fiber", "invariants",
    )))
    if draw(st.booleans()):
        p = draw(st.sampled_from((2, 3, 5, 7)))
        d = draw(st.integers(1, 3))
        n = draw(st.integers(d + 1, 7))
        m = draw(st.integers(0, n))
        entries = st.integers(0, p - 1).map(str)
        element = draw(_joined(entries, n + 1))
        gens = draw(st.integers(1, 3).flatmap(
            lambda k: _joined(_joined(entries, n + 1), k, ";")))
        point = draw(_joined(st.sampled_from(("1", "0.31", "-0.57", "0.7", "2j")), d + 1))
        seed, lam = draw(st.integers(0, 50)), None
    else:
        d, n, p, m = draw(SMALL), draw(SMALL), draw(PRIMES), draw(SMALL)
        element, gens = draw(FIELDS), draw(ROWS)
        point = draw(st.integers(0, 5).flatmap(lambda k: _joined(COORDS, k)))
        seed = draw(_maybe(st.integers(-2, 50)))
        lam = draw(_maybe(st.sampled_from((MISSING_LAMBDA, BIG_LAMBDA))))
    argv = [cmd, f"--d={d}", f"--n={n}"]
    if cmd != "arrangement":
        argv.append(f"--p={p}")
    if cmd == "fixed-points":
        argv.append(f"--element={element}")
    elif cmd in ("enumerate", "classify"):
        argv += [f"--m={m}", f"--cap-subspaces={draw(st.integers(-2, 3000))}"]
    elif cmd == "cohomology":
        argv += _opt("--r", draw(_maybe(st.integers(-3, 40))))
        argv += _opt("--m", draw(_maybe(st.integers(-3, 6))))
    elif cmd in ("arrangement", "fiber", "invariants"):
        argv += _opt("--lambda", lam)
        if cmd != "invariants":
            argv += _opt("--seed", seed)
    if cmd == "fiber":
        argv += [f"--point={point}", f"--cap-elements={draw(st.integers(-2, 4096))}"]
    if cmd == "invariants":
        argv.append(f"--gens={gens}")
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_loads(text):
    return json.loads(text, parse_constant=_reject_constant)


@settings(max_examples=300, deadline=None)
@given(computing_argv())
# argparse stores [] for an option whose value is "--"
@example(["fixed-points", "--d=2", "--n=3", "--p=3", "--element=--"])
@example(["arrangement", "--d=2", "--n=5", "--lambda=--"])
# json.dumps writes a NaN coordinate as NaN, which is not JSON
@example(["fiber", "--d=2", "--n=4", "--p=2", "--seed=11", "--point=nan,1,1"])
# a float overflow in an arrangement entry or a coordinate
@example(["fiber", "--d=2", "--n=4", "--p=2", f"--lambda={BIG_LAMBDA}", "--point=1,0.31,-0.57"])
@example(["fiber", "--d=2", "--n=4", "--p=2", "--seed=11", "--point=1.7e308+1.7e308j,1,1"])
@example(["fiber", "--d=2", "--n=4", "--p=2", "--seed=11", "--point=1e308+1e308j,1,1"])
def test_cli_input_contract(argv):
    out, err = StringIO(), StringIO()
    with (redirect_stdout(out), redirect_stderr(err),
          patch.object(invariants, "HILBERT_WALK_CAP", FUZZ_WALK_CAP),
          patch.object(invariants, "RELATION_WALK_CAP", FUZZ_WALK_CAP)):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    lines = out.getvalue().splitlines()
    if code != 0:
        assert lines == []
    elif argv[0] == "fiber":
        for line in lines:
            _strict_loads(line)
    else:
        assert len(lines) == 1
        assert lines[0] == json.dumps(_strict_loads(lines[0]), sort_keys=True)
