"""Source hygiene: every name a module imports is used in that module, no
package module imports another's private names or the gc module, every
defaulted parameter in the package is set by some caller, every public
function has a caller or is a labelled oracle, the value types kept by the
thousand hold no per-instance dict, every source parses as the oldest
Python that pyproject.toml allows, and every committed benchmark record
(BENCH_*.json at the root) holds the paired runs its summary is made of."""

import ast
import json
import math
import re
import statistics
from pathlib import Path

from genfermat.groups import GroupParams, elem_normalize, subgroup_from_generators

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts")
CALLERS = ("src", "bench", "scripts")

# Defaulted parameters that no caller outside the tests sets, each kept on
# purpose ("function.parameter", methods as "Class.method.parameter").
ALLOWED = {
    "main.argv": "the entry point: None reads sys.argv",
}


def unused_imports(path):
    """(line, name) for each imported name that the module never reads.
    Imports marked `# noqa: F401` (re-exports) are skipped."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name != "*":
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path)
    ]
    assert found == []


def private_imports(path):
    """(line, name) for each underscore name that the module imports from a
    genfermat module (dunder names such as __version__ are public)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "genfermat"):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name.startswith("_") and not alias.name.startswith("__"))
    return found


def test_no_private_imports_across_modules():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, name in private_imports(path)
    ]
    assert found == []


def imports_gc(path):
    """Lines of the module that import the gc module."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "gc"]


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10.  This checks the
    # grammar only, not the library APIs a source calls.
    found = []
    for path in sorted(p for d in SCANNED + ("bench",) for p in (ROOT / d).rglob("*.py")):
        try:
            ast.parse(path.read_text(), feature_version=(3, 10))
        except SyntaxError as exc:
            found.append(f"{path.relative_to(ROOT)}:{exc.lineno}")
    assert found == []


def test_package_leaves_the_collector_alone():
    # Speed must come from allocating fewer tracked objects: switching the
    # cyclic collector off would change the caller's whole process.
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line in imports_gc(path)]
    assert found == []


def _functions(tree):
    """(qualified name, call name, def node, bound) for every function in
    the tree.  A method's call name is its own, an `__init__`'s is its
    class's, and `bound` says whether the first parameter is self or cls."""
    out = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                name = cls if cls and child.name == "__init__" else child.name
                out.append((prefix + child.name, name, child, bool(cls) and not static))
                visit(child, prefix + child.name + ".", None)
            else:
                visit(child, prefix, cls)

    visit(tree, "", None)
    return out


def _defaulted(fn):
    """{parameter: index among the positional parameters, or None for a
    keyword-only one} of fn's defaulted parameters."""
    args = fn.args
    positional = args.posonlyargs + args.args
    out = {a.arg: i for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None})
    return out


def _passed(call, param, index):
    """The expression `call` passes for param by keyword or by position,
    True when a ** argument may pass it, or None when the call leaves the
    default.  Positions after a * argument are unknown and not counted."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
        if kw.arg is None:
            return True
    if index is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if i == index:
                return arg
    return None


def _calls(node, quals, own):
    """(call, own) for every call under node, where own maps each defaulted
    parameter of the innermost enclosing function to its qualified name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, quals,
                              {a: f"{quals[child]}.{a}" for a in _defaulted(child)})
            continue
        if isinstance(child, ast.Call):
            yield child, own
        yield from _calls(child, quals, own)


def unset_defaults():
    """Qualified "function.parameter" names of the package's defaulted
    parameters that no call under CALLERS sets.  A call that only forwards
    its own caller's defaulted parameter sets it only if that one is set."""
    params = {}  # call name -> [(qualified name, {param: index})]
    for path in sorted((ROOT / "src" / "genfermat").rglob("*.py")):
        for qual, name, fn, bound in _functions(ast.parse(path.read_text())):
            defaulted = _defaulted(fn)
            if bound:
                defaulted = {a: None if i is None else i - 1 for a, i in defaulted.items()}
            if defaulted:
                params.setdefault(name, []).append((qual, defaulted))
    calls = []
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            quals = {fn: qual for qual, _, fn, _ in _functions(tree)}
            calls.extend(_calls(tree, quals, {}))
    unset = {f"{qual}.{a}" for targets in params.values()
             for qual, defaulted in targets for a in defaulted}
    changed = True
    while changed:
        changed = False
        for call, own in calls:
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            for qual, defaulted in params.get(name, ()):
                for a, i in defaulted.items():
                    key = f"{qual}.{a}"
                    if key not in unset:
                        continue
                    value = _passed(call, a, i)
                    if value is None or (isinstance(value, ast.Name)
                                         and own.get(value.id) in unset):
                        continue
                    unset.discard(key)
                    changed = True
    return sorted(unset)


def test_every_default_has_a_caller():
    unset = unset_defaults()
    assert [key for key in unset if key not in ALLOWED] == []
    # an allowance whose parameter is gone or now has a caller is stale
    assert sorted(set(ALLOWED) - set(unset)) == []


# Public functions that no caller outside the tests reaches, each kept as an
# independent oracle: its reason starts with the test that cross-checks the
# pipeline against it, and its docstring starts with "Oracle:".
ORACLES = {
    "iter_rref_bases":
        "test_enumerate_all_lifts_match_elimination filters every RREF basis by elimination",
    "subgroup_is_free_dual":
        "test_dual_matches_elementwise_on_sweep checks the walk's kernels by the dual route",
    "generates_up_to":
        "test_hilbert_basis_minimal_and_complete checks hilbert_basis degree by degree",
}


def _references(tree):
    """(name, enclosing def nodes) for every ast.Name, ast.Attribute and
    imported name in the tree."""
    out = []

    def visit(node, defs):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                out.append((child.id, defs))
            elif isinstance(child, ast.Attribute):
                out.append((child.attr, defs))
            elif isinstance(child, ast.alias):
                out.append((child.name, defs))
            visit(child, defs + (child,) if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else defs)

    visit(tree, ())
    return out


def public_functions_without_callers():
    """{qualified name: def node} of the package's module-level public
    functions and non-dunder public methods that no file under CALLERS but
    __init__.py refers to, outside the function's own definition."""
    defined = []  # (qualified name, call name, def node)
    for path in sorted((ROOT / "src" / "genfermat").rglob("*.py")):
        tree = ast.parse(path.read_text())
        classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
        for qual, _, fn, _ in _functions(tree):
            parts = qual.split(".")
            if fn.name.startswith("_") or not (
                    len(parts) == 1 or len(parts) == 2 and parts[0] in classes):
                continue
            defined.append((qual, fn.name, fn))
    refs = {}  # name -> [enclosing def nodes of each reference]
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for name, defs in _references(ast.parse(path.read_text())):
                refs.setdefault(name, []).append(defs)
    return {qual: fn for qual, name, fn in defined
            if all(fn in defs for defs in refs.get(name, ()))}


def test_every_public_function_has_a_caller():
    unreached = public_functions_without_callers()
    assert sorted(set(unreached) - set(ORACLES)) == []
    # an oracle that is gone or now has a caller is stale
    assert sorted(set(ORACLES) - set(unreached)) == []
    assert [name for name in ORACLES
            if not (ast.get_docstring(unreached[name]) or "").startswith("Oracle:")] == []
    tests = {fn.name for path in (ROOT / "tests").rglob("test_*.py")
             for _, _, fn, _ in _functions(ast.parse(path.read_text()))}
    assert {name: reason.split()[0] for name, reason in ORACLES.items()
            if reason.split()[0] not in tests} == {}


def test_value_types_use_slots():
    # enumerate_all keeps every kernel of a cell as a Subgroup
    params = GroupParams(p=3, n=2, d=1)
    for value in (elem_normalize((0, 0, 0), params), subgroup_from_generators([], params)):
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_benchmark_records_hold_their_runs():
    # A speed claim cites a BENCH_*.json: for each workload, at least 5
    # alternating parent/change runs of every end-to-end metric that
    # BENCHMARK.json declares, with the median and IQR of each side.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in declared["end_to_end"]]
    workloads = {w["name"] for w in declared["workloads"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert all(re.fullmatch("[0-9a-f]{40}", record["commits"][side])
                   for side in ("parent", "change")), path.name
        assert record["machine"]["nproc"] >= 1 and record["machine"]["python"], path.name
        assert record["workloads"] and set(record["workloads"]) <= workloads, path.name
        for name, runs in record["workloads"].items():
            where = f"{path.name}: {name}"
            assert len(runs["runs"]) >= 5, where
            assert {run["seed"] for run in runs["runs"]} <= set(runs["seeds"]), where
            # the side that ran first alternates from pair to pair
            firsts = [run["first"] for run in runs["runs"]]
            assert set(firsts) == {"parent", "change"}, where
            assert all(a != b for a, b in zip(firsts, firsts[1:])), where
            for side in ("parent", "change"):
                for metric in metrics:
                    values = [run[side][metric] for run in runs["runs"]]
                    assert all(isinstance(v, (int, float)) for v in values), where
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    summary = runs["summary"][side][metric]
                    assert math.isclose(summary["median"], statistics.median(values),
                                        abs_tol=1e-12), (where, side, metric)
                    assert math.isclose(summary["iqr"], q3 - q1,
                                        abs_tol=1e-12), (where, side, metric)
