"""Source hygiene: every name a module imports is used in that module, no
package module imports another's private names or the gc module, every
defaulted parameter in the package is set by some caller, every public
function has a caller or is a labelled oracle (a method only through a
receiver that may be of its class), the value types kept by the
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
    # grammar only; the library APIs a source calls are checked below.
    found = []
    for path in sorted(p for d in SCANNED + ("bench",) for p in (ROOT / d).rglob("*.py")):
        try:
            ast.parse(path.read_text(), feature_version=(3, 10))
        except SyntaxError as exc:
            found.append(f"{path.relative_to(ROOT)}:{exc.lineno}")
    assert found == []


# Library names that Python 3.10 lacks, by module; a module added after 3.10
# maps to None.
NEWER_THAN_3_10 = {
    "tomllib": None,
    "itertools": {"batched"},
    "math": {"sumprod", "cbrt", "exp2", "fma"},
    "typing": {"Self", "LiteralString", "Never", "assert_never", "assert_type",
               "reveal_type", "TypeVarTuple", "Unpack", "Required", "NotRequired",
               "dataclass_transform", "override", "get_overloads", "clear_overloads",
               "TypeAliasType", "TypeIs", "ReadOnly"},
    "enum": {"StrEnum", "ReprEnum", "EnumCheck", "FlagBoundary", "verify", "member",
             "nonmember", "global_enum"},
    "contextlib": {"chdir"},
    "datetime": {"UTC"},
    "operator": {"call"},
    "hashlib": {"file_digest"},
    "copy": {"replace"},
    "warnings": {"deprecated"},
    "asyncio": {"TaskGroup", "Runner", "timeout"},
}

# The arguments of int.to_bytes and int.from_bytes that have defaults only
# from Python 3.11 on: byteorder, and to_bytes's length.
BYTES_ARGS = {"to_bytes": ("length", "byteorder"), "from_bytes": ("bytes", "byteorder")}


def newer_api_uses(source):
    """(line, name) for each use in `source` of a library name of
    NEWER_THAN_3_10, through an import or a module attribute, and each
    to_bytes or from_bytes call that leaves an argument of BYTES_ARGS out."""
    tree = ast.parse(source)
    modules = {}  # local name -> module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in NEWER_THAN_3_10 and NEWER_THAN_3_10[alias.name] is None:
                    found.append((node.lineno, alias.name))
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in NEWER_THAN_3_10:
            names = NEWER_THAN_3_10[node.module]
            found += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names
                      if names is None or alias.name in names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if node.attr in (NEWER_THAN_3_10.get(module) or ()):
                found.append((node.lineno, f"{module}.{node.attr}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in BYTES_ARGS
              and not any(isinstance(a, ast.Starred) for a in node.args)
              and all(k.arg is not None for k in node.keywords)):
            names = BYTES_ARGS[node.func.attr]
            if len(node.args) + sum(k.arg in names for k in node.keywords) < len(names):
                found.append((node.lineno, node.func.attr))
    return sorted(found)


def test_sources_use_python_3_10_library_apis():
    # the grammar test above cannot see a library name or a default that
    # arrived after 3.10
    assert newer_api_uses("import itertools as it\nit.batched(x, 2)\nimport tomllib\n"
                          "from math import sumprod, prod\n") == [
        (2, "itertools.batched"), (3, "tomllib"), (4, "math.sumprod")]
    assert newer_api_uses("x.to_bytes(2)\nint.from_bytes(b)\nx.to_bytes(2, 'big')\n"
                          "x.to_bytes(length=2, byteorder='big')\nx.to_bytes(*a)\n") == [
        (1, "to_bytes"), (2, "from_bytes")]
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
             for line, name in newer_api_uses(path.read_text())]
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


# Attribute names of the builtin types: a receiver of unknown type may be one.
BUILTIN_ATTRS = frozenset().union(*map(dir, (
    object, bool, int, float, complex, str, bytes, bytearray, memoryview, list, tuple, dict,
    set, frozenset, range, slice)))
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _class_of(annotation, classes):
    """The package class that an annotation names, by name or as a string."""
    name = getattr(annotation, "id", getattr(annotation, "value", None))
    return name if isinstance(name, str) and name in classes else None


def package_classes():
    """({class: (attribute names, {attribute: class of its value}, {method:
    class of its result})}, {module-level function: class of its result})
    for the package, read off its annotations."""
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "genfermat").rglob("*.py"))]
    names = {node.name for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    classes, functions = {}, {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = _class_of(node.returns, names)
            if not isinstance(node, ast.ClassDef):
                continue
            attrs, values, results = set(), {}, {}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    attrs.add(item.name)
                    kinds = {getattr(d, "id", None) for d in item.decorator_list}
                    into = values if kinds & {"property", "cached_property"} else results
                    into[item.name] = _class_of(item.returns, names)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    attrs.add(item.target.id)
                    values[item.target.id] = _class_of(item.annotation, names)
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        attrs.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
                        if getattr(target, "id", None) == "__slots__":
                            attrs.update(n.value for n in ast.walk(item.value)
                                         if isinstance(n, ast.Constant))
            attrs.update(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                         and isinstance(n.ctx, ast.Store) and getattr(n.value, "id", None) == "self")
            classes[node.name] = (attrs, values, results)
    return classes, functions


def _scope_nodes(node):
    """The nodes of the scope `node`, not those of the scopes inside it."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, SCOPES + (ast.ClassDef,)):
            yield from _scope_nodes(child)


def _bindings(scope, cls, classes):
    """{name: [binding]} of a scope, each binding ("type", t) for self, cls
    and package classes, ("annotation", a) for an argument, ("value", e)
    for a plain assignment, or None for any other way to bind a name.  A
    method of package class `cls` binds its first argument to it."""
    out = {}
    if not isinstance(scope, ast.Module):
        args = scope.args
        kinds = {getattr(d, "id", None) for d in getattr(scope, "decorator_list", ())}
        every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        for i, arg in enumerate(a for a in every if a):
            if i == 0 and cls in classes and "staticmethod" not in kinds:
                binding = ("type", ("class" if "classmethod" in kinds else "instance", cls))
            else:
                binding = ("annotation", arg.annotation)
            out.setdefault(arg.arg, []).append(binding)
    nodes = list(_scope_nodes(scope))
    typed = {}
    for node in nodes:
        if isinstance(node, ast.Assign):
            typed.update((id(t), ("value", node.value)) for t in node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            typed[id(node.target)] = ("annotation", node.annotation) if isinstance(
                node, ast.AnnAssign) else ("value", node.value)
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.setdefault(node.id, []).append(typed.get(id(node)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            known = isinstance(node, ast.ClassDef) and node.name in classes
            out.setdefault(node.name, []).append(("type", ("class", node.name)) if known else None)
        elif isinstance(node, ast.alias):
            known = node.name in classes
            out.setdefault((node.asname or node.name).split(".")[0], []).append(
                ("type", ("class", node.name)) if known else None)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.setdefault(node.name, []).append(None)
    return out


def receiver_type(expr, chain, classes, functions, seen=()):
    """("instance" | "class", package class) of the value of `expr`, where
    the annotations and plain assignments of the scopes in `chain`
    (innermost first) tell it, else None."""
    if id(expr) in seen:
        return None
    seen += (id(expr),)

    def of(binding, scopes):
        if binding is None:
            return None
        kind, value = binding
        if kind == "type":
            return value
        if kind == "annotation":
            c = _class_of(value, classes)
            return c and ("instance", c)
        return receiver_type(value, scopes, classes, functions, seen)

    if isinstance(expr, ast.Name):
        for i, scope in enumerate(chain):
            if expr.id in scope:
                types = {of(binding, chain[i:]) for binding in scope[expr.id]}
                return types.pop() if len(types) == 1 else None
        return ("class", expr.id) if expr.id in classes else None
    if isinstance(expr, ast.Call):
        f = expr.func
        if isinstance(f, ast.Name):
            t = receiver_type(f, chain, classes, functions, seen)
            c = t[1] if t and t[0] == "class" else functions.get(f.id)
        elif isinstance(f, ast.Attribute):
            t = receiver_type(f.value, chain, classes, functions, seen)
            c = classes[t[1]][2].get(f.attr) if t else functions.get(f.attr)
        else:
            c = None
        return c and ("instance", c)
    if isinstance(expr, ast.Attribute):
        t = receiver_type(expr.value, chain, classes, functions, seen)
        c = classes[t[1]][1].get(expr.attr) if t and t[0] == "instance" else None
        return c and ("instance", c)
    return None


def method_references(tree, classes, functions):
    """(attribute name, receiver type, enclosing def nodes) for every
    ast.Attribute in the tree (`receiver_type`)."""
    out = []

    def visit(node, chain, defs, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                out.append((child.attr, receiver_type(child.value, chain, classes, functions),
                            defs))
            if isinstance(child, SCOPES):
                visit(child, (_bindings(child, cls, classes),) + chain, defs + (child,), None)
            else:
                visit(child, chain, defs, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, (_bindings(tree, None, classes),), (), None)
    return out


def reaches_method(cls, name, receiver, classes):
    """Whether a reference to attribute `name` on a receiver of type
    `receiver` can reach method `name` of package class `cls`: a receiver
    of known type must be that class or an instance of it, and one of
    unknown type counts only when no builtin type and no other package
    class has an attribute of that name."""
    if receiver is not None:
        return receiver[1] == cls
    return name not in BUILTIN_ATTRS and not any(
        name in attrs for other, (attrs, _, _) in classes.items() if other != cls)


def public_functions_without_callers():
    """{qualified name: def node} of the package's module-level public
    functions and non-dunder public methods that no file under CALLERS but
    __init__.py refers to, outside the function's own definition.  A
    function is reached by its bare name; a method only by an attribute
    reference whose receiver may be of its class (`reaches_method`)."""
    classes, functions = package_classes()
    defined = []  # (qualified name, call name, def node, class of a method or None)
    for path in sorted((ROOT / "src" / "genfermat").rglob("*.py")):
        tree = ast.parse(path.read_text())
        own = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
        for qual, _, fn, _ in _functions(tree):
            parts = qual.split(".")
            if fn.name.startswith("_") or not (
                    len(parts) == 1 or len(parts) == 2 and parts[0] in own):
                continue
            defined.append((qual, fn.name, fn, parts[0] if len(parts) == 2 else None))
    refs = {}  # name -> [enclosing def nodes of each reference]
    attrs = {}  # attribute name -> [(receiver type, enclosing def nodes)]
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            for name, defs in _references(tree):
                refs.setdefault(name, []).append(defs)
            for name, receiver, defs in method_references(tree, classes, functions):
                attrs.setdefault(name, []).append((receiver, defs))

    def reached(name, fn, cls):
        if cls is None:
            return any(fn not in defs for defs in refs.get(name, ()))
        return any(fn not in defs and reaches_method(cls, name, receiver, classes)
                   for receiver, defs in attrs.get(name, ()))

    return {qual: fn for qual, name, fn, cls in defined if not reached(name, fn, cls)}


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


def test_method_callers_are_qualified_by_class():
    # set.add does not reach Packed.add: a method is reached only through a
    # receiver that may be of its class
    classes, functions = package_classes()
    tree = ast.parse("from genfermat.groups import Packed\n"
                     "def f(seen, packed: Packed, other):\n"
                     "    seen.add(1)\n"
                     "    packed.add(1, 2)\n"
                     "    Packed.byte_fields(3, 2).add(1, 2)\n"
                     "    other.multiples(1)\n"
                     "    other.to_json()\n")
    refs = [(name, receiver) for name, receiver, _ in method_references(tree, classes, functions)
            if name in ("add", "multiples", "to_json")]
    assert refs == [("add", None), ("add", ("instance", "Packed")),
                    ("add", ("instance", "Packed")), ("multiples", None), ("to_json", None)]
    assert [reaches_method("Packed", name, receiver, classes)
            for name, receiver in refs[:4]] == [False, True, True, True]
    # two package classes define to_json, so an unknown receiver reaches neither
    assert not reaches_method("CohomologyProfile", "to_json", None, classes)


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
