"""The package's public surface: every exported name resolves, once;
every `assert` left in its source is a known invariant; and every
definition in its source is reached from the CLI, the benchmark or the
exported names."""

import ast
from collections import Counter
from pathlib import Path

import chowpoly


def test_every_exported_name_resolves_once():
    names = chowpoly.__all__
    assert len(names) == len(set(names)), sorted(
        n for n in set(names) if names.count(n) > 1
    )
    missing = [n for n in names if not hasattr(chowpoly, n)]
    assert not missing, missing


# The asserts in the package, by module and enclosing function, with their
# count.  Each states an invariant that holds on every input its function
# accepts.  `python -O` strips asserts, so a check on a caller's input
# raises a typed ChowpolyError instead, and a new assert joins this list
# only as an invariant.
ASSERT_ALLOWLIST = {
    ("building", "tl_chain"): 1,
    ("nested", "compose"): 1,
    ("nested", "completion"): 2,
    ("polynomials", "gamma_expansion"): 1,
    ("polynomials", "_macaulay_bound"): 1,
}


def test_every_assert_in_the_source_is_an_allowlisted_invariant():
    found = Counter()

    def walk(module, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found[(module, ".".join(scope))] += 1
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(module, child, [*scope, child.name])
            else:
                walk(module, child, scope)

    for path in sorted(Path(chowpoly.__file__).parent.glob("*.py")):
        walk(path.stem, ast.parse(path.read_text()), [])
    assert found == Counter(ASSERT_ALLOWLIST)


def _mentions(node):
    """The names a piece of code mentions, as (names, attributes): bare
    names and imported names, and the attributes it reads.  A class's
    own mentions leave out the bodies of its methods, except dunders."""
    if isinstance(node, ast.ClassDef):
        parts = [n for n in node.body if _method_name(n) is None]
        parts += node.bases + node.decorator_list
    else:
        parts = [node]
    names, attrs = set(), set()
    for n in (n for part in parts for n in ast.walk(part)):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.rsplit(".", 1)[-1])
    return names, attrs


def _method_name(node):
    """The name of a method that is not a dunder, or None."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if not (node.name.startswith("__") and node.name.endswith("__")):
            return node.name
    return None


def test_every_definition_is_reached():
    """Every top-level function, class and assigned name in the package,
    and every method but the dunders, is reached from `cli.main`, from a
    name the benchmark scripts use, or from `chowpoly.__all__`.  A
    top-level definition is reached when a reached one mentions its name,
    in any module, and a method when a reached one reads its name as an
    attribute, on any object, so the walk errs towards reaching: what it
    flags is called by nothing but the tests.  A class reaches its
    dunders with itself."""
    src = Path(chowpoly.__file__).parent
    defs = {}  # (module, name or Class.method) -> the defining statement
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[path.stem, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                assign = isinstance(node, ast.Assign)
                for target in node.targets if assign else [node.target]:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name) and not n.id.startswith("__"):
                            defs[path.stem, n.id] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    name = _method_name(item)
                    if name is not None:
                        defs[path.stem, f"{node.name}.{name}"] = item
    by_name, by_attr = {}, {}  # a top-level name / a method name -> keys
    for module, name in defs:
        cls, _, method = name.rpartition(".")
        (by_attr if cls else by_name).setdefault(method, []).append((module, name))
    bench = src.parent.parent / "bench"
    assert bench.is_dir(), bench
    names, attrs = set(chowpoly.__all__), set()
    for path in sorted(bench.glob("*.py")):
        more_names, more_attrs = _mentions(ast.parse(path.read_text()))
        names |= more_names
        attrs |= more_attrs

    def reaches(names, attrs):
        keys = [key for n in names | attrs for key in by_name.get(n, [])]
        return keys + [key for a in attrs for key in by_attr.get(a, [])]

    todo = [("cli", "main"), *reaches(names, attrs)]
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += reaches(*_mentions(defs[key]))
    assert sorted(set(defs) - reached) == []
