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
    """The names a piece of code mentions: bare names, attributes and
    imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def test_every_definition_is_reached():
    """Every top-level function, class and assigned name in the package is
    reached from `cli.main`, from a name the benchmark scripts use, or from
    `chowpoly.__all__`.  A definition is reached when a reached one
    mentions its name, in any module, so the walk errs towards reaching:
    what it flags is called by nothing but the tests."""
    src = Path(chowpoly.__file__).parent
    defs = {}  # (module, name) -> the defining statement
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
    by_name = {}
    for module, name in defs:
        by_name.setdefault(name, []).append((module, name))
    bench = src.parent.parent / "bench"
    assert bench.is_dir(), bench
    names = set(chowpoly.__all__)
    for path in sorted(bench.glob("*.py")):
        names |= _mentions(ast.parse(path.read_text()))
    todo = [("cli", "main")] + [key for n in names for key in by_name.get(n, [])]
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += [k for n in _mentions(defs[key]) for k in by_name.get(n, [])]
    assert sorted(set(defs) - reached) == []
