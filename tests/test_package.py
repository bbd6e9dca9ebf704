"""The package's public surface: every exported name resolves, once; and
every `assert` left in its source is a known invariant."""

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
    ("families", "chordal_building_sets.go"): 1,
    ("nested", "compose"): 1,
    ("nested", "completion"): 2,
    ("polynomials", "gamma_expansion"): 1,
    ("polynomials", "is_real_rooted"): 1,
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
