"""The package's public surface: every exported name resolves, once."""

import chowpoly


def test_every_exported_name_resolves_once():
    names = chowpoly.__all__
    assert len(names) == len(set(names)), sorted(
        n for n in set(names) if names.count(n) > 1
    )
    missing = [n for n in names if not hasattr(chowpoly, n)]
    assert not missing, missing
