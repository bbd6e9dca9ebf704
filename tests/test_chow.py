"""Chow polynomials by four independent routes, the FY monomial basis, the
descent formula, and the ψ-fiber decomposition."""

import os
import subprocess
import sys

import pytest

import oracles
from helpers import b4_flag_built, mask_of, set_of

from chowpoly.building import BuiltMatroid, extend, is_complete
from chowpoly.nested import maximal_nested_sets, stable_maximal_nested_sets
from chowpoly.chow import (
    _CHOW_MEMO,
    chow_by_deletion,
    chow_by_filtration,
    chow_polynomial,
    fy_monomials,
    gamma_by_descents,
    gamma_by_descents_factored,
    psi_fiber_of,
    psi_fibers,
    toric_hilbert_oracle,
)
from chowpoly.errors import BadParameters, NotComplete, NotIrreducible, TooLarge
from chowpoly.families import (
    augmented_built_matroid,
    built_from_matroid,
    chordal_building_sets,
    make_boolean,
    make_partition,
    make_uniform,
)
from chowpoly.lattice import lattice_of_flats
from chowpoly.polynomials import gamma_expansion, is_palindromic, padd


def _oracle_env(bm):
    lat = bm.lat
    orank = lambda s: lat.rank_of(lat.closure(mask_of(s)))
    og = {set_of(f) for f in bm.bset}
    oflats = [set_of(f) for f in lat.flats]
    return orank, og, oflats


def _oracle_cases():
    cases = [
        ("B3min", built_from_matroid(make_boolean(3), "min")),
        ("B3max", built_from_matroid(make_boolean(3), "max")),
        ("U24min", built_from_matroid(make_uniform(2, 4), "min")),
        ("U34min", built_from_matroid(make_uniform(3, 4), "min")),
        ("U34max", built_from_matroid(make_uniform(3, 4), "max")),
        ("Pi3min", built_from_matroid(make_partition(3), "min")),
        ("Pi4min", built_from_matroid(make_partition(4), "min")),
        ("B4flag", b4_flag_built()),
    ]
    lat3 = lattice_of_flats(make_boolean(3))
    for i, bset in enumerate(chordal_building_sets(3)):
        cases.append((f"B3chordal{i}", BuiltMatroid(lat3, bset)))
    return cases


@pytest.mark.parametrize(
    "name,bm", _oracle_cases(), ids=[c[0] for c in _oracle_cases()]
)
def test_chow_matches_oracle(name, bm):
    orank, og, oflats = _oracle_env(bm)
    assert chow_polynomial(bm) == oracles.chow_poly(bm.n, orank, og, oflats)


def test_fy_monomials_match_oracle():
    for name, bm in [
        ("B3max", built_from_matroid(make_boolean(3), "max")),
        ("B4flag", b4_flag_built()),
        ("Pi4min", built_from_matroid(make_partition(4), "min")),
        ("U34min", built_from_matroid(make_uniform(3, 4), "min")),
    ]:
        orank, og, oflats = _oracle_env(bm)
        got = {
            (
                frozenset(set_of(f) for f, _ in m),
                frozenset((set_of(f), e) for f, e in m),
            )
            for m in fy_monomials(bm)
        }
        want = {
            (supp, frozenset(alphas.items()))
            for supp, alphas in oracles.fy_basis(bm.n, orank, og, oflats)
        }
        assert got == want, name


def test_chow_goldens():
    assert chow_polynomial(built_from_matroid(make_uniform(3, 3), "max")) == [
        1,
        4,
        1,
    ]
    for n in range(3, 8):
        bm = built_from_matroid(make_uniform(n - 1, n), "min")
        assert chow_polynomial(bm) == [1] * (n - 1), n
    assert chow_polynomial(b4_flag_built()) == [1, 3, 3, 1]
    assert chow_polynomial(built_from_matroid(make_boolean(5), "max")) == [
        1,
        26,
        66,
        26,
        1,
    ]
    assert chow_polynomial(built_from_matroid(make_partition(4), "min")) == [
        1,
        5,
        1,
    ]
    assert chow_polynomial(built_from_matroid(make_boolean(2), "min")) == [1]


def test_deletion_agrees_including_all_chordal_b4():
    lat = lattice_of_flats(make_boolean(4))
    sets = chordal_building_sets(4)
    assert len(sets) == 73
    for bset in sets:
        bm = BuiltMatroid(lat, bset)
        assert chow_by_deletion(bm) == chow_polynomial(bm)
    for name, bm in _oracle_cases():
        assert chow_by_deletion(bm) == chow_polynomial(bm), name


def test_filtration_trace_b3_max():
    bm = built_from_matroid(make_uniform(3, 3), "max")
    h, trace = chow_by_filtration(bm, trace=True)
    assert h == [1, 4, 1]
    assert trace == [[1], [1, 1], [1, 2, 1], [1, 3, 1], [1, 4, 1]]
    assert chow_by_filtration(bm) == [1, 4, 1]


def test_filtration_agrees_on_samples():
    from chowpoly.errors import MixedFactorStep, NoBinaryFiltration

    supported = 0
    for name, bm in _oracle_cases():
        try:
            got = chow_by_filtration(bm)
        except (NoBinaryFiltration, MixedFactorStep):
            continue
        supported += 1
        assert got == chow_polynomial(bm), name
    assert supported >= 10


def test_filtration_b7_max_is_eulerian():
    bm = built_from_matroid(make_boolean(7), "max")
    eulerian = [1, 120, 1191, 2416, 1191, 120, 1]
    assert chow_by_filtration(bm) == eulerian
    assert chow_polynomial(bm) == eulerian
    b8 = built_from_matroid(make_boolean(8), "max")
    _CHOW_MEMO.clear()
    assert chow_polynomial(b8) == [1, 247, 4293, 15619, 15619, 4293, 247, 1]


def test_chow_dp_matches_support_enumeration():
    from chowpoly.corpus import corpus

    cases = [(inst.name, inst.built) for inst in corpus()]
    cases += [
        ("Pi6min", built_from_matroid(make_partition(6), "min")),
        ("B6max", built_from_matroid(make_boolean(6), "max")),
        ("U47max", built_from_matroid(make_uniform(4, 7), "max")),
    ]
    for name, bm in cases:
        _CHOW_MEMO.clear()
        assert chow_polynomial(bm) == oracles.fy_support_count(bm), name


def test_toric_agrees_and_guards():
    for name, bm in [
        ("B3max", built_from_matroid(make_boolean(3), "max")),
        ("B4flag", b4_flag_built()),
        ("U34min", built_from_matroid(make_uniform(3, 4), "min")),
        ("Pi4min", built_from_matroid(make_partition(4), "min")),
    ]:
        assert toric_hilbert_oracle(bm) == chow_polynomial(bm), name
    with pytest.raises(TooLarge):
        toric_hilbert_oracle(built_from_matroid(make_boolean(6), "max"))


def test_gamma_by_descents_goldens():
    assert gamma_by_descents(b4_flag_built()) == [1, 1]
    assert gamma_by_descents(built_from_matroid(make_boolean(3), "max")) == [
        1,
        2,
    ]
    assert gamma_by_descents(built_from_matroid(make_boolean(5), "max")) == [
        1,
        22,
        16,
    ]
    assert gamma_by_descents(built_from_matroid(make_partition(4), "min")) == [
        1,
        3,
    ]


def test_descent_formula_matches_gamma_when_complete():
    for bm in (
        built_from_matroid(make_boolean(4), "max"),
        built_from_matroid(make_partition(4), "min"),
        built_from_matroid(make_partition(5), "min"),
        built_from_matroid(make_uniform(2, 5), "min"),
    ):
        assert is_complete(bm)
        assert gamma_by_descents_factored(bm) == gamma_expansion(
            chow_polynomial(bm)
        )


def test_descent_formula_factored_reducible():
    bm = built_from_matroid(make_boolean(4), "min")
    assert gamma_by_descents_factored(bm) == [1]
    assert gamma_expansion(chow_polynomial(bm)) == [1]


def test_psi_fibers_partition_h():
    for bm in (
        built_from_matroid(make_boolean(3), "max"),
        built_from_matroid(make_boolean(4), "max"),
        built_from_matroid(make_partition(4), "min"),
    ):
        fibers = psi_fibers(bm)
        assert set(fibers) == {
            frozenset(s) for s in stable_maximal_nested_sets(bm)
        }
        total = []
        for poly in fibers.values():
            total = padd(total, poly)
        assert total == chow_polynomial(bm)


def test_psi_fiber_of_matches_global():
    bm = built_from_matroid(make_boolean(4), "max")
    fibers = psi_fibers(bm)
    pool_extra = {bm.lat.full}
    for s, poly in fibers.items():
        mons, got = psi_fiber_of(bm, s)
        assert got == poly
        for m in mons:
            assert {f for f, _ in m} <= set(s) | pool_extra
        degs = sorted(sum(a for _, a in m) for m in mons)
        dense = [0] * (max(degs, default=0) + 1)
        for d in degs:
            dense[d] += 1
        assert dense == poly


def test_psi_fibers_reject_reducible_and_incomplete():
    reducible = built_from_matroid(make_boolean(3), "min")
    incomplete = built_from_matroid(make_uniform(3, 4), "min")
    assert incomplete.irreducible and not is_complete(incomplete)
    for fn in (psi_fibers, lambda bm: psi_fiber_of(bm, frozenset())):
        with pytest.raises(NotIrreducible):
            fn(reducible)
        with pytest.raises(NotComplete):
            fn(incomplete)


def test_psi_fiber_of_rejects_bad_facets(monkeypatch):
    bm = built_from_matroid(make_boolean(3), "max")
    stable = [frozenset(s) for s in stable_maximal_nested_sets(bm)]
    unstable = [
        frozenset(s) for s in maximal_nested_sets(bm) if frozenset(s) not in stable
    ]
    assert stable and unstable
    for bad in (frozenset({0b001}), unstable[0], stable[0] | {0b1000}):
        with pytest.raises(BadParameters):
            psi_fiber_of(bm, bad)
    monkeypatch.setattr("chowpoly.chow.completion", lambda bm, s: frozenset())
    with pytest.raises(BadParameters, match="completion"):
        psi_fiber_of(bm, stable[0])


def test_psi_errors_are_typed_under_optimize():
    code = (
        "from chowpoly import built_from_matroid, make_boolean, make_uniform, "
        "psi_fiber_of, psi_fibers, stable_maximal_nested_sets, maximal_nested_sets\n"
        "def kind(fn, *a):\n"
        "    try:\n"
        "        fn(*a)\n"
        "    except Exception as e:\n"
        "        return type(e).__name__\n"
        "bm = built_from_matroid(make_boolean(3), 'max')\n"
        "stable = set(stable_maximal_nested_sets(bm))\n"
        "unstable = next(s for s in maximal_nested_sets(bm) if s not in stable)\n"
        "print(kind(psi_fibers, built_from_matroid(make_uniform(3, 4), 'min')),"
        " kind(psi_fibers, built_from_matroid(make_boolean(3), 'min')),"
        " kind(psi_fiber_of, bm, unstable))\n"
    )
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["NotComplete", "NotIrreducible", "BadParameters"]


def test_augmented_u23():
    bm = augmented_built_matroid(make_uniform(2, 3))
    assert chow_polynomial(bm) == [1, 4, 1]
    assert is_complete(bm)
    assert gamma_by_descents_factored(bm) == gamma_expansion([1, 4, 1])


def test_corpus_palindromic_with_expected_degree():
    from chowpoly.corpus import corpus

    for inst in corpus():
        h = chow_polynomial(inst.built)
        assert is_palindromic(h), inst.name
        want_deg = inst.built.rank - len(inst.built.maxg)
        assert len(h) - 1 == want_deg, inst.name


def test_extension_invariance_spot():
    bm = built_from_matroid(make_boolean(4), "max")
    top = mask_of([0, 1, 2])
    cut = frozenset(f for f in bm.lat.flats if top & ~f == 0)
    assert chow_polynomial(extend(bm, cut)) == chow_polynomial(bm)
    ext0 = extend(built_from_matroid(make_boolean(3), "min"), frozenset())
    assert chow_polynomial(ext0) == [1]
