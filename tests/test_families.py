"""Matroid families, chordal building sets, augmented built matroids, and
the stable-tree model, cross-checked against the oracles."""

from collections import Counter
from itertools import combinations, permutations
from math import comb

import pytest

import oracles
from helpers import mask_of, set_of

from chowpoly.building import BuiltMatroid, is_complete, validate_building_set
from chowpoly.chow import chow_polynomial
from chowpoly.errors import BadParameters, ChowpolyError, MissingIrreducible
from chowpoly.families import (
    augmented_built_matroid,
    braid_edges,
    built_from_matroid,
    chordal_building_sets,
    m0n_gamma,
    m0n_poincare_keel,
    make_boolean,
    make_graphic,
    make_partition,
    make_uniform,
)
from chowpoly.lattice import lattice_of_flats, popcount


FLAT_COUNT_CASES = [
    ("U25", make_uniform(2, 5), 5, oracles.uniform_rank(2)),
    ("B5", make_boolean(5), 5, oracles.boolean_rank),
    ("Pi4", make_partition(4), 6, oracles.graphic_rank(oracles.partition_edges(4))),
    (
        "path3+e",
        make_graphic([(0, 1), (1, 2), (3, 4)]),
        3,
        oracles.graphic_rank([(0, 1), (1, 2), (3, 4)]),
    ),
]


@pytest.mark.parametrize(
    "name,m,n,orank", FLAT_COUNT_CASES, ids=[c[0] for c in FLAT_COUNT_CASES]
)
def test_flat_sets_match_oracle(name, m, n, orank):
    lat = lattice_of_flats(m)
    assert {set_of(f) for f in lat.flats} == set(oracles.all_flats(n, orank))


def test_non_simple_explicit_building_set_is_validated():
    m = make_graphic([(0, 1), (0, 1), (1, 2)])  # edges 0 and 1 are parallel
    with pytest.raises(MissingIrreducible):
        built_from_matroid(m, [0b011, 0b111])  # the atom {2} is missing
    bm = built_from_matroid(m, [0b011, 0b100, 0b111], order=(2, 1, 0))
    assert (bm.n, bm.bset, bm.order) == (2, {0b01, 0b10, 0b11}, (1, 0))


def test_bad_parameters():
    for call in (
        lambda: make_uniform(0, 3),
        lambda: make_uniform(4, 3),
        lambda: make_boolean(0),
        lambda: make_graphic([]),
        lambda: make_graphic([(1, 1)]),
        lambda: make_graphic([(0, 1, 2)]),
        lambda: make_partition(1),
        lambda: make_partition(11),
        lambda: chordal_building_sets(6),
        lambda: chordal_building_sets(1),
        lambda: m0n_gamma(1),
        lambda: m0n_gamma(11),
    ):
        with pytest.raises(BadParameters):
            call()


def test_partition_is_complete_graph():
    assert braid_edges(3) == [(1, 2), (1, 3), (2, 3)]
    m = make_partition(4)
    assert m.n == 6
    lat = lattice_of_flats(m)
    assert len(lat.flats) == 15  # Bell(4)
    assert lat.rank_of(lat.full) == 3


def test_chordal_counts():
    assert [len(chordal_building_sets(n)) for n in (2, 3, 4, 5)] == [
        2,
        8,
        73,
        2344,
    ]


def test_chordal_sets_are_prefix_closed():
    for n in (3, 4):
        for g in chordal_building_sets(n):
            for s in g:
                if popcount(s) < 2:
                    continue
                pre = s & ~(1 << max(i for i in range(n) if s >> i & 1))
                assert popcount(pre) < 2 or pre in g, (n, sorted(g), s)


@pytest.mark.parametrize("n", [3, 4])
def test_chordal_equals_complete_for_natural_order(n):
    lat = lattice_of_flats(make_boolean(n))
    nz = [f for f in lat.flats if f]
    found = set()
    for pick in range(1 << len(nz)):
        s = frozenset(nz[i] for i in range(len(nz)) if pick >> i & 1)
        try:
            validate_building_set(lat, s)
        except ChowpolyError:
            continue
        if is_complete(BuiltMatroid(lat, s, validate=False)):
            found.add(s)
    assert found == set(chordal_building_sets(n))


def _canon(t):
    if isinstance(t, int):
        return t
    a, b = _canon(t[0]), _canon(t[1])
    if min(oracles.tree_leaves(a)) > min(oracles.tree_leaves(b)):
        a, b = b, a
    return (a, b)


def test_binary_tree_counts_and_sets():
    want = {2: 1, 3: 3, 4: 15, 5: 105, 6: 945}
    for n, cnt in want.items():
        trees = oracles.binary_trees_by_insertion(n)
        assert len(trees) == cnt, n
        assert len({_canon(t) for t in trees}) == cnt, n
    for n in (2, 3, 4, 5):
        got = {_canon(t) for t in oracles.binary_trees_by_insertion(n)}
        want_trees = {
            _canon(t) for t in oracles.binary_trees(range(1, n + 1))
        }
        assert got == want_trees, n


def test_tree_descents_match_oracle():
    for n in (3, 4, 5):
        trees = oracles.binary_trees_by_insertion(n)
        ours = Counter(len(oracles.tree_descent_data_ref(t)[0]) for t in trees)
        oracle = Counter(
            oracles.tree_descents(t)
            for t in oracles.binary_trees(range(1, n + 1))
        )
        assert ours == oracle, n
        for t in trees:
            assert len(oracles.tree_descent_data_ref(t)[0]) == oracles.tree_descents(t)


def test_m0n_gamma_values():
    assert m0n_gamma(2) == [1]
    assert m0n_gamma(3) == [1]
    assert m0n_gamma(4) == [1, 3]
    assert m0n_gamma(5) == [1, 13]
    assert m0n_gamma(6) == [1, 38, 45]
    assert m0n_gamma(7) == [1, 94, 423]
    assert m0n_gamma(8) == [1, 213, 2425, 1575]  # the `m0n --n 8` row
    assert m0n_gamma(9) == [1, 459, 11017, 25497]  # FY on Π9 with G_min


def test_m0n_gamma_matches_keel_b2():
    """b2(M0,n+1) = 2^n - C(n+1, 2) - 1 (Keel 1992); with h1 = (n-2)γ0 + γ1
    and γ0 = 1 that fixes γ1."""
    for n in range(2, 10):
        gam = m0n_gamma(n) + [0, 0]
        assert gam[0] == 1, n
        assert gam[1] == 2**n - comb(n + 1, 2) - n + 1, n


def test_m0n_gamma_matches_the_leaf_set_recursion():
    """The recursion over order types (|S|, leaves below the parent label)
    equals the one over leaf sets and parent labels."""
    for n in range(2, 11):
        assert m0n_gamma(n) == oracles.m0n_gamma_by_leaf_sets(n), n


def test_keel_recursion_matches_fy():
    """Keel's recursion gives the Poincaré polynomial of M0,n+1, the FY
    count on Π_n with its minimal building set."""
    for n in range(2, 9):
        bm = built_from_matroid(make_partition(n), "min")
        assert m0n_poincare_keel(n) == chow_polynomial(bm), n
    with pytest.raises(BadParameters):
        m0n_poincare_keel(1)


def test_augmented_goldens():
    bm = augmented_built_matroid(make_uniform(1, 1))
    assert bm.n == 2 and bm.rank == 2
    assert chow_polynomial(bm) == [1, 1]
    assert is_complete(bm)

    bm = augmented_built_matroid(make_boolean(2))
    assert bm.n == 3 and bm.rank == 3
    assert len(bm.lat.flats) == 8  # the augmented matroid of B2 is B3
    assert bm.order[0] == 0  # the new element is order-least
    assert is_complete(bm)
    assert bm.irreducible


def test_augmented_always_complete():
    for m in (
        make_uniform(2, 3),
        make_uniform(2, 4),
        make_boolean(3),
        make_partition(3),
    ):
        bm = augmented_built_matroid(m)
        assert is_complete(bm)
        assert bm.irreducible
        assert 1 in bm.bset  # the new element's atom


def test_built_from_matroid_simplifies():
    bm = built_from_matroid(make_uniform(1, 3), "min")
    assert bm.n == 1 and bm.rank == 1
    assert chow_polynomial(bm) == [1]


def test_m0n_gamma_matches_stable_tree_references():
    """The counting recursion equals the stable trees, classified by the
    walk that recomputes every minimal leaf, of both tree enumerations."""
    for n in range(2, 8):
        want = oracles.stable_tree_gamma(oracles.binary_trees_by_insertion(n))
        assert m0n_gamma(n) == want, n
    for n in range(2, 7):
        want = oracles.stable_tree_gamma(oracles.binary_trees(range(1, n + 1)))
        assert m0n_gamma(n) == want, n


def _canonical_graph(nverts, edges):
    return min(
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
        for p in permutations(range(nverts))
    )


def test_atlas_table_holds_each_graph_class_once():
    """Brute force over the edge sets of K5: the corpus's frozen graph table
    has exactly one graph per isomorphism class of graphs on at most 5
    vertices with an edge and no isolated vertex."""
    from chowpoly.corpus import ATLAS_GRAPHS

    k5 = list(combinations(range(5), 2))
    classes = set()
    for mask in range(1, 1 << len(k5)):
        edges = [e for i, e in enumerate(k5) if mask >> i & 1]
        used = sorted({v for e in edges for v in e})
        vid = {v: i for i, v in enumerate(used)}
        relabeled = [(vid[a], vid[b]) for a, b in edges]
        classes.add((len(used), _canonical_graph(len(used), relabeled)))
    table = [(nv, _canonical_graph(nv, edges)) for nv, edges in ATLAS_GRAPHS]
    for nv, edges in ATLAS_GRAPHS:
        assert {v for e in edges for v in e} == set(range(nv))
    assert len(classes) == len(table) == len(set(table)) == 33
    assert set(table) == classes
