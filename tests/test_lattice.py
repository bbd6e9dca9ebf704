"""Lattice-of-flats construction, joins/meets, interval factorization and
modular cuts, cross-checked against the brute-force oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import mask_of, set_of, sets_of

from chowpoly.errors import InvalidMatroid, NotAFlat, NotMeetClosed, NotUpwardClosed
from chowpoly.families import make_boolean, make_graphic, make_partition, make_uniform
from chowpoly.lattice import (
    Matroid,
    delete_lattice,
    is_modular_pair,
    lattice_of_flats,
    validate_modular_cut,
    validate_rank_axioms,
)

CASES = [
    ("B4", make_boolean(4), 4, oracles.boolean_rank),
    ("U24", make_uniform(2, 4), 4, oracles.uniform_rank(2)),
    ("U35", make_uniform(3, 5), 5, oracles.uniform_rank(3)),
    (
        "K4",
        make_partition(4),
        6,
        oracles.graphic_rank(oracles.partition_edges(4)),
    ),
    (
        "path3+edge",
        make_graphic([(0, 1), (1, 2), (3, 4)]),
        3,
        oracles.graphic_rank([(0, 1), (1, 2), (3, 4)]),
    ),
]


@pytest.mark.parametrize("name,m,n,orank", CASES, ids=[c[0] for c in CASES])
def test_flats_match_oracle(name, m, n, orank):
    lat = lattice_of_flats(m)
    assert sets_of(lat.flats) == oracles.all_flats(n, orank)


@pytest.mark.parametrize("name,m,n,orank", CASES, ids=[c[0] for c in CASES])
def test_join_meet_match_oracle(name, m, n, orank):
    lat = lattice_of_flats(m)
    for f in lat.flats:
        for g in lat.flats:
            j = lat.join(f, g)
            assert set_of(j) == oracles.join_of(n, orank, set_of(f), set_of(g))
            assert lat.meet(f, g) == f & g


@pytest.mark.parametrize("name,m,n,orank", CASES, ids=[c[0] for c in CASES])
def test_covers_are_rank_plus_one_and_minimal(name, m, n, orank):
    lat = lattice_of_flats(m)
    for f in lat.flats:
        for c in lat.covers(f):
            assert f & ~c == 0 and f != c
            assert lat.rank_of(c) == lat.rank_of(f) + 1


@pytest.mark.parametrize("name,m,n,orank", CASES, ids=[c[0] for c in CASES])
def test_irreducibility_matches_oracle(name, m, n, orank):
    lat = lattice_of_flats(m)
    flats = oracles.all_flats(n, orank)
    for f in lat.flats:
        if f == 0:
            continue
        got = lat.is_irreducible(f)
        want = oracles.is_irreducible_flat(n, orank, flats, set_of(f))
        assert got == want, f"{name}: {set_of(f)}"
        fac = lat.interval_factors(f)
        assert lat.rank_of(f) == sum(lat.rank_of(x) for x in fac)
        j = 0
        for x in fac:
            j = lat.join(j, x)
        assert j == f


def test_closure_properties_uniform():
    m = make_uniform(3, 6)
    lat = lattice_of_flats(m)
    for s in range(0, 1 << 6, 5):
        c = lat.closure(s)
        assert s & ~c == 0
        assert lat.closure(c) == c
        assert m.rank(c) == m.rank(s)


@given(
    r=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=0, max_value=3),
    a=st.integers(min_value=0, max_value=255),
    b=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=60, deadline=None)
def test_rank_submodular_uniform(r, extra, a, b):
    n = min(r + extra, 8)
    m = make_uniform(min(r, n), n)
    mask = (1 << n) - 1
    a &= mask
    b &= mask
    assert m.rank(a) + m.rank(b) >= m.rank(a | b) + m.rank(a & b)


def test_invalid_matroids_rejected():
    with pytest.raises(InvalidMatroid):
        validate_rank_axioms(Matroid(2, lambda s: 2 * bin(s).count("1")))  # jumps by 2
    with pytest.raises(InvalidMatroid):
        validate_rank_axioms(Matroid(2, lambda s: bin(s).count("1") % 2))  # not monotone
    with pytest.raises(InvalidMatroid):
        lattice_of_flats(Matroid(3, lambda s: 0))  # all loops
    for _, m, _, _ in CASES:
        assert validate_rank_axioms(m)


def test_simple_detection():
    assert lattice_of_flats(make_boolean(3)).simple()
    assert not lattice_of_flats(make_uniform(1, 3)).simple()


def test_modular_pairs_boolean_always():
    lat = lattice_of_flats(make_boolean(4))
    for f in lat.flats:
        for g in lat.flats:
            assert is_modular_pair(lat, f, g)


def test_modular_pair_fails_uniform():
    lat = lattice_of_flats(make_uniform(3, 5))
    f, g = mask_of([0, 1]), mask_of([2, 3])
    assert not is_modular_pair(lat, f, g)


def test_validate_modular_cut_principal_filter():
    lat = lattice_of_flats(make_boolean(4))
    top = mask_of([0, 1])
    cut = frozenset(f for f in lat.flats if top & ~f == 0)
    mc = validate_modular_cut(lat, cut)
    assert mc.proper and mc.nonempty and mc.atom_free


def test_validate_modular_cut_rejections():
    lat = lattice_of_flats(make_boolean(4))
    with pytest.raises(NotUpwardClosed):
        validate_modular_cut(lat, {mask_of([0, 1])})
    filt = lambda top: {f for f in lat.flats if top & ~f == 0}
    with pytest.raises(NotMeetClosed):
        validate_modular_cut(lat, filt(mask_of([0, 1])) | filt(mask_of([2, 3])))
    with pytest.raises(NotAFlat):
        validate_modular_cut(lattice_of_flats(make_uniform(2, 4)), {mask_of([0, 1])})


def test_delete_lattice_boolean():
    lat = lattice_of_flats(make_boolean(4))
    sub, drop = delete_lattice(lat, 2)
    want = lattice_of_flats(make_boolean(3))
    assert sorted(sub.flats) == sorted(want.flats)
    assert drop(mask_of([0, 1, 2, 3])) == mask_of([0, 1, 2])


def test_deletion_modular_cut_roundtrip_rank():
    lat = lattice_of_flats(make_uniform(2, 4))
    sub, mc = oracles.deletion_modular_cut(lat, 3)
    assert sorted(sub.flats) == sorted(lattice_of_flats(make_uniform(2, 3)).flats)
    assert mc.flats == {f for f in sub.flats if sub.rank_of(f) == 2}
