"""Lattice-of-flats construction, joins/meets, interval factorization and
modular cuts, cross-checked against the brute-force oracles."""

import inspect
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import UNIVERSE_HOSTS, filtration_sets, mask_of, set_of, sets_of

from chowpoly.errors import (
    InvalidMatroid,
    NotAFlat,
    NotFlag,
    NotMeetClosed,
    NotUpwardClosed,
    Stuck,
    TooLarge,
)
from chowpoly.building import (
    BuiltMatroid,
    binary_filtration,
    contract,
    delete_element,
    g_min,
    restrict,
)
from chowpoly.families import (
    built_from_matroid,
    make_boolean,
    make_graphic,
    make_partition,
    make_uniform,
)
from chowpoly.lattice import (
    GeomLattice,
    Matroid,
    delete_lattice,
    is_modular_pair,
    lattice_of_flats,
    popcount,
    validate_modular_cut,
    validate_rank_axioms,
)
from chowpoly.nested import link_decomposition, maximal_nested_sets

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


def _least_flat_containing(lat, mask):
    """The least-rank flat of lat holding mask, by a scan of all flats."""
    return min(
        (r, f) for f, r in zip(lat.flats, lat.ranks) if mask & ~f == 0
    )[1]


@pytest.mark.parametrize(
    "m,kind",
    [(make_partition(5), "min"), (make_boolean(4), "max"), (make_uniform(3, 6), "max")],
    ids=["Pi5-min", "B4-max", "U36-max"],
)
def test_join_and_closure_on_derived_lattices(m, kind):
    """Joins and closures climb the covers of every lattice that a minor or
    a local interval builds, not only of `lattice_of_flats` results."""
    bm = built_from_matroid(m, kind)
    derived = [restrict(bm, f) for f in bm.lat.flats]
    derived += [contract(bm, f) for f in bm.lat.flats]
    derived += [delete_element(bm, e) for e in range(bm.n)]
    for s in maximal_nested_sets(bm) + [frozenset({g}) for g in bm.bset]:
        derived += [link.built for link in link_decomposition(bm, s)]
    for lat in {id(d.lat): d.lat for d in derived}.values():
        for f in lat.flats:
            for g in lat.flats:
                assert lat.join(f, g) == _least_flat_containing(lat, f | g)
        for mask in range(1 << lat.n):
            assert lat.closure(mask) == _least_flat_containing(lat, mask)


def _derived_lattices(bm):
    """The lattice of every restriction, contraction and single-element
    deletion of bm, of bm relabeled by its reversed order, and of every
    local interval its filtration walk stars."""
    out = [restrict(bm, f).lat for f in bm.lat.flats]
    out += [contract(bm, f).lat for f in bm.lat.flats]
    out += [delete_element(bm, e).lat for e in range(bm.n)]
    reversed_order = BuiltMatroid(bm.lat, bm.bset, bm.order[::-1], validate=False)
    out.append(reversed_order.relabeled().lat)
    try:
        filt = binary_filtration(bm, g_min(bm.lat))
    except (NotFlag, Stuck):
        return out
    for prev_bset, a in zip(filtration_sets(filt), filt.factors):
        prev = BuiltMatroid(bm.lat, prev_bset, bm.order, validate=False)
        if not any(f in prev.maxg for f in a):
            out += [link.built.lat for link in link_decomposition(prev, a)]
    return out


def test_derived_covers_match_a_rescan():
    """Intervals, deletions and relabeled copies take their covers from the
    parent lattice, and a deletion of the last element its flat index too;
    they are, list for list, what the validating constructor's rescan gives
    on the same flats."""
    from chowpoly.corpus import corpus

    cases = [(inst.name, inst.built) for inst in corpus()]
    cases += [
        ("Pi6min", built_from_matroid(make_partition(6), "min")),
        ("B5max", built_from_matroid(make_boolean(5), "max")),
        ("U47max", built_from_matroid(make_uniform(4, 7), "max")),
    ]
    seen = 0
    for name, bm in cases:
        for lat in _derived_lattices(bm):
            fresh = GeomLattice(lat.n, zip(lat.flats, lat.ranks))
            assert lat.flats == fresh.flats and lat.ranks == fresh.ranks, name
            assert lat.covers_up == fresh.covers_up, name
            assert lat.atom_of_elem == fresh.atom_of_elem, name
            assert lat.idx == fresh.idx, name
            seen += 1
    assert seen > 10000


# Its covers partition E ∖ F at every flat F, so the constructor accepts it.
_NOT_MEET_CLOSED = [
    (0, 0),
    (0b11, 1),
    (0b1100, 1),
    (0b111, 2),
    (0b1011, 2),
    (0b1101, 2),
    (0b1110, 2),
    (0b1111, 3),
]


def test_meet_outside_the_flats_is_typed():
    """Covers that partition at every flat do not make the flats
    intersection-closed: here {0, 1} and {0, 2, 3} meet in {0}, no flat."""
    lat = GeomLattice(4, _NOT_MEET_CLOSED)
    with pytest.raises(InvalidMatroid, match="11 and 1101"):
        lat.meet(0b11, 0b1101)


def test_meet_outside_the_flats_is_typed_under_optimize():
    code = (
        "from chowpoly.errors import InvalidMatroid\n"
        "from chowpoly.lattice import GeomLattice\n"
        f"lat = GeomLattice(4, {_NOT_MEET_CLOSED!r})\n"
        "try:\n"
        "    lat.meet(0b11, 0b1101)\n"
        "except InvalidMatroid as e:\n"
        "    print(e.args)\n"
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
    assert proc.stdout == (
        "('flats 11 and 1101 meet in 1, which is not a flat',)\n"
    )


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
        row = lat.factor_table()[lat.idx[f]]
        fac = sorted(row, key=lambda g: (lat.rank_of(g), g))
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


def test_rank_axioms_refuse_more_than_16_elements():
    """Past 16 elements the rank axioms are not checked on a sample: the
    check raises TooLarge before its first rank call."""

    def no_call(s):
        raise AssertionError(f"rank of {s:b} asked")

    with pytest.raises(TooLarge):
        validate_rank_axioms(Matroid(17, no_call))


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


def _corpus_hosts():
    """The host matroids of `corpus()`, as its families build them."""
    from chowpoly.corpus import ATLAS_GRAPHS

    hosts = [make_uniform(r, n) for n in range(1, 7) for r in range(1, n + 1)]
    hosts += [make_boolean(n) for n in range(1, 6)]
    hosts += [make_partition(n) for n in range(2, 6)]
    hosts += [make_graphic(edges) for _, edges in ATLAS_GRAPHS]
    return hosts


def _count_rank_calls(m):
    """Count the calls of m.rank from now on, as the benchmark's tracer
    does; returns a one-element list holding the count."""
    calls = [0]
    rank = m.rank

    def counted(mask):
        calls[0] += 1
        return rank(mask)

    m.rank = counted
    return calls


def test_factor_table_matches_split_reference():
    """The bottom-up factor table against the old split-off search, on
    every flat of every corpus lattice plus Π7, B6 and U(5,11)."""
    from chowpoly.corpus import corpus

    lats = [inst.built.lat for inst in corpus()]
    lats += [
        lattice_of_flats(m)
        for m in (make_partition(7), make_boolean(6), make_uniform(5, 11))
    ]
    flats = 0
    for lat in lats:
        for f in lat.flats:
            want = oracles.split_factors(lat, f)
            want.sort(key=lambda g: (lat.rank_of(g), g))
            row = lat.factor_table()[lat.idx[f]]
            assert sorted(row, key=lambda g: (lat.rank_of(g), g)) == want, f
            assert lat.is_irreducible(f) == (len(want) == 1)
            flats += 1
    assert (len(lats), flats) == (232, 5628)


def test_g_factor_pass_matches_popcount_reference():
    """The one split test against the pass that also compared popcounts
    (`oracles.g_factor_table_ref`): the same rows, or None on both, on
    every subset of B4's nonzero flats and every superset of G_min on
    U(3,5).  A G_min built matroid takes the lattice's factor table as its
    G-factor table, equal row by row to the pass on its set once each row
    is sorted by (rank, mask), on every corpus host and Π7."""
    from chowpoly.corpus import corpus
    from chowpoly.lattice import _g_factor_table, bits

    b4 = lattice_of_flats(make_boolean(4))
    u35 = lattice_of_flats(make_uniform(3, 5))
    accepted = []
    for lat, fixed in ((b4, frozenset()), (u35, g_min(u35))):
        free = sorted(f for f in lat.flats if f and f not in fixed)
        ok = 0
        for pick in range(1 << len(free)):
            s = fixed | {free[k] for k in bits(pick)}
            got = _g_factor_table(lat, s)
            assert got == oracles.g_factor_table_ref(lat, s), sorted(s)
            ok += got is not None
        accepted.append(ok)
    assert accepted == [420, 1024]
    lats = [inst.built.lat for inst in corpus()] + [lattice_of_flats(make_partition(7))]
    for lat in lats:
        bm = BuiltMatroid(lat, g_min(lat))
        assert bm.factor_table() is lat.factor_table()
        assert _sorted_rows(lat, bm.factor_table()) == _sorted_rows(
            lat, _g_factor_table(lat, bm.bset)
        )


def _sorted_rows(lat, table):
    """Each row of a factor table sorted by (rank, mask)."""
    return [sorted(row, key=lambda g: (lat.rank_of(g), g)) for row in table]


def test_factor_table_rows_match_the_g_min_pass():
    """The lattice's factor table, read off one lower cover per flat, has
    the rows of the validating pass on G_min, as sorted rows, on every
    corpus lattice, Π2–Π8, B6, U(4,7), U(5,11) and the universe hosts."""
    from chowpoly.corpus import corpus
    from chowpoly.lattice import _g_factor_table

    lats = [inst.built.lat for inst in corpus()]
    lats += [lattice_of_flats(make_partition(n)) for n in range(2, 9)]
    lats += [
        lattice_of_flats(m)
        for m in (make_boolean(6), make_uniform(4, 7), make_uniform(5, 11))
    ]
    lats += [lattice_of_flats(m) for m in UNIVERSE_HOSTS.values()]
    for lat in lats:
        want = _g_factor_table(lat, g_min(lat))
        assert _sorted_rows(lat, lat.factor_table()) == _sorted_rows(lat, want)
    assert len(lats) == 242


def test_factor_table_takes_no_maximal(monkeypatch):
    """Building Π7's factor table calls no `lattice.maximal`: each row comes
    from the row of one lower cover, not from the tops of all of them."""
    import chowpoly.lattice as lattice

    calls = 0
    maximal = lattice.maximal

    def counting_maximal(family):
        nonlocal calls
        calls += 1
        return maximal(family)

    monkeypatch.setattr(lattice, "maximal", counting_maximal)
    lat = lattice_of_flats(make_partition(7))
    table = lat.factor_table()
    assert calls == 0
    assert sum(len(row) == 1 for row in table) == len(g_min(lat)) == 120


def test_lattice_of_flats_takes_fewer_rank_calls():
    """The same flats and ranks as the BFS that closes F + e for every e
    outside F, with strictly fewer calls of m.rank: on every corpus host and
    on Π6 with the family's closure oracle, and on Π6 through the rank
    oracle alone, where one closure per cover saves more than half."""
    ref_total = 0
    for m in _corpus_hosts() + [make_partition(6)]:
        ref = Matroid(m.n, m._rank_fn)
        ref_calls = _count_rank_calls(ref)
        want = oracles.lattice_of_flats_ref(ref)
        calls = _count_rank_calls(m)
        lat = lattice_of_flats(m)
        assert (lat.flats, lat.ranks) == want
        assert calls[0] < ref_calls[0]
        ref_total += ref_calls[0]
    pi6 = make_partition(6)
    generic = Matroid(pi6.n, pi6._rank_fn)
    calls = _count_rank_calls(generic)
    lat = lattice_of_flats(generic)
    ref = Matroid(pi6.n, pi6._rank_fn)
    ref_calls = _count_rank_calls(ref)
    assert (lat.flats, lat.ranks) == oracles.lattice_of_flats_ref(ref)
    assert 2 * calls[0] < ref_calls[0]


def test_closure_oracles_match_rank_closure():
    """The uniform, Boolean and graphic closure oracles against the closure
    by rank calls, on every subset."""
    cases = [make_uniform(r, n) for n in range(1, 7) for r in range(1, n + 1)]
    cases += [make_boolean(6), make_partition(5)]
    cases.append(make_graphic([(0, 1), (0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]))
    for m in cases:
        generic = Matroid(m.n, m._rank_fn)
        for s in range(1 << m.n):
            assert m.closure(s) == generic.closure(s), (m.n, s)


def test_lattice_of_flats_covers_equal_a_rescan():
    """The covers the BFS records are, list for list, those the validating
    constructor's rescan finds on the same flats and ranks: on every host
    lattice of corpus() and its rank-only copy, which closes by rank calls,
    on Π8, U(5,11) and B8, on a `rank-table` spec, and on the augmented
    lattices of U(3,5) and Π5."""
    from chowpoly.cli import parse_matroid
    from chowpoly.families import augmented_built_matroid

    hosts = _corpus_hosts()
    hosts += [Matroid(m.n, m._rank_fn) for m in hosts]
    hosts += [make_partition(8), make_uniform(5, 11), make_boolean(8)]
    ranks = [min(2, popcount(s)) for s in range(16)]
    hosts.append(parse_matroid({"type": "rank-table", "n": 4, "ranks": ranks}))
    lattices = [lattice_of_flats(m) for m in hosts]
    lattices += [
        augmented_built_matroid(m).lat for m in (make_uniform(3, 5), make_partition(5))
    ]
    for lat in lattices:
        fresh = GeomLattice(lat.n, zip(lat.flats, lat.ranks))
        assert (lat.flats, lat.ranks) == (fresh.flats, fresh.ranks)
        assert lat.covers_up == fresh.covers_up
        assert lat.atom_of_elem == fresh.atom_of_elem


def test_lattice_of_flats_idx_is_the_index_of_each_flat():
    """The BFS dict that `lattice_of_flats` hands over as idx maps each flat
    to its index, and nothing else: on every host lattice of corpus() and
    on Π8."""
    for m in _corpus_hosts() + [make_partition(8)]:
        lat = lattice_of_flats(m)
        assert lat.idx == {f: i for i, f in enumerate(lat.flats)}


def _closure_loop(m):
    """m with its cover oracle dropped, so `covers` takes the default loop
    of one closure per cover."""
    return Matroid(m.n, m._rank_fn, m._closure_fn)


def test_graphic_covers_match_the_closure_loop_on_pi7():
    """On every flat of Π7, and of a small multigraph with parallel edges."""
    for m in (
        make_partition(7),
        make_graphic([(0, 1), (0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]),
    ):
        plain = _closure_loop(m)
        for f in lattice_of_flats(plain).flats:
            assert m.covers(f) == plain.covers(f), f


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=9,
    )
)
@settings(max_examples=60, deadline=None)
def test_graphic_covers_match_the_closure_loop_on_multigraphs(edges):
    """Five vertices and up to nine edges: most draws have parallel edges."""
    m = make_graphic(edges)
    plain = _closure_loop(m)
    for f in lattice_of_flats(plain).flats:
        assert m.covers(f) == plain.covers(f), f


def test_no_matroid_is_rescanned(monkeypatch):
    """`lattice_of_flats` keeps the covers of its BFS on every matroid, a
    `rank-table` one, which closes by rank calls, included; only a lattice
    built from a list of flats takes the rescan."""
    from chowpoly.cli import parse_matroid

    calls = [0]
    build_covers = GeomLattice._build_covers

    def counting(self):
        calls[0] += 1
        return build_covers(self)

    monkeypatch.setattr(GeomLattice, "_build_covers", counting)
    for m in _corpus_hosts() + [make_partition(7)]:
        lattice_of_flats(m)
    ranks = [min(2, popcount(s)) for s in range(16)]
    lat = lattice_of_flats(parse_matroid({"type": "rank-table", "n": 4, "ranks": ranks}))
    assert calls == [0]
    GeomLattice(lat.n, zip(lat.flats, lat.ranks))
    assert calls == [1]


# Faulty oracles on three elements, each with the error the BFS raises:
# two covers that overlap beyond F, an element in no cover, a flat met at
# two ranks, and a cover that is F itself.  A "covers" table maps a flat to
# its covers; a "closure" table maps a set to its closure, and a set not in
# it closes to itself.
_BAD_ORACLES = [
    ("covers", {0: [0b011, 0b110]}, "element 1 above flat 0 in two covers"),
    ("covers", {0: [0b001, 0b010]}, "no cover of flat 0 through element 2"),
    (
        "covers",
        {0: [1, 6], 1: [3, 5], 3: [7], 5: [7], 6: [7], 7: []},
        "flat 111 met at ranks 2 and 3",
    ),
    ("closure", {1: 0b011, 4: 0b110}, "element 1 above flat 0 in two covers"),
    ("closure", {1: 0b010}, "no cover of flat 0 through element 0"),
    ("closure", {2: 0b110}, "flat 111 met at ranks 2 and 3"),
    ("covers", {0: [0]}, "cover 0 of flat 0 is no proper superset"),
]


def bad_matroid(kind, table):
    """A Matroid on three elements whose cover or closure oracle is the
    table of an `_BAD_ORACLES` row."""
    if kind == "covers":
        return Matroid(3, popcount, covers_fn=table.__getitem__)
    return Matroid(3, popcount, closure_fn=lambda s: table.get(s, s))


@pytest.mark.parametrize("kind,table,message", _BAD_ORACLES)
def test_faulty_oracles_raise_with_a_witness(kind, table, message):
    with pytest.raises(InvalidMatroid) as info:
        lattice_of_flats(bad_matroid(kind, table))
    assert info.value.args == (message,)


def test_faulty_oracles_raise_under_optimize():
    code = (
        "from chowpoly.errors import InvalidMatroid\n"
        "from chowpoly.lattice import Matroid, lattice_of_flats, popcount\n"
        + inspect.getsource(bad_matroid)
        + f"for kind, table, _ in {_BAD_ORACLES!r}:\n"
        "    try:\n"
        "        lattice_of_flats(bad_matroid(kind, table))\n"
        "    except InvalidMatroid as e:\n"
        "        print(e.args[0])\n"
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
    assert proc.stdout.splitlines() == [message for _, _, message in _BAD_ORACLES]
