"""Chow polynomials by four independent routes, the FY monomial basis, the
descent formula, and the ψ-fiber decomposition."""

import os
import subprocess
import sys
from collections import Counter
from itertools import combinations

import pytest

import oracles
from helpers import (
    UNIVERSE_HOSTS,
    b4_flag_built,
    filtration_sets,
    mask_of,
    set_of,
    traced_peak,
    universe,
)

from chowpoly.building import BuiltMatroid, extend, is_complete
from chowpoly.nested import maximal_nested_sets, stable_maximal_nested_sets
from chowpoly.chow import (
    _pack_width,
    _ray_pairs,
    _toric_dims,
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
from chowpoly.errors import BadParameters, NotComplete, TooLarge
from chowpoly.families import (
    augmented_built_matroid,
    built_from_matroid,
    chordal_building_sets,
    make_boolean,
    make_graphic,
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


@pytest.mark.parametrize("name", ["Pi6min", "B5max"])
def test_deletion_takes_no_closure_and_no_factors(name, monkeypatch):
    """The deletion recursion reads coloops off `is_flat` and n_F off the
    restriction it builds anyway: no closure, no G-factor lookup.  Every
    lattice it builds takes its covers from its parent: no rescan."""
    import chowpoly.chow as chow
    from chowpoly.lattice import GeomLattice

    if name == "Pi6min":
        bm = built_from_matroid(make_partition(6), "min")
    else:
        bm = built_from_matroid(make_boolean(5), "max")
    want = chow_polynomial(bm)
    calls = {"closure": 0, "factors": 0, "_build_covers": 0}

    def counting(cls, attr):
        method = getattr(cls, attr)

        def wrapper(self, *args):
            calls[attr] += 1
            return method(self, *args)

        monkeypatch.setattr(cls, attr, wrapper)

    counting(GeomLattice, "closure")
    counting(BuiltMatroid, "factors")
    counting(GeomLattice, "_build_covers")
    monkeypatch.setattr(chow, "_DELETION_MEMO", {})
    assert chow_by_deletion(bm) == want
    assert len(chow._DELETION_MEMO) > 1
    assert calls == {"closure": 0, "factors": 0, "_build_covers": 0}


def _deletion_cases():
    """U(4,7)|max, every corpus() instance and Π6|min, each in its own order
    and in the reversed one.  Run in turn on an empty memo, U(4,7)|max and
    ten of the corpus runs build an interval whose key misses it (12 in
    all): the loop down the deletion chain adds a minor's terms before
    the minors below it are in the memo."""
    from chowpoly.corpus import corpus

    cases = [built_from_matroid(make_uniform(4, 7), "max")]
    cases += [inst.built for inst in corpus()]
    cases.append(built_from_matroid(make_partition(6), "min"))
    for bm in cases:
        yield bm
        yield BuiltMatroid(bm.lat, bm.bset, bm.order[::-1], validate=False)


def _deletion_cases_and_pi7():
    """`_deletion_cases`, then Π7|min in its own order and the reversed
    one."""
    yield from _deletion_cases()
    bm = built_from_matroid(make_partition(7), "min")
    yield bm
    yield BuiltMatroid(bm.lat, bm.bset, bm.order[::-1], validate=False)


def test_deletion_memo_key_matches_reference():
    """`BuiltMatroid.key`, the deletion memo key, is the tuple of the
    bit-by-bit relabeling, on every instance of `_deletion_cases`, and a
    relabeled copy has the identity order and the same key."""
    orders = {"identity": 0, "other": 0}
    for bm in _deletion_cases():
        want = oracles.built_key_ref(bm)
        assert bm.key() == want, bm.order
        copy = bm.relabeled()
        assert copy.order == tuple(range(bm.n))
        assert copy.key() == want
        identity = bm.order == tuple(range(bm.n))
        orders["identity" if identity else "other"] += 1
    assert orders["identity"] > 0 and orders["other"] > 0, orders


def test_deletion_memo_matches_reference_recursion(monkeypatch):
    """The route, which relabels once at entry, looks intervals up before
    it builds them and runs each deletion chain on one lattice, returns
    the H of the recursion in the given order
    (`oracles.chow_by_deletion_ref`) and leaves the same memo, keys and
    values, after every instance of `_deletion_cases` and Π7|min in both
    orders."""
    import chowpoly.chow as chow

    monkeypatch.setattr(chow, "_DELETION_MEMO", {})
    ref_memo = {}
    for bm in _deletion_cases_and_pi7():
        assert chow_by_deletion(bm) == oracles.chow_by_deletion_ref(bm, ref_memo)
        assert chow._DELETION_MEMO == ref_memo, bm.order
    assert len(ref_memo) > 100


def test_deletion_builds_only_the_intervals_it_misses(monkeypatch):
    """Every key read off a climb is `oracles.built_key_ref` of the interval
    built from it; no interval of rank 1 is climbed; and the intervals
    built are exactly those whose key missed the memo, each then computed
    under that key."""
    import chowpoly.chow as chow
    from chowpoly.building import _interval_build

    climb, build, deletion = chow._interval_climb, chow._interval_build, chow._deletion
    counts = {"climbs": 0, "misses": 0, "built": 0, "built_computed": 0}
    built = {}  # id -> the interval, kept alive so that no id is reused

    def checked_climb(lat, rows, bottom, top):
        assert lat.ranks[lat.idx[top]] - lat.ranks[lat.idx[bottom]] >= 2
        c = climb(lat, rows, bottom, top)
        minor = _interval_build(lat, tuple(range(lat.n)), c)[0]
        key = chow._climb_key(c)
        assert key == oracles.built_key_ref(minor)
        counts["climbs"] += 1
        counts["misses"] += key not in chow._DELETION_MEMO
        return c

    def counted_build(*args):
        out = build(*args)
        counts["built"] += 1
        built[id(out[0])] = out[0]
        return out

    def watched_deletion(bm, key):
        if id(bm) in built:
            assert key not in chow._DELETION_MEMO
            counts["built_computed"] += 1
        return deletion(bm, key)

    monkeypatch.setattr(chow, "_interval_climb", checked_climb)
    monkeypatch.setattr(chow, "_interval_build", counted_build)
    monkeypatch.setattr(chow, "_deletion", watched_deletion)
    monkeypatch.setattr(chow, "_DELETION_MEMO", {})
    for bm in _deletion_cases():
        chow_by_deletion(bm)
    assert counts["built"] == counts["misses"] == counts["built_computed"]
    assert 0 < counts["misses"] < counts["climbs"], counts


def test_deletion_builds_no_lattice_per_minor(monkeypatch):
    """Over `_deletion_cases` and Π7|min from an empty memo, the route
    takes no `delete_lattice`: each deletion chain runs on the lattice of
    its first minor.  The only lattices it makes are those of the
    intervals whose key misses the memo and of the relabeled copies, one
    `GeomLattice._derived` each."""
    import chowpoly.building as building
    import chowpoly.chow as chow
    import chowpoly.lattice as lattice
    from chowpoly.lattice import GeomLattice

    cases = list(_deletion_cases_and_pi7())  # their lattices are not counted
    counts = Counter()
    derived, delete = GeomLattice._derived, lattice.delete_lattice
    climb, relabeled = chow._interval_climb, BuiltMatroid.relabeled

    def counted_derived(cls, *args):
        counts["derived"] += 1
        return derived.__func__(cls, *args)

    def counted_delete(*args):
        counts["delete_lattice"] += 1
        return delete(*args)

    def counted_climb(*args):
        c = climb(*args)
        counts["misses"] += chow._climb_key(c) not in chow._DELETION_MEMO
        return c

    def counted_relabeled(self):
        counts["relabels"] += 1
        return relabeled(self)

    monkeypatch.setattr(GeomLattice, "_derived", classmethod(counted_derived))
    monkeypatch.setattr(lattice, "delete_lattice", counted_delete)
    monkeypatch.setattr(building, "delete_lattice", counted_delete)
    monkeypatch.setattr(chow, "_interval_climb", counted_climb)
    monkeypatch.setattr(BuiltMatroid, "relabeled", counted_relabeled)
    monkeypatch.setattr(chow, "_DELETION_MEMO", {})
    for bm in cases:
        assert chow_by_deletion(bm) == chow_polynomial(bm)
    assert counts["delete_lattice"] == 0
    assert counts["derived"] == counts["misses"] + counts["relabels"], counts
    assert counts["misses"] > 0 and counts["relabels"] > 0, counts


def test_live_minors_equal_repeated_deletion():
    """Every minor of a deletion chain is read off the lattice of its first
    minor (`chow._minors`).  On every corpus() instance relabeled to the
    identity order, at every k, the live traces and their ranks are the
    flats and ranks of the minor that n − k deletions of the last element
    leave (`delete_element`), the live covers of each live flat are its
    covers there, list for list, every climb of the route's kinds, [0, F]
    and [F, 1̂] for each member F, meets the same flats with the same local
    masks and induced set, and the building set is that minor's.  The
    key is that minor's `key()`, and the traces of the root's G-factor
    row of each live flat are the G-factors of its trace there."""
    from chowpoly.building import _interval_climb, delete_element
    from chowpoly.chow import _minors
    from chowpoly.corpus import corpus
    from chowpoly.lattice import LiveLattice

    def climbed(lat, climb):
        n, label, local, reached, local_bset, _ = climb
        return n, label, {lat.flats[i]: local[i] for i in reached}, local_bset

    minors = 0
    for inst in corpus():
        bm = inst.built
        if bm.n == 1:
            continue  # `chow_by_deletion` answers [1] with no chain
        if bm.order != tuple(range(bm.n)):
            bm = bm.relabeled()
        minor = bm
        rows = bm.factor_table()
        for key, idx, bset in _minors(bm, bm.key()):
            lat = LiveLattice(bm.lat, idx, key[0]) if minor is not bm else bm.lat
            want = minor.lat
            assert key == minor.key(), inst.name
            assert lat.n == want.n and lat.full == want.full
            live = sorted((lat.ranks[i], t) for t, i in lat.idx.items())
            assert live == list(zip(want.ranks, want.flats)), inst.name
            for t, i in lat.idx.items():
                assert lat.flats[i] == t
                ups = [lat.flats[j] for j in lat.covers_up[i]]
                ups = sorted(u for u in ups if u != -1)  # -1: not live
                assert ups == sorted(want.covers(t)), (inst.name, t)
                traced = sorted(x & lat.full for x in rows[i])
                assert traced == sorted(minor.factors(t)), (inst.name, t)
            assert bset == minor.bset, inst.name
            for f in [0, *sorted(bset)]:
                for bottom, top in ((0, f), (f, lat.full)):
                    if bottom != top:
                        got = _interval_climb(lat, rows, bottom, top)
                        ref = _interval_climb(want, minor.factor_table(), bottom, top)
                        assert climbed(lat, got) == climbed(want, ref)
            minor = delete_element(minor, minor.n - 1)
            minors += 1
        assert minor.n == 1, inst.name
    assert minors > 500, minors


def test_deletion_takes_no_join(monkeypatch):
    """Over `_deletion_cases` and Π7|min in both orders from an empty memo,
    the route makes no join and no climb to a join or a closure
    (`GeomLattice.join`, `GeomLattice._climb`): each climb reads its
    induced set off the G-factor rows carried down the chain."""
    import chowpoly.chow as chow
    from chowpoly.lattice import GeomLattice

    cases = list(_deletion_cases_and_pi7())
    wants = [chow_polynomial(bm) for bm in cases]
    calls = Counter()
    join, climb = GeomLattice.join, GeomLattice._climb

    def counted_join(self, f, g):
        calls["join"] += 1
        return join(self, f, g)

    def counted_climb(self, i, mask):
        calls["_climb"] += 1
        return climb(self, i, mask)

    monkeypatch.setattr(GeomLattice, "join", counted_join)
    monkeypatch.setattr(GeomLattice, "_climb", counted_climb)
    monkeypatch.setattr(chow, "_DELETION_MEMO", {})
    for bm, want in zip(cases, wants):
        assert chow_by_deletion(bm) == want
    assert calls == {}, calls


def test_induced_sets_by_rows_equal_joins(monkeypatch):
    """Every climb that the deletion route makes over `_deletion_cases`
    and Π7|min in both orders, and that the filtration walk makes over
    corpus(), reads from its G-factor rows the induced set that joins give
    (`oracles.induced_set_by_joins_ref`).  The set is taken apart from the
    rows: on a minor of a deletion chain it is the traces of the live
    members of the chain's first building set, and on a walk step G_min
    with the flats added so far."""
    import chowpoly.chow as chow
    from chowpoly.building import g_min
    from chowpoly.corpus import corpus
    from chowpoly.errors import MixedFactorStep, NoBinaryFiltration

    chains = {}  # id of a chain's covers_up -> (its first lattice, its set)
    deletion, climb = chow._deletion, chow._interval_climb
    counts = Counter()

    def recorded_deletion(bm, key):
        chains[id(bm.lat.covers_up)] = (bm.lat, bm.bset)
        return deletion(bm, key)

    def checked_climb(lat, rows, bottom, top):
        c = climb(lat, rows, bottom, top)
        if isinstance(rows, chow._GrownRows):
            bset = g_min(lat) | set(rows.added)
            counts["filtration"] += 1
        else:
            root, root_bset = chains[id(lat.covers_up)]
            bset = {lat.flats[root.idx[g]] for g in root_bset} - {-1}
            counts["deletion"] += 1
        want = oracles.induced_set_by_joins_ref(lat, bset, bottom, top, c[2])
        assert c[4] == want, (bottom, top)
        return c

    monkeypatch.setattr(chow, "_deletion", recorded_deletion)
    monkeypatch.setattr(chow, "_interval_climb", checked_climb)
    monkeypatch.setattr(chow, "_DELETION_MEMO", {})
    for bm in _deletion_cases_and_pi7():
        chow_by_deletion(bm)
    for inst in corpus():
        try:
            chow_by_filtration(inst.built)
        except (NoBinaryFiltration, MixedFactorStep):
            pass
    assert counts["deletion"] > 1000 and counts["filtration"] == 108, counts


def test_built_intervals_carry_their_factor_tables(monkeypatch):
    """Every interval that the deletion route and the filtration walk
    build, every relabeled copy, every simplified copy, and every
    restriction and contraction of a corpus() instance holds its G-factor
    table from the build, and that table is, row by row as sets, a fresh
    `_g_factor_table` of its own lattice and set.  No reader of a row
    depends on the order of its entries."""
    import chowpoly.chow as chow
    from chowpoly.building import contract, g_max, g_min, restrict, simplify_built
    from chowpoly.corpus import corpus
    from chowpoly.errors import MixedFactorStep, NoBinaryFiltration
    from chowpoly.lattice import _g_factor_table

    seen = Counter()
    results = []
    build, relabeled = chow._interval_build, BuiltMatroid.relabeled

    def kept_build(*args):
        out = build(*args)
        results.append(out[0])
        seen["built"] += 1
        return out

    def kept_relabeled(self):
        out = relabeled(self)
        results.append(out)
        seen["relabeled"] += 1
        return out

    monkeypatch.setattr(chow, "_interval_build", kept_build)
    monkeypatch.setattr(BuiltMatroid, "relabeled", kept_relabeled)
    monkeypatch.setattr(chow, "_DELETION_MEMO", {})
    for bm in _deletion_cases_and_pi7():
        chow_by_deletion(bm)
    for inst in corpus():
        try:
            chow_by_filtration(inst.built)
        except (NoBinaryFiltration, MixedFactorStep):
            pass
        for f in inst.built.lat.flats[1:]:
            results += [restrict(inst.built, f), contract(inst.built, f)]
    for edges in (
        [(0, 1), (0, 1), (1, 2)],
        [(0, 1), (1, 2), (0, 2), (0, 2), (2, 3), (2, 3), (1, 3)],
        [(0, 1), (0, 1), (0, 1), (1, 2), (1, 2), (0, 2)],
    ):
        lat = lattice_of_flats(make_graphic(edges))
        for bset in (g_min(lat), g_max(lat)):
            for order in (tuple(range(lat.n)), tuple(reversed(range(lat.n)))):
                results.append(simplify_built(lat, bset, order)[0])
                seen["simplified"] += 1
    for bm in results:
        assert "tops" in bm._nested_cache
        got = [set(row) for row in bm.factor_table()]
        assert got == [set(row) for row in _g_factor_table(bm.lat, bm.bset)]
    assert seen["built"] > 20 and seen["relabeled"] > 100, seen
    assert seen["simplified"] == 12


def test_deletion_peak_memory_stays_near_its_memo(monkeypatch):
    """On Π8|min from an empty memo, the traced peak of the deletion route
    is at most 1.5 times what stays live after it, the memo: the route
    walks each deletion chain as a loop on the lattice of its first minor,
    and keeps no lattice per minor, only the current minor's map from
    trace to live flat, edited in place and copied once it has lost a
    quarter of its keys (1.01 MB against 0.72 MB on Python 3.11; the memo's
    keys share their ints with the lattice).  The map rebuilt at every
    step peaked at 1.71 MB against 1.61 MB, the loop that built a lattice
    per minor at 1.6 times (2.61 MB), and the recursion that held every
    minor of the chain at once at 6.8 times (10.8 MB)."""
    import chowpoly.chow as chow

    bm = built_from_matroid(make_partition(8), "min")
    want = chow_polynomial(bm)
    monkeypatch.setattr(chow, "_DELETION_MEMO", {})
    live, peak = traced_peak(lambda: chow_by_deletion(bm))
    assert chow_by_deletion(bm) == want
    assert len(chow._DELETION_MEMO) == 47
    assert peak <= 1.5 * live, (peak, live)


def test_filtration_validates_its_base_in_one_table_pass(monkeypatch):
    """A walk with no step, Π6|min, validates its base, G_min, with the
    lattice's factor table, and the flag pass and FY read the tables
    validation returned: no table pass, where validating the set again
    took one."""
    import chowpoly.building as building

    bm = built_from_matroid(make_partition(6), "min")
    want = chow_polynomial(bm)
    calls = 0
    table = building._g_factor_table

    def counting_table(lat, s):
        nonlocal calls
        calls += 1
        return table(lat, s)

    monkeypatch.setattr(building, "_g_factor_table", counting_table)
    assert chow_by_filtration(bm) == want
    assert calls == 0


def test_filtration_walk_builds_no_built_matroid_per_step(monkeypatch):
    """The walk carries the maximal elements of its set: on B6|max it
    builds one built matroid per `_interval_build` call and one as its
    base, and none per step.  It builds one link per distinct climb key it
    meets, fewer than the links of rank 3 or more that it climbs."""
    import chowpoly.chow as chow
    from chowpoly.building import binary_filtration, g_min

    bm = built_from_matroid(make_boolean(6), "max")
    want = chow_polynomial(bm)
    steps = len(binary_filtration(bm, g_min(bm.lat)).added)
    calls = {"BuiltMatroid": 0, "_interval_build": 0, "climbs": 0}
    climb_keys = set()
    init = BuiltMatroid.__init__
    climb, build = chow._interval_climb, chow._interval_build

    def counting_init(self, *args, **kwargs):
        calls["BuiltMatroid"] += 1
        init(self, *args, **kwargs)

    def watched_climb(*args):
        c = climb(*args)
        climb_keys.add(chow._climb_key(c))
        calls["climbs"] += 1
        return c

    def counting_build(*args):
        calls["_interval_build"] += 1
        return build(*args)

    monkeypatch.setattr(BuiltMatroid, "__init__", counting_init)
    monkeypatch.setattr(chow, "_interval_climb", watched_climb)
    monkeypatch.setattr(chow, "_interval_build", counting_build)
    assert chow_by_filtration(bm) == want
    assert steps and calls["BuiltMatroid"] == calls["_interval_build"] + 1
    assert calls["_interval_build"] == len(climb_keys) < calls["climbs"], calls


# A chordal building set on B5 whose walk stars one interval [J^g, g] with
# two different induced sets, so J^g and g alone do not fix a link.
_B5_TWO_LINKS_ON_ONE_INTERVAL = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 14, 15, 16, 19, 21, 23, 24, 25, 27, 29, 30, 31
]


def _walk_case(name):
    if name == "B6max":
        return built_from_matroid(make_boolean(6), "max")
    if name == "U47max":
        return built_from_matroid(make_uniform(4, 7), "max")
    lat = lattice_of_flats(make_boolean(5))
    return BuiltMatroid(lat, _B5_TWO_LINKS_ON_ONE_INTERVAL)


def _starred_links(bm):
    """(current set, J^g, g) for every link the filtration walk stars, step
    by step: the bounds of the nested set a ∪ max G of the step's current
    set, J^g by the join loop of `oracles._jbottom`.  Stops at a step with
    mixed factors, where the walk raises; raises what `binary_filtration`
    raises."""
    from chowpoly.building import binary_filtration, g_min

    lat = bm.lat
    links = []
    filt = binary_filtration(bm, g_min(lat))
    for prev_bset, a in zip(filtration_sets(filt), filt.factors):
        prev = BuiltMatroid(lat, prev_bset, bm.order, validate=False)
        in_max = [f in prev.maxg for f in a]
        if all(in_max):
            continue
        if any(in_max):
            break
        shat = oracles._shat(prev, a)
        links += [(prev_bset, oracles._jbottom(prev, shat, g), g) for g in shat]
    return links


@pytest.mark.parametrize("name", ["B6max", "U47max", "B5chordal"])
def test_filtration_builds_each_link_once(name, monkeypatch):
    """No link of rank 1 or 2 is climbed or built.  A local interval
    [J^g, g] of rank 3 or more with its induced set is climbed once per
    step that stars it, and built and counted once per call for each
    climb key, however many steps and links share that key; no lattice it
    builds is rescanned for covers."""
    import chowpoly.chow as chow
    from chowpoly.lattice import GeomLattice

    bm = _walk_case(name)
    lat = bm.lat
    links = _starred_links(bm)
    keys = set()
    big = Counter()  # (J^g, g) of a starred link of rank >= 3 -> its stars
    for prev_bset, j, g in links:
        induced = frozenset(
            lat.join(j, h) for h in prev_bset if h & ~g == 0 and h & ~j
        )
        keys.add((j, g, induced))
        if lat.rank_of(g) - lat.rank_of(j) >= 3:
            big[j, g] += 1
    assert len(keys) < len(links)
    if name == "B5chordal":
        assert len({(j, g) for j, g, _ in keys}) < len(keys)

    want = chow_polynomial(bm)
    calls = {"_interval_build": 0, "_build_covers": 0}
    climb_keys = {}  # climb key -> the bounds (J^g, g) it was met on
    climbed = Counter()  # bounds (J^g, g) -> climbs on them
    climb, build = chow._interval_climb, chow._interval_build
    build_covers = GeomLattice._build_covers

    def watched_climb(lat, rows, bottom, top):
        c = climb(lat, rows, bottom, top)
        climb_keys.setdefault(chow._climb_key(c), set()).add((bottom, top))
        climbed[bottom, top] += 1
        return c

    def counting_build(*args):
        calls["_interval_build"] += 1
        return build(*args)

    def counting_covers(self):
        calls["_build_covers"] += 1
        return build_covers(self)

    monkeypatch.setattr(chow, "_interval_climb", watched_climb)
    monkeypatch.setattr(chow, "_interval_build", counting_build)
    monkeypatch.setattr(GeomLattice, "_build_covers", counting_covers)
    assert chow_by_filtration(bm) == want
    assert climbed == big
    assert calls == {"_interval_build": len(climb_keys), "_build_covers": 0}
    # on U(4,7)|max every starred link has rank 1 or 2: nothing is climbed
    assert len(climb_keys) <= sum(big.values())
    assert (not big) == (name == "U47max")
    if name == "B5chordal":
        # the two induced sets on one [J^g, g] get two climb keys
        per_bounds = Counter(jg for bounds in climb_keys.values() for jg in bounds)
        assert max(per_bounds.values()) >= 2


def test_filtration_links_below_rank_3_in_closed_form(monkeypatch):
    """The top of every link the walk stars lies in the link's induced
    set, and a link of rank 1 or 2 has series 1 or 1 + t, the closed form
    the walk counts it by: checked on every link starred over corpus(),
    B6|max, U(4,7)|max and the B5 chordal set.  Over corpus() the walk
    climbs just the 108 starred links of rank 3 or more, of 2,676
    starred, and builds at most 18 links."""
    import chowpoly.chow as chow
    from chowpoly.building import _interval_build, _interval_climb
    from chowpoly.corpus import corpus
    from chowpoly.errors import MixedFactorStep, NoBinaryFiltration, NotFlag
    from chowpoly.lattice import _g_factor_table

    corpus_cases = [inst.built for inst in corpus()]
    cases = corpus_cases + [_walk_case(n) for n in ("B6max", "U47max", "B5chordal")]
    starred = Counter()  # over corpus(): "all" and "big" (rank >= 3) links
    for k, bm in enumerate(cases):
        try:
            links = _starred_links(bm)
        except NotFlag:
            continue
        lat = bm.lat
        for prev_bset, j, g in links:
            rows = _g_factor_table(lat, frozenset(prev_bset))
            climb = _interval_climb(lat, rows, j, g)
            assert (1 << climb[0]) - 1 in climb[4], (j, g)
            gap = lat.rank_of(g) - lat.rank_of(j)
            if gap <= 2:
                link = _interval_build(lat, bm.order, climb)[0]
                assert chow_polynomial(link) == [1] * gap, (j, g)
            if k < len(corpus_cases):
                starred["all"] += 1
                starred["big"] += gap >= 3

    calls = Counter()
    climb, build = chow._interval_climb, chow._interval_build

    def counting_climb(*args):
        calls["climb"] += 1
        return climb(*args)

    def counting_build(*args):
        calls["build"] += 1
        return build(*args)

    monkeypatch.setattr(chow, "_interval_climb", counting_climb)
    monkeypatch.setattr(chow, "_interval_build", counting_build)
    for bm in corpus_cases:
        try:
            chow_by_filtration(bm)
        except (NoBinaryFiltration, MixedFactorStep):
            pass
    assert starred == {"all": 2676, "big": 108}
    assert calls["climb"] == starred["big"]
    assert calls["build"] <= 18


def test_filtration_refusal_keeps_its_witness():
    """Off a flag set the walk's refusal carries the non-face that
    `flag_nonface_witness` found, not its string: U(3,4)|min."""
    from chowpoly.building import flag_nonface_witness
    from chowpoly.errors import NoBinaryFiltration

    bm = built_from_matroid(make_uniform(3, 4), "min")
    witness = flag_nonface_witness(bm)
    assert witness == [1, 2, 4]
    for walk in (chow_by_filtration, oracles.chow_by_filtration_ref):
        with pytest.raises(NoBinaryFiltration) as info:
            walk(bm)
        assert info.value.args == (witness,)


def test_filtration_matches_reference_walk():
    """The walk keyed by climb returns the trace of the walk keyed by
    (J^g, g, inducing members) (`oracles.chow_by_filtration_ref`) on every
    corpus() instance the route answers, on B6|max, U(4,7)|max and the B5
    chordal set, and raises the same error type where that one does."""
    from chowpoly.corpus import corpus
    from chowpoly.errors import MixedFactorStep, NoBinaryFiltration

    cases = [(inst.name, inst.built) for inst in corpus()]
    cases += [
        ("B6max", built_from_matroid(make_boolean(6), "max")),
        ("U47max", built_from_matroid(make_uniform(4, 7), "max")),
        ("B5chordal", BuiltMatroid(
            lattice_of_flats(make_boolean(5)), _B5_TWO_LINKS_ON_ONE_INTERVAL
        )),
    ]
    answered = 0
    for name, bm in cases:
        try:
            want = oracles.chow_by_filtration_ref(bm, trace=True)
        except (NoBinaryFiltration, MixedFactorStep) as exc:
            with pytest.raises(type(exc)):
                chow_by_filtration(bm, trace=True)
            continue
        assert chow_by_filtration(bm, trace=True) == want, name
        answered += 1
    assert answered > len(cases) // 2


def test_add_row_ranks_random_integer_matrices():
    """`chow._add_row` keeps as many pivots as the Fraction rank, on
    seeded matrices with entries in -3..3, whose pivots lead with 1 (the
    in-place update) and with 2 or 3 (the fraction-free one)."""
    import random

    from chowpoly.chow import _add_row

    rng = random.Random(15)
    leads = set()
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_rows)]
        pivots = {}
        for r in rows:
            _add_row(pivots, {k: v for k, v in enumerate(r) if v})
        assert len(pivots) == oracles.fraction_rank(rows), rows
        for lead, piv in pivots.items():
            assert lead == max(piv) and piv[lead] > 0
            leads.add(piv[lead])
    assert 1 in leads and leads - {1}


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
        assert chow_polynomial(bm) == oracles.fy_support_count(bm), name


def test_packed_fy_matches_the_list_recursion():
    """The FY recursion on integers at t = 2^W equals the same recursion on
    coefficient lists, and every coefficient of H lies below 2^W, so the
    packing never carries."""
    from chowpoly.corpus import corpus

    cases = [(inst.name, inst.built) for inst in corpus()]
    cases += [
        (f"Pi{n}min", built_from_matroid(make_partition(n), "min"))
        for n in range(2, 9)
    ]
    cases += [
        ("B6max", built_from_matroid(make_boolean(6), "max")),
        ("B8max", built_from_matroid(make_boolean(8), "max")),
        ("U47max", built_from_matroid(make_uniform(4, 7), "max")),
        ("U511max", built_from_matroid(make_uniform(5, 11), "max")),
    ]
    for name, bm in cases:
        want = oracles.chow_polynomial_by_lists(bm)
        assert chow_polynomial(bm) == want, name
        assert max(want) < 1 << _pack_width(bm), name


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


def test_toric_oracle_matches_fraction_reference_on_corpus():
    from chowpoly.corpus import corpus

    for inst in corpus():
        try:
            want = oracles.toric_hilbert_oracle_ref(inst.built)
        except TooLarge as exc:
            with pytest.raises(TooLarge) as got:
                toric_hilbert_oracle(inst.built)
            assert got.value.args == exc.args, inst.name
        else:
            assert toric_hilbert_oracle(inst.built) == want, inst.name


def test_toric_oracle_places_rays_only_off_flag_sets(monkeypatch):
    """`_toric_dims` tests a new support against the nested-pair mask of
    its new ray, and that is the whole face test on a flag set: over the
    corpus the oracle places no ray (`nested._place`) on the 159 flag
    instances it answers.  On the 22 others it places each new ray of a
    support that passes the mask test on the support's roots, so the
    roots and the ray are pairwise nested; it makes no `is_nested` or
    `_forest` call."""
    from chowpoly import chow, nested
    from chowpoly.building import is_flag
    from chowpoly.corpus import corpus

    placed = []
    place = nested._place

    def counting_place(idx, table, roots, v):
        placed.append([*roots, v])
        return place(idx, table, roots, v)

    def refuse(*args):
        raise AssertionError("the oracle decides faces by placing rays")

    monkeypatch.setattr(chow, "_place", counting_place)
    monkeypatch.setattr(nested, "_forest", refuse)
    monkeypatch.setattr(nested, "is_nested", refuse)
    answered = Counter()
    calls = Counter()
    for inst in corpus():
        bm = inst.built
        placed.clear()
        try:
            toric_hilbert_oracle(bm)
        except TooLarge:
            assert not placed, inst.name
            continue
        flag = is_flag(bm)
        answered[flag] += 1
        calls[flag] += len(placed)
        for s in placed:
            pairs = combinations(s, 2)
            assert all(oracles.is_nested_ref(bm, p) for p in pairs), inst.name
    assert (answered[True], answered[False]) == (159, 22)
    assert (calls[True], calls[False]) == (0, 1292)


def test_ray_pair_masks_equal_the_antichain_scan():
    """The nested-pair masks of the toric oracle (`chow._ray_pairs`) hold
    exactly the pairs of rays that the antichain scan finds nested, on
    every corpus instance with at most 12 rays and on every building set
    of B4, U(3,5) and Π4, 786 of whose 1452 sets are not flag."""
    from chowpoly.building import is_flag
    from chowpoly.corpus import corpus

    sets = [inst.built for inst in corpus()]
    sets = [bm for bm in sets if len(bm.bset) - len(bm.maxg) <= 12]
    universes = [bm for host in UNIVERSE_HOSTS.values() for bm in universe(host)]
    assert len(universes) == 1452
    assert sum(not is_flag(bm) for bm in universes) == 786
    for bm in sets + universes:
        rays = sorted(bm.bset - set(bm.maxg))
        want = [
            sum(1 << k for k, h in enumerate(rays) if oracles.is_nested_ref(bm, [g, h]))
            for g in rays
        ]
        assert _ray_pairs(bm, rays) == want, sorted(bm.bset)


def test_toric_elimination_beyond_the_cutoff():
    for name, bm in [
        ("Pi5min", built_from_matroid(make_partition(5), "min")),
        ("U46max", built_from_matroid(make_uniform(4, 6), "max")),
    ]:
        with pytest.raises(TooLarge):
            toric_hilbert_oracle(bm)
        assert _toric_dims(bm) == chow_polynomial(bm), name


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
    """Incomplete input is refused; a reducible complete one answers: B3|min
    is three atoms, whose one facet is empty and whose fiber is 1."""
    reducible = built_from_matroid(make_boolean(3), "min")
    incomplete = built_from_matroid(make_uniform(3, 4), "min")
    assert incomplete.irreducible and not is_complete(incomplete)
    assert psi_fibers(reducible) == {frozenset(): [1]}
    assert psi_fiber_of(reducible, frozenset()) == ([()], [1])
    for fn in (psi_fibers, lambda bm: psi_fiber_of(bm, frozenset())):
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
        "    return 'none'\n"
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
    assert proc.stdout.split() == ["NotComplete", "none", "BadParameters"]


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
