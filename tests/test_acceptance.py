"""Acceptance suite: ten criteria, one test (and one pytest -v line) each.

Every assertion is exact integer equality.  Shared per-lattice modular-cut
enumerations are cached at module level because two criteria consume them.
"""

import time
from collections import Counter

import oracles

from chowpoly.building import (
    BuiltMatroid,
    contract,
    delete_element,
    extend,
    is_complete,
    is_flag,
    restrict,
    truncate,
)
from chowpoly.chow import (
    chow_by_deletion,
    chow_by_filtration,
    chow_polynomial,
    gamma_by_descents,
    gamma_by_descents_factored,
    psi_fiber_of,
    psi_fibers,
    toric_hilbert_oracle,
)
from chowpoly.corpus import corpus
from chowpoly.errors import (
    ChowpolyError,
    MixedFactorStep,
    NoBinaryFiltration,
    TooLarge,
)
from chowpoly.families import (
    built_from_matroid,
    chordal_building_sets,
    m0n_gamma,
    make_boolean,
    make_partition,
    make_uniform,
)
from chowpoly.lattice import (
    is_modular_pair,
    lattice_of_flats,
    validate_modular_cut,
)
from chowpoly.nested import (
    balanced_check,
    completion,
    descent_set,
    gamma_complex,
    gamma_fvector,
    maximal_nested_sets,
    stable_maximal_nested_sets,
)
from chowpoly.polynomials import (
    gamma_expansion,
    is_gamma_positive,
    is_real_rooted,
    kruskal_katona_check,
    padd,
)

B4_FLAG_BSET = frozenset({0b0001, 0b0010, 0b0100, 0b1000, 0b0011, 0b1100, 0b1111})


def _atom_free_cuts(lat):
    """All proper nonempty atom-free modular cuts of a lattice, as
    (minimal antichain, full cut) pairs.

    The minimal elements of a modular cut can never contain a modular pair:
    the pair's meet would have to join the cut yet sits strictly below two
    minimal elements and above none (a third minimal element below the meet
    would break the antichain).  So the search walks modular-pair-free
    antichains of rank >= 2 flats and validates each upward closure.
    """
    pool = sorted(
        (f for f in lat.flats if f and lat.rank_of(f) >= 2),
        key=lambda f: (lat.rank_of(f), f),
    )
    up_mask = {
        a: sum(1 << i for i, f in enumerate(lat.flats) if a & ~f == 0)
        for a in pool
    }
    nflat = len(lat.flats)
    out = []

    def go(start, chosen, um):
        if chosen:
            cut = frozenset(lat.flats[i] for i in range(nflat) if um >> i & 1)
            try:
                mc = validate_modular_cut(lat, cut)
            except ChowpolyError:
                mc = None
            if mc and mc.proper and mc.nonempty and mc.atom_free:
                out.append((frozenset(chosen), cut))
        for i in range(start, len(pool)):
            f = pool[i]
            if all(
                not (a & ~f == 0 or f & ~a == 0 or is_modular_pair(lat, a, f))
                for a in chosen
            ):
                go(i + 1, chosen + [f], um | up_mask[f])

    go(0, [], 0)
    return out


_CUT_CACHE = {}


def _cuts_for(bm):
    key = (bm.n, tuple(bm.lat.flats))
    if key not in _CUT_CACHE:
        _CUT_CACHE[key] = _atom_free_cuts(bm.lat)
    return [
        (mins, cut) for mins, cut in _CUT_CACHE[key] if mins <= bm.bset
    ]


def test_criterion_01_golden_values():
    budget = 1.0

    t = time.perf_counter()
    u33 = built_from_matroid(make_uniform(3, 3), "max")
    h, trace = chow_by_filtration(u33, trace=True)
    assert h == [1, 4, 1]
    assert [1, 1] in trace and [1, 2, 1] in trace
    assert time.perf_counter() - t < budget

    t = time.perf_counter()
    for n in range(3, 8):
        bm = built_from_matroid(make_uniform(n - 1, n), "min")
        assert chow_polynomial(bm) == [1] * (n - 1), n
    assert time.perf_counter() - t < budget

    t = time.perf_counter()
    b4 = BuiltMatroid(lattice_of_flats(make_boolean(4)), B4_FLAG_BSET)
    h = chow_polynomial(b4)
    assert h == [1, 3, 3, 1]
    assert gamma_expansion(h) == [1, 0]
    assert gamma_by_descents(b4) == [1, 1]
    assert gamma_by_descents(b4) != gamma_expansion(h)  # the reported mismatch
    assert not is_complete(b4)
    assert time.perf_counter() - t < budget

    t = time.perf_counter()
    facets = maximal_nested_sets(b4)
    assert len(facets) == 8
    stable = stable_maximal_nested_sets(b4)
    assert len(stable) == 2
    assert sorted(descent_set(b4, s).des for s in stable) == [0, 1]
    assert time.perf_counter() - t < budget

    t = time.perf_counter()
    b8 = built_from_matroid(make_boolean(8), "max")
    facet = frozenset({32, 96, 224, 228, 236, 252, 253})
    dd = descent_set(b8, facet)
    assert dd.descents == frozenset({224, 252}) and dd.stable
    mons, poly = psi_fiber_of(b8, facet)
    assert poly == [0, 0, 1, 3, 3, 1]  # t^2 (1+t)^3
    assert sorted(sum(a for _, a in m) for m in mons) == [2, 3, 3, 3, 4, 4, 4, 5]
    assert set(mons) == {
        ((224, 1), (252, 1)),
        ((224, 1), (252, 1), (255, 1)),
        ((224, 1), (252, 2)),
        ((224, 2), (252, 1)),
        ((224, 1), (252, 2), (255, 1)),
        ((224, 2), (252, 1), (255, 1)),
        ((224, 2), (252, 2)),
        ((224, 2), (252, 2), (255, 1)),
    }
    assert time.perf_counter() - t < budget

    t = time.perf_counter()
    b7 = built_from_matroid(make_boolean(7), "max")

    def in_gamma(d):
        d = frozenset(d)
        dd = descent_set(b7, completion(b7, d))
        return dd.stable and dd.descents == d

    assert in_gamma({96, 126})
    assert in_gamma({102, 126})
    assert in_gamma({96, 102})
    assert not in_gamma({96, 102, 126})
    assert time.perf_counter() - t < budget


def test_criterion_02_three_way_agreement():
    t = time.perf_counter()
    instances = corpus()
    assert len(instances) >= 200
    n_filt = n_toric = 0
    for inst in instances:
        bm = inst.built
        h = chow_polynomial(bm)
        assert chow_by_deletion(bm) == h, inst.name
        try:
            assert chow_by_filtration(bm) == h, inst.name
            n_filt += 1
        except (NoBinaryFiltration, MixedFactorStep):
            pass
        try:
            assert toric_hilbert_oracle(bm) == h, inst.name
            n_toric += 1
        except TooLarge:
            pass
    assert n_filt >= 150 and n_toric >= 150
    assert time.perf_counter() - t <= 600.0


def test_criterion_03_descent_formula_on_complete():
    for inst in corpus():
        bm = inst.built
        if not (bm.irreducible and is_complete(bm)):
            continue
        assert gamma_by_descents(bm) == gamma_expansion(
            chow_polynomial(bm)
        ), inst.name
    for n in (2, 3, 4, 5):
        lat = lattice_of_flats(make_boolean(n))
        for bset in chordal_building_sets(n):
            bm = BuiltMatroid(lat, bset, validate=False)
            gam = gamma_expansion(chow_polynomial(bm))
            if bm.irreducible:
                assert gamma_by_descents(bm) == gam, (n, sorted(bset))
            else:
                assert gamma_by_descents_factored(bm) == gam, (n, sorted(bset))
    for n in (2, 3, 4, 5):
        bm = built_from_matroid(make_partition(n), "min")
        assert is_complete(bm)
        assert gamma_by_descents(bm) == gamma_expansion(chow_polynomial(bm)), n


def test_criterion_04_gamma_complex_and_balance():
    for inst in corpus():
        bm = inst.built
        if is_complete(bm):
            f, reps = gamma_fvector(bm)
            assert all(r.downward_closed for r in reps), inst.name
            assert f == gamma_expansion(chow_polynomial(bm)), inst.name
        if inst.bset_kind == "max":
            rep = gamma_complex(bm)
            assert balanced_check(bm, rep.complex), inst.name


def test_criterion_05_gamma_positivity():
    checked = 0
    for inst in corpus():
        bm = inst.built
        if is_flag(bm) or is_complete(bm):
            assert is_gamma_positive(chow_polynomial(bm)), inst.name
            checked += 1
    assert checked >= 200


def test_criterion_06_real_rootedness_gmax():
    checked = 0
    for inst in corpus():
        if inst.bset_kind != "max" or inst.built.rank > 6:
            continue
        assert is_real_rooted(chow_polynomial(inst.built)), inst.name
        checked += 1
    assert checked >= 60


def test_criterion_07_extension_invariance():
    checked = 0
    for inst in corpus():
        bm = inst.built
        assert len(bm.lat.flats) <= 200
        h = chow_polynomial(bm)
        for mins, cut in _cuts_for(bm):
            ext = extend(bm, cut)
            assert chow_polynomial(ext) == h, (inst.name, sorted(mins))
            assert delete_element(ext, bm.n).key() == bm.key(), inst.name
            new_atom = ext.lat.closure(1 << bm.n)
            assert (
                contract(ext, new_atom).key() == truncate(bm, cut).key()
            ), inst.name
            checked += 1
    assert checked >= 2000


def test_criterion_08_psi_fibers():
    checked = 0
    for inst in corpus():
        bm = inst.built
        if not is_complete(bm):
            continue
        fibers = psi_fibers(bm)  # raises FiberMismatch on any bad fiber
        assert set(fibers) == {
            frozenset(s) for s in stable_maximal_nested_sets(bm)
        }, inst.name
        total = []
        for poly in fibers.values():
            total = padd(total, poly)
        assert total == chow_polynomial(bm), inst.name
        checked += 1
    assert checked >= 100


def test_criterion_09_m0n_tree_model():
    t = time.perf_counter()
    for n in range(2, 8):
        bm = built_from_matroid(make_partition(n), "min")
        gam = gamma_expansion(chow_polynomial(bm))
        des = gamma_by_descents(bm)
        tree = m0n_gamma(n)
        tree = tree + [0] * (len(gam) - len(tree))
        assert gam == des == tree, n
        assert kruskal_katona_check(gam), n
    pi7 = built_from_matroid(make_partition(7), "min")
    assert len(pi7.lat.flats) == 877
    assert len(oracles.binary_trees_by_insertion(7)) == 10395
    assert len(maximal_nested_sets(pi7)) == 10395
    assert time.perf_counter() - t <= 300.0


def test_criterion_10_stability_of_properties():
    for inst in corpus():
        bm = inst.built
        if is_complete(bm):
            for g in sorted(bm.bset):
                assert is_complete(restrict(bm, g)), (inst.name, g)
                assert is_complete(contract(bm, g)), (inst.name, g)
            if bm.n > 1:
                assert is_complete(delete_element(bm, bm.order[-1])), inst.name
            for mins, cut in _cuts_for(bm):
                assert is_complete(extend(bm, cut)), (inst.name, sorted(mins))
                assert is_complete(truncate(bm, cut)), (inst.name, sorted(mins))
        if is_flag(bm):
            for g in sorted(bm.bset):
                assert is_flag(restrict(bm, g)), (inst.name, g)
                assert is_flag(contract(bm, g)), (inst.name, g)
            if bm.n > 1:
                for e in range(bm.n):
                    assert is_flag(delete_element(bm, e)), (inst.name, e)
