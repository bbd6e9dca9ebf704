"""Nested sets, the nested complex, links/composition/completion, descents,
and the Γ-complex, cross-checked against brute-force oracles."""

import gc
import hashlib
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from itertools import combinations

import pytest

import oracles
from helpers import b4_flag_built, mask_of, masks_of, set_of, sets_of, traced_peak

from chowpoly.building import (
    BuiltMatroid,
    flag_nonface_witness,
    g_min,
    is_complete,
    restrict,
)
from chowpoly.chow import fy_monomials, psi_fiber_of
from chowpoly.errors import (
    BadParameters,
    NotComplete,
    NotIrreducible,
    NotMaximal,
    NotNestedLocal,
    NotUnique,
    RankNotOne,
)
from chowpoly.families import (
    built_from_matroid,
    make_boolean,
    make_partition,
    make_uniform,
)
from chowpoly.lattice import lattice_of_flats
from chowpoly.nested import (
    SimplicialComplex,
    balanced_check,
    complex_stats,
    completion,
    compose,
    descent_set,
    gamma_complex,
    gamma_fvector,
    is_nested,
    lambda_label,
    link_decomposition,
    maximal_nested_sets,
    nested_complex,
    nested_subsets,
    new_factor,
    stable_descent_sets,
    stable_maximal_nested_sets,
)


def _cases():
    return [
        ("B3max", built_from_matroid(make_boolean(3), "max")),
        ("B3min", built_from_matroid(make_boolean(3), "min")),
        ("B4flag", b4_flag_built()),
        ("U24min", built_from_matroid(make_uniform(2, 4), "min")),
        ("Pi3min", built_from_matroid(make_partition(3), "min")),
    ]


def _oracle_g(bm):
    return {set_of(f) for f in bm.bset}


@pytest.mark.parametrize("name,bm", _cases(), ids=[c[0] for c in _cases()])
def test_is_nested_matches_oracle_exhaustively(name, bm):
    lat = bm.lat
    orank = lambda s: lat.rank_of(lat.closure(mask_of(s)))
    og = _oracle_g(bm)
    pool = sorted(bm.bset)
    for pick in range(1 << len(pool)):
        s = [pool[i] for i in range(len(pool)) if pick >> i & 1]
        want = oracles.is_nested_family(
            bm.n, orank, og, [set_of(f) for f in s]
        )
        assert is_nested(bm, s) == want, s


def test_forest_test_matches_antichain_scan():
    """is_nested (the forest test) against the antichain scan it replaced,
    `oracles.is_nested_ref`: every subset of at most 4 members of each
    corpus G with at most 12 members; 300 seeded random subsets of 2 to
    rank + 2 members of every G, corpus and Π6|min, U(4,7)|max and B5|max;
    and up to 300 facets of each."""
    from chowpoly.corpus import corpus

    cases = [inst.built for inst in corpus()] + [
        built_from_matroid(make_partition(6), "min"),
        built_from_matroid(make_uniform(4, 7), "max"),
        built_from_matroid(make_boolean(5), "max"),
    ]
    rng = random.Random(10)
    verdicts = Counter()
    for bm in cases:
        pool = sorted(bm.bset)
        sample = []
        if len(pool) <= 12:
            sample += [s for k in range(5) for s in combinations(pool, k)]
        for _ in range(300):
            k = rng.randint(2, min(len(pool), bm.rank + 2)) if len(pool) > 1 else 1
            sample.append(rng.sample(pool, k))
        sample += maximal_nested_sets(bm)[:300]
        for s in sample:
            want = oracles.is_nested_ref(bm, s)
            assert is_nested(bm, s) == want, (bm, sorted(s))
            verdicts[want] += 1
    assert verdicts == Counter({False: 70305, True: 37497})


def test_forest_test_rejects_foreign_flats_as_the_scan_did():
    b3 = built_from_matroid(make_boolean(3), "max")
    for s, msg in (
        ({0b1000}, "[8] not in the building set"),
        ([0b001, 0b10000, 0b1000], "[8, 16] not in the building set"),
    ):
        for fn in (is_nested, oracles.is_nested_ref):
            with pytest.raises(BadParameters) as got:
                fn(b3, s)
            assert str(got.value) == msg


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# Taken before nested_subsets replaced the three walks: per instance, the
# count and digest of the sorted FY monomials, the face counts and digest of
# nested_complex (cN and N), and the stable facets and digest of the
# psi_fiber_of monomials (None where the instance is not complete).
WALKS_BEFORE = {
    "B4|max": (
        24,
        "a1b98785f51fab586a1ecba5cbebbc036806e4ac0cf9c0ec4a40e7238a61ae1b",
        {"cN": 150, "N": 75},
        "1dadd20e0d3d9d55c6b3a076e6833f34547e5dee7b93002a42341d6fc0021763",
        9,
        "7d96fc47660e03ae25fb7d492346bcdacacc04c1280a8471bae6467e94f8d11f",
    ),
    "Pi5|min": (
        34,
        "629c55e6e1fb19f3575c4db1a8201d9d54c2e03ab3376b7d259dc66f8c6c248d",
        {"cN": 472, "N": 236},
        "07a39eff1ddc8955aa062a1fd69063eb995c517f876471ebf873954e932e560d",
        14,
        "9f2e8a9b529becf920f5cc00622cff06333b5984fa369eaf31cbb3adf35ca999",
    ),
    "U(3,5)|min": (
        3,
        "00a068204e857dcaca56566cbdf7ccc9563882557ff1f307208ebbe49e072881",
        {"cN": 32, "N": 16},
        "8a1725a4fc285f34ccbdf4ca11a1a4d81f0447fc0142056f29b48465f440d33d",
        None,
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(WALKS_BEFORE))
def test_nested_subset_walks_give_the_same_sets(name):
    m, kind = {
        "B4|max": (make_boolean(4), "max"),
        "Pi5|min": (make_partition(5), "min"),
        "U(3,5)|min": (make_uniform(3, 5), "min"),
    }[name]
    bm = built_from_matroid(m, kind)
    fy = sorted(tuple(sorted(mon)) for mon in fy_monomials(bm))
    faces = {
        v: sorted(tuple(sorted(f)) for f in nested_complex(bm, v).faces)
        for v in ("cN", "N")
    }
    if is_complete(bm):
        psi = []
        for s in sorted(stable_maximal_nested_sets(bm), key=sorted):
            mons, poly = psi_fiber_of(bm, s)
            psi.append((sorted(s), sorted(tuple(sorted(mon)) for mon in mons), poly))
        psi_seen = (len(psi), _digest(psi))
    else:
        with pytest.raises(NotComplete):
            psi_fiber_of(bm, frozenset())
        psi_seen = (None, None)
    got = (
        len(fy),
        _digest(fy),
        {v: len(f) for v, f in faces.items()},
        _digest(faces),
        *psi_seen,
    )
    assert got == WALKS_BEFORE[name]


def test_nested_subset_walk_makes_no_forest_or_is_nested_call(monkeypatch):
    """`nested_subsets` decides each extension by placing the new vertex
    on the roots it carries: over every corpus instance, the walks at gap
    1 and gap 2 over G call neither `_forest` nor `is_nested`."""
    from chowpoly import nested
    from chowpoly.corpus import corpus

    def refuse(*args):
        raise AssertionError("the walk places each vertex on its roots")

    monkeypatch.setattr(nested, "_forest", refuse)
    monkeypatch.setattr(nested, "is_nested", refuse)
    sets = Counter()
    for inst in corpus():
        bm = inst.built
        for gap in (1, 2):
            sets[gap] += sum(1 for _ in nested_subsets(bm, bm.bset, gap))
    assert sets[1] > sets[2] > 0


def test_place_matches_antichain_scan_on_walk_extensions():
    """`nested._place` against the antichain scan, `oracles.is_nested_ref`:
    every family the gap-1 walk yields on each corpus instance with at
    most 16 members, and the first 30 on every other, extended by each
    member of G that no member of the family contains.  When the extension
    is nested, the children are the maximal members below v and the new
    roots the maximal members of the extension, both in the family's
    order with v last."""
    from chowpoly.corpus import corpus
    from chowpoly.nested import _place

    def tops(family):  # the maximal members, in the family's order
        return [g for g in family if all(g == h or g & ~h for h in family)]

    verdicts = Counter()
    for inst in corpus():
        bm = inst.built
        idx, table = bm.lat.idx, bm.factor_table()
        walk = nested_subsets(bm, bm.bset, 1)
        if len(bm.bset) > 16:
            walk = [next(walk) for _ in range(30)]
        for fam, _ in walk:
            roots = tops(fam)
            for v in sorted(bm.bset):
                if any(v & ~g == 0 for g in fam):
                    continue
                got = _place(idx, table, roots, v)
                want = oracles.is_nested_ref(bm, [*fam, v])
                assert (got is not None) == want, (inst.name, fam, v)
                if want:
                    below = [g for g in fam if g & ~v == 0]
                    forest = tops(below), tops([*fam, v])
                    assert got == forest, (inst.name, fam, v)
                verdicts[want] += 1
    assert verdicts == Counter({False: 32960, True: 15069})


@pytest.mark.parametrize("name,bm", _cases(), ids=[c[0] for c in _cases()])
def test_nested_complex_matches_oracle(name, bm):
    lat = bm.lat
    orank = lambda s: lat.rank_of(lat.closure(mask_of(s)))
    og = _oracle_g(bm)
    for variant, verts in (
        ("cN", bm.bset),
        ("N", bm.bset - set(bm.maxg)),
    ):
        cx = nested_complex(bm, variant)
        want = {
            frozenset(masks_of(s))
            for s in oracles.all_nested_sets(
                bm.n, orank, og, [set_of(f) for f in sorted(verts)]
            )
        }
        assert cx.faces == want, variant


def test_maximal_nested_sets_vs_oracle():
    for name, bm in [
        ("B3max", built_from_matroid(make_boolean(3), "max")),
        ("B4flag", b4_flag_built()),
        ("B4max", built_from_matroid(make_boolean(4), "max")),
        ("Pi4min", built_from_matroid(make_partition(4), "min")),
        ("U24min", built_from_matroid(make_uniform(2, 4), "min")),
    ]:
        lat = bm.lat
        orank = lambda s: lat.rank_of(lat.closure(mask_of(s)))
        og = _oracle_g(bm)
        verts = [set_of(f) for f in sorted(bm.bset - set(bm.maxg))]
        want = {
            frozenset(masks_of(s))
            for s in oracles.maximal_sets(
                oracles.all_nested_sets(bm.n, orank, og, verts)
            )
        }
        got = {frozenset(s) for s in maximal_nested_sets(bm)}
        assert got == want, name
        size = bm.rank - len(bm.maxg)
        assert all(len(s) == size for s in got), name


def test_facet_goldens():
    b3 = built_from_matroid(make_boolean(3), "max")
    got = sorted(sorted(s) for s in maximal_nested_sets(b3))
    assert got == [[1, 3], [1, 5], [2, 3], [2, 6], [4, 5], [4, 6]]
    assert len(maximal_nested_sets(b4_flag_built())) == 8
    b4 = built_from_matroid(make_boolean(4), "max")
    assert len(maximal_nested_sets(b4)) == 24  # maximal chains of B4


def test_facets_match_the_frozenset_union_enumerator():
    """The tuple-carrying enumerator lists, as sets, the facets of the one
    that built a frozenset per subtree (`oracles.maximal_nested_sets_ref`),
    element for element and in its order, on every corpus instance, the
    reducible ones (several maximal elements, some of them atoms)
    included, and on Π6|min, B5|max, U(4,7)|max and U(5,11)|max."""
    from chowpoly.corpus import corpus

    cases = [inst.built for inst in corpus()] + [
        built_from_matroid(make_partition(6), "min"),
        built_from_matroid(make_boolean(5), "max"),
        built_from_matroid(make_uniform(4, 7), "max"),
        built_from_matroid(make_uniform(5, 11), "max"),
    ]
    kinds = Counter()
    for bm in cases:
        got = [frozenset(s) for s in maximal_nested_sets(bm)]
        assert got == oracles.maximal_nested_sets_ref(bm), bm
        lat = bm.lat
        kinds["reducible"] += not bm.irreducible
        kinds["atom top"] += any(lat.rank_of(m) == 1 for m in bm.maxg)
    assert kinds == Counter({"reducible": 59, "atom top": 73})


def test_facet_enumeration_peak_memory_stays_near_its_result():
    """On U(5,11)|max the traced peak while the facets are listed is at
    most twice what stays live after the call: subtrees are carried as
    tuples, and the facets are the top's list of them, with no copy.  The
    enumerator that built a frozenset per subtree peaked at 4.3 times, and
    a copy of the top's list would peak at about 2.2 times."""
    from chowpoly.nested import _child_table

    bm = built_from_matroid(make_uniform(5, 11), "max")
    for g in bm.bset:
        _child_table(bm, g)
    live, peak = traced_peak(lambda: maximal_nested_sets(bm))
    assert len(maximal_nested_sets(bm)) == 7920
    assert peak <= 2 * live, (peak, live)


def test_child_table_matches_pruned_antichain_search():
    """The rows read off the lower covers are the child antichains of the
    pruned search, in its order, with the same λ positions, for every
    building-set flat g."""
    from chowpoly.corpus import corpus
    from chowpoly.families import chordal_building_sets
    from chowpoly.lattice import bits
    from chowpoly.nested import _child_table

    b4 = lattice_of_flats(make_boolean(4))
    cases = [
        built_from_matroid(make_partition(5), "min"),
        built_from_matroid(make_partition(6), "min"),
        built_from_matroid(make_boolean(5), "max"),
        built_from_matroid(make_uniform(4, 7), "max"),
        built_from_matroid(make_uniform(3, 6), "max"),
    ]
    cases += [BuiltMatroid(b4, bset) for bset in chordal_building_sets(4)]
    cases += [i.built for i in corpus() if i.bset_kind == "random"][:10]
    pairs = rows = 0
    for bm in cases:
        lat = bm.lat
        for g in sorted(bm.bset):
            below = [h for h in bm.bset if h != g and h & ~g == 0]
            want = [
                (a, min(bm.pos[e] for e in bits(g & ~j)))
                for a, j in oracles.nested_antichains_ref(
                    bm, below, lat.rank_of(g) - 1
                )
            ]
            assert _child_table(bm, g) == want, (bm, g)
            pairs += 1
            rows += len(want)
    assert len(cases) == 5 + len(chordal_building_sets(4)) + 10
    assert (pairs, rows) == (969, 2254)


@pytest.mark.parametrize(
    "bm",
    [
        built_from_matroid(make_uniform(5, 11), "max"),
        built_from_matroid(make_partition(6), "min"),
    ],
    ids=["U(5,11)max", "Pi6min"],
)
def test_facets_make_no_join(bm, monkeypatch):
    """The facet enumerator reads its child antichains off the lower
    covers, so it joins no flats (a search made 15576 and 3448 joins)."""
    from chowpoly.lattice import GeomLattice

    joins = 0
    join = GeomLattice.join

    def counting_join(self, f, g):
        nonlocal joins
        joins += 1
        return join(self, f, g)

    monkeypatch.setattr(GeomLattice, "join", counting_join)
    facets = maximal_nested_sets(bm)
    assert joins == 0
    assert len(facets) == {11: 7920, 15: 945}[bm.n]


def test_nested_layer_makes_no_join(monkeypatch):
    """The nested layer reads J^g as the union of g's children in the
    forest of `nested._forest`, so over the corpus the nestedness test (on
    facets and on seeded random subsets), the descent data and λ-labels of
    facets, the FY walk and the nested complex join no flats."""
    from chowpoly.corpus import corpus
    from chowpoly.lattice import GeomLattice

    cases = [(i.built, maximal_nested_sets(i.built)[:40]) for i in corpus()]
    joins = 0
    join = GeomLattice.join

    def counting_join(self, f, g):
        nonlocal joins
        joins += 1
        return join(self, f, g)

    monkeypatch.setattr(GeomLattice, "join", counting_join)
    rng = random.Random(29)
    calls = Counter()
    for bm, facets in cases:
        pool = sorted(bm.bset)
        for _ in range(20):
            s = rng.sample(pool, rng.randint(1, len(pool)))
            calls["is_nested", is_nested(bm, s)] += 1
        for s in facets:
            calls["is_nested", is_nested(bm, s)] += 1
            calls["descent_set", descent_set(bm, s).stable] += 1
            for g in (*s, *bm.maxg):
                lambda_label(bm, s, g)
                calls["lambda_label"] += 1
        calls["fy_monomials"] += sum(1 for _ in fy_monomials(bm))
        calls["nested_complex"] += len(nested_complex(bm, "N").faces)
    assert joins == 0
    kinds = [(f, v) for f in ("is_nested", "descent_set") for v in (True, False)]
    kinds += ["lambda_label", "fy_monomials", "nested_complex"]
    assert all(calls[k] for k in kinds), calls


def test_completeness_is_decided_once_per_instance(monkeypatch, capsys):
    """`building.complete_witness` is the one completeness pass: one
    in-process `gamma --corpus` makes one per instance (229) and 2,722
    bottom chains (527 passes and 4,922 chains when each Γ-report decided
    [0, m] again), and over the corpus `gamma_complex` and `gamma_fvector`
    decide none, taking one bottom chain per report."""
    import chowpoly.building as building
    import chowpoly.nested as nested
    from chowpoly import cli
    from chowpoly.corpus import corpus

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    witness = counted("complete_witness", building.complete_witness)
    monkeypatch.setattr(building, "complete_witness", witness)
    chain = counted("tl_chain", building.tl_chain)
    monkeypatch.setattr(building, "tl_chain", chain)
    monkeypatch.setattr(nested, "tl_chain", chain)
    assert cli.main(["gamma", "--corpus"]) == 0
    capsys.readouterr()
    assert (calls["complete_witness"], calls["tl_chain"]) == (229, 2722)

    calls.clear()
    reports = 0
    for inst in corpus():
        bm = inst.built
        if bm.irreducible:
            gamma_complex(bm)
            reports += 1
        reports += len(gamma_fvector(bm)[1])
    assert (calls["complete_witness"], calls["tl_chain"]) == (0, reports)


def test_g_factor_table_is_taken_once_per_built_matroid(monkeypatch):
    """A validated built matroid keeps the table of its validating pass for
    the child tables; G_min takes none, as its table is the lattice's
    factor table; an unvalidated one (a deletion) takes it once, on first
    use."""
    import chowpoly.building as building
    from chowpoly.building import delete_element, g_max

    calls = 0
    table = building._g_factor_table

    def counting_table(lat, s):
        nonlocal calls
        calls += 1
        return table(lat, s)

    monkeypatch.setattr(building, "_g_factor_table", counting_table)
    bm = built_from_matroid(make_partition(5), "min")
    assert calls == 0
    maximal_nested_sets(bm)
    stable_descent_sets(bm)
    assert calls == 0
    assert bm._nested_cache["tops"] == table(bm.lat, bm.bset)
    d = delete_element(bm, 0)
    assert calls == 0
    maximal_nested_sets(d)
    maximal_nested_sets(d)
    assert calls == 1
    big = BuiltMatroid(bm.lat, g_max(bm.lat))
    assert calls == 2
    maximal_nested_sets(big)
    stable_descent_sets(big)
    assert calls == 2


def test_gmax_facets_are_maximal_chains():
    """For the maximal building set, facets are exactly the maximal proper
    chains; their count is cross-checked by an independent chain-count DP."""
    from chowpoly.corpus import corpus

    seen = 0
    for inst in corpus():
        if inst.bset_kind != "max":
            continue
        seen += 1
        bm = inst.built
        lat = bm.lat
        counts = {0: 1}
        for f in lat.flats:
            if f == 0:
                continue
            counts[f] = sum(counts[g] for g in lat.flats if _covers(lat, g, f))
        facets = maximal_nested_sets(bm)
        assert len(facets) == counts[lat.full], inst.name
        for s in facets:
            chain = sorted(s, key=lat.rank_of)
            for a, b in zip(chain, chain[1:]):
                assert a & ~b == 0, inst.name
    assert seen >= 60


def _covers(lat, g, f):
    return g in lat.covers_down(f) if hasattr(lat, "covers_down") else (
        g & ~f == 0 and g != f and lat.rank_of(g) == lat.rank_of(f) - 1
    )


def test_link_counting_identity():
    """#{faces containing S} factors as the product of the local nested-set
    counts of the link decomposition."""
    for name, bm in [
        ("B3max", built_from_matroid(make_boolean(3), "max")),
        ("B4flag", b4_flag_built()),
        ("B4max", built_from_matroid(make_boolean(4), "max")),
        ("Pi4min", built_from_matroid(make_partition(4), "min")),
        ("U35min", built_from_matroid(make_uniform(3, 5), "min")),
    ]:
        faces = nested_complex(bm, "N").faces
        for s in faces:
            lhs = sum(1 for u in faces if s <= u)
            rhs = 1
            for li in link_decomposition(bm, s):
                rhs *= len(nested_complex(li.built, "N").faces)
            assert lhs == rhs, (name, sorted(s))


def test_link_decomposition_ranks_add():
    bm = built_from_matroid(make_partition(4), "min")
    for s in nested_complex(bm, "N").faces:
        lis = link_decomposition(bm, s)
        total = sum(
            bm.lat.rank_of(li.top) - bm.lat.rank_of(li.bottom) for li in lis
        )
        assert total == bm.rank
        for li in lis:
            assert li.built.rank == bm.lat.rank_of(li.top) - bm.lat.rank_of(
                li.bottom
            )


def test_compose_round_trip():
    """Decomposing a facet into local chains and recomposing gives it back."""
    bm = built_from_matroid(make_boolean(4), "max")
    for s in maximal_nested_sets(bm):
        lis = link_decomposition(bm, frozenset())
        (li,) = lis  # irreducible: single interval under the top
        local = {li.top: sorted(s, key=bm.lat.rank_of)}
        assert compose(bm, frozenset(), local) == frozenset(s)


def test_compose_rejects_non_nested_local():
    bm = built_from_matroid(make_boolean(3), "max")
    with pytest.raises(NotNestedLocal):
        compose(bm, frozenset(), {bm.lat.full: [1, 2, 4]})
    with pytest.raises(NotNestedLocal):
        compose(bm, frozenset(), {bm.lat.full: [99]})


def test_new_factor():
    bm = built_from_matroid(make_boolean(3), "min")
    assert new_factor(bm, 0b011, 0b001) == 0b010
    with pytest.raises(NotUnique):
        new_factor(bm, 0b111, 0b001)


def test_completion_golden_and_invariants():
    b3 = built_from_matroid(make_boolean(3), "max")
    assert completion(b3, {0b010}) == frozenset({0b010, 0b011})
    for bm in (
        b3,
        built_from_matroid(make_boolean(4), "max"),
        built_from_matroid(make_partition(4), "min"),
    ):
        assert is_complete(bm)
        for s in maximal_nested_sets(bm):
            dd = descent_set(bm, s)
            if dd.stable:
                assert completion(bm, dd.descents) == frozenset(s)
    # a direct sum: B3|min is three atoms, whose one facet is empty
    assert completion(built_from_matroid(make_boolean(3), "min"), {0b001}) == (
        frozenset()
    )


def test_descent_set_matches_oracle():
    shuffled = {3: (2, 0, 1), 4: (1, 3, 0, 2), 6: (4, 0, 5, 2, 1, 3)}
    for name, bm0 in [
        ("B3max", built_from_matroid(make_boolean(3), "max")),
        ("B4flag", b4_flag_built()),
        ("B4max", built_from_matroid(make_boolean(4), "max")),
        ("Pi4min", built_from_matroid(make_partition(4), "min")),
    ]:
        for order in (None, shuffled[bm0.n]):
            bm = (
                bm0
                if order is None
                else type(bm0)(bm0.lat, bm0.bset, order)
            )
            lat = bm.lat
            orank = lambda s: lat.rank_of(lat.closure(mask_of(s)))
            og = _oracle_g(bm)
            top = frozenset(range(bm.n))
            for s in maximal_nested_sets(bm):
                dd = descent_set(bm, s)
                od, ob, odd = oracles.descent_data(
                    bm.n,
                    orank,
                    og,
                    bm.order,
                    [set_of(f) for f in s],
                    top,
                )
                assert sets_of(dd.descents) == set(od), (name, order, s)
                assert sets_of(dd.bottoms) == set(ob), (name, order, s)
                assert sets_of(dd.doubles) == set(odd), (name, order, s)
                assert dd.stable == (not ob and not odd)
                if not dd.stable:
                    assert oracles.descents_have_rank1_local(bm, dd.descents)


def _descent_kernel_cases():
    from chowpoly.corpus import corpus

    pi6 = built_from_matroid(make_partition(6), "min")
    cases = [(inst.name, inst.built) for inst in corpus() if inst.built.irreducible]
    cases += [
        ("Pi6|min", pi6),
        ("Pi6|min reversed", type(pi6)(pi6.lat, pi6.bset, tuple(reversed(pi6.order)))),
        ("B6|max", built_from_matroid(make_boolean(6), "max")),
        ("U(4,7)|max", built_from_matroid(make_uniform(4, 7), "max")),
    ]
    return cases


def test_descent_set_matches_join_loop_reference():
    """Every DescentData field equals the join-loop reference on every facet,
    and so does λ of every member of ŝ = s ∪ max G (`lambda_label`)."""
    facets = 0
    for name, bm in _descent_kernel_cases():
        for s in maximal_nested_sets(bm):
            assert descent_set(bm, s) == oracles.descent_data_by_join(bm, s), (
                name,
                sorted(s),
            )
            for g in (*s, *bm.maxg):
                want = oracles.lambda_by_join(bm, s, g)
                assert lambda_label(bm, s, g) == want, (name, sorted(s), g)
            facets += 1
    assert facets > 5000


def test_stable_pairs_are_built_once_per_built_matroid(monkeypatch):
    """The descent formula, the Γ-complex and the ψ-fibers share one build
    of the stable pairs per maximal element of a built matroid, and none of
    them lists the facets.  On a direct sum they read the pairs below each
    maximal element in place, and build no interval."""
    import chowpoly.building as building
    import chowpoly.chow as chow
    import chowpoly.nested as nested
    from chowpoly.chow import (
        gamma_by_descents,
        gamma_by_descents_factored,
        psi_fibers,
    )

    class Recording(dict):
        def __init__(self):
            super().__init__()
            self.filled = Counter()

        def __setitem__(self, key, value):
            self.filled[key] += 1
            super().__setitem__(key, value)

    init = BuiltMatroid.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._nested_cache = Recording()

    monkeypatch.setattr(BuiltMatroid, "__init__", recording_init)
    bm = built_from_matroid(make_partition(5), "min")
    gamma = gamma_by_descents(bm)
    rep = gamma_complex(bm)
    psi_fibers(bm)
    stable = stable_maximal_nested_sets(bm)
    assert bm._nested_cache.filled["stable", bm.lat.full] == 1
    assert "facets" not in bm._nested_cache.filled
    assert sorted(rep.descent_counts.items()) == list(enumerate(gamma))
    stable.clear()  # callers get a fresh list, not the cache
    assert len(stable_maximal_nested_sets(bm)) == sum(gamma)

    # a direct sum: B3|max on {0, 1, 2} and on {3, 4, 5}, inside B6
    b6 = lattice_of_flats(make_boolean(6))
    blocks = (0b000111, 0b111000)
    bset = frozenset(f for f in b6.flats if f and any(f & ~b == 0 for b in blocks))
    red = BuiltMatroid(b6, bset)
    builds = Counter()
    interval_build = building._interval_build

    def counting_build(*args):
        builds["_interval_build"] += 1
        return interval_build(*args)

    monkeypatch.setattr(building, "_interval_build", counting_build)
    monkeypatch.setattr(chow, "_interval_build", counting_build)
    gamma_by_descents_factored(red)
    f, reps = gamma_fvector(red)
    assert builds["_interval_build"] == 0
    assert red.maxg == blocks
    assert [red._nested_cache.filled["stable", m] for m in blocks] == [1, 1]
    assert "facets" not in red._nested_cache.filled
    assert [len(nested._stable_pairs(red, m)) for m in blocks] == [3, 3]
    assert [len(r.complex.faces) for r in reps] == [3, 3] and f == [1, 4, 4]


def _orders():
    """Built matroids for the order-exact tests: every `corpus()` member in
    its own order and reversed; B6|max, U(4,7)|max and U(5,11)|max in three
    seeded orders; Π6|min and Π7|min."""
    from chowpoly.corpus import corpus

    cases = []
    for inst in corpus():
        bm = inst.built
        reversed_ = type(bm)(bm.lat, bm.bset, tuple(reversed(bm.order)))
        cases += [(inst.name, bm), (inst.name + " reversed", reversed_)]
    for name, m in (
        ("B6|max", make_boolean(6)),
        ("U(4,7)|max", make_uniform(4, 7)),
        ("U(5,11)|max", make_uniform(5, 11)),
    ):
        bm = built_from_matroid(m, "max")
        for seed in (1, 2, 3):
            order = list(bm.order)
            random.Random(seed).shuffle(order)
            cases.append((f"{name} seed {seed}", type(bm)(bm.lat, bm.bset, order)))
    cases += [
        ("Pi6|min", built_from_matroid(make_partition(6), "min")),
        ("Pi7|min", built_from_matroid(make_partition(7), "min")),
    ]
    return cases


def test_child_tables_equal_the_rank_level_scan():
    """The rows read off the inverted covers are those of the scan of the
    rank level below g (`oracles.child_table_scan_ref`), in its order, for
    every building-set member of every order-exact case."""
    from chowpoly.nested import _child_table

    rows = 0
    for name, bm in _orders():
        table = {}
        for g in bm.bset:
            want = oracles.child_table_scan_ref(bm, g, table)
            assert _child_table(bm, g) == want, (name, g)
            rows += len(want)
    assert rows > 20000


def test_facets_equal_the_per_parent_enumerator():
    """`maximal_nested_sets` lists the tuples of the enumerator that built
    the subtrees under a child again for every parent row
    (`oracles.maximal_nested_sets_per_parent_ref`), in its order, on every
    order-exact case."""
    facets = 0
    for name, bm in _orders():
        got = maximal_nested_sets(bm)
        assert got == oracles.maximal_nested_sets_per_parent_ref(bm), name
        facets += len(got)
    assert facets > 40000


def test_stable_pairs_equal_the_product_recursion():
    """`_stable_pairs` lists the pairs of the recursion that took every row
    through `product` (`oracles.stable_pairs_product_ref`), in its order,
    below every maximal element of every order-exact case."""
    from chowpoly.nested import _stable_pairs

    pairs = 0
    for name, bm in _orders():
        for m in bm.maxg:
            got = _stable_pairs(bm, m)
            assert got == oracles.stable_pairs_product_ref(bm, m), (name, m)
            pairs += len(got)
    assert pairs > 10000


def test_child_tables_read_no_rank_level(monkeypatch):
    """Building every child table of U(5,11)|max reads the lower covers off
    `covers_up` and never touches `lat.by_rank`: one row per cover below a
    member, 2,266 in all."""
    from chowpoly.nested import _child_table

    bm = built_from_matroid(make_uniform(5, 11), "max")
    bm.factor_table()
    monkeypatch.delattr(bm.lat, "by_rank")
    rows = sum(len(_child_table(bm, g)) for g in bm.bset)
    assert rows == sum(map(len, bm.lat.covers_up)) == 2266


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the bound was measured on Python 3.11"
)
def test_stable_lister_peak_memory_on_b8_max():
    """With the child tables filled, the traced peak of
    `stable_descent_sets` on B8|max stays at most 7.0 MB on Python 3.11:
    the stable trees share their nodes and each facet is flattened once, at
    the end.  A variant that stored a flattened tuple per memo state peaked
    at about 8.2 MB."""
    from chowpoly.nested import _child_table

    bm = built_from_matroid(make_boolean(8), "max")
    for g in bm.bset:
        _child_table(bm, g)
    live, peak = traced_peak(lambda: stable_descent_sets(bm))
    assert len(stable_descent_sets(bm)) == 7281
    assert peak <= 7_000_000, (peak, live)


def test_stable_descent_sets_match_facet_filter_reference():
    """The pruned recursion lists the same (facet, descent set) pairs as
    filtering every facet by its descent data, and no facet twice: every
    irreducible corpus instance in its own order and reversed, plus three
    larger instances."""
    from chowpoly.corpus import corpus

    cases = []
    for inst in corpus():
        bm = inst.built
        if bm.irreducible:
            reversed_ = type(bm)(bm.lat, bm.bset, tuple(reversed(bm.order)))
            cases += [(inst.name, bm), (inst.name + " reversed", reversed_)]
    cases += [
        ("Pi6|min", built_from_matroid(make_partition(6), "min")),
        ("B6|max", built_from_matroid(make_boolean(6), "max")),
        ("U(4,7)|max", built_from_matroid(make_uniform(4, 7), "max")),
    ]
    assert len(cases) == 343
    pairs = 0
    for name, bm in cases:
        got = stable_descent_sets(bm)
        facets = [s for s, _ in got]
        assert len(set(facets)) == len(facets), name
        assert set(got) == set(oracles.stable_descent_sets_ref(bm)), name
        pairs += len(got)
    assert pairs > 2000


def test_one_facet_one_tuple():
    """Every facet is one tuple, in the pre-order of its forest: each
    member comes after its parent (the least member above it), and every
    member listed between the two lies under that parent.  No two facets
    give one tuple, and each stable facet is the same tuple in the facet
    list as in `stable_descent_sets`.  Every irreducible corpus instance,
    in its own order and reversed, and Π6|min."""
    from chowpoly.corpus import corpus

    cases = []
    for inst in corpus():
        bm = inst.built
        if bm.irreducible:
            reversed_ = type(bm)(bm.lat, bm.bset, tuple(reversed(bm.order)))
            cases += [(inst.name, bm), (inst.name + " reversed", reversed_)]
    cases.append(("Pi6|min", built_from_matroid(make_partition(6), "min")))
    stables = 0
    for name, bm in cases:
        facets = maximal_nested_sets(bm)
        assert len({frozenset(s) for s in facets}) == len(facets), name
        for s in facets:
            at = {g: i for i, g in enumerate(s)}
            for g in s:
                above = [h for h in s if h != g and g & ~h == 0]
                if above:  # a chain, so its least member has the fewest bits
                    p = min(above, key=int.bit_count)
                    assert at[p] < at[g], (name, s)
                    assert all(h & ~p == 0 for h in s[at[p] : at[g]]), (name, s)
        listed = set(facets)
        for s, _ in stable_descent_sets(bm):
            assert s in listed, (name, s)
            stables += 1
    assert stables == 1451 + 1499 + 84  # own orders, reversed, Π6|min


def test_descent_error_raises():
    red = built_from_matroid(make_boolean(3), "min")
    dd = descent_set(red, frozenset())  # a direct sum's empty facet
    assert (dd.descents, dd.stable) == (frozenset(), True)
    with pytest.raises(NotMaximal):
        descent_set(red, {0b011})  # too big: the facet of B3|min is empty
    b3 = built_from_matroid(make_boolean(3), "max")
    with pytest.raises(NotMaximal):
        descent_set(b3, {0b001})  # too small
    with pytest.raises(NotMaximal):
        descent_set(b3, {0b001, 0b010})  # right size, not nested? no: nested
    with pytest.raises(RankNotOne):
        lambda_label(b3, frozenset(), b3.lat.full)


def test_nested_input_errors_are_typed():
    b3 = built_from_matroid(make_boolean(3), "max")
    with pytest.raises(BadParameters):
        is_nested(b3, {0b1000})  # not a flat of B3
    with pytest.raises(BadParameters):
        completion(b3, {0b001, 0b010})  # two atoms joining into G
    with pytest.raises(BadParameters):
        compose(b3, {0b011, 0b110}, {})  # two meeting lines joining into G
    with pytest.raises(BadParameters):
        link_decomposition(b3, {0b001, 0b010})
    with pytest.raises(BadParameters):
        descent_set(b3, {0b001, 0b1000})
    with pytest.raises(BadParameters):
        lambda_label(b3, {0b001, 0b010}, b3.lat.full)  # two atoms joining into G


def test_nested_input_errors_are_typed_under_optimize():
    code = (
        "from chowpoly import built_from_matroid, make_boolean, make_uniform\n"
        "from chowpoly.building import delete_element, tl_chain\n"
        "from chowpoly.nested import completion, compose, is_nested,"
        " lambda_label, link_decomposition\n"
        "def kind(fn, *a):\n"
        "    try:\n"
        "        fn(*a)\n"
        "    except Exception as e:\n"
        "        return type(e).__name__\n"
        "    return 'none'\n"
        "bm = built_from_matroid(make_boolean(3), 'max')\n"
        "um = built_from_matroid(make_uniform(3, 4), 'max')\n"
        "print(kind(is_nested, bm, {0b1000}), kind(completion, bm, {1, 2}),"
        " kind(link_decomposition, bm, {1, 2}), kind(delete_element, bm, 3),"
        " kind(delete_element, bm, -1), kind(tl_chain, bm, 0b011, 0b101),"
        " kind(tl_chain, um, 0b1, 0b111), kind(compose, bm, {3, 6}, {}),"
        " kind(lambda_label, bm, {1, 2}, 0b111))\n"
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
    assert proc.stdout.split() == ["BadParameters"] * 9


def test_stable_counts_b3():
    b3 = built_from_matroid(make_boolean(3), "max")
    stable = stable_maximal_nested_sets(b3)
    assert len(stable) == 3
    des = sorted(descent_set(b3, s).des for s in stable)
    assert des == [0, 1, 1]


def test_gamma_complex_b3max():
    bm = built_from_matroid(make_boolean(3), "max")
    rep = gamma_complex(bm)
    assert is_complete(bm) and rep.downward_closed
    assert rep.complex.vertices == (5, 6)
    assert rep.complex.faces == {
        frozenset(),
        frozenset({5}),
        frozenset({6}),
    }
    f, h, flag, dim = complex_stats(rep.complex)
    assert list(f) == [1, 2]
    assert rep.descent_counts == {0: 1, 1: 2}
    assert not rep.unused_vertices and not rep.foreign_vertices
    assert balanced_check(bm, rep.complex)


def test_gamma_complex_rank_two():
    rep = gamma_complex(built_from_matroid(make_uniform(2, 4), "min"))
    assert rep.complex.faces == {frozenset()}
    f, _, _, _ = complex_stats(rep.complex)
    assert list(f) == [1]


def test_gamma_complex_requires_irreducible():
    with pytest.raises(NotIrreducible):
        gamma_complex(built_from_matroid(make_boolean(3), "min"))


def _direct_sum_cases():
    """Every reducible corpus instance and Π4 ⊕ Π4 (two disjoint K4s) with
    G_min and G_max, each in its own order, reversed and in three seeded
    orders."""
    from chowpoly.corpus import corpus
    from chowpoly.families import braid_edges, make_graphic

    k4 = braid_edges(4)
    two_k4 = make_graphic(k4 + [(a + 4, b + 4) for a, b in k4])
    bases = [inst.built for inst in corpus() if not inst.built.irreducible]
    bases += [built_from_matroid(two_k4, kind) for kind in ("min", "max")]
    cases = []
    for bm in bases:
        orders = [bm.order, tuple(reversed(bm.order))]
        for seed in range(3):
            order = list(bm.order)
            random.Random(seed).shuffle(order)
            orders.append(tuple(order))
        cases += [BuiltMatroid(bm.lat, bm.bset, order) for order in orders]
    assert len(cases) == 305
    return cases


def test_direct_sums_match_the_restriction_route():
    """The descent formula and the Γ-complex of a reducible built matroid,
    read below each maximal element in place, against one restricted copy
    per maximal element (`oracles.gamma_fvector_by_restriction`), on
    `_direct_sum_cases`.  The reports agree on closure, and their
    complexes are equal once each flat below m is renumbered as its
    restriction renumbers it.  The instance is complete iff every
    restriction [0, m] is, the fact that lets `gamma` print one verdict
    for a direct sum."""
    from chowpoly.chow import gamma_by_descents_factored

    for bm in _direct_sum_cases():
        where = (sorted(bm.bset), bm.order)
        assert gamma_by_descents_factored(
            bm
        ) == oracles.gamma_by_descents_by_restriction(bm), where
        assert is_complete(bm) == all(
            is_complete(restrict(bm, m)) for m in bm.maxg
        ), where
        f, reps = gamma_fvector(bm)
        f_ref, reps_ref = oracles.gamma_fvector_by_restriction(bm)
        assert f == f_ref, where
        for m, rep, ref in zip(bm.maxg, reps, reps_ref, strict=True):
            assert rep.downward_closed == ref.downward_closed, where
            emap = oracles._compress_map(m)
            local = {g: oracles._remap_mask(g, emap) for g in bm.bset if g & ~m == 0}
            verts = rep.complex.vertices
            used = set().union(*rep.complex.faces)
            assert set(verts) | used <= local.keys(), where  # bm's flats below m
            assert {local[v] for v in verts} == set(ref.complex.vertices), where
            faces = {frozenset(local[g] for g in face) for face in rep.complex.faces}
            assert faces == set(ref.complex.faces), where


def test_direct_sums_through_psi_and_descents():
    """ψ-fibers, completion and descent data of a direct sum read
    ŝ = s ∪ max G, with no refusal: on every complete case of
    `_direct_sum_cases`, the fibers are keyed by the stable facets, each is
    t^d (1+t)^(rank - |max G| - 2d), they sum to the Chow polynomial, and
    `psi_fiber_of` builds each one alone (each of about forty spread over
    the stable facets where there are more: Π4 ⊕ Π4 |max has 1192, and
    one call takes milliseconds).  `descent_set` on every facet finds
    exactly the stable pairs of `stable_descent_sets`, the product of the
    pairs below each maximal element, with the same tuples."""
    from chowpoly.chow import chow_polynomial, psi_fibers
    from chowpoly.polynomials import binom_poly, padd, pmul

    checked = fibers_seen = built_alone = 0
    for bm in _direct_sum_cases():
        if not is_complete(bm):
            continue
        where = (sorted(bm.bset), bm.order)
        k = bm.rank - len(bm.maxg)
        pairs = stable_descent_sets(bm)
        found = []
        for s in maximal_nested_sets(bm):
            dd = descent_set(bm, s)
            assert len(s) == k, where
            if dd.stable:
                found.append((s, dd.descents))
        assert len(found) == len(pairs) and set(found) == set(pairs), where
        fibers = psi_fibers(bm)
        assert list(fibers) == [
            frozenset(s) for s in stable_maximal_nested_sets(bm)
        ], where
        total = []
        stride = len(pairs) // 40 + 1
        for i, (s, d) in enumerate(pairs):
            s = frozenset(s)
            want = pmul([0] * len(d) + [1], binom_poly(k - 2 * len(d)))
            assert fibers[s] == want, where
            if i % stride == 0:
                assert psi_fiber_of(bm, s)[1] == want, where
                built_alone += 1
            total = padd(total, fibers[s])
            fibers_seen += 1
        assert total == chow_polynomial(bm), where
        checked += 1
    assert (checked, fibers_seen, built_alone) == (268, 6355, 595)


def test_gamma_fvector_factored():
    lat = built_from_matroid(make_boolean(4), "max").lat
    from chowpoly.building import BuiltMatroid

    bm = BuiltMatroid(lat, frozenset({1, 2, 4, 8, 3}))
    assert not bm.irreducible and set(bm.maxg) == {3, 4, 8}
    f, reps = gamma_fvector(bm)
    assert f == [1]
    assert len(reps) == 3
    irr = built_from_matroid(make_boolean(3), "max")
    f2, reps2 = gamma_fvector(irr)
    assert f2 == [1, 2] and len(reps2) == 1


def test_complex_stats_goldens():
    tri = SimplicialComplex(
        vertices=(1, 2, 3),
        faces=frozenset(
            frozenset(c)
            for k in range(3)
            for c in combinations((1, 2, 3), k)
        ),
    )
    f, h, flag, dim = complex_stats(tri)
    assert (list(f), list(h), flag, dim) == ([1, 3, 3], [1, 1, 1], False, 1)
    edge = SimplicialComplex(
        vertices=(1, 2),
        faces=frozenset(
            {frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})}
        ),
    )
    f, h, flag, dim = complex_stats(edge)
    assert (list(f), list(h), flag, dim) == ([1, 2, 1], [1, 0, 0], True, 1)


def test_balanced_single_vertex():
    c = SimplicialComplex(vertices=(3,), faces=frozenset({frozenset(), frozenset({3})}))
    assert balanced_check(built_from_matroid(make_boolean(3), "max"), c)


def test_enumerated_facets_pass_the_full_nested_check_on_corpus():
    """maximal_nested_sets and the stable-facet recursion skip is_nested:
    here every facet they give gets the full check, and the recursion's
    descent sets equal those of descent_set, which checks its input."""
    from chowpoly.corpus import corpus
    from chowpoly.nested import stable_descent_sets

    cases = [(inst.name, inst.built) for inst in corpus()]
    cases.append(("Pi6|min", built_from_matroid(make_partition(6), "min")))
    cases.append(("B5|max", built_from_matroid(make_boolean(5), "max")))
    facets = stable = 0
    for name, bm in cases:
        for s in maximal_nested_sets(bm):
            assert len(s) == bm.rank - len(bm.maxg), (name, sorted(s))
            assert is_nested(bm, s), (name, sorted(s))
            facets += 1
        if not bm.irreducible:
            continue
        for s, d in stable_descent_sets(bm):
            assert is_nested(bm, s), (name, sorted(s))
            dd = descent_set(bm, s)
            assert dd.stable and dd.descents == d, (name, sorted(s))
            stable += 1
    assert (facets, stable) == (6717, 1574)


def test_flag_test_by_masks_matches_clique_search():
    """complex_stats decides flagness with the bitmask test; it agrees with
    the clique search of the oracles on every corpus Γ-complex, on the
    hollow triangle, which is not flag, and on every family of nonempty
    subsets of {1, 2, 3, 4}, most of them not downward closed."""
    from chowpoly.corpus import corpus
    from chowpoly.nested import _flag_by_masks

    verdicts = Counter()
    for inst in corpus():
        bm = inst.built
        if not bm.irreducible:
            continue
        faces = gamma_complex(bm).complex.faces
        flag = _flag_by_masks(faces)
        assert flag == oracles.flag_by_cliques(faces), inst.name
        verdicts[flag] += 1
    assert verdicts == Counter({True: 170})
    hollow = {frozenset(c) for k in range(3) for c in combinations((1, 2, 3), k)}
    assert not _flag_by_masks(hollow) and not oracles.flag_by_cliques(hollow)
    solid = hollow | {frozenset((1, 2, 3))}
    assert _flag_by_masks(solid) and oracles.flag_by_cliques(solid)
    odd = SimplicialComplex((1, 2, 3), frozenset(hollow - {frozenset((1,))}))
    assert complex_stats(odd)[2] == oracles.flag_by_cliques(odd.faces)
    subsets = [
        frozenset(c) for k in range(1, 5) for c in combinations((1, 2, 3, 4), k)
    ]
    verdicts = Counter()
    for pick in range(1 << len(subsets)):
        faces = {c for i, c in enumerate(subsets) if pick >> i & 1}
        flag = _flag_by_masks(faces)
        assert flag == oracles.flag_by_cliques(faces), sorted(map(sorted, faces))
        verdicts[flag] += 1
    assert verdicts[True] and verdicts[False]


def test_closure_test_by_one_vertex_matches_all_subsets():
    """gamma_complex decides downward closure by dropping one vertex at a
    time; the verdict is the all-subsets definition's on every family of
    nonempty subsets of {1, 2, 3, 4}, with and without the empty face.  The
    closed ones are the 168 down-sets of the Boolean lattice on four
    elements (the Dedekind number M(4)): 167 with the empty face, and the
    empty family."""
    from chowpoly.nested import _closure_violations

    subsets = [
        frozenset(c) for k in range(1, 5) for c in combinations((1, 2, 3, 4), k)
    ]
    verdicts = Counter()
    for pick in range(1 << len(subsets)):
        family = {c for i, c in enumerate(subsets) if pick >> i & 1}
        for faces in (family, family | {frozenset()}):
            closed = not _closure_violations(faces)
            assert closed == oracles.downward_closed_by_subsets(faces), faces
            verdicts[closed] += 1
    assert verdicts == Counter({True: 168, False: (2 << len(subsets)) - 168})


@pytest.mark.parametrize(
    "call",
    [
        flag_nonface_witness,
        nested_complex,
        maximal_nested_sets,
        lambda bm: list(nested_subsets(bm, bm.bset, 2)),
        lambda bm: next(nested_subsets(bm, bm.bset, 2)),
        stable_descent_sets,
        gamma_complex,
    ],
    ids=[
        "flag-witness",
        "nested-complex",
        "facets",
        "supports",
        "supports-partial",
        "stable-pairs",
        "gamma-complex",
    ],
)
def test_recursive_walks_leave_no_cycle_holding_the_built_matroid(call):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        bm = built_from_matroid(make_uniform(3, 5), "max")
        call(bm)
        ref = weakref.ref(bm)
        del bm
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
