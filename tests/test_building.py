"""Building sets, built matroids, minors, extensions, completeness and
flagness, cross-checked against the brute-force oracles."""

import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import oracles
from helpers import (
    UNIVERSE_HOSTS,
    b4_flag_built,
    boolean_built,
    filtration_sets,
    mask_of,
    set_of,
    sets_of,
    traced_peak,
    universe,
)

from chowpoly.building import (
    BuiltMatroid,
    binary_filtration,
    contract,
    delete_element,
    extend,
    find_complete_order,
    flag_nonface_witness,
    g_max,
    g_min,
    is_complete,
    is_flag,
    restrict,
    simplify_built,
    tl_chain,
    truncate,
    validate_building_set,
)
from chowpoly.chow import (
    chow_by_deletion,
    chow_by_filtration,
    chow_polynomial,
    gamma_by_descents_factored,
    toric_hilbert_oracle,
)
from chowpoly.errors import (
    ChowpolyError,
    CutContainsAtom,
    ImproperCut,
    JoinClosureViolation,
    MissingIrreducible,
    MixedFactorStep,
    NoBinaryFiltration,
    NotAFlat,
    NotFlag,
    NotGCompatible,
    TooLarge,
)
from chowpoly.families import (
    built_from_matroid,
    make_boolean,
    make_graphic,
    make_graphic,
    make_partition,
    make_uniform,
)
from chowpoly.lattice import lattice_of_flats, validate_modular_cut
from chowpoly.nested import (
    balanced_check,
    gamma_complex,
    gamma_fvector,
    is_nested,
    link_decomposition,
    maximal_nested_sets,
)
from chowpoly.polynomials import gamma_expansion, is_gamma_positive


def _oracle_gmin(name, m, n, orank):
    flats = oracles.all_flats(n, orank)
    return oracles.min_building_set(n, orank, flats)


GMIN_CASES = [
    ("B4", make_boolean(4), 4, oracles.boolean_rank),
    ("U24", make_uniform(2, 4), 4, oracles.uniform_rank(2)),
    ("U35", make_uniform(3, 5), 5, oracles.uniform_rank(3)),
    ("K4", make_partition(4), 6, oracles.graphic_rank(oracles.partition_edges(4))),
]


@pytest.mark.parametrize("name,m,n,orank", GMIN_CASES, ids=[c[0] for c in GMIN_CASES])
def test_gmin_matches_oracle(name, m, n, orank):
    lat = lattice_of_flats(m)
    want = {f for f in _oracle_gmin(name, m, n, orank) if f}
    assert sets_of(g_min(lat)) == want
    assert sets_of(g_max(lat)) == {f for f in oracles.all_flats(n, orank) if f}


def test_validate_vs_structural_exhaustive_small():
    """Prop-characterization == structural interval-product definition, over
    every subset of nonzero flats of two small lattices."""
    for m in (make_boolean(3), make_uniform(2, 4)):
        lat = lattice_of_flats(m)
        nz = [f for f in lat.flats if f]
        for pick in range(1 << len(nz)):
            s = frozenset(nz[i] for i in range(len(nz)) if pick >> i & 1)
            try:
                validate_building_set(lat, s)
                ok = True
            except (MissingIrreducible, JoinClosureViolation):
                ok = False
            assert ok == oracles.building_set_structural_check(lat, s), sets_of(s)


def test_validate_rejections():
    lat = lattice_of_flats(make_boolean(3))
    with pytest.raises(MissingIrreducible):
        validate_building_set(lat, {0b001, 0b010})  # atom 2 missing
    with pytest.raises(JoinClosureViolation):
        validate_building_set(lat, {0b001, 0b010, 0b100, 0b011, 0b101})


def _outcome(fn, lat, s):
    """What fn(lat, s) returns, or the type and args of what it raises."""
    try:
        return fn(lat, s)
    except ChowpolyError as e:
        return type(e), e.args


def test_validate_matches_reference_validator():
    """The pass up the covers against the pairwise reference: the same
    result, or the same error with the same witness, on every corpus lattice
    with its own G, G_min and G_max, on seeded mutations of those that add or
    drop 1-4 flats, and on every family of nonzero flats of three non-simple
    lattices."""
    from chowpoly.corpus import corpus

    rng = random.Random(9)
    cases = []
    for inst in corpus():
        lat = inst.built.lat
        nz = [f for f in lat.flats if f]
        for base in (inst.built.bset, g_min(lat), g_max(lat)):
            cases.append((lat, base))
            for _ in range(6):
                s = set(base)
                for _ in range(rng.randint(1, 4)):
                    rest = [f for f in nz if f not in s]
                    if s and (not rest or rng.random() < 0.5):
                        s.discard(rng.choice(sorted(s)))
                    else:
                        s.add(rng.choice(rest))
                cases.append((lat, frozenset(s)))
    for m in (
        make_uniform(1, 3),
        make_graphic([(0, 1), (0, 1), (1, 2), (1, 2), (0, 2)]),
        make_graphic([(0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ):
        lat = lattice_of_flats(m)
        assert not lat.simple()
        nz = [f for f in lat.flats if f]
        for pick in range(1 << len(nz)):
            s = frozenset(f for i, f in enumerate(nz) if pick >> i & 1)
            cases.append((lat, s))
    rejected = Counter()
    for lat, s in cases:
        want = _outcome(oracles.validate_building_set_ref, lat, s)
        assert _outcome(validate_building_set, lat, s) == want, sets_of(s)
        if want != s:
            rejected[want[0].__name__] += 1
    assert len(cases) == 21211
    assert rejected == {"MissingIrreducible": 18596, "JoinClosureViolation": 584}


def test_built_matroid_attributes():
    bm = b4_flag_built()
    assert bm.rank == 4 and bm.n == 4
    assert bm.irreducible
    assert set(bm.maxg) == {0b1111}
    assert list(bm.factors(0b1111)) == [0b1111]
    assert set(bm.factors(0b0111)) == {0b0011, 0b0100}
    bm2 = built_from_matroid(make_boolean(4), "min")
    assert not bm2.irreducible
    assert set(bm2.maxg) == {1, 2, 4, 8}


def test_factors_match_scan_reference_on_corpus_and_minors():
    """`BuiltMatroid.factors` reads the G-factor table.  Here it equals a scan
    of the building set at every flat of every corpus instance, of each of
    its single-element deletions, and of its restriction and contraction at
    each flat other than the bottom and the top."""
    from chowpoly.corpus import corpus

    def check(bm):
        for f in bm.lat.flats:
            assert set(bm.factors(f)) == set(oracles.factors_in(bm.lat, bm.bset, f))
        return len(bm.lat.flats)

    flats = minors = 0
    for inst in corpus():
        bm = inst.built
        flats += check(bm)
        for e in range(bm.n):
            flats += check(delete_element(bm, e))
            minors += 1
        for f in bm.lat.flats[1:-1]:
            flats += check(restrict(bm, f)) + check(contract(bm, f))
            minors += 2
    assert (flats, minors) == (57508, 8322)
    u23 = built_from_matroid(make_uniform(2, 3), "min")
    with pytest.raises(NotAFlat):
        u23.factors(0b011)


def test_extend_keeps_the_table_of_its_validating_pass(monkeypatch):
    """extend validates its result as a built matroid, in one pass whose
    table then serves the G-factors and the facets."""
    import chowpoly.building as building

    calls = 0
    table = building._g_factor_table

    def counting_table(lat, s):
        nonlocal calls
        calls += 1
        return table(lat, s)

    bm = built_from_matroid(make_boolean(4), "max")
    top = mask_of([0, 1, 2])
    monkeypatch.setattr(building, "_g_factor_table", counting_table)
    ext = extend(bm, frozenset(f for f in bm.lat.flats if top & ~f == 0))
    for f in ext.lat.flats:
        ext.factors(f)
    maximal_nested_sets(ext)
    assert calls == 1


def test_key_is_relabeling_invariant():
    base = built_from_matroid(make_uniform(2, 4), "min")
    perm = (2, 0, 3, 1)  # ground relabeling: new element i = old perm[i]
    m = make_uniform(2, 4)
    lat = lattice_of_flats(m)

    def remap(mask):
        out = 0
        for i, p in enumerate(perm):
            if mask >> p & 1:
                out |= 1 << i
        return out

    bset = frozenset(remap(f) for f in base.bset)
    order = tuple(perm.index(e) for e in base.order)
    other = BuiltMatroid(lat, bset, order)
    assert base.key() == other.key()
    assert (
        built_from_matroid(make_boolean(3), "min").key()
        != built_from_matroid(make_boolean(3), "max").key()
    )


def test_restrict_contract_boolean_max():
    b4 = built_from_matroid(make_boolean(4), "max")
    b3 = built_from_matroid(make_boolean(3), "max")
    assert restrict(b4, mask_of([0, 1, 2])).key() == b3.key()
    assert contract(b4, mask_of([0])).key() == b3.key()


def test_delete_element():
    b4 = built_from_matroid(make_boolean(4), "max")
    b3 = built_from_matroid(make_boolean(3), "max")
    assert delete_element(b4, 3).key() == b3.key()
    u = built_from_matroid(make_uniform(2, 4), "min")
    u3 = built_from_matroid(make_uniform(2, 3), "min")
    assert delete_element(u, 3).key() == u3.key()


def test_simplify_built_parallel_classes():
    lat = lattice_of_flats(make_uniform(1, 3))
    bm, emap = simplify_built(lat, g_min(lat), (0, 1, 2))
    assert bm.n == 1 and bm.rank == 1


def test_extend_empty_cut_is_coloop():
    bm = built_from_matroid(make_boolean(3), "min")
    ext = extend(bm, frozenset())
    assert ext.n == 4 and ext.rank == 4
    assert delete_element(ext, 3).key() == bm.key()


def test_extend_delete_contract_roundtrips():
    bm = built_from_matroid(make_boolean(4), "max")
    lat = bm.lat
    top = mask_of([0, 1, 2])
    cut = frozenset(f for f in lat.flats if top & ~f == 0)
    ext = extend(bm, cut)
    assert ext.n == 5
    assert delete_element(ext, 4).key() == bm.key()
    new_atom = ext.lat.closure(1 << 4)
    assert contract(ext, new_atom).key() == truncate(bm, cut).key()


def test_extend_rejections():
    bm = built_from_matroid(make_boolean(3), "min")
    lat = bm.lat
    with pytest.raises(ImproperCut):
        extend(bm, frozenset(lat.flats))
    pair = mask_of([0, 1])
    cut = frozenset(f for f in lat.flats if pair & ~f == 0)
    with pytest.raises(NotGCompatible):
        extend(bm, cut)  # minimal element 12 is outside g_min
    atom_cut = frozenset(f for f in lat.flats if 1 & ~f == 0)
    with pytest.raises(CutContainsAtom):
        truncate(built_from_matroid(make_boolean(3), "max"), atom_cut)
    # B2|max along {{0}, {0,1}}: the new element would be parallel to 0
    with pytest.raises(CutContainsAtom) as err:
        extend(built_from_matroid(make_boolean(2), "max"), {0b01, 0b11})
    assert err.value.args == ([0b01],)


def test_extend_atom_cut_is_typed_under_optimize():
    code = (
        "from chowpoly import built_from_matroid, make_boolean\n"
        "from chowpoly.building import extend\n"
        "from chowpoly.errors import CutContainsAtom\n"
        "try:\n"
        "    extend(built_from_matroid(make_boolean(2), 'max'), {0b01, 0b11})\n"
        "except CutContainsAtom as e:\n"
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
    assert proc.stdout == "([1],)\n"


def test_delete_element_results_are_building_sets_on_corpus():
    """delete_element skips validating its result (proof in its docstring):
    here every deletion of every corpus instance gets the full check, and
    its building set, read off G with no closure, is the definition's: the
    nonzero flats F′ of M∖e with cl_M(F′) in G."""
    from chowpoly.corpus import corpus

    deletions = 0
    for inst in corpus():
        bm = inst.built
        for e in range(bm.n):
            d = delete_element(bm, e)
            BuiltMatroid(d.lat, d.bset, d.order)  # simple lattice, order
            assert oracles.validate_building_set_ref(d.lat, d.bset) == d.bset
            low = (1 << e) - 1
            lifts = {f: f & low | (f >> e) << (e + 1) for f in d.lat.flats}
            want = {
                f for f, s in lifts.items() if s and bm.lat.closure(s) in bm.bset
            }
            assert d.bset == want, (inst.name, e)
            deletions += 1
    assert deletions == 990


def test_tl_chain_follows_order():
    bm = built_from_matroid(make_boolean(4), "max")
    assert tl_chain(bm, 0, 0b1111) == [0, 0b0001, 0b0011, 0b0111, 0b1111]
    perm = BuiltMatroid(bm.lat, bm.bset, (3, 1, 0, 2))
    assert tl_chain(perm, 0, 0b1111) == [0, 0b1000, 0b1010, 0b1011, 0b1111]
    assert tl_chain(bm, 0b0010, 0b1011) == [0b0010, 0b0011, 0b1011]


def test_is_complete_fast_equals_definitive():
    cases = [
        built_from_matroid(make_boolean(4), "max"),
        built_from_matroid(make_boolean(4), "min"),
        b4_flag_built(),
        built_from_matroid(make_partition(4), "min"),
        built_from_matroid(make_uniform(3, 5), "min"),
    ]
    for bm in cases:
        assert is_complete(bm) == oracles.is_complete_definitive(bm)


def test_b4_flag_instance_not_complete_for_any_order():
    assert not is_complete(b4_flag_built())
    assert find_complete_order(b4_flag_built()) is None


def test_complete_example_u34():
    bm = BuiltMatroid(
        lattice_of_flats(make_uniform(3, 4)),
        frozenset({0b0001, 0b0010, 0b0100, 0b1000, 0b0011, 0b1111}),
    )
    assert is_complete(bm)
    w = flag_nonface_witness(bm)
    assert w is not None and len(w) == 3


def test_gmax_is_flag_and_complete():
    for m in (make_boolean(4), make_uniform(3, 5), make_partition(4)):
        bm = built_from_matroid(m, "max")
        assert is_flag(bm)
        assert is_complete(bm)


def test_flag_witness_matches_pairwise_search_on_corpus():
    """The union-pruned search returns the very witness of the pairwise
    search, or None with it, on every corpus instance."""
    from chowpoly.corpus import corpus

    verdicts = Counter()
    for inst in corpus():
        w = flag_nonface_witness(inst.built)
        assert w == oracles.flag_nonface_witness_ref(inst.built), inst.name
        verdicts[w is None] += 1
    assert verdicts[True] and verdicts[False]


def test_flag_witness_u34_atoms_plus_full():
    bm = BuiltMatroid(
        lattice_of_flats(make_uniform(3, 4)),
        frozenset({0b0001, 0b0010, 0b0100, 0b1000, 0b1111}),
    )
    w = flag_nonface_witness(bm)
    assert w is not None
    assert w == oracles.flag_nonface_witness_ref(bm)
    j = 0
    for f in w:
        j = bm.lat.join(j, f)
    assert j in bm.bset
    for a in w:
        for b in w:
            if a < b:
                assert bm.lat.join(a, b) not in bm.bset


@pytest.mark.parametrize(
    "name, matroid, counts",
    [
        ("B4", UNIVERSE_HOSTS["B4"], (420, 270, 150)),
        ("U35", UNIVERSE_HOSTS["U35"], (1024, 388, 636)),
        ("Pi4", UNIVERSE_HOSTS["Pi4"], (8, 8, 0)),
    ],
)
def test_flag_witness_on_every_building_set(name, matroid, counts):
    """On every building set of B4, U(3,5) and Π4 the table pass and the
    search name the pairwise search's witness, or None with it; the test
    states how many sets there are, and how many are flag and not."""
    verdicts = Counter()
    sets = universe(matroid)
    for bm in sets:
        w = flag_nonface_witness(bm)
        assert w == oracles.flag_nonface_witness_ref(bm), (name, sorted(bm.bset))
        verdicts[w is None] += 1
    assert (len(sets), verdicts[True], verdicts[False]) == counts


@pytest.mark.parametrize(
    "name, counts",
    [("B4", (73, 0, 197, 150)), ("U35", (247, 265, 141, 371)), ("Pi4", (8, 0, 0, 0))],
)
def test_routes_and_gamma_on_every_building_set(name, counts):
    """The abstract's claims on every building set of B4, U(3,5) and Π4,
    in the natural order: the routes agree; a complete or flag set is
    γ-positive; on a complete set the descent formula and the f-vector of
    Γ give γ; on G_max, Γ is balanced.  The counts are the sets that are
    complete and flag, complete only, flag only and neither."""
    classes = Counter()
    for bm in universe(UNIVERSE_HOSTS[name]):
        where = (name, sorted(bm.bset))
        h = chow_polynomial(bm)
        assert chow_by_deletion(bm) == h, where
        try:
            assert chow_by_filtration(bm) == h, where
        except (NoBinaryFiltration, MixedFactorStep):
            pass
        try:
            assert toric_hilbert_oracle(bm) == h, where
        except TooLarge:
            pass
        complete, flag = is_complete(bm), is_flag(bm)
        classes[complete, flag] += 1
        gam = list(gamma_expansion(h))
        if complete or flag:
            assert is_gamma_positive(h), where
        if complete:
            assert gamma_by_descents_factored(bm) == gam, where
            f, reps = gamma_fvector(bm)
            assert all(r.downward_closed for r in reps) and f == gam, where
        if bm.bset == g_max(bm.lat):
            assert balanced_check(bm, gamma_complex(bm).complex), where
    got = tuple(classes[c, f] for c, f in ((1, 1), (1, 0), (0, 1), (0, 0)))
    assert got == counts


@pytest.mark.parametrize("name", ["Pi7min", "B6max"])
def test_flag_pass_makes_no_join(name, monkeypatch):
    """Flagness is read off the G-factor table: no lattice join on Π7|min
    or B6|max, both flag, once the built matroid exists."""
    from chowpoly.lattice import GeomLattice

    if name == "Pi7min":
        bm = built_from_matroid(make_partition(7), "min")
    else:
        bm = built_from_matroid(make_boolean(6), "max")
    calls = 0
    join = GeomLattice.join

    def counting_join(self, a, b):
        nonlocal calls
        calls += 1
        return join(self, a, b)

    monkeypatch.setattr(GeomLattice, "join", counting_join)
    assert flag_nonface_witness(bm) is None
    assert calls == 0


@pytest.mark.parametrize(
    "lat, bset, error",
    [
        (lattice_of_flats(make_uniform(3, 4)), {1, 2, 4, 8}, MissingIrreducible),
        (
            lattice_of_flats(make_boolean(3)),
            {1, 2, 4, 0b011, 0b110},
            JoinClosureViolation,
        ),
    ],
)
def test_flag_witness_on_a_set_that_is_not_building(lat, bset, error):
    """An unvalidated built matroid whose set is not a building set has no
    G-factor table: reading it raises the typed validation error, and so
    do flagness and every route that reads the table."""
    bm = BuiltMatroid(lat, bset, validate=False)
    with pytest.raises(error):
        bm.factor_table()
    with pytest.raises(ChowpolyError) as info:
        flag_nonface_witness(bm)
    assert type(info.value) is error
    with pytest.raises(error):
        binary_filtration(bm, g_min(lat))
    for call in (
        chow_polynomial,
        maximal_nested_sets,
        toric_hilbert_oracle,
        lambda bm: is_nested(bm, [1]),
    ):
        with pytest.raises(ChowpolyError) as info:
            call(bm)
        assert type(info.value) is error


def test_filtration_min_to_max_b3():
    bm = built_from_matroid(make_boolean(3), "max")
    small = g_min(bm.lat)
    filt = oracles.filtration(bm, small)
    chain = filtration_sets(filt)
    assert chain[0] == small
    assert chain[-1] | {filt.added[-1]} == bm.bset
    for prev, added in zip(chain, filt.added):
        validate_building_set(bm.lat, prev | {added})
    bf = binary_filtration(bm, small)
    for prev, added in zip(filtration_sets(bf), bf.added):
        assert len(bm.factors(added)) >= 1
        assert len(oracles.factors_in(bm.lat, prev, added)) == 2


def test_is_removable_matches_full_validation_on_corpus():
    """The removability verdict on every member of every corpus building
    set and of every building set of B4, U(3,5) and Π4, against full
    validation of the set less that member; on the universes also against
    `oracles.removable_ref`, the criterion before the one split test, for
    the tops too.  The test states the (pairs, removable) counts."""
    from chowpoly.building import _removable
    from chowpoly.corpus import corpus

    sources = [("corpus", [inst.built for inst in corpus()])]
    sources += [(name, universe(host)) for name, host in UNIVERSE_HOSTS.items()]
    counts = {}
    for source, bms in sources:
        pairs = removable = 0
        for bm in bms:
            lat = bm.lat
            small_host = source == "corpus" and bm.n <= 4
            if small_host:
                orank = lambda s, lat=lat: lat.rank_of(lat.closure(mask_of(s)))
                oflats = {set_of(f) for f in lat.flats}
            for g in sorted(bm.bset):
                try:
                    validate_building_set(lat, bm.bset - {g})
                    want = True
                except (MissingIrreducible, JoinClosureViolation):
                    want = False
                tops = _removable(lat, bm.bset, g)
                assert (tops is not None) == want, (source, sorted(bm.bset), g)
                if source != "corpus":
                    assert tops == oracles.removable_ref(lat, bm.bset, g), g
                if small_host:
                    og = sets_of(bm.bset - {g})
                    assert oracles.is_building_set(bm.n, orank, oflats, og) == want
                pairs += 1
                removable += want
        counts[source] = (pairs, removable)
    assert counts == {
        "corpus": (2483, 685),
        "B4": (3878, 1486),
        "U35": (11264, 5120),
        "Pi4": (100, 12),
    }


def test_filtration_keeps_its_steps_not_its_sets():
    """A filtration holds its added flats and their factors, not one set per
    step: on Π6|max (145 steps) what `binary_filtration` leaves live, its
    result included, stays under 0.1 MB (0.93 MB when it kept every set of
    the chain)."""
    bm = built_from_matroid(make_partition(6), "max")
    small = g_min(bm.lat)
    live, _ = traced_peak(lambda: binary_filtration(bm, small))
    assert live < 100_000, live


def test_binary_filtration_matches_reference_greedy_on_corpus():
    from chowpoly.corpus import corpus

    flag = 0
    for inst in corpus():
        bm = inst.built
        try:
            filt = binary_filtration(bm, g_min(bm.lat))
        except NotFlag:
            continue
        flag += 1
        ref = oracles.greedy_binary_chain(bm.lat, bm.bset, g_min(bm.lat))
        assert (filtration_sets(filt), filt.added, filt.factors) == ref, inst.name
    assert flag == 206


def _filtration_or_error(filtrate, bm):
    try:
        filt = filtrate(bm, g_min(bm.lat))
    except ChowpolyError as exc:
        return type(exc), exc.args
    return (filtration_sets(filt), filt.added, filt.factors)


def test_binary_filtration_matches_rescan_reference():
    """Keeping the removable candidates across steps picks what rescanning
    every candidate picks: the same chain, or the same error type and
    witness, on every corpus instance and on B6|max."""
    from chowpoly.corpus import corpus

    cases = [inst.built for inst in corpus()]
    cases.append(built_from_matroid(make_boolean(6), "max"))
    outcomes = Counter()
    for bm in cases:
        got = _filtration_or_error(binary_filtration, bm)
        want = _filtration_or_error(oracles.binary_filtration_rescan_ref, bm)
        assert got == want, bm
        outcomes[got[0] if isinstance(got[0], type) else "chain"] += 1
    assert outcomes == {"chain": 207, NotFlag: 23}


def test_non_binary_step_is_stuck_with_its_step(monkeypatch):
    """A greedy step that adds a flat with more than two factors raises
    Stuck with that (flat, factors) as its witness.  The step is reached
    on a set that is not flag, with the flagness check turned off: on B4
    with {1, 2, 4, 8, 7, 15} the greedy removes 15, factors (8, 7), and
    then 7, factors (1, 2, 4)."""
    import chowpoly.building as building
    from chowpoly.errors import Stuck

    bm = BuiltMatroid(lattice_of_flats(make_boolean(4)), {1, 2, 4, 8, 7, 15})
    monkeypatch.setattr(building, "flag_nonface_witness", lambda bm: None)
    for filtrate in (binary_filtration, oracles.binary_filtration_rescan_ref):
        with pytest.raises(Stuck) as info:
            filtrate(bm, g_min(bm.lat))
        assert info.value.args == ((7, (1, 2, 4)),)


@pytest.mark.parametrize("name", ["B6max", "U(4,7)max"])
def test_binary_filtration_rechecks_only_what_a_removal_changed(
    name, monkeypatch
):
    """The greedy asks `_removable` at most half as often as rescanning
    every candidate at every step (a rescan makes 1653 calls on B6|max and
    1596 on U(4,7)|max)."""
    import chowpoly.building as building

    m = make_boolean(6) if name == "B6max" else make_uniform(4, 7)
    bm = built_from_matroid(m, "max")
    calls = 0
    removable = building._removable

    def counting_removable(lat, bset, g):
        nonlocal calls
        calls += 1
        return removable(lat, bset, g)

    monkeypatch.setattr(building, "_removable", counting_removable)
    counts = []
    for filtrate in (oracles.binary_filtration_rescan_ref, binary_filtration):
        calls = 0
        filtrate(bm, g_min(bm.lat))
        counts.append(calls)
    rescan, incremental = counts
    assert rescan == {"B6max": 1653, "U(4,7)max": 1596}[name]
    assert 2 * incremental <= rescan


def test_structural_check_on_corpus():
    from chowpoly.corpus import corpus

    for inst in corpus():
        bm = inst.built
        assert oracles.building_set_structural_check(bm.lat, bm.bset), inst.name


def test_completeness_stability_spot():
    bm = built_from_matroid(make_partition(4), "min")
    assert is_complete(bm)
    for f in sorted(bm.bset):
        assert is_complete(restrict(bm, f)), f
        assert is_complete(contract(bm, f)), f


def test_flag_stability_spot():
    bm = built_from_matroid(make_uniform(3, 5), "max")
    assert is_flag(bm)
    for f in sorted(bm.bset):
        assert is_flag(restrict(bm, f))
        assert is_flag(contract(bm, f))
    for e in range(bm.n):
        assert is_flag(delete_element(bm, e))


def _fields(bm):
    return (bm.n, bm.lat.flats, bm.lat.ranks, bm.bset, bm.order)


def test_interval_kernel_matches_reference_relabelers_on_corpus():
    """restrict, contract, link_decomposition and simplify_built against the
    four relabelers the interval kernel replaced, field for field."""
    from chowpoly.corpus import corpus

    restricts = contracts = intervals = 0
    for inst in corpus():
        bm = inst.built
        for f in bm.lat.flats:
            assert _fields(restrict(bm, f)) == _fields(oracles.restrict_ref(bm, f))
            assert _fields(contract(bm, f)) == _fields(oracles.contract_ref(bm, f))
            restricts += 1
            contracts += 1
        # the empty nested set and every single non-maximal element
        for s in [()] + [(g,) for g in sorted(bm.bset - set(bm.maxg))]:
            for li in link_decomposition(bm, s):
                built, flat_map = oracles.local_interval_ref(bm, li.bottom, li.top)
                assert _fields(li.built) == _fields(built), (inst.name, s, li.top)
                assert li.flat_map == flat_map, (inst.name, s, li.top)
                intervals += 1
    assert (restricts, contracts, intervals) == (4124, 4124, 4825)

    simplified = 0
    for edges in (
        [(0, 1), (0, 1), (1, 2)],
        [(0, 1), (1, 2), (0, 2), (0, 2), (2, 3), (2, 3), (1, 3)],
        [(0, 1), (0, 1), (0, 1), (1, 2), (1, 2), (0, 2)],
    ):
        lat = lattice_of_flats(make_graphic(edges))
        assert not lat.simple()
        for bset in (g_min(lat), g_max(lat)):
            for order in (tuple(range(lat.n)), tuple(reversed(range(lat.n)))):
                got, got_map = simplify_built(lat, bset, order)
                want, want_map = oracles.simplify_built_ref(lat, bset, order)
                assert _fields(got) == _fields(want) and got_map == want_map
                simplified += 1
    assert simplified == 12


def test_unvalidated_results_are_building_sets_on_corpus():
    """restrict, contract and local intervals skip validating their result,
    and the filtration chain validates only its small end: here every such
    result gets the full check (simple lattice, order, building set)."""
    from chowpoly.corpus import corpus

    built = chained = 0
    for inst in corpus():
        bm = inst.built
        results = [restrict(bm, f) for f in bm.lat.flats]
        results += [contract(bm, f) for f in bm.lat.flats]
        for s in [()] + [(g,) for g in sorted(bm.bset - set(bm.maxg))]:
            results += [li.built for li in link_decomposition(bm, s)]
        for r in results:
            BuiltMatroid(r.lat, r.bset, r.order)
        built += len(results)
        try:
            filt = binary_filtration(bm, g_min(bm.lat))
        except NotFlag:
            continue
        chain = filtration_sets(filt)
        for bset in chain:
            assert validate_building_set(bm.lat, bset) == bset
        chained += len(chain)
    assert (built, chained) == (13073, 1350)
