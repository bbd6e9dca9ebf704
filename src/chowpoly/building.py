"""Building sets on geometric lattices and the built-matroid operations.

A building set is a frozenset of nonzero flats containing every irreducible
flat and closed under joins of meeting pairs.  A BuiltMatroid bundles a simple
lattice, a building set and a total order on the ground elements (the order
drives chain constructions and completeness).
"""

from dataclasses import dataclass, field
from itertools import permutations

from .errors import (
    BadParameters,
    ImproperCut,
    JoinClosureViolation,
    MissingIrreducible,
    NotAFlat,
    NotContained,
    NotFlag,
    NotGCompatible,
    NotSimple,
    CutContainsAtom,
    Stuck,
    TooLarge,
)
from .lattice import (
    GeomLattice,
    ModularCut,
    _g_factor_table,
    bits,
    delete_lattice,
    maximal,
    minimal,
    popcount,
    splits,
    validate_modular_cut,
)


def g_min(lat):
    """The minimal building set: all irreducible flats, the flats whose
    row of `GeomLattice.factor_table` is the flat alone."""
    return frozenset(
        f for f, row in zip(lat.flats, lat.factor_table()) if len(row) == 1
    )


def g_max(lat):
    """The maximal building set: all nonzero flats."""
    return frozenset(f for f in lat.flats if f)


def validate_building_set(lat, s):
    """Check s is a building set on lat; returns it as a frozenset.

    Raises MissingIrreducible(F) or JoinClosureViolation((G, G')) on failure.

    One pass up the covers decides acceptance (`_g_factor_table`), and
    G_min takes none once the lattice holds its factor table.  Only a
    rejected s pays for the scans that name the witness: the first
    irreducible flat missing from s, else the first meeting pair of members
    whose join leaves s, both in sorted order.
    """
    s = frozenset(s)
    _validated_g_factor_table(lat, s)
    return s


def _validated_g_factor_table(lat, s):
    """`_g_factor_table(lat, s)` for a frozenset s, raising as
    `validate_building_set` does unless s is a building set.

    For s = G_min it is the lattice's own factor table, when the lattice
    already holds it: both passes see the same rows of the lower covers in
    (rank, mask) order, so their rows are equal tuple for tuple."""
    for f in s:
        if not lat.is_flat(f):
            raise NotAFlat(f"{f:b} is not a flat")
        if f == 0:
            raise NotAFlat("the bottom flat cannot belong to a building set")
    if lat._factors is not None and s == g_min(lat):
        return lat._factors
    table = _g_factor_table(lat, s)
    if table is None:
        for f in sorted(g_min(lat)):
            if f not in s:
                raise MissingIrreducible(f)
        members = sorted(s)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if a & b and not (a & ~b == 0 or b & ~a == 0):
                    if lat.join(a, b) not in s:
                        raise JoinClosureViolation((a, b))
    return table


def _check_order(order, n):
    """Raise BadParameters unless order is a permutation of 0..n-1."""
    if not all(type(e) is int for e in order) or sorted(order) != list(range(n)):
        raise BadParameters(f"order must permute 0..{n - 1}, got {list(order)}")


class BuiltMatroid:
    """A simple geometric lattice with a building set and a ground order."""

    def __init__(self, lat, bset, order=None, validate=True):
        self.lat = lat
        self.n = lat.n
        self.bset = frozenset(bset)
        self.order = tuple(order) if order is not None else tuple(range(lat.n))
        self._nested_cache = {}  # the G-factor table and chowpoly.nested's tables
        if validate:
            parallel = [lat.flats[i] for i in lat.atoms if popcount(lat.flats[i]) > 1]
            if parallel:
                raise NotSimple(
                    f"built matroids need a simple lattice; elements "
                    f"{list(bits(parallel[0]))} are parallel"
                )
            _check_order(self.order, lat.n)
            self._nested_cache["tops"] = _validated_g_factor_table(lat, self.bset)
        self.pos = {e: i for i, e in enumerate(self.order)}
        self.maxg = tuple(sorted(maximal(self.bset)))
        self.irreducible = lat.full in self.bset
        self.rank = lat.rk

    def factor_table(self):
        """The G-factors of every flat, indexed like lat.flats
        (`_g_factor_table`): the table its validation returned, or the same
        validation on first use for a built matroid that was not
        validated, so a set that is not a building set gets the typed
        error of `validate_building_set`.  An interval or a relabeled copy
        holds the table its build read off the rows of its climb
        (`_interval_build`).

        The order of the entries within a row is not fixed, for a built
        copy's rows follow those it was read off, and no reader depends
        on it: `nested._child_table` sorts a row, `chow.chow_polynomial`
        multiplies over it, `nested._place`, `nested._forest`,
        `_flag_by_factor_table` and the climbs read its length or count
        its entries, `_disjoint_nested` takes a row of two as an unordered
        pair, and `nested.new_factor` tests membership."""
        cache = self._nested_cache
        if "tops" not in cache:
            cache["tops"] = _validated_g_factor_table(self.lat, self.bset)
        return cache["tops"]

    def factors(self, f):
        """The G-factors of the flat f, a row of `factor_table`."""
        i = self.lat.idx.get(f)
        if i is None:
            raise NotAFlat(f"{f:b} is not a flat")
        return self.factor_table()[i]

    def key(self):
        """Canonical relabeling by the order, element order[i] becoming i;
        usable as a memo key.

        The identity order relabels nothing: the key is the sorted flats
        and the sorted building set.  Any other order takes the identity
        key of `relabeled`."""
        n = self.n
        if self.order != tuple(range(n)):
            return self.relabeled().key()
        return (n, tuple(sorted(self.lat.flats)), tuple(sorted(self.bset)))

    def relabeled(self):
        """This built matroid with element order[i] renamed i, so that its
        order is the identity: `_interval_build` of the climb of [0, 1̂]
        with each element labelled by its position in the order, which
        carries the G-factor table into the copy."""
        lat = self.lat
        climb = _interval_climb(lat, self.factor_table(), 0, lat.full, self.pos)
        return _interval_build(lat, self.order, climb)[0]

    def __eq__(self, other):
        return (
            isinstance(other, BuiltMatroid)
            and self.n == other.n
            and self.lat.flats == other.lat.flats
            and self.lat.ranks == other.lat.ranks
            and self.bset == other.bset
            and self.order == other.order
        )

    def __repr__(self):
        return f"BuiltMatroid(n={self.n}, rank={self.rank}, |G|={len(self.bset)})"


def _interval(lat, rows, order, bottom, top):
    """The interval [bottom, top] of lat with its induced building set, as a
    standalone BuiltMatroid; the one relabeling rule of this package.
    rows is the G-factor table of a building set G of lat, indexed like
    lat.flats (`BuiltMatroid.factor_table`).

    - The new elements are the covers of bottom below top, labelled in the
      order of their least new ground element.
    - A flat F of the interval becomes the set of covers below it, with rank
      rk F - rk bottom.
    - An element g of G below top and not below bottom becomes
      bottom ∨ g.
    - The new order lists the covers by the earliest element, in `order`,
      that each one takes in.

    Restriction is [0, F], contraction [F, 1̂], a local interval of a nested
    set [J^g, g], and simplification [0, 1̂] of a non-simple lattice;
    `BuiltMatroid.relabeled` builds [0, 1̂] with labels of its own.
    Returns (built, to_local), where to_local maps every flat of the
    interval to its local mask.

    The flats of [bottom, top] are those reached from bottom by climbing
    covers_up and staying below top: every one of them is the end of a
    maximal chain from bottom, whose steps are covers below top.  An
    interval's covers are the lattice's covers inside it, so the new
    lattice takes them over with no rescan.  Relabeling keeps ranks (less
    rk bottom) and sorts each rank by local mask, and each cover list is
    then sorted by new index, as `GeomLattice._build_covers` yields it.

    The result is not validated, because it cannot fail: the local lattice
    is simple (one label per cover of bottom), the local order permutes the
    labels, and for a building set G, {bottom ∨ g : g ∈ G, g ≤ top, g ≰
    bottom} is a building set of [bottom, top] (Feichtner–Kozlov 2004,
    Prop. 2.8), whose G-factor table the build reads off rows.

    It is `_interval_build` of `_interval_climb`.  The climb finds the local
    masks and the induced set, which fix the memo key of the result when
    order is the identity (`chow.chow_by_deletion`); the build makes the
    lattice, to_local, the order and the G-factor table.
    """
    return _interval_build(lat, order, _interval_climb(lat, rows, bottom, top))


def _interval_climb(lat, rows, bottom, top, label=None):
    """The first half of `_interval`: (n, label, local, reached,
    local_bset, rows), with n the number of new elements, label the new
    label of each element of top ∖ bottom, local the local mask of each
    flat of the interval by lattice index, reached those indices as the
    climb met them, bottom first, local_bset the induced set as local
    masks, and rows as given, for `_interval_build`.

    rows is the G-factor row of every flat of lat by lattice index: each
    member g of G has the row (g,), and any other flat the maximal members
    below it, its G-factors, which split it as a direct sum
    (`lattice._g_factor_table`).  On a `lattice.LiveLattice` the rows are
    those of its root lattice, and an entry x stands for its trace
    x ∩ lat.full.

    The induced set is read off the rows with no join: a flat h of the
    interval lies in {bottom ∨ g : g ∈ G, g ≤ top, g ≰ bottom} iff exactly
    one entry of its row is not below bottom.  Let h = h₁ ⊕ … ⊕ h_m, the
    h_i its G-factors.  Then [0, h] ≅ ∏ [0, h_i], and a member g ≤ h lies
    under one factor h_j, so the join bottom ∨ g is taken factor by factor
    and keeps bottom ∩ h_i in every factor i ≠ j.  It is h only if every
    h_i with i ≠ j lies below bottom, and h_j does not, as g ≰ bottom.
    Conversely, if h_j alone is not below bottom, then bottom ∨ h_j = h,
    with h_j ∈ G, h_j ≤ h ≤ top.  With bottom = 0 the rule gives the
    members below top, the flats whose row is the flat alone.

    A caller may hand over its own label, a bijection from the covers of
    bottom below top onto 0..n-1 that labels each cover's elements alike;
    `BuiltMatroid.relabeled` labels the elements of a simple lattice by
    their positions in its order."""
    flats, covers_up = lat.flats, lat.covers_up
    ib = lat.idx[bottom]
    parts = sorted(
        (flats[j] & ~bottom for j in covers_up[ib] if flats[j] & ~top == 0),
        key=lambda d: d & -d,
    )
    if label is None:
        label = {e: k for k, d in enumerate(parts) for e in bits(d)}
    local = {ib: 0}  # index of a flat of the interval -> its local mask
    reached = [ib]
    for i in reached:  # grows as it goes: a breadth-first climb from bottom
        f, mask = flats[i], local[i]
        for j in covers_up[i]:
            if j not in local and flats[j] & ~top == 0:
                up = mask
                for e in bits(flats[j] & ~f):
                    up |= 1 << label[e]
                local[j] = up
                reached.append(j)
    outside = lat.full & ~bottom
    local_bset = []
    for i in reached[1:]:  # bottom's entries all lie below it
        row = rows[i]
        if len(row) == 1 or len([x for x in row if x & outside]) == 1:
            local_bset.append(local[i])
    return len(parts), label, local, reached, frozenset(local_bset), rows


def _interval_build(lat, order, climb):
    """The second half of `_interval`: (built, to_local) from a climb of
    lat and the order of lat's elements.  The built matroid holds its
    G-factor table, read off the climb's rows with no pass.

    For a flat h of the interval with G-factors h_1..h_m, its factors in
    the induced set are bottom ∨ h_j for each h_j ≰ bottom, and in a
    direct sum bottom ∨ h_j is the set bottom ∪ h_j, taken factor by
    factor as in `_interval_climb`.  These lie in the induced set and are
    disjoint beyond bottom, their ranks over bottom add up to rk h − rk
    bottom (the factors h_j ≤ bottom add nothing), and a member
    bottom ∨ g ≤ h, with g under the factor h_j, lies under bottom ∪ h_j.
    So they split h in the interval and are its maximal members, and a
    member h has the one entry h.  On a `lattice.LiveLattice` the set is bottom ∪
    (h_j ∩ lat.full), a flat of M|{0..k-1} (proof in
    `chow.chow_by_deletion`)."""
    n, label, local, reached, local_bset, rows = climb
    flats, ranks, covers_up, idx = lat.flats, lat.ranks, lat.covers_up, lat.idx
    bottom, rb = flats[reached[0]], ranks[reached[0]]
    outside = lat.full & ~bottom
    reached = sorted(reached, key=lambda i: (ranks[i], local[i]))
    pos = {i: k for k, i in enumerate(reached)}
    sub = GeomLattice._derived(
        n,
        [local[i] for i in reached],
        [ranks[i] - rb for i in reached],
        [sorted(pos[j] for j in covers_up[i] if j in pos) for i in reached],
    )
    to_local = {flats[i]: local[i] for i in reached}
    local_order = tuple(dict.fromkeys(label[e] for e in order if e in label))
    built = BuiltMatroid(sub, local_bset, local_order, validate=False)
    built._nested_cache["tops"] = [
        tuple(local[idx[bottom | (x & outside)]] for x in rows[i] if x & outside)
        for i in reached
    ]
    return built, to_local


def simplify_built(lat, bset, order):
    """Collapse parallel classes: the interval [0, 1̂], whose new elements
    are the atoms of lat.

    Returns (BuiltMatroid, elem_map) where elem_map sends an old element to
    its new label.  bset is validated on lat, raising as
    `validate_building_set` does, and the interval is built from the
    G-factor table of that validation, which the result holds.  If lat
    is already simple this is just a relabeling by identity (the same
    lattice object is reused).
    """
    if lat.simple():
        return BuiltMatroid(lat, bset, order), {e: e for e in range(lat.n)}
    table = _validated_g_factor_table(lat, frozenset(bset))
    _check_order(order, lat.n)
    bm, to_local = _interval(lat, table, order, 0, lat.full)
    elem_map = {
        e: to_local[lat.flats[lat.atom_of_elem[e]]].bit_length() - 1
        for e in range(lat.n)
    }
    return bm, elem_map


def restrict(bm, f):
    """Restriction to the interval [0, f] with the induced building set."""
    if not bm.lat.is_flat(f):
        raise NotAFlat(f"{f:b} is not a flat")
    return _interval(bm.lat, bm.factor_table(), bm.order, 0, f)[0]


def contract(bm, f):
    """Contraction at a flat, simplified: the interval [f, 1̂]."""
    if not bm.lat.is_flat(f):
        raise NotAFlat(f"{f:b} is not a flat")
    return _interval(bm.lat, bm.factor_table(), bm.order, f, bm.lat.full)[0]


def delete_element(bm, e):
    """Single-element deletion (bit e dropped, higher bits shifted down):
    the lattice of `delete_lattice` and the set of `_deleted_bset`."""
    if type(e) is not int or not 0 <= e < bm.n:
        raise BadParameters(f"element {e!r} outside 0..{bm.n - 1}")
    sub, drop = delete_lattice(bm.lat, e)
    kept = _deleted_bset(bm.bset, e, bm.lat.idx)
    # dropping the last element shifts no bit: f ∖ e is already its mask
    bset = kept if e == bm.n - 1 else frozenset(map(drop, kept))
    order = tuple(x if x < e else x - 1 for x in bm.order if x != e)
    return BuiltMatroid(sub, bset, order, validate=False)


def _deleted_bset(bset, e, flats):
    """The deleted building set G∖e, its masks with bit e clear and not
    shifted, given G = bset and flats, a container of the flats of M.

    G∖e is the set of nonzero flats F′ of M∖e with cl_M(F′) in G.  The
    flats of M∖e are the sets f ∖ e of the flats f of M, so G∖e is read off
    G with no closure:

        G∖e = {f ∖ e : f ∈ G, f ∖ e ≠ 0, and not (e ∈ f and f ∖ e
        is a flat of M)}.

    - cl_M(f ∖ e) is f unless e is a coloop of M|f: for e ∉ f, f ∖ e = f;
      for e ∈ f, cl_M(f ∖ e) lies between f ∖ e and f, so it is f ∖ e when
      that is a flat of M and f otherwise.
    - So for f in the right-hand side, cl_M(f ∖ e) = f lies in G, and
      f ∖ e lies in G∖e.  Conversely, for F′ in G∖e, f = cl_M(F′) lies in
      G with f ∖ e = F′ ≠ 0, and f is not F′ + e with F′ a flat, since F′
      would then be its own closure.

    The result needs no validation when G is a building set of the simple
    lattice of M (the BuiltMatroid invariant):
    - M∖e is simple, and the order `delete_element` gives it permutes its
      elements;
    - if F′ is irreducible in M∖e, then M|F′ is connected, and so is
      cl_M(F′), which adds at most e, spanned by F′: cl_M(F′) lies in G;
    - if F′ and H′ in G∖e meet, then cl_M(F′) and cl_M(H′) in G meet, and
      cl_M(cl_{M∖e}(F′ ∪ H′)) = cl_M(F′ ∪ H′) = cl_M(F′) ∨ cl_M(H′) lies
      in G, so the join of F′ and H′ in M∖e lies in G∖e.
    `delete_element` and each step of the deletion chain of
    `chow.chow_by_deletion` take G∖e from here."""
    bit = 1 << e
    return frozenset(
        f & ~bit for f in bset if f & ~bit and not (f & bit and f & ~bit in flats)
    )


def _collar(lat, cutset):
    """The flats outside the cut with a cover inside it."""
    return {
        f
        for f in lat.flats
        if f not in cutset and any(g in cutset for g in lat.covers(f))
    }


def extend(bm, cut):
    """Single-element extension along a modular cut; the new element is
    appended as n and becomes the order-greatest element.

    The cut may be empty (the new element is a coloop).  Raises ImproperCut if
    the bottom flat lies in the cut, NotGCompatible if some minimal cut
    element is outside the building set, and CutContainsAtom if the cut holds
    an atom (the new element would be parallel to it).
    """
    lat = bm.lat
    mc = cut if isinstance(cut, ModularCut) else validate_modular_cut(lat, cut)
    cutset = mc.flats
    if not mc.proper:
        raise ImproperCut("the bottom flat lies in the cut")
    for f in sorted(minimal(cutset)):
        if f not in bm.bset:
            raise NotGCompatible(f)
    atoms = sorted(f for f in cutset if lat.rank_of(f) == 1)
    if atoms:
        raise CutContainsAtom(atoms)
    n = bm.n
    bit = 1 << n
    collar = _collar(lat, cutset)
    flats = []
    for f in lat.flats:
        if f in cutset:
            flats.append((f | bit, lat.rank_of(f)))
        else:
            flats.append((f, lat.rank_of(f)))
            if f not in collar:
                flats.append((f | bit, lat.rank_of(f) + 1))
    big = GeomLattice(n + 1, flats)
    bset = {f | bit if f in cutset else f for f in bm.bset}
    bset.add(big.closure(bit))
    return BuiltMatroid(big, bset, bm.order + (n,))


def truncate(bm, cut):
    """Truncation along a proper nonempty atom-free modular cut.

    Flats in the cut drop rank by one; the collar (flats outside the cut with
    a cover inside it) disappears.  An empty cut is the identity.
    """
    lat = bm.lat
    mc = cut if isinstance(cut, ModularCut) else validate_modular_cut(lat, cut)
    cutset = mc.flats
    if not cutset:
        return bm
    if not mc.proper:
        raise ImproperCut("the bottom flat lies in the cut")
    if not mc.atom_free:
        raise CutContainsAtom(sorted(f for f in cutset if lat.rank_of(f) == 1))
    collar = _collar(lat, cutset)
    flats = [
        (f, lat.rank_of(f) - (1 if f in cutset else 0))
        for f in lat.flats
        if f not in collar
    ]
    sub = GeomLattice(lat.n, flats)
    bset = frozenset(g for g in bm.bset if g not in collar)
    return simplify_built(sub, bset, bm.order)[0]


# ---------------------------------------------------------------------------
# chains and completeness


def tl_chain(bm, f, g):
    """The order-least saturated-ish chain from flat f up to flat g:
    closures of f plus successive order-smallest elements of g - f.
    The returned list starts at f and ends at g."""
    lat = bm.lat
    if not (lat.is_flat(f) and lat.is_flat(g)) or f & ~g:
        raise BadParameters(f"tl_chain needs flats f <= g, got {f:b} and {g:b}")
    elems = sorted(bits(g & ~f), key=lambda e: bm.pos[e])
    chain = [f]
    cur = f
    for e in elems:
        if cur >> e & 1:
            continue
        cur = lat.join(cur, lat.flats[lat.atom_of_elem[e]])
        if cur != chain[-1]:
            chain.append(cur)
    assert chain[-1] == g
    return chain


def complete_witness(bm):
    """The first building-set element (by mask) whose bottom chain leaves
    the set, with the first flat of that chain outside it, or None if the
    built matroid is complete: the one completeness pass of the package.

    A direct sum is complete iff each restriction [0, m] to a maximal
    element m is, so one verdict serves every factor:
    - every member g lies below a maximal element m, and below only one,
      as the maximal elements, the G-factors of the top flat, are
      disjoint;
    - `tl_chain(bm, 0, g)` climbs only through flats below g, adding the
      elements of g in bm.order, whose restriction to m is the order of
      [0, m]: it is the bottom chain of g in the restriction, and it does
      not depend on m;
    - the induced set of [0, m] is the members of bm.bset below m, so the
      chain leaves it where it leaves bm.bset."""
    for g in sorted(bm.bset):
        for x in tl_chain(bm, 0, g)[1:]:
            if x not in bm.bset:
                return g, x
    return None


def is_complete(bm):
    """Whether every building-set element's bottom chain stays inside the
    set (equivalent to checking every interval [F, G] against the
    contracted building set, which the test oracles do)."""
    return complete_witness(bm) is None


def find_complete_order(bm):
    """Search all ground orders for one making the built matroid complete.

    Only for n <= 8; returns the lexicographically least witness or None.
    """
    if bm.n > 8:
        raise TooLarge(f"order search needs n <= 8, got {bm.n}")
    for perm in permutations(range(bm.n)):
        cand = BuiltMatroid(bm.lat, bm.bset, perm, validate=False)
        if is_complete(cand):
            return perm
    return None


# ---------------------------------------------------------------------------
# flagness


def flag_nonface_witness(bm):
    """An antichain of size >= 3 with pairwise joins outside the building set
    whose total join lies inside it, or None if the complex is flag.

    One pass over the G-factor table (`BuiltMatroid.factor_table`) decides
    flagness with no join (`_flag_by_factor_table`); only a non-flag set
    goes on to the search, which names the witness: the first such
    antichain in (rank, mask) order of the members.  A built matroid whose
    set is not a building set gets the typed error of
    `validate_building_set`.

    The pass reads this criterion off the table, whose rows are the
    G-factor sets: every pairwise nested set is nested iff, for every flat
    F outside G whose row B has |B| >= 2 and every member x nested with
    each b in B, F ∪ x is a flat whose row has |B| + 1 entries.  Proof:
    - The factors of a flat partition it.  So an antichain A of G with
      |A| >= 2 is nested iff ∪A is a flat outside G whose row has |A|
      entries, and then the row is A.  If A is nested, its join has the
      G-factors A (Feichtner–Kozlov 2004, Prop. 2.8), and these partition
      it.  Conversely, each a in A lies under one entry of the row, and a
      row entry holding no a would be missing from ∪A, so each of the |A|
      entries holds exactly one a.  It equals that a, because ∪A covers
      it and the other members of A lie in the other, disjoint, entries.
      A sub-antichain of A joining into G would then lie under one a
      while meeting two disjoint ones.
    - A row with two or more entries is outside G, so the nested pairs of
      incomparable members are exactly the rows of length 2, and two
      nested members of a pairwise nested set are comparable or such a
      row.
    - A minimal pairwise nested set C that is not nested holds an antichain
      joining into G, so by minimality it is that antichain, with |C| >= 3.
      For x in C, B = C ∖ x is nested, so ∪B is a flat F outside G with row
      B, and x is nested with every b in B, yet C = B ∪ {x} fails the test
      of the first point.  Conversely, such an F and x make B ∪ {x} a
      pairwise nested antichain that is not nested.  A minimal
      sub-antichain of it joining into G has at least three members and
      pairwise joins outside G, as the search asks, so the search finds
      a witness exactly when the pass rejects.

    The search carries the union of the chosen flats and skips a candidate
    c that meets it.  That skips nothing the pairwise test would accept:
    if c meets a chosen a, then a ∧ c is a nonempty flat, so it is not the
    bottom, and either a and c are comparable or, by the join-closure
    axiom, a ∨ c lies in the building set.  Two disjoint flats of the
    building set are never comparable, so only the join needs a look."""
    if _flag_by_factor_table(bm):
        return None
    lat = bm.lat
    bset = bm.bset
    members = sorted(bset, key=lambda f: (lat.rank_of(f), f))

    def grow(chosen, union, join_so_far, start):
        if len(chosen) >= 3 and join_so_far in bset:
            return list(chosen)
        for i in range(start, len(members)):
            c = members[i]
            if c & union or any(lat.join(a, c) in bset for a in chosen):
                continue
            got = grow(chosen + [c], union | c, lat.join(join_so_far, c), i + 1)
            if got:
                return got
        return None

    try:
        return grow([], 0, 0, 0)
    finally:
        del grow  # grow refers to itself; without this the cycle keeps bm alive


def _flag_by_factor_table(bm):
    """Whether the nested set complex of bm is flag, read off the G-factor
    table in one pass by the criterion proved in `flag_nonface_witness`.

    The nested pairs of incomparable members come from `_disjoint_nested`,
    so the pass makes no join."""
    lat = bm.lat
    members = list(bm.bset)
    nested_with = _disjoint_nested(bm, members)
    table = bm.factor_table()
    for f, row in zip(lat.flats, table):
        if len(row) < 2:
            continue
        common = -1
        for g in row:
            common &= nested_with[g]
        for k in bits(common):
            i = lat.idx.get(f | members[k])
            if i is None or len(table[i]) != len(row) + 1:
                return False
    return True


def _disjoint_nested(bm, members):
    """The nested pairs of disjoint members, as a dict from each member to
    the int bitmask, over positions in members, of the members disjoint
    from it and nested with it.

    Two disjoint members a and b are nested iff a ∪ b is a flat whose
    G-factor row has 2 entries, and that row is then (a, b) (the first
    point of `flag_nonface_witness`), so the pairs are read off the rows
    of length 2 with no join.  Two incomparable members that meet are
    never nested."""
    table = bm.factor_table()
    bit = {g: 1 << k for k, g in enumerate(members)}
    nested_with = dict.fromkeys(members, 0)
    for row in table:
        if len(row) == 2:
            a, b = row
            if a in bit and b in bit:
                nested_with[a] |= bit[b]
                nested_with[b] |= bit[a]
    return nested_with


def is_flag(bm):
    return flag_nonface_witness(bm) is None


# ---------------------------------------------------------------------------
# filtrations between building sets


@dataclass
class Filtration:
    """A chain of building sets from small to big, one flat added per step:
    the set before step i is base.bset plus added[:i]."""

    added: list  # flat added at each step
    factors: list  # its factors in the prior set, sorted by (rank, mask)
    # the small end as a validated built matroid, holding its G-factor table
    base: BuiltMatroid = field(compare=False, repr=False)


def _removal_chain(bm, small, pick):
    """Remove what pick(lat, cur, small) returns until small is left.

    pick returns None or (g, `_removable(lat, cur, g)`), whose tops are the
    factors of g in cur minus g, and g is a member of cur - small, so cur
    holds small all along and the loop ends when it has small's size.  Only
    small, which is caller input, is validated, as the built matroid
    `Filtration.base`: pick returns only elements `_removable` accepts, so
    by the proof in `_removable` every set of the chain is a building
    set."""
    lat = bm.lat
    small = frozenset(small)
    if not small <= bm.bset:
        raise NotContained(sorted(small - bm.bset))
    base = BuiltMatroid(lat, small, bm.order)
    added, factors = [], []
    cur = set(bm.bset)
    while len(cur) > len(small):
        step = pick(lat, cur, small)
        if step is None:
            raise Stuck(sorted(cur - small))
        g, tops = step
        cur.discard(g)
        added.append(g)
        factors.append(tuple(sorted(tops, key=lambda h: (lat.rank_of(h), h))))
    return Filtration(added[::-1], factors[::-1], base)


def _removable(lat, bset, g):
    """The maximal elements of bset strictly below g, as a tuple, when bset
    minus g is still a building set, and None otherwise.

    Requires bset to be a building set that contains g.  Then g is
    removable iff the maximal elements of bset strictly below g are
    pairwise disjoint and split g, the test of `lattice.splits` (the local
    criterion of Feichtner–Kozlov).  Removing g keeps every irreducible
    flat iff g is reducible, and keeps join-closure iff those maximal
    elements are disjoint:
    - a pair a, b of bset − {g} that breaks join-closure has a ∨ b = g,
      because bset is join-closed;
    - if the maximal elements below g are disjoint, two meeting elements
      below g lie under one of them, m, and join inside [0, m]: no such pair;
    - if two of them, m1 and m2, meet, then m1 ∨ m2 is in bset, ≤ g and
      strictly above both, so it is g by maximality: removing g breaks them.
    With disjoint maximal elements, g is reducible iff they split g.  If
    they split g, g is their direct sum (`_g_factor_table`).  If g is
    reducible, bset − {g} is a building set by the above, and its
    G-factors of g, which are those maximal elements, split g."""
    # Descending size: an element is maximal below g iff no earlier maximal
    # element contains it.  Disjoint maximal elements make `union` an exact
    # test for meeting one of them.
    below = sorted(
        (h for h in bset if h != g and h & ~g == 0), key=popcount, reverse=True
    )
    tops = []
    union = 0
    for h in below:
        if h & union:
            if any(h & ~t == 0 for t in tops):
                continue
            return None
        tops.append(h)
        union |= h
    return tuple(tops) if splits(lat, lat.idx[g], tops) else None


def binary_filtration(bm, small):
    """Binary filtration from small up to bm.bset (requires bm flag, as
    `flag_nonface_witness` decides it from the G-factor table).

    Greedily removes a lattice-maximal removable element (smallest mask on
    ties); raises NotFlag if bm is not flag and Stuck if the greedy jams,
    or, with the step (flat, factors) as witness, if a step is not binary.

    A candidate g is removable by the criterion of `_removable`; each
    removal keeps the current set a building set, which is the criterion's
    precondition.

    `_removable(lat, cur, f)` reads only the members of cur strictly below
    f, so a verdict stays valid until one of those is removed.  The greedy
    keeps, between steps, the members of cur - small, the removable ones
    with their tops, and the stale ones: removing g makes stale only the
    flats strictly above g, and only those are asked again.  The pick is
    the least removable mask with no removable mask strictly above it,
    which is min(maximal(removable)); a strict superset is a larger
    integer, so only the masks after it in ascending order can lie above
    it.  The picks, and so the chain and its errors, are those of
    rescanning every candidate at every step.
    """
    witness = flag_nonface_witness(bm)
    if witness is not None:
        raise NotFlag(witness)
    small = frozenset(small)
    rest = set(bm.bset - small)  # cur - small
    stale = list(rest)  # the members of rest with no verdict now
    cand = {}  # a removable member of rest -> its `_removable` tops

    def pick(lat, cur, small):
        nonlocal stale
        for f in stale:
            tops = _removable(lat, cur, f)
            if tops is not None:
                cand[f] = tops
        if not cand:
            return None
        order = sorted(cand)
        g = next(
            g
            for i, g in enumerate(order)
            if not any(g & ~h == 0 for h in order[i + 1 :])
        )
        tops = cand.pop(g)
        # _removal_chain removes g before it asks again
        rest.discard(g)
        stale = [f for f in rest if g & ~f == 0]
        for f in stale:
            cand.pop(f, None)
        return g, tops

    filt = _removal_chain(bm, small, pick)
    for g, tops in zip(filt.added, filt.factors):
        if len(tops) != 2:
            raise Stuck((g, tops))
    return filt
