"""Nested set complexes, descent statistics, completion, and the Γ-complex.

A nested set is a frozenset of building-set flats in which every antichain of
size >= 2 has join outside the building set.  One rule, `_place`, decides
whether a nested family stays nested when it grows by a flat v that no
member contains, from the family's roots (its maximal members) alone:
v's children are the roots below v, and the new roots, the others and
v, must make up a flat whose G-factor row has one entry per new root.
`_forest`, the forest of a family (each member's children, the
maximal members below it), is the fold of `_place` over the members in
(rank, mask) order.  So the join of the children of g, the bottom J^g of
its local interval, is their union, read with no join.  `is_nested` and
the readers of ŝ = s ∪ max G (the descent data, `completion`, `compose`,
`link_decomposition`, `lambda_label`) take their forest from it, and
`nested_subsets`, the one walk over nested subsets, carries the roots of
each subset and places each new vertex on them.  Maximal nested sets
(facets) are enumerated by a tree recursion through rank-1 local
intervals, and the stable facets by the same recursion, pruned as it
goes.  Both give a facet as one tuple of its flats, in the pre-order of
its forest, so a stable facet is the same tuple in both lists; descent
sets, the Γ-complex's faces, are frozensets.  The children a facet can
give g are read off the lower covers of g, one G-factor set per cover,
with no search and no join.

A reducible built matroid is handled in place, one maximal building-set
element m at a time: the facets, the stable pairs and the Γ-complex below
m are those of the restriction [0, m], in the flats of bm, because the
walks read only the flats below m and compare positions in bm.order.  No
restricted copy is built.  Every function that takes a nested set s reads
ŝ = s ∪ max G, so completion and the descent data of a direct sum are
those of its factors side by side, and a facet has rank - |max G|
members.  Only `gamma_complex` refuses a direct sum, because its one
report is one complex; `gamma_fvector` gives one report per maximal
element.  No function here decides completeness: the Γ-reports hold
the complex and its closure defects, and `building.complete_witness`
gives the one verdict, which holds for a direct sum iff it holds below
each m.  The antichain scan, the pruned child-antichain search, the
rank-level scan for lower covers, the brute-force subset filter, the
filter of every facet by its descent data and the route through one
restricted copy per maximal element live in the test oracles.
"""

from dataclasses import dataclass
from itertools import product
from math import comb

from .building import BuiltMatroid, _interval, tl_chain
from .errors import (
    BadParameters,
    NotIrreducible,
    NotMaximal,
    NotNestedLocal,
    NotUnique,
    RankNotOne,
)
from .lattice import bits
from .polynomials import pmul


def is_nested(bm, s):
    """True iff every antichain of size >= 2 inside s joins outside bset,
    decided by the forest test of `_forest`.

    Raises BadParameters when s has flats outside the building set."""
    return _forest(bm, _members(bm, s)) is not None


def _members(bm, s):
    """s as a set, raising BadParameters when it has flats outside the
    building set."""
    s = set(s)
    outside = sorted(f for f in s if f not in bm.bset)
    if outside:
        raise BadParameters(f"{outside} not in the building set")
    return s


def _union(flats):
    u = 0
    for f in flats:
        u |= f
    return u


def _place(idx, table, roots, v):
    """(v's children, the new roots) when the building-set member v joins a
    nested family with the roots (maximal members) roots, none of whose
    members contains v; or None when the family with v is not nested.
    idx and table are `lat.idx` and the G-factor table.  The children are
    the roots below v, and the new roots those not below v followed by v,
    each list in the order of roots.

    The family with v is nested iff the union of the new roots is a flat
    whose G-factor row has one entry per new root.  Only if: the new roots
    are an antichain of the family with v, so nested when it is, and a
    nested antichain passes (the first point of
    `building.flag_nonface_witness`); v alone has the row (v,).  If: the
    criterion of `_forest` holds on the family with v.
    - The new roots are an antichain of G, since no root contains v.  Each
      lies under one G-factor of their union U, and each factor, a part of
      U, holds at least one.  With as many factors as new roots, each
      factor holds exactly one, which is all of it: the factors of U are
      the new roots, and these are disjoint.
    - So a member x that meets v lies below v: x does not contain v, and
      x's root meets v, which the new roots besides v do not, so that root
      lies below v, and x with it.  Two members of the family were
      comparable or disjoint already.
    - By the same argument the members below v lie under roots below v,
      so v's children are the roots below v.  They are a sub-antichain of
      the nested roots, so they pass.  v is below no member, so no other
      child list changes, and the roots become the new roots, which pass.
    """
    kids, up = [], []
    for r in roots:
        (up if r & ~v else kids).append(r)
    up.append(v)
    i = idx.get(_union(up))
    if i is None or len(table[i]) != len(up):
        return None
    return kids, up


def _forest(bm, members):
    """The forest of a family of distinct building-set members, as a dict
    from each member, in (rank, mask) order, to its children, the maximal
    members strictly below it, in that order; or None when the family is
    not nested.  It is the fold of `_place` over the members in that
    order, in which no member contains a later one.

    The family is nested iff every two members are comparable or disjoint,
    and every list C of two or more children, of a member or of the roots
    (the maximal members), has a union that is a flat whose G-factor row
    has |C| entries.  Then the union of a member's children is their join,
    so it is J^g for the member g.
    - An antichain A of G with |A| >= 2 is nested iff ∪A is a flat whose
      row has |A| entries, and then the row is A (the first point of
      `building.flag_nonface_witness`).
    - Necessary: two meeting incomparable members join inside G, and the
      children of a node are a nested antichain.
    - Sufficient: take an antichain A of the family with |A| >= 2, and p
      the lowest node (or the roots) with members of A under two of its
      children c1, c2.  Then ∨A lies below ∪C, whose G-factors are the
      children C, so if ∨A were in G it would lie under one child, which
      would meet the disjoint c1 and c2.
    By `_place`, a prefix of the fold is nested iff every placement so
    far passed, and a member's children, all placed before it, are fixed
    when it is placed.  The test reads only masks and the G-factor table,
    and makes no join."""
    idx, table = bm.lat.idx, bm.factor_table()
    kids, roots = {}, []
    for v in sorted(members, key=lambda f: (bm.lat.rank_of(f), f)):
        placed = _place(idx, table, roots, v)
        if placed is None:
            return None
        kids[v], roots = placed
    return kids


def nested_subsets(bm, verts, min_gap):
    """Stream (subset, gaps) for every nested subset of verts whose members
    each rise at least min_gap in rank over the join of the members below
    them, depth first over verts in (rank, mask) order; gaps[i] is the gap
    of subset[i], and both are tuples in that order.

    A member's gap is fixed when it is placed, because every later vertex
    has at least its rank and so is not below it.  Dropping a member only
    shrinks the joins, so every prefix of an admissible subset is admissible
    and extending each one by later vertices reaches them all.  The walk
    carries the roots of the chosen set and places each later vertex v on
    them (`_place`), which decides whether the set stays nested and gives
    v's children.  The members below v are its children and theirs, so
    their join is the join of the children, whose G-factors are the
    children (Feichtner–Kozlov 2004, Prop. 2.8); ranks add over G-factors
    (`lattice._g_factor_table`), so the gap is rk v minus the sum of the
    children's ranks."""
    idx, table = bm.lat.idx, bm.factor_table()
    rank = {f: bm.lat.rank_of(f) for f in verts}
    verts = sorted(rank, key=lambda f: (rank[f], f))

    def go(start, roots, chosen, gaps):
        yield tuple(chosen), tuple(gaps)
        for i in range(start, len(verts)):
            v = verts[i]
            placed = _place(idx, table, roots, v)
            if placed is None:
                continue
            gap = rank[v] - sum(rank[c] for c in placed[0])
            if gap >= min_gap:
                yield from go(i + 1, placed[1], chosen + [v], gaps + [gap])

    try:
        yield from go(0, [], [], [])
    finally:
        del go  # go refers to itself; without this the cycle keeps bm alive


# ---------------------------------------------------------------------------
# facet enumeration


def _child_table(bm, g):
    """(children, position of λ(g)) for every way to saturate the tree
    below a building-set member g: the children are a nested antichain A
    under g with join of rank rk g - 1, and λ(g) = least(g ∖ ∨A) is the
    label g has in every facet where A are its children.  The first call
    fills the rows of every member at once, so the facets and the stable
    lister share one table.

    The rows are read off the lower covers of g, one row per cover j: the
    G-factors of j, in (-rank, mask) order, and the least position in
    g ∖ j.  A nested antichain is exactly the set of G-factors of its join
    (Feichtner–Kozlov 2004, Prop. 2.8), so A is the factor set of ∨A, a
    lower cover of g; conversely the G-factors of a flat are a nested
    antichain with that flat as join.  So A ↦ ∨A is a bijection from the
    child antichains onto the lower covers.  The lower covers of every
    flat come from one pass that inverts `lat.covers_up`, with no scan of
    a rank level, and the G-factors from `BuiltMatroid.factor_table`.
    The rows are sorted by their (-rank, mask) key tuples, the order of a
    search that adds children in (-rank, mask) order
    (`tests/oracles.py:nested_antichains_ref`)."""
    cache = bm._nested_cache
    if "children" not in cache:
        lat = bm.lat
        flats, ranks, idx = lat.flats, lat.ranks, lat.idx
        tops, pos = bm.factor_table(), bm.pos
        lower = [[] for _ in flats]
        for i, ups in enumerate(lat.covers_up):
            for j in ups:
                lower[j].append(i)
        key = {f: (-ranks[idx[f]], f) for f in bm.bset}.__getitem__
        table = {}
        for h in bm.bset:
            rows = [
                (tuple(sorted(tops[i], key=key)), pos[_least(bm, h & ~flats[i])])
                for i in lower[idx[h]]
            ]
            rows.sort(key=lambda row: [*map(key, row[0])])
            table[h] = rows
        cache["children"] = table
    return cache["children"][g]


def _subtree_facets(bm, g, memo):
    """All saturated nested subtrees below g (g excluded), each a tuple of
    its members in pre-order.  memo keeps, for one enumeration only, the
    subtrees rooted at each child c, the tuples (c, *below): each is built
    once and shared by every row that has c as a child.  A row with one
    child adds that list's tuples, and a row with two or more one
    concatenation per choice of a subtree under each child."""
    out = []
    for children, _ in _child_table(bm, g):
        branches = []
        for c in children:
            if c not in memo:
                memo[c] = [(c, *below) for below in _subtree_facets(bm, c, memo)]
            branches.append(memo[c])
        if len(branches) == 1:
            out += branches[0]
        else:
            out.extend(sum(combo, ()) for combo in product(*branches))
    return out


def maximal_nested_sets(bm):
    """Facets of the reduced nested set complex N (maximal building-set
    elements stripped); for irreducible bm each facet has rank(M)-1 elements.
    Reducible inputs are handled per maximal element and recombined.

    Each facet is a tuple of its flats in the pre-order of its forest: a
    member, then the subtrees of its children, the children in the row
    order of `_child_table`; the trees of a reducible input follow each
    other in the order of bm.maxg.  One memo serves every maximal element,
    so the subtrees rooted at each member are built once.  For irreducible
    bm the list is the top's list of `_subtree_facets`, with no copy.

    Every set built is nested, so none is re-checked.  Take an antichain A
    of size >= 2 in a facet, and p the lowest tree node (or the top flat)
    with elements of A under two of its children, c1 and c2.  The children
    of p are a nested antichain, as are the maximal elements of G, so each
    g in G below their join lies under one child (Feichtner–Kozlov 2004,
    Prop. 2.8); if ∨A were such a g, that child would meet the disjoint c1
    and c2, which is impossible.  So ∨A is not in G."""
    memo = {}
    parts = [_subtree_facets(bm, m, memo) for m in bm.maxg]
    if len(parts) == 1:
        return parts[0]  # the list itself: a copy would double it
    return [sum(combo, ()) for combo in product(*parts)]


def nested_complex(bm, variant="cN"):
    """The full nested set complex as a SimplicialComplex.

    variant "cN" uses the whole building set as vertices; "N" strips the
    maximal elements.  The faces are the subsets of `nested_subsets` with
    gap 1, which every member of a nested set has: its children join below
    it, or they would be an antichain joining in G.
    """
    if variant == "cN":
        verts = sorted(bm.bset)
    elif variant == "N":
        verts = sorted(bm.bset - set(bm.maxg))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    faces = frozenset(frozenset(f) for f, _ in nested_subsets(bm, verts, 1))
    return SimplicialComplex(vertices=tuple(verts), faces=faces)


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple
    faces: frozenset  # frozensets; the empty face is implicit in stats


# ---------------------------------------------------------------------------
# local intervals, composition, completion


@dataclass
class LocalInterval:
    """The interval [J^G, G] of a nested set as a standalone BuiltMatroid
    (relabeled by `building._interval`); flat_map sends the bottom, the top
    and the global flats of the interval's building set to local flats."""

    bottom: int
    top: int
    built: BuiltMatroid
    flat_map: dict


def _local_interval(bm, j, g):
    built, to_local = _interval(bm.lat, bm.factor_table(), bm.order, j, g)
    flat_map = {
        f: m for f, m in to_local.items() if m in built.bset or f in (j, g)
    }
    return LocalInterval(bottom=j, top=g, built=built, flat_map=flat_map)


def _require_nested(bm, s):
    """`_forest` of ŝ = s ∪ max G for a nested set s, raising BadParameters
    otherwise.  ŝ is nested iff s is: the maximal elements are the
    G-factors of the top flat, and every member of s lies under one of
    them.  J^g of a member g of ŝ is the union of its children."""
    forest = _forest(bm, _members(bm, s) | set(bm.maxg))
    if forest is None:
        raise BadParameters(f"{sorted(s)} is not a nested set")
    return forest


def link_decomposition(bm, s):
    """Local intervals [J^g, g] of a nested set s, for g in ŝ = s ∪ max G
    in (rank, mask) order."""
    forest = _require_nested(bm, s)
    return [_local_interval(bm, _union(kids), g) for g, kids in forest.items()]


def new_factor(bm, g, f):
    """The unique building-set factor of g that is not a factor of f."""
    ff = set(bm.factors(f))
    new = [x for x in bm.factors(g) if x not in ff]
    if len(new) != 1:
        raise NotUnique((g, f, tuple(new)))
    return new[0]


def compose(bm, s, local_sets):
    """Glue local nested sets onto s: the union of s with the lifted new
    factors of every local element.  local_sets maps the top flat of each
    local interval to an iterable of global flats inside that interval's
    building set."""
    s = frozenset(s) - set(bm.maxg)
    out = set(s)
    for g, kids in _require_nested(bm, s).items():
        chosen = local_sets.get(g, ())
        if not chosen:
            continue
        li = _local_interval(bm, _union(kids), g)
        local = [li.flat_map.get(h) for h in chosen]
        if any(x is None for x in local):
            raise NotNestedLocal((g, tuple(chosen)))
        if not is_nested(li.built, local):
            raise NotNestedLocal((g, tuple(chosen)))
        for h in chosen:
            out.add(new_factor(bm, h, li.bottom))
    result = frozenset(out) - set(bm.maxg)
    assert is_nested(bm, result)
    return result


def completion(bm, s):
    """Saturate a nested set into a facet: the local interval of every g in
    ŝ = s ∪ max G is filled in with its order-least chain and the chain's
    new factors are adjoined.  The intervals below a maximal element m are
    those of the restriction [0, m], so a direct sum's completion is that
    of each factor side by side: rk m - 1 members below each m, and
    rank - |max G| in all."""
    s = frozenset(s) - set(bm.maxg)
    out = set(s)
    for g, kids in _require_nested(bm, s).items():
        chain = tl_chain(bm, _union(kids), g)
        for prev, h in zip(chain, chain[1:]):
            out.add(new_factor(bm, h, prev))
    result = frozenset(out) - set(bm.maxg)
    assert len(result) == bm.rank - len(bm.maxg), "completion must be a facet"
    assert is_nested(bm, result)
    return result


# ---------------------------------------------------------------------------
# descents


@dataclass
class DescentData:
    descents: frozenset
    des: int
    bottoms: frozenset
    doubles: frozenset
    stable: bool


def _least(bm, mask):
    """The order-least ground element of a nonzero mask."""
    for e in bm.order:
        if mask >> e & 1:
            return e


def lambda_label(bm, s, g):
    """The order-least ground element whose join with J^g gives g, for g in
    ŝ = s ∪ max G of a nested set s.

    When g covers J^g, every element of g outside J^g joins J^g up to g, so
    this is the order-least element of g minus J^g.  Raises BadParameters
    when s is not nested or g is not in ŝ."""
    forest = _require_nested(bm, s)
    if g not in forest:
        raise BadParameters(f"{g} is not in s ∪ max G")
    j = _union(forest[g])
    lat = bm.lat
    if lat.rank_of(g) - lat.rank_of(j) != 1:
        raise RankNotOne((j, g))
    return _least(bm, g & ~j)


def descent_set(bm, s):
    """Descent data of a maximal nested set (an N-facet), which has
    rank - |max G| members.

    Every element of s is descent-eligible; the parent of an element with no
    s-element above it is the maximal element of G above it, which itself
    is never a descent.  Both come from one `_forest` of ŝ: the parent of g
    is the member whose children hold it, and J^g is the union of the
    children of g.  On a facet g covers J^g, so λ(g) is the order-least
    element of g ∖ J^g.
    """
    s = frozenset(s) - set(bm.maxg)
    forest = None
    if len(s) == bm.rank - len(bm.maxg):
        forest = _forest(bm, _members(bm, s) | set(bm.maxg))
    if forest is None:
        raise NotMaximal(sorted(s))
    parents = {c: g for g, kids in forest.items() for c in kids}
    lambdas = {g: _least(bm, g & ~_union(kids)) for g, kids in forest.items()}
    pos = bm.pos
    descents = frozenset(
        g for g in s if pos[lambdas[g]] > pos[lambdas[parents[g]]]
    )
    bottoms = frozenset(g for g in descents if not forest[g])
    doubles = frozenset(
        g
        for g in descents
        if forest[g] and all(c in descents for c in forest[g])
    )
    return DescentData(
        descents=descents,
        des=len(descents),
        bottoms=bottoms,
        doubles=doubles,
        stable=not bottoms and not doubles,
    )


def stable_descent_sets(bm):
    """(facet, descent set) for every stable facet, each once: the product,
    over the maximal elements m of G in the order of bm.maxg, of
    `_stable_pairs(bm, m)`.  A facet of a direct sum is the concatenation
    of one facet below each m, as in `maximal_nested_sets`, so a stable
    facet is the same tuple in both lists.  Its descent set is the union
    of theirs, because the parents, and so the descents, of the members
    below m are read below m; it is stable iff every part is.  For
    irreducible bm the result is the cached tuple itself."""
    parts = [_stable_pairs(bm, m) for m in bm.maxg]
    if len(parts) == 1:
        return parts[0]
    return tuple(
        (sum((f for f, _ in combo), ()), frozenset().union(*(d for _, d in combo)))
        for combo in product(*parts)
    )


def _stable_pairs(bm, m):
    """(facet, descent set) for every stable facet of the interval [0, m]
    of a maximal building-set element m, each once, in the order the
    recursion below builds them.  The facet is the tuple that
    `maximal_nested_sets` lists for it below m, read off the tree in the
    same pre-order; the descent set is a frozenset.

    A facet is a tree: the children of g are the maximal facet elements
    below it, one antichain of `_child_table(bm, g)`, which also fixes λ(g).
    So whether g is a descent depends only on that entry and on the
    position p of its parent's λ, and whether g is a bottom or a double only
    on that and on which of its children are descents.  The recursion walks
    the tree of `_subtree_facets` with the state (g, p) and returns the
    stable subtrees below g, memoised on (g, p).  Under a descent it drops
    every choice of subtrees whose roots are all descents: a double, or a
    bottom when there are no children.  The root m, which is never a
    descent, starts with p past every position.  Every subtree it keeps is
    stable and every stable subtree is built, once, so no unstable facet is
    listed.  A subtree is the node (g, g is a descent, child subtrees),
    which shares its children with every other subtree built on them; each
    stable facet is read off its tree once, at the end, in pre-order, by
    going down the first child of each node and saving its later siblings.
    No flattened tuple is kept per state, so the memo holds only nodes.

    A row with one child, which is every row of a maximal building set,
    keeps each stable subtree of that child, except, under a descent, one
    whose root is a descent, since g would be a double; the walk reads
    that off the one child with no `product` and no `all`.

    The walk reads only the flats below m and compares positions in
    bm.order, whose restriction to m is the order of the restriction
    [0, m]: its pairs are those of that restriction, in the flats of bm,
    with no restricted copy built.  The pairs are cached per m, so the
    descent formula, the Γ-complex and the ψ-fibers share one recursion."""
    cache = bm._nested_cache
    key = "stable", m
    if key not in cache:
        memo = {}

        def go(g, p):
            if (g, p) not in memo:
                out = []
                for children, lpos in _child_table(bm, g):
                    desc = lpos > p
                    if len(children) == 1:
                        for sub in go(children[0], lpos):
                            if not (desc and sub[1]):  # else a double
                                out.append((g, desc, (sub,)))
                        continue
                    for combo in product(*[go(c, lpos) for c in children]):
                        if desc and all(sub[1] for sub in combo):
                            continue  # a double, or a bottom if no children
                        out.append((g, desc, combo))
                memo[g, p] = out
            return memo[g, p]

        try:
            trees = go(m, bm.n)
        finally:
            del go  # go refers to itself; without this the cycle keeps bm alive
        pairs = []
        for _, _, combo in trees:
            flats, descents = [], []
            stack = [combo]  # tuples of sibling nodes, the next one first
            while stack:
                sub = stack.pop()
                while sub:  # down the first node, its later siblings saved
                    if len(sub) > 1:
                        stack.append(sub[1:])
                    g, desc, sub = sub[0]
                    flats.append(g)
                    if desc:
                        descents.append(g)
            pairs.append((tuple(flats), frozenset(descents)))
        cache[key] = tuple(pairs)
    return cache[key]


def stable_maximal_nested_sets(bm):
    return [s for s, _ in stable_descent_sets(bm)]


# ---------------------------------------------------------------------------
# the Γ-complex


@dataclass
class GammaComplexReport:
    complex: SimplicialComplex
    downward_closed: bool
    closure_violations: list
    unused_vertices: tuple
    foreign_vertices: tuple
    descent_counts: dict  # des value -> number of stable facets


def gamma_complex(bm):
    """Faces are the descent sets of stable facets; vertices are the
    building-set flats outside the bottom chain and the atoms.

    Complete instances yield a downward-closed complex whose f-vector is the
    γ-vector; on incomplete input this still computes, and the report names
    its defects instead of raising: the faces whose one-smaller subsets are
    no faces, the vertices no face uses, and the face members that are no
    vertices.  Completeness is not decided here: `building.is_complete`
    decides it once for the instance.  It is `_gamma_report` below the top
    flat.
    """
    if not bm.irreducible:
        raise NotIrreducible("the Γ-complex needs an irreducible built matroid")
    return _gamma_report(bm, bm.lat.full)


def _gamma_report(bm, m):
    """The Γ-complex of the interval [0, m] of a maximal building-set
    element m, in the flats of bm: its members, its bottom chain and its
    stable pairs are those of bm below m."""
    lat = bm.lat
    chain0 = set(tl_chain(bm, 0, m)[1:])
    vertices = tuple(
        g
        for g in sorted(bm.bset)
        if g & ~m == 0 and g not in chain0 and lat.rank_of(g) != 1
    )
    counts = {}
    faces = set()
    for _, d in _stable_pairs(bm, m):
        faces.add(d)
        counts[len(d)] = counts.get(len(d), 0) + 1
    violations = _closure_violations(faces)
    used = set().union(*faces) if faces else set()
    return GammaComplexReport(
        complex=SimplicialComplex(vertices=vertices, faces=frozenset(faces)),
        downward_closed=not violations,
        closure_violations=violations,
        unused_vertices=tuple(sorted(set(vertices) - used)),
        foreign_vertices=tuple(sorted(used - set(vertices))),
        descent_counts=counts,
    )


def _closure_violations(faces):
    """The pairs (face, face - v) of a family of faces whose second member
    is no face.  A family is downward closed, every subset of a face a
    face, iff there are none: a proper subset s of a face f lies in f - v
    for each v of f outside s, a smaller face, so by induction on |f| it
    is a face."""
    return [
        (tuple(sorted(f)), tuple(sorted(f - {v})))
        for f in faces
        for v in f
        if f - {v} not in faces
    ]


def gamma_fvector(bm):
    """f-vector of the Γ-complex as a coefficient list, together with the
    per-factor reports.

    One report per maximal building-set element m, `_gamma_report(bm, m)`:
    irreducible input gives one, and the complex of a direct sum is the
    join of the factor complexes, so the f-polynomial is the product.  The
    f-vector is padded with zeros to the γ length (rank - |max G|)//2 + 1."""
    reps = [_gamma_report(bm, m) for m in bm.maxg]
    out = [1]
    for rep in reps:
        out = pmul(out, _f_vector(rep.complex.faces))
    want = (bm.rank - len(bm.maxg)) // 2 + 1
    out = out + [0] * (want - len(out))
    return out, reps


def balanced_check(bm, complex_):
    """Proper ⌊rank/2⌋-coloring on every face of the complex."""
    lat = bm.lat
    for f in complex_.faces:
        colors = [lat.rank_of(v) // 2 for v in f]
        if len(set(colors)) != len(colors):
            return False
    return True


def complex_stats(c):
    """(f_vector, h_vector, is_flag, dim) of a simplicial complex.

    f is cardinality-indexed with f_0 = 1 for the empty face; h comes from the
    standard base change sum f_i (y-1)^(d-i) = sum h_i y^(d-i).
    """
    f = _f_vector(c.faces)
    d = len(f) - 1
    h = [0] * (d + 1)
    for i, fi in enumerate(f):
        # f_i (y-1)^(d-i) contributes to y^(d-j)
        for j in range(i, d + 1):
            h[j] += fi * comb(d - i, j - i) * (-1) ** (j - i)
    return tuple(f), tuple(h), _flag_by_masks(c.faces), d - 1


def _f_vector(faces):
    """The face counts by size, f[0] = 1 for the empty face, as a list as
    long as the largest face plus one."""
    f = [1] + [0] * max(map(len, faces), default=0)
    for fc in faces:
        if fc:
            f[len(fc)] += 1
    return f


def _flag_by_masks(faces):
    """Flag iff every clique of the 1-skeleton (the 1-faces, joined by the
    2-faces between them) is a face, decided with adjacency bitmasks.

    It is enough that f + v is a face for every face f that is a clique and
    every vertex v adjacent to all of f.  Then a clique C of size k >= 3 is
    a face, by induction on k: C minus one vertex is a clique of size k - 1,
    so an edge or, by induction, a face, and the vertex left out is adjacent
    to all of it.  The complex need not be downward closed."""
    verts = sorted(v for fc in faces if len(fc) == 1 for v in fc)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    near = dict.fromkeys(verts, 0)  # a vertex -> the mask of its neighbours
    for fc in faces:
        if len(fc) == 2 and all(v in bit for v in fc):
            a, b = fc
            near[a] |= bit[b]
            near[b] |= bit[a]
    for fc in faces:
        if len(fc) < 2 or not all(v in bit for v in fc):
            continue
        mask = 0
        common = -1  # the vertices adjacent to all of fc
        for v in fc:
            mask |= bit[v]
            common &= near[v]
        if any(mask & ~near[v] != bit[v] for v in fc):
            continue  # not a clique
        if any(fc | {verts[i]} not in faces for i in bits(common)):
            return False
    return True
