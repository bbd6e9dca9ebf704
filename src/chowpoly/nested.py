"""Nested set complexes, descent statistics, completion, and the Γ-complex.

A nested set is a frozenset of building-set flats in which every antichain of
size >= 2 has join outside the building set.  Maximal nested sets (facets) are
enumerated by a tree recursion through rank-1 local intervals; the brute-force
subset filter lives in the test oracles.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .building import BuiltMatroid, tl_chain
from .errors import (
    NotIrreducible,
    NotMaximal,
    NotNestedLocal,
    NotUnique,
    RankNotOne,
)
from .lattice import GeomLattice, bits, popcount


def _cache(bm):
    try:
        return bm._nested_cache
    except AttributeError:
        bm._nested_cache = {}
        return bm._nested_cache


def is_nested(bm, s):
    """True iff every antichain of size >= 2 inside s joins outside bset."""
    s = sorted(set(s))
    assert all(f in bm.bset for f in s), "nested sets live inside the building set"
    lat = bm.lat
    for k in range(2, len(s) + 1):
        for a in combinations(s, k):
            if any(
                x & ~y == 0 or y & ~x == 0 for x, y in combinations(a, 2)
            ):
                continue
            j = 0
            for x in a:
                j = lat.join(j, x)
            if j in bm.bset:
                return False
    return True


# ---------------------------------------------------------------------------
# facet enumeration


def _nested_antichains(bm, candidates, target_rank):
    """Antichains of pairwise-disjoint candidates, all sub-joins outside the
    building set, with total join rank == target_rank.

    Disjointness is forced: a meeting incomparable pair would have its join in
    the building set by the join-closure axiom, breaking nestedness.
    """
    lat = bm.lat
    cands = sorted(candidates, key=lambda f: (-lat.rank_of(f), f))
    out = []

    def go(start, chosen, union, subjoins, total, total_rank):
        if total_rank == target_rank:
            out.append(tuple(chosen))
            # adding further disjoint flats would raise the join rank
        for i in range(start, len(cands)):
            c = cands[i]
            if c & union:
                continue
            if total_rank + lat.rank_of(c) > target_rank:
                continue
            new = []
            ok = True
            for j in subjoins:
                nj = lat.join(j, c)
                if nj in bm.bset:
                    ok = False
                    break
                new.append(nj)
            if not ok:
                continue
            nt = lat.join(total, c)
            # nested antichains are rank-additive (their join factors as
            # a direct sum over the antichain)
            if lat.rank_of(nt) != total_rank + lat.rank_of(c):
                continue
            go(
                i + 1,
                chosen + [c],
                union | c,
                subjoins + new + [c],
                nt,
                total_rank + lat.rank_of(c),
            )

    go(0, [], 0, [], 0, 0)
    return out


def _subtree_facets(bm, g):
    """All saturated nested subtrees rooted at g (g included), as frozensets."""
    cache = _cache(bm)
    key = ("subtree", g)
    if key in cache:
        return cache[key]
    lat = bm.lat
    target = lat.rank_of(g) - 1
    below = [h for h in bm.bset if h != g and h & ~g == 0]
    out = []
    for chain_children in _nested_antichains(bm, below, target):
        branches = [_subtree_facets(bm, b) for b in chain_children]
        for combo in product(*branches):
            s = frozenset((g,)).union(*combo)
            out.append(s)
    cache[key] = out
    return out


def maximal_nested_sets(bm):
    """Facets of the reduced nested set complex N (maximal building-set
    elements stripped); for irreducible bm each facet has rank(M)-1 elements.
    Reducible inputs are handled per maximal element and recombined."""
    cache = _cache(bm)
    if "facets" in cache:
        return cache["facets"]
    parts = [_subtree_facets(bm, m) for m in bm.maxg]
    maxset = set(bm.maxg)
    out = []
    for combo in product(*parts):
        s = frozenset().union(*combo) - maxset
        # the recursion checks antichains of siblings; antichains that mix
        # separate subtrees still need the definitional test
        if is_nested(bm, s):
            out.append(s)
    cache["facets"] = out
    return out


def extends_nested(bm, chosen, v):
    """Given nested `chosen`, whether chosen + [v] is still nested.  Only
    antichains through v need checking."""
    lat = bm.lat
    for k in range(1, len(chosen) + 1):
        for a in combinations(chosen, k):
            cand = list(a) + [v]
            if any(
                x & ~y == 0 or y & ~x == 0 for x, y in combinations(cand, 2)
            ):
                continue
            j = 0
            for x in cand:
                j = lat.join(j, x)
            if j in bm.bset:
                return False
    return True


def nested_complex(bm, variant="cN", max_faces=None):
    """The full nested set complex as a SimplicialComplex.

    variant "cN" uses the whole building set as vertices; "N" strips the
    maximal elements.  Faces are enumerated incrementally (downward closure
    makes suffix extension sound); max_faces guards runaway instances.
    """
    if variant == "cN":
        verts = sorted(bm.bset)
    elif variant == "N":
        verts = sorted(bm.bset - set(bm.maxg))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    faces = []

    def go(start, chosen):
        faces.append(frozenset(chosen))
        if max_faces is not None and len(faces) > max_faces:
            raise MemoryError(f"more than {max_faces} faces")
        for i in range(start, len(verts)):
            if extends_nested(bm, chosen, verts[i]):
                go(i + 1, chosen + [verts[i]])

    go(0, [])
    return SimplicialComplex(vertices=tuple(verts), faces=frozenset(faces))


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple
    faces: frozenset  # frozensets; the empty face is implicit in stats


# ---------------------------------------------------------------------------
# local intervals, composition, completion


@dataclass
class LocalInterval:
    """The interval [J^G, G] of a nested set with its contracted building set.

    ``bset_global`` holds the interval building set as global flats; ``built``
    is the same data relabeled to a standalone BuiltMatroid whose elements are
    the covers of the bottom (flat_map sends global flats to built flats).
    """

    bottom: int
    top: int
    bset_global: frozenset
    built: BuiltMatroid
    flat_map: dict


def _shat(bm, s):
    return sorted(set(s) | set(bm.maxg), key=lambda f: (bm.lat.rank_of(f), f))


def _jbottom(bm, shat, g):
    lat = bm.lat
    j = 0
    for h in shat:
        if h != g and h & ~g == 0:
            j = lat.join(j, h)
    return j


def _local_interval(bm, j, g):
    lat = bm.lat
    covers = [c for c in lat.covers(j) if c & ~g == 0]
    order_pos = bm.pos
    keyed = sorted(covers, key=lambda c: min(order_pos[e] for e in bits(c & ~j)))
    by_label = sorted(covers, key=lambda c: min(bits(c & ~j)))
    label = {c: i for i, c in enumerate(by_label)}
    rj = lat.rank_of(j)

    def to_local(f):
        mask = 0
        for c in covers:
            if c & ~f == 0:
                mask |= 1 << label[c]
        return mask

    flats = [
        (to_local(f), lat.rank_of(f) - rj)
        for f in lat.flats
        if j & ~f == 0 and f & ~g == 0
    ]
    bset_global = set()
    for gg in bm.bset:
        x = lat.join(j, gg)
        if x != j and x & ~g == 0:
            bset_global.add(x)
    sub = GeomLattice(len(covers), flats)
    built = BuiltMatroid(
        sub,
        frozenset(to_local(f) for f in bset_global),
        tuple(label[c] for c in keyed),
    )
    return LocalInterval(
        bottom=j,
        top=g,
        bset_global=frozenset(bset_global),
        built=built,
        flat_map={f: to_local(f) for f in sorted(bset_global) + [j, g]},
    )


def link_decomposition(bm, s):
    """Local intervals of a nested set over s plus the maximal elements."""
    assert is_nested(bm, s)
    s = frozenset(s) - set(bm.maxg)
    shat = _shat(bm, s)
    return [_local_interval(bm, _jbottom(bm, shat, g), g) for g in shat]


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
    shat = _shat(bm, s)
    out = set(s)
    for g in shat:
        chosen = local_sets.get(g, ())
        if not chosen:
            continue
        li = _local_interval(bm, _jbottom(bm, shat, g), g)
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
    """Saturate a nested set into a facet: every local interval is filled in
    with its order-least chain and the chain's new factors are adjoined."""
    if not bm.irreducible:
        raise NotIrreducible("completion needs an irreducible built matroid")
    s = frozenset(s) - set(bm.maxg)
    assert is_nested(bm, s)
    shat = _shat(bm, s)
    out = set(s)
    for g in shat:
        j = _jbottom(bm, shat, g)
        chain = tl_chain(bm, j, g)
        for prev, h in zip(chain, chain[1:]):
            out.add(new_factor(bm, h, prev))
    result = frozenset(out) - set(bm.maxg)
    assert len(result) == bm.rank - 1, "completion must be a facet"
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
    lambdas: dict
    parents: dict


def lambda_label(bm, s, g):
    """The order-least ground element whose join with J^g gives g."""
    lat = bm.lat
    shat = _shat(bm, s)
    j = _jbottom(bm, shat, g)
    if lat.rank_of(g) - lat.rank_of(j) != 1:
        raise RankNotOne((j, g))
    for e in bm.order:
        if j >> e & 1:
            continue
        if lat.join(j, lat.flats[lat.atom_of_elem[e]]) == g:
            return e
    raise AssertionError("no generator found for a rank-1 step")


def descent_set(bm, s):
    """Descent data of a maximal nested set (an N-facet).

    Every element of s is descent-eligible; the parent of an element with no
    s-element above it is the top flat, which itself is never a descent.
    """
    if not bm.irreducible:
        raise NotIrreducible("descents need an irreducible built matroid")
    s = frozenset(s) - set(bm.maxg)
    if len(s) != bm.rank - 1 or not is_nested(bm, s):
        raise NotMaximal(sorted(s))
    lat = bm.lat
    full = lat.full
    shat = _shat(bm, s)
    lambdas = {}
    for g in shat:
        lambdas[g] = lambda_label(bm, s, g)
    parents = {}
    for g in s:
        ups = [h for h in shat if h != g and g & ~h == 0]
        parents[g] = min(ups, key=lambda h: lat.rank_of(h))
    pos = bm.pos
    descents = frozenset(
        g for g in s if pos[lambdas[g]] > pos[lambdas[parents[g]]]
    )
    minimal = {g for g in s if not any(x != g and x & ~g == 0 for x in s)}
    bottoms = frozenset(descents & minimal)
    doubles = set()
    for g in descents - minimal:
        below = [x for x in s if x != g and x & ~g == 0]
        children = [
            x for x in below if not any(y != x and x & ~y == 0 for y in below)
        ]
        if children and all(x in descents for x in children):
            doubles.add(g)
    doubles = frozenset(doubles)
    return DescentData(
        descents=descents,
        des=len(descents),
        bottoms=bottoms,
        doubles=doubles,
        stable=not bottoms and not doubles,
        lambdas=lambdas,
        parents=parents,
    )


def descents_have_rank1_local(bm, descents):
    """Whether the descent set, viewed as a nested set, has a local interval
    of rank 1.

    Every unstable facet's descent set has one, so a False answer certifies
    stability; the converse does not hold (stable facets may have rank-1
    local intervals too)."""
    lat = bm.lat
    shat = _shat(bm, descents)
    for g in shat:
        j = _jbottom(bm, shat, g)
        if lat.rank_of(g) - lat.rank_of(j) == 1:
            return True
    return False


def stable_maximal_nested_sets(bm):
    return [s for s in maximal_nested_sets(bm) if descent_set(bm, s).stable]


# ---------------------------------------------------------------------------
# the Γ-complex


@dataclass
class GammaComplexReport:
    complex: SimplicialComplex
    complete: bool
    downward_closed: bool
    closure_violations: list
    unused_vertices: tuple
    foreign_vertices: tuple
    descent_counts: dict  # des value -> number of stable facets


def gamma_complex(bm):
    """Faces are the descent sets of stable facets; vertices are the
    building-set flats outside the bottom chain and the atoms.

    Complete instances yield a downward-closed complex whose f-vector is the
    γ-vector; on incomplete input this still computes, with the defects
    reported in the result instead of raised.
    """
    from .building import is_complete

    if not bm.irreducible:
        raise NotIrreducible("the Γ-complex needs an irreducible built matroid")
    lat = bm.lat
    complete = is_complete(bm)
    chain0 = set(tl_chain(bm, 0, lat.full)[1:])
    vertices = tuple(
        sorted(
            g for g in bm.bset if g not in chain0 and lat.rank_of(g) != 1
        )
    )
    counts = {}
    faces = set()
    for s in maximal_nested_sets(bm):
        dd = descent_set(bm, s)
        if dd.stable:
            faces.add(dd.descents)
            counts[dd.des] = counts.get(dd.des, 0) + 1
    violations = []
    for f in faces:
        for k in range(len(f)):
            for sub in combinations(sorted(f), k):
                if frozenset(sub) not in faces:
                    violations.append((tuple(sorted(f)), sub))
    used = set().union(*faces) if faces else set()
    return GammaComplexReport(
        complex=SimplicialComplex(vertices=vertices, faces=frozenset(faces)),
        complete=complete,
        downward_closed=not violations,
        closure_violations=violations,
        unused_vertices=tuple(sorted(set(vertices) - used)),
        foreign_vertices=tuple(sorted(used - set(vertices))),
        descent_counts=counts,
    )


def gamma_fvector(bm):
    """f-vector of the Γ-complex as a coefficient list, together with the
    per-factor reports.

    Irreducible input gives one report; reducible input factors into the
    maximal building-set elements (the complex of a direct sum is the join of
    the factor complexes, so the f-polynomial is the product)."""
    from .building import restrict
    from .polynomials import pmul

    if bm.irreducible:
        reps = [gamma_complex(bm)]
        out = [1]
        f, _, _, _ = complex_stats(reps[0].complex)
        out = list(f)
    else:
        out = [1]
        reps = []
        for g in bm.maxg:
            rep = gamma_complex(restrict(bm, g))
            f, _, _, _ = complex_stats(rep.complex)
            out = pmul(out, list(f))
            reps.append(rep)
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
    sizes = [len(f) for f in c.faces]
    d = max(sizes, default=0)
    f = [0] * (d + 1)
    f[0] = 1
    for k in sizes:
        if k:
            f[k] += 1
    h = [0] * (d + 1)
    from math import comb

    for i, fi in enumerate(f):
        # f_i (y-1)^(d-i) contributes to y^(d-j)
        for j in range(i, d + 1):
            h[j] += fi * comb(d - i, j - i) * (-1) ** (j - i)
    # flag iff every clique of the 1-skeleton is a face
    faces = set(c.faces)
    verts = sorted(v for fc in faces for v in fc if len(fc) == 1)
    edges = {fc for fc in faces if len(fc) == 2}
    flag = True

    def cliques(start, chosen):
        nonlocal flag
        if len(chosen) >= 3 and frozenset(chosen) not in faces:
            flag = False
            return
        for i in range(start, len(verts)):
            if not flag:
                return
            v = verts[i]
            if all(frozenset((u, v)) in edges for u in chosen):
                cliques(i + 1, chosen + [v])

    cliques(0, [])
    return tuple(f), tuple(h), flag, d - 1
