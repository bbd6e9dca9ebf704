"""Standard matroid families, the augmented built matroid, chordal building
sets on Boolean matroids, and the stable-tree model for M0,n+1 γ-vectors.
"""

from itertools import combinations

from .building import BuiltMatroid, simplify_built
from .errors import BadParameters
from .lattice import Matroid, bits, lattice_of_flats, popcount
from .polynomials import padd, pmul


def make_uniform(r, n):
    if not (1 <= r <= n and n <= 64):
        raise BadParameters(f"uniform({r},{n})")
    full = (1 << n) - 1
    return Matroid(
        n, lambda s: min(r, popcount(s)), lambda s: s if popcount(s) < r else full
    )


def make_boolean(n):
    if not (1 <= n <= 64):
        raise BadParameters(f"boolean({n})")
    return Matroid(n, popcount, lambda s: s)


def make_graphic(edges, n_vertices=None):
    """Cycle matroid of a multigraph given as a list of vertex pairs; loops
    are rejected (the matroid must be loopless).

    Its covers come from one union-find over the flat F.  For the lowest
    edge e = (a, b) outside F, the cover cl(F + e) is

        F | inc(comp(a)) & inc(comp(b)),

    where comp(v) is the component of v in (V, F) and inc(C) the mask of
    the edges with an end in C.  Proof: e is outside the flat F, so it
    joins two components A = comp(a) and B = comp(b).  An edge lies in
    cl(F + e) iff its ends are connected in F + e, that is, iff its ends
    lie in one component of F, and those edges are F itself, or one end
    lies in A and the other in B.  An edge with an end in each of the
    disjoint sets A and B is exactly an edge of inc(A) & inc(B).  Parallel
    edges need no special case: they have the same ends.
    """
    edges = [tuple(e) for e in edges]
    if not edges or any(len(e) != 2 or e[0] == e[1] for e in edges):
        raise BadParameters(f"graphic({edges})")
    verts = sorted({v for e in edges for v in e})
    if n_vertices is not None and n_vertices < len(verts):
        raise BadParameters("n_vertices smaller than the support")
    vid = {v: i for i, v in enumerate(verts)}
    ends = [(vid[a], vid[b]) for a, b in edges]

    def components(s):
        """Union-find over the edges in s: (the root of each vertex's
        component, rank of s)."""
        parent = list(range(len(verts)))
        r = 0
        while s:
            low = s & -s
            a, b = ends[low.bit_length() - 1]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                r += 1
            s ^= low
        root = []
        for v in range(len(verts)):
            while parent[v] != v:
                v = parent[v]
            root.append(v)
        return root, r

    def rank(s):
        return components(s)[1]

    def closure(s):
        """Every edge whose ends the edges of s already connect."""
        root = components(s)[0]
        out = s
        for i, (a, b) in enumerate(ends):
            if root[a] == root[b]:
                out |= 1 << i
        return out

    full = (1 << len(edges)) - 1
    inc = [0] * len(verts)  # vertex -> mask of the edges at it
    for i, (a, b) in enumerate(ends):
        inc[a] |= 1 << i
        inc[b] |= 1 << i

    def covers(f):
        """The covers of the flat f, by the rule above."""
        root = components(f)[0]
        around = [0] * len(verts)  # root -> inc of its component
        for v, x in enumerate(root):
            around[x] |= inc[v]
        out = []
        rest = full & ~f
        while rest:
            low = rest & -rest
            a, b = ends[low.bit_length() - 1]
            g = f | around[root[a]] & around[root[b]]
            out.append(g)
            rest &= ~(g | low)
        return out

    return Matroid(len(edges), rank, closure, covers)


def braid_edges(n):
    """Edges of the complete graph on 1..n in lexicographic order — the ⊴
    used for braid (partition-lattice) built matroids."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def make_partition(n):
    """The rank-(n-1) matroid of the partition lattice Π_n (the cycle matroid
    of the complete graph on n vertices, edges in lexicographic order)."""
    if not (2 <= n <= 10):
        raise BadParameters(f"partition({n})")
    return make_graphic(braid_edges(n))


def built_from_matroid(m, bset="min", order=None):
    """Lattice + building set in one step; non-simple matroids are simplified
    after the building set is validated (elements collapse onto atoms, order
    positions follow the earliest element)."""
    from .building import g_max, g_min, validate_building_set

    lat = lattice_of_flats(m)
    if bset == "min":
        chosen = g_min(lat)
    elif bset == "max":
        chosen = g_max(lat)
    else:
        chosen = frozenset(bset)
    if lat.simple():
        return BuiltMatroid(lat, chosen, order)
    validate_building_set(lat, chosen)
    order = tuple(order) if order is not None else tuple(range(lat.n))
    bm, _ = simplify_built(lat, chosen, order)
    return bm


# ---------------------------------------------------------------------------
# augmented built matroids


def augmented_built_matroid(m, order=None):
    """The free coextension of m with the augmented building set.

    The new element is label 0 (and ⊴-least by default); original element i
    becomes i+1.  The building set consists of every flat of m joined with
    the new element, plus all atoms.
    """
    n, r = m.n, m.rank((1 << m.n) - 1)
    full = (1 << n) - 1

    def rank_dual(s):
        return popcount(s) + m.rank(full & ~s) - r

    # free extension of the dual by a new element f, then dualize back
    rk_dual = n - r

    def rank_ext(s):
        base = rank_dual(s >> 1)
        if s & 1 and base < rk_dual:
            base += 1
        return base

    full_ext = (1 << (n + 1)) - 1

    def rank_aug(s):
        return popcount(s) + rank_ext(full_ext & ~s) - rk_dual

    aug = Matroid(n + 1, rank_aug)
    lat = lattice_of_flats(aug)
    mlat = lattice_of_flats(m)
    bset = {(f << 1) | 1 for f in mlat.flats}
    bset.update(lat.flats[i] for i in lat.by_rank[1])
    if order is None:
        order = tuple(range(n + 1))
    return BuiltMatroid(lat, frozenset(bset), order)


# ---------------------------------------------------------------------------
# chordal building sets on Boolean matroids


def chordal_building_sets(n):
    """All building sets on B_n closed under taking prefixes (initial
    segments of each member); these are exactly the ones complete for the
    natural order.  Enumerated by a forest walk with join-closure
    obligations propagated forward."""
    if not (2 <= n <= 5):
        raise BadParameters(f"chordal_building_sets({n})")
    atoms = [1 << i for i in range(n)]
    nodes = []
    for k in range(2, n + 1):
        for c in combinations(range(n), k):
            nodes.append(sum(1 << i for i in c))
    nodes.sort(key=lambda s: (popcount(s), s))
    prefix = {}
    for s in nodes:
        top = max(bits(s))
        prefix[s] = s & ~(1 << top)  # drop the largest element
    node_set = set(nodes)
    out = []

    def go(i, included, obligations):
        if i == len(nodes):
            if not obligations:
                out.append(frozenset(atoms) | included)
            return
        s = nodes[i]
        must = s in obligations
        can = popcount(prefix[s]) < 2 or prefix[s] in included
        if must and not can:
            return
        if not must:
            go(i + 1, included, obligations)
        if can:
            new_obl = set(obligations) - {s}
            for t in included:
                if t & s and not (t & ~s == 0 or s & ~t == 0):
                    u = t | s
                    assert u in node_set
                    new_obl.add(u)
            go(i + 1, included | {s}, frozenset(new_obl))

    go(0, frozenset(), frozenset())
    return sorted(out, key=lambda g: (len(g), sorted(g)))


# ---------------------------------------------------------------------------
# the stable-tree model for M0,n+1


def m0n_gamma(n):
    """γ-vector of the Poincaré polynomial of M0,n+1: the stable trees on
    the leaves 1..n, counted by descents.

    An internal vertex of a rooted binary tree is labelled with the larger
    of its children's minimal leaves.  A non-root vertex is a descent when
    its label exceeds its parent's; a descent is a bottom when both children
    are leaves, a double when it has internal children and all of them are
    descents.  A tree is stable when it has neither.

    One recursion over (leaf set S, parent label p) counts them: it returns
    the descent polynomials of the subtrees on S with no bottom or double,
    all of them and those whose root is a descent.  Proof: every binary tree
    on S is a root over exactly one split S = A ⊔ B with min S ∈ A and one
    tree on each part.  The root's label is max(min A, min B) = min B, so it
    is a descent iff min B > p.  Each part's descents, bottoms and doubles,
    its root's included, depend only on its tree and on its parent label
    min B; whether the root is a bottom or a double depends only on whether
    it is a descent and on which internal children are descents.  So a
    split contributes the product of its internal children's polynomials,
    and if the root is a descent, t times that product minus the product of
    the children's descent polynomials: the combinations dropped are the
    doubles, or the bottom when both products are empty.  The root starts
    with p = n + 1, above every label, so it is never a descent.
    """
    if not (2 <= n <= 10):
        raise BadParameters(f"m0n_gamma({n})")
    memo = {}  # (S as a mask with leaf i at bit i, p) -> (all, descent)

    def go(s, p):
        if (s, p) not in memo:
            rest = s & (s - 1)  # S without its least leaf, which stays in A
            every, desc = [], []
            b = rest
            while b:
                label = (b & -b).bit_length() - 1
                prod, prod_desc = [1], [1]
                for part in (s ^ b, b):
                    if part & (part - 1):  # an internal child
                        sub, sub_desc = go(part, label)
                        prod, prod_desc = pmul(prod, sub), pmul(prod_desc, sub_desc)
                if label > p:
                    prod = [0, *padd(prod, [-c for c in prod_desc])]
                    desc = padd(desc, prod)
                every = padd(every, prod)
                b = (b - 1) & rest
            memo[s, p] = every, desc
        return memo[s, p]

    try:
        return go(((1 << n) - 1) << 1, n + 1)[0]
    finally:
        del go  # go refers to itself; without this the cycle keeps memo alive
