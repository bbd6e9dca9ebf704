"""Standard matroid families, the augmented built matroid, chordal building
sets on Boolean matroids, the stable-tree model for M0,n+1 γ-vectors, and
Keel's recursion for its Poincaré polynomials.
"""

from math import comb

from .building import (
    BuiltMatroid,
    g_max,
    g_min,
    simplify_built,
)
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


def make_graphic(edges):
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
    lat = lattice_of_flats(m)
    if bset == "min":
        chosen = g_min(lat)
    elif bset == "max":
        chosen = g_max(lat)
    else:
        chosen = frozenset(bset)
    if lat.simple():
        return BuiltMatroid(lat, chosen, order)
    order = tuple(order) if order is not None else tuple(range(lat.n))
    return simplify_built(lat, chosen, order)[0]


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
    obligations propagated forward.

    The walk decides the nodes (subsets of two or more elements) in
    (size, mask) order and keeps the nodes taken and the nodes owed as int
    masks over the node indices.  A node can be taken when its prefix (the
    node less its largest element) is an atom or has been taken; taking it
    owes the union with every taken node it overlaps without containment,
    and that union has more than two elements, so it is a later node."""
    if not (2 <= n <= 5):
        raise BadParameters(f"chordal_building_sets({n})")
    atoms = frozenset(1 << i for i in range(n))
    nodes = [s for s in range(1 << n) if popcount(s) >= 2]
    nodes.sort(key=lambda s: (popcount(s), s))
    index = {s: i for i, s in enumerate(nodes)}
    need = []  # node -> bit of its prefix node, 0 when the prefix is an atom
    clash = []  # node -> [(bit of an earlier node it overlaps, bit of their union)]
    for s in nodes:
        pre = s & ~(1 << (s.bit_length() - 1))  # drop the largest element
        need.append(1 << index[pre] if pre in index else 0)
        clash.append(
            [
                (1 << index[t], 1 << index[t | s])
                for t in nodes[: index[s]]
                if t & s and t & ~s and s & ~t
            ]
        )
    out = []

    def go(i, taken, owed):
        if i == len(nodes):
            if not owed:
                out.append(atoms | {nodes[k] for k in bits(taken)})
            return
        bit = 1 << i
        must = owed & bit
        can = not need[i] or taken & need[i]
        if must and not can:
            return
        if not must:
            go(i + 1, taken, owed)
        if can:
            new_owed = owed & ~bit
            for tbit, ubit in clash[i]:
                if taken & tbit:
                    new_owed |= ubit
            go(i + 1, taken | bit, new_owed)

    go(0, 0, 0)
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

    One recursion over (k, m) counts them: it gives the descent polynomials
    of the subtrees with no bottom or double on a leaf set S of k leaves
    under a parent label p, of which m leaves lie below p, all of them and
    those whose root is a descent.  Proof:
    - every binary tree on S is a root over exactly one split S = A ⊔ B
      with min S ∈ A and one tree on each part.  The root's label is
      max(min A, min B) = min B, so it is a descent iff min B > p;
    - each part's descents, bottoms and doubles, its root's included,
      depend only on its tree and on its parent label min B; whether the
      root is a bottom or a double depends only on whether it is a descent
      and on which internal children are descents.  So a split
      contributes the product of its internal children's polynomials, and
      if the root is a descent, t times that product minus the product of
      the children's descent polynomials: the combinations dropped are the
      doubles, or the bottom when both products are empty;
    - the polynomials depend on S and p only through the order type of S
      against p, that is through (k, m): the tree data compare labels,
      which are leaves of S, with each other and with p, and relabelling
      S ∪ {p} in order keeps every comparison;
    - a split is fixed, up to that order type, by the rank i >= 2 of min B
      in S and the number j of the k - i leaves above min B that go to A.
      The C(k - i, j) splits with one (i, j) have children of one order
      type each: A holds the i - 1 leaves below min B and j more, so it is
      (i - 1 + j, i - 1), and B, whose parent label is its own least leaf,
      is (k - i - j + 1, 0).  The root is a descent iff min B > p, iff
      i > m;
    - the root has p = n + 1, above every leaf, so the top call is (n, n),
      and its root is never a descent.
    That is O(n^2) states, filled in order of k, each over O(n^2) splits.
    """
    if not (2 <= n <= 10):
        raise BadParameters(f"m0n_gamma({n})")
    table = {}  # (k, m) -> (all, descent), for k >= 2
    for k in range(2, n + 1):
        for m in range(k + 1):
            every, desc = [], []
            for i in range(2, k + 1):
                for j in range(k - i + 1):
                    prod, prod_desc = [1], [1]
                    for part in ((i - 1 + j, i - 1), (k - i - j + 1, 0)):
                        if part[0] >= 2:  # an internal child
                            sub, sub_desc = table[part]
                            prod, prod_desc = pmul(prod, sub), pmul(prod_desc, sub_desc)
                    if i > m:
                        prod = [0, *padd(prod, [-c for c in prod_desc])]
                    term = [comb(k - i, j) * c for c in prod]
                    if i > m:
                        desc = padd(desc, term)
                    every = padd(every, term)
            table[k, m] = every, desc
    return table[n, n][0]


def m0n_poincare_keel(n):
    """The Poincaré polynomial of M0,n+1 by Keel's recursion (Keel 1992),
    with P_m that of M0,m:

        P_3 = 1,
        P_(m+1) = (1+q) P_m + (q/2) * sum over j = 2..m-2 of
                  C(m, j) * P_(j+1) * P_(m-j+1).

    Row n of the table is P_(n+1).  The sum is halved exactly: its terms j
    and m - j are equal, and when j = m - j the coefficient C(m, m/2) is
    even.
    """
    if n < 2:
        raise BadParameters(f"m0n_poincare_keel({n})")
    p = {3: [1]}
    for m in range(3, n + 1):
        twice = []
        for j in range(2, m - 1):
            term = pmul([comb(m, j)], pmul(p[j + 1], p[m - j + 1]))
            twice = padd(twice, term)
        p[m + 1] = padd(pmul([1, 1], p[m]), [0, *(c // 2 for c in twice)])
    return p[n + 1]
