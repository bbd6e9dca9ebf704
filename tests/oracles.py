"""Brute-force reference implementations used to pin expected values.

Everything here is deliberately naive: subsets are filtered by the literal
definitions, with no shared code, no caching tricks and no clever recursions,
so that agreement with the package is meaningful.  Sets of ground elements are
frozensets of ints; a "flat family" is a frozenset of frozensets.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

# ---------------------------------------------------------------------------
# rank functions and flats


def uniform_rank(r):
    return lambda s: min(r, len(s))


def boolean_rank(s):
    return len(s)


def graphic_rank(edges):
    """Rank of an edge subset = vertices touched minus components (union-find)."""

    def rank(s):
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        verts = set()
        for i in s:
            verts.update(edges[i])
        for v in verts:
            parent[v] = v
        comps = len(verts)
        for i in s:
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        return len(verts) - comps

    return rank


def flats_rank_ref(n, flat_lists):
    """The rank function of a `flats` spec by a full scan: every flat is
    looked at, and the height of the smallest one holding the set is kept,
    the earliest in (size, mask) order on a tie."""
    flats = sorted(
        {sum(1 << i for i in ix) for ix in flat_lists},
        key=lambda m: (bin(m).count("1"), m),
    )
    height = {}
    for f in flats:
        below = [g for g in flats if g != f and g & ~f == 0]
        height[f] = 1 + max((height[g] for g in below), default=-1)

    def rank(s):
        best = None
        for f in flats:
            size = bin(f).count("1")
            if s & ~f == 0 and (best is None or size < bin(best).count("1")):
                best = f
        if best is None:
            raise ValueError(f"no flat contains subset {s:b}")
        return height[best]

    return rank


def matroid_of_flats_ref(n, family):
    """The ranks, one per subset mask, of the matroid on range(n) whose flats
    are exactly family (a set of masks), or None when there is none.

    By the definitions: the family must be closed under intersection, so
    each subset has a least flat holding it; the height of that flat (the
    longest chain of flats below it) is the subset's rank; that rank
    function must satisfy the rank axioms, and its flats, the sets no
    element outside raises the rank of, must be the family."""
    family = set(family)
    if any(f & g not in family for f in family for g in family):
        return None
    height = {}
    for f in sorted(family, key=lambda m: bin(m).count("1")):
        below = [height[g] for g in family if g != f and g & ~f == 0]
        height[f] = 1 + max(below, default=-1)
    full = (1 << n) - 1
    ranks = []
    for s in range(1 << n):
        least = full
        for f in family:
            if s & ~f == 0:
                least &= f
        ranks.append(height[least])
    for s in range(1 << n):
        if not 0 <= ranks[s] <= bin(s).count("1"):
            return None
        for t in range(1 << n):
            if ranks[s] + ranks[t] < ranks[s | t] + ranks[s & t]:
                return None
            if s & ~t == 0 and ranks[s] > ranks[t]:
                return None
    closed = {
        s
        for s in range(1 << n)
        if all(ranks[s | 1 << e] > ranks[s] for e in range(n) if not s >> e & 1)
    }
    return ranks if closed == family else None


def partition_edges(n):
    """Edges of the complete graph on [n] in lexicographic order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def closure_of(n, rank, s):
    s = frozenset(s)
    return frozenset(e for e in range(n) if rank(s | {e}) == rank(s))


def all_flats(n, rank):
    out = set()
    for k in range(n + 1):
        for s in combinations(range(n), k):
            if closure_of(n, rank, s) == frozenset(s):
                out.add(frozenset(s))
    return out


def join_of(n, rank, f, g):
    return closure_of(n, rank, f | g)


# ---------------------------------------------------------------------------
# building sets, by the literal definitions


def is_irreducible_flat(n, rank, flats, f):
    """No split of f into two nonempty flats with additive rank."""
    if rank(f) == 0:
        return False
    for k in range(1, len(f)):
        for a in combinations(sorted(f), k):
            a = frozenset(a)
            b = f - a
            if a in flats and b in flats and rank(a) + rank(b) == rank(f):
                return False
    return True


def min_building_set(n, rank, flats):
    return frozenset(f for f in flats if is_irreducible_flat(n, rank, flats, f))


def is_building_set(n, rank, flats, g):
    gmin = min_building_set(n, rank, flats)
    if not gmin <= g:
        return False
    for a, b in combinations(g, 2):
        if a & b and not (a <= b or b <= a):
            if join_of(n, rank, a, b) not in g:
                return False
    return True


def greedy_binary_chain(lat, big, small):
    """The greedy of binary filtrations with a full validation per candidate.

    Works on bitmask flats of a package lattice.  From big down to small, it
    drops the lattice-maximal removable flat with the smallest mask, where f
    is removable when `validate_building_set` accepts the current set minus
    f.  Returns (bsets, added, factors) from small up to big, with factors[i]
    the maximal elements of bsets[i] below added[i], sorted by (rank, mask);
    returns None when no flat can be removed.
    """
    from chowpoly.building import validate_building_set
    from chowpoly.errors import JoinClosureViolation, MissingIrreducible

    def passes(s):
        try:
            validate_building_set(lat, s)
        except (MissingIrreducible, JoinClosureViolation):
            return False
        return True

    chain = [frozenset(big)]
    while chain[-1] != small:
        cur = chain[-1]
        cand = [f for f in cur - small if passes(cur - {f})]
        if not cand:
            return None
        maxima = [f for f in cand if not any(g != f and f & ~g == 0 for g in cand)]
        chain.append(cur - {min(maxima)})
    chain.reverse()
    added = [next(iter(b - a)) for a, b in zip(chain, chain[1:])]
    factors = [tuple(factors_in(lat, prev, f)) for prev, f in zip(chain, added)]
    return chain, added, factors


def binary_filtration_rescan_ref(bm, small):
    """`building.binary_filtration` as it was before it kept its verdicts:
    every step asks `_removable` again for every candidate left."""
    from chowpoly.building import (
        _removable,
        _removal_chain,
        flag_nonface_witness,
    )
    from chowpoly.errors import NotFlag, Stuck
    from chowpoly.lattice import maximal

    witness = flag_nonface_witness(bm)
    if witness is not None:
        raise NotFlag(witness)

    def pick(lat, cur, small):
        verdicts = {f: _removable(lat, cur, f) for f in cur - small}
        cand = [f for f, tops in verdicts.items() if tops is not None]
        if not cand:
            return None
        g = min(maximal(cand))
        return g, verdicts[g]

    filt = _removal_chain(bm, small, pick)
    for g, tops in zip(filt.added, filt.factors):
        if len(tops) != 2:
            raise Stuck((g, tops))
    return filt


# ---------------------------------------------------------------------------
# nested sets


def nested_antichains_ref(bm, candidates, target_rank):
    """(antichain, join) for the antichains of pairwise-disjoint candidates,
    all sub-joins outside the building set, with total join rank ==
    target_rank, in the order of a depth-first search over the candidates
    in (-rank, mask) order; each antichain is a tuple in that order.

    This is the pruned search the facet enumerator used before it read the
    child antichains off the lower covers.  Disjointness is forced: a
    meeting incomparable pair would have its join in the building set by
    the join-closure axiom, breaking nestedness.
    """
    lat = bm.lat
    cands = sorted(candidates, key=lambda f: (-lat.rank_of(f), f))
    out = []

    def go(start, chosen, union, subjoins, total, total_rank):
        if total_rank == target_rank:
            out.append((tuple(chosen), total))
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


def maximal_nested_sets_ref(bm):
    """The facets of `maximal_nested_sets`, in its order, by the enumerator
    it ran before subtrees were carried as tuples: every saturated subtree
    rooted at g is a frozenset built by a union at every level, and each
    facet is the union of one subtree per maximal element, with the
    maximal elements taken out again."""
    memo = {}
    parts = [_subtree_facets_ref(bm, m, memo) for m in bm.maxg]
    maxset = set(bm.maxg)
    return [frozenset().union(*combo) - maxset for combo in product(*parts)]


def _subtree_facets_ref(bm, g, memo):
    from chowpoly.nested import _child_table

    if g not in memo:
        out = []
        for children, _ in _child_table(bm, g):
            branches = [_subtree_facets_ref(bm, b, memo) for b in children]
            out.extend(frozenset((g,)).union(*combo) for combo in product(*branches))
        memo[g] = out
    return memo[g]


def child_table_scan_ref(bm, g, table):
    """The rows of `nested._child_table(bm, g)`, in its order, by the scan
    the package ran before it read the lower covers off `covers_up`: every
    flat one rank below g is tested for lying under g.  table keeps the
    rows per g, in place of the package's cache."""
    from chowpoly.lattice import bits

    if g not in table:
        lat = bm.lat
        flats, tops, pos = lat.flats, bm.factor_table(), bm.pos

        def key(f):
            return -lat.rank_of(f), f

        rows = []
        for i in lat.by_rank[lat.rank_of(g) - 1]:
            if not flats[i] & ~g:
                lpos = min(pos[e] for e in bits(g & ~flats[i]))
                rows.append((tuple(sorted(tops[i], key=key)), lpos))
        rows.sort(key=lambda row: [key(f) for f in row[0]])
        table[g] = rows
    return table[g]


def maximal_nested_sets_per_parent_ref(bm):
    """The facets of `nested.maximal_nested_sets`, tuples in its order, by
    the enumerator that built the subtrees rooted at a child c again for
    every parent row holding c, over `child_table_scan_ref`."""
    memo, table = {}, {}

    def below(g):
        if g not in memo:
            out = memo[g] = []
            for children, _ in child_table_scan_ref(bm, g, table):
                branches = [[(c, *b) for b in below(c)] for c in children]
                if len(branches) == 1:
                    out += branches[0]
                else:
                    out.extend(sum(combo, ()) for combo in product(*branches))
        return memo[g]

    parts = [below(m) for m in bm.maxg]
    return [sum(combo, ()) for combo in product(*parts)]


def stable_pairs_product_ref(bm, m):
    """The pairs of `nested._stable_pairs(bm, m)`, in its order, by the
    tree-node recursion that took every row, one child or more, through
    `product` and `all`, over `child_table_scan_ref`."""
    memo, table = {}, {}

    def go(g, p):
        if (g, p) not in memo:
            out = []
            for children, lpos in child_table_scan_ref(bm, g, table):
                desc = lpos > p
                for combo in product(*[go(c, lpos) for c in children]):
                    if desc and all(sub[1] for sub in combo):
                        continue
                    out.append((g, desc, combo))
            memo[g, p] = out
        return memo[g, p]

    pairs = []
    for _, _, combo in go(m, bm.n):
        flats, descents = [], []
        stack = list(reversed(combo))
        while stack:
            g, desc, sub = stack.pop()
            flats.append(g)
            if desc:
                descents.append(g)
            stack.extend(reversed(sub))
        pairs.append((tuple(flats), frozenset(descents)))
    return tuple(pairs)


def is_nested_family(n, rank, g, s):
    """Every antichain of size >= 2 inside s has join outside g."""
    s = list(s)
    for k in range(2, len(s) + 1):
        for a in combinations(s, k):
            if any(x <= y or y <= x for x, y in combinations(a, 2)):
                continue
            u = frozenset().union(*a)
            if closure_of(n, rank, u) in g:
                return False
    return True


def is_nested_ref(bm, s):
    """`nested.is_nested` before the forest test: every antichain of size
    >= 2 inside s, scanned by size, must join outside the building set of a
    package BuiltMatroid.  Raises BadParameters, as the package does, when
    s has flats outside the building set."""
    from chowpoly.errors import BadParameters

    s = sorted(set(s))
    outside = [f for f in s if f not in bm.bset]
    if outside:
        raise BadParameters(f"{outside} not in the building set")
    lat = bm.lat
    for k in range(2, len(s) + 1):
        for a in combinations(s, k):
            if any(x & ~y == 0 or y & ~x == 0 for x, y in combinations(a, 2)):
                continue
            j = 0
            for x in a:
                j = lat.join(j, x)
            if j in bm.bset:
                return False
    return True


def all_nested_sets(n, rank, g, vertices):
    """All nested subsets of the given vertex pool (list of frozensets)."""
    verts = list(vertices)
    out = []
    for k in range(len(verts) + 1):
        for s in combinations(verts, k):
            if is_nested_family(n, rank, g, s):
                out.append(frozenset(s))
    return out


def maximal_sets(family):
    return [s for s in family if not any(s < t for t in family)]


# ---------------------------------------------------------------------------
# monomial basis and Chow polynomial


def fy_basis(n, rank, g, flats):
    """All (support, exponent) pairs; supports range over nested subsets of g."""
    out = []
    for supp in all_nested_sets(n, rank, g, sorted(g, key=sorted)):
        supp = sorted(supp, key=lambda f: (len(f), sorted(f)))
        ranges = []
        ok = True
        for f in supp:
            below = [x for x in supp if x < f]
            j = frozenset().union(*below) if below else frozenset()
            gap = rank(f) - rank(j)
            if gap < 2:
                ok = False
                break
            ranges.append(range(1, gap))
        if not ok and supp:
            continue
        for alphas in product(*ranges):
            out.append((frozenset(supp), dict(zip(map(frozenset, supp), alphas))))
    return out


def chow_poly(n, rank, g, flats):
    coeffs = {}
    for _, alphas in fy_basis(n, rank, g, flats):
        d = sum(alphas.values())
        coeffs[d] = coeffs.get(d, 0) + 1
    if not coeffs:
        return [1]
    out = [0] * (max(coeffs) + 1)
    out[0] = 1 if 0 not in coeffs else coeffs[0]
    for d, c in coeffs.items():
        out[d] = c
    return out


def chow_polynomial_by_lists(bm):
    """The FY recursion of `chow.chow_polynomial` on coefficient lists: the
    same P(F), by-gap sums and Q(g), each a list, added and multiplied by
    `padd` and `pmul`, with no packing into integers."""
    from chowpoly.polynomials import padd, pmul, trange

    lat, bset = bm.lat, bm.bset
    p = {0: [1]}
    out = [1]
    for f, r in zip(lat.flats[1:], lat.ranks[1:]):
        if f in bset:
            by_gap = [[] for _ in range(r + 1)]
            for e, re in zip(lat.flats, lat.ranks):
                if re > r - 2:
                    break
                if e & ~f == 0:
                    by_gap[r - re] = padd(by_gap[r - re], p[e])
            poly = []
            for gap in range(2, r + 1):
                if by_gap[gap]:
                    poly = padd(poly, pmul(by_gap[gap], trange(1, gap - 1)))
        else:
            poly = [1]
            for g in bm.factors(f):
                poly = pmul(poly, p[g])
        p[f] = poly
        out = padd(out, poly)
    return out


def fy_support_count(bm):
    """H(M,G) by walking every FY support of a package BuiltMatroid.

    Sums prod (t + ... + t^(gap-1)) over the supports that
    `nested.nested_subsets` streams over G with gap 2, one support at a
    time; this was the package's own FY route before the lattice-of-flats
    recurrence replaced it.
    """
    from chowpoly.nested import nested_subsets

    coeffs = [0]
    for _, gaps in nested_subsets(bm, bm.bset, 2):
        for alphas in product(*(range(1, g) for g in gaps)):
            d = sum(alphas)
            coeffs.extend([0] * (d + 1 - len(coeffs)))
            coeffs[d] += 1
    return coeffs


# ---------------------------------------------------------------------------
# gamma, by solving the triangular binomial system


def binomial(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def gamma_of(h):
    """Solve h = sum_i gamma_i t^i (1+t)^(d-2i) for gamma, d = deg h."""
    d = len(h) - 1
    m = d // 2 + 1
    rows = []
    for j in range(m):  # coefficient of t^j in each basis element
        rows.append([binomial(d - 2 * i, j - i) for i in range(m)])
    gamma = [Fraction(0)] * m
    for j in range(m):
        acc = Fraction(h[j])
        for i in range(j):
            acc -= rows[j][i] * gamma[i]
        gamma[j] = acc / rows[j][j]
    # verify, including the upper half
    for j in range(d + 1):
        tot = sum(gamma[i] * binomial(d - 2 * i, j - i) for i in range(m))
        assert tot == h[j], (h, gamma)
    assert all(x.denominator == 1 for x in gamma)
    return [int(x) for x in gamma]


# ---------------------------------------------------------------------------
# descents, by the literal chain definitions


def lex_chain(n, rank, order, f, g):
    """Flag of closures cl(f + first k order-elements of g - f)."""
    elems = [e for e in order if e in g and e not in f]
    chain = []
    cur = set(f)
    for e in elems:
        cur.add(e)
        c = closure_of(n, rank, cur)
        if not chain or c != chain[-1]:
            chain.append(c)
        cur = set(c)
    return chain


def descent_data(n, rank, g, order, s, top):
    """(descents, bottom flags, double flags) for a maximal nested set s."""
    shat = sorted(set(s) | {top}, key=lambda f: (len(f), sorted(f)))
    pos = {e: i for i, e in enumerate(order)}

    def jbot(f):
        below = [x for x in shat if x < f]
        u = frozenset().union(*below) if below else frozenset()
        return closure_of(n, rank, u)

    def lam(f):
        j = jbot(f)
        cands = [e for e in order if closure_of(n, rank, j | {e}) == f]
        return min(cands, key=lambda e: pos[e])

    def parent(f):
        ups = [x for x in shat if f < x]
        return min(ups, key=len)

    descents = set()
    for f in s:
        if pos[lam(f)] > pos[lam(parent(f))]:
            descents.add(f)
    bottoms = {f for f in descents if not any(x < f for x in s)}
    doubles = set()
    for f in descents - bottoms:
        kids = maximal_sets([x for x in s if x < f])
        if kids and all(frozenset(k) in descents for k in kids):
            doubles.add(f)
    return descents, bottoms, doubles


# ---------------------------------------------------------------------------
# descent data of a package BuiltMatroid by the join loop


def _shat(bm, s):
    return sorted(set(s) | set(bm.maxg), key=lambda f: (bm.lat.rank_of(f), f))


def _jbottom(bm, shat, g):
    j = 0
    for h in shat:
        if h != g and h & ~g == 0:
            j = bm.lat.join(j, h)
    return j


def lambda_by_join(bm, s, g):
    """The first element e of bm.order outside J^g whose atom joins J^g up
    to g, or None when there is none.

    This was the package's own λ-label before it read the label off the
    elements of g outside J^g."""
    lat = bm.lat
    j = _jbottom(bm, _shat(bm, s), g)
    for e in bm.order:
        if not j >> e & 1 and lat.join(j, lat.flats[lat.atom_of_elem[e]]) == g:
            return e
    return None


def descent_data_by_join(bm, s):
    """The package's DescentData of a facet s, every field recomputed from
    the definitions: λ by the join loop, the parent as the least-rank
    element of ŝ above, the children as the maximal elements below."""
    from chowpoly.nested import DescentData

    s = frozenset(s) - set(bm.maxg)
    shat = _shat(bm, s)
    lat = bm.lat
    lambdas = {g: lambda_by_join(bm, s, g) for g in shat}
    parents = {
        g: min((h for h in shat if h != g and g & ~h == 0), key=lat.rank_of)
        for g in s
    }
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
    return DescentData(
        descents=descents,
        des=len(descents),
        bottoms=bottoms,
        doubles=frozenset(doubles),
        stable=not bottoms and not doubles,
    )


def stable_descent_sets_ref(bm):
    """(facet, descent set) for every stable facet, in facet order: every
    facet of `maximal_nested_sets` is built and its descent data read once,
    and the unstable ones are dropped.  This was the package's own pass
    before the stable facets were listed by a pruned recursion."""
    from chowpoly.nested import descent_set, maximal_nested_sets

    pairs = []
    for s in maximal_nested_sets(bm):
        dd = descent_set(bm, s)
        if dd.stable:
            pairs.append((s, dd.descents))
    return tuple(pairs)


def _restrictions_to_maxg(bm):
    """`building.restrict(bm, m)` for every maximal building-set element m:
    each a standalone built matroid with its own lattice, G-factor table
    and child table."""
    from chowpoly.building import restrict

    return [restrict(bm, m) for m in bm.maxg]


def gamma_by_descents_by_restriction(bm):
    """`chow.gamma_by_descents_factored` by the route it replaced: the
    descent formula of each restricted copy `_restrictions_to_maxg`,
    multiplied, padded to the γ length (rank - |max G|)//2 + 1."""
    from chowpoly.chow import gamma_by_descents
    from chowpoly.polynomials import pmul

    out = [1]
    for factor in _restrictions_to_maxg(bm):
        out = pmul(out, gamma_by_descents(factor))
    want = (bm.rank - len(bm.maxg)) // 2 + 1
    return out + [0] * (want - len(out))


def gamma_fvector_by_restriction(bm):
    """`nested.gamma_fvector` by the route it replaced: (f, reports) with
    one `gamma_complex` report per restricted copy, in the local flats of
    that copy, and f the product of their f-vectors, padded as γ is."""
    from chowpoly.nested import complex_stats, gamma_complex
    from chowpoly.polynomials import pmul

    reps = [gamma_complex(factor) for factor in _restrictions_to_maxg(bm)]
    out = [1]
    for rep in reps:
        out = pmul(out, list(complex_stats(rep.complex)[0]))
    want = (bm.rank - len(bm.maxg)) // 2 + 1
    return out + [0] * (want - len(out)), reps


def descents_have_rank1_local(bm, descents):
    """Whether the descent set, viewed as a nested set, has a local interval
    of rank 1.

    Every unstable facet's descent set has one, so a False answer certifies
    stability; the converse does not hold (stable facets may have rank-1
    local intervals too)."""
    lat = bm.lat
    shat = _shat(bm, descents)
    return any(
        lat.rank_of(g) - lat.rank_of(_jbottom(bm, shat, g)) == 1 for g in shat
    )


# ---------------------------------------------------------------------------
# building-set cross-checks on package objects, and the reference relabelers


def validate_building_set_ref(lat, s):
    """`building.validate_building_set` before its pass up the covers: the
    irreducible flats from `g_min`, then a lattice join for every meeting
    incomparable pair of members.  Same errors, same witnesses."""
    from chowpoly.building import g_min
    from chowpoly.errors import JoinClosureViolation, MissingIrreducible, NotAFlat

    s = frozenset(s)
    for f in s:
        if not lat.is_flat(f):
            raise NotAFlat(f"{f:b} is not a flat")
        if f == 0:
            raise NotAFlat("the bottom flat cannot belong to a building set")
    for f in sorted(g_min(lat)):
        if f not in s:
            raise MissingIrreducible(f)
    members = sorted(s)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if a & b and not (a & ~b == 0 or b & ~a == 0):
                if lat.join(a, b) not in s:
                    raise JoinClosureViolation((a, b))
    return s


def g_factor_table_ref(lat, s):
    """The building-set pass as it was before the one split test: the tops
    of each flat outside s must also have popcounts adding up to that of
    the flat.  Same rows, or None, as `lattice._g_factor_table(lat, s)`."""
    from chowpoly.lattice import maximal, popcount

    below = [[] for _ in lat.flats]
    table = []
    for i, (f, r) in enumerate(zip(lat.flats, lat.ranks)):
        if f in s:
            tops = (f,)
        else:
            tops = tuple(maximal(set(below[i])))
            union = 0
            for g in tops:
                union |= g
            if (
                union != f
                or sum(map(popcount, tops)) != popcount(f)
                or sum(lat.rank_of(g) for g in tops) != r
            ):
                return None
        table.append(tops)
        below[i] = None
        for j in lat.covers_up[i]:
            below[j].extend(tops)
    return table


def removable_ref(lat, bset, g):
    """`building._removable` before the one split test: None for an
    irreducible g, else the maximal members of bset strictly below g when
    they are pairwise disjoint, in the order `_removable` returns them."""
    if lat.is_irreducible(g):
        return None
    below = [h for h in bset if h != g and h & ~g == 0]
    tops = [h for h in below if not any(h != k and h & ~k == 0 for k in below)]
    if any(a & b for a, b in combinations(tops, 2)):
        return None
    return tuple(sorted(tops, key=lambda h: -h.bit_count()))


def factors_in(lat, s, f):
    """The maximal elements of s weakly below f, sorted by (rank, mask), by
    a scan of s: the reference for `BuiltMatroid.factors`."""
    below = [g for g in s if g & ~f == 0]
    tops = [g for g in below if not any(g != h and g & ~h == 0 for h in below)]
    return sorted(tops, key=lambda g: (lat.rank_of(g), g))


def building_set_structural_check(lat, s):
    """Definition via interval products: for every flat F with factors
    G_1..G_k, ranks add up and every flat below F is the join of its meets
    with the factors.  A cross-check for `validate_building_set`."""
    for f in lat.flats:
        if f == 0:
            continue
        fac = factors_in(lat, s, f)
        if sum(lat.rank_of(g) for g in fac) != lat.rank_of(f):
            return False
        for h in lat.flats:
            if h & ~f:
                continue
            j = 0
            for g in fac:
                j = lat.join(j, h & g)
            if j != h:
                return False
    return True


def is_complete_definitive(bm):
    """Completeness checked on every interval [F, G] against the contracted
    building set; equivalent to the package's bottom-chain criterion."""
    from chowpoly.building import tl_chain

    lat = bm.lat
    for f in lat.flats:
        images = None
        for g in bm.bset:
            if f & ~g or f == g:
                continue
            if images is None:
                images = {lat.join(f, h) for h in bm.bset} - {f}
            for x in tl_chain(bm, f, g)[1:]:
                if x not in images:
                    return False
    return True


def deletion_modular_cut(lat, e):
    """The modular cut on M minus e whose extension re-adds e.

    Collects the deletion's flats whose closure in M contains e; the result is
    expressed in the deletion's labelling (bit e dropped).
    """
    from chowpoly.lattice import delete_lattice, validate_modular_cut

    sub, drop = delete_lattice(lat, e)
    low = (1 << e) - 1

    def lift(mask):
        return (mask & low) | ((mask >> e) << (e + 1))

    cut = set()
    for f in sub.flats:
        if lat.closure(lift(f)) >> e & 1:
            cut.add(f)
    return sub, validate_modular_cut(sub, cut)


def filtration(bm, small):
    """Filtration from small up to bm.bset removing minimal elements in
    reverse; every set of the chain is validated here."""
    from helpers import filtration_sets

    from chowpoly.building import _removable, _removal_chain, validate_building_set

    def pick(lat, cur, small):
        extra = cur - small
        if not extra:
            return None
        mins = [f for f in extra if not any(g != f and g & ~f == 0 for g in extra)]
        for f in sorted(mins):
            tops = _removable(lat, cur, f)
            if tops is not None:
                return f, tops
        return None

    filt = _removal_chain(bm, small, pick)
    for bset in filtration_sets(filt):
        assert validate_building_set(bm.lat, bset) == bset
    return filt


# The package relabeled intervals into standalone built matroids with these
# four functions before one interval kernel replaced them.


def bits_of(mask):
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _compress_map(keep_mask):
    return {e: i for i, e in enumerate(bits_of(keep_mask))}


def _remap_mask(mask, emap):
    out = 0
    for e in bits_of(mask):
        out |= 1 << emap[e]
    return out


def simplify_built_ref(lat, bset, order):
    """(BuiltMatroid, elem_map): new elements are the atoms of lat."""
    from chowpoly.building import BuiltMatroid
    from chowpoly.lattice import GeomLattice

    if lat.simple():
        return BuiltMatroid(lat, bset, order, validate=False), {
            e: e for e in range(lat.n)
        }
    pos = {e: i for i, e in enumerate(order)}
    atoms = [lat.flats[i] for i in lat.atoms]
    atom_masks = sorted(atoms, key=lambda a: min(bits_of(a)))
    label = {a: i for i, a in enumerate(atom_masks)}

    def remap(mask):
        out = 0
        for a, i in label.items():
            if a & ~mask == 0:
                out |= 1 << i
        return out

    flats = [(remap(f), lat.rank_of(f)) for f in lat.flats]
    sub = GeomLattice(len(atom_masks), flats)
    new_bset = frozenset(remap(f) for f in bset)
    by_pos = sorted(atom_masks, key=lambda a: min(pos[e] for e in bits_of(a)))
    new_order = tuple(label[a] for a in by_pos)
    elem_map = {}
    for a, i in label.items():
        for e in bits_of(a):
            elem_map[e] = i
    return BuiltMatroid(sub, new_bset, new_order, validate=False), elem_map


def restrict_ref(bm, f):
    """Restriction to [0, f]: elements of f keep their relative order."""
    from chowpoly.building import BuiltMatroid
    from chowpoly.lattice import GeomLattice

    lat = bm.lat
    emap = _compress_map(f)
    flats = [(_remap_mask(g, emap), lat.rank_of(g)) for g in lat.flats if g & ~f == 0]
    sub = GeomLattice(bin(f).count("1"), flats)
    bset = frozenset(_remap_mask(g, emap) for g in bm.bset if g & ~f == 0)
    order = tuple(emap[e] for e in bm.order if f >> e & 1)
    return BuiltMatroid(sub, bset, order)


def contract_ref(bm, f):
    """Contraction at f: new elements are the covers of f."""
    from chowpoly.building import BuiltMatroid
    from chowpoly.lattice import GeomLattice

    lat = bm.lat
    covers = lat.covers(f)
    keyed = sorted(covers, key=lambda c: min(bm.pos[e] for e in bits_of(c & ~f)))
    by_label = sorted(keyed, key=lambda c: min(bits_of(c & ~f)))
    label = {c: i for i, c in enumerate(by_label)}
    rf = lat.rank_of(f)
    flats = []
    for g in lat.flats:
        if f & ~g:
            continue
        mask = 0
        for c in covers:
            if c & ~g == 0:
                mask |= 1 << label[c]
        flats.append((mask, lat.rank_of(g) - rf))
    sub = GeomLattice(len(covers), flats)
    bset = set()
    for g in bm.bset:
        j = lat.join(f, g)
        if j == f:
            continue
        mask = 0
        for c in covers:
            if c & ~j == 0:
                mask |= 1 << label[c]
        bset.add(mask)
    order = tuple(label[c] for c in keyed)
    return BuiltMatroid(sub, frozenset(bset), order)


def local_interval_ref(bm, j, g):
    """(built, flat_map) of the interval [j, g]: new elements are the covers
    of j below g; flat_map covers j, g and the interval's building set."""
    from chowpoly.building import BuiltMatroid
    from chowpoly.lattice import GeomLattice

    lat = bm.lat
    covers = [c for c in lat.covers(j) if c & ~g == 0]
    keyed = sorted(covers, key=lambda c: min(bm.pos[e] for e in bits_of(c & ~j)))
    by_label = sorted(covers, key=lambda c: min(bits_of(c & ~j)))
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
    built = BuiltMatroid(
        GeomLattice(len(covers), flats),
        frozenset(to_local(f) for f in bset_global),
        tuple(label[c] for c in keyed),
    )
    return built, {f: to_local(f) for f in sorted(bset_global) + [j, g]}


# ---------------------------------------------------------------------------
# real-rootedness via an independent Sturm chain over Fraction


def _poly_div(a, b):
    a = a[:]
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            a[i + k] -= c * bc
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _sign_changes_at_inf(chain, positive):
    signs = []
    for p in chain:
        if not any(p):
            continue
        lead = p[-1]
        s = 1 if lead > 0 else -1
        if not positive and (len(p) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_distinct_real_roots(coeffs):
    p = [Fraction(c) for c in coeffs]
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    if len(p) <= 1:
        return 0
    dp = [i * c for i, c in enumerate(p)][1:]
    sq = _poly_div(p, _gcd_poly(p, dp))[0]
    chain = [sq, [i * c for i, c in enumerate(sq)][1:]]
    while len(chain[-1]) > 1 or (chain[-1] and chain[-1][0] != 0):
        _, rem = _poly_div(chain[-2], chain[-1])
        if not any(rem):
            break
        chain.append([-c for c in rem])
    return _sign_changes_at_inf(chain, False) - _sign_changes_at_inf(chain, True)


def _gcd_poly(a, b):
    a, b = a[:], b[:]
    while any(b):
        _, r = _poly_div(a, b)
        a, b = b, r
    return a


def squarefree_degree(coeffs):
    p = [Fraction(c) for c in coeffs]
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    dp = [i * c for i, c in enumerate(p)][1:]
    if not any(dp):
        return len(p) - 1
    g = _gcd_poly(p, dp)
    return (len(p) - 1) - (len(g) - 1)


def is_real_rooted_oracle(coeffs):
    d = len([c for c in coeffs]) - 1
    while d > 0 and coeffs[d] == 0:
        d -= 1
    if d <= 1:
        return True
    return count_distinct_real_roots(coeffs) == squarefree_degree(coeffs)


# ---------------------------------------------------------------------------
# the lattice kernel before the bottom-up factor table and the cover-skipping
# BFS, as the reference for both


def split_factors(lat, f):
    """The factors of flat f by splitting off the first flat a below f whose
    complement f - a is a flat of complementary rank, recursively."""
    if f == 0:
        return []
    rf = lat.rank_of(f)
    for a in lat.flats:
        if a == 0 or a == f or a & ~f:
            continue
        b = f & ~a
        if lat.is_flat(b) and lat.rank_of(a) + lat.rank_of(b) == rf:
            return split_factors(lat, a) + split_factors(lat, b)
    return [f]


def lattice_of_flats_ref(m):
    """(flats, ranks) by a BFS that closes F + e for every e outside every
    flat F, each closure taking n + 1 calls of m.rank."""

    def closure(mask):
        r = m.rank(mask)
        out = mask
        for e in range(m.n):
            if not out >> e & 1 and m.rank(mask | 1 << e) == r:
                out |= 1 << e
        return out

    assert closure(0) == 0
    seen = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for f in frontier:
            for e in range(m.n):
                if f >> e & 1:
                    continue
                g = closure(f | 1 << e)
                if g not in seen:
                    seen[g] = seen[f] + 1
                    nxt.append(g)
        frontier = nxt
    items = sorted(seen.items(), key=lambda t: (t[1], t[0]))
    return [f for f, _ in items], [r for _, r in items]


def built_key_ref(bm):
    """`BuiltMatroid.key` by its definition, with no relabeled lattice:
    every flat remapped bit by bit, element order[i] becoming i."""
    relabel = {e: i for i, e in enumerate(bm.order)}
    flats = tuple(sorted(_remap_mask(f, relabel) for f in bm.lat.flats))
    bset = tuple(sorted(_remap_mask(f, relabel) for f in bm.bset))
    return (bm.n, flats, bset)


def induced_set_by_joins_ref(lat, bset, bottom, top, local):
    """The induced set of [bottom, top] by joins, the rule
    `building._interval_climb` followed before it read G-factor rows:
    {bottom ∨ g : g in bset, g <= top, g not <= bottom}, as the local
    masks local gives each flat of the interval by lattice index.

    lat is a `GeomLattice` or a `lattice.LiveLattice`, whose flats are
    traces, -1 for a flat that is not live, and bset is a set of its
    flats.  The join climbs the covers from bottom, each time to the live
    cover that holds the lowest element of g still missing: the live
    covers of a live flat are its covers in the minor, and they partition
    the elements outside it."""
    flats, covers_up = lat.flats, lat.covers_up

    def join(f, g):
        i = lat.idx[f]
        rest = g & ~f
        while rest:
            low = rest & -rest
            i = next(j for j in covers_up[i] if flats[j] != -1 and flats[j] & low)
            rest &= ~flats[i]
        return i

    return frozenset(
        local[join(bottom, g)] for g in bset if g & ~top == 0 and g & ~bottom
    )


def chow_by_deletion_ref(bm, memo):
    """`chow.chow_by_deletion` before it relabeled once at entry and looked
    minors up before building them: the recursion runs in bm's own order,
    builds every restriction and contraction in full, and keys memo, a
    dict it fills, by `built_key_ref`."""
    from chowpoly.building import contract, delete_element, restrict
    from chowpoly.lattice import drop_bit
    from chowpoly.polynomials import padd, pmul, trange

    lat = bm.lat
    if lat.n == 1:
        return [1]
    key = built_key_ref(bm)
    if key in memo:
        return list(memo[key])
    e = bm.order[-1]
    ebit = 1 << e
    atom_e = lat.flats[lat.atom_of_elem[e]]
    bmd = delete_element(bm, e)
    out = chow_by_deletion_ref(bmd, memo)
    for f in sorted(bm.bset):
        if not f & ebit or f == atom_e:
            continue
        if not lat.is_flat(f & ~ebit):
            continue  # e not a coloop in f
        rd = restrict(bmd, drop_bit(f, e))
        term = pmul(trange(1, len(rd.maxg)), chow_by_deletion_ref(rd, memo))
        if f != lat.full:
            term = pmul(term, chow_by_deletion_ref(contract(bm, f), memo))
        out = padd(out, term)
    memo[key] = tuple(out)
    return out


def chow_by_filtration_ref(bm, trace=False):
    """`chow.chow_by_filtration` before it keyed link series by their climb:
    a local interval [J^g, g] is keyed by J^g, g and the members h of the
    current set with h <= g and h not <= J^g (a mask of lattice indices),
    and built in full with `building._interval` on each new key.  The
    bounds (J^g, g) of a star step are those of the nested set a ∪ max G
    of the current set, J^g by the join loop of `_jbottom`."""
    from chowpoly.building import (
        BuiltMatroid,
        _interval,
        binary_filtration,
        g_min,
    )
    from chowpoly.chow import chow_polynomial
    from chowpoly.errors import MixedFactorStep, NoBinaryFiltration, NotFlag, Stuck
    from chowpoly.polynomials import padd, pmul
    from helpers import filtration_sets

    lat = bm.lat
    try:
        filt = binary_filtration(bm, g_min(lat))
    except (NotFlag, Stuck) as exc:
        raise NoBinaryFiltration(exc.args[0]) from exc
    h = chow_polynomial(filt.base)
    steps = [list(h)]
    maxg = set(filt.base.maxg)
    link_series = {}
    for prev_bset, added, a in zip(filtration_sets(filt), filt.added, filt.factors):
        in_max = [f in maxg for f in a]
        if all(in_max):
            h = pmul(h, [1, 1])
            maxg.difference_update(a)
            maxg.add(added)
        elif not any(in_max):
            star = [1]
            prev = BuiltMatroid(lat, prev_bset, bm.order, validate=False)
            shat = _shat(prev, a)
            for g in shat:
                j = _jbottom(prev, shat, g)
                below = 0
                for x in prev_bset:
                    if x & ~g == 0 and x & ~j:
                        below |= 1 << lat.idx[x]
                key = (j, g, below)
                series = link_series.get(key)
                if series is None:
                    link = _interval(lat, prev.factor_table(), bm.order, j, g)[0]
                    series = link_series[key] = chow_polynomial(link)
                star = pmul(star, series)
            h = padd(h, pmul([0, 1], star))
        else:
            raise MixedFactorStep((added, a))
        steps.append(list(h))
    if trace:
        return h, steps
    return h


def flag_nonface_witness_ref(bm):
    """`building.flag_nonface_witness` before it carried the union of the
    chosen flats: every candidate is tested against every chosen flat for
    comparability and for a join inside the building set."""
    lat = bm.lat
    members = sorted(bm.bset, key=lambda f: (lat.rank_of(f), f))

    def grow(chosen, join_so_far, start):
        if len(chosen) >= 3 and join_so_far in bm.bset:
            return list(chosen)
        for i in range(start, len(members)):
            c = members[i]
            ok = True
            for a in chosen:
                if a & ~c == 0 or c & ~a == 0:
                    ok = False
                    break
                if lat.join(a, c) in bm.bset:
                    ok = False
                    break
            if not ok:
                continue
            got = grow(chosen + [c], lat.join(join_so_far, c), i + 1)
            if got:
                return got
        return None

    try:
        return grow([], 0, 0)
    finally:
        del grow


def downward_closed_by_subsets(faces):
    """Downward closure by definition: every subset of every face is a
    face."""
    faces = set(faces)
    return all(
        frozenset(sub) in faces
        for f in faces
        for k in range(len(f))
        for sub in combinations(f, k)
    )


def flag_by_cliques(faces):
    """Flagness by search: every clique of the 1-skeleton is a face."""
    faces = set(faces)
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
    return flag


# ---------------------------------------------------------------------------
# the toric Hilbert oracle over Fraction, before integer elimination over
# incrementally generated face monomials, as its reference


def _nullspace(rows, n):
    """Basis of the rational nullspace of an integer matrix given as rows of
    length n."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return basis


def fraction_rank(rows):
    """Rank over Q of an integer matrix given as equal-length rows."""
    n = len(rows[0]) if rows else 0
    return n - len(_nullspace(rows, n))


def toric_hilbert_oracle_ref(bm):
    """Graded dimensions of the ray ring modulo the nonface ideal and the
    linear forms vanishing on the lineality space; exact Gaussian elimination
    per degree."""
    from itertools import combinations_with_replacement

    from chowpoly.errors import TooLarge
    from chowpoly.lattice import bits
    from chowpoly.polynomials import normalize

    lat = bm.lat
    rays = sorted(bm.bset - set(bm.maxg))
    top = bm.rank - len(bm.maxg)
    if len(rays) > 12 or lat.rk > 5:
        raise TooLarge((len(rays), lat.rk))
    face = {frozenset(): True}

    def is_face(supp):
        if supp not in face:
            face[supp] = is_nested_ref(bm, supp)
        return face[supp]

    def face_monomials(d):
        out = []
        for combo in combinations_with_replacement(rays, d):
            if is_face(frozenset(combo)):
                out.append(combo)
        return out

    lin_rows = [[1 if (m >> i) & 1 else 0 for i in range(lat.n)] for m in bm.maxg]
    forms = _nullspace(lin_rows, lat.n)

    def pairing(form, flat):
        return sum(form[i] for i in bits(flat))

    dims = []
    prev_mons = face_monomials(0)
    dims.append(len(prev_mons))  # the empty monomial; no relations in deg 0
    for d in range(1, top + 1):
        mons = face_monomials(d)
        index = {m: i for i, m in enumerate(mons)}
        pivots = {}
        rank = 0
        for mu in prev_mons:
            for form in forms:
                row = {}
                for g in rays:
                    c = pairing(form, g)
                    if not c:
                        continue
                    m = tuple(sorted(mu + (g,)))
                    if m in index:
                        row[index[m]] = row.get(index[m], Fraction(0)) + c
                row = {k: v for k, v in row.items() if v}
                while row:
                    lead = min(row)
                    if lead in pivots:
                        piv = pivots[lead]
                        f = row[lead]
                        for k, v in piv.items():
                            row[k] = row.get(k, Fraction(0)) - f * v
                        row = {k: v for k, v in row.items() if v}
                    else:
                        inv = 1 / row[lead]
                        pivots[lead] = {k: v * inv for k, v in row.items()}
                        rank += 1
                        row = {}
        dims.append(len(mons) - rank)
        prev_mons = mons
    return normalize(dims)


# ---------------------------------------------------------------------------
# binary trees, by recursive splitting and by leaf insertion


def binary_trees(leaves):
    """All rooted binary trees on a leaf set; tree = leaf or (left, right)."""
    leaves = sorted(leaves)
    if len(leaves) == 1:
        return [leaves[0]]
    out = []
    first = leaves[0]
    rest = leaves[1:]
    for k in range(len(rest)):
        for block in combinations(rest, k):
            left_set = [first, *block]
            right_set = [x for x in rest if x not in block]
            if not right_set:
                continue
            for lt in binary_trees(left_set):
                for rt in binary_trees(right_set):
                    out.append((lt, rt))
    return out


def binary_trees_by_insertion(n):
    """All rooted binary trees on the leaves 1..n, built by inserting each
    leaf above every vertex of every tree on the smaller leaves; (2n-3)!!
    trees, as nested pairs with int leaves."""
    trees = [(1, 2)]
    for leaf in range(3, n + 1):
        trees = [u for t in trees for u in _insertions(t, leaf)]
    return trees


def _insertions(t, leaf):
    yield (t, leaf)  # subdivide the edge above t
    if isinstance(t, tuple):
        a, b = t
        for ia in _insertions(a, leaf):
            yield (ia, b)
        for ib in _insertions(b, leaf):
            yield (a, ib)


def stable_tree_gamma(trees):
    """Descent counts of the stable trees among `trees` (no bottom and no
    double descent under tree_descent_data_ref), as a coefficient list."""
    counts = Counter()
    for t in trees:
        des, bot, dbl = tree_descent_data_ref(t)
        if not bot and not dbl:
            counts[len(des)] += 1
    return [counts[d] for d in range(max(counts) + 1)]


def tree_leaves(t):
    if isinstance(t, int):
        return frozenset([t])
    return tree_leaves(t[0]) | tree_leaves(t[1])


def tree_descents(t):
    """Descent count of a binary tree under the min-leaf labelling."""

    def ell(node):
        if isinstance(node, int):
            return node
        return max(min(tree_leaves(node[0])), min(tree_leaves(node[1])))

    des = 0
    stack = [(t, None)]
    while stack:
        node, parent_ell = stack.pop()
        if isinstance(node, int):
            continue
        if parent_ell is not None and ell(node) > parent_ell:
            des += 1
        stack.append((node[0], ell(node)))
        stack.append((node[1], ell(node)))
    return des


def tree_descent_data_ref(t):
    """The stable-tree walk that recomputes every minimal leaf from scratch:
    (descents, bottoms, doubles) in preorder."""

    def min_leaf(v):
        return v if isinstance(v, int) else min(min_leaf(v[0]), min_leaf(v[1]))

    def label(v):
        return max(min_leaf(v[0]), min_leaf(v[1]))

    descents, bottoms, doubles = [], [], []

    def walk(v, parent_label, is_root):
        if isinstance(v, int):
            return
        lv = label(v)
        kids = [c for c in v if isinstance(c, tuple)]
        if not is_root and lv > parent_label:
            descents.append(v)
            if not kids:
                bottoms.append(v)
            elif all(label(c) > lv for c in kids):
                doubles.append(v)
        for c in v:
            walk(c, lv, False)

    walk(t, None, True)
    return descents, bottoms, doubles


if __name__ == "__main__":
    # smoke: Boolean B3 with the full flat family
    n, rank = 3, boolean_rank
    flats = all_flats(n, rank)
    gmax = frozenset(f for f in flats if f)
    assert chow_poly(n, rank, gmax, flats) == [1, 4, 1]
    assert gamma_of([1, 4, 1]) == [1, 2]
    assert is_real_rooted_oracle([1, 4, 1])
    assert not is_real_rooted_oracle([1, 1, 1])
    assert len(binary_trees([1, 2, 3, 4])) == 15
    print("oracle smoke ok")


def m0n_gamma_by_leaf_sets(n):
    """The stable-tree count of `families.m0n_gamma` by its recursion over
    (leaf set S, parent label p), S a mask with leaf i at bit i: 2^n * n
    states, where the package recurses on the order type (|S|, number of
    leaves below p)."""
    from chowpoly.polynomials import padd, pmul

    memo = {}  # (S, p) -> (all, descent)

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

    return go(((1 << n) - 1) << 1, n + 1)[0]
