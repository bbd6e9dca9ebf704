"""Brute-force reference implementations used to pin expected values.

Everything here is deliberately naive: subsets are filtered by the literal
definitions, with no shared code, no caching tricks and no clever recursions,
so that agreement with the package is meaningful.  Sets of ground elements are
frozensets of ints; a "flat family" is a frozenset of frozensets.
"""

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
    f.  Returns (bsets, added, binary) from small up to big, with binary[i]
    telling whether added[i] has exactly two maximal elements of bsets[i]
    below it; returns None when no flat can be removed.
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
    binary = []
    for prev, f in zip(chain, added):
        below = [g for g in prev if g & ~f == 0]
        tops = [g for g in below if not any(g != h and g & ~h == 0 for h in below)]
        binary.append(len(tops) == 2)
    return chain, added, binary


# ---------------------------------------------------------------------------
# nested sets


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


def fy_support_count(bm):
    """H(M,G) by walking every FY support of a package BuiltMatroid.

    Sums prod (t + ... + t^(gap-1)) over the supports that
    `chow._supports` streams, one support at a time; this was the package's
    own FY route before the lattice-of-flats recurrence replaced it.
    """
    from chowpoly.chow import _supports

    coeffs = [0]
    for _, gaps in _supports(bm):
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
# binary trees by recursive splitting (independent of leaf insertion)


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
