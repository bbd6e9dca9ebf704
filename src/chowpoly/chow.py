"""Chow polynomials by independent routes, the descent formula, and Ψ-fibers.

Routes: the FY monomial count (chow_polynomial), the deletion recursion
(chow_by_deletion), filtration pullbacks (chow_by_filtration), and exact
linear algebra on the toric presentation (toric_hilbert_oracle).  They share
no code beyond the lattice kernel, which is the point.

chow_polynomial counts the FY basis without listing it.  The maximal
elements of a nested set are exactly the G-factors of their join
(Feichtner–Kozlov), so supports can be grouped by that join F:

    P(0) = 1,   P(F) = prod over h in factors_G(F) of Q(h),
    Q(g) = sum over F < g with rk g - rk F >= 2 of
           P(F) * (t + ... + t^(rk g - rk F - 1))   for g in G,
    H = sum over F of P(F),

one bottom-up pass over the lattice of flats.  For G_max this is the
recursion of Ferroni–Matherne–Schulte–Vecchi.  The enumeration of supports
survives only in fy_monomials, which the Ψ-fibers need.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from .building import (
    BuiltMatroid,
    binary_filtration,
    contract,
    delete_element,
    factors_in,
    g_min,
    is_complete,
    restrict,
)
from .errors import (
    BadParameters,
    FiberMismatch,
    MixedFactorStep,
    NoBinaryFiltration,
    NotComplete,
    NotFlag,
    NotIrreducible,
    NotMaximal,
    Stuck,
    TooLarge,
)
from .lattice import bits, popcount
from .nested import (
    completion,
    descent_set,
    extends_nested,
    is_nested,
    link_decomposition,
    maximal_nested_sets,
    stable_maximal_nested_sets,
)
from .polynomials import binom_poly, normalize, padd, pmul, trange

_CHOW_MEMO = {}
_DELETION_MEMO = {}


# ---------------------------------------------------------------------------
# FY monomials


def _supports(bm):
    """Stream (support, gaps): nested subsets of the building set whose local
    rank gaps are all >= 2, with the gap of each member.

    Vertices are visited in rank order, so the bottom join J^F of a placed
    flat never changes afterwards.
    """
    lat = bm.lat
    verts = sorted(bm.bset, key=lambda f: (lat.rank_of(f), f))

    def go(start, chosen, gaps):
        yield tuple(chosen), tuple(gaps)
        for i in range(start, len(verts)):
            v = verts[i]
            j = 0
            for u in chosen:
                if u & ~v == 0:
                    j = lat.join(j, u)
            gap = lat.rank_of(v) - lat.rank_of(j)
            if gap < 2:
                continue
            if extends_nested(bm, chosen, v):
                yield from go(i + 1, chosen + [v], gaps + [gap])

    yield from go(0, [], [])


def fy_monomials(bm):
    """Stream monomials as tuples ((flat, exponent), ...) sorted by flat; the
    empty tuple is the degree-0 monomial."""
    for supp, gaps in _supports(bm):
        for expos in product(*(range(1, g) for g in gaps)):
            yield tuple(zip(supp, expos))


def chow_polynomial(bm):
    """Hilbert series of the Chow ring: the FY monomial count by degree.

    A nested set's maximal elements are exactly the G-factors of their join
    (Feichtner–Kozlov), so flats F and nested antichains correspond one to
    one, and H = sum over F of P(F) with

        P(0) = 1,   P(F) = prod over h in factors_G(F) of Q(h),
        Q(g) = sum over F < g with rk g - rk F >= 2 of
               P(F) * (t + ... + t^(rk g - rk F - 1)).

    P(F) counts the monomials whose support has maximal elements
    factors_G(F); Q(g) those whose support has g as its one maximal
    element, so P(g) = Q(g) for g in G.  Flats are visited in (rank, mask)
    order, so every P a flat needs is already known.  G-factors are
    disjoint and cover F, so taking building-set elements below F by
    falling rank and skipping those that meet an earlier pick finds them.
    """
    key = bm.key()
    if key in _CHOW_MEMO:
        return list(_CHOW_MEMO[key])
    lat, bset = bm.lat, bm.bset
    by_rank_desc = sorted(bset, key=lambda g: -lat.rank_of(g))
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
            poly, covered = [1], 0
            for g in by_rank_desc:
                if g & ~f == 0 and not g & covered:
                    poly = pmul(poly, p[g])
                    covered |= g
        p[f] = poly
        out = padd(out, poly)
    _CHOW_MEMO[key] = tuple(out)
    return out


# ---------------------------------------------------------------------------
# deletion recursion


def chow_by_deletion(bm):
    """H(M,G) = H(M-e, G-e) + sum over S_e of (t+...+t^{n_F}) * H(M|_{F-e})
    * H(M/F), with e the order-greatest element and S_e the building-set flats
    in which e is a coloop, except the atom of e."""
    lat = bm.lat
    if lat.n == 1:
        return [1]
    key = bm.key()
    if key in _DELETION_MEMO:
        return list(_DELETION_MEMO[key])
    e = bm.order[-1]
    ebit = 1 << e
    atom_e = lat.flats[lat.atom_of_elem[e]]
    bmd = delete_element(bm, e)
    low = ebit - 1

    def drop(mask):
        return (mask & low) | ((mask >> (e + 1)) << e)

    out = chow_by_deletion(bmd)
    for f in sorted(bm.bset):
        if not f & ebit or f == atom_e:
            continue
        fd_old = lat.closure(f & ~ebit)
        if lat.rank_of(fd_old) != lat.rank_of(f) - 1:
            continue  # e not a coloop in f
        fd = drop(f & ~ebit)
        n_f = len(bmd.factors(fd))
        term = trange(1, n_f)
        term = pmul(term, chow_by_deletion(restrict(bmd, fd)))
        if f != lat.full:
            term = pmul(term, chow_by_deletion(contract(bm, f)))
        out = padd(out, term)
    _DELETION_MEMO[key] = tuple(out)
    return out


# ---------------------------------------------------------------------------
# filtration pullbacks


def chow_by_filtration(bm, base=None, trace=False):
    """Walk a binary filtration from `base` (default: the minimal building
    set) up to bm.bset, starting from the FY value on the base.

    Each step adds a flat with exactly two factors A in the current set:
    if both factors are maximal the series multiplies by (1+t) (subdivision
    inside the lineality space); if both are non-maximal it gains
    t * product of the local-interval series of A (the star of the cone).
    With trace=True returns (h, intermediates) where intermediates holds the
    series after every step including the base value.
    """
    lat = bm.lat
    if base is None:
        base = g_min(lat)
    try:
        filt = binary_filtration(bm, frozenset(base))
    except (NotFlag, Stuck) as exc:
        raise NoBinaryFiltration(str(exc)) from exc
    cur = BuiltMatroid(lat, filt.bsets[0], bm.order, validate=False)
    h = chow_polynomial(cur)
    steps = [list(h)]
    for prev_bset, added in zip(filt.bsets, filt.added):
        prev = BuiltMatroid(lat, prev_bset, bm.order, validate=False)
        a = factors_in(lat, prev_bset, added)
        assert len(a) == 2
        in_max = [f in prev.maxg for f in a]
        if all(in_max):
            h = pmul(h, [1, 1])
        elif not any(in_max):
            star = [1]
            for li in link_decomposition(prev, frozenset(a)):
                star = pmul(star, chow_polynomial(li.built))
            h = padd(h, pmul([0, 1], star))
        else:
            raise MixedFactorStep((added, tuple(a)))
        steps.append(list(h))
    if trace:
        return h, steps
    return h


# ---------------------------------------------------------------------------
# toric Hilbert oracle


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


def toric_hilbert_oracle(bm, max_rank=None):
    """Graded dimensions of the ray ring modulo the nonface ideal and the
    linear forms vanishing on the lineality space; exact Gaussian elimination
    per degree."""
    lat = bm.lat
    rays = sorted(bm.bset - set(bm.maxg))
    top = bm.rank - len(bm.maxg) if max_rank is None else max_rank
    if len(rays) > 12 or lat.rk > 5:
        raise TooLarge((len(rays), lat.rk))
    face = {frozenset(): True}

    def is_face(supp):
        if supp not in face:
            face[supp] = is_nested(bm, supp)
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
# descent formula and Ψ-fibers


def gamma_by_descents(bm):
    """Sum of t^des over stable maximal nested sets, padded to the canonical
    γ-vector length floor(deg/2)+1 with deg = rank - 1.  Equals the
    γ-expansion of the Chow polynomial exactly when bm is complete."""
    if not bm.irreducible:
        raise NotIrreducible("the descent formula needs an irreducible built matroid")
    out = [0] * ((bm.rank - 1) // 2 + 1)
    for s in maximal_nested_sets(bm):
        dd = descent_set(bm, s)
        if dd.stable:
            out[dd.des] += 1
    return out


def gamma_by_descents_factored(bm):
    """Descent formula extended to reducible built matroids: apply it to the
    restriction to each maximal building-set element and multiply (a direct
    sum's stable facets are tuples of factor stable facets, descents add).
    Padded to the canonical γ length for deg = rank - |max G|."""
    out = [1]
    if bm.irreducible:
        out = gamma_by_descents(bm)
    else:
        for g in bm.maxg:
            out = pmul(out, gamma_by_descents(restrict(bm, g)))
    want = (bm.rank - len(bm.maxg)) // 2 + 1
    out = list(out) + [0] * (want - len(out))
    return out


def _expected_fiber(des, rank):
    return pmul([0] * des + [1], binom_poly(rank - 1 - 2 * des))


def _require_irreducible_complete(bm):
    if not bm.irreducible:
        raise NotIrreducible("ψ-fibers need an irreducible built matroid")
    if not is_complete(bm):
        raise NotComplete("ψ-fibers need a complete built matroid")


def psi_fibers(bm):
    """Group FY monomials by the completion of their support; the fiber of
    each stable facet must generate exactly t^des (1+t)^(rank-1-2 des)."""
    _require_irreducible_complete(bm)
    maxset = set(bm.maxg)
    fibers = {}
    for m in fy_monomials(bm):
        supp = frozenset(f for f, _ in m) - maxset
        s = completion(bm, supp)
        deg = sum(a for _, a in m)
        fibers.setdefault(s, []).append(deg)
    stables = stable_maximal_nested_sets(bm)
    for s in fibers:
        if s not in set(stables):
            raise FiberMismatch(("unstable image", sorted(s)))
    out = {}
    for s in stables:
        degs = fibers.get(s, [])
        poly = [0] * (max(degs, default=0) + 1)
        for d in degs:
            poly[d] += 1
        poly = normalize(poly)
        expected = _expected_fiber(descent_set(bm, s).des, bm.rank)
        if poly != expected:
            raise FiberMismatch((sorted(s), poly, expected))
        out[s] = poly
    return out


def psi_fiber_of(bm, s):
    """The fiber of a single stable facet without enumerating all of FY:
    fiber supports live inside s plus the top flat, because s is the
    completion of its own descent set."""
    _require_irreducible_complete(bm)
    lat = bm.lat
    s = frozenset(s) - set(bm.maxg)
    if not s <= bm.bset:
        raise BadParameters(f"{sorted(s - bm.bset)} not in the building set")
    try:
        dd = descent_set(bm, s)
    except NotMaximal as exc:
        raise BadParameters(f"{sorted(s)} is not a facet") from exc
    if not dd.stable:
        raise BadParameters(f"{sorted(s)} is not a stable facet")
    if completion(bm, dd.descents) != s:
        raise BadParameters(f"{sorted(s)} is not the completion of its descents")
    pool = sorted(set(s) | {lat.full}, key=lambda f: (lat.rank_of(f), f))
    monomials = []
    for k in range(len(pool) + 1):
        for supp in combinations(pool, k):
            j_by = []
            ok = True
            for v in supp:
                j = 0
                for u in supp:
                    if u != v and u & ~v == 0:
                        j = lat.join(j, u)
                gap = lat.rank_of(v) - lat.rank_of(j)
                if gap < 2:
                    ok = False
                    break
                j_by.append(gap)
            if not ok:
                continue
            if completion(bm, frozenset(supp) - set(bm.maxg)) != s:
                continue
            for expos in product(*(range(1, g) for g in j_by)):
                monomials.append(tuple(zip(supp, expos)))
    degs = sorted(sum(a for _, a in m) for m in monomials)
    poly = [0] * (max(degs, default=0) + 1)
    for d in degs:
        poly[d] += 1
    poly = normalize(poly)
    expected = _expected_fiber(dd.des, bm.rank)
    if poly != expected:
        raise FiberMismatch((sorted(s), poly, expected))
    return monomials, poly
