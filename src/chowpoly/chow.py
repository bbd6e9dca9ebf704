"""Chow polynomials by independent routes, the descent formula, and Ψ-fibers.

Routes: the FY monomial count (chow_polynomial), the deletion recursion
(chow_by_deletion), filtration pullbacks (chow_by_filtration), and exact
linear algebra on the toric presentation (toric_hilbert_oracle).  They share
the lattice kernel, the building-set kernel and the interval relabeler
(building._interval, as its climb and its build), but no Chow arithmetic:
their agreement is the point.

chow_polynomial counts the FY basis without listing it.  The maximal
elements of a nested set are exactly the G-factors of their join
(Feichtner–Kozlov), so supports can be grouped by that join F:

    P(0) = 1,   P(F) = prod over h in factors_G(F) of Q(h),
    Q(g) = sum over F < g with rk g - rk F >= 2 of
           P(F) * (t + ... + t^(rk g - rk F - 1))   for g in G,
    H = sum over F of P(F),

one bottom-up pass over the lattice of flats.  For G_max this is the
recursion of Ferroni–Matherne–Schulte–Vecchi.  The pass runs on integers,
each polynomial packed as its value at t = 2^W with W read off a bound on
the number of FY monomials (Kronecker substitution), and H is unpacked
once at the end; the proof that nothing carries is in chow_polynomial.
The other routes keep coefficient lists.  The enumeration of supports
survives only in fy_monomials, psi_fibers and psi_fiber_of, which the
Ψ-fibers need; all three walk `nested.nested_subsets`, psi_fiber_of over
s ∪ max G only, and psi_fibers completes each support once.

chow_by_deletion relabels its input once, element order[i] becoming i, so
that every minor of the recursion has the identity order: the deleted
element is the last one, and an interval's covers, labelled by their least
new element, are then also in the order of their earliest.  Every memo key
is therefore an identity key, and an interval's is read off the climb of
`building._interval_climb` before the interval is built, so an interval is
built only when its key misses the memo, and one of rank 1 is not even
climbed.  The deletion chain M ⊃ M ∖ e ⊃ … runs on one lattice, that of
its first minor: the minor M|{0..k-1} is the set of live flats of that
lattice, those spanned by their trace on {0..k-1}
(`lattice.LiveLattice`), so no step builds a lattice, and a minor's view
is made only once its key has missed.  A climb takes no join: it reads
the induced set off the G-factor rows of the flats it reaches, and every
minor of a chain reads the rows of the chain's first built matroid, cut
down to its elements; an interval built on a miss takes its own rows
from the climb.  The chain is a loop that fills the memo from the end by
suffix sums, and the memo gets the same keys and values as a recursion
in the given order (proof in `chow_by_deletion`).

chow_by_filtration starts from the built matroid its filtration validated
on the minimal set (`Filtration.base`, built even when the walk takes no
step) and carries the maximal elements along the walk.  A star step's
local intervals are read off the step: (0, a1), (0, a2), (g, m) for the
maximal m above g, and (0, m') for every other maximal m', with no join.
The top of each is in its induced set, so a link of rank 1 has series 1
and one of rank 2 has series 1 + t, read off the ranks with no climb.  A
link of rank 3 or more is counted once per key of its climb
(`_climb_key`), which fixes the link up to the order of its elements, so
a link is built only when its key is new to the call.  The climbs read
the G-factor rows of the current set, each made from the base's table
when first asked for and brought up to date as flats are added
(`_GrownRows`).

gamma_by_descents multiplies, over the maximal building-set elements m,
the descent polynomials of the stable pairs below m
(`nested._stable_pairs`), read in place.  The Ψ-fibers of a direct sum
need no case of their own either: completion and the descent data read
ŝ = s ∪ max G, and a fiber over a stable facet with d descents generates
t^d (1+t)^(k-2d) with k = rank - |max G|.

toric_hilbert_oracle stays in integers.  The linear forms are e_i - e_b0
with b0 the least element of i's block of max G, so each pairs with a ray
as 0 or +-1.  Face monomials of degree d extend those of degree d - 1 by
one ray, which must be nested with every ray of the support: one bitmask
test against the ray's nested pairs, read off the G-factor rows of length
2 once per call.  A flag complex is the clique complex of its edges, so on
a flag set that test is the face test.  On any other set each monomial
carries the roots of its support, and a new ray that passes the mask
test is placed on them (`nested._place`), which decides the face.  The
relation rows theta_j*mu of a degree are added one form at a time, and a
row pivots on its greatest column (`_add_row`), so the pivot leads of
the previous degree are the leading monomials of the ideal of the forms
added so far.  The row theta_j*mu is skipped when mu became a pivot lead
while an earlier form's rows were added: a Koszul syzygy already spans
it (Faugère's F5 criterion; proof in `_toric_dims`), and few of the rows
left reduce to zero.  Pivot rows are kept primitive with a positive
pivot entry.  That entry is nearly always 1; against any other pivot a
row is first scaled by it.  Then the row is reduced in place, row <-
row - b*pivot, and a scaled row is divided by the gcd of its entries.
"""

from bisect import bisect_left
from itertools import product
from math import gcd

from .building import (
    _deleted_bset,
    _disjoint_nested,
    _flag_by_factor_table,
    _interval_build,
    _interval_climb,
    binary_filtration,
    g_min,
    is_complete,
)
from .errors import (
    BadParameters,
    FiberMismatch,
    MixedFactorStep,
    NoBinaryFiltration,
    NotComplete,
    NotFlag,
    NotMaximal,
    Stuck,
    TooLarge,
)
from .lattice import LiveLattice, bits, deletion_index
from .nested import (
    _place,
    _stable_pairs,
    completion,
    descent_set,
    nested_subsets,
    stable_descent_sets,
)
from .polynomials import binom_poly, normalize, padd, pmul, trange

_DELETION_MEMO = {}


# ---------------------------------------------------------------------------
# FY monomials


def fy_monomials(bm):
    """Stream monomials as tuples ((flat, exponent), ...) sorted by flat; the
    empty tuple is the degree-0 monomial."""
    for supp, gaps in nested_subsets(bm, bm.bset, 2):
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
    order, so every P a flat needs is already known.  factors_G(F) is a row
    of the G-factor table (`BuiltMatroid.factors`).

    The recursion runs on integers: every polynomial is its value at
    t = X = 2^W (`_pack_width`), so a sum or product of polynomials is one
    int operation, and H is read off in base X at the end.  Evaluation at
    X is a ring homomorphism Z[t] -> Z, so the int is H(X) exactly whatever
    the sizes on the way, and its base-X digits are the coefficients of H
    as soon as each of them lies in [0, X).  They are counts, so they are
    at least 0, and each is at most H(1), the number of FY monomials:

    - a support is a nested set in which each member g has a gap, rk g
      minus the rank of the join of the members below it, of at least 2,
      with an exponent in 1..gap - 1;
    - ranks add over the G-factors of a join, so the gaps of a support add
      up to the rank of its join, at most rk: it has at most rk members,
      and every exponent is below rk;
    - listing a monomial's (member, exponent) pairs in a fixed order and
      padding with blanks to rk slots is one to one, and each slot holds
      one of at most |G| * (rk - 1) + 1 values.

    So H(1) <= ((|G| + 1) * rk)^rk < 2^W.
    """
    lat, bset = bm.lat, bm.bset
    w = _pack_width(bm)
    x = 1 << w
    ranges = [0, 0]  # ranges[gap] = X + ... + X^(gap-1), trange(1, gap - 1)
    for gap in range(2, lat.rk + 1):
        ranges.append(ranges[-1] * x + x)
    p = {0: 1}
    out = 1
    for f, r in zip(lat.flats[1:], lat.ranks[1:]):
        if f in bset:
            by_gap = [0] * (r + 1)
            for e, re in zip(lat.flats, lat.ranks):
                if re > r - 2:
                    break
                if e & ~f == 0:
                    by_gap[r - re] += p[e]
            poly = 0
            for gap in range(2, r + 1):
                poly += by_gap[gap] * ranges[gap]
        else:
            poly = 1
            for g in bm.factors(f):
                poly *= p[g]
        p[f] = poly
        out += poly
    coeffs = []
    while out:
        coeffs.append(out & (x - 1))
        out >>= w
    return coeffs


def _pack_width(bm):
    """W with every coefficient of H(M, G) below 2^W: the bit length of
    ((|G| + 1) * rk)^rk, a bound on H(1) (`chow_polynomial`)."""
    rk = bm.lat.rk
    return (((len(bm.bset) + 1) * rk) ** rk).bit_length()


# ---------------------------------------------------------------------------
# deletion recursion


def chow_by_deletion(bm):
    """H(M,G) = H(M-e, G-e) + sum over S_e of (t+...+t^{n_F}) * H(M|_{F-e})
    * H(M/F), with e the order-greatest element and S_e the building-set flats
    in which e is a coloop, except the atom of e.

    e is a coloop of M|F iff F ∖ e is a flat of M (`_deleted_bset`), and
    n_F, the number of (G-e)-factors of F ∖ e, is the length of the
    G-factor row of F ∖ e in the minor whose S_e terms are summed (the
    restriction to F ∖ e is the same there, below): no closure and no
    factor scan.

    A built matroid whose order is not the identity is relabeled once
    (`BuiltMatroid.relabeled`), element order[i] becoming i, and the
    recursion runs on the copy.  There every minor has the identity order:
    e is n - 1, which deleting drops with no shift, leaving the order
    0..n-2, and `_interval` labels the covers of its bottom by their least
    new element, which is also their earliest in the identity order, so
    the local order is the identity.  So every memo key is an identity
    key, and that of an interval is read off its climb (`_climb_key`)
    before the interval is built.

    The deletion chain runs on the lattice of its first minor M, the root
    (`_minors`).  Each minor is M_k = M|{0..k-1}, and with K = {0..k-1}
    its flats are the traces F ∩ K of the flats F of M.  A trace t is the
    trace of one flat that it spans, cl_M(t), the live flat of t; the
    others above t hold elements outside K.  So:
    - t -> cl_M(t) is a bijection from the flats of M_k onto the live
      flats, with inverse F -> F ∩ K, and both keep inclusion; it keeps
      rank, since t spans cl_M(t);
    - a cover of M_k, two flats with inclusion and ranks one apart, is
      thus a cover in M between two live flats, and every such cover is
      one of M_k.  A climb walks M's covers_up and keeps to live flats
      (the -1 of `LiveLattice.flats`), so it meets exactly the covers of
      M_k;
    - the G_k-factors of a trace t are the traces of the G-factors of its
      live flat F, so every minor reads M's G-factor table
      (`BuiltMatroid.factor_table`), indexed like `LiveLattice`, with each
      entry cut down to K, and none needs a table of its own.  G_k is the
      set of traces of the live members of G (`_deleted_bset`, one step
      at a time).  The G-factors F_i of F are live: rk F = Σ rk F_i ≥
      Σ rk(F_i ∩ K) ≥ rk(F ∩ K) = rk F, so rk(F_i ∩ K) = rk F_i.  Their
      traces are thus members of G_k, disjoint, with union t and ranks
      adding up to rk t, and a member t′ ≤ t of G_k has its live flat, a
      member of G, below F, so under some F_i, and t′ ≤ F_i ∩ K.  So the
      traces of the F_i are the maximal members of G_k below t, its
      G_k-factors, and t alone when t is a member;
    - with e = k - 1, the map from each flat of M_(k-1) to the index of
      its live flat is `lattice.deletion_index` of that of M_k: the flat
      cl_(M_k)(t ∖ e) of M_k, t or t ∖ e, has the live flat cl_M(t ∖ e);
    - G_(k-1) is `_deleted_bset` of G_k with the flats of M_k, the set of
      `delete_element`, whose masks need no shift for the last element.
      So the key (k - 1, sorted traces, sorted G_(k-1)) is that of
      `delete_element` of the last element of M_k;
    - the restriction [0, f ∖ e] of M_(k-1), with f ∖ e a flat of M_k, is
      that of M_k with the same induced set: its flats are the flats of
      M_k below f ∖ e, which lacks e, and a member g ⊆ f ∖ e of G_(k-1)
      is a flat of M_k, its own closure, so it lies in G_k, and the other
      way round.  So every climb of the step for M_k runs on M_k.
    No minor of the chain gets a lattice or a G-factor table of its own,
    and an interval gets a lattice only when its key misses the memo
    (`_interval_build`), with a table read off the rows of the climb
    (proof in `building._interval_build`).  So no climb of the route
    takes a join: the induced set of each interval is read off the rows
    (`building._interval_climb`), and an interval's table is carried
    into the chain run on it, as is that of a relabeled copy.

    The memo gets the keys and values it got when the recursion ran in
    the given order.  The key of a built matroid X is the identity key
    of its relabeled copy X' (`BuiltMatroid.key`), and each minor the
    recursion takes of X' is the relabeled copy of the matching minor of
    X, so the two have one key:
    - deleting e = order[-1] from X leaves order[i] at place i of the new
      order for i < n - 1, and in X' ∖ (n - 1) it is i;
    - an interval of X numbers the covers of its bottom, in its key, in
      the order of their earliest elements in X's order, and the matching
      interval of X' in the order of their least elements, which are the
      places of those earliest elements.
    The two routes thus meet the same keys with the same values.  They
    need not meet them in one order: `_deletion` adds up the S_e terms of
    a minor before it moves down the chain, where the recursion moved down
    first, so a key that the recursion found in the memo may be computed
    here, and the other way round.  Which keys hit, and which intervals
    get built, can therefore differ; the keys stored and their values
    cannot, since a key's value is H of its minor.

    An interval of rank 1 has H = [1], and is neither climbed nor looked
    up.  Any other is climbed, and built only when its key misses the
    memo."""
    if bm.n == 1:
        return [1]
    if bm.order != tuple(range(bm.n)):
        bm = bm.relabeled()
    return _deletion(bm, bm.key())


def _deletion(bm, key):
    """`chow_by_deletion` of bm, of the identity order and more than one
    element, whose memo key is key.

    A loop down the deletion chain of `_minors`: it adds up the S_e terms
    of the current minor, moves to the next, and stops at one element or
    at a memo hit.  H of a minor is then the sum of its terms and those of
    every minor after it, so the memo is filled from the end of the chain
    by suffix sums, with the keys and values of the recursion that
    recursed into the deletion first.  A minor past the first gets its
    `LiveLattice` only once its key has missed.  Every climb reads the
    G-factor rows of bm (`BuiltMatroid.factor_table`), which serve every
    minor of the chain."""
    root, rows = bm.lat, bm.factor_table()
    chain = []  # (key, sum of the S_e terms) of each minor left to store
    out = [1]  # H of the one-element minor that ends the chain
    for key, idx, bset in _minors(bm, key):
        h = _DELETION_MEMO.get(key)
        if h is not None:
            out = list(h)
            break
        lat = LiveLattice(root, idx, key[0]) if chain else root
        ebit = 1 << (lat.n - 1)
        terms = []
        for f in sorted(bset):
            fd = f & ~ebit
            if f == fd or not fd or fd not in idx:
                continue  # e not in f, f the atom {e}, or e not a coloop in f
            n_f = len(rows[idx[fd]])  # the G-factors of f ∖ e
            term = pmul(trange(1, n_f), _interval_series(lat, rows, 0, fd))
            if f != lat.full:
                term = pmul(term, _interval_series(lat, rows, f, lat.full))
            terms = padd(terms, term)
        chain.append((key, terms))
    for key, terms in reversed(chain):
        out = padd(out, terms)
        _DELETION_MEMO[key] = tuple(out)
    return out


def _minors(bm, key):
    """The deletion chain of bm, of the identity order and with the memo
    key key, down to two elements: (key, index map, building set) of each
    minor M|{0..k-1}, k = n, n-1, …, 2.  The first index map is that of
    bm's lattice, and each later one maps the traces on {0..k-1} to their
    live flats in it; it and the set are taken from the last ones by the
    rules of `delete_element` (proof in `chow_by_deletion`).

    The map is updated in place, so a minor's map is read before the next
    one is asked for.  The traces are kept sorted for the key, and those
    that hold the deleted element k are the ones from 1 << k on, so a step
    touches only those (`deletion_index`) and merges the traces that took
    their indices back into the sorted list.  The map is copied once it
    holds under three quarters of the keys it had when last copied, as a
    dict does not shrink when keys leave it."""
    root, bset = bm.lat, bm.bset
    yield key, root.idx, bset
    idx, traces = dict(root.idx), sorted(root.flats)
    copied = len(idx)
    for k in range(bm.n - 1, 1, -1):  # to M|{0..k-1}: delete element k
        bset = _deleted_bset(bset, k, idx)
        cut = bisect_left(traces, 1 << k)
        moved = deletion_index(idx, k, traces[cut:])
        if 4 * len(idx) < 3 * copied:
            idx = dict(idx)
            copied = len(idx)
        del traces[cut:]
        traces += moved
        traces.sort()  # two sorted runs: one merge
        yield (k, tuple(traces), tuple(sorted(bset))), idx, bset


def _interval_series(lat, rows, bottom, top):
    """H of the interval [bottom, top] of a lattice of the identity order
    with the G-factor rows rows; the interval is built only when its key
    misses the memo, and a rank-1 interval, whose H is 1, is not climbed.
    H may be the memo's tuple, so it is only read."""
    if lat.ranks[lat.idx[top]] - lat.ranks[lat.idx[bottom]] == 1:
        return (1,)
    climb = _interval_climb(lat, rows, bottom, top)
    key = _climb_key(climb)
    h = _DELETION_MEMO.get(key)
    if h is None:
        h = _deletion(_interval_build(lat, range(lat.n), climb)[0], key)
    return h


def _climb_key(climb):
    """`BuiltMatroid.key` of `_interval_build` of the climb in the identity
    order, where the local order is the identity: the sorted local masks
    and the sorted induced set."""
    n, _, local, _, local_bset, _ = climb
    return (n, tuple(sorted(local.values())), tuple(sorted(local_bset)))


# ---------------------------------------------------------------------------
# filtration pullbacks


def chow_by_filtration(bm, trace=False):
    """Walk a binary filtration from the minimal building set up to
    bm.bset, starting from the FY value on the minimal set.

    Each step adds a flat with exactly two factors A in the current set,
    recorded by the filtration: if both are maximal the series multiplies
    by (1+t) (subdivision inside the lineality space); if both are
    non-maximal it gains t * product of the local-interval series of A
    (the star of the cone).  The links of a star step are those of the
    nested set {a1, a2} ∪ max G, read off the step with no join:
    (0, a1), (0, a2), (g, m) for the maximal m above g, and (0, m') for
    each other maximal m'.  Both factors lie under m (below), and J^m =
    a1 ∨ a2 = g, since the factors of g partition it.
    With trace=True returns (h, intermediates) where intermediates holds the
    series after every step including the starting value.

    A link of rank at most 2 needs no lattice.  The top of every link
    lies in the current set: a1 and a2 are members (the factors of the
    added flat), and so are g and every maximal m'.  The induced set of
    [j, top] holds j ∨ top = top.  A link of rank 1 has series 1.  In a
    link of rank 2 an FY support is a nested set of members with gap at
    least 2 each; an atom has gap 1, so the only nonempty support is
    {top}, with exponent 1, and the series is 1 + t.  The walk reads the
    gap off lat.ranks, and only a link of rank 3 or more is climbed.

    The base is the built matroid the filtration validated on the minimal
    set, `BuiltMatroid(lat, small, bm.order)`, also when the walk takes no
    step, so FY reads a G-factor table already built.  The set a step
    climbs on is the base's set with the flats added so far, and the
    climbs read its G-factor rows, grown from the base's table
    (`_GrownRows`); the filtration keeps only the steps.  A local
    interval [J^g, g] of rank 3 or more with its induced set is counted
    once per key of its climb (`_climb_key` of `_interval_climb`), in a
    dict local to the call, and built only when that key is new.  The key fixes the series:
    - the climb labels the covers of J^g below g by their least new
      element, and gives each flat of [J^g, g] its local mask and the
      induced set {J^g ∨ h : h in the current set, h <= g, h not <= J^g}
      in those masks; the key is the number of labels, the sorted local
      masks and the sorted induced set;
    - the local masks are the flats of the local lattice, whose ranks and
      covers are those of inclusion among them, and `_interval_build`
      lists them in (rank, mask) order, so two climbs with one key build
      the same lattice and the same building set, and differ at most in
      the order of the elements;
    - FY reads the lattice and the G-factor table of the building set and
      not the order, so the series of a link is that of any link with
      its key, whatever bm.order is.
    Links on different bounds, or with different induced sets, share a
    key whenever their climbs give the same masks, so a walk builds far
    fewer links than it stars.

    The walk carries the maximal elements of the current set, starting
    from those of the base, and builds no built matroid per step.  Adding
    g with factors a1, a2 changes them only on a (1+t) step:
    - if a1 and a2 are maximal, they leave and g takes their place: g lies
      under no maximal m, which would lie strictly above a1, and a maximal
      element below g is a factor of g, that is a1 or a2;
    - if neither is maximal, both lie under one maximal m, so g <= m and g
      is not maximal.  Say a1 <= m1 and a2 <= m2 with m1 != m2.  Then g
      meets m1 through a1, and neither contains the other: g <= m1 would
      put a2 in m1, which the disjoint maximal elements forbid, and m1 <=
      g would make m1 a member below g above the factor a1, so m1 = a1,
      which is not maximal.  So g ∨ m1 lies in the new set, and since it
      is not g, in the current one, strictly above the maximal m1.
    """
    lat = bm.lat
    ranks, idx = lat.ranks, lat.idx
    try:
        filt = binary_filtration(bm, g_min(lat))
    except (NotFlag, Stuck) as exc:
        raise NoBinaryFiltration(exc.args[0]) from exc
    h = chow_polynomial(filt.base)
    steps = [list(h)]
    maxg = set(filt.base.maxg)  # the maximal elements of the current set
    link_series = {}  # `_climb_key` of a link -> its series
    rows = _GrownRows(lat.flats, filt.base.factor_table())
    for added, a in zip(filt.added, filt.factors):
        in_max = [f in maxg for f in a]
        if all(in_max):
            h = pmul(h, [1, 1])
            maxg.difference_update(a)
            maxg.add(added)
        elif not any(in_max):
            a1, a2 = a
            m = next(x for x in maxg if added & ~x == 0)
            links = [(0, a1), (0, a2), (added, m)]
            links += [(0, x) for x in maxg if x != m]
            star = [1]
            for j, g in links:
                gap = ranks[idx[g]] - ranks[idx[j]]
                if gap == 2:
                    star = pmul(star, [1, 1])
                if gap <= 2:
                    continue
                climb = _interval_climb(lat, rows, j, g)
                key = _climb_key(climb)
                series = link_series.get(key)
                if series is None:
                    link = _interval_build(lat, bm.order, climb)[0]
                    series = link_series[key] = chow_polynomial(link)
                star = pmul(star, series)
            h = padd(h, pmul([0, 1], star))
        else:
            raise MixedFactorStep((added, a))
        rows.added.append(added)
        steps.append(list(h))
    if trace:
        return h, steps
    return h


class _GrownRows:
    """The G-factor rows, by lattice index, of the set a filtration walk
    climbs on, base ∪ added, with base the G-factor table of the walk's
    base set and added the flats it has added so far, one per step.  A
    row is made when it is first asked for and brought up to date when it
    is asked for again after more flats were added, so a flat's row folds
    in each added flat once.

    The row of h is the maximal members of the set below h, h included:
    h alone when h is a member, and otherwise its G-factors.  With no flat
    added it is h's base row.  Adding a flat a ≤ h leaves it as it is when
    a lies below an entry, and otherwise puts a in place of the entries
    below a; this is also how a = h itself comes in."""

    def __init__(self, flats, base):
        self.flats, self.base, self.added = flats, base, []
        self.rows = {}  # lattice index -> (its row, added flats folded in)

    def __getitem__(self, i):
        row, seen = self.rows.get(i) or (self.base[i], 0)
        if seen < len(self.added):
            f = self.flats[i]
            for a in self.added[seen:]:
                if a & ~f == 0 and all(a & ~x for x in row):
                    row = (*(x for x in row if x & ~a), a)
            self.rows[i] = row, len(self.added)
        return row


# ---------------------------------------------------------------------------
# toric Hilbert oracle


def toric_hilbert_oracle(bm):
    """Graded dimensions of the ray ring modulo the nonface ideal and the
    linear forms vanishing on the lineality space, by exact elimination per
    degree.  Raises TooLarge beyond 12 rays or rank 5."""
    n_rays = len(bm.bset) - len(bm.maxg)
    if n_rays > 12 or bm.lat.rk > 5:
        raise TooLarge((n_rays, bm.lat.rk))
    return _toric_dims(bm)


def _toric_dims(bm):
    """The elimination behind toric_hilbert_oracle, with no cut-off.

    The maximal elements of G are disjoint blocks covering the ground set,
    so the forms e_i - e_b0, with b0 the least element of i's block and
    i != b0, are a basis of the forms vanishing on the lineality space.
    Their pairings with the rays are 0 or +-1, computed once per (form, ray).

    A degree-d monomial is a nondecreasing tuple of ray indices, kept as
    (key, last index, support mask, roots) with key = sum of
    (top+1)**index.  It extends a degree-(d-1) one by a ray r at or after
    its last, and the new support s = supp ∪ {r} must be nested.  supp is
    nested, so it is pairwise nested, and s is pairwise nested iff
    supp & ~pairs[r] == 0, where pairs[r] is the mask of the rays nested
    with r (`_ray_pairs`, built once per call).  When the nested set
    complex of G is flag (`building._flag_by_factor_table`, once per
    call), that mask test is the whole face test, and roots stays empty:
    - a flag complex is the clique complex of its edges: a set of vertices
      is a face iff every two of its members form an edge, here iff the
      set is pairwise nested;
    - the faces made of rays are the subcomplex induced on the rays, whose
      edges are the complex's edges between rays, and an induced
      subcomplex of a flag complex is flag: a pairwise nested set of rays
      is a face of the complex, so a face of the subcomplex;
    - two rays a and b are nested iff they are comparable, or disjoint
      with a ∪ b a flat whose G-factor row has 2 entries (the first point
      of `building.flag_nonface_witness`); two incomparable rays that meet
      join inside G.
    On a set that is not flag, roots holds the maximal rays of supp, in
    the order they were placed, and a new ray r that passes the mask test
    is placed on them (`nested._place`), which decides whether s is nested
    and gives the roots of s.  The rays are sorted by mask, and a flat
    that contains another has the greater mask, so no ray of supp contains
    r, as `_place` asks.  A ray r already in supp leaves the support and
    its roots as they are.

    The degree-d relations are the rows theta_j*mu, for theta_j a form and
    mu a face monomial of degree d-1, written in the face ring, where
    nonfaces vanish; the columns are the degree-d monomials in the order
    they were made.  Rows stay integral and are reduced by `_add_row`,
    which pivots on a row's greatest column: row <- row - b*pivot, in
    place, after scaling the row by a, the pivot's leading entry, when
    that is not 1 (nearly every pivot leads with 1), and then dividing a
    scaled row by the gcd of its entries.  Both steps are invertible over
    Q, so each degree's rank is the rank over Q.

    The rows are added one form at a time, theta_0 first, and within a
    form in the order of mu.  born[k] is the form whose row made column k
    of the previous degree a pivot (len(pairings) when none did; the
    empty monomial of degree 0 is no pivot), and the row theta_j*mu is
    skipped when born[mu] < j.  That is Faugère's F5 criterion for the
    Koszul syzygies theta_i*theta_j = theta_j*theta_i, and it leaves each
    degree's rank as it is:
    - `_add_row` never changes a stored pivot, and pivot leads are
      distinct.  So once every row of theta_0 .. theta_(j-1) has been
      added in degree d-1, the pivot leads are exactly the leading
      (greatest) columns of the degree-(d-1) part of the ideal
      (theta_0, ..., theta_(j-1)) of the face ring, and born[mu] < j says
      that mu is one of them.
    - Then g = a*mu + sum over nu < mu of c_nu*nu, with a != 0, lies in
      that ideal, g = sum over i < j of theta_i*p_i, so
      a*theta_j*mu = sum over i < j of theta_i*(theta_j*p_i)
                     - sum over nu < mu of c_nu*theta_j*nu.
      The first sum is made of rows of earlier forms (theta_j*p_i is a
      combination of face monomials of degree d-1), and the second of
      rows of theta_j at smaller columns.
    - By induction in (form, column) order, every skipped row lies in the
      span of the rows that are kept, so each degree's rank over Q is
      unchanged.  This needs no regular sequence and no Cohen–Macaulay
      hypothesis, so it holds on flag and non-flag sets alike.  The same
      induction shows that the rows kept in degree d-1 span what all of
      them span, so the leads recorded there are the true ones.
    Few of the rows left reduce to zero.
    """
    rays = sorted(bm.bset - set(bm.maxg))
    top = bm.rank - len(bm.maxg)
    powers = [(top + 1) ** r for r in range(len(rays))]
    pairings = []
    for block in bm.maxg:
        b0, *rest = bits(block)
        for i in rest:
            signs = [(g >> i & 1) - (g >> b0 & 1) for g in rays]
            pairings.append([(r, c) for r, c in enumerate(signs) if c])
    pairs = _ray_pairs(bm, rays)
    flag = _flag_by_factor_table(bm)
    idx, table = bm.lat.idx, bm.factor_table()
    prev = [(0, 0, 0, [])]
    born = [len(pairings)]  # the empty monomial is no pivot
    dims = [1]  # no relations in degree 0
    for _ in range(top):
        mons = []
        for key, last, supp, roots in prev:
            for r in range(last, len(rays)):
                if supp & ~pairs[r]:
                    continue
                up = roots
                if not (flag or supp >> r & 1):
                    placed = _place(idx, table, roots, rays[r])
                    if placed is None:
                        continue
                    up = placed[1]
                mons.append((key + powers[r], r, supp | 1 << r, up))
        index = {mon[0]: i for i, mon in enumerate(mons)}
        pivots = {}
        born_here = [len(pairings)] * len(mons)
        for j, pairing in enumerate(pairings):
            for (key, *_), at in zip(prev, born):
                if at < j:
                    continue
                row = {}  # distinct rays give distinct monomials of mu
                for r, c in pairing:
                    i = index.get(key + powers[r])
                    if i is not None:
                        row[i] = c
                lead = _add_row(pivots, row)
                if lead is not None:
                    born_here[lead] = j
        dims.append(len(mons) - len(pivots))
        prev, born = mons, born_here
    return normalize(dims)


def _ray_pairs(bm, rays):
    """For each ray, the int bitmask over positions in rays of the rays
    nested with it: those comparable with it, itself included, and the
    disjoint ones of `building._disjoint_nested` (proof in `_toric_dims`)."""
    disjoint = _disjoint_nested(bm, rays)
    pairs = []
    for g in rays:
        mask = disjoint[g]
        for k, h in enumerate(rays):
            if g & h in (g, h):
                mask |= 1 << k
        pairs.append(mask)
    return pairs


def _add_row(pivots, row):
    """Reduce an integer row against the pivot rows and keep what is left,
    if anything, as a new pivot row.

    Rows are dicts from column to nonzero int, and pivots maps each pivot
    row's leading (greatest) column to the row.  Every pivot row is
    primitive with a positive leading entry.  Against a pivot whose leading
    entry a is not 1 the row is first scaled by a.  Then it is reduced in
    place, row <- row - b*pivot with b the row's leading entry before the
    scaling, and a scaled row is divided by the gcd of its entries.  These
    are invertible row operations over Q, so the number of pivots is
    the rank over Q of the rows added; that holds for any choice of pivot
    column, and the greatest is the one whose pivots `_toric_dims` reads
    as leading monomials.  row is consumed.  Returns the leading column of
    the new pivot row, or None when the row reduces to zero.
    """
    while row:
        lead = max(row)
        piv = pivots.get(lead)
        if piv is None:
            div = gcd(*row.values())
            if row[lead] < 0:
                div = -div
            if div != 1:
                for k in row:
                    row[k] //= div
            pivots[lead] = row
            return lead
        a, b = piv[lead], row[lead]
        if a != 1:
            row = {k: a * v for k, v in row.items()}
        for k, v in piv.items():
            x = row.get(k, 0) - b * v
            if x:
                row[k] = x
            else:
                del row[k]
        if a != 1 and row:
            div = gcd(*row.values())
            row = {k: v // div for k, v in row.items()}


# ---------------------------------------------------------------------------
# descent formula and Ψ-fibers


def gamma_by_descents(bm):
    """The descent formula: the product, over the maximal building-set
    elements m, of the sum of t^des over the stable pairs below m
    (`nested._stable_pairs`, the pairs of the restriction [0, m]), padded to
    the canonical γ length floor(deg/2)+1 with deg = rank - |max G|.  A
    direct sum's stable facets are tuples of factor stable facets, and
    descents add, so this is the sum of t^des over `stable_descent_sets`.
    Equals the γ-expansion of the Chow polynomial exactly when bm is
    complete."""
    out = [1]
    for m in bm.maxg:
        counts = [0] * ((bm.lat.rank_of(m) - 1) // 2 + 1)
        for _, d in _stable_pairs(bm, m):
            counts[len(d)] += 1
        out = pmul(out, counts)
    want = (bm.rank - len(bm.maxg)) // 2 + 1
    return out + [0] * (want - len(out))


# The name the benchmark imports; there is one descent formula.
gamma_by_descents_factored = gamma_by_descents


def _expected_fiber(des, k):
    return pmul([0] * des + [1], binom_poly(k - 2 * des))


def _require_complete(bm):
    if not is_complete(bm):
        raise NotComplete("ψ-fibers need a complete built matroid")


def _checked_fiber(bm, s, des, degs):
    """The polynomial of the fiber over the stable facet s, from the degrees
    of its monomials, checked to be t^des (1+t)^(k-2 des) with k = rank -
    |max G|, the degree of the Chow polynomial."""
    poly = [0] * (max(degs, default=0) + 1)
    for d in degs:
        poly[d] += 1
    poly = normalize(poly)
    expected = _expected_fiber(des, bm.rank - len(bm.maxg))
    if poly != expected:
        raise FiberMismatch((sorted(s), poly, expected))
    return poly


def psi_fibers(bm):
    """Group FY monomials by the completion of their support; the fiber of
    each stable facet must generate exactly t^des (1+t)^(k-2 des), with
    k = rank - |max G|.  Each support of `nested_subsets` is completed
    once, and the degrees of its monomials, the sums of their exponents,
    join its fiber.

    A direct sum needs no case of its own: its FY monomials are products of
    one monomial below each maximal element m, completion fills in each
    local interval below its own m, and its stable facets and descents are
    those of the factors side by side (`stable_descent_sets`), so the
    fibers are products of the factor fibers and the exponents add."""
    _require_complete(bm)
    maxset = set(bm.maxg)
    fibers = {}
    for supp, gaps in nested_subsets(bm, bm.bset, 2):
        s = completion(bm, frozenset(supp) - maxset)
        degs = fibers.setdefault(s, [])
        degs += map(sum, product(*(range(1, g) for g in gaps)))
    stables = {frozenset(f): d for f, d in stable_descent_sets(bm)}
    for s in fibers:
        if s not in stables:
            raise FiberMismatch(("unstable image", sorted(s)))
    return {
        s: _checked_fiber(bm, s, len(d), fibers.get(s, []))
        for s, d in stables.items()
    }


def psi_fiber_of(bm, s):
    """The fiber of a single stable facet without enumerating all of FY.
    Completion only adds flats, so a support that completes to s lies in
    s ∪ max G.  The supports are walked by `nested_subsets` over s ∪ max G
    and kept when they complete to s; s is checked by `descent_set`."""
    _require_complete(bm)
    maxset = set(bm.maxg)
    s = frozenset(s) - maxset
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
    monomials = []
    for supp, gaps in nested_subsets(bm, s | maxset, 2):
        if completion(bm, frozenset(supp) - maxset) == s:
            for expos in product(*(range(1, g) for g in gaps)):
                monomials.append(tuple(zip(supp, expos)))
    degs = [sum(a for _, a in m) for m in monomials]
    return monomials, _checked_fiber(bm, s, dd.des, degs)
