"""Matroids and their geometric lattices of flats.

Ground elements are 0..n-1 and subsets are bitmask ints, so a flat is just an
int and subset tests are bitwise.  A lattice is fully materialized: flats,
ranks and the upper covers ``covers_up`` of every flat.  The covers of a flat
F partition E ∖ F, so joins and closures climb them, one cover per step.
Where the covers come from, and where a rescan finds and checks them:
- `lattice_of_flats`, on any matroid, records them in its BFS and checks
  each flat's list as it goes; no rescan;
- a `GeomLattice` built from a list of flats (the `flats` spec, `extend`,
  `truncate`): the rescan of `GeomLattice.__init__`;
- a deletion or an interval of a lattice takes them over from that lattice,
  and a `LiveLattice` walks that lattice's own.
"""

from dataclasses import dataclass

from .errors import (
    InvalidMatroid,
    NotAFlat,
    NotMeetClosed,
    NotUpwardClosed,
    TooLarge,
)

MAX_ELEMENTS = 64


def bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask):
    return mask.bit_count()


def maximal(family):
    """The inclusion-maximal masks of a family, largest first.

    One pass by falling popcount: a mask is kept iff no kept mask contains
    it, because anything that contains it came earlier."""
    out = []
    for f in sorted(family, key=popcount, reverse=True):
        if not any(f & ~m == 0 for m in out):
            out.append(f)
    return out


def minimal(family):
    """The inclusion-minimal masks of a family, smallest first (the mirror
    of `maximal`)."""
    out = []
    for f in sorted(family, key=popcount):
        if not any(m & ~f == 0 for m in out):
            out.append(f)
    return out


class Matroid:
    """A rank oracle on bitmask subsets of 0..n-1, with an optional closure
    oracle (without one, a closure costs n rank calls) and an optional
    cover oracle (without one, `covers` takes one closure per cover)."""

    def __init__(self, n, rank_fn, closure_fn=None, covers_fn=None):
        if not 0 <= n <= MAX_ELEMENTS:
            raise InvalidMatroid(f"ground set size {n} outside 0..{MAX_ELEMENTS}")
        self.n = n
        self._rank_fn = rank_fn
        self._closure_fn = closure_fn
        self._covers_fn = covers_fn
        self._rank_cache = {}

    def rank(self, mask):
        r = self._rank_cache.get(mask)
        if r is None:
            r = self._rank_fn(mask)
            self._rank_cache[mask] = r
        return r

    def closure(self, mask):
        if self._closure_fn is not None:
            return self._closure_fn(mask)
        r = self.rank(mask)
        out = mask
        for e in range(self.n):
            if not out >> e & 1 and self.rank(mask | 1 << e) == r:
                out |= 1 << e
        return out

    def covers(self, f):
        """The upper covers cl(F + e) of the flat F, one per cover.

        Close F plus its lowest missing element, drop that cover's elements
        and repeat: every element of a cover outside F closes to the same
        cover, so F costs one closure per cover rather than one per
        element.  The element closed is dropped too, so a closure oracle
        that leaves it out cannot loop forever."""
        if self._covers_fn is not None:
            return self._covers_fn(f)
        out = []
        rest = ((1 << self.n) - 1) & ~f
        while rest:
            low = rest & -rest
            g = self.closure(f | low)
            out.append(g)
            rest &= ~(g | low)
        return out


def validate_rank_axioms(m):
    """Check the rank axioms on all 2^n subsets; above n = 16 raise
    TooLarge rather than check fewer."""
    n = m.n
    if n > 16:
        raise TooLarge(f"rank axioms are checked on all 2^n subsets, n = {n} > 16")
    if m.rank(0) != 0:
        raise InvalidMatroid("rank of the empty set is not 0")
    for s in range(1 << n):
        rs = m.rank(s)
        if not 0 <= rs <= popcount(s):
            raise InvalidMatroid(f"rank {rs} of {s:b} out of bounds")
        for e in range(n):
            if s >> e & 1:
                continue
            d = m.rank(s | 1 << e) - rs
            if d not in (0, 1):
                raise InvalidMatroid(f"rank increment {d} adding {e} to {s:b}")
            for f in range(e + 1, n):
                if s >> f & 1:
                    continue
                if m.rank(s | 1 << e) + m.rank(s | 1 << f) < m.rank(
                    s | 1 << e | 1 << f
                ) + rs:
                    raise InvalidMatroid(f"submodularity fails at {s:b} with {e},{f}")
    return True


class GeomLattice:
    """The lattice of flats of a loopless matroid, fully materialized.

    flats are sorted by (rank, mask); ``idx`` maps mask -> position.  meet is
    plain intersection, and raises InvalidMatroid if that is not a flat;
    join climbs covers_up, whose covers of each flat F partition E ∖ F.
    """

    def __init__(self, n, flats_with_ranks):
        items = sorted(set(flats_with_ranks), key=lambda t: (t[1], t[0]))
        flats = [f for f, _ in items]
        ranks = [r for _, r in items]
        if len(set(flats)) != len(flats):
            raise InvalidMatroid("duplicate flat with conflicting ranks")
        if not flats or flats[0] != 0 or ranks[0] != 0:
            raise InvalidMatroid("missing bottom flat")
        if flats[-1] != (1 << n) - 1:
            raise InvalidMatroid("missing top flat")
        self._index(n, flats, ranks)
        seen = 0
        for i in self.atoms:
            if flats[i] & seen:
                e = next(bits(flats[i] & seen))
                raise InvalidMatroid(f"element {e} lies in two atoms")
            seen |= flats[i]
        if seen != self.full:
            bad = next(bits(self.full & ~seen))
            raise InvalidMatroid(f"element {bad} lies in no atom (loop?)")
        self._build_covers()

    @classmethod
    def _derived(cls, n, flats, ranks, covers_up, idx=None):
        """A lattice read off one that is already validated, with no check
        and no rescan.  The caller proves that flats and ranks are those of
        a geometric lattice in (rank, mask) order, and that covers_up is
        exactly what `_build_covers` yields on them: each flat's upper
        covers, as indices in ascending order.  A caller that already holds
        the map from each flat to its index hands it over as idx."""
        lat = cls.__new__(cls)
        lat._index(n, flats, ranks, idx)
        lat.covers_up = covers_up
        return lat

    def _index(self, n, flats, ranks, idx=None):
        """Every field but covers_up, from flats and ranks sorted by (rank,
        mask) that run from the empty set (rank 0) to the ground set, and
        idx when the caller has it already."""
        self.n = n
        self.full = (1 << n) - 1
        self.flats = flats
        self.ranks = ranks
        self.idx = {f: i for i, f in enumerate(flats)} if idx is None else idx
        self.rk = ranks[-1]
        self.by_rank = [[] for _ in range(self.rk + 1)]
        for i, r in enumerate(ranks):
            self.by_rank[r].append(i)
        self.atoms = list(self.by_rank[1]) if self.rk >= 1 else []
        self.atom_of_elem = [None] * n
        for i in self.atoms:
            for e in bits(flats[i]):
                self.atom_of_elem[e] = i
        self._factors = None

    def _build_covers(self):
        self.covers_up = [[] for _ in self.flats]
        flats = self.flats
        for r in range(self.rk):
            # a cover of f contains all of f: scan those through f's rarest element
            uppers = self.by_rank[r + 1]
            through = [[] for _ in range(self.n)]
            for j in uppers:
                for e in bits(flats[j]):
                    through[e].append(j)
            for i in self.by_rank[r]:
                f = flats[i]
                ups = [
                    j
                    for j in min((through[e] for e in bits(f)), key=len, default=uppers)
                    if f & ~flats[j] == 0
                ]
                _check_covers(f, [flats[j] for j in ups], self.full)
                self.covers_up[i] = ups

    # -- basic queries ------------------------------------------------------

    def is_flat(self, mask):
        return mask in self.idx

    def rank_of(self, mask):
        i = self.idx.get(mask)
        if i is None:
            raise NotAFlat(f"{mask:b} is not a flat")
        return self.ranks[i]

    def _climb(self, i, mask):
        """The least flat containing flat i and mask: step up to the cover
        of i holding the lowest missing element until none is missing."""
        flats = self.flats
        rest = mask & ~flats[i]
        while rest:
            low = rest & -rest
            for j in self.covers_up[i]:
                if flats[j] & low:
                    break
            i = j
            rest &= ~flats[i]
        return flats[i]

    def closure(self, mask):
        """Smallest flat containing an arbitrary subset mask."""
        return self._climb(0, mask)

    def join(self, f, g):
        if f not in self.idx or g not in self.idx:
            raise NotAFlat(f"join of non-flats {f:b}, {g:b}")
        return self._climb(self.idx[f], g)

    def meet(self, f, g):
        if f not in self.idx or g not in self.idx:
            raise NotAFlat(f"meet of non-flats {f:b}, {g:b}")
        m = f & g
        if m not in self.idx:
            raise InvalidMatroid(
                f"flats {f:b} and {g:b} meet in {m:b}, which is not a flat"
            )
        return m

    def covers(self, f):
        return [self.flats[j] for j in self.covers_up[self.idx[f]]]

    def simple(self):
        return all(popcount(self.flats[i]) == 1 for i in self.atoms)

    # -- direct-sum structure ----------------------------------------------

    def factor_table(self):
        """The direct-sum factors of every flat, indexed like flats
        (`_g_factor_table`, taken once); an irreducible F has the row (F,)."""
        if self._factors is None:
            self._factors = _g_factor_table(self)
        return self._factors

    def _factor_row(self, f):
        i = self.idx.get(f)
        if i is None:
            raise NotAFlat(f"{f:b} is not a flat")
        return self.factor_table()[i]

    def is_irreducible(self, f):
        return len(self._factor_row(f)) == 1


def _g_factor_table(lat, s=None):
    """The tops of every flat, indexed like lat.flats, in one pass in
    (rank, mask) order; None when s is given and is not a building set.

    The members are the flats of s, or, with s = None, the flats that
    their tops do not split.  The tops of a member F are (F,), and
    otherwise the maximal elements among the tops of F's lower covers,
    that is, the maximal members strictly below F.  They split F
    (`splits`) when their union is F and their ranks add up to rk F.  Then
    F is their direct sum, for they are disjoint: two that meet share a
    flat of rank at least 1, which by semimodularity their join loses, so
    the ranks of all the tops would add up to more than rk F.
    - s = None: by induction, the tops of F are the maximal irreducible
      flats strictly below F.  A reducible F is split by its direct-sum
      factors, which are these, and an irreducible F by nothing.  So the
      members are the irreducible flats, the other rows their factors.
    - s given and accepted: each flat outside s is split, so reducible,
      and members a, b below it that meet lie under one top m, so it is
      not their join, a ∨ b <= m.  So s is a building set (Feichtner–Kozlov
      2004).  A building set is accepted, with the G-factors as rows: the
      maximal members below a flat outside it are its G-factors, which
      split it."""
    below = [[] for _ in lat.flats]
    table = []
    for i, f in enumerate(lat.flats):
        if s is not None and f in s:
            tops = (f,)
        else:
            tops = tuple(maximal(set(below[i])))
            if not splits(lat, i, tops):
                if s is not None:
                    return None
                tops = (f,)
        table.append(tops)
        below[i] = None
        for j in lat.covers_up[i]:
            below[j].extend(tops)
    return table


def splits(lat, i, tops):
    """Whether the flats tops, strictly below F = lat.flats[i], split F:
    their union is F and their ranks add up to rk F (`_g_factor_table`)."""
    ranks, idx = lat.ranks, lat.idx
    union = rank = 0
    for g in tops:
        union |= g
        rank += ranks[idx[g]]
    return union == lat.flats[i] and rank == ranks[i]


def lattice_of_flats(m):
    """Materialize the lattice of flats of a loopless matroid.

    A breadth-first pass by rank, taking each flat's covers from
    `Matroid.covers`.  For a matroid closure these are exactly the covers
    that `GeomLattice._build_covers` finds by a rescan.  Let F be a flat of
    rank r:
    - for e outside F, cl(F + e) is a flat of rank r + 1 above F, since e
      is not in cl(F) = F;
    - a flat G of rank r + 1 above F, and any e in G ∖ F, give
      cl(F + e) ⊆ G of equal rank, so cl(F + e) = G.  The flats of rank
      r + 1 above F, which the rescan lists, are therefore the sets
      cl(F + e), and each e outside F lies in exactly one of them;
    - the pass meets a flat G of rank r + 1 first at level r + 1, and at
      no other level: with B a basis of G and b in B, G covers the flat
      cl(B - b) of rank r, and every cover raises the rank by one.
    Each level is sorted by mask once it is complete, so the flats come in
    (rank, mask) order, and each cover list is sorted to index order, as
    the rescan yields it.

    Where validation runs: every matroid keeps the covers the pass records
    and goes to `GeomLattice._derived`, with no rescan, whether it brings a
    closure or cover oracle of its own (the uniform, Boolean and graphic
    families of `chowpoly.families`, and the `flats` spec of the CLI, whose
    oracles read the lattice its flat axioms were checked on) or closes by
    rank calls (the `rank-table` spec of the CLI, whose rank axioms are
    checked on every subset first, the augmented matroid and a bare rank
    oracle).  Per flat, the pass checks what the rescan checks of a cover
    list: each cover strictly contains F, the covers are disjoint beyond F
    and their union is E.  It also checks that no flat is met at two
    ranks.  A faulty oracle so raises InvalidMatroid with a witness.
    What only the rescan sees, a flat of rank r + 1 above F that is
    missing from F's list, cannot arise from a matroid closure (above).
    The pass's dict of the flats met, with each rank replaced by the
    flat's index, becomes the lattice's idx.
    """
    if m.n == 0:
        raise InvalidMatroid("empty ground set")
    if m.closure(0) != 0:
        raise InvalidMatroid(f"loops present: {m.closure(0):b}")
    full = (1 << m.n) - 1
    seen = {0: 0}  # flat -> the rank it was first met at
    flats, ranks, covers_up = [0], [0], []
    level, r = [0], 0
    while level:
        nxt, found = [], []
        for f in level:
            ups = m.covers(f)
            _check_covers(f, ups, full)
            found.append(ups)
            for g in ups:
                s = seen.get(g)
                if s is None:
                    seen[g] = r + 1
                    nxt.append(g)
                elif s != r + 1:
                    raise InvalidMatroid(f"flat {g:b} met at ranks {s} and {r + 1}")
        nxt.sort()
        base = len(flats)
        flats += nxt
        ranks += [r + 1] * len(nxt)
        pos = {g: base + k for k, g in enumerate(nxt)}
        covers_up += [sorted(pos[g] for g in ups) for ups in found]
        level, r = nxt, r + 1
    for i, f in enumerate(flats):
        seen[f] = i  # the BFS dict becomes the lattice's idx
    return GeomLattice._derived(m.n, flats, ranks, covers_up, seen)


def _check_covers(f, ups, full):
    """Raise InvalidMatroid unless ups, the covers of the flat f, each
    strictly contain f inside the ground set full, are disjoint beyond f
    and have union full: the cover checks of `GeomLattice._build_covers`
    and of `lattice_of_flats`."""
    reached = f
    for g in ups:
        if f & ~g or g == f or g & ~full:
            raise InvalidMatroid(f"cover {g:b} of flat {f:b} is no proper superset")
        if g & ~f & reached:
            e = next(bits(g & ~f & reached))
            raise InvalidMatroid(f"element {e} above flat {f:b} in two covers")
        reached |= g
    if reached != full:
        e = next(bits(full & ~reached))
        raise InvalidMatroid(f"no cover of flat {f:b} through element {e}")


# ---------------------------------------------------------------------------
# modular pairs and modular cuts


def is_modular_pair(lat, f, g):
    return lat.rank_of(f) + lat.rank_of(g) == lat.rank_of(
        lat.join(f, g)
    ) + lat.rank_of(lat.meet(f, g))


@dataclass(frozen=True)
class ModularCut:
    """A validated modular cut (a frozenset of flats plus its quality flags)."""

    flats: frozenset
    proper: bool
    nonempty: bool
    atom_free: bool


def validate_modular_cut(lat, cut):
    """Check a family of flats is a modular cut; returns a ModularCut.

    Raises NotUpwardClosed or NotMeetClosed with a witness on failure.
    """
    cutset = frozenset(cut)
    for f in cutset:
        if not lat.is_flat(f):
            raise NotAFlat(f"{f:b} is not a flat")
    for f in sorted(cutset):
        for g in lat.covers(f):
            if g not in cutset:
                raise NotUpwardClosed((f, g))
    for f in sorted(cutset):
        for g in sorted(cutset):
            if g <= f:
                continue
            if is_modular_pair(lat, f, g) and (f & g) not in cutset:
                raise NotMeetClosed((f, g))
    return ModularCut(
        flats=cutset,
        proper=0 not in cutset,
        nonempty=bool(cutset),
        atom_free=all(lat.rank_of(f) != 1 for f in cutset),
    )


def drop_bit(mask, e):
    """mask without bit e, the higher bits shifted down: the relabeling of
    a single-element deletion."""
    return mask & ((1 << e) - 1) | (mask >> (e + 1)) << e


def deletion_index(idx, e, held):
    """Turn idx, the map from each flat of M to its index, into the index
    map of M∖e in place, with no closure: each flat f ∖ e of M∖e, a mask
    over the elements of M with bit e clear, to the index of cl_M(f ∖ e).
    held lists the keys of idx that hold e, and only those are touched.
    Returns the keys t ∖ e that took the index of a held t, in the order
    of held.

    The flats of M∖e are the sets f ∖ e of the flats f of M, and
    cl_M(f ∖ e) is f ∖ e when that is itself a flat of M and f otherwise:
    for e ∉ f, f ∖ e = f, and for e ∈ f, cl_M(f ∖ e) lies between f ∖ e
    and f.  So a key without e keeps its index, and a held key t leaves
    the map, its index going to t ∖ e unless t ∖ e is a flat of M, which
    keeps its own.  All held keys leave before any t ∖ e comes in, so the
    test of t ∖ e reads the keys without e, the flats of M among the sets
    t ∖ e, and a key added on the way is t′ ∖ e for another held t′, not
    t ∖ e.  The flats of M may be traces themselves, each keyed to its
    flat in a larger lattice, as in `LiveLattice`: the rule reads only
    which keys are flats.  In (rank, mask) order, cl_M(f ∖ e) is the first
    flat f of M that gives f ∖ e (`delete_lattice`)."""
    bit = 1 << e
    popped = [idx.pop(t) for t in held]
    moved = []
    for t, i in zip(held, popped):
        if t ^ bit not in idx:
            idx[t ^ bit] = i
            moved.append(t ^ bit)
    return moved


class LiveLattice:
    """The lattice of flats of M|{0..k-1}, read off the lattice lat of M
    with no copy of its covers.  Its flats are the traces F ∩ {0..k-1} of
    the live flats F of lat, those that their trace spans, and idx maps
    each trace to its live flat's index in lat (built by
    `deletion_index`, one element at a time).  The map from trace to live
    flat keeps order and rank, so a cover between two live flats of lat is
    a cover of M|{0..k-1}, and every cover of M|{0..k-1} is one of these
    (proof in `chow.chow_by_deletion`).

    It offers what `building._interval_climb` and `building._interval_build`
    read of a lattice, indexed like lat: flats holds the trace of each
    live flat and -1 for every other flat, and -1 & ~top is never 0, so a
    climb that keeps below its top steps over the flats that are not live;
    ranks and covers_up are those of lat."""

    def __init__(self, lat, idx, k):
        self.n = k
        self.full = (1 << k) - 1
        self.idx = idx
        self.ranks, self.covers_up = lat.ranks, lat.covers_up
        self.flats = [-1] * len(lat.flats)
        for t, i in idx.items():
            self.flats[i] = t


def delete_lattice(lat, e):
    """Lattice of the single-element deletion, plus the flat projection map.

    Returns (new_lattice, proj) where proj maps an old flat mask to the new
    mask over 0..n-2 (bit e removed, higher bits shifted down).

    The flats of M∖e are the sets f ∖ e, each of the rank of cl_M(f ∖ e),
    whose index `deletion_index` gives: its first source f in (rank, mask)
    order, with no closure taken.

    The covers of f ∖ e in M∖e are the sets g ∖ e for g covering that
    first source f in M, less f ∖ e itself (met when g = f + e), so no
    rescan is needed:
    - if e ∉ f, a cover g ∋ e other than f + e has g ∖ e ⊋ f, and g ∖ e is
      no flat of M, since it would lie strictly between f and g; so
      cl_M(g ∖ e) = g.  If e ∈ f, f ∖ e is no flat of M (it would come
      first), so it spans e, and so does g ∖ e.  Either way g ∖ e is a
      flat of M∖e of rank rk f + 1 above f ∖ e;
    - distinct covers g give distinct sets g ∖ e, since two covers of f
      are incomparable;
    - a cover h′ of f ∖ e in M∖e has cl_M(h′) ⊇ cl_M(f ∖ e) = f and rank
      rk f + 1, so it is a cover g of f with g ∖ e = h′.
    The sets f ∖ e are put in (rank, mask) order by one bucket per rank,
    each sorted by mask, and the new index of each old flat's f ∖ e is
    looked up once, not once per cover.  Each cover list is sorted by
    index, as `_build_covers` yields it, and drop keeps the (rank, mask)
    order of sets without e.

    When e is the last element, drop_bit(f ∖ e, e) is f ∖ e, so the new
    flats are the sets f ∖ e as they are, proj only clears bit e, and pos,
    each set's place in the new order, is the new lattice's idx.
    """
    bit = 1 << e
    last = e == lat.n - 1
    if last:

        def drop(mask):
            return mask & ~bit

    else:

        def drop(mask):
            return drop_bit(mask, e)

    flats, ranks, covers_up = lat.flats, lat.ranks, lat.covers_up
    first = dict(lat.idx)  # becomes f ∖ e -> index of its first source f
    deletion_index(first, e, [f for f in flats if f & bit])
    by_rank = [[] for _ in range(lat.rk + 1)]  # the sets f ∖ e by their rank
    for m, i in first.items():
        by_rank[ranks[i]].append(m)
    order = [m for level in by_rank for m in sorted(level)]
    pos = {m: k for k, m in enumerate(order)}
    at = [pos[f & ~bit] for f in flats]  # old index -> index of f ∖ e
    new_covers = []
    for k, m in enumerate(order):
        ups = map(at.__getitem__, covers_up[first[m]])
        new_covers.append(sorted([u for u in ups if u != k]))
    sub = GeomLattice._derived(
        lat.n - 1,
        order if last else [drop(m) for m in order],
        [ranks[first[m]] for m in order],
        new_covers,
        pos if last else None,
    )
    return sub, drop
