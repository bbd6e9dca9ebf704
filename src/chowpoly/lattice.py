"""Matroids and their geometric lattices of flats.

Ground elements are 0..n-1 and subsets are bitmask ints, so a flat is just an
int and subset tests are bitwise.  A lattice is fully materialized: flats,
ranks, covers, and a per-flat table ``cover_via[i][e]`` giving the unique cover
of flat i that contains element e.  Joins and closures walk that table.
"""

from dataclasses import dataclass

from .errors import InvalidMatroid, NotAFlat, NotMeetClosed, NotUpwardClosed

MAX_ELEMENTS = 64


def bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask):
    return mask.bit_count()


class Matroid:
    """A rank oracle on bitmask subsets of 0..n-1."""

    def __init__(self, n, rank_fn):
        if not 0 <= n <= MAX_ELEMENTS:
            raise InvalidMatroid(f"ground set size {n} outside 0..{MAX_ELEMENTS}")
        self.n = n
        self._rank_fn = rank_fn
        self._rank_cache = {}

    def rank(self, mask):
        r = self._rank_cache.get(mask)
        if r is None:
            r = self._rank_fn(mask)
            self._rank_cache[mask] = r
        return r

    def closure(self, mask):
        r = self.rank(mask)
        out = mask
        for e in range(self.n):
            if not out >> e & 1 and self.rank(mask | 1 << e) == r:
                out |= 1 << e
        return out


def validate_rank_axioms(m, sample=4096):
    """Check rank axioms; exhaustive for n <= 16, sampled above."""
    import random

    n = m.n
    if m.rank(0) != 0:
        raise InvalidMatroid("rank of the empty set is not 0")
    if n <= 16:
        subsets = range(1 << n)
    else:
        rng = random.Random(0)
        subsets = [rng.getrandbits(n) for _ in range(sample)]
    for s in subsets:
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
    plain intersection (flats are intersection-closed), join walks cover_via.
    """

    def __init__(self, n, flats_with_ranks):
        self.n = n
        self.full = (1 << n) - 1
        items = sorted(set(flats_with_ranks), key=lambda t: (t[1], t[0]))
        self.flats = [f for f, _ in items]
        self.ranks = [r for _, r in items]
        self.idx = {f: i for i, f in enumerate(self.flats)}
        if len(self.idx) != len(self.flats):
            raise InvalidMatroid("duplicate flat with conflicting ranks")
        if not self.flats or self.flats[0] != 0 or self.ranks[0] != 0:
            raise InvalidMatroid("missing bottom flat")
        if self.flats[-1] != self.full:
            raise InvalidMatroid("missing top flat")
        self.rk = self.ranks[-1]
        self.by_rank = [[] for _ in range(self.rk + 1)]
        for i, r in enumerate(self.ranks):
            self.by_rank[r].append(i)
        self.atoms = list(self.by_rank[1]) if self.rk >= 1 else []
        self.atom_of_elem = [None] * n
        for i in self.atoms:
            for e in bits(self.flats[i]):
                if self.atom_of_elem[e] is not None:
                    raise InvalidMatroid(f"element {e} lies in two atoms")
                self.atom_of_elem[e] = i
        if any(a is None for a in self.atom_of_elem):
            bad = self.atom_of_elem.index(None)
            raise InvalidMatroid(f"element {bad} lies in no atom (loop?)")
        self._build_covers()
        self._factor_cache = {}

    def _build_covers(self):
        self.covers_up = [[] for _ in self.flats]
        self.cover_via = [dict() for _ in self.flats]
        for r in range(self.rk):
            uppers = self.by_rank[r + 1] if r + 1 <= self.rk else []
            for i in self.by_rank[r]:
                f = self.flats[i]
                for j in uppers:
                    g = self.flats[j]
                    if f & ~g == 0:
                        self.covers_up[i].append(j)
                        for e in bits(g & ~f):
                            if e in self.cover_via[i]:
                                raise InvalidMatroid(
                                    f"element {e} above flat {f:b} in two covers"
                                )
                            self.cover_via[i][e] = j
                missing = self.full & ~f
                for e in bits(missing):
                    if e not in self.cover_via[i]:
                        raise InvalidMatroid(
                            f"no cover of flat {f:b} through element {e}"
                        )

    # -- basic queries ------------------------------------------------------

    def is_flat(self, mask):
        return mask in self.idx

    def rank_of(self, mask):
        i = self.idx.get(mask)
        if i is None:
            raise NotAFlat(f"{mask:b} is not a flat")
        return self.ranks[i]

    def closure(self, mask):
        """Smallest flat containing an arbitrary subset mask."""
        ci = 0
        for e in bits(mask):
            f = self.flats[ci]
            if not f >> e & 1:
                ci = self.cover_via[ci][e]
        return self.flats[ci]

    def join(self, f, g):
        if f not in self.idx or g not in self.idx:
            raise NotAFlat(f"join of non-flats {f:b}, {g:b}")
        ci = self.idx[f]
        for e in bits(g & ~f):
            if not self.flats[ci] >> e & 1:
                ci = self.cover_via[ci][e]
        return self.flats[ci]

    def meet(self, f, g):
        if f not in self.idx or g not in self.idx:
            raise NotAFlat(f"meet of non-flats {f:b}, {g:b}")
        m = f & g
        assert m in self.idx, "flats are intersection-closed"
        return m

    def covers(self, f):
        return [self.flats[j] for j in self.covers_up[self.idx[f]]]

    def flats_below(self, f):
        return [g for g in self.flats if g & ~f == 0]

    def simple(self):
        return all(popcount(self.flats[i]) == 1 for i in self.atoms)

    # -- direct-sum structure ----------------------------------------------

    def interval_factors(self, f):
        """Connected components of [0, f]: f as a disjoint union of
        irreducible flats with additive ranks (sorted by (rank, mask))."""
        if f not in self.idx:
            raise NotAFlat(f"{f:b} is not a flat")
        out = self._factor_cache.get(f)
        if out is None:
            out = self._split(f)
            out = sorted(out, key=lambda g: (self.rank_of(g), g))
            self._factor_cache[f] = out
        return list(out)

    def _split(self, f):
        if f == 0:
            return []
        rf = self.rank_of(f)
        for a in self.flats:
            if a == 0 or a == f or a & ~f:
                continue
            b = f & ~a
            if b in self.idx and self.rank_of(a) + self.ranks[self.idx[b]] == rf:
                return self._split(a) + self._split(b)
        return [f]

    def is_irreducible(self, f):
        return len(self.interval_factors(f)) == 1


def lattice_of_flats(m):
    """Materialize the lattice of flats of a loopless matroid."""
    if m.n == 0:
        raise InvalidMatroid("empty ground set")
    if m.closure(0) != 0:
        raise InvalidMatroid(f"loops present: {m.closure(0):b}")
    seen = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for f in frontier:
            r = seen[f]
            for e in bits(((1 << m.n) - 1) & ~f):
                g = m.closure(f | 1 << e)
                if g not in seen:
                    seen[g] = r + 1
                    nxt.append(g)
        frontier = nxt
    return GeomLattice(m.n, seen.items())


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


def delete_lattice(lat, e):
    """Lattice of the single-element deletion, plus the flat projection map.

    Returns (new_lattice, proj) where proj maps an old flat mask to the new
    mask over 0..n-2 (bit e removed, higher bits shifted down).
    """
    n = lat.n
    low = (1 << e) - 1

    def drop(mask):
        return (mask & low) | ((mask >> (e + 1)) << e)

    new = {}
    for f in lat.flats:
        s = f & ~(1 << e)
        key = drop(s)
        if key not in new:
            new[key] = lat.rank_of(lat.closure(s))
    sub = GeomLattice(n - 1, new.items())
    return sub, drop


def deletion_modular_cut(lat, e):
    """The modular cut on M minus e whose extension re-adds e.

    Collects the deletion's flats whose closure in M contains e; the result is
    expressed in the deletion's labelling (bit e dropped).
    """
    sub, drop = delete_lattice(lat, e)
    low = (1 << e) - 1

    def lift(mask):
        return (mask & low) | ((mask >> e) << (e + 1))

    cut = set()
    for f in sub.flats:
        if lat.closure(lift(f)) >> e & 1:
            cut.add(f)
    return sub, validate_modular_cut(sub, cut)
