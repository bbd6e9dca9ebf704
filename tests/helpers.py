"""Conversions between the package's bitmask world and the oracles'
frozenset world, plus a few instance builders and a tracemalloc probe
shared across test modules."""

import tracemalloc
from functools import cache

from chowpoly import (
    BuiltMatroid,
    ChowpolyError,
    built_from_matroid,
    g_min,
    make_boolean,
    make_partition,
    make_uniform,
)
from chowpoly.lattice import bits, lattice_of_flats


def traced_peak(fn):
    """(live, peak) bytes under tracemalloc for a call of fn: what is still
    allocated when it returns, its result included, and the most that was
    allocated at once during the call."""
    tracemalloc.start()
    try:
        result = fn()  # held while live is read, so that live counts it
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return live, peak


def filtration_sets(filt):
    """The building sets of a filtration's chain, small end first: the
    base's set, then one added flat more per step."""
    cur = filt.base.bset
    out = [cur]
    for g in filt.added:
        cur = cur | {g}
        out.append(cur)
    return out


def mask_of(elems):
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def set_of(mask):
    return frozenset(bits(mask))


def sets_of(masks):
    return frozenset(set_of(m) for m in masks)


def masks_of(families):
    return frozenset(mask_of(f) for f in families)


def boolean_built(n, bset_masks, order=None):
    lat = lattice_of_flats(make_boolean(n))
    return BuiltMatroid(lat, frozenset(bset_masks), order)


def b4_flag_built(order=None):
    """The rank-4 Boolean instance with building set
    {1, 2, 3, 4, 12, 34, 1234} (1-based element names)."""
    return boolean_built(4, {0b0001, 0b0010, 0b0100, 0b1000, 0b0011, 0b1100, 0b1111}, order)


def u33_max():
    return built_from_matroid(make_uniform(3, 3), "max")


def building_set_universe(lat):
    """Every building set of lat, as validated built matroids: G_min plus
    each subset of the other nonzero flats that validates, in the order of
    the subsets' bitmasks over those flats sorted by mask."""
    base = g_min(lat)
    free = sorted(f for f in lat.flats if f and f not in base)
    out = []
    for pick in range(1 << len(free)):
        bset = base | {free[k] for k in bits(pick)}
        try:
            out.append(BuiltMatroid(lat, bset))
        except ChowpolyError:
            pass
    return out


# The hosts whose every building set the tests enumerate, by name.
UNIVERSE_HOSTS = {
    "B4": make_boolean(4),
    "U35": make_uniform(3, 5),
    "Pi4": make_partition(4),
}


@cache
def universe(matroid):
    """`building_set_universe` of the lattice of matroid, enumerated once
    per session for each host object (those of UNIVERSE_HOSTS)."""
    return building_set_universe(lattice_of_flats(matroid))
