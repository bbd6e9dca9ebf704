"""Built-in cross-validation corpus.

A fixed matrix of built matroids drawn from the standard families:

* uniform U(r,n) for 1 <= r <= n <= 6, with the minimal and maximal
  building sets;
* Boolean matroids B_n for n <= 5 (min/max), plus every chordal building
  set on B_n for n <= 4;
* partition-lattice instances (complete graphs, lexicographic edge order)
  for n <= 5 (min/max);
* every simple graph on at most 5 vertices with no isolated vertices,
  one representative per isomorphism class (min/max);
* 20 pseudo-random valid building sets grown from the minimal one on a
  rotating pool of host lattices, with a fixed seed.

The corpus is what the test suite and the command line ``--corpus`` runs
iterate over; it is deterministic across runs.
"""

import functools
import random

from .building import BuiltMatroid, g_min, validate_building_set
from .errors import ChowpolyError
from .families import (
    built_from_matroid,
    chordal_building_sets,
    make_boolean,
    make_graphic,
    make_partition,
    make_uniform,
)
from .lattice import lattice_of_flats

RANDOM_SEED = 8191
N_RANDOM = 20


class CorpusInstance:
    """One named (matroid, building set) pair of the corpus."""

    def __init__(self, name, family, bset_kind, built):
        self.name = name
        self.family = family
        self.bset_kind = bset_kind
        self.built = built

    def __repr__(self):
        return f"CorpusInstance({self.name})"


# One edge list per isomorphism class of simple graphs on at most 5 vertices
# with at least one edge and no isolated vertex (33 classes), as (vertex
# count, edges).  The order and the representatives are fixed, because the
# corpus names and every ``--corpus`` byte depend on them; a test checks that
# the table holds each class exactly once.
ATLAS_GRAPHS = (
    (2, [(0, 1)]),
    (3, [(0, 1), (0, 2)]),
    (3, [(0, 1), (0, 2), (1, 2)]),
    (4, [(0, 3), (1, 3), (2, 3)]),
    (4, [(0, 3), (1, 2), (1, 3), (2, 3)]),
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    (4, [(0, 1), (0, 3), (1, 2)]),
    (4, [(0, 1), (0, 3), (1, 2), (2, 3)]),
    (4, [(0, 1), (2, 3)]),
    (5, [(0, 4), (1, 4), (2, 4), (3, 4)]),
    (5, [(0, 4), (1, 4), (2, 3), (2, 4), (3, 4)]),
    (5, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),
    (5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    (5, [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    (5, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
         (3, 4)]),
    (5, [(0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    (5, [(0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]),
    (5, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)]),
    (5, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)]),
    (5, [(0, 1), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)]),
    (5, [(0, 1), (0, 2), (0, 4), (1, 2), (2, 3)]),
    (5, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)]),
    (5, [(0, 4), (1, 2), (1, 3), (2, 3), (3, 4)]),
    (5, [(0, 4), (1, 3), (2, 3), (3, 4)]),
    (5, [(0, 1), (1, 3), (1, 4), (2, 3), (2, 4)]),
    (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
    (5, [(0, 1), (0, 2), (1, 2), (3, 4)]),
    (5, [(0, 1), (0, 4), (1, 2), (2, 3)]),
    (5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]),
    (5, [(0, 1), (1, 2), (3, 4)]),
)


def _random_building_set(lat, rng, n_extra):
    """Grow a valid building set from the minimal one by repeatedly trying to
    adjoin a random flat and closing under joins of meeting incomparable
    pairs; additions that do not validate are skipped."""
    cur = set(g_min(lat))
    pool = [f for f in lat.flats if f and f not in cur]
    rng.shuffle(pool)
    added = 0
    for f in pool:
        if added >= n_extra:
            break
        if f in cur:
            continue
        trial = set(cur)
        trial.add(f)
        _close_joins(lat, trial)
        try:
            validate_building_set(lat, frozenset(trial))
        except ChowpolyError:
            continue
        cur = trial
        added += 1
    return frozenset(cur)


def _close_joins(lat, s):
    while True:
        new = []
        items = sorted(s)
        for i, g in enumerate(items):
            for h in items[i + 1 :]:
                if g & h and not (g & h == g or g & h == h):
                    jm = lat.join(g, h)
                    if jm not in s:
                        new.append(jm)
        if not new:
            return
        s.update(new)


@functools.cache
def corpus():
    """The full deterministic instance list (built lazily, then cached)."""
    # (name, family, matroid) of each host taken with G_min and G_max
    hosts = [
        (f"uniform({r},{n})", "uniform", make_uniform(r, n))
        for n in range(1, 7)
        for r in range(1, n + 1)
    ]
    hosts += [(f"boolean({n})", "boolean", make_boolean(n)) for n in range(1, 6)]
    hosts += [(f"partition({n})", "partition", make_partition(n)) for n in range(2, 6)]
    hosts += [
        (f"graphic{gi}(v{nv},e{len(edges)})", "graphic", make_graphic(edges))
        for gi, (nv, edges) in enumerate(ATLAS_GRAPHS)
    ]
    out = [
        CorpusInstance(f"{name}|{kind}", family, kind, built_from_matroid(m, kind))
        for name, family, m in hosts
        for kind in ("min", "max")
    ]

    for n in range(2, 5):
        lat = lattice_of_flats(make_boolean(n))
        for ci, bset in enumerate(chordal_building_sets(n)):
            out.append(
                CorpusInstance(
                    f"boolean({n})|chordal{ci}",
                    "boolean",
                    "chordal",
                    BuiltMatroid(lat, bset),
                )
            )

    rng = random.Random(RANDOM_SEED)
    by_name = {name: (family, m) for name, family, m in hosts}
    pool = [
        (name, by_name[name][0], lattice_of_flats(by_name[name][1]))
        for name in (
            "uniform(3,4)", "boolean(3)", "uniform(3,5)", "uniform(3,6)",
            "uniform(4,5)", "uniform(4,6)", "boolean(4)", "boolean(5)",
            "partition(4)", "partition(5)",
        )
    ]
    for i in range(N_RANDOM):
        name, family, lat = pool[i % len(pool)]
        bset = _random_building_set(lat, rng, rng.randint(1, 4))
        out.append(
            CorpusInstance(f"{name}|rand{i}", family, "random", BuiltMatroid(lat, bset))
        )

    return out
