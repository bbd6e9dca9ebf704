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

from itertools import permutations

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


def _atlas_graphs():
    """Isomorphism classes of simple graphs on <= 5 vertices with at least
    one edge and no isolated vertices, as canonical edge lists."""
    import networkx as nx

    seen = {}
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() > 5 or g.number_of_edges() == 0:
            continue
        g = g.copy()
        g.remove_nodes_from([v for v in list(g) if g.degree(v) == 0])
        verts = sorted(g)
        vid = {v: i for i, v in enumerate(verts)}
        edges = [tuple(sorted((vid[u], vid[v]))) for u, v in g.edges()]
        key = _canonical_graph(len(verts), edges)
        if key not in seen:
            seen[key] = (len(verts), sorted(edges))
    return [seen[k] for k in sorted(seen)]


def _canonical_graph(nverts, edges):
    best = None
    for perm in permutations(range(nverts)):
        relab = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or relab < best:
            best = relab
    return (nverts, best)


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


_CORPUS = None


def corpus():
    """The full deterministic instance list (built lazily, then cached)."""
    global _CORPUS
    if _CORPUS is not None:
        return _CORPUS
    out = []

    for n in range(1, 7):
        for r in range(1, n + 1):
            m = make_uniform(r, n)
            for kind in ("min", "max"):
                out.append(
                    CorpusInstance(
                        f"uniform({r},{n})|{kind}",
                        "uniform",
                        kind,
                        built_from_matroid(m, kind),
                    )
                )

    for n in range(1, 6):
        m = make_boolean(n)
        for kind in ("min", "max"):
            out.append(
                CorpusInstance(
                    f"boolean({n})|{kind}", "boolean", kind, built_from_matroid(m, kind)
                )
            )

    for n in range(2, 6):
        m = make_partition(n)
        for kind in ("min", "max"):
            out.append(
                CorpusInstance(
                    f"partition({n})|{kind}",
                    "partition",
                    kind,
                    built_from_matroid(m, kind),
                )
            )

    for gi, (nv, edges) in enumerate(_atlas_graphs()):
        m = make_graphic(edges)
        for kind in ("min", "max"):
            out.append(
                CorpusInstance(
                    f"graphic{gi}(v{nv},e{len(edges)})|{kind}",
                    "graphic",
                    kind,
                    built_from_matroid(m, kind),
                )
            )

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
    hosts = [
        ("uniform(3,4)", make_uniform(3, 4)),
        ("boolean(3)", make_boolean(3)),
        ("uniform(3,5)", make_uniform(3, 5)),
        ("uniform(3,6)", make_uniform(3, 6)),
        ("uniform(4,5)", make_uniform(4, 5)),
        ("uniform(4,6)", make_uniform(4, 6)),
        ("boolean(4)", make_boolean(4)),
        ("boolean(5)", make_boolean(5)),
        ("partition(4)", make_partition(4)),
        ("partition(5)", make_partition(5)),
    ]
    lats = [(name, lattice_of_flats(m)) for name, m in hosts]
    for i in range(N_RANDOM):
        name, lat = lats[i % len(lats)]
        n_extra = rng.randint(1, 4)
        bset = _random_building_set(lat, rng, n_extra)
        out.append(
            CorpusInstance(
                f"{name}|rand{i}", name.split("(")[0], "random", BuiltMatroid(lat, bset)
            )
        )

    _CORPUS = out
    return out
