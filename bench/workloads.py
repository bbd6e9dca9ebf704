"""Seed-driven inputs of the benchmark workloads.

Every workload is a list of :class:`Instance` records.  An instance carries
the JSON spec text a ``chowpoly`` user would pass on the command line, the
steps the benchmark runs on it, and the exact values its answers are checked
against.  The seed only shapes the inputs; the program sees the specs.

Workloads:

* ``corpus``: the instance matrix of ``chowpoly.corpus`` (uniform, Boolean,
  partition and graphic hosts with the minimal and maximal building sets,
  plus the chordal sets on B2..B4), with the fixed random building sets
  replaced by ``N_RANDOM`` seed-drawn ones, each with a seed-drawn order.
* ``moduli``: the partition lattices Pi_2..Pi_7 with the minimal building
  set, their edge bits shuffled by the seed and the lexicographic edge order
  passed as ``order``.
* ``gmax``: maximal building sets, B6 and U(4,7) through every Chow route
  and U(5,11) through the FY route, descents and the Gamma-complex, with
  seed-drawn orders.
* ``tiny``: a few small instances of every kind, for the self-test.
"""

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, permutations

from chowpoly import (
    ChowpolyError,
    chordal_building_sets,
    lattice_of_flats,
    make_boolean,
    make_partition,
    make_uniform,
    validate_building_set,
)
from chowpoly.cli import masks_to_arrays

ALL_ROUTES = ("fy", "deletion", "filtration", "oracle")
# The hosts of the program's own random building sets, less B5: the toric
# oracle's cost on a random B5 set ranges from 0.04 to 0.43 s, which made the
# workload's size swing by a tenth from seed to seed.
RANDOM_HOSTS = (
    {"type": "uniform", "r": 3, "n": 4},
    {"type": "boolean", "n": 3},
    {"type": "uniform", "r": 3, "n": 5},
    {"type": "uniform", "r": 3, "n": 6},
    {"type": "uniform", "r": 4, "n": 5},
    {"type": "uniform", "r": 4, "n": 6},
    {"type": "boolean", "n": 4},
    {"type": "partition", "n": 4},
    {"type": "partition", "n": 5},
)
N_RANDOM = 4 * len(RANDOM_HOSTS)
# Eulerian numbers: the Chow polynomial of B_n with the maximal building set
# (the permutohedral variety), an answer independent of every route.
EULERIAN = {
    4: [1, 11, 11, 1],
    6: [1, 57, 302, 302, 57, 1],
}


@dataclass
class Instance:
    """One spec plus what the benchmark runs on it and what it must return."""

    name: str
    spec: str  # JSON text, as a user would write it
    kind: str  # building-set kind: min, max, chordal or random
    routes: tuple = ALL_ROUTES
    gamma: bool = True  # gamma with descents and the complex when complete
    m0n: int = 0  # partition size for the stable-tree cross-check, 0 if none
    expect: dict = field(default_factory=dict)  # exact values: chow, flats, facets


def _spec(matroid, bset, order=None):
    doc = {"matroid": matroid, "building_set": bset}
    if order is not None:
        doc["order"] = list(order)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _label(matroid):
    kind = matroid["type"]
    if kind == "uniform":
        return f"uniform({matroid['r']},{matroid['n']})"
    if kind == "graphic":
        return "graphic" + json.dumps(matroid["edges"], separators=(",", ":"))
    return f"{kind}({matroid['n']})"


def simple_graphs(max_vertices):
    """One edge list per isomorphism class of graphs on 2..max_vertices
    vertices with no isolated vertex, ordered by vertex count and then by
    the smallest edge mask in the class."""
    out = []
    for nv in range(2, max_vertices + 1):
        edges = list(combinations(range(nv), 2))
        bit = {e: 1 << i for i, e in enumerate(edges)}
        images = [
            [bit[tuple(sorted((p[u], p[v])))] for u, v in edges]
            for p in permutations(range(nv))
        ]
        seen = set()
        for mask in range(1, 1 << len(edges)):
            if mask in seen:
                continue
            for img in images:
                seen.add(sum(b for i, b in enumerate(img) if mask >> i & 1))
            chosen = [e for i, e in enumerate(edges) if mask >> i & 1]
            if len({v for e in chosen for v in e}) == nv:
                out.append([list(e) for e in chosen])
    return out


def _grow_building_set(lat, rng, n_extra):
    """A building set grown from the minimal one: adjoin random flats, close
    under joins of meeting incomparable pairs, keep what validates."""
    cur = {f for f in lat.flats if f and lat.is_irreducible(f)}
    pool = [f for f in lat.flats if f and f not in cur]
    rng.shuffle(pool)
    added = 0
    for f in pool:
        if added >= n_extra:
            break
        if f in cur:
            continue
        trial = cur | {f}
        while True:
            new = {
                lat.join(a, b)
                for a, b in combinations(sorted(trial), 2)
                if a & b and a & b not in (a, b)
            } - trial
            if not new:
                break
            trial |= new
        try:
            validate_building_set(lat, frozenset(trial))
        except ChowpolyError:
            continue
        cur = trial
        added += 1
    return cur


def corpus(seed, n_random=N_RANDOM, chordal_max=4, graph_vertices=5, sizes=None):
    rng = random.Random(seed)
    sizes = sizes or {"uniform": 6, "boolean": 5, "partition": 5}
    hosts = [
        {"type": "uniform", "r": r, "n": n}
        for n in range(1, sizes["uniform"] + 1)
        for r in range(1, n + 1)
    ]
    hosts += [{"type": "boolean", "n": n} for n in range(1, sizes["boolean"] + 1)]
    hosts += [{"type": "partition", "n": n} for n in range(2, sizes["partition"] + 1)]
    hosts += [{"type": "graphic", "edges": e} for e in simple_graphs(graph_vertices)]
    out = []
    for m in hosts:
        for kind in ("min", "max"):
            out.append(Instance(f"{_label(m)}|{kind}", _spec(m, kind), kind))
    for n in range(2, chordal_max + 1):
        m = {"type": "boolean", "n": n}
        for k in range(len(chordal_building_sets(n))):
            bset = {"type": "chordal", "index": k}
            out.append(Instance(f"boolean({n})|chordal{k}", _spec(m, bset), "chordal"))
    make = {
        "uniform": lambda d: make_uniform(d["r"], d["n"]),
        "boolean": lambda d: make_boolean(d["n"]),
        "partition": lambda d: make_partition(d["n"]),
    }
    lats = [lattice_of_flats(make[h["type"]](h)) for h in RANDOM_HOSTS]
    for i in range(n_random):
        host, lat = RANDOM_HOSTS[i % len(RANDOM_HOSTS)], lats[i % len(lats)]
        # every host gets 1, 2, 3 and 4 extra flats in turn: the seed picks
        # which flats, so the workload's size varies little from seed to seed
        n_extra = 1 + (i // len(RANDOM_HOSTS)) % 4
        bset = _grow_building_set(lat, rng, n_extra)
        order = rng.sample(range(lat.n), lat.n)
        spec = _spec(host, masks_to_arrays(bset), order)
        out.append(Instance(f"{_label(host)}|rand{i}", spec, "random"))
    return out


def partition_spec(n, rng):
    """Pi_n as the graphic matroid of K_n with the edge bits shuffled; the
    order lists the elements by lexicographic edge, so the built matroid is
    isomorphic to the unshuffled one."""
    lex = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pos = rng.sample(range(len(lex)), len(lex))  # lex edge k sits at bit pos[k]
    edges = [None] * len(lex)
    for k, p in enumerate(pos):
        edges[p] = lex[k]
    return _spec({"type": "graphic", "edges": edges}, "min", pos)


# |L(Pi_n)|, the Bell numbers.
PARTITION_FLATS = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877}


def moduli(seed, n_max=7):
    rng = random.Random(seed)
    out = []
    for n in range(2, n_max + 1):
        # Pi_n with G_min has (2n-3)!! facets, one per binary tree on n leaves.
        facets = 1
        for k in range(3, 2 * n - 2, 2):
            facets *= k
        expect = {"flats": PARTITION_FLATS[n], "facets": facets}
        out.append(
            Instance(f"partition({n})|min|shuffled", partition_spec(n, rng), "min", m0n=n,
                     expect=expect)
        )
    return out


def _max_instance(matroid, n, rng, routes, gamma, expect=None):
    order = rng.sample(range(n), n)
    return Instance(
        f"{_label(matroid)}|max", _spec(matroid, "max", order), "max",
        routes=routes, gamma=gamma, expect=expect or {},
    )


def gmax(seed):
    rng = random.Random(seed)
    return [
        _max_instance({"type": "boolean", "n": 6}, 6, rng, ALL_ROUTES, False,
                      {"chow": EULERIAN[6]}),
        _max_instance({"type": "uniform", "r": 4, "n": 7}, 7, rng, ALL_ROUTES, False),
        _max_instance({"type": "uniform", "r": 5, "n": 11}, 11, rng, ("fy",), True),
    ]


def tiny(seed):
    rng = random.Random(seed)
    out = moduli(seed, n_max=4)
    out.append(_max_instance({"type": "boolean", "n": 4}, 4, rng, ALL_ROUTES, True,
                             {"chow": EULERIAN[4]}))
    out += corpus(seed, n_random=3, chordal_max=3, graph_vertices=3,
                  sizes={"uniform": 3, "boolean": 3, "partition": 3})
    return out


WORKLOADS = {"corpus": corpus, "moduli": moduli, "gmax": gmax, "tiny": tiny}


def build(name, seed):
    return WORKLOADS[name](seed)
