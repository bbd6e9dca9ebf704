"""What the benchmark asks of the program for one instance, and the exact
checks on its answers.

``run_instance`` calls each layer's public functions in the order the
``chow --method all``, ``gamma --with-descents --with-complex`` and ``m0n``
subcommands use them, with a span around every call it makes.  A tracer's
spans see only these calls: work one layer does inside another layer's call
is charged to the caller (deletion's ``restrict``/``contract``, filtration's
``chow_polynomial`` on links, ``g_min``'s lattice factorisations).
"""

import io
import json
from contextlib import redirect_stdout

from chowpoly import (
    BuiltMatroid,
    chordal_building_sets,
    chow_by_deletion,
    chow_by_filtration,
    chow_polynomial,
    g_max,
    g_min,
    gamma_expansion,
    gamma_to_poly,
    is_complete,
    is_gamma_positive,
    is_real_rooted,
    kruskal_katona_check,
    lattice_of_flats,
    m0n_gamma,
    make_boolean,
    make_graphic,
    make_partition,
    make_uniform,
    maximal_nested_sets,
    simplify_built,
    toric_hilbert_oracle,
)
from chowpoly.chow import gamma_by_descents_factored
from chowpoly.cli import emit, masks_to_arrays
from chowpoly.errors import MixedFactorStep, NoBinaryFiltration, TooLarge
from chowpoly.nested import balanced_check, complex_stats, gamma_complex, gamma_fvector


class Check:
    """Collects exact-check failures of one instance."""

    def __init__(self):
        self.errors = []

    def eq(self, what, got, want):
        if got != want:
            self.errors.append(f"{what}: got {got!r}, want {want!r}")

    def true(self, what, ok):
        if not ok:
            self.errors.append(what)


def _downward_closed(faces):
    """Every face minus one vertex is a face (the empty face included)."""
    faces = set(faces) | {frozenset()}
    return all(f - {v} in faces for f in faces for v in f)


def run_instance(inst, tr, tracing, fault):
    """Run one instance; returns the list of failed checks (empty if none).
    Raises whatever the program raises outside the documented inapplicable
    errors."""
    ck = Check()
    expect = dict(inst.expect)
    if fault and "flats" in expect:
        expect["flats"] += 1

    def out(obj):
        buf = io.StringIO()
        with tr.span("cli"), redirect_stdout(buf):
            emit(obj)
        tr.count("cli.emit.bytes", len(buf.getvalue().encode()))

    with tr.span("cli"):
        doc = json.loads(inst.spec)
        mdoc, bdesc = doc["matroid"], doc["building_set"]
        order = tuple(doc["order"]) if "order" in doc else None
        explicit = None
        if isinstance(bdesc, list):
            explicit = frozenset(sum(1 << i for i in ix) for ix in bdesc)

    with tr.span("families"):
        kind = mdoc["type"]
        if kind == "uniform":
            m = make_uniform(mdoc["r"], mdoc["n"])
        elif kind == "boolean":
            m = make_boolean(mdoc["n"])
        elif kind == "partition":
            m = make_partition(mdoc["n"])
        else:
            m = make_graphic([tuple(e) for e in mdoc["edges"]])
        if isinstance(bdesc, dict):  # chordal
            explicit = chordal_building_sets(mdoc["n"])[bdesc["index"]]

    if tracing:
        rank = m.rank

        def counted_rank(mask):
            tr.count("lattice.rank_calls")
            return rank(mask)

        m.rank = counted_rank

    with tr.span("lattice"):
        lat = lattice_of_flats(m)
    tr.count("lattice.flats", len(lat.flats))
    if "flats" in expect:
        ck.eq("flats", len(lat.flats), expect["flats"])

    with tr.span("building"):
        if explicit is not None:
            chosen = explicit
        else:
            chosen = g_min(lat) if bdesc == "min" else g_max(lat)
        if lat.simple():
            bm = BuiltMatroid(lat, chosen, order)
        else:
            bm, _ = simplify_built(lat, chosen, order or tuple(range(lat.n)))
    tr.count("building.bset_size", len(bm.bset))

    per = {}
    for route in inst.routes:
        if route == "fy":
            with tr.span("chow.fy"):
                per["fy"] = chow_polynomial(bm)
            tr.count("chow.fy.basis_size", sum(per["fy"]))
        elif route == "deletion":
            with tr.span("chow.deletion"):
                per["deletion"] = chow_by_deletion(bm)
        elif route == "filtration":
            tr.count("chow.filtration.attempted")
            try:
                with tr.span("chow.filtration"):
                    per["filtration"] = chow_by_filtration(bm)
                tr.count("chow.filtration.answered")
                if tracing:
                    tr.count("chow.filtration.steps", len(bm.bset) - len(g_min(lat)))
            except (NoBinaryFiltration, MixedFactorStep):
                per["filtration"] = None
        elif route == "oracle":
            tr.count("chow.oracle.attempted")
            try:
                with tr.span("chow.oracle"):
                    per["oracle"] = toric_hilbert_oracle(bm)
                tr.count("chow.oracle.answered")
            except TooLarge:
                per["oracle"] = None
    got = [v for v in per.values() if v is not None]
    h = got[0]
    for name, v in per.items():
        if v is not None:
            ck.eq(f"{name} vs {inst.routes[0]}", v, h)
    agree = all(v == h for v in got)
    out({"chow": h if agree else None, "methods_agree": agree, "per_method": per})
    ck.true(f"chow {h} not palindromic", h == h[::-1])
    if "chow" in expect:
        ck.eq("chow", h, expect["chow"])

    if inst.gamma:
        with tr.span("polynomials"):
            gam = list(gamma_expansion(h))
            positive = is_gamma_positive(h)
            real_rooted = is_real_rooted(h) if inst.kind == "max" else True
        with tr.span("building"):
            complete = is_complete(bm)
        result = {"chow": h, "gamma": gam, "gamma_positive": positive,
                  "complete": complete}
        if inst.kind == "max":
            ck.true("G_max Chow polynomial not real-rooted", real_rooted)
        if complete:
            ck.true("complete instance not gamma-positive", positive)
            if bm.irreducible:
                with tr.span("nested.facets"):
                    facets = maximal_nested_sets(bm)
                tr.count("nested.facets.count", len(facets))
                if "facets" in expect:
                    ck.eq("facets", len(facets), expect["facets"])
            with tr.span("chow.descents"):
                desc = gamma_by_descents_factored(bm)
            tr.count("nested.stable_facets", sum(desc))
            ck.eq("descent formula", desc, gam)
            result["descent_formula"] = desc
            with tr.span("nested.gamma_complex"):
                if bm.irreducible:
                    rep = gamma_complex(bm)
                    f = list(complex_stats(rep.complex)[0])
                    f += [0] * (len(gam) - len(f))
                    reps = [rep]
                    balanced = balanced_check(bm, rep.complex)
                else:
                    f, reps = gamma_fvector(bm)
                    balanced = True
            ck.eq("gamma-complex f-vector", f, gam)
            ck.true("gamma-complex not downward closed",
                    all(r.downward_closed and _downward_closed(r.complex.faces)
                        for r in reps))
            if inst.kind == "max":
                ck.true("gamma-complex of G_max not balanced", balanced)
            with tr.span("cli"):
                result["complex"] = {
                    "f_vector": f,
                    "faces": [masks_to_arrays(x) for r in reps
                              for x in sorted(r.complex.faces, key=sorted)],
                }
        out(result)

    if inst.m0n:
        with tr.span("families"):
            trees = m0n_gamma(inst.m0n)
        tr.count("families.stable_trees", sum(trees))
        with tr.span("polynomials"):
            gam = list(gamma_expansion(h))
            kk = kruskal_katona_check(gam)
            poincare = gamma_to_poly(trees, len(h) - 1)
        ck.eq("Poincare polynomial from stable trees", h, poincare)
        ck.eq("stable-tree gamma", trees, gam)
        ck.true("Kruskal-Katona fails", kk)
        out({"n": inst.m0n, "poincare": h, "gamma": gam,
             "descent_counts": trees, "kruskal_katona": kk})
    return ck.errors
