"""Command-line front end.

Instances come in as JSON documents (``--spec FILE``, ``-`` for stdin):

    {
      "matroid": {"type": "uniform", "r": 3, "n": 3}
                 | {"type": "boolean", "n": 4}
                 | {"type": "graphic", "edges": [[0,1],[1,2],[0,2]]}
                 | {"type": "partition", "n": 4}
                 | {"type": "flats", "n": 4, "flats": [[], [0], ...]}
                 | {"type": "rank-table", "n": 3, "ranks": [0,1,...]},
      "building_set": "min" | "max" | [[0],[1],[0,1]]
                 | {"type": "augmented"} | {"type": "chordal", "index": 3},
      "order": [2,0,1],          # optional permutation of the ground set
      "cut": [[0,1],[0,1,2]]     # only read by `check --what modular-cut`
    }

Output is canonical JSON on stdout: sorted keys, no floats, ground elements
as 0-based indices, flats as sorted index arrays.  Exit codes: 0 ok,
2 invalid input, 3 check or cross-method agreement failure.
"""

import argparse
import json
import sys

from .building import (
    BuiltMatroid,
    complete_witness,
    flag_nonface_witness,
    is_complete,
    validate_building_set,
)
from .chow import (
    chow_by_deletion,
    chow_by_filtration,
    chow_polynomial,
    gamma_by_descents,
    toric_hilbert_oracle,
)
from .corpus import corpus
from .errors import (
    ChowpolyError,
    JoinClosureViolation,
    MissingIrreducible,
    MixedFactorStep,
    NoBinaryFiltration,
    NotAFlat,
    NotMeetClosed,
    NotUpwardClosed,
    TooLarge,
)
from .families import (
    augmented_built_matroid,
    built_from_matroid,
    chordal_building_sets,
    m0n_gamma,
    m0n_poincare_keel,
    make_boolean,
    make_graphic,
    make_partition,
    make_uniform,
)
from .lattice import (
    GeomLattice,
    Matroid,
    bits,
    lattice_of_flats,
    popcount,
    validate_modular_cut,
    validate_rank_axioms,
)
from .nested import balanced_check, gamma_fvector
from .polynomials import (
    gamma_expansion,
    kruskal_katona_check,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FAIL = 3

# What reading and parsing an input can raise, each an EXIT_INVALID: a
# missing file is an OSError, bad JSON or a spec number that is not a JSON
# integer (`_spec_int`) a ValueError, an int too large for a machine word an
# OverflowError and deeply nested JSON a RecursionError.
_INPUT_ERRORS = (ChowpolyError, KeyError, OSError, OverflowError, RecursionError,
                 TypeError, ValueError)


# ---------------------------------------------------------------------------
# serialization


def mask_to_indices(mask):
    return list(bits(mask))


def masks_to_arrays(masks):
    """The index lists of masks in (length, list) order: sorted by list,
    then stably by length, with no key built per list."""
    arrays = [mask_to_indices(m) for m in masks]
    arrays.sort()
    arrays.sort(key=len)
    return arrays


def emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def fail_invalid(msg):
    sys.stderr.write(f"error: {msg}\n")
    return EXIT_INVALID


# ---------------------------------------------------------------------------
# instance parsing


def _spec_int(x, name):
    """x, a number of the spec named name, when it is a JSON integer; a
    float, a string or a boolean raises ValueError rather than being read
    as some nearby int."""
    if type(x) is not int:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return x


def _graphic_edges(edges):
    """The edges of a graphic spec as pairs of vertex labels, when the
    labels are all integers or all strings; any other label raises
    ValueError naming its edge.  Python equality would make `true` and
    `1.0` the vertex 1, and `sorted` cannot order mixed labels."""
    edges = [tuple(e) for e in edges]
    kind = None  # the type of the first label, which every label must have
    for e in edges:
        for v in e:
            kind = kind or type(v)
            if type(v) is not kind or kind not in (int, str):
                raise ValueError(
                    f"graphic vertex labels must be all integers or all "
                    f"strings; edge {list(e)} has {v!r}"
                )
    return edges


def _mask_of(indices, n):
    m = 0
    for i in indices:
        if not 0 <= _spec_int(i, "element index") < n:
            raise ValueError(f"element index {i!r} out of range 0..{n - 1}")
        m |= 1 << i
    return m


def _matroid_from_flats(n, flat_lists):
    """The loopless matroid whose flats are flat_lists, or InvalidMatroid
    with a witness; the verdict is exact for every n.

    A flat's height is the length of the longest chain of listed flats
    below it.  `GeomLattice`, given the heights as ranks, checks that the
    atoms partition E and that the flats one height above each flat F
    partition E ∖ F.  Then every flat must meet every coatom (a flat of
    height rk - 1) in a flat.  Together these are the flat axioms (Oxley,
    Matroid Theory, §1.4): E is a flat, flats are closed under
    intersection, and the inclusion-minimal flats above each flat F
    partition E ∖ F.
    - Meet closure: a flat F below height rk - 1 has at least two flats one
      height above it (one alone would hold all of E, and be E), and any
      two of them meet in F.  So every flat but E is an intersection of
      coatoms, and a meet F′ ∩ F is a chain of meets with coatoms.
    - Covers: with meet closure, the flats one height above F are exactly
      the inclusion-minimal flats above F.  Such a flat G has none
      strictly between, as heights rise strictly along inclusions.  An
      inclusion-minimal G holds some e outside F, and so does one flat H
      one height above F; G ∩ H is a flat holding F + e, so it is G, and
      G ⊆ H gives G = H.
    So every inclusion-cover raises the height by one, as a cover of a
    matroid's flats raises the rank by one: the heights are the ranks, and
    a matroid's flats pass every check.  Meet closure is not implied by
    the rest: [], [0,3], [1,2], [0,1,2], [0,1,3], [0,2,3], [1,2,3],
    [0,1,2,3] passes the lattice's checks, and [0,3] ∩ [0,1,2] is no flat.

    The matroid's rank, closure and covers are read off the lattice, so
    `lattice_of_flats` takes them from its oracles, with no rank call."""
    flats = sorted(
        {_mask_of(ix, n) for ix in flat_lists}, key=lambda m: (popcount(m), m)
    )
    fset = set(flats)
    if 0 not in fset:
        raise ValueError("the empty flat is missing")
    full = (1 << n) - 1
    if full not in fset:
        raise ValueError("the full ground set must be a flat")
    # without[e]: the flats that miss e, as a bitset of their indices; the
    # flats inside f are those that miss every element outside f, and only
    # one earlier in (popcount, mask) order can lie strictly below f
    without = [
        int("".join("0" if f >> e & 1 else "1" for f in reversed(flats)), 2)
        for e in range(n)
    ]
    level = []  # level[h]: the flats of height h, as a bitset of indices
    height = {}
    for i, f in enumerate(flats):
        below = (1 << i) - 1
        for e in bits(full & ~f):
            below &= without[e]
        h = len(level)
        while h and not level[h - 1] & below:
            h -= 1
        if h == len(level):
            level.append(0)
        level[h] |= 1 << i
        height[f] = h
    lat = GeomLattice(n, height.items())
    for h in lat.by_rank[lat.rk - 1]:
        coatom = lat.flats[h]
        for f in flats:
            if f & coatom not in fset:
                lat.meet(f, coatom)  # raises InvalidMatroid with the pair
    return Matroid(
        n, lambda s: lat.rank_of(lat.closure(s)), lat.closure, lat.covers
    )


def parse_matroid(d):
    kind = d["type"]
    if kind == "uniform":
        return make_uniform(_spec_int(d["r"], "r"), _spec_int(d["n"], "n"))
    if kind == "boolean":
        return make_boolean(_spec_int(d["n"], "n"))
    if kind == "graphic":
        return make_graphic(_graphic_edges(d["edges"]))
    if kind == "partition":
        return make_partition(_spec_int(d["n"], "n"))
    if kind == "flats":
        return _matroid_from_flats(_spec_int(d["n"], "n"), d["flats"])
    if kind == "rank-table":
        n = _spec_int(d["n"], "n")
        if not (1 <= n <= 12):
            raise ValueError("rank-table supports 1 <= n <= 12")
        ranks = [_spec_int(r, "rank") for r in d["ranks"]]
        if len(ranks) != 1 << n:
            raise ValueError(f"rank table must have 2^{n} entries")
        m = Matroid(n, lambda s: ranks[s])
        validate_rank_axioms(m)
        return m
    raise ValueError(f"unknown matroid type {kind!r}")


def _spec_parts(doc):
    """(matroid, building-set descriptor, order) of a spec document; an
    explicit building set comes back as a frozenset of masks."""
    if not isinstance(doc, dict) or "matroid" not in doc:
        raise ValueError("spec must be an object with a 'matroid' key")
    m = parse_matroid(doc["matroid"])
    bdesc = doc.get("building_set", "min")
    order = tuple(doc["order"]) if "order" in doc else None
    if isinstance(bdesc, list):
        bdesc = frozenset(_mask_of(ix, m.n) for ix in bdesc)
    return m, bdesc, order


def parse_instance(doc):
    """Build a BuiltMatroid from a spec document."""
    return _built(doc, *_spec_parts(doc))


def _built(doc, m, bdesc, order):
    if isinstance(bdesc, dict) and bdesc.get("type") == "augmented":
        return augmented_built_matroid(m, order)
    if isinstance(bdesc, dict) and bdesc.get("type") == "chordal":
        if doc["matroid"]["type"] != "boolean":
            raise ValueError("chordal building sets are indexed on boolean matroids")
        sets = chordal_building_sets(m.n)
        k = _spec_int(bdesc["index"], "chordal index")
        if not (0 <= k < len(sets)):
            raise ValueError(f"chordal index {k} out of range 0..{len(sets) - 1}")
        return BuiltMatroid(lattice_of_flats(m), sets[k], order)
    if bdesc in ("min", "max") or isinstance(bdesc, frozenset):
        return built_from_matroid(m, bdesc, order)
    raise ValueError(f"unknown building-set descriptor {bdesc!r}")


def load_spec(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _read_instance(args):
    """The built matroid of `--spec`, or None for a `--corpus` run, which
    takes each corpus instance through the same code."""
    return None if args.corpus else parse_instance(load_spec(args.spec))


# ---------------------------------------------------------------------------
# chow


# The Chow-polynomial routes: name -> (function, the errors that mean the
# route does not apply to the instance).
_ROUTES = {
    "fy": (chow_polynomial, ()),
    "deletion": (chow_by_deletion, ()),
    "filtration": (chow_by_filtration, (NoBinaryFiltration, MixedFactorStep)),
    "oracle": (toric_hilbert_oracle, (TooLarge,)),
}


def _run_methods(bm, methods):
    """(route -> polynomial, None where the route does not apply; whether
    the routes that answered agree)."""
    per = {}
    for name in methods:
        fn, inapplicable = _ROUTES[name]
        try:
            per[name] = fn(bm)
        except inapplicable:
            per[name] = None
    got = [v for v in per.values() if v is not None]
    return per, all(v == got[0] for v in got)


def cmd_chow(args, bm):
    if bm is None:
        return _corpus(_chow_row, "agree")
    methods = list(_ROUTES) if args.method == "all" else [args.method]
    per, agree = _run_methods(bm, methods)
    if args.method != "all" and per[args.method] is None:
        return fail_invalid(f"method {args.method!r} is not applicable to this instance")
    chow = per[methods[0]] if agree else None  # fy, or the lone route, answered
    emit({"chow": chow, "methods_agree": agree, "per_method": per})
    return EXIT_OK if agree else EXIT_FAIL


def _chow_row(inst):
    per, agree = _run_methods(inst.built, _ROUTES)
    return {
        "name": inst.name,
        "agree": agree,
        "methods": {k: (v is not None) for k, v in per.items()},
    }


def _corpus(row, ok_key):
    """Emit one row per corpus instance and exit 0 when every row's ok_key
    holds, else 3."""
    rows = [row(inst) for inst in corpus()]
    all_ok = all(r[ok_key] for r in rows)
    emit({"all_ok": all_ok, "rows": rows})
    return EXIT_OK if all_ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# gamma


def _dense_counts(counts):
    if not counts:
        return [0]
    return [counts.get(i, 0) for i in range(max(counts) + 1)]


def _complex_payload(bm, complete):
    """The Γ-complex of bm: `gamma_fvector`'s f-vector, padded to γ's
    length, and its reports; irreducible input also lists the complex.
    complete is the instance's verdict (`building.complete_witness`), which
    holds for a direct sum iff it holds for each factor."""
    f, reps = gamma_fvector(bm)
    if not bm.irreducible:
        return {
            "factored": True,
            "f_vector": f,
            "complete": complete,
            "downward_closed": all(r.downward_closed for r in reps),
        }
    (rep,) = reps
    return {
        "factored": False,
        "vertices": masks_to_arrays(rep.complex.vertices),
        "faces": [
            masks_to_arrays(face)
            for face in sorted(rep.complex.faces, key=lambda s: (len(s), sorted(s)))
        ],
        "f_vector": f,
        "complete": complete,
        "downward_closed": rep.downward_closed,
        "balanced": balanced_check(bm, rep.complex),
        "descent_counts": _dense_counts(rep.descent_counts),
    }


def _gamma(bm, with_descents, with_complex, only_if_complete=False):
    """H, γ, completeness and γ-positivity of one instance; with_descents
    adds the descent formula and whether it equals γ, with_complex the
    Γ-complex, both only on a complete instance when only_if_complete.
    H is palindromic, so γ exists and is positive iff its entries are."""
    h = chow_polynomial(bm)
    gam = list(gamma_expansion(h))
    complete = is_complete(bm)
    out = {
        "chow": h,
        "gamma": gam,
        "gamma_positive": all(g >= 0 for g in gam),
        "complete": complete,
    }
    if only_if_complete and not complete:
        with_descents = with_complex = False
    if with_descents:
        desc = gamma_by_descents(bm)
        out["descent_formula"] = list(desc)
        out["match"] = desc == gam
    if with_complex:
        out["complex"] = _complex_payload(bm, complete)
    return out


def cmd_gamma(args, bm):
    if bm is None:
        return _corpus(_gamma_row, "ok")
    out = _gamma(bm, args.with_descents, args.with_complex)
    emit(out)
    # the descent formula equals γ on every complete instance
    return EXIT_FAIL if out["complete"] and out.get("match") is False else EXIT_OK


def _gamma_row(inst):
    """A complete instance passes when γ is positive, the descent formula
    equals γ and the Γ-complex is downward closed with f-vector γ (padded
    with zeros by `gamma_fvector`); a G_max instance, complete and
    irreducible in every order, also needs a balanced Γ-complex."""
    out = _gamma(inst.built, True, True, only_if_complete=True)
    complete = out["complete"]
    row = {
        "name": inst.name,
        "complete": complete,
        "gamma_positive": out["gamma_positive"],
        "descent_match": None,
        "complex_ok": None,
        "balanced": None,
    }
    ok = True
    if complete:
        gam, cx = out["gamma"], out["complex"]
        row["descent_match"] = out["match"]
        row["complex_ok"] = cx["downward_closed"] and cx["f_vector"] == gam
        ok = row["gamma_positive"] and row["descent_match"] and row["complex_ok"]
    if inst.bset_kind == "max":
        row["balanced"] = out["complex"]["balanced"]
        ok = ok and row["balanced"]
    row["ok"] = ok
    return row


# ---------------------------------------------------------------------------
# check


def _flat_witness(e):
    return mask_to_indices(e.args[0])


def _pair_witness(e):
    return masks_to_arrays(e.args[0])


# A failed check's exception type -> its witness serializer; the error is
# reported by the type's name.
_WITNESSES = {
    MissingIrreducible: _flat_witness,
    JoinClosureViolation: _pair_witness,
    NotUpwardClosed: _pair_witness,
    NotMeetClosed: _pair_witness,
    NotAFlat: str,
}


def _check_input(args):
    """What `check --what` reads: for building-set the lattice and the set,
    which the check validates itself to report its witness; otherwise the
    built matroid and, for modular-cut, the cut (None when the spec has
    none)."""
    doc = load_spec(args.spec)
    if args.what == "building-set":
        m, bdesc, order = _spec_parts(doc)
        if isinstance(bdesc, frozenset):
            return lattice_of_flats(m), bdesc
        bm = _built(doc, m, bdesc, order)
        return bm.lat, bm.bset
    bm = parse_instance(doc)
    if args.what != "modular-cut" or "cut" not in doc:
        return bm, None
    return bm, frozenset(_mask_of(ix, bm.lat.n) for ix in doc["cut"])


def cmd_check(args, inp):
    """Emit the check's verdict and witness (None when it holds); a failed
    validation also names its error, and a valid modular cut reports its
    kind."""
    what, extra = args.what, {}
    if what == "complete":
        w = complete_witness(inp[0])
        witness = None if w is None else {
            "element": mask_to_indices(w[0]), "missing": mask_to_indices(w[1])
        }
    elif what == "flag":
        w = flag_nonface_witness(inp[0])
        witness = None if w is None else masks_to_arrays(w)
    elif what == "modular-cut" and inp[1] is None:
        return fail_invalid("modular-cut check needs a 'cut' key in the spec")
    else:
        try:
            if what == "building-set":
                validate_building_set(*inp)
            else:
                bm, cut = inp
                mc = validate_modular_cut(bm.lat, cut)
                extra = {"proper": mc.proper, "nonempty": mc.nonempty,
                         "atom_free": mc.atom_free}
            witness = None
        except tuple(_WITNESSES) as e:
            witness = _WITNESSES[type(e)](e)
            extra = {"error": type(e).__name__}
    ok = witness is None
    emit({"check": what, "ok": ok, "witness": witness, **extra})
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# m0n


def cmd_m0n(args, _):
    n_top = args.n
    if not (2 <= n_top <= 10):
        return fail_invalid("--n must be between 2 and 10")
    rows = []
    agree = True
    for n in range(2, n_top + 1):
        bm = built_from_matroid(make_partition(n), "min")
        h = chow_polynomial(bm)
        if chow_by_deletion(bm) != h or m0n_poincare_keel(n) != h:
            agree = False
        gam = list(gamma_expansion(h))
        trees = m0n_gamma(n)
        if trees != gam:
            agree = False
        kk = kruskal_katona_check(gam)
        rows.append(
            {
                "n": n,
                "poincare": h,
                "gamma": gam,
                "descent_counts": trees,
                "kruskal_katona": kk,
            }
        )
        if not kk:
            agree = False
    emit({"agree": agree, "rows": rows})
    return EXIT_OK if agree else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="chowpoly",
        description="Exact Chow polynomials, gamma vectors and descent "
        "combinatorics for matroids with building sets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chow", help="Chow polynomial by one or all methods")
    p.add_argument("--spec", default="-", help="instance JSON file, - for stdin")
    p.add_argument("--method", default="all", choices=[*_ROUTES, "all"])
    p.add_argument("--corpus", action="store_true", help="run the built-in corpus")
    p.set_defaults(fn=cmd_chow, read=_read_instance)

    p = sub.add_parser("gamma", help="gamma vector and related certificates")
    p.add_argument("--spec", default="-", help="instance JSON file, - for stdin")
    p.add_argument("--with-descents", action="store_true")
    p.add_argument("--with-complex", action="store_true")
    p.add_argument("--corpus", action="store_true", help="run the built-in corpus")
    p.set_defaults(fn=cmd_gamma, read=_read_instance)

    p = sub.add_parser("check", help="validate structures with witnesses")
    p.add_argument("--spec", default="-", help="instance JSON file, - for stdin")
    p.add_argument(
        "--what",
        required=True,
        choices=["building-set", "complete", "flag", "modular-cut"],
    )
    p.set_defaults(fn=cmd_check, read=_check_input)

    p = sub.add_parser("m0n", help="moduli-space Poincare/gamma table")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_m0n, read=lambda args: None)

    args = ap.parse_args(argv)
    try:
        inp = args.read(args)
    except _INPUT_ERRORS as e:
        return fail_invalid(f"{type(e).__name__}: {e}")
    return args.fn(args, inp)


if __name__ == "__main__":
    sys.exit(main())
