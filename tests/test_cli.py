"""End-to-end CLI behavior: JSON in, canonical JSON out, exit codes."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowpoly import built_from_matroid, chow_polynomial, cli, make_graphic


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def spec_arg(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


U33_MAX = {"matroid": {"type": "uniform", "r": 3, "n": 3}, "building_set": "max"}
B4_FLAG = {
    "matroid": {"type": "boolean", "n": 4},
    "building_set": [[0], [1], [2], [3], [0, 1], [2, 3], [0, 1, 2, 3]],
}
U34_CUSTOM = {
    "matroid": {"type": "uniform", "r": 3, "n": 4},
    "building_set": [[0], [1], [2], [3], [0, 1], [0, 1, 2, 3]],
}


def test_chow_contract_examples(capsys, tmp_path):
    code, out = run(capsys, ["chow", "--spec", spec_arg(tmp_path, U33_MAX)])
    assert code == 0
    assert out == (
        '{"chow":[1,4,1],"methods_agree":true,"per_method":{"deletion":[1,4,1],'
        '"filtration":[1,4,1],"fy":[1,4,1],"oracle":[1,4,1]}}\n'
    )
    code, out = run(
        capsys,
        [
            "chow",
            "--spec",
            spec_arg(
                tmp_path,
                {
                    "matroid": {"type": "uniform", "r": 2, "n": 3},
                    "building_set": "min",
                },
            ),
        ],
    )
    assert code == 0 and json.loads(out)["chow"] == [1, 1]
    code, out = run(capsys, ["chow", "--spec", spec_arg(tmp_path, B4_FLAG)])
    assert code == 0
    doc = json.loads(out)
    assert doc["chow"] == [1, 3, 3, 1] and doc["methods_agree"]


def test_gamma_contract_examples(capsys, tmp_path):
    code, out = run(
        capsys,
        ["gamma", "--spec", spec_arg(tmp_path, U33_MAX), "--with-descents"],
    )
    assert code == 0
    assert json.loads(out) == {
        "chow": [1, 4, 1],
        "complete": True,
        "descent_formula": [1, 2],
        "gamma": [1, 2],
        "gamma_positive": True,
        "match": True,
    }
    code, out = run(
        capsys,
        ["gamma", "--spec", spec_arg(tmp_path, B4_FLAG), "--with-descents"],
    )
    assert code == 0  # mismatch is only an error on complete instances
    assert json.loads(out) == {
        "chow": [1, 3, 3, 1],
        "complete": False,
        "descent_formula": [1, 1],
        "gamma": [1, 0],
        "gamma_positive": True,
        "match": False,
    }
    code, out = run(
        capsys,
        [
            "gamma",
            "--spec",
            spec_arg(
                tmp_path,
                {
                    "matroid": {"type": "partition", "n": 4},
                    "building_set": "min",
                },
            ),
        ],
    )
    assert code == 0 and json.loads(out)["gamma"] == [1, 3]


def test_gamma_with_complex(capsys, tmp_path):
    code, out = run(
        capsys,
        ["gamma", "--spec", spec_arg(tmp_path, U33_MAX), "--with-complex"],
    )
    assert code == 0
    cx = json.loads(out)["complex"]
    assert cx == {
        "balanced": True,
        "complete": True,
        "descent_counts": [1, 2],
        "downward_closed": True,
        "f_vector": [1, 2],
        "faces": [[], [[0, 2]], [[1, 2]]],
        "factored": False,
        "vertices": [[0, 2], [1, 2]],
    }
    code, out = run(
        capsys,
        [
            "gamma",
            "--spec",
            spec_arg(
                tmp_path,
                {"matroid": {"type": "boolean", "n": 4}, "building_set": "min"},
            ),
            "--with-complex",
        ],
    )
    assert code == 0
    cx = json.loads(out)["complex"]
    assert cx["factored"] is True and cx["f_vector"] == [1]


def test_check_complete_and_flag(capsys, tmp_path):
    p = spec_arg(tmp_path, U34_CUSTOM)
    code, out = run(capsys, ["check", "--spec", p, "--what", "complete"])
    assert code == 0
    assert out == '{"check":"complete","ok":true,"witness":null}\n'
    code, out = run(capsys, ["check", "--spec", p, "--what", "flag"])
    assert (code, out) == (
        3,
        '{"check":"flag","ok":false,"witness":[[0],[2],[3]]}\n',
    )
    for matroid, bset in (
        ({"type": "partition", "n": 7}, "min"),
        ({"type": "boolean", "n": 6}, "max"),
    ):
        p = spec_arg(tmp_path, {"matroid": matroid, "building_set": bset})
        code, out = run(capsys, ["check", "--spec", p, "--what", "flag"])
        assert (code, out) == (0, '{"check":"flag","ok":true,"witness":null}\n')


def test_check_complete_respects_order(capsys, tmp_path):
    doc = dict(U34_CUSTOM, order=[3, 2, 1, 0])
    code, out = run(
        capsys, ["check", "--spec", spec_arg(tmp_path, doc), "--what", "complete"]
    )
    assert code == 3
    assert json.loads(out)["witness"] == {
        "element": [0, 1, 2, 3],
        "missing": [2, 3],
    }


def test_check_building_set_witness(capsys, tmp_path):
    u34_flats = (
        [[]]
        + [[i] for i in range(4)]
        + [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [0, 1, 2, 3]]
    )
    doc = {
        "matroid": {"type": "flats", "n": 4, "flats": u34_flats},
        "building_set": [[0], [1], [2], [3]],
    }
    code, out = run(
        capsys,
        ["check", "--spec", spec_arg(tmp_path, doc), "--what", "building-set"],
    )
    assert code == 3
    assert json.loads(out) == {
        "check": "building-set",
        "error": "MissingIrreducible",
        "ok": False,
        "witness": [0, 1, 2, 3],
    }


def test_check_building_set_join_witness(capsys, tmp_path):
    """B3 with {0}, {1}, {2}, {0,1}, {1,2}: {0,1} and {1,2} meet and join to
    the top, which is missing.  Bytes and exit code pinned."""
    doc = {
        "matroid": {"type": "boolean", "n": 3},
        "building_set": [[0], [1], [2], [0, 1], [1, 2]],
    }
    code, out = run(
        capsys,
        ["check", "--spec", spec_arg(tmp_path, doc), "--what", "building-set"],
    )
    assert code == 3
    assert out == (
        '{"check":"building-set","error":"JoinClosureViolation","ok":false,'
        '"witness":[[0,1],[1,2]]}\n'
    )


def test_check_modular_cut(capsys, tmp_path):
    base = {"matroid": {"type": "boolean", "n": 3}, "building_set": "max"}
    bad = dict(base, cut=[[0, 1]])
    code, out = run(
        capsys, ["check", "--spec", spec_arg(tmp_path, bad), "--what", "modular-cut"]
    )
    assert code == 3
    assert json.loads(out) == {
        "check": "modular-cut",
        "error": "NotUpwardClosed",
        "ok": False,
        "witness": [[0, 1], [0, 1, 2]],
    }
    good = dict(base, cut=[[0, 1], [0, 1, 2]])
    code, out = run(
        capsys,
        ["check", "--spec", spec_arg(tmp_path, good, "g.json"), "--what", "modular-cut"],
    )
    assert code == 0
    assert json.loads(out) == {
        "atom_free": True,
        "check": "modular-cut",
        "nonempty": True,
        "ok": True,
        "proper": True,
        "witness": None,
    }


def test_m0n_table(capsys):
    code, out = run(capsys, ["m0n", "--n", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert [r["poincare"] for r in doc["rows"]] == [[1], [1, 1], [1, 5, 1]]
    assert [r["gamma"] for r in doc["rows"]] == [[1], [1], [1, 3]]
    assert [r["descent_counts"] for r in doc["rows"]] == [[1], [1], [1, 3]]
    assert all(r["kruskal_katona"] for r in doc["rows"])


def test_m0n_fails_when_keel_disagrees(capsys, monkeypatch):
    """Keel's recursion is a third count of each row: off by one in its
    linear coefficient, the table no longer agrees and `m0n` exits 3."""
    from chowpoly.families import m0n_poincare_keel

    def off_by_one(n):
        p = m0n_poincare_keel(n)
        return [p[0], p[1] + 1, *p[2:]] if n >= 3 else p

    monkeypatch.setattr(cli, "m0n_poincare_keel", off_by_one)
    code, out = run(capsys, ["m0n", "--n", "4"])
    assert code == 3
    assert json.loads(out)["agree"] is False


def test_stdin_spec(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(U33_MAX)))
    code, out = run(capsys, ["chow", "--spec", "-"])
    assert code == 0 and json.loads(out)["chow"] == [1, 4, 1]


def test_augmented_and_chordal_specs(capsys, tmp_path):
    aug = {
        "matroid": {"type": "uniform", "r": 2, "n": 3},
        "building_set": {"type": "augmented"},
    }
    code, out = run(capsys, ["chow", "--spec", spec_arg(tmp_path, aug)])
    assert code == 0
    doc = json.loads(out)
    assert doc["chow"] == [1, 4, 1] and doc["methods_agree"]
    chord = {
        "matroid": {"type": "boolean", "n": 3},
        "building_set": {"type": "chordal", "index": 5},
    }
    code, out = run(capsys, ["gamma", "--spec", spec_arg(tmp_path, chord, "c.json")])
    assert code == 0
    doc = json.loads(out)
    assert doc["chow"] == [1, 3, 1] and doc["gamma"] == [1, 1] and doc["complete"]


def test_toric_null_when_too_large(capsys, tmp_path):
    doc = {"matroid": {"type": "boolean", "n": 6}, "building_set": "min"}
    code, out = run(capsys, ["chow", "--spec", spec_arg(tmp_path, doc)])
    assert code == 0
    got = json.loads(out)
    assert got["per_method"]["oracle"] is None and got["methods_agree"]


def test_invalid_inputs_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{nope"))
    assert cli.main(["chow", "--spec", "-"]) == 2
    capsys.readouterr()
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO(json.dumps({"matroid": {"type": "foo"}, "building_set": "min"})),
    )
    assert cli.main(["chow", "--spec", "-"]) == 2
    capsys.readouterr()
    bad_chordal = {
        "matroid": {"type": "boolean", "n": 3},
        "building_set": {"type": "chordal", "index": 99},
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad_chordal)))
    assert cli.main(["chow", "--spec", "-"]) == 2
    capsys.readouterr()
    bad_rank_table = {
        "matroid": {"type": "rank-table", "n": 2, "ranks": [0, 1, 1, 0]},
        "building_set": "min",
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad_rank_table)))
    assert cli.main(["chow", "--spec", "-"]) == 2
    capsys.readouterr()
    inapplicable = spec_arg(
        tmp_path,
        {"matroid": {"type": "uniform", "r": 3, "n": 4}, "building_set": "min"},
    )
    assert cli.main(["chow", "--spec", inapplicable, "--method", "filtration"]) == 2
    capsys.readouterr()


_N17_PAIRS = [
    list(p)
    for p in itertools.combinations(range(17), 2)
    if not set(p) <= {0, 1, 2} and not set(p) <= {0, 1, 3}
]
# Rejected `rank-table` and `flats` specs, with the stderr line each is
# rejected with.  A `rank-table` spec is checked by the rank axioms on every
# subset.  A `flats` spec is checked by the flat axioms at every n: the
# lattice's atom check and cover rescan, then meet closure
# (`cli._matroid_from_flats`).
BAD_RANK_SPECS = {
    "rank-jump": (
        {"type": "rank-table", "n": 2, "ranks": [0, 1, 1, 0]},
        "InvalidMatroid: rank increment -1 adding 1 to 1",
    ),
    "rank-loop": (
        {"type": "rank-table", "n": 2, "ranks": [0, 0, 1, 1]},
        "InvalidMatroid: loops present: 1",
    ),
    "rank-short": (
        {"type": "rank-table", "n": 2, "ranks": [0, 1, 1]},
        "ValueError: rank table must have 2^2 entries",
    ),
    "flats-no-empty": (
        {"type": "flats", "n": 2, "flats": [[0], [1], [0, 1]]},
        "ValueError: the empty flat is missing",
    ),
    "flats-chain": (
        {"type": "flats", "n": 2, "flats": [[], [0], [0, 1]]},
        "InvalidMatroid: element 1 lies in no atom (loop?)",
    ),
    "flats-two-atoms": (
        {"type": "flats", "n": 3, "flats": [[], [0, 1], [1, 2], [0, 1, 2]]},
        "InvalidMatroid: element 1 lies in two atoms",
    ),
    "flats-n17-atoms-meet": (
        {"type": "flats", "n": 17, "flats": [[], [0, 1], list(range(17))]},
        "InvalidMatroid: element 2 lies in no atom (loop?)",
    ),
    "flats-n17-two-lines": (
        {
            "type": "flats",
            "n": 17,
            "flats": [[]]
            + [[i] for i in range(17)]
            + [[0, 1, 2], [0, 1, 3]]
            + _N17_PAIRS
            + [list(range(17))],
        },
        "InvalidMatroid: element 1 above flat 1 in two covers",
    ),
}


@pytest.mark.parametrize("name", list(BAD_RANK_SPECS))
def test_rejected_rank_specs_keep_their_message(capsys, tmp_path, name):
    """Each rejected spec exits 2 with nothing on stdout and its error line
    on stderr."""
    matroid, line = BAD_RANK_SPECS[name]
    spec = spec_arg(tmp_path, {"matroid": matroid, "building_set": "min"})
    assert cli.main(["chow", "--spec", spec]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {line}\n")


def test_flats_rank_oracle_matches_full_scan(capsys, tmp_path):
    """The `flats` spec's rank, read off its lattice, is the full scan's
    rank on every subset of U(3,4); a family that is no lattice of flats
    exits 2 with its witness."""
    import oracles

    pairs = [list(p) for p in itertools.combinations(range(4), 2)]
    u34 = [[]] + [[i] for i in range(4)] + pairs + [[0, 1, 2, 3]]
    rank = cli._matroid_from_flats(4, u34).rank
    ref = oracles.flats_rank_ref(4, u34)
    assert [rank(s) for s in range(16)] == [ref(s) for s in range(16)]
    # not closed under meets, [0, 1] ∩ [1, 2] = [1]; the atoms [0] and
    # [1, 2] miss 3, and the atom check comes first
    no_meets = [[], [0], [0, 1], [1, 2], [0, 1, 2, 3]]
    for flat_lists, line in (
        (no_meets, "element 3 lies in no atom (loop?)"),
        (NOT_MEET_CLOSED, "flats 1001 and 111 meet in 1, which is not a flat"),
    ):
        doc = {"matroid": {"type": "flats", "n": 4, "flats": flat_lists}}
        assert cli.main(["chow", "--spec", spec_arg(tmp_path, doc)]) == 2
        assert capsys.readouterr() == ("", f"error: InvalidMatroid: {line}\n")


# Passes the lattice's atom and cover checks, but [0, 3] ∩ [0, 1, 2] = [0]
# is no flat.
NOT_MEET_CLOSED = [
    [], [0, 3], [1, 2], [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [0, 1, 2, 3]
]
# NOT_MEET_CLOSED with each element blown up into a parallel class of 10.
NOT_MEET_CLOSED_40 = {
    "matroid": {
        "type": "flats",
        "n": 40,
        "flats": [[10 * e + k for e in f for k in range(10)] for f in NOT_MEET_CLOSED],
    }
}
NOT_MEET_CLOSED_40_LINE = (
    "error: InvalidMatroid: flats 1111111111000000000000000000001111111111 and "
    "111111111111111111111111111111 meet in 1111111111, which is not a flat\n"
)
MEET_COMMANDS = [
    ["chow"],
    ["gamma"],
    ["gamma", "--with-descents", "--with-complex"],
    ["check", "--what", "building-set"],
]


@pytest.mark.parametrize("cmd", MEET_COMMANDS, ids=" ".join)
def test_flats_spec_not_meet_closed_exits_2(capsys, tmp_path, cmd):
    """A 40-element `flats` spec that is no lattice of flats, for it is not
    closed under meets, is invalid input on every subcommand: exit 2,
    nothing on stdout, the pair that meets outside the flats on stderr."""
    spec = spec_arg(tmp_path, NOT_MEET_CLOSED_40)
    assert cli.main([*cmd, "--spec", spec]) == 2
    assert capsys.readouterr() == ("", NOT_MEET_CLOSED_40_LINE)


def test_flats_spec_not_meet_closed_exits_2_under_optimize():
    env = dict(os.environ, PYTHONPATH=SRC)
    for cmd in MEET_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "chowpoly.cli", *cmd, "--spec", "-"],
            input=json.dumps(NOT_MEET_CLOSED_40),
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2,
            "",
            NOT_MEET_CLOSED_40_LINE,
        ), cmd


def test_flats_spec_is_exact_on_four_elements():
    """Every family of subsets of range(4) that holds the empty set and the
    ground set is accepted as a `flats` spec exactly when it is the
    lattice of flats of a matroid (`oracles.matroid_of_flats_ref`), and
    then with that matroid's ranks.  The accepted families are the 27
    loopless matroids on 4 labeled elements: 68 matroids, less the 41
    with a loop.  Three families pass the lattice's atom and cover checks
    and fail only meet closure, NOT_MEET_CLOSED among them."""
    import oracles

    from chowpoly.errors import InvalidMatroid

    accepted, meet_only = 0, []
    for pick in range(1 << 14):  # the masks 1..14 strictly between ∅ and E
        family = {0, 15} | {k + 1 for k in range(14) if pick >> k & 1}
        ref = oracles.matroid_of_flats_ref(4, family)
        try:
            m = cli._matroid_from_flats(4, [cli.mask_to_indices(f) for f in family])
        except InvalidMatroid as e:
            assert ref is None, family
            if "meet in" in e.args[0]:
                meet_only.append(family)
            continue
        assert ref is not None, family
        assert [m.rank(s) for s in range(16)] == ref, family
        accepted += 1
    assert (accepted, len(meet_only)) == (27, 3)
    assert {cli._mask_of(f, 4) for f in NOT_MEET_CLOSED} in meet_only


def _corpus_host_docs():
    """The host matroids of `corpus()` and Π6, as family spec documents."""
    from chowpoly.corpus import ATLAS_GRAPHS

    docs = [
        {"type": "uniform", "r": r, "n": n} for n in range(1, 7) for r in range(1, n + 1)
    ]
    docs += [{"type": "boolean", "n": n} for n in range(1, 6)]
    docs += [{"type": "partition", "n": n} for n in range(2, 7)]
    docs += [{"type": "graphic", "edges": edges} for _, edges in ATLAS_GRAPHS]
    return docs


ROUND_TRIP_COMMANDS = [
    ["chow", "--method", "all"],
    ["gamma", "--with-descents", "--with-complex"],
]


def test_flats_spec_round_trips_the_corpus_hosts(capsys, tmp_path):
    """Every corpus host and Π6, written out as a `flats` spec (its flats
    listed top down), gives the stdout bytes and exit code of its family
    spec on `chow --method all` and `gamma --with-descents --with-complex`,
    with G_min and, below Π6, G_max."""
    from chowpoly.lattice import lattice_of_flats

    for family in _corpus_host_docs():
        lat = lattice_of_flats(cli.parse_matroid(family))
        flats = {
            "type": "flats",
            "n": lat.n,
            "flats": [cli.mask_to_indices(f) for f in reversed(lat.flats)],
        }
        kinds = ["min"] if family == {"type": "partition", "n": 6} else ["min", "max"]
        for kind, cmd in itertools.product(kinds, ROUND_TRIP_COMMANDS):
            got = []
            for matroid in (family, flats):
                doc = {"matroid": matroid, "building_set": kind}
                got.append(run(capsys, [*cmd, "--spec", spec_arg(tmp_path, doc)]))
            assert got[0] == got[1], (family, kind, cmd)


def test_spec_and_corpus_agree_on_every_corpus_instance(capsys, tmp_path):
    """Each `corpus()` instance, written as a spec (its lattice as a `flats`
    spec, its building set and order listed), gives on `chow --method all`
    the agreement and answered routes of its `chow --corpus` row, and on
    `gamma --with-descents --with-complex` the completeness, γ-positivity
    and descent match of its `gamma --corpus` row."""
    from chowpoly.corpus import corpus

    rows = {}
    for cmd in ("chow", "gamma"):
        code, out = run(capsys, [cmd, "--corpus"])
        assert code == 0
        rows[cmd] = json.loads(out)["rows"]
    for inst, crow, grow in zip(corpus(), rows["chow"], rows["gamma"], strict=True):
        assert crow["name"] == grow["name"] == inst.name
        bm = inst.built
        doc = {
            "matroid": {
                "type": "flats",
                "n": bm.lat.n,
                "flats": [cli.mask_to_indices(f) for f in bm.lat.flats],
            },
            "building_set": cli.masks_to_arrays(bm.bset),
            "order": list(bm.order),
        }
        spec = spec_arg(tmp_path, doc)
        code, out = run(capsys, ["chow", "--method", "all", "--spec", spec])
        chow = json.loads(out)
        assert code == 0, inst.name
        assert chow["methods_agree"] == crow["agree"], inst.name
        answered = {k: v is not None for k, v in chow["per_method"].items()}
        assert answered == crow["methods"], inst.name
        code, out = run(
            capsys, ["gamma", "--with-descents", "--with-complex", "--spec", spec]
        )
        gamma = json.loads(out)
        assert code == 0, inst.name
        got = (
            gamma["complete"],
            gamma["gamma_positive"],
            gamma["match"] if gamma["complete"] else None,
        )
        assert got == (grow["complete"], grow["gamma_positive"], grow["descent_match"])


SPEC_COMMANDS = [
    ["chow"],
    ["gamma", "--with-descents", "--with-complex"],
    ["check", "--what", "building-set"],
    ["check", "--what", "complete"],
]
# Spec file texts that fail before any instance is built.
BAD_SPEC_TEXTS = {
    "missing-file": None,
    "int-overflow": '{"matroid":{"type":"uniform","r":1e400,"n":3}}',
    "deep-nesting": "[" * 100_000,
}


@pytest.mark.parametrize("bad", list(BAD_SPEC_TEXTS))
@pytest.mark.parametrize("cmd", SPEC_COMMANDS, ids=" ".join)
def test_unreadable_specs_exit_2(capsys, tmp_path, cmd, bad):
    """A missing file, a JSON number int() cannot take and JSON nested past
    the recursion limit are invalid input on every subcommand that reads a
    spec: exit 2, nothing on stdout, the error named on stderr."""
    spec = tmp_path / "spec.json"
    if BAD_SPEC_TEXTS[bad] is not None:
        spec.write_text(BAD_SPEC_TEXTS[bad])
    assert cli.main([*cmd, "--spec", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


# Specs whose numbers are no JSON integers; int() would truncate or coerce
# each one into a valid instance.
NON_INTEGER_SPECS = {
    "n-float": {"matroid": {"type": "boolean", "n": 3.7}},
    "n-string": {"matroid": {"type": "boolean", "n": "3"}},
    "n-true": {"matroid": {"type": "boolean", "n": True}},
    "r-float": {"matroid": {"type": "uniform", "r": 2.0, "n": 3}},
    "rank-float": {"matroid": {"type": "rank-table", "n": 2, "ranks": [0, 1, 1, 1.9]}},
    "rank-true": {"matroid": {"type": "rank-table", "n": 2, "ranks": [0, True, 1, 2]}},
    "chordal-index-float": {
        "matroid": {"type": "boolean", "n": 3},
        "building_set": {"type": "chordal", "index": 2.9},
    },
    "member-true": {
        "matroid": {"type": "boolean", "n": 2},
        "building_set": [[0], [True]],
    },
}


@pytest.mark.parametrize("bad", list(NON_INTEGER_SPECS))
@pytest.mark.parametrize("cmd", SPEC_COMMANDS, ids=" ".join)
def test_non_integer_spec_numbers_exit_2(capsys, tmp_path, cmd, bad):
    """A float, a string or a boolean where the spec wants an integer is
    invalid input: exit 2, nothing on stdout, and stderr names the field."""
    spec = spec_arg(tmp_path, NON_INTEGER_SPECS[bad])
    assert cli.main([*cmd, "--spec", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ValueError: ") and "must be an integer" in err


# Graphic specs whose vertex labels are neither all integers nor all
# strings, with the edge the error names.  Python equality makes `true` and
# `1.0` the vertex 1, which would turn the triangle into a doubled edge 1-2.
BAD_GRAPHIC_LABELS = {
    "true": ([[0, 1], [1, 2], [True, 2]], "[True, 2]"),
    "float": ([[0, 1], [1, 2], [1.0, 2]], "[1.0, 2]"),
    "null": ([[None, 1], [1, 2]], "[None, 1]"),
    "int-and-string": ([[0, "a"]], "[0, 'a']"),
    "across-edges": ([[0, 1], ["a", "b"]], "['a', 'b']"),
}


@pytest.mark.parametrize("bad", list(BAD_GRAPHIC_LABELS))
@pytest.mark.parametrize("cmd", [["chow", "--method", "fy"], ["gamma"]], ids=" ".join)
def test_graphic_labels_that_are_not_all_ints_or_all_strings_exit_2(
    capsys, tmp_path, cmd, bad
):
    """A graphic vertex label that is a boolean, a float or null, or a mix
    of integers and strings, is invalid input: exit 2, nothing on stdout,
    and stderr names the edge."""
    edges, named = BAD_GRAPHIC_LABELS[bad]
    doc = {"matroid": {"type": "graphic", "edges": edges}, "building_set": "min"}
    assert cli.main([*cmd, "--spec", spec_arg(tmp_path, doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ValueError: graphic vertex labels") and named in err


@pytest.mark.parametrize(
    "edges",
    [
        [[0, 1], [1, 2], [0, 2]],
        [["a", "b"], ["b", "c"], ["a", "c"]],
        [[5, 7], [7, 9], [5, 9]],
    ],
    ids=["ints", "strings", "sparse-ints"],
)
def test_graphic_int_and_string_labels_answer(capsys, tmp_path, edges):
    """Integer and string labels name the vertices of the triangle alike."""
    doc = {"matroid": {"type": "graphic", "edges": edges}, "building_set": "min"}
    spec = spec_arg(tmp_path, doc)
    code, out = run(capsys, ["chow", "--method", "fy", "--spec", spec])
    assert (code, out) == (
        0,
        '{"chow":[1,1],"methods_agree":true,"per_method":{"fy":[1,1]}}\n',
    )


def test_modular_cut_that_is_not_a_list_exits_2(capsys, tmp_path):
    spec = spec_arg(tmp_path, dict(U33_MAX, cut=5))
    assert cli.main(["check", "--what", "modular-cut", "--spec", spec]) == 2
    assert capsys.readouterr().out == ""


def test_complex_f_vector_has_the_length_of_gamma(capsys, tmp_path):
    """`gamma --with-complex` pads the Γ-complex f-vector with zeros to the
    length of γ, for irreducible and reducible input alike: on every corpus
    instance, and through the CLI on U(3,4)|min, whose Γ-complex is the
    empty face alone next to γ = [1, -1]."""
    from chowpoly.corpus import corpus

    for inst in corpus():
        out = cli._gamma(inst.built, False, True)
        assert len(out["complex"]["f_vector"]) == len(out["gamma"]), inst.name
    doc = {"matroid": {"type": "uniform", "r": 3, "n": 4}, "building_set": "min"}
    code, out = run(
        capsys, ["gamma", "--with-complex", "--spec", spec_arg(tmp_path, doc)]
    )
    got = json.loads(out)
    assert code == 0 and got["gamma"] == [1, -1]
    assert got["complex"]["f_vector"] == [1, 0] and got["complex"]["faces"] == [[]]


def test_gamma_corpus_matrix(capsys):
    code, out = run(capsys, ["gamma", "--corpus"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert len(doc["rows"]) >= 200
    for row in doc["rows"]:
        assert row["ok"], row["name"]


BAD_ORDER = {"matroid": {"type": "boolean", "n": 3}, "order": [0, 0, 1]}
NON_SIMPLE_LIST = {
    "matroid": {"type": "graphic", "edges": [[0, 1], [0, 1], [1, 2]]},
    "building_set": [[0, 1], [2], [0, 1, 2]],
}


@pytest.mark.parametrize(
    "doc",
    [
        BAD_ORDER,
        dict(BAD_ORDER, order=[0, 1]),
        dict(BAD_ORDER, order=["a", "b", "c"]),
    ],
    ids=["repeat", "short", "strings"],
)
def test_bad_order_and_non_simple_are_invalid_input(capsys, tmp_path, doc):
    for cmd in ("chow", "gamma"):
        assert cli.main([cmd, "--spec", spec_arg(tmp_path, doc)]) == 2
        assert capsys.readouterr().out == ""


def test_explicit_building_set_on_a_non_simple_matroid(capsys, tmp_path):
    """A listed building set on a non-simple matroid is validated there and
    simplified, as "min" and "max" are: every subcommand answers, with the
    H of `built_from_matroid`."""
    spec = spec_arg(tmp_path, NON_SIMPLE_LIST)
    m = make_graphic([(0, 1), (0, 1), (1, 2)])
    assert chow_polynomial(built_from_matroid(m, [0b011, 0b100, 0b111])) == [1, 1]
    code, out = run(capsys, ["chow", "--spec", spec])
    assert (code, out) == (
        0,
        '{"chow":[1,1],"methods_agree":true,"per_method":'
        '{"deletion":[1,1],"filtration":[1,1],"fy":[1,1],"oracle":[1,1]}}\n',
    )
    code, out = run(capsys, ["gamma", "--with-descents", "--spec", spec])
    assert code == 0
    doc = json.loads(out)
    assert (doc["chow"], doc["gamma"], doc["match"]) == ([1, 1], [1], True)
    code, out = run(capsys, ["check", "--what", "building-set", "--spec", spec])
    assert (code, json.loads(out)) == (
        0,
        {"check": "building-set", "ok": True, "witness": None},
    )


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def test_bad_order_is_invalid_input_under_optimize():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "chowpoly.cli", "chow", "--spec", "-"],
        input=json.dumps(BAD_ORDER),
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: BadParameters")


# Drawn CLI inputs: a subcommand's argv and the text its spec reads on
# stdin.  The specs are small (at most 6 ground elements), start from the
# spec grammar of `chowpoly.cli` or a valid document, and may have one key
# dropped or replaced by a value of the wrong type or range, or their text
# cut short.
_ELEMS = st.lists(st.integers(-1, 5), max_size=4)
_JUNK = st.sampled_from([None, True, -1, 0, 65, 10**30, 1.5, "x", [], {}, [[0, 9]]])
_MATROIDS = st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("uniform"), "r": st.integers(0, 4), "n": st.integers(0, 5)}
    ),
    st.fixed_dictionaries({"type": st.just("boolean"), "n": st.integers(0, 4)}),
    st.fixed_dictionaries({"type": st.just("partition"), "n": st.integers(1, 5)}),
    st.fixed_dictionaries(
        {
            "type": st.just("graphic"),
            "edges": st.lists(
                st.lists(st.integers(0, 3), min_size=1, max_size=3), max_size=6
            ),
        }
    ),
    st.fixed_dictionaries(
        {
            "type": st.just("flats"),
            "n": st.integers(1, 4),
            "flats": st.lists(_ELEMS, max_size=8),
        }
    ),
    st.integers(0, 3).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "type": st.just("rank-table"),
                "n": st.just(n),
                "ranks": st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n),
            }
        )
    ),
)
_DRAWN_DOCS = st.fixed_dictionaries(
    {"matroid": _MATROIDS},
    optional={
        "building_set": st.one_of(
            st.sampled_from(["min", "max", "all"]),
            st.lists(_ELEMS, max_size=8),
            st.just({"type": "augmented"}),
            st.fixed_dictionaries(
                {"type": st.just("chordal"), "index": st.integers(-1, 6)}
            ),
        ),
        "order": st.lists(st.integers(-1, 5), max_size=6),
        "cut": st.lists(_ELEMS, max_size=5),
    },
)
_VALID_DOCS = st.sampled_from(
    [
        U33_MAX,
        B4_FLAG,
        U34_CUSTOM,
        NON_SIMPLE_LIST,
        dict(U33_MAX, cut=[[0, 1, 2]]),
        {
            "matroid": {"type": "flats", "n": 3, "flats": [[], [0], [1], [2], [0, 1, 2]]},
            "building_set": "max",
        },
        {"matroid": {"type": "rank-table", "n": 2, "ranks": [0, 1, 1, 1]}},
        {"matroid": {"type": "boolean", "n": 4}, "building_set": {"type": "chordal", "index": 3}},
        {"matroid": {"type": "uniform", "r": 2, "n": 4}, "building_set": {"type": "augmented"}},
    ]
)


def _mutations(doc):
    """doc itself, or doc with one key, at the top or in its matroid,
    dropped (None) or replaced by a junk value."""
    paths = [(k,) for k in doc] + [("matroid", k) for k in doc["matroid"]]

    def apply(change):
        (*outer, key), value = change
        out = dict(doc, matroid=dict(doc["matroid"]))
        inner = out["matroid"] if outer else out
        if value is None:
            del inner[key]
        else:
            inner[key] = value
        return out

    same = st.just(doc)
    return st.one_of(
        same,
        same,
        st.tuples(st.sampled_from(paths), st.one_of(st.none(), _JUNK)).map(apply),
    )


def _spec_texts(doc):
    text = json.dumps(doc)
    whole = st.just(text)
    cut = st.integers(0, len(text) - 1).map(lambda k: text[:k])
    return st.one_of(whole, whole, whole, cut)


_SPEC_ARGVS = (
    [["chow", "--method", m] for m in ("fy", "deletion", "filtration", "oracle", "all")]
    + [["gamma", *flags] for flags in ([], ["--with-descents"], ["--with-complex"])]
    + [["gamma", "--with-descents", "--with-complex"]]
    + [["check", "--what", w] for w in ("building-set", "complete", "flag", "modular-cut")]
)
CLI_CASES = st.one_of(
    st.tuples(
        st.sampled_from(_SPEC_ARGVS),
        st.one_of(_DRAWN_DOCS, _VALID_DOCS, _VALID_DOCS)
        .flatmap(_mutations)
        .flatmap(_spec_texts),
    ),
    st.tuples(st.integers(-1, 5).map(lambda n: ["m0n", "--n", str(n)]), st.just("")),
)


def check_cli_case(case):
    """Run one drawn case through `cli.main`; raise unless it returns 0, 2
    or 3.  No assert, so the check holds under python -O too."""
    argv, text = case
    if argv[0] != "m0n":
        argv = [*argv, "--spec", "-"]
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
    finally:
        sys.stdin = stdin
    if code not in (0, 2, 3):
        raise AssertionError(f"exit {code!r} for {argv} on {text!r}")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=CLI_CASES)
def test_drawn_specs_exit_0_2_or_3(case):
    """Every subcommand on drawn and mutated specs returns 0, 2 or 3 and
    raises nothing."""
    check_cli_case(case)


def test_drawn_specs_exit_0_2_or_3_under_optimize():
    """The same property under python -O, where an assert would be gone."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "from hypothesis import given, settings\n"
        "import test_cli\n"
        "run = given(test_cli.CLI_CASES)(test_cli.check_cli_case)\n"
        "settings(max_examples=60, derandomize=True, database=None, deadline=None)(run)()\n"
        "print('ok', __debug__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok False\n"


# Specs that the pinned commands below name after --spec.
B3_MAX_BLOCKS = [
    list(c)
    for block in ((0, 1, 2), (3, 4, 5))
    for k in (1, 2, 3)
    for c in itertools.combinations(block, k)
]
PINNED_SPECS = {
    "Pi7|min": {"matroid": {"type": "partition", "n": 7}, "building_set": "min"},
    "B6|max": {"matroid": {"type": "boolean", "n": 6}, "building_set": "max"},
    "B3|max+B3|max": {
        "matroid": {"type": "boolean", "n": 6},
        "building_set": B3_MAX_BLOCKS,
    },
}
GAMMA_ALL = ("gamma", "--with-descents", "--with-complex", "--spec")

# sha256 of each command's stdout.  Performance work must leave these bytes
# unchanged; a change that alters them on purpose updates the digest.
STDOUT_SHA256 = {
    ("chow", "--corpus"): "60b0dd358e0181911e8d2bc564078fc3bf177227ae76c904729393610a8556ff",
    ("gamma", "--corpus"): "971123acd018a43205283dc954a50c13bcf441ab1ac67d5dde689278f6320821",
    ("m0n", "--n", "7"): "6b36eb24fe7a416bcc81347ed87b1a5d74215f58cb292a068843408aa5b02ed6",
    (*GAMMA_ALL, "Pi7|min"): "aebbba0049d00602bcf8b3bf5620b680f53c95537312b54ad3e0707ede17350f",
    (*GAMMA_ALL, "B6|max"): "8fde96dcc40b984da4c1d65b52d42d9f0b81b9d10bced4406655e8023ca6d00c",
    (*GAMMA_ALL, "B3|max+B3|max"): "72444bb1de0d1f68c93335cd5ebcdab4d1736299b78db255a157770846f72da7",
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_stdout_bytes_are_pinned(argv, tmp_path):
    args = list(argv)
    if "--spec" in args:
        i = args.index("--spec") + 1
        args[i] = spec_arg(tmp_path, PINNED_SPECS[args[i]])
    proc = subprocess.run(
        [sys.executable, "-m", "chowpoly.cli", *args],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[argv]
