"""Polynomial utilities: γ-expansion, real-rootedness, unimodality,
Kruskal-Katona, cross-checked against the independent oracle implementations."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from chowpoly.errors import NotPalindromic
from chowpoly.polynomials import (
    binom_poly,
    g_vector_report,
    gamma_expansion,
    gamma_to_poly,
    is_gamma_positive,
    is_log_concave,
    is_palindromic,
    is_real_rooted,
    is_unimodal,
    kruskal_katona_check,
    no_internal_zeros,
    normalize,
    padd,
    pmul,
    poly_diagnostics,
    trange,
)

GAMMA_CASES = [
    [1],
    [1, 1],
    [1, 4, 1],
    [1, 3, 3, 1],
    [1, 2, 1],
    [1, 26, 66, 26, 1],
    [1, 120, 1191, 2416, 1191, 120, 1],
    [1, 99, 715, 715, 99, 1],
    [2, 5, 5, 2],
]


@pytest.mark.parametrize("h", GAMMA_CASES, ids=[str(h) for h in GAMMA_CASES])
def test_gamma_matches_oracle(h):
    got = gamma_expansion(h)
    want = oracles.gamma_of(h)
    assert got == want
    assert len(got) == (len(h) - 1) // 2 + 1
    assert gamma_to_poly(got, len(h) - 1) == h


def test_gamma_goldens():
    assert gamma_expansion([1, 4, 1]) == [1, 2]
    assert gamma_expansion([1, 1]) == [1]
    assert gamma_expansion([1]) == [1]
    assert gamma_expansion([1, 3, 3, 1]) == [1, 0]
    assert gamma_expansion([]) == []
    assert gamma_expansion([1, 120, 1191, 2416, 1191, 120, 1]) == [
        1,
        114,
        720,
        272,
    ]


def test_gamma_rejects_non_palindromic():
    with pytest.raises(NotPalindromic):
        gamma_expansion([1, 2])
    assert not is_gamma_positive([1, 2])
    assert not is_gamma_positive([1, 1, 1])  # γ = [1, -1]
    assert is_gamma_positive([1, 4, 1])


@given(
    gammas=st.lists(st.integers(0, 30), min_size=1, max_size=4),
    extra=st.integers(0, 3),
)
def test_gamma_round_trip(gammas, extra):
    gammas = [max(gammas[0], 1)] + gammas[1:]
    d = 2 * (len(gammas) - 1) + extra
    p = gamma_to_poly(gammas, d)
    assert is_palindromic(p)
    want = gammas + [0] * (d // 2 + 1 - len(gammas))
    assert gamma_expansion(p) == want
    assert oracles.gamma_of(p) == want


REAL_ROOTED_CASES = [
    ([1, 4, 1], True),
    ([1, 2, 1], True),
    ([1, 1, 1], False),
    ([0, 1, 2, 1], True),
    ([1, 0, 1], False),
    ([1, 26, 66, 26, 1], True),
    ([1, 120, 1191, 2416, 1191, 120, 1], True),
    ([1, 1], True),
    ([2, 3], True),
    ([1, 0, 0, 1], False),
]


@pytest.mark.parametrize("p,want", REAL_ROOTED_CASES, ids=[str(p) for p, _ in REAL_ROOTED_CASES])
def test_real_rooted_battery(p, want):
    assert is_real_rooted(p) == want
    assert oracles.is_real_rooted_oracle(p) == want


@given(p=st.lists(st.integers(-4, 6), min_size=1, max_size=6))
@settings(max_examples=300)
def test_real_rooted_matches_oracle(p):
    if not normalize(p):
        return
    assert is_real_rooted(p) == oracles.is_real_rooted_oracle(p)


def _root_products(seed, count):
    """Seeded products of t − r over integer roots r, with repeats and
    roots at 0, each alone and times t² + t + 1 (irreducible over ℝ), and
    the square of each."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = [1]
        for r in rng.choices(range(-3, 4), k=rng.randint(1, 5)):
            p = pmul(p, [-r, 1])
        for q in (p, pmul(p, [1, 1, 1])):
            out += [q, pmul(q, q)]
    return out


def test_real_rooted_matches_oracle_on_chow_polynomials_and_root_products():
    """The one Sturm sequence of p against the oracle's squarefree pass: on
    every corpus() Chow polynomial, Π2–Π8|min, B6, U(4,7) and U(5,11)|max,
    and on products of linear factors with repeated roots and roots at 0,
    where random coefficient lists rarely land."""
    from chowpoly.chow import chow_polynomial
    from chowpoly.corpus import corpus
    from chowpoly.families import (
        built_from_matroid,
        make_boolean,
        make_partition,
        make_uniform,
    )

    built = [inst.built for inst in corpus()]
    built += [built_from_matroid(make_partition(n), "min") for n in range(2, 9)]
    built += [
        built_from_matroid(m, "max")
        for m in (make_boolean(6), make_uniform(4, 7), make_uniform(5, 11))
    ]
    polys = [chow_polynomial(bm) for bm in built] + _root_products(2801, 200)
    verdicts = Counter()
    for p in polys:
        got = is_real_rooted(p)
        assert got == oracles.is_real_rooted_oracle(p), p
        verdicts[got] += 1
    assert verdicts[True] > len(built) and verdicts[False] > 100


def test_kruskal_katona():
    assert kruskal_katona_check([1])
    assert kruskal_katona_check([1, 3, 3, 1])
    assert kruskal_katona_check([1, 4, 6, 4, 1])
    assert kruskal_katona_check([1, 94, 423])
    assert kruskal_katona_check([1, 114, 720, 272])
    assert not kruskal_katona_check([1, 2, 5])
    assert not kruskal_katona_check([1, 3, 4])
    assert not kruskal_katona_check([2, 1])
    assert not kruskal_katona_check([1, -1])
    assert not kruskal_katona_check([])


def test_g_vector_report():
    r = g_vector_report([1, 4, 1])
    assert r["g"] == (1, 3)
    assert r["g2_bound_ok"] and r["balanced_bound_ok"]
    assert r["gamma"] == (1, 2)
    r = g_vector_report([1, 26, 66, 26, 1])
    assert r["g"] == (1, 25, 40)
    assert r["gamma"] == (1, 22, 16)
    assert r["g2_bound_ok"] and r["balanced_bound_ok"]
    r = g_vector_report([1, 2])  # not palindromic: no γ data
    assert r["gamma"] is None


def test_shape_predicates():
    assert is_unimodal([1, 2, 2, 1]) and is_log_concave([1, 2, 2, 1])
    assert no_internal_zeros([1, 2, 2, 1])
    assert not is_unimodal([1, 0, 2])
    assert not no_internal_zeros([1, 0, 2])
    assert not is_log_concave([1, 0, 2])
    assert is_unimodal([2, 1])
    assert is_unimodal([0, 0, 1, 5, 2, 0])
    assert no_internal_zeros([0, 0, 1, 5, 2])
    assert is_log_concave([])


@given(p=st.lists(st.integers(0, 30), min_size=1, max_size=8))
def test_log_concave_positive_implies_unimodal(p):
    if is_log_concave(p) and no_internal_zeros(p):
        assert is_unimodal(p)


def test_small_helpers():
    assert binom_poly(3) == [1, 3, 3, 1]
    assert binom_poly(0) == [1]
    assert trange(1, 3) == [0, 1, 1, 1]
    assert trange(2, 1) == []
    assert normalize([1, 0, 2, 0, 0]) == [1, 0, 2]
    assert padd([1, 2], [0, 1, 1]) == [1, 3, 1]
    assert pmul([1, 1], [1, 1]) == [1, 2, 1]
    assert pmul([], [1, 2]) == []


def test_poly_diagnostics():
    d = poly_diagnostics([1, 4, 1])
    assert d == {
        "palindromic": True,
        "unimodal": True,
        "log_concave": True,
        "no_internal_zeros": True,
        "gamma_positive": True,
        "real_rooted": True,
    }
    d = poly_diagnostics([1, 2])
    assert d["palindromic"] is False and d["gamma_positive"] is None
