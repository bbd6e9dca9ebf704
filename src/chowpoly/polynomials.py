"""Exact integer polynomial helpers: γ-expansion, real-rootedness from one
Sturm sequence of p itself (no squarefree pass), Kruskal-Katona cascade,
and h/g-vector diagnostics.

Polynomials are lists of ints, ascending degree, trailing zeros trimmed.
"""

from fractions import Fraction
from math import comb

from .errors import NotPalindromic


def normalize(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return normalize(out)


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return normalize(out)


def binom_poly(k):
    """(1+t)^k."""
    return [comb(k, i) for i in range(k + 1)]


def trange(lo, hi):
    """t^lo + t^(lo+1) + ... + t^hi; empty range gives the zero polynomial."""
    if hi < lo:
        return []
    return [0] * lo + [1] * (hi - lo + 1)


def is_palindromic(p):
    p = normalize(p)
    return p == p[::-1]


def gamma_expansion(p):
    """Coefficients of p in the basis t^i (1+t)^(d-2i), i = 0..floor(d/2)."""
    p = normalize(p)
    if not p:
        return []
    if p != p[::-1]:
        raise NotPalindromic(p)
    d = len(p) - 1
    rem = list(p)
    gammas = []
    for i in range(d // 2 + 1):
        g = rem[i] if i < len(rem) else 0
        gammas.append(g)
        if g:
            term = pmul([0] * i + [g], binom_poly(d - 2 * i))
            rem = [a - b for a, b in zip(rem + [0] * len(term), term + [0] * len(rem))]
    assert not normalize(rem), "base change must terminate exactly"
    return gammas


def gamma_to_poly(gammas, d):
    out = []
    for i, g in enumerate(gammas):
        out = padd(out, pmul([0] * i + [g], binom_poly(d - 2 * i)))
    return out


def is_gamma_positive(p):
    try:
        return all(g >= 0 for g in gamma_expansion(p))
    except NotPalindromic:
        return False


def is_unimodal(p):
    p = normalize(p)
    if not p:
        return True
    i = 0
    while i + 1 < len(p) and p[i] <= p[i + 1]:
        i += 1
    while i + 1 < len(p) and p[i] >= p[i + 1]:
        i += 1
    return i == len(p) - 1


def no_internal_zeros(p):
    p = normalize(p)
    inside = False
    seen_zero = False
    for c in p:
        if c:
            if seen_zero and inside:
                return False
            inside = True
        elif inside:
            seen_zero = True
    return True


def is_log_concave(p):
    p = normalize(p)
    return all(
        p[i] * p[i] >= p[i - 1] * p[i + 1] for i in range(1, len(p) - 1)
    )


# ---------------------------------------------------------------------------
# exact real-rootedness from one Sturm sequence over Fraction


def _rem(a, b):
    """The remainder of a on division by the nonzero b, over Fraction,
    trimmed."""
    a = [Fraction(c) for c in a]
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        for i, bc in enumerate(b):
            a[i + k] -= c * bc
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _sign_variations_at_inf(chain, sign):
    """Sign variation count as t -> sign * infinity."""
    signs = []
    for p in chain:
        if not p:
            continue
        s = 1 if p[-1] > 0 else -1
        if sign < 0 and (len(p) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def is_real_rooted(p):
    """All complex roots real, checked exactly on the Sturm sequence of p.

    The sequence is p_0 = p, p_1 = p′ and p_(i+1) = −rem(p_(i−1), p_i), down
    to its last nonzero term g.  Up to signs it is Euclid's on p and p′, so
    g is gcd(p, p′) up to a constant, and deg p − deg g counts the distinct
    complex roots of p.  Each p_i is g·q_i, and the q_i obey the same
    recursion from q_0 = p/g and q_1 = p′/g, so they are a Sturm sequence
    of the squarefree q_0:
    - consecutive q_i are coprime, and q_(i−1) = −q_(i+1) where q_i = 0;
    - at a root x of p of multiplicity m, p = (t − x)^m·u with u(x) ≠ 0,
      and g has the factor (t − x)^(m−1) exactly, so
      q_0·q_1 = p·p′/g² = (t − x)·(m·u² + (t − x)·u·u′)/(g/(t − x)^(m−1))²
      has the sign of t − x near x.
    Sturm's theorem then counts the distinct real roots of q_0, which are
    those of p, as the sign changes of the q_i at −∞ less those at +∞.
    Multiplying every term by g keeps each sign change where g ≠ 0, so at
    ±∞, and the count is read off the p_i.  So p is real-rooted iff the
    count is deg p − deg g; roots at 0 and repeated roots need no pass of
    their own."""
    p = normalize(p)
    chain = [p, _deriv(p)]
    while chain[-1]:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    chain.pop()
    roots = _sign_variations_at_inf(chain, -1) - _sign_variations_at_inf(chain, +1)
    return roots == len(p) - len(chain[-1])


def poly_diagnostics(p):
    p = normalize(p)
    palin = is_palindromic(p)
    return {
        "palindromic": palin,
        "unimodal": is_unimodal(p),
        "log_concave": is_log_concave(p),
        "no_internal_zeros": no_internal_zeros(p),
        "gamma_positive": is_gamma_positive(p) if palin else None,
        "real_rooted": is_real_rooted(p),
    }


# ---------------------------------------------------------------------------
# f-vector numerology


def _macaulay_bound(value, k):
    """Upper bound on f_{k+1} given f_k = value, via the cascade
    representation value = C(a_k,k) + C(a_{k-1},k-1) + ...  with
    a_k > a_{k-1} > ... >= j >= 1."""
    bound = 0
    j = k
    while value > 0 and j >= 1:
        a = j
        while comb(a + 1, j) <= value:
            a += 1
        value -= comb(a, j)
        bound += comb(a, j + 1)
        j -= 1
    assert value == 0
    return bound


def kruskal_katona_check(f):
    """Whether f (cardinality-indexed, f_0 = 1) is the f-vector of some
    simplicial complex."""
    f = list(f)
    if not f or f[0] != 1 or any(c < 0 for c in f):
        return False
    for k in range(1, len(f) - 1):
        if f[k + 1] > _macaulay_bound(f[k], k):
            return False
    return True


def g_vector_report(p):
    """g-vector of a (palindromic) h-polynomial with the small necessary
    checks: g_2 <= C(g_1, 2) and, when the γ-vector exists, 4γ_2 <= γ_1²."""
    h = normalize(p)
    d = len(h) - 1 if h else 0
    g = [h[0] if h else 0]
    for i in range(1, d // 2 + 1):
        g.append(h[i] - h[i - 1])
    g2_ok = None
    if len(g) >= 2:
        g2 = g[2] if len(g) >= 3 else 0
        g2_ok = g[1] >= 0 and g2 <= comb(max(g[1], 0), 2)
    balanced_ok = None
    gammas = None
    if is_palindromic(h):
        gammas = gamma_expansion(h)
        if len(gammas) >= 2:
            gamma2 = gammas[2] if len(gammas) >= 3 else 0
            balanced_ok = 4 * gamma2 <= gammas[1] ** 2
    return {
        "g": tuple(g),
        "g2_bound_ok": g2_ok,
        "balanced_bound_ok": balanced_ok,
        "gamma": tuple(gammas) if gammas is not None else None,
    }
