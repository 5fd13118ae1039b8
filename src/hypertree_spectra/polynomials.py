"""Exact univariate polynomial arithmetic and real-root machinery.

Dense polynomials are lists of coefficients in ascending power order
([c0, c1, c2] means c0 + c1*x + c2*x**2) over Python ints or Fractions,
so all arithmetic is exact.  Sparse polynomials (dicts mapping exponent
to integer coefficient) cover the wide-degree bookkeeping of matching
polynomials, where only a few exponents are populated.

Real roots are handled with Sturm sequences over exact rationals: root
counts on intervals are exact, isolating intervals are refined by
rational bisection, and floats are produced only at the very end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Dense = list
Sparse = dict

# isolating-interval width at which a top root is handed over to floats
_ROOT_WIDTH = Fraction(1, 10**14)

# ---------------------------------------------------------------------------
# dense arithmetic
# ---------------------------------------------------------------------------


def trim(p: Sequence) -> Dense:
    """Drop trailing zero coefficients; the zero polynomial becomes []."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Sequence) -> int:
    """Degree of p, with the convention deg 0 = -1."""
    return len(trim(p)) - 1


def evaluate(p: Sequence, x):
    """Horner evaluation; exact when x is an int or Fraction."""
    acc = 0
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def add(p: Sequence, q: Sequence) -> Dense:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p: Sequence) -> Dense:
    return [-c for c in p]


def sub(p: Sequence, q: Sequence) -> Dense:
    return add(p, neg(q))


def mul(p: Sequence, q: Sequence) -> Dense:
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def mul_xpow(p: Sequence, t: int) -> Dense:
    """Multiply by x**t."""
    p = trim(p)
    return [0] * t + p if p else []


def derivative(p: Sequence) -> Dense:
    return trim([i * c for i, c in enumerate(p)][1:])


def div_rem(p: Sequence, q: Sequence) -> tuple[Dense, Dense]:
    """Euclidean division over the rationals: p = quo*q + rem."""
    q = trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in trim(p)]
    lead = Fraction(q[-1])
    dq = len(q) - 1
    quo = [Fraction(0)] * max(len(rem) - dq, 0)
    while len(rem) - 1 >= dq and rem:
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * Fraction(c)
        rem = trim(rem)
        if not rem:
            break
    return trim(quo), rem


def primitive(p: Sequence) -> Dense:
    """Scale to a primitive integer polynomial with positive leading coefficient."""
    p = trim(p)
    if not p:
        return []
    denom = 1
    for c in p:
        if isinstance(c, Fraction):
            denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def poly_gcd(p: Sequence, q: Sequence) -> Dense:
    """Primitive gcd over the rationals (positive leading coefficient)."""
    a = [Fraction(c) for c in trim(p)]
    b = [Fraction(c) for c in trim(q)]
    while b:
        a, b = b, div_rem(a, b)[1]
    if not a:
        return []
    return primitive(a)


def cauchy_bound(p: Sequence) -> Fraction:
    """Every real root of p has absolute value below this bound."""
    p = trim(p)
    if len(p) <= 1:
        return Fraction(1)
    lead = abs(Fraction(p[-1]))
    return 1 + max(abs(Fraction(c)) / lead for c in p[:-1])


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation
# ---------------------------------------------------------------------------


def sturm_chain(p: Sequence) -> list[Dense]:
    p = [Fraction(c) for c in trim(p)]
    if len(p) <= 1:
        return [p]
    chain = [p, [Fraction(c) for c in derivative(p)]]
    while len(chain[-1]) > 1:
        rem = div_rem(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(neg(rem))
    return chain


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(values) -> int:
    signs = [_sign(v) for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(chain: list[Dense], a, b) -> int:
    """Distinct real roots of chain[0] in (a, b]; endpoints must not be roots."""
    va = _variations(evaluate(f, a) for f in chain)
    vb = _variations(evaluate(f, b) for f in chain)
    return va - vb


def pick_nonroot(polys: list[Sequence], a: Fraction, b: Fraction) -> Fraction:
    """A rational point in (a, b) where none of the given polynomials vanish."""
    a, b = Fraction(a), Fraction(b)
    denom = 2
    while True:
        for num in range(1, denom, 2):
            pt = a + (b - a) * Fraction(num, denom)
            if all(evaluate(p, pt) != 0 for p in polys):
                return pt
        denom *= 2


def isolate_real_roots(p: Sequence, lo=None, hi=None) -> list[tuple]:
    """Isolate the distinct real roots of p in (lo, hi).

    Returns markers in increasing order, each either ("point", q) for an
    exact rational root or ("interval", a, b) for an open interval holding
    exactly one root with p(a) != 0 != p(b).
    """
    p = trim(p)
    if len(p) <= 1:
        return []
    bound = cauchy_bound(p) + 1
    lo = Fraction(lo) if lo is not None else -bound
    hi = Fraction(hi) if hi is not None else bound
    if evaluate(p, lo) == 0 or evaluate(p, hi) == 0:
        raise ValueError("isolation endpoints must not be roots")
    chain = sturm_chain(p)
    out: list[tuple] = []

    def rec(a: Fraction, b: Fraction, cnt: int) -> None:
        if cnt == 0:
            return
        if cnt == 1:
            out.append(("interval", a, b))
            return
        mid = (a + b) / 2
        if evaluate(p, mid) == 0:
            eps = (b - a) / 4
            while True:
                l2, r2 = mid - eps, mid + eps
                if (
                    evaluate(p, l2) != 0
                    and evaluate(p, r2) != 0
                    and count_real_roots(chain, l2, r2) == 1
                ):
                    break
                eps /= 2
            rec(a, l2, count_real_roots(chain, a, l2))
            out.append(("point", mid))
            rec(r2, b, count_real_roots(chain, r2, b))
        else:
            left = count_real_roots(chain, a, mid)
            rec(a, mid, left)
            rec(mid, b, cnt - left)

    rec(lo, hi, count_real_roots(chain, lo, hi))
    return out


def refine_isolating(p: Sequence, a: Fraction, b: Fraction, width: Fraction) -> tuple:
    """Shrink an isolating interval below `width` by count-based bisection.

    Works for roots of any multiplicity (no sign change required).  May
    collapse to a ("point", q) marker when the root is rational.
    """
    chain = sturm_chain(p)
    a, b = Fraction(a), Fraction(b)
    while b - a > width:
        mid = (a + b) / 2
        if evaluate(p, mid) == 0:
            return ("point", mid)
        if count_real_roots(chain, a, mid) == 1:
            b = mid
        else:
            a = mid
    return ("interval", a, b)


def largest_real_root(p: Sequence) -> tuple | None:
    """Marker for the largest real root of p, or None if p has no real root."""
    markers = isolate_real_roots(p)
    return markers[-1] if markers else None


def _top_root(p: Sequence, width: Fraction = _ROOT_WIDTH) -> tuple[float, int] | None:
    """Largest real root as a float, with the number of halvings that bring
    its isolating interval below `width` (0 for an exact rational root).

    Exact isolation, count-based bisection, then one Newton polish that is
    kept only when it stays within the final interval's width.
    """
    marker = largest_real_root(p)
    if marker is None:
        return None
    if marker[0] == "point":
        return float(marker[1]), 0
    halvings = 0
    w = marker[2] - marker[1]
    while w > width:
        w /= 2
        halvings += 1
    marker = refine_isolating(p, marker[1], marker[2], width)
    if marker[0] == "point":
        return float(marker[1]), halvings
    a, b = marker[1], marker[2]
    x = float((a + b) / 2)
    fp = [float(c) for c in trim(p)]
    fd = [float(c) for c in derivative(trim(p))]
    dfx = evaluate(fd, x)
    if dfx != 0.0:
        step = evaluate(fp, x) / dfx
        if abs(step) <= float(b - a):
            x -= step
    return x, halvings


def largest_real_root_float(p: Sequence, width: Fraction = _ROOT_WIDTH) -> float | None:
    """Largest real root as a float: exact isolation, then one Newton polish."""
    top = _top_root(p, width)
    return None if top is None else top[0]


# ---------------------------------------------------------------------------
# sparse (exponent -> integer coefficient) helpers
# ---------------------------------------------------------------------------


def sp_trim(d: Sparse) -> Sparse:
    return {e: c for e, c in d.items() if c != 0}


def sp_monomial(exp: int, coeff: int = 1) -> Sparse:
    return {exp: coeff} if coeff else {}


def sp_add(a: Sparse, b: Sparse) -> Sparse:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return sp_trim(out)


def sp_sub(a: Sparse, b: Sparse) -> Sparse:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
    return sp_trim(out)


def sp_mul(a: Sparse, b: Sparse) -> Sparse:
    out: Sparse = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return sp_trim(out)


def sp_pow(a: Sparse, k: int) -> Sparse:
    out: Sparse = {0: 1}
    for _ in range(k):
        out = sp_mul(out, a)
    return out


def sp_equal(a: Sparse, b: Sparse) -> bool:
    return sp_trim(a) == sp_trim(b)
