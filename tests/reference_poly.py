"""Reference polynomial routines for the tests: plain Horner evaluation
over ints or Fractions, against which the integer sign kernel is checked;
the first non-root among `dyadic_points` by fresh sign tests; and root
isolation written as two routines, a left-first recursion for every root
and a descent into the half that holds the largest, against which the
one lazy bisection of `polynomials` is checked; and the Sturm chain and
the gcd written as two pseudo-remainder loops, against which the one
remainder sequence of `polynomials` is checked; and two exact tests on
top roots, against which the one comparison of certified top roots in
`polynomials._compare` is checked: the order of two top roots from the top
root of their product, and the equality of a top root with the closed
form's from a common root of the two polynomials, with the closed form's
polynomial in z summed term by term."""

import math
from fractions import Fraction
from functools import partial
from typing import Sequence

from hypertree_spectra import polynomials as poly


def evaluate(p: Sequence, x):
    """Horner evaluation; exact when x is an int or Fraction."""
    acc = 0
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def dyadic_points(a, b):
    """The points of (a, b) at odd multiples of (b - a) / 2^k, k = 1, 2, ..."""
    a, b = Fraction(a), Fraction(b)
    denom = 2
    while True:
        for num in range(1, denom, 2):
            yield a + (b - a) * Fraction(num, denom)
        denom *= 2


def pick_nonroot(polys: list[Sequence], a: Fraction, b: Fraction) -> Fraction:
    """The first of `dyadic_points(a, b)` where none of the polynomials vanish."""
    return next(x for x in dyadic_points(a, b) if all(poly.sign_at(p, x) != 0 for p in polys))


def isolate_real_roots(p: Sequence, lo=None, hi=None, evaluate=None) -> list[tuple]:
    """Markers of the roots of p in (lo, hi) in increasing order, by
    left-first recursion on the bisection tree."""
    p = poly.trim(p)
    if len(p) <= 1:
        return []
    out: list[tuple] = []

    def rec(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        if va == vb:
            return
        if va - vb == 1:
            out.append(("interval", a, b))
            return
        l, vl, point, r, vr = _split(a, b, evaluate)
        rec(a, l, va, vl)
        if point is not None:
            out.append(("point", point))
        rec(r, b, vr, vb)

    lo, hi, evaluate, va, vb = _isolation_start(p, lo, hi, evaluate)
    rec(lo, hi, va, vb)
    return out


def isolate_top_root(p: Sequence, lo=None, hi=None, evaluate=None) -> tuple | None:
    """The last marker of `isolate_real_roots`, or None, by descending only
    into the half that holds the largest root."""
    p = poly.trim(p)
    if len(p) <= 1:
        return None
    a, b, evaluate, va, vb = _isolation_start(p, lo, hi, evaluate)
    while va != vb:
        if va - vb == 1:
            return ("interval", a, b)
        l, vl, point, r, vr = _split(a, b, evaluate)
        if vr != vb:
            a, va = r, vr
        elif point is not None:
            return ("point", point)
        else:
            b, vb = l, vl
    return None


def _isolation_start(p, lo, hi, evaluate) -> tuple:
    """(lo, hi, evaluate, va, vb): the ends, by default +-(Cauchy bound + 1),
    the evaluation, by default on p's Sturm chain, and the sign variations
    at the ends, which must not be roots."""
    bound = poly.cauchy_bound(p) + 1 if lo is None or hi is None else None
    lo = Fraction(lo) if lo is not None else -bound
    hi = Fraction(hi) if hi is not None else bound
    evaluate = evaluate or partial(poly._variations, poly.sturm_chain(p))
    (sa, va), (sb, vb) = evaluate(lo), evaluate(hi)
    if not (sa and sb):
        raise ValueError("isolation endpoints must not be roots")
    return lo, hi, evaluate, va, vb


def _split(a: Fraction, b: Fraction, evaluate) -> tuple:
    """Halve (a, b) at its midpoint: (l, vl, point, r, vr), the halves being
    (a, l) and (r, b); a midpoint that is a root comes back as `point`,
    widened into an (l, r) holding no other root."""
    mid = (a + b) / 2
    sm, vm = evaluate(mid)
    if sm:
        return mid, vm, None, mid, vm
    eps = (b - a) / 4
    while True:
        l, r = mid - eps, mid + eps
        (sl, vl), (sr, vr) = evaluate(l), evaluate(r)
        if sl and sr and vl - vr == 1:
            return l, vl, mid, r, vr
        eps /= 2


def _content_free(p: Sequence) -> list:
    g = math.gcd(*p)
    return [c // g for c in p]


def sturm_chain(p: Sequence) -> list:
    """p, p', -prem of the last two, ..., each scaled to coprime integers,
    until a zero remainder or a constant element."""
    p = _content_free(poly.trim(p))
    if len(p) <= 1:
        return [p]
    chain = [p, _content_free(poly.derivative(p))]
    while len(chain[-1]) > 1:
        rem = poly._prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_content_free(poly.neg(rem)))
    return chain


def poly_gcd(p: Sequence, q: Sequence) -> list:
    """Primitive gcd by pseudo-remainders run to a zero remainder."""
    a, b = _content_free(poly.trim(p)), _content_free(poly.trim(q))
    while b:
        a, b = b, _content_free(poly._prem(a, b))
    return poly.primitive(a)


def compare_top_roots(p: Sequence, q: Sequence) -> int:
    """Sign of (largest real root of p) - (largest real root of q), both
    real: the top root of p*q, isolated once, is the larger of the two,
    so which of p and q vanish there gives the verdict."""
    top = poly.isolate_top_root(poly.mul(p, q))
    if top is None:
        raise ValueError("p and q need a real root")
    if top[0] == "point":
        at_p, at_q = (poly.sign_at(f, top[1]) == 0 for f in (p, q))
    else:
        at_p, at_q = (poly.count_real_roots(poly.sturm_chain(f), *top[1:]) > 0 for f in (p, q))
    return at_p - at_q


def matches_bound(z_poly: Sequence, bracket: tuple, G: list, alpha_bracket: tuple) -> bool:
    """Whether the top root of z_poly in `bracket` equals 1/(1 - alpha0),
    alpha0 the root of G in `alpha_bracket`: whether gcd(z_poly, B), for
    B(z) = z^deg(G) G(1 - 1/z), has a root in both brackets, the second
    mapped by x -> 1/(1 - x)."""
    g = poly.poly_gcd(z_poly, bound_poly(G))
    lo = max(bracket[0], 1 / (1 - alpha_bracket[0]))
    hi = min(bracket[1], 1 / (1 - alpha_bracket[1]))
    if lo == hi:
        return poly.sign_at(g, lo) == 0
    return lo < hi and poly.count_real_roots(poly.sturm_chain(g), lo, hi) > 0


def bound_poly(G: list) -> list:
    """B(z) = z^deg(G) G(1 - 1/z), summed term by term."""
    B, power = [], [1]
    for i, c in enumerate(G):  # c (z - 1)^i z^(deg G - i)
        B = poly.add(B, poly.mul_xpow([c * x for x in power], len(G) - 1 - i))
        power = poly.mul(power, [-1, 1])
    return B
