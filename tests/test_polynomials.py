"""Exact polynomial arithmetic and root isolation."""

import math
import random
import time
from fractions import Fraction

import pytest

from hypertree_spectra import polynomials as poly
from reference_poly import evaluate, pick_nonroot
from sparse_poly import sp_add, sp_equal, sp_monomial, sp_mul, sp_pow, sp_sub


def test_dense_basics():
    p = [1, 0, -3, 2]  # 1 - 3x^2 + 2x^3
    assert poly.degree(p) == 3
    assert evaluate(p, 2) == 1 - 12 + 16
    assert poly.add([1, 2], [0, -2, 5]) == [1, 0, 5]
    assert poly.sub([1, 2], [1, 2]) == []
    assert poly.mul([1, 1], [1, -1]) == [1, 0, -1]
    assert poly.mul_xpow([3, 1], 2) == [0, 0, 3, 1]
    assert poly.derivative([5, 1, 4]) == [1, 8]


def _long_division(p, q):
    """Reference: Euclidean division over the rationals, p = quo*q + rem."""
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    for shift in reversed(range(len(quo))):
        quo[shift] = rem[shift + len(q) - 1] / q[-1]
        for i, c in enumerate(q):
            rem[shift + i] -= quo[shift] * c
    return poly.trim(quo), poly.trim(rem)


def test_exact_quotient():
    # (x^2 - 1) = (x + 1)(x - 1)
    assert poly.exact_quotient([-1, 0, 1], [1, 1]) == [-1, 1]
    # x^2 + 1 = (x - 1)(x + 1) + 2: not exact
    assert _long_division([1, 0, 1], [1, 1])[1] == [2]
    with pytest.raises(ValueError):
        poly.exact_quotient([1, 0, 1], [1, 1])
    rng = random.Random(4)
    for _ in range(300):
        q = poly.primitive([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.choice((-3, -1, 2, 5))])
        if rng.random() < 0.5:
            q = poly.neg(q)  # content 1 with either sign
        f = [rng.randint(-40, 40) for _ in range(rng.randint(0, 7))]
        quo = poly.exact_quotient(poly.mul(f, q), q)
        assert all(isinstance(c, int) for c in quo)
        assert quo == poly.trim(f) == _long_division(poly.mul(f, q), q)[0]
        assert _long_division(poly.mul(f, q), q)[1] == []


def test_poly_gcd():
    # gcd((x-1)^2 (x+2), (x-1)(x+3)) = x - 1
    a = poly.mul(poly.mul([-1, 1], [-1, 1]), [2, 1])
    b = poly.mul([-1, 1], [3, 1])
    assert poly.poly_gcd(a, b) == [-1, 1]
    assert poly.poly_gcd([2, 2], [4]) == [1]


def test_count_real_roots():
    # x^2 - 3x + 1: roots (3 +- sqrt5)/2 ~ 0.382, 2.618
    p = [1, -3, 1]
    chain = poly.sturm_chain(p)
    assert poly.count_real_roots(chain, Fraction(0), Fraction(3)) == 2
    assert poly.count_real_roots(chain, Fraction(1), Fraction(3)) == 1
    assert poly.count_real_roots(chain, Fraction(3), Fraction(10)) == 0


def test_count_handles_multiple_roots():
    # (x - 1)^2 (x + 2): distinct roots 1 and -2
    p = poly.mul(poly.mul([-1, 1], [-1, 1]), [2, 1])
    chain = poly.sturm_chain(p)
    assert poly.count_real_roots(chain, Fraction(-3), Fraction(3)) == 2


def test_isolate_and_refine():
    p = [1, -3, 1]
    markers = poly.isolate_real_roots(p)
    assert len(markers) == 2
    top = markers[-1]
    assert top[0] == "interval"
    refined = poly.refine_isolating(p, top[1], top[2], Fraction(1, 10**12))
    if refined[0] == "interval":
        mid = float((refined[1] + refined[2]) / 2)
    else:
        mid = float(refined[1])
    assert abs(mid - (3 + 5**0.5) / 2) < 1e-10


def test_isolate_rational_roots_as_points():
    # x(x-2)(x-2): roots 0 and 2, one of them a double root
    p = poly.mul([0, 1], poly.mul([-2, 1], [-2, 1]))
    markers = poly.isolate_real_roots(p)
    values = []
    for mk in markers:
        if mk[0] == "point":
            values.append(mk[1])
        else:
            q = poly._square_free(poly.sturm_chain(p))  # 2 is a double root
            refined = poly.refine_isolating(q, mk[1], mk[2], Fraction(1, 10**9))
            values.append(refined[1])
    assert len(values) == 2
    assert min(abs(v - 0) for v in values) < Fraction(1, 10**8)
    assert min(abs(v - 2) for v in values) < Fraction(1, 10**8)


def test_endpoints_at_roots_rejected():
    # z^2 - 4: the chain's first element vanishes at 2 and -2
    p = [-4, 0, 1]
    chain = poly.sturm_chain(p)
    for a, b in ((2, 5), (-5, -2), (-2, 2)):
        with pytest.raises(ValueError):
            poly.isolate_real_roots(p, a, b)
        with pytest.raises(ValueError):
            poly.count_real_roots(chain, a, b)
    assert poly.isolate_real_roots(p, 1, 5) == [("interval", Fraction(1), Fraction(5))]
    assert poly.count_real_roots(chain, 1, 5) == 1


def test_largest_real_root_float():
    assert abs(poly._nearest_top_root([1, -3, 1])[0] - (3 + 5**0.5) / 2) < 1e-12
    assert abs(poly._nearest_top_root([-2, 1])[0] - 2.0) < 1e-15
    assert poly._nearest_top_root([1]) is None
    # no real roots
    assert poly._nearest_top_root([1, 0, 1]) is None


def test_pick_nonroot_avoids_roots():
    p = [0, 1]  # root at 0
    pt = pick_nonroot([p], Fraction(-1), Fraction(1))
    assert evaluate(p, pt) != 0
    assert Fraction(-1) < pt < Fraction(1)


def test_odd_part():
    """Seeded products of distinct integer linear and quadratic factors, each
    to a power 1..5, give from their Sturm chains the primitive product of
    the odd-power factors; a root of multiplicity 601 takes one loop, chain
    included, well under a second."""
    rng = random.Random(27)
    for _ in range(60):
        factors = set()
        while len(factors) < rng.randint(1, 4):
            if rng.random() < 0.5:  # primitive, so distinct ones have distinct roots
                n, d = rng.randint(-9, 9), rng.randint(1, 5)
                if math.gcd(n, d) == 1:
                    factors.add((n, d))
            else:  # z^2 + b z + a with b^2 < 4a: no real root
                a, b = rng.randint(1, 9), rng.randint(-5, 5)
                if b * b < 4 * a:
                    factors.add((a, b, 1))
        p, odd = [rng.choice((-6, -1, 2, 35))], [1]
        for f in factors:
            e = rng.randint(1, 5)
            for _ in range(e):
                p = poly.mul(p, f)
            if e % 2:
                odd = poly.mul(odd, f)
        assert poly.odd_part(poly.sturm_chain(p)) == poly.primitive(odd), (factors, p)
    assert poly.odd_part(poly.sturm_chain([5])) == [1]
    p = [1]
    for _ in range(601):
        p = poly.mul(p, [-3, 2])
    p = poly.mul(p, [1, 0, 1])
    start = time.perf_counter()
    assert poly.odd_part(poly.sturm_chain(p)) == poly.mul([-3, 2], [1, 0, 1])
    assert time.perf_counter() - start < 1


def test_sparse_ops():
    a = sp_monomial(4)  # x^4
    b = {2: -3, 0: 1}
    assert sp_add(a, b) == {4: 1, 2: -3, 0: 1}
    assert sp_sub(a, a) == {}
    assert sp_mul({1: 1, 0: 1}, {1: 1, 0: -1}) == {2: 1, 0: -1}
    assert sp_pow({1: 1, 0: -1}, 2) == {2: 1, 1: -2, 0: 1}
    assert sp_equal({0: 0, 3: 2}, {3: 2})


@pytest.mark.parametrize("x", [Fraction(0), Fraction(3), Fraction(-2), Fraction(7, 4), Fraction(-5, 12)])
def test_taylor_shift(x):
    """d^deg p((n + y)/d), expanded by hand: sum c_i (n + y)^i d^(deg - i)."""
    rng = random.Random(11)
    for deg in range(6):
        p = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-3, 1, 2))]
        n, d = x.numerator, x.denominator
        expected, power = [], [1]
        for i, c in enumerate(p):
            expected = poly.add(expected, [c * d ** (deg - i) * a for a in power])
            power = poly.mul(power, [n, 1])
        assert poly.trim(poly.taylor_shift(p, x)) == expected
