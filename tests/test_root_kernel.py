"""The integer root kernel against plain references.

`sign_at` against `evaluate` over Fractions, sign bisection in
`refine_isolating` against bisection on Sturm counts, and the exact
certificate behind `rho_bound`.
"""

import random
from fractions import Fraction

import pytest

from hypertree_spectra import (
    BracketingError,
    disjoint_union,
    enumerate_hypertrees,
    extremal_params,
    matching_counts,
)
from hypertree_spectra import polynomials as poly
from hypertree_spectra.constructions import _certify_maximum_root, _cleared_bound_poly

from conftest import path_graph


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def test_sign_at_matches_fraction_horner():
    rng = random.Random(3)
    for _ in range(400):
        p = [rng.randint(-50, 50) for _ in range(rng.randint(1, 12))]
        x = Fraction(rng.randint(-300, 300), rng.randint(1, 64))
        if rng.random() < 0.3:
            # plant x as a root, so zero signs are covered too
            p = poly.mul(p, [-x.numerator, x.denominator])
        assert poly.sign_at(p, x) == _sign(poly.evaluate(p, x))
    assert poly.sign_at([-4, 0, 1], 2) == 0
    assert poly.sign_at([-4, 0, 1], Fraction(-5, 2)) == 1
    assert poly.sign_at([], Fraction(1, 3)) == 0


def _sturm_bisection(p, a, b, width):
    """Reference: halve while counting roots over p's whole Sturm chain."""
    chain = poly.sturm_chain(p)
    while b - a > width:
        mid = (a + b) / 2
        if poly.evaluate(p, mid) == 0:
            return ("point", mid)
        if poly.count_real_roots(chain, a, mid) == 1:
            b = mid
        else:
            a = mid
    return ("interval", a, b)


def _z_poly(H):
    return matching_counts(H).z_poly()


def _corpus():
    trees = [H for m in range(1, 7) for H in enumerate_hypertrees(m, 2)]
    trees += [H for m in range(1, 5) for H in enumerate_hypertrees(m, 3)]
    polys = [_z_poly(H) for H in trees if H.m > 1]
    # equal components: every root of p is double, the top one included
    doubles = [_z_poly(disjoint_union(H, H)) for H in trees[3::4]]
    return polys, doubles


def test_refine_matches_sturm_count_bisection():
    polys, doubles = _corpus()
    assert doubles and all(poly.degree(poly.poly_gcd(p, poly.derivative(p))) >= 1 for p in doubles)
    for p in polys + doubles:
        for marker in poly.isolate_real_roots(p):
            if marker[0] != "interval":
                continue
            for width in (Fraction(1, 10**3), Fraction(1, 10**14)):
                expected = _sturm_bisection(p, marker[1], marker[2], width)
                assert poly.refine_isolating(p, marker[1], marker[2], width) == expected


def test_refine_collapses_on_rational_root():
    # the path on three vertices: p(z) = z - 2, isolated in (-4, 4); the
    # second midpoint is the root
    p = _z_poly(path_graph(3))
    assert p == [-2, 1]
    (marker,) = poly.isolate_real_roots(p)
    assert marker == ("interval", Fraction(-4), Fraction(4))
    width = Fraction(1, 10**14)
    refined = poly.refine_isolating(p, marker[1], marker[2], width)
    assert refined == ("point", Fraction(2))
    assert refined == _sturm_bisection(p, marker[1], marker[2], width)
    # two disjoint edges: p(z) = (z - 1)^2, a double root met by the
    # second midpoint of (-4, 4)
    p2 = _z_poly(disjoint_union(path_graph(2), path_graph(2)))
    assert p2 == [1, -2, 1]
    (marker,) = poly.isolate_real_roots(p2)
    refined = poly.refine_isolating(p2, marker[1], marker[2], width)
    assert refined == ("point", Fraction(1))
    assert refined == _sturm_bisection(p2, marker[1], marker[2], width)


def test_cleared_bound_poly_is_g_times_positive_factor():
    rng = random.Random(5)
    for r in range(2, 6):
        for m in range(1, 9):
            for k in range(1, m + 1):
                ep = extremal_params(m, k, r)
                if not ep.feasible:
                    continue
                q, s, l = ep.q, ep.s, ep.l
                G = _cleared_bound_poly(r, q, s, l)
                assert len(G) - 1 <= r + s
                for _ in range(5):
                    a = Fraction(rng.randint(1, 999), 1000)
                    g = a ** (r - 1) * (1 / (1 - a) - a ** (-s) - l) - q
                    assert poly.evaluate(G, a) == a**s * (1 - a) * g


def test_certificate_rejects_larger_root():
    alpha0 = 0.5
    # roots 4/5 and 9/10 above alpha0, positive at c and at 1
    G = poly.mul([-9, 10], [-8, 10])
    with pytest.raises(BracketingError) as info:
        _certify_maximum_root(G, alpha0)
    points = [x for x, _ in info.value.trace]
    assert points[0] == pytest.approx(0.50005)
    assert len(points) == 3 and all(0.5 < x < 1 for x in points)
    # a double root touches zero without a sign change
    with pytest.raises(BracketingError):
        _certify_maximum_root(poly.mul([-9, 10], [-9, 10]), alpha0)
    # negative just above alpha0
    with pytest.raises(BracketingError) as info:
        _certify_maximum_root([-9, 10], alpha0)
    assert len(info.value.trace) == 1 and info.value.trace[0][1] < 0
    # a root below alpha0 only: certified
    _certify_maximum_root([-2, 10], alpha0)
