"""The integer root kernel against plain references.

`sign_at` against `evaluate` over Fractions, sign bisection in
`refine_isolating` against bisection on Sturm counts, and the doubles
handed out by `_nearest_top_root` (behind polyroot and both closed-form
bounds) and its final brackets against exact Sturm counts around them.
"""

import math
import random
from fractions import Fraction

from hypertree_spectra import (
    InfeasibleParameters,
    disjoint_union,
    enumerate_hypertrees,
    extremal_params,
    matching_counts,
    perfect_matching_bound,
    rho_bound,
    spectral_radius_polyroot,
)
from hypertree_spectra import polynomials as poly
from hypertree_spectra.constructions import _cleared_bound_poly

from conftest import path_graph
from reference_poly import evaluate


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
        assert poly.sign_at(p, x) == _sign(evaluate(p, x))
    assert poly.sign_at([-4, 0, 1], 2) == 0
    assert poly.sign_at([-4, 0, 1], Fraction(-5, 2)) == 1
    assert poly.sign_at([], Fraction(1, 3)) == 0


def _sturm_bisection(p, a, b, width):
    """Reference: halve while counting roots over p's whole Sturm chain."""
    chain = poly.sturm_chain(p)
    while b - a > width:
        mid = (a + b) / 2
        if evaluate(p, mid) == 0:
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
                    assert evaluate(G, a) == a**s * (1 - a) * g


def _assert_nearest_double(p, x, hi=None):
    """x is the double nearest the largest real root of p below hi: the
    reals that round to x (halfway to each neighbouring double) hold a
    root of p and none lies between them and hi.  Exact Sturm counts."""
    chain = poly.sturm_chain(p)
    top = Fraction(hi) if hi is not None else poly.cauchy_bound(p) + 1
    below = (Fraction(x) + Fraction(math.nextafter(x, -math.inf))) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    assert poly.sign_at(p, below) != 0 and poly.sign_at(p, above) != 0
    assert above < top
    assert poly.count_real_roots(chain, below, above) >= 1
    assert poly.count_real_roots(chain, above, top) == 0


def _assert_bracket(p, top):
    """The final bracket holds the top root and no other root of p: (x, x)
    is the top root itself, an open (a, b) has nonroot ends, one root
    inside and none above; the double handed out lies between its ends."""
    x, _, (a, b) = top
    assert float(a) <= x <= float(b)
    if a == b:  # a root, inside the last isolating marker
        last = poly.isolate_real_roots(p)[-1]
        assert poly.sign_at(p, a) == 0 and last[1] <= a <= last[-1]
    else:
        chain = poly.sturm_chain(p)
        assert poly.sign_at(p, a) != 0 and poly.sign_at(p, b) != 0
        assert poly.count_real_roots(chain, a, b) == 1
        assert poly.count_real_roots(chain, b, poly.cauchy_bound(p) + 1) == 0


def test_nearest_double_on_planted_roots():
    rng = random.Random(8)
    for _ in range(150):
        p = [rng.randint(-20, 20) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 20)]
        for _ in range(rng.randint(1, 3)):
            root = [-rng.randint(-60, 60), rng.randint(1, 12)]  # d z - n
            for _ in range(rng.randint(1, 3)):
                p = poly.mul(p, root)
        top = poly._nearest_top_root(p)
        if top is None:
            assert poly.isolate_real_roots(p) == []
        else:
            _assert_nearest_double(p, top[0])
            _assert_bracket(p, top)


def test_nearest_double_on_matching_polynomials():
    polys, doubles = _corpus()
    for p in polys + doubles:
        top = poly._nearest_top_root(p)
        _assert_nearest_double(p, top[0])
        _assert_bracket(p, top)


def test_bounds_are_nearest_doubles():
    for r in range(2, 6):
        for m in range(1, 13):
            for k in range(1, m + 1):
                ep = extremal_params(m, k, r)
                if not ep.feasible or ep.q == ep.s == ep.l == 0:
                    continue
                # G keeps its roots at 0; the cell around alpha0 lies above them
                G = _cleared_bound_poly(r, ep.q, ep.s, ep.l)
                _assert_nearest_double(G, rho_bound(m, k, r).alpha0, hi=1)
    cases = 0
    for r in range(2, 7):
        for m in range(2, 61):
            try:
                alpha0 = perfect_matching_bound(m, r).alpha0
            except InfeasibleParameters:
                continue
            # r a^r - (m-1)(1-a)
            _assert_nearest_double(poly.sub(poly.mul_xpow([r], r), [m - 1, 1 - m]), alpha0, hi=1)
            cases += 1
    assert cases > 50


def test_polyroot_reads_nearest_double():
    """polyroot and the bounds share one kernel: rho^r is the double nearest
    the top root of p(z), repeated roots (doubled trees) included."""
    trees = [H for r, m_max in ((2, 8), (3, 6), (4, 5)) for m in range(1, m_max + 1)
             for H in enumerate_hypertrees(m, r)]
    doubled = [disjoint_union(H, H) for H in trees[::5]]
    for H in trees + doubled:
        p = _z_poly(H)
        z = poly._nearest_top_root(p)[0]
        assert spectral_radius_polyroot(H).rho == z ** (1.0 / H.r)
        _assert_nearest_double(p, z)
    # P4 + P4: the golden ratio's double, though its square is a double root
    assert spectral_radius_polyroot(disjoint_union(path_graph(4), path_graph(4))).rho == 1.618033988749895


def test_root_halfway_between_doubles():
    # (2^53 z - num)(3z + 1): the top root num / 2^53 lies exactly halfway
    # between two doubles, and its isolating interval is not dyadic, so no
    # bisection midpoint ever lands on it
    ulp = 2**-52  # spacing of the doubles in [1, 2)
    for num, lower, upper, expected in (
        (2**53 + 1, 1.0, 1.0 + ulp, 1.0),
        (2**53 + 3, 1.0 + ulp, 1.0 + 2 * ulp, 1.0 + 2 * ulp),
    ):
        assert math.nextafter(lower, 2.0) == upper
        assert Fraction(num, 2**53) == (Fraction(lower) + Fraction(upper)) / 2
        p = poly.mul([-num, 2**53], [1, 3])
        marker = poly.isolate_real_roots(p)[-1]
        assert marker[0] == "interval"
        assert any(d & (d - 1) for d in (marker[1].denominator, marker[2].denominator))
        # rounded half to even, as float() rounds the exact rational
        assert poly._nearest_top_root(p)[0] == float(Fraction(num, 2**53)) == expected


def test_isolation_evaluates_each_point_once(monkeypatch):
    seen = []
    variations = poly._variations

    def counted(chain, x):
        seen.append(Fraction(x))
        return variations(chain, x)

    monkeypatch.setattr(poly, "_variations", counted)
    polys, doubles = _corpus()
    # z^2 (z - 3)(2z + 1): the first midpoint, 0, is a root
    polys.append(poly.mul(poly.mul([0, 0, 1], [-3, 1]), [1, 2]))
    for p in polys + doubles:
        seen.clear()
        markers = poly.isolate_real_roots(p)
        assert len(markers) >= 1
        assert len(seen) == len(set(seen)), p
