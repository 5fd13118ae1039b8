"""The integer root kernel against plain references.

`sign_at` against `evaluate` over Fractions, sign bisection in
`refine_isolating` against bisection on Sturm counts, `isolate_top_root`
against the last marker of `isolate_real_roots`, both against the two
bisection routines of `reference_poly` in markers and in the points they
evaluate, and the doubles handed out by `_nearest_top_root` against
plain exact bisection, with its final brackets checked by exact Sturm
counts around them.  Every top root, polyroot's and both closed-form
bounds', takes one route: a Descartes-certified first bracket, checked
against the Sturm route where it holds, and the Sturm route, halving
from the isolating interval with no float guess, where it falls back.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from hypertree_spectra import (
    Hypergraph,
    InfeasibleParameters,
    disjoint_union,
    enumerate_hypertrees,
    extremal_params,
    matching_counts,
    perfect_matching_bound,
    random_hyperforest,
    random_hypertree,
    rho_bound,
    single_edge,
    spectral_radius_polyroot,
)
from hypertree_spectra import polynomials as poly
from hypertree_spectra.constructions import _cleared_bound_poly
from hypertree_spectra.enumeration import max_edges_guard

from conftest import path_graph
import reference_poly
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
        q = poly._square_free(poly.sturm_chain(p))
        for marker in poly.isolate_real_roots(p):
            if marker[0] != "interval":
                continue
            for width in (Fraction(1, 10**3), Fraction(1, 10**14)):
                expected = _sturm_bisection(p, marker[1], marker[2], width)
                assert poly.refine_isolating(q, marker[1], marker[2], width) == expected


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
    refined = poly.refine_isolating(poly._square_free(poly.sturm_chain(p2)), marker[1], marker[2], width)
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


def _assert_nearest_double(p, x):
    """x is the double nearest the largest real root of p: the reals that
    round to x (halfway to each neighbouring double) hold a root of p and
    none lies above them.  Exact Sturm counts."""
    chain = poly.sturm_chain(p)
    top = poly.cauchy_bound(p) + 1
    below = (Fraction(x) + Fraction(math.nextafter(x, -math.inf))) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    assert poly.sign_at(p, below) != 0 and poly.sign_at(p, above) != 0
    assert above < top
    assert poly.count_real_roots(chain, below, above) >= 1
    assert poly.count_real_roots(chain, above, top) == 0


def _assert_bracket(p, top):
    """The final bracket holds the top root of p and no other root of p:
    (x, x) is the top root itself, an open (a, b) has nonroot ends, one
    root inside and none above it; the double handed out lies between its
    ends."""
    x, _, (a, b) = top
    assert float(a) <= x <= float(b)
    if a == b:  # a root, inside the last isolating marker
        last = poly.isolate_real_roots(p)[-1]
        assert poly.sign_at(p, a) == 0 and last[1] <= a <= last[-1]
    else:
        chain = poly.sturm_chain(p)
        ceiling = poly.cauchy_bound(p) + 1
        assert poly.sign_at(p, a) != 0 and poly.sign_at(p, b) != 0
        assert poly.count_real_roots(chain, a, b) == 1
        assert b < ceiling and poly.count_real_roots(chain, b, ceiling) == 0


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
                # no root of G lies above alpha0, in (0, 1) or past it
                G = _cleared_bound_poly(r, ep.q, ep.s, ep.l)
                _assert_nearest_double(G, rho_bound(m, k, r).alpha0)
    cases = 0
    for r in range(2, 7):
        for m in range(2, 61):
            try:
                alpha0 = perfect_matching_bound(m, r).alpha0
            except InfeasibleParameters:
                continue
            # r a^r - (m-1)(1-a)
            _assert_nearest_double(poly.sub(poly.mul_xpow([r], r), [m - 1, 1 - m]), alpha0)
            cases += 1
    assert cases > 50


def test_bound_takes_the_descartes_route(monkeypatch):
    """The bound reads alpha0 as G's largest real root, with no interval:
    on every feasible triple with r = 2..6 and m <= 30, G has no root in
    [1, Cauchy bound + 1) by Sturm count, alpha0 lies in (0, 1), and
    `rho_bound` builds no Sturm chain."""
    calls = _spy_sturm_chain(monkeypatch)
    cases = 0
    for r in range(2, 7):
        for m in range(2, 31):
            for k in range(1, m + 1):
                ep = extremal_params(m, k, r)
                if not ep.feasible:
                    continue
                calls.clear()
                alpha0 = rho_bound(m, k, r).alpha0
                assert not calls, (m, k, r)
                assert 0 < alpha0 < 1, (m, k, r)
                G = _cleared_bound_poly(r, ep.q, ep.s, ep.l)
                G = G[next(i for i, c in enumerate(G) if c) :]
                ceiling = poly.cauchy_bound(G) + 1
                assert poly.sign_at(G, 1) > 0
                assert poly.count_real_roots(poly.sturm_chain(G), 1, ceiling) == 0, (m, k, r)
                cases += 1
    assert cases > 1000


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


def _planted_poly(rng):
    """A random integer polynomial with a few planted rational roots, some
    of them repeated."""
    p = [rng.randint(-30, 30) for _ in range(rng.randint(0, 6))] + [rng.choice((-1, 1)) * rng.randint(1, 30)]
    for _ in range(rng.randint(0, 3)):
        root = [-rng.randint(-40, 40), rng.randint(1, 9)]  # d z - n
        for _ in range(rng.randint(1, 2)):
            p = poly.mul(p, root)
    return p


def test_isolate_top_root_is_last_marker():
    rng = random.Random(12)
    cases = 0
    for _ in range(2000):
        p = _planted_poly(rng)
        ends = [None, None]
        if rng.random() < 0.5:
            ends = sorted(Fraction(rng.randint(-400, 400), rng.randint(1, 40)) for _ in range(2))
            if ends[0] == ends[1] or not (poly.sign_at(p, ends[0]) and poly.sign_at(p, ends[1])):
                continue
        markers = poly.isolate_real_roots(p, *ends)
        assert poly.isolate_top_root(p, *ends) == (markers[-1] if markers else None), (p, ends)
        cases += 1
    assert cases > 1800


def _guarded_classes():
    """Every hypertree class up to the enumeration guards, r = 2..6."""
    return [H for r in range(2, 7) for m in range(1, max_edges_guard(r) + 1) for H in enumerate_hypertrees(m, r)]


def test_isolate_top_root_on_every_class():
    classes = _guarded_classes()
    assert len(classes) > 300
    for H in classes:
        p = _z_poly(H)
        markers = poly.isolate_real_roots(p)
        assert poly.isolate_top_root(p) == (markers[-1] if markers else None), H.edges


def _spy_sturm_chain(monkeypatch) -> list:
    """The polynomials `poly.sturm_chain` is called on from here on."""
    calls, chain = [], poly.sturm_chain
    monkeypatch.setattr(poly, "sturm_chain", lambda p: calls.append(p) or chain(p))
    return calls


def _seeded_forests():
    """Seeded random hypertrees and two-tree hyperforests with up to 100 edges."""
    rng = random.Random(7)
    forests = []
    for _ in range(30):
        r, m = rng.choice((2, 3, 4)), rng.randint(2, 100)
        k = rng.randint(1, m - 1)
        forests.append(random_hypertree(m, r, rng) if rng.random() < 0.5 else random_hyperforest([k, m - k], r, rng))
    return forests


def test_certificate_agrees_with_sturm_route(monkeypatch):
    """On every class up to the guards and on seeded random hyperforests up
    to m = 100, the Descartes test certifies polyroot's first bracket with
    no Sturm chain (the fallback runs on none of them); rho is the same
    bytes as with the test switched off, and each certified bracket
    (c, Cauchy bound + 1) holds one root of p by Sturm count, the final
    bracket one root and none above it."""
    forests = _guarded_classes() + _seeded_forests()
    polys = [_z_poly(H) for H in forests]
    calls = _spy_sturm_chain(monkeypatch)
    fallbacks, rhos, tops = 0, [], []
    for H, p in zip(forests, polys):
        calls.clear()
        rhos.append(spectral_radius_polyroot(H).rho)
        tops.append(poly._nearest_top_root(p))
        fallbacks += bool(calls)
    assert fallbacks == 0
    monkeypatch.undo()
    for p, top in zip(polys, tops):
        _, c = poly._below_top(p)
        assert poly.count_real_roots(poly.sturm_chain(p), c, poly.cauchy_bound(p) + 1) == 1
        _assert_bracket(p, top)
    monkeypatch.setattr(poly, "_below_top", lambda p: None)
    assert [spectral_radius_polyroot(H).rho for H in forests] == rhos


def test_walk_never_starts_below_the_fixed_step():
    """Wherever c0 = x(1 - 2^-20), exact, below the float guess x would
    certify the first bracket (p(c0) of the sign opposite to p's leading
    coefficient, p(c0 + y) with one sign variation), the lower walk ends on
    a c in [c0, x) that certifies it too: on every class up to the guards,
    the seeded forests, every closed-form bound with r = 2..6 and m <= 30,
    and one 100-edge hypertree.  Sign variations of p(c + y) do not grow
    with c (Budan-Fourier), so the walk's last step must not go below c0."""
    # the guess for random_hypertree(100, 3, Random(3)) lies more than 2^30
    # ulps above the root: only the last step, at c0 rounded up, confirms
    large = random_hypertree(100, 3, random.Random(3))
    polys = [_z_poly(H) for H in _guarded_classes() + _seeded_forests() + [large]]
    for r in range(2, 7):
        for m in range(2, 31):
            for k in range(1, m + 1):
                ep = extremal_params(m, k, r)
                if ep.feasible and (ep.q, ep.s, ep.l) != (0, 0, 0):
                    G = _cleared_bound_poly(r, ep.q, ep.s, ep.l)
                    polys.append(G[next(i for i, c in enumerate(G) if c) :])
    certified = 0
    for p in polys:
        x = poly._float_top_root(p)
        c0 = Fraction(x) * (1 - Fraction(1, 2**20))
        if poly.sign_at(p, c0) != -_sign(p[-1]) or poly._sign_changes(poly.taylor_shift(p, c0)) != 1:
            continue
        below = poly._below_top(p)
        assert below is not None and below[0] == x and c0 <= below[1] < x, p
        assert poly._sign_changes(poly.taylor_shift(p, below[1])) == 1, p
        certified += 1
    assert certified == len(polys) > 1900


def test_certificate_falls_back(monkeypatch):
    """A doubled top root, three roots so close that c falls below all of
    them, a float guess far above the root (as the guesses at m >= 200
    are) and a polynomial with no root take the Sturm route to the same
    double; one edge keeps its point certificate (1, 1)."""
    calls = _spy_sturm_chain(monkeypatch)
    p = [1]
    # 18 and two roots within 18 * 2^-21 below it
    for root in (Fraction(18), Fraction(37748727, 2**21), Fraction(2415918519, 2**27)):
        p = poly.mul(p, [-root.numerator, root.denominator])
    _, c = poly._below_top(p)  # p confirms c: three roots above it
    assert poly._sign_changes(poly.taylor_shift(p, c)) == 3
    top = poly._nearest_top_root(p)
    assert calls and top[0] == _plain_nearest(p) == 18.0
    _assert_bracket(p, top)
    calls.clear()
    T = random_hypertree(8, 3, random.Random(3))
    alone = spectral_radius_polyroot(T)
    assert not calls
    doubled = spectral_radius_polyroot(disjoint_union(T, T))
    assert calls and doubled.rho == alone.rho
    calls.clear()
    assert poly._nearest_top_root([1, 0, 1]) is None and calls  # z^2 + 1
    assert spectral_radius_polyroot(Hypergraph(3, 4)).rho == 0.0  # edgeless: no kernel call
    for r in range(2, 7):
        calls.clear()
        res = spectral_radius_polyroot(single_edge(r))
        assert not calls and res.rho == 1.0 and res.certificate == (Fraction(1), Fraction(1))
    guess = poly._float_top_root
    monkeypatch.setattr(poly, "_float_top_root", lambda p: 2 * guess(p))
    calls.clear()
    assert spectral_radius_polyroot(T).rho == alone.rho and calls


def test_polyroot_at_150_edges_builds_no_sturm_chain(monkeypatch):
    """At m = 150 the certificate still holds: polyroot calls no
    `sturm_chain`, and its bracket holds the top root by Sturm count.  The
    guess is far off there, and the bracket both walks confirm keeps the
    sign tests to about 50: the same double as the Sturm route."""
    T = random_hypertree(150, 3, random.Random(1))
    p = _z_poly(T)
    calls = _spy_sturm_chain(monkeypatch)
    res, top = spectral_radius_polyroot(T), poly._nearest_top_root(p)
    assert calls == []
    monkeypatch.undo()
    assert res.rho == top[0] ** (1 / 3)
    _assert_bracket(p, top)
    a, b = top[2]
    assert top[1] <= 60 and poly.sign_at(p, a) == -poly.sign_at(p, b) != 0
    monkeypatch.setattr(poly, "_below_top", lambda p: None)
    assert poly._nearest_top_root(p)[0] == top[0]


def test_descartes_bracket_widens_above_a_far_guess(monkeypatch):
    """With the guess pinned at 8, the upper end walks up by 4 16^j ulps of
    8 (2^-49): a root planted on the walk point j = 7 gives a zero sign and
    the walk goes on to j = 8; 8 + 2^-17 is passed at j = 8, 8 + 2^-14 +
    2^-40 at j = 9 and 10^6 + 1/3 at j = 17, past the Cauchy bound, where
    every sign is the leading one.  Each ends on the nearest double."""
    monkeypatch.setattr(poly, "_float_top_root", lambda p: 8.0)
    points, sign_scaled = [], poly._sign_scaled

    def recorded(q, n, d):
        points.append((Fraction(n, d), sign_scaled(q, n, d)))
        return points[-1][1]

    monkeypatch.setattr(poly, "_sign_scaled", recorded)
    step = Fraction(1, 2**49)  # ulp(8)
    root = 8 + 4 * 16**7 * step
    # (root - z)(z - 1), leading sign -1: one sign confirms c = 8 - 4 ulps
    p = poly.mul([root.numerator, -root.denominator], [-1, 1])
    top = poly._nearest_top_root(p)
    walk = [(8 + 4 * 16**j * step, -1 if j > 7 else 0 if j == 7 else 1) for j in range(9)]
    assert points[:10] == [(8 - 4 * step, 1)] + walk
    assert top[0] == _plain_nearest(p) == float(root) and top[2][0] < root < top[2][1]
    _assert_bracket(p, top)
    # each root and the step j of the walk that passes it
    far = ((8 + Fraction(1, 2**17), 8), (8 + Fraction(1, 2**14) + Fraction(1, 2**40), 9), (10**6 + Fraction(1, 3), 17))
    for root, j in far:
        p = poly.mul([-root.numerator, root.denominator], [-1, 1])
        below = poly._below_top(p)
        assert below == (8.0, 8 - 4 * step) and poly._sign_changes(poly.taylor_shift(p, below[1])) == 1
        points.clear()
        top = poly._nearest_top_root(p)
        end = 8 + 4 * 16**j * step
        assert [x for x, _ in points[1 : j + 2]] == [8 + 4 * 16**i * step for i in range(j + 1)]
        assert points[j + 1][1] == 1 and all(s == -1 for _, s in points[1 : j + 1])
        assert top[0] == _plain_nearest(p) == float(root)
        _assert_bracket(p, top)
    assert end > poly.cauchy_bound(p)


def test_remainder_sequence_matches_reference_loops_on_every_class():
    """The Sturm chain and the gcd read off one remainder sequence equal the
    two pseudo-remainder loops of `reference_poly`, on the z-polynomial of
    every class up to the guards: p with p', and p with the next class's p."""
    polys = [_z_poly(H) for H in _guarded_classes()]
    for p, q in zip(polys, polys[1:] + polys[:1]):
        assert poly.sturm_chain(p) == reference_poly.sturm_chain(p)
        assert poly.poly_gcd(p, poly.derivative(p)) == reference_poly.poly_gcd(p, poly.derivative(p))
        assert poly.poly_gcd(p, q) == reference_poly.poly_gcd(p, q)


def _random_poly(rng, degree):
    return poly.trim([rng.randint(-30, 30) for _ in range(degree)] + [rng.choice((-7, -2, -1, 1, 3, 8))])


def test_remainder_sequence_matches_reference_loops_on_random_polynomials():
    """Seeded integer polynomials: zero, constants, coprime pairs, repeated
    roots (squared and cubed factors, shared factors) and negative leading
    coefficients, as Sturm chains and as gcds in both argument orders."""
    rng = random.Random(19)
    cases = [([], []), ([], [5]), ([-4], []), ([3], [-6]), ([0, 0, 2], [0, 4]), ([-1, 0, 1], [0, 0, 0])]
    for _ in range(300):
        f, g, h = (_random_poly(rng, rng.randint(0, 4)) for _ in range(3))
        kind = rng.randrange(4)
        if kind == 0:  # coprime apart from chance
            cases.append((f, g))
        elif kind == 1:  # repeated roots
            cases.append((poly.mul(poly.mul(f, f), g), poly.mul(poly.mul(f, f), f)))
        elif kind == 2:  # a shared factor
            cases.append((poly.mul(f, h), poly.mul(g, h)))
        else:  # negative leading coefficients
            cases.append((poly.neg(poly.mul(f, g)), poly.neg(poly.mul(h, h))))
    assert any(p and p[-1] < 0 for p, _ in cases)
    for p, q in cases:
        for a, b in ((p, q), (q, p)):
            assert poly.sturm_chain(a) == reference_poly.sturm_chain(a), a
            assert poly.poly_gcd(a, b) == reference_poly.poly_gcd(a, b), (a, b)
            assert poly.poly_gcd(a, poly.derivative(a)) == reference_poly.poly_gcd(a, poly.derivative(a)), a


def _recording(p):
    """An evaluation on p's Sturm chain, and the list of the points it was
    asked at, repeats included."""
    chain, points = poly.sturm_chain(p), []

    def evaluate_at(x):
        points.append(x)
        return poly._variations(chain, x)

    return evaluate_at, points


def test_isolation_matches_reference_bisections():
    """Same markers, and the same evaluation points counted with
    multiplicity, as the recursive and the descending routine, on every
    class polynomial and on random ones with repeated, dyadic and
    non-dyadic rational roots, with and without given ends."""
    rng = random.Random(15)
    cases = [(_z_poly(H), (None, None)) for H in _guarded_classes()]
    randoms = 0
    while randoms < 600:
        p = _planted_poly(rng)
        ends = (None, None)
        if randoms % 2:
            ends = tuple(sorted(Fraction(rng.randint(-400, 400), rng.randint(1, 40)) for _ in range(2)))
            if ends[0] == ends[1] or not (poly.sign_at(p, ends[0]) and poly.sign_at(p, ends[1])):
                continue
        cases.append((p, ends))
        randoms += 1
    pairs = (
        (poly.isolate_real_roots, reference_poly.isolate_real_roots),
        (poly.isolate_top_root, reference_poly.isolate_top_root),
    )
    for p, ends in cases:
        for isolate, reference in pairs:
            (ev, points), (ref_ev, ref_points) = _recording(p), _recording(p)
            assert isolate(p, *ends, evaluate=ev) == reference(p, *ends, evaluate=ref_ev), (p, ends)
            assert Counter(points) == Counter(ref_points), (p, ends)


def test_isolation_of_roots_closer_than_the_recursion_limit():
    """Roots 2^-1200 apart take some 1200 nested halvings to separate."""
    E = 2**1200
    p = poly.mul([-3 * E, E], [-(3 * E + 1), E])
    markers = poly.isolate_real_roots(p)
    assert [m[0] for m in markers] == ["interval", "interval"]
    (_, a1, b1), (_, a2, b2) = markers
    assert b1 <= a2
    chain = poly.sturm_chain(p)
    assert poly.count_real_roots(chain, a1, b1) == 1 == poly.count_real_roots(chain, a2, b2)
    assert poly.isolate_top_root(p) == markers[1]


def _plain_nearest(p):
    """Reference: the double nearest the top root of p by exact
    bisection of its isolating interval over Fractions, with no float
    guess.  Once the ends round to adjacent doubles, the sign at the
    midpoint of those doubles decides; a root exactly there rounds half
    to even, as float() of a Fraction does."""
    marker = poly.isolate_real_roots(p)[-1]
    if marker[0] == "point":
        return float(marker[1])
    q = poly.exact_quotient(poly.primitive(p), poly.poly_gcd(p, poly.derivative(p)))
    a, b = marker[1:]
    left = poly.sign_at(q, a)
    while float(a) != float(b):
        fa, fb = float(a), float(b)
        if math.nextafter(fa, fb) == fb:
            tie = (Fraction(fa) + Fraction(fb)) / 2
            s = poly.sign_at(q, tie)
            return float(tie) if s == 0 else fa if s != left else fb
        mid = (a + b) / 2
        s = poly.sign_at(q, mid)
        if s == 0:
            return float(mid)
        a, b = (mid, b) if s == left else (a, mid)
    return float(a)


def _kernel_cases():
    """The polynomials behind polyroot on every class up to the guards and
    behind both closed-form bounds."""
    cases = [_z_poly(H) for H in _guarded_classes() if H.m > 1]
    for r in range(2, 7):
        for m in range(1, max_edges_guard(r) + 1):
            for k in range(1, m + 1):
                ep = extremal_params(m, k, r)
                if ep.feasible and (ep.q, ep.s, ep.l) != (0, 0, 0):
                    G = _cleared_bound_poly(r, ep.q, ep.s, ep.l)
                    cases.append(G[next(i for i, c in enumerate(G) if c) :])
        for m in range(2, 40):
            if (m * (r - 1) + 1) % r == 0:
                cases.append([1 - m, m - 1] + [0] * (r - 2) + [r])
    return cases


def test_seeded_kernel_matches_plain_bisection():
    tests = []
    for p in _kernel_cases():
        top = poly._nearest_top_root(p)
        assert top[0] == _plain_nearest(p), p
        _assert_bracket(p, top)
        tests.append(top[1])
    # the float guess saves the halvings: a handful of exact tests per root
    assert sum(tests) / len(tests) < 10


def test_sturm_route_when_coefficients_overflow_floats():
    big = 10**400
    for p, expected in (
        (poly.mul([-3, 1], [-1, big]), 3.0),  # (z - 3)(10^400 z - 1)
        (poly.mul([-2, 0, 1], [-1, big]), math.sqrt(2)),  # (z^2 - 2)(10^400 z - 1)
    ):
        top = poly._nearest_top_root(p)
        assert top[0] == _plain_nearest(p) == expected
        _assert_bracket(p, top)


def test_bracket_ends_past_the_largest_double():
    """(z - 1)(z^2 + 2^1100) isolates its root in +-(2^1100 + 2): the
    ends read as +-inf and the halving goes on to the root."""
    p = [-(2**1100), 2**1100, -1, 1]
    top = poly._nearest_top_root(p)
    assert top[0] == 1.0
    _assert_bracket(p, top)


def _shifted_guess(monkeypatch, shift):
    """Make every float guess `shift` ulps off."""
    guess = poly._float_top_root

    def off(p):
        x = guess(p)
        return None if x is None else x + shift * math.ulp(x)

    monkeypatch.setattr(poly, "_float_top_root", off)


@pytest.mark.parametrize(
    "shift, width", [(s * d, w) for s, w in ((2**5, 2**8), (2**12, 2**16), (2**20, 2**26)) for d in (1, -1)]
)
def test_wider_seed_brackets_confirm(monkeypatch, shift, width):
    """Float guesses drift from a few ulps (m <= 20) to 2^20 and more (m
    near 100) as the polynomials grow.  From a guess x off by 2^5, 2^12 or
    2^20 ulps, each end of the first bracket walks out by 4 16^j ulps
    until one exact sign confirms it, within 2^8, 2^16 or 2^26 ulps of x:
    the upper walk's few signs and the halvings down to one ulp stay within
    16, 26 or 38 tests, far fewer than the about 50 halvings from the
    isolating interval."""
    most = {2**8: 16, 2**16: 26, 2**26: 38}[width]
    _shifted_guess(monkeypatch, shift)
    for p in _kernel_cases():
        x, c = poly._below_top(p)
        top = poly._nearest_top_root(p)
        assert top[0] == _plain_nearest(p), (p, shift)
        _assert_bracket(p, top)
        assert top[1] <= most, (p, shift, top[1])
        reach = width * Fraction(math.ulp(x))
        assert x - reach <= c and top[2][1] <= x + reach, (p, shift)


@pytest.mark.parametrize("shift", [2**30, -(2**30)])
def test_seed_survives_a_bad_guess(monkeypatch, shift):
    """A float guess 2^30 ulps off the root: the end on the root's side
    walks past it, the lower one at most down to x(1 - 2^-20), and the
    halving from that wide bracket still ends on the nearest double."""
    _shifted_guess(monkeypatch, shift)
    for p in _kernel_cases():
        top = poly._nearest_top_root(p)
        assert top[0] == _plain_nearest(p), (p, shift)
        _assert_bracket(p, top)
