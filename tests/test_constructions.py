"""Builders for named families and the closed-form bound solvers."""

import pytest

from hypertree_spectra import (
    CompositionVector,
    Hypergraph,
    InfeasibleParameters,
    brute_force_counts,
    build_A,
    build_Ra,
    build_S,
    build_Tva,
    build_Tvab,
    delete_vertex,
    extremal_params,
    hyperstar,
    is_isomorphic,
    matching_polynomial,
    perfect_matching_bound,
    rho_bound,
    single_edge,
    spectral_radius_polyroot,
    validate,
    verify_extremal,
    verify_perfect_matching,
)
from hypertree_spectra.enumeration import max_edges_guard
from sparse_poly import sp_equal, sp_monomial, sp_mul, sp_pow, sp_sub

from conftest import path_graph, perfect_cells, perfect_matching_reference
import reference_growth


def closed_form_Ra(a: int, r: int) -> dict:
    """x^(r-a) (x^r - 1)^a - x^(a(r-1)), expanded exactly."""
    binomial = sp_pow({r: 1, 0: -1}, a)
    return sp_sub(sp_mul(sp_monomial(r - a), binomial), sp_monomial(a * (r - 1)))


def test_hyperstar_examples():
    assert hyperstar(1, 3) == single_edge(3)
    k13 = hyperstar(3, 2)
    assert k13.n == 4 and k13.m == 3
    assert all(0 in e for e in k13.edges)
    two = hyperstar(2, 3)
    assert two.n == 5
    assert set(two.edges[0]) & set(two.edges[1]) == {0}
    with pytest.raises(ValueError):
        hyperstar(0, 3)


def test_hyperstar_matches_edge_loop():
    """Same vertex count and edge tuple as the edge-by-edge loop it replaced."""
    for m in range(1, 41):
        for r in range(2, 9):
            assert hyperstar(m, r) == reference_growth.hyperstar(m, r), (m, r)


def test_build_S_examples():
    chain = build_S((1, 0), 3)
    assert is_isomorphic(chain, build_Ra(2, 3))
    fig = build_S((3, 3, 2, 0, 0), 4)
    assert fig.m == 13
    assert validate(fig).is_hypertree
    assert is_isomorphic(build_S((0, 0, 0, 0), 3), hyperstar(4, 3))
    with pytest.raises(ValueError):
        build_S((3,), 3)  # only r-1 = 2 core vertices available


def test_build_S_accepts_composition_vector():
    vec = CompositionVector((2, 1, 0), cap=2)
    H = build_S(vec, 3)
    assert H.m == 6


def test_build_Ra_examples():
    R2 = build_Ra(2, 3)
    assert matching_polynomial(R2).coeffs == {7: 1, 4: -3, 1: 1}
    R1 = build_Ra(1, 2)
    assert is_isomorphic(R1, path_graph(3))
    full = build_Ra(3, 3)  # a = r is allowed
    assert full.m == 4
    with pytest.raises(ValueError):
        build_Ra(4, 3)
    with pytest.raises(ValueError):
        build_Ra(0, 3)


def test_build_Tva_examples():
    T = single_edge(3)
    grown = build_Tva(T, 0, 1)
    assert grown.m == 3
    assert is_isomorphic(grown, build_Ra(2, 3))
    bare = build_Tva(T, 0, 0)  # a = 0 is just a pendent edge
    assert bare.m == 2
    with pytest.raises(ValueError):
        build_Tva(T, 0, 3)
    with pytest.raises(ValueError):
        build_Tva(T, 9, 1)


def test_build_Tvab_symmetry():
    T = single_edge(4)
    assert is_isomorphic(build_Tvab(T, 0, 2, 1), build_Tvab(T, 0, 1, 2))


def _append_pendent(edges: list, n: int, v: int, r: int) -> int:
    """The builders' former pendant step: append a pendent edge at v on fresh ids."""
    edges.append((v, *range(n, n + r - 1)))
    return n + r - 1


def _appended_S(a, r):
    star = reference_growth.hyperstar(len(a), r)
    edges, n = list(star.edges), star.n
    for i, count in enumerate(a):
        for t in range(count):
            n = _append_pendent(edges, n, 1 + i * (r - 1) + t, r)
    return Hypergraph(r, n, tuple(edges))


def _appended_Ra(a, r):
    edges, n = list(single_edge(r).edges), r
    for v in range(a):
        n = _append_pendent(edges, n, v, r)
    return Hypergraph(r, n, tuple(edges))


def _appended_Tva(T, v, a):
    r, edges, n = T.r, list(T.edges), T.n
    central = (v, *range(n, n + r - 1))
    edges.append(central)
    n += r - 1
    for u in central[1 : 1 + a]:
        n = _append_pendent(edges, n, u, r)
    return Hypergraph(r, n, tuple(edges))


def test_builders_match_append_loop(rng):
    """Same vertex count and edge tuples as the append loop they replaced."""
    from itertools import product

    from hypertree_spectra import random_hypertree

    for r in range(2, 7):
        for a in product(range(r), repeat=3):
            assert build_S(a, r) == _appended_S(a, r), (a, r)
        for a in range(1, r + 1):
            assert build_Ra(a, r) == _appended_Ra(a, r), (a, r)
        for _ in range(20):
            T = random_hypertree(rng.randrange(1, 7), r, rng)
            v, a, b = rng.randrange(T.n), rng.randrange(r), rng.randrange(r)
            assert build_Tva(T, v, a) == _appended_Tva(T, v, a), (T, v, a)
            assert build_Tvab(T, v, a, b) == _appended_Tva(_appended_Tva(T, v, b), v, a), (T, v, a, b)


def test_Ra_closed_form_exact():
    for r in (2, 3, 4, 5):
        for a in range(1, r + 1):
            lhs = matching_polynomial(build_Ra(a, r)).coeffs
            assert sp_equal(lhs, closed_form_Ra(a, r)), (a, r)


def test_Tva_identity_exact(rng):
    """phi(T(v;a)) = x^(r-a-1) (x^r-1)^a phi(T) - x^(a(r-1)) phi(T - v)."""
    from hypertree_spectra import random_hypertree

    for _ in range(40):
        r = rng.choice([3, 4, 5])
        T = random_hypertree(rng.randrange(1, 4), r, rng)
        v = rng.randrange(T.n)
        a = rng.randrange(0, r)
        if a > r - 1:
            continue
        lhs = matching_polynomial(build_Tva(T, v, a)).coeffs
        gadget = sp_mul(sp_monomial(r - a - 1), sp_pow({r: 1, 0: -1}, a))
        rhs = sp_sub(
            sp_mul(gadget, matching_polynomial(T).coeffs),
            sp_mul(sp_monomial(a * (r - 1)), matching_polynomial(delete_vertex(T, v).hypergraph).coeffs),
        )
        assert sp_equal(lhs, rhs)


def test_extremal_params_examples():
    p = extremal_params(3, 2, 3)
    assert (p.q, p.s, p.l, p.feasible) == (0, 1, 1, True)
    p = extremal_params(13, 9, 4)
    assert (p.q, p.s, p.l, p.feasible) == (2, 2, 2, True)
    p = extremal_params(5, 4, 3)
    assert (p.q, p.s, p.l) == (1, 1, 0)
    assert not p.feasible  # kr = 12 > n = 11
    with pytest.raises(ValueError):
        extremal_params(2, 3, 3)


def test_build_A_examples():
    for m in (1, 4):
        assert is_isomorphic(build_A(m, 1, 3), hyperstar(m, 3))
    assert is_isomorphic(build_A(3, 2, 2), path_graph(4))
    A = build_A(4, 3, 3)
    assert is_isomorphic(A, build_S((2, 0), 3))
    # perfect 3-matching covering all 9 vertices
    counts = brute_force_counts(A)
    assert counts.nu == 3 and A.n == 9
    with pytest.raises(InfeasibleParameters):
        build_A(5, 4, 3)


def test_build_A_composition_needs_no_sort():
    """(r-1)^q, s, 0^l is already non-increasing, since s < r - 1."""
    for r in range(2, 7):
        for m in range(1, 13):
            for k in range(1, m + 1):
                p = extremal_params(m, k, r)
                if p.feasible:
                    composition = [r - 1] * p.q + [p.s] + [0] * p.l
                    assert build_A(m, k, r) == build_S(sorted(composition, reverse=True), r), (m, k, r)


def test_build_A_is_hypertree_with_right_nu():
    for r in range(2, 7):
        for m in range(1, 9):
            for k in range(1, m + 1):
                if not extremal_params(m, k, r).feasible:
                    continue
                A = build_A(m, k, r)
                assert validate(A).is_hypertree
                assert A.m == m
                assert brute_force_counts(A).nu == k


def test_rho_bound_star_reduction():
    for m in (1, 2, 5, 12):
        for r in (2, 3, 4):
            b = rho_bound(m, 1, r)
            assert abs(b.rho - m ** (1 / r)) < 1e-10


def test_rho_bound_golden_ratio():
    b = rho_bound(3, 2, 2)
    assert abs(b.alpha0 - 0.6180339887498949) < 1e-12
    assert abs(b.rho - 1.618033989) < 1e-9


def test_rho_bound_r3():
    b = rho_bound(3, 2, 3)
    assert abs(b.alpha0 - 0.6180339887498949) < 1e-12
    assert abs(b.rho - 2.6180339887498949 ** (1 / 3)) < 1e-9


def test_rho_bound_infeasible():
    with pytest.raises(InfeasibleParameters):
        rho_bound(5, 4, 3)


def test_bound_satisfies_equation():
    for (m, k, r) in [(3, 2, 2), (3, 2, 3), (8, 3, 2), (6, 4, 3), (13, 9, 4), (5, 2, 4)]:
        p = extremal_params(m, k, r)
        if not p.feasible:
            continue
        b = rho_bound(m, k, r)
        a = b.alpha0
        recip = 1.0 if p.s == 0 else a**-p.s
        g = a ** (r - 1) * (1 / (1 - a) - recip - p.l) - p.q
        assert abs(g) <= 1e-12
        assert b.rho >= 1


def test_bound_matches_construction_rho():
    for r, m_max in [(2, 8), (3, 6), (4, 5)]:
        for m in range(1, m_max + 1):
            for k in range(1, m + 1):
                if not extremal_params(m, k, r).feasible:
                    continue
                bound = rho_bound(m, k, r)
                direct = spectral_radius_polyroot(build_A(m, k, r))
                assert abs(bound.rho - direct.rho) <= 1e-8, (m, k, r)


def test_perfect_matching_examples():
    b = perfect_matching_bound(3, 2)
    assert abs(b.alpha0 - 0.618034) < 1e-6
    assert abs(b.rho - 1.618034) < 1e-6
    b = perfect_matching_bound(4, 3)
    assert abs(b.alpha0 - 0.6823278038280193) < 1e-12
    assert abs(b.rho - 1.4655712318767682) < 1e-9
    assert perfect_matching_bound(1, 4).rho == 1.0
    with pytest.raises(InfeasibleParameters):
        perfect_matching_bound(4, 2)  # n = 5 not divisible by 2


def test_perfect_matching_bound_rejects_no_edges():
    """m < 1 is infeasible even where r divides n = m(r-1)+1 (n = 0, -3)."""
    for m, r in ((0, 2), (-1, 2), (-2, 3), (-5, 2)):
        with pytest.raises(InfeasibleParameters):
            perfect_matching_bound(m, r)


def test_perfect_matching_rejects_small_edges():
    """r < 2 is an error on the perfect-matching path, as in `extremal_params`."""
    for call, args in (
        (perfect_matching_bound, (2, 1)),
        (perfect_matching_bound, (3, 0)),
        (verify_perfect_matching, (1, 2)),
    ):
        with pytest.raises(ValueError, match="edge size must be at least 2"):
            call(*args)


def test_perfect_agrees_with_general_bound():
    """Both bounds give exactly what r a^r + (m-1) a - (m-1) gives."""
    for m, r, k in perfect_cells():
        expected = perfect_matching_reference(m, r)
        for bound in (perfect_matching_bound(m, r), rho_bound(m, k, r)):
            assert (bound.alpha0, bound.rho, bound.certificate) == expected, (m, r)


def test_verify_perfect_matching_is_verify_extremal():
    """Every perfect cell up to the guards with r <= 6 (beyond, only m = 1)."""
    cells = 0
    for m, r, k in perfect_cells(6, 12):
        if m > max_edges_guard(r):
            continue
        assert verify_perfect_matching(r, k).to_json_dict() == verify_extremal(m, k, r).to_json_dict()
        cells += 1
    assert cells == 12


def test_composition_vector_invariants():
    vec = CompositionVector((3, 2, 2, 0), cap=3)
    assert vec.total == 7
    assert len(vec) == 4
    with pytest.raises(ValueError):
        CompositionVector((1, 2), cap=3)
    with pytest.raises(ValueError):
        CompositionVector((4, 1), cap=3)
    with pytest.raises(ValueError):
        CompositionVector((2, -1), cap=3)


def test_loaded_star_polynomial_closed_form():
    """Expanding around the center: phi(A(m,k,r)) equals

    x^((l+1)(r-1)-s+1) (x^r-1)^(q(r-1)+s)
      - q x^((l+r)(r-1)-s) (x^r-1)^((q-1)(r-1)+s)
      - x^((l+s)(r-1)) (x^r-1)^(q(r-1))
      - l x^(l(r-1)-s) (x^r-1)^(q(r-1)+s)

    (terms with zero coefficient dropped), exactly.
    """

    def scale(d, c):
        return {e: c * v for e, v in d.items()}

    for r in (2, 3, 4):
        for m in range(1, 9):
            for k in range(1, m + 1):
                p = extremal_params(m, k, r)
                if not p.feasible:
                    continue
                q, s, l = p.q, p.s, p.l
                unit = {r: 1, 0: -1}  # x^r - 1
                rhs = sp_mul(sp_monomial((l + 1) * (r - 1) - s + 1), sp_pow(unit, q * (r - 1) + s))
                if q:
                    rhs = sp_sub(
                        rhs,
                        scale(
                            sp_mul(
                                sp_monomial((l + r) * (r - 1) - s),
                                sp_pow(unit, (q - 1) * (r - 1) + s),
                            ),
                            q,
                        ),
                    )
                rhs = sp_sub(rhs, sp_mul(sp_monomial((l + s) * (r - 1)), sp_pow(unit, q * (r - 1))))
                if l:
                    rhs = sp_sub(
                        rhs,
                        scale(
                            sp_mul(sp_monomial(l * (r - 1) - s), sp_pow(unit, q * (r - 1) + s)),
                            l,
                        ),
                    )
                assert sp_equal(matching_polynomial(build_A(m, k, r)).coeffs, rhs), (m, k, r)
