"""Edge rewrites, the exact matching-polynomial order, and majorization."""

import random
from fractions import Fraction

import pytest

from hypertree_spectra import (
    CompositionVector,
    Hypergraph,
    build_Ra,
    build_Tvab,
    compare_order,
    delete_edge,
    edge_release,
    enumerate_hypertrees,
    hyperstar,
    is_isomorphic,
    is_majorized,
    is_pendent_edge,
    majorization_chain,
    majorization_step,
    move_edges,
    random_hypertree,
    single_edge,
    spectral_radius_polyroot,
    spectral_radius_power,
)
from hypertree_spectra.transforms import (
    EQUAL_POLY,
    PRECEDES_STRICT,
    SUCCEEDS_STRICT,
)

from conftest import path_graph

PATH3_R3 = build_Ra(2, 3)


# ---------------------------------------------------------------------------
# move_edges / edge_release
# ---------------------------------------------------------------------------


def test_move_edges_examples():
    P4 = path_graph(4)
    moved = move_edges(P4, 1, [((2, 3), 2)])
    assert set(moved.edges) == {(0, 1), (1, 2), (1, 3)}
    assert move_edges(P4, 1, []) == P4
    both = move_edges(PATH3_R3, 2, [((0, 3, 4), 0), ((1, 5, 6), 1)])
    assert is_isomorphic(both, hyperstar(3, 3))


def test_move_edges_preconditions():
    P4 = path_graph(4)
    with pytest.raises(ValueError):
        move_edges(P4, 1, [((0, 1), 0)])  # u inside the edge
    with pytest.raises(ValueError):
        move_edges(P4, 3, [((0, 1), 2)])  # v not in the edge
    with pytest.raises(ValueError):
        move_edges(P4, 2, [((0, 1), 0)])  # result (1,2) duplicates an edge
    with pytest.raises(ValueError):
        move_edges(P4, 1, [((2, 3), 2), ((2, 3), 3)])  # same edge moved twice


def test_move_edges_rejects_nonlinear():
    H = Hypergraph(3, 7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    # moving (4,5,6) from 5 to 2 gives (2,4,6), sharing two vertices with (2,3,4)
    with pytest.raises(ValueError):
        move_edges(H, 2, [((4, 5, 6), 5)])


def test_edge_release_examples():
    released = edge_release(PATH3_R3, (0, 1, 2))
    assert is_isomorphic(released, hyperstar(3, 3))
    assert is_isomorphic(edge_release(path_graph(4), (1, 2)), hyperstar(3, 2))
    # a lone edge has no neighbors: releasing it changes nothing
    lone = single_edge(3)
    assert edge_release(lone, (0, 1, 2)) == lone


def test_edge_release_rejects_pendent():
    with pytest.raises(ValueError):
        edge_release(PATH3_R3, (0, 3, 4))


# ---------------------------------------------------------------------------
# compare_order
# ---------------------------------------------------------------------------


def test_compare_order_examples():
    rel = compare_order(path_graph(4), hyperstar(3, 2))
    assert rel.tag == PRECEDES_STRICT
    assert compare_order(PATH3_R3, PATH3_R3).tag == EQUAL_POLY
    rel = compare_order(PATH3_R3, hyperstar(3, 3))
    assert rel.tag == PRECEDES_STRICT
    assert compare_order(hyperstar(3, 3), PATH3_R3).tag == SUCCEEDS_STRICT


def test_compare_order_rejects_mismatch():
    with pytest.raises(ValueError):
        compare_order(path_graph(4), path_graph(5))
    with pytest.raises(ValueError):
        compare_order(path_graph(4), single_edge(3))
    triangle = Hypergraph(2, 4, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        compare_order(triangle, path_graph(4))


def test_compare_order_weak_via_double_root():
    """A difference with an even-multiplicity root above the boundary stays weak-comparable."""
    # forests of equal order built to share n: P4+P4 vs P4+S3 style pairs
    from hypertree_spectra import disjoint_union

    a = disjoint_union(path_graph(4), hyperstar(3, 2))
    b = disjoint_union(hyperstar(3, 2), path_graph(4))
    assert compare_order(a, b).tag == EQUAL_POLY


def test_strict_verdicts_match_rho():
    pool = list(enumerate_hypertrees(4, 3)) + list(enumerate_hypertrees(5, 3))
    for group in (enumerate_hypertrees(4, 3), enumerate_hypertrees(5, 3)):
        group = list(group)
        for i, A in enumerate(group):
            for B in group[i + 1 :]:
                rel = compare_order(A, B)
                ra = spectral_radius_polyroot(A).rho
                rb = spectral_radius_polyroot(B).rho
                if rel.tag == PRECEDES_STRICT:
                    assert ra < rb - 1e-9
                elif rel.tag == SUCCEEDS_STRICT:
                    assert rb < ra - 1e-9


def test_compare_order_chains_each_polynomial_once(monkeypatch):
    """One verdict builds one Sturm chain per distinct polynomial."""
    from hypertree_spectra import disjoint_union, random_hyperforest
    from hypertree_spectra import polynomials as poly

    seen = []
    build = poly.sturm_chain

    def counted(p):
        seen.append(tuple(p))
        return build(p)

    monkeypatch.setattr(poly, "sturm_chain", counted)
    rng = random.Random(7)
    pairs = [
        (Hypergraph(3, 11, [(0, 1, 2), (0, 3, 4)]),
         Hypergraph(3, 11, [(0, 1, 2), (1, 3, 4), (5, 6, 7), (8, 9, 10)])),
    ]
    for _ in range(40):
        r, m = rng.choice((2, 3)), rng.randint(2, 9)
        pairs.append((random_hypertree(m, r, rng), random_hypertree(m, r, rng)))
        t = random_hypertree(m, r, rng)
        pairs.append((disjoint_union(t, t), random_hyperforest([m - 1, m + 1], r, rng)))
    tags = set()
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            seen.clear()
            tags.add(compare_order(x, y).tag)
            assert len(seen) == len(set(seen))
    assert {"precedes_strict", "precedes_weak", "incomparable"} <= tags


def test_compare_order_evaluates_each_point_once(monkeypatch):
    """Within one boundary search each (chain, point) count is made once,
    the counts made inside `isolate_real_roots` included: the end of p1's
    isolating interval is not counted again by the search, nor the
    boundary again as the start of the isolation above it."""
    from hypertree_spectra import disjoint_union, random_hyperforest
    from hypertree_spectra import polynomials as poly
    from hypertree_spectra import transforms

    seen = []
    variations = poly._variations
    dominates = transforms._dominates_from

    def counted(chain, x):
        seen.append((tuple(map(tuple, chain)), Fraction(x)))
        return variations(chain, x)

    def one_call(*args):
        seen.clear()
        out = dominates(*args)
        assert len(seen) == len(set(seen))
        return out

    monkeypatch.setattr(poly, "_variations", counted)
    monkeypatch.setattr(transforms, "_dominates_from", one_call)
    rng = random.Random(7)
    for _ in range(40):
        r, m = rng.choice((2, 3)), rng.randint(2, 9)
        compare_order(random_hypertree(m, r, rng), random_hypertree(m, r, rng))
        t = random_hypertree(m, r, rng)
        compare_order(disjoint_union(t, t), random_hyperforest([m - 1, m + 1], r, rng))


def test_compare_order_tests_each_sign_once(monkeypatch):
    """One exact sign test per (polynomial, point) within a boundary search,
    counting the tests made inside the helpers it calls, and none where
    that polynomial's Sturm chain was already evaluated: the chain's first
    element gives the sign there.  The total adds the sign tests the top-root
    kernel counts while it halves z1's bracket."""
    from hypertree_spectra import disjoint_union, random_hyperforest
    from hypertree_spectra import polynomials as poly
    from hypertree_spectra import transforms

    seen = []
    chained = set()  # (chain's first element, point) evaluated in this call
    tests = 0
    sign_at = poly.sign_at
    variations = poly._variations
    dominates = transforms._dominates_from
    nearest = poly._nearest_from

    def counted(p, x):
        key = (tuple(p), Fraction(x))
        assert key not in chained
        seen.append(key)
        return sign_at(p, x)

    def counted_chain(chain, x):
        chained.add((tuple(chain[0]), Fraction(x)))
        return variations(chain, x)

    def kernel_tests(*args):
        nonlocal tests
        out = nearest(*args)
        tests += out[1]
        return out

    def one_call(*args):
        nonlocal tests
        seen.clear()
        chained.clear()
        out = dominates(*args)
        assert len(seen) == len(set(seen))
        tests += len(seen)
        return out

    monkeypatch.setattr(poly, "sign_at", counted)
    monkeypatch.setattr(poly, "_variations", counted_chain)
    monkeypatch.setattr(poly, "_nearest_from", kernel_tests)
    monkeypatch.setattr(transforms, "_dominates_from", one_call)
    rng = random.Random(7)
    for _ in range(40):
        r, m = rng.choice((2, 3)), rng.randint(2, 9)
        compare_order(random_hypertree(m, r, rng), random_hypertree(m, r, rng))
        t = random_hypertree(m, r, rng)
        compare_order(disjoint_union(t, t), random_hyperforest([m - 1, m + 1], r, rng))
    assert tests > 200


def test_edge_deletion_precedes_strict():
    """A proper same-order partial hyperforest sits strictly below."""
    for m in range(1, 5):
        for H in enumerate_hypertrees(m, 3):
            for e in H.edges:
                rel = compare_order(delete_edge(H, e), H)
                assert rel.tag == PRECEDES_STRICT


def test_edge_release_strictly_above():
    for m in range(2, 6):
        for H in enumerate_hypertrees(m, 2):
            for e in H.edges:
                if is_pendent_edge(H, e):
                    continue
                released = edge_release(H, e)
                rel = compare_order(H, released)
                assert rel.tag == PRECEDES_STRICT


def test_gadget_swap_strictly_increases():
    """T(v; a, b) comes strictly before T(v; a+1, b-1) when r-2 >= a >= b >= 1."""
    rng = random.Random(7)
    cases = 0
    while cases < 12:
        r = rng.choice([3, 4, 5])
        T = random_hypertree(rng.randrange(1, 3), r, rng)
        v = rng.randrange(T.n)
        a = rng.randrange(1, r - 1)
        b = rng.randrange(1, a + 1)
        lower = build_Tvab(T, v, a, b)
        upper = build_Tvab(T, v, a + 1, b - 1)
        rel = compare_order(lower, upper)
        assert rel.tag == PRECEDES_STRICT
        assert (
            spectral_radius_polyroot(lower).rho
            < spectral_radius_polyroot(upper).rho - 1e-9
        )
        cases += 1


def test_move_edges_increases_rho_under_eigenvector_condition():
    """Whenever x_u >= x_v on the principal eigenvector, a legal single-edge
    move strictly increases the spectral radius."""
    tested = 0
    for m in range(2, 5):
        for H in enumerate_hypertrees(m, 3):
            power = spectral_radius_power(H)
            x = power.eigenvector
            for e in H.edges:
                for v in e:
                    for u in range(H.n):
                        if u in e or x[u] < x[v] - 1e-9:
                            continue
                        try:
                            moved = move_edges(H, u, [(e, v)])
                        except ValueError:
                            continue
                        rho_new = spectral_radius_power(moved).rho
                        assert rho_new > power.rho + 1e-9, (H.edges, e, v, u)
                        tested += 1
    assert tested > 50


# ---------------------------------------------------------------------------
# majorization
# ---------------------------------------------------------------------------


def test_is_majorized_examples():
    assert is_majorized((2, 2, 2), (3, 2, 1))
    assert not is_majorized((3, 2, 1), (2, 2, 2))
    assert is_majorized((1, 1), (1, 1))
    with pytest.raises(ValueError):
        is_majorized((1, 1), (1, 1, 0))
    with pytest.raises(ValueError):
        is_majorized((1, 2), (2, 1))


def test_majorization_step_examples():
    assert majorization_step((2, 2, 2), (3, 2, 1)).entries == (2, 2, 2)
    assert majorization_step((1, 1, 0), (2, 0, 0)).entries == (1, 1, 0)
    with pytest.raises(ValueError):
        majorization_step((1, 1), (1, 1))


def test_majorization_chain_examples():
    chain = majorization_chain((2, 2, 2), (3, 2, 1))
    assert [c.entries for c in chain] == [(3, 2, 1), (2, 2, 2)]
    assert [c.entries for c in majorization_chain((1, 1), (1, 1))] == [(1, 1)]
    chain = majorization_chain((2, 1, 1, 0), (4, 0, 0, 0))
    assert [c.entries for c in chain] == [(4, 0, 0, 0), (3, 1, 0, 0), (2, 1, 1, 0)]
    with pytest.raises(ValueError):
        majorization_chain((3, 2, 1), (2, 2, 2))


def check_chain(pi, pi_prime, chain):
    l1 = sum(abs(a - b) for a, b in zip(pi, pi_prime))
    assert len(chain) == l1 // 2 + 1
    assert chain[0].entries == tuple(pi_prime)
    assert chain[-1].entries == tuple(pi)
    for upper, lower in zip(chain, chain[1:]):
        diffs = [
            (i, a - b) for i, (a, b) in enumerate(zip(lower.entries, upper.entries)) if a != b
        ]
        assert len(diffs) == 2
        assert sorted(d for _, d in diffs) == [-1, 1]
        assert is_majorized(lower.entries, upper.entries)


def test_random_chains(rng):
    for _ in range(150):
        b = rng.randrange(2, 9)
        c = rng.randrange(1, 7)
        upper = sorted((rng.randrange(0, c + 1) for _ in range(b)), reverse=True)
        lower = list(upper)
        for _ in range(rng.randrange(0, 7)):
            donors = [i for i in range(b) if lower[i] > (0 if i == b - 1 else lower[i + 1])]
            if not donors:
                break
            i = rng.choice(donors)
            takers = [
                j
                for j in range(i + 1, b)
                if lower[j] < lower[i] - 1 or (lower[j] == lower[i] - 1 and j > i)
            ]
            takers = [j for j in takers if j == 0 or lower[j] < lower[j - 1] or j - 1 == i]
            ok = False
            for j in takers:
                trial = list(lower)
                trial[i] -= 1
                trial[j] += 1
                if all(x >= y for x, y in zip(trial, trial[1:])):
                    lower = trial
                    ok = True
                    break
            if not ok:
                break
        if not is_majorized(lower, upper):
            continue
        chain = majorization_chain(CompositionVector(tuple(lower), cap=c), CompositionVector(tuple(upper), cap=c))
        check_chain(tuple(lower), tuple(upper), chain)
        for vec in chain:
            assert vec.entries[0] <= c if vec.entries else True


# ---------------------------------------------------------------------------
# frozen verdicts for the subtler order outcomes
# ---------------------------------------------------------------------------


def test_weak_verdict_when_difference_vanishes_at_boundary():
    """phi(T2) can vanish exactly at rho(T1): comparable but not strictly."""
    from hypertree_spectra import Hypergraph

    # phi1 = x^8 (x^3 - 2), phi2 has (z - 2) as a factor of its z-form
    T1 = Hypergraph(3, 11, [(0, 1, 2), (0, 3, 4)])
    T2 = Hypergraph(3, 11, [(0, 1, 2), (1, 3, 4), (5, 6, 7), (8, 9, 10)])
    rel = compare_order(T1, T2)
    assert rel.tag == "precedes_weak"
    assert rel.witness["boundary_vanishes"] is True


def test_weak_verdict_for_edgeless_forest():
    """An edgeless forest sits weakly below a single edge of the same order:
    the difference x^6 vanishes at rho = 0."""
    from hypertree_spectra import Hypergraph

    T1 = Hypergraph(2, 8, ())
    T2 = Hypergraph(2, 8, [(0, 1)])
    rel = compare_order(T1, T2)
    assert rel.tag == "precedes_weak"


def test_incomparable_pair():
    """Two disjoint 3-edges vs the edgeless forest of the same order: each
    polynomial dips below the other somewhere past the smaller boundary."""
    from hypertree_spectra import Hypergraph

    T1 = Hypergraph(3, 7, [(0, 1, 2), (3, 4, 5)])
    T2 = Hypergraph(3, 7, ())
    assert compare_order(T1, T2).tag == "incomparable"


def test_dominance_near_miss_roots():
    """Internal sign analysis copes with difference roots crowding the boundary."""
    from fractions import Fraction

    from hypertree_spectra import polynomials as poly
    from hypertree_spectra.transforms import _dominates_from

    p1 = [1, -3, 1]  # top root z1 = (3 + sqrt 5)/2 ~ 2.6180339887
    # simple root a hair above z1: 55/21 ~ 2.6190; negative between them
    weak, vanish, _ = _dominates_from(p1, [-55, 21], 0)
    assert weak is False
    # double root just above z1: nonnegative everywhere, boundary clean
    double = [3025, -2310, 441]  # (21 z - 55)^2
    weak, vanish, wit = _dominates_from(p1, double, 0)
    assert weak is True and vanish is False
    assert wit["odd_top"] is None
    # triple root just above z1: the only sign change, and not at z1
    triple = poly.mul(double, [-55, 21])
    weak, vanish, wit = _dominates_from(p1, triple, 0)
    assert weak is False and vanish is False
    # the difference IS p1: vanishes at the boundary, nonnegative beyond
    weak, vanish, _ = _dominates_from(p1, p1, 0)
    assert weak is True and vanish is True
    # root exactly at z1 with a sign change: (z^2 - 3z + 1)(z - 3) flips sign
    flipper = poly.mul(p1, [-3, 1])
    weak, vanish, _ = _dominates_from(p1, flipper, 0)
    assert weak is False and vanish is True


def test_descartes_certificate_agrees_with_sturm_route(monkeypatch):
    """Every ordered pair of classes in the cells r = 2 m <= 8, r = 3 m <= 6
    and r = 4 m <= 5 gets the tag of the Sturm route alone, and each call the
    certificate decides is one the Sturm route calls strict in that direction."""
    from hypertree_spectra import polynomials as poly
    from hypertree_spectra import transforms

    cells = [list(enumerate_hypertrees(m, r)) for r, m_max in ((2, 8), (3, 6), (4, 5)) for m in range(1, m_max + 1)]
    pairs = [(a, b) for cell in cells for a in cell for b in cell if a is not b]
    dominates, decided = transforms._dominates_from, []

    def spy(*args):
        out = dominates(*args)
        if "descartes" in out[2]:
            decided.append(args)
        return out

    monkeypatch.setattr(transforms, "_dominates_from", spy)
    tags = [compare_order(a, b).tag for a, b in pairs]
    monkeypatch.setattr(transforms, "_dominates_from", dominates)
    monkeypatch.setattr(poly, "_float_top_root", lambda p: None)  # no guess, no certificate
    assert tags == [compare_order(a, b).tag for a, b in pairs]
    assert len(decided) > len(pairs) // 2
    for args in decided:
        weak, vanishes, witness = dominates(*args)
        assert weak and not vanishes and "descartes" not in witness


def test_descartes_certificate_falls_back():
    """A doubled top root, a root of D just above z1 and an edgeless p1 leave
    the verdict to the Sturm route."""
    from hypertree_spectra import disjoint_union
    from hypertree_spectra.transforms import _dominates_from

    edge = Hypergraph(2, 2, [(0, 1)])
    # (z - 1)^2 against z(z - 2): the difference is 1, but p1 keeps its sign below z1 = 1
    rel = compare_order(disjoint_union(edge, edge), Hypergraph(2, 4, [(0, 1), (1, 2)]))
    assert rel.tag == PRECEDES_STRICT and "descartes" not in rel.witness
    weak, _, witness = _dominates_from([1, -3, 1], [-55, 21], 0)  # 55/21 is a hair above z1
    assert not weak and "descartes" not in witness
    weak, vanishes, witness = _dominates_from([1], [0, 1], 0)  # edgeless: z1 = 0
    assert weak and vanishes and "descartes" not in witness and witness["boundary"] == ["0", "0"]


def test_descartes_certificate_decides_at_m150():
    """A 150-edge hypertree against A(150, nu, 3): the certificate decides at
    sizes where the Sturm route takes most of a second."""
    from hypertree_spectra import build_A, matching_number

    T = random_hypertree(150, 3, random.Random(1))
    rel = compare_order(T, build_A(150, matching_number(T), 3))
    assert rel.tag == PRECEDES_STRICT and "descartes" in rel.witness
