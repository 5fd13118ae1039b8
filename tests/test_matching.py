"""Matching counts, the matching polynomial, and its recurrences."""

import json
import math
import random
import re

import pytest

from hypertree_spectra import (
    Hypergraph,
    MatchPoly,
    brute_force_counts,
    build_Ra,
    delete_edge,
    delete_edge_closed,
    delete_vertex,
    disjoint_union,
    enumerate_hypertrees,
    hyperstar,
    is_acyclic,
    matching_counts,
    matching_number,
    matching_polynomial,
    random_hyperforest,
    random_hypertree,
    single_edge,
)
from hypertree_spectra.enumeration import max_edges_guard
from hypertree_spectra.matching import BRUTE_FORCE_EDGE_LIMIT, _forest_counts
from reference_counts import forest_counts
from sparse_poly import sp_equal, sp_mul, sp_sub

from conftest import path_graph

PATH3_R3 = build_Ra(2, 3)


def test_star_counts():
    for m in (1, 2, 5):
        for r in (2, 3):
            assert matching_counts(hyperstar(m, r)).counts == (1, m)


def test_path_counts():
    assert matching_counts(path_graph(4)).counts == (1, 3, 1)
    assert matching_counts(PATH3_R3).counts == (1, 3, 1)


def test_matching_number():
    assert matching_number(hyperstar(5, 3)) == 1
    assert matching_number(path_graph(4)) == 2
    assert matching_number(single_edge(4)) == 1


def test_matching_polynomial_examples():
    assert matching_polynomial(hyperstar(3, 2)).coeffs == {4: 1, 2: -3}
    assert matching_polynomial(path_graph(4)).coeffs == {4: 1, 2: -3, 0: 1}
    assert matching_polynomial(PATH3_R3).coeffs == {7: 1, 4: -3, 1: 1}


def test_brute_force_examples():
    assert brute_force_counts(Hypergraph(3, 3, ())).counts == (1,)
    assert brute_force_counts(hyperstar(2, 3)).counts == (1, 2)
    assert brute_force_counts(PATH3_R3).counts == (1, 3, 1)


def test_brute_force_guard():
    big = hyperstar(26, 2)
    with pytest.raises(ValueError):
        brute_force_counts(big)


def test_counts_match_brute_force_exhaustive():
    for r, m_max in [(2, 6), (3, 6), (4, 5)]:
        for m in range(1, m_max + 1):
            for H in enumerate_hypertrees(m, r):
                assert matching_counts(H).counts == brute_force_counts(H).counts


def test_counts_match_brute_force_r4_m6(rng):
    # the enumeration guard stops at m=5 for r=4, so sample m=6 randomly
    for _ in range(30):
        H = random_hypertree(6, 4, rng)
        assert matching_counts(H).counts == brute_force_counts(H).counts


def test_counts_on_forests(rng):
    for _ in range(25):
        F = random_hyperforest([rng.randrange(1, 4) for _ in range(3)], 3, rng)
        assert matching_counts(F).counts == brute_force_counts(F).counts


def test_matching_counts_rejects_invalid():
    nonlinear = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(ValueError):
        matching_counts(nonlinear)


def test_profile_invariants():
    for H in enumerate_hypertrees(5, 3):
        profile = matching_counts(H)
        assert profile.counts[0] == 1
        assert profile.counts[1] == H.m
        assert profile.counts[-1] >= 1
        assert profile.nu * H.r <= H.n


def test_matchpoly_invariants():
    for H in enumerate_hypertrees(6, 3):
        phi = matching_polynomial(H)
        assert phi.coeffs[H.n] == 1
        for e, c in phi.coeffs.items():
            assert (H.n - e) % H.r == 0
            k = (H.n - e) // H.r
            assert (c > 0) == (k % 2 == 0)


def test_matchpoly_type_rejects_bad():
    with pytest.raises(ValueError):
        MatchPoly(4, 2, {4: 2})
    with pytest.raises(ValueError):
        MatchPoly(4, 2, {4: 1, 3: -1})
    with pytest.raises(ValueError):
        MatchPoly(4, 2, {4: 1, 2: 3})


def test_product_rule(rng):
    """phi of a disjoint union is the product of the factors' phis."""
    for _ in range(60):
        G = random_hypertree(rng.randrange(1, 5), 3, rng)
        H = random_hypertree(rng.randrange(1, 5), 3, rng)
        union = disjoint_union(G, H)
        lhs = matching_polynomial(union).coeffs
        rhs = sp_mul(matching_polynomial(G).coeffs, matching_polynomial(H).coeffs)
        assert sp_equal(lhs, rhs)


def test_edge_deletion_rule():
    """phi(G) = phi(G minus e) - phi(G - V(e)) for every edge, exactly."""
    for m in range(1, 6):
        for H in enumerate_hypertrees(m, 3):
            phi = matching_polynomial(H).coeffs
            for e in H.edges:
                without = matching_polynomial(delete_edge(H, e)).coeffs
                closed = matching_polynomial(delete_edge_closed(H, e).hypergraph).coeffs
                assert sp_equal(phi, sp_sub(without, closed))


def test_vertex_rule():
    """phi(G) = x phi(G-u) - sum over edges at u of phi(G - V(e))."""
    for m in range(1, 6):
        for H in enumerate_hypertrees(m, 2):
            phi = matching_polynomial(H).coeffs
            for u in range(H.n):
                acc = sp_mul({1: 1}, matching_polynomial(delete_vertex(H, u).hypergraph).coeffs)
                for e in H.edges:
                    if u in e:
                        term = matching_polynomial(delete_edge_closed(H, e).hypergraph).coeffs
                        acc = sp_sub(acc, term)
                assert sp_equal(phi, acc)


def test_z_coeffs():
    assert matching_counts(path_graph(4)).z_poly() == [1, -3, 1]
    assert matching_counts(hyperstar(5, 3)).z_poly() == [-5, 1]


def test_json_round_trip():
    phi = matching_polynomial(PATH3_R3)
    data = json.loads(phi.to_json())
    assert data["coeffs"]["7"] == "1"
    assert data["coeffs"]["4"] == "-3"
    assert MatchPoly.from_json(phi.to_json()) == phi
    assert MatchPoly.from_json_dict(phi.to_json_dict()) == phi
    # ints are read as they are
    ints = {"n": 7, "r": 3, "coeffs": {7: 1, "4": -3, "1": "1"}}
    assert MatchPoly.from_json_dict(ints) == phi


@pytest.mark.parametrize(
    "data, field",
    [
        ({"n": 4, "r": 2, "coeffs": {"4": 1.5}}, "coeffs['4']"),
        ({"n": 4, "r": 2, "coeffs": {"4": True}}, "coeffs['4']"),
        ({"n": 4, "r": 2, "coeffs": {"4.0": 1}}, "coeffs"),
        ({"n": 4, "r": 2, "coeffs": {"4": "1e0"}}, "coeffs['4']"),
        ({"n": 4.0, "r": 2, "coeffs": {"4": 1}}, "n"),
        ({"n": 4, "r": False, "coeffs": {"4": 1}}, "r"),
        ({"n": 4, "r": 2, "coeffs": [[4, 1]]}, "coeffs"),
        ({"r": 2, "coeffs": {"4": 1}}, "n"),
        ({"n": 4, "coeffs": {"4": 1}}, "r"),
        ({"n": 4, "r": 2}, "coeffs"),
        ({"n": 3, "r": 0, "coeffs": {"3": 1}}, "r"),
        ({"n": 3, "r": 1, "coeffs": {"3": 1}}, "r"),
        ({"n": -2, "r": 2, "coeffs": {"-2": 1}}, "n"),
    ],
)
def test_json_rejects_malformed_fields(data, field):
    with pytest.raises(ValueError, match=re.escape(f"field {field!r}")):
        MatchPoly.from_json_dict(data)


@pytest.mark.parametrize("data", [[], "x^4", 4, None])
def test_json_rejects_non_objects(data):
    with pytest.raises(ValueError, match="JSON object"):
        MatchPoly.from_json_dict(data)
    with pytest.raises(ValueError, match="JSON object"):
        MatchPoly.from_json(json.dumps(data))


def test_edges_at_vertex_rule():
    """For any subset J of the edges at one vertex,
    phi(G) = phi(G minus J) - sum over e in J of phi(G - V(e))."""
    from itertools import combinations

    for m in range(1, 5):
        for H in enumerate_hypertrees(m, 3):
            phi = matching_polynomial(H).coeffs
            for u in range(H.n):
                at_u = [e for e in H.edges if u in e]
                for size in range(1, len(at_u) + 1):
                    for J in combinations(at_u, size):
                        stripped = H
                        for e in J:
                            stripped = delete_edge(stripped, e)
                        acc = matching_polynomial(stripped).coeffs
                        for e in J:
                            acc = sp_sub(
                                acc,
                                matching_polynomial(
                                    delete_edge_closed(H, e).hypergraph
                                ).coeffs,
                            )
                        assert sp_equal(phi, acc), (H.edges, u, J)


def test_counts_deep_path():
    """The tree pass has no recursion: a 600-edge path counts at the default limit."""
    n = 601
    counts = matching_counts(path_graph(n)).counts
    assert counts == tuple(math.comb(n - k, k) for k in range(n // 2 + 1))


def _two_matchings(H):
    deg = [0] * H.n
    for e in H.edges:
        for v in e:
            deg[v] += 1
    return math.comb(H.m, 2) - sum(math.comb(d, 2) for d in deg)


def test_counts_long_path_with_triangle():
    """A cycle far from the start recurses once, not once per edge."""
    path = path_graph(1201)
    H = Hypergraph(2, 1202, path.edges + ((1199, 1201), (1200, 1201)))
    assert not is_acyclic(H)
    counts = matching_counts(H).counts
    assert counts[1] == H.m == 1202
    assert counts[2] == _two_matchings(H)


def test_disjoint_cycles_count_apart():
    """Cyclic components count one by one: k triangles give C(k, j) 3^j."""
    k = 40
    edges = [(3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (1, 2), (0, 2))]
    H = disjoint_union(Hypergraph(2, 3 * k, tuple(edges)), path_graph(7))
    counts = matching_counts(H).counts
    path = (1, 6, 10, 4)
    expected = [0] * (k + 4)
    for j in range(k + 1):
        for i, c in enumerate(path):
            expected[j + i] += math.comb(k, j) * 3**j * c
    assert counts == tuple(expected)


def _random_cyclic(r, rng):
    """A random linear r-uniform hypergraph with at least one cycle."""
    while True:
        n = rng.randint(r + 2, 12)
        edges = []
        for _ in range(rng.randint(3, 14)):
            e = tuple(sorted(rng.sample(range(n), r)))
            if all(len(set(e) & set(f)) <= 1 for f in edges):
                edges.append(e)
        H = Hypergraph(r, n, tuple(edges))
        if not is_acyclic(H):
            return H


def test_cyclic_counts_match_brute_force():
    rng = random.Random(11)
    for r in (2, 3):
        for _ in range(40):
            H = _random_cyclic(r, rng)
            assert matching_counts(H).counts == brute_force_counts(H).counts


def _assert_packed_fold(H):
    """The packed-int fold against the list fold, and brute force where it runs."""
    counts = _forest_counts(H)
    assert counts == forest_counts(H), H.edges
    if H.m <= BRUTE_FORCE_EDGE_LIMIT:
        assert tuple(counts) == brute_force_counts(H).counts, H.edges


def test_packed_fold_on_every_class():
    classes = [H for r in range(2, 7) for m in range(1, max_edges_guard(r) + 1) for H in enumerate_hypertrees(m, r)]
    assert len(classes) > 300
    for H in classes:
        _assert_packed_fold(H)


def _scatter(F, n, rng):
    """F relabelled at random into n >= F.n vertices, the rest isolated."""
    label = rng.sample(range(n), n)
    return Hypergraph(F.r, n, tuple(tuple(label[v] for v in e) for e in F.edges))


def test_packed_fold_on_forests_with_isolated_vertices():
    rng = random.Random(7)
    for _ in range(60):
        F = random_hyperforest([rng.randrange(1, 7) for _ in range(rng.randrange(2, 5))], rng.choice((2, 3, 4)), rng)
        _assert_packed_fold(_scatter(F, F.n + rng.randrange(1, 5), rng))
    # components whose counts need slots of different widths
    for sizes in ([40, 1], [1, 60, 9], [120, 30, 2]):
        F = random_hyperforest(sizes, 3, rng)
        _assert_packed_fold(_scatter(F, F.n + 3, rng))


def test_packed_fold_without_edges():
    for n in (0, 1, 5):
        assert _forest_counts(Hypergraph(3, n, ())) == [1]


def test_packed_fold_big_tree():
    H = random_hypertree(1000, 3, random.Random(1))
    counts = _forest_counts(H)
    assert counts == forest_counts(H)
    assert counts[:2] == [1, 1000] and counts[2] == _two_matchings(H)


@pytest.mark.parametrize("j", range(1, 17))
def test_packed_fold_at_slot_boundaries(j):
    """A hyperstar with m edges has m + 1 matchings, so 2^j - 1 and 2^j - 2
    edges put M(H, 1) at and just below a power of two."""
    for m in (2**j - 1, 2**j - 2):
        if m < 1:
            continue
        H = hyperstar(m, 2 if j > 10 else 3)
        assert _forest_counts(H) == [1, m]
        if j <= 12:
            assert forest_counts(H) == [1, m]
