"""Hypergraph data model, partial-hypergraph operations, canonical codes."""

import itertools
import json
import random
from collections import Counter

import pytest

from hypertree_spectra import (
    Hypergraph,
    automorphism_count,
    build_Ra,
    canonical_code,
    connected_components,
    degree,
    delete_edge,
    delete_edge_closed,
    delete_vertex,
    disjoint_union,
    enumerate_hypertrees,
    from_json,
    hyperstar,
    is_isomorphic,
    is_pendent_edge,
    random_hyperforest,
    relabel,
    single_edge,
    to_json,
    validate,
)
from hypertree_spectra.enumeration import max_edges_guard
from hypertree_spectra.hypergraph import _forest_code, _incidence_walk

from conftest import path_graph
import reference_codes
import reference_validate

PATH3_R3 = build_Ra(2, 3)  # three 3-edges in a chain


def test_construction_normalizes():
    H = Hypergraph(3, 5, [(4, 2, 0), (1, 3, 2)])
    assert H.edges == ((0, 2, 4), (1, 2, 3))
    assert H.m == 2


def test_construction_rejects_duplicates_and_bad_ids():
    with pytest.raises(ValueError):
        Hypergraph(3, 5, [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(ValueError):
        Hypergraph(3, 3, [(0, 1, 5)])
    with pytest.raises(ValueError):
        Hypergraph(1, 3, [(0,)])


def test_construction_rejects_non_integer_fields():
    """r, n and vertex ids are integers: 3.0 is not cut to 3, nor 0.7 to 0."""
    with pytest.raises(ValueError, match="edge size r must be an integer"):
        Hypergraph(3.0, 3, ((0, 1, 2),))
    with pytest.raises(ValueError, match="vertex count n must be an integer"):
        Hypergraph(2, 3.5, ((0, 1),))
    with pytest.raises(ValueError, match="vertex id"):
        Hypergraph(2, 3, ((0.7, 1),))
    with pytest.raises(ValueError, match="vertex id"):
        single_edge(3).edge_tuple((0, 1, 2.0))


def test_numpy_integers_are_plain_ints():
    np = pytest.importorskip("numpy")
    H = Hypergraph(np.int64(3), np.int32(5), [np.array([0, 1, 2]), (np.int64(4), 3, 0)])
    plain = build_Ra(1, 3)
    assert H == plain and type(H.r) is int and type(H.n) is int
    assert all(type(v) is int for e in H.edges for v in e)
    assert canonical_code(H) == canonical_code(plain)
    assert H.edge_tuple(np.array([0, 4, 3])) == (0, 3, 4)


def test_validate_single_edge():
    report = validate(single_edge(3))
    assert report.uniform and report.linear and report.connected and report.acyclic
    assert report.is_hypertree
    assert report.violations == ()


def test_validate_flags_nonlinear():
    H = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])
    report = validate(H)
    assert not report.linear
    assert not report.is_hypertree
    assert any("share" in v for v in report.violations)


def test_validate_linearity_matches_pairwise_scan():
    """Violations come out as the scan over all edge pairs, in its order."""
    rng = random.Random(3)
    nonlinear = 0
    for _ in range(200):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r + 1, 9)
        edges = {
            tuple(sorted(rng.sample(range(n), rng.choice((r, r, r - 1, r + 1)))))
            for _ in range(rng.randint(0, 10))
        }
        H = Hypergraph(r, n, edges)
        expected = []
        for a, b in itertools.combinations(H.edges, 2):
            shared = len(set(a) & set(b))
            if shared > 1:
                expected.append(f"edges {a} and {b} share {shared} vertices")
        report = validate(H)
        found = [v for v in report.violations if v.startswith("edges ")]
        assert found == expected
        assert report.linear == (not expected)
        nonlinear += bool(expected)
    assert nonlinear >= 50


def test_validate_matches_reference():
    """The forest scan runs first and the vertex-pair index is built only on
    cyclic input; the reports equal those of the reference, which builds the
    index on every input, on random edge sets (non-uniform and non-linear
    ones included) and on random hyperforests with an edge added or not."""
    rng = random.Random(11)
    kinds = Counter()
    for _ in range(3000):
        r = rng.choice((2, 3, 4))
        if rng.random() < 0.5:
            n = rng.randint(1, 12)
            edges = {
                tuple(sorted(rng.sample(range(n), min(n, rng.choice((r, r, r, r - 1, r + 1))))))
                for _ in range(rng.randint(0, 8))
            }
            H = Hypergraph(r, n, edges)
        else:
            H = random_hyperforest([rng.randint(1, 6) for _ in range(rng.randint(1, 3))], r, rng)
            extra = tuple(sorted(rng.sample(range(H.n), r)))
            if rng.random() < 0.5 and extra not in H.edges:
                H = Hypergraph(r, H.n, H.edges + (extra,))
        report = validate(H)
        assert report == reference_validate.validate(H), H
        kinds.update(linear=report.linear, acyclic=report.acyclic, uniform=report.uniform)
    assert min(kinds["linear"], 3000 - kinds["linear"], kinds["acyclic"], 3000 - kinds["acyclic"]) > 300
    assert 3000 - kinds["uniform"] > 300


def test_validate_flags_disconnected():
    H = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
    report = validate(H)
    assert not report.connected
    assert report.acyclic
    assert not report.is_hypertree


def test_validate_flags_nonuniform():
    H = Hypergraph(3, 4, [(0, 1, 2, 3)])
    report = validate(H)
    assert not report.uniform


def test_degree_and_kinds():
    """Degree 1 marks a core vertex, degree > 1 an intersection vertex."""
    star = hyperstar(3, 2)
    assert degree(star, 0) == 3
    edge = single_edge(3)
    assert degree(edge, 1) == 1
    # middle edge of the 3-edge path shares vertices 0 and 1 with the others
    assert degree(PATH3_R3, 0) == 2
    assert degree(Hypergraph(3, 4, [(0, 1, 2)]), 3) == 0
    with pytest.raises(ValueError):
        degree(star, 99)


def test_pendent_edges():
    assert is_pendent_edge(PATH3_R3, (0, 3, 4))
    assert not is_pendent_edge(PATH3_R3, (0, 1, 2))
    # an isolated edge has r core vertices, hence is not pendent
    assert not is_pendent_edge(single_edge(3), (0, 1, 2))


def test_delete_edge_keeps_vertices():
    P4 = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)])
    result = delete_edge(P4, (1, 2))
    assert result.n == 4
    assert result.m == 2
    assert not validate(result).connected
    with pytest.raises(ValueError):
        delete_edge(P4, (0, 3))


def test_delete_vertex_star_center():
    star = hyperstar(3, 2)
    result = delete_vertex(star, 0)
    assert result.hypergraph.n == 3
    assert result.hypergraph.m == 0
    assert result.vertex_map == {1: 0, 2: 1, 3: 2}


def test_delete_edge_closed_middle():
    result = delete_edge_closed(PATH3_R3, (0, 1, 2))
    assert result.hypergraph.n == 4
    assert result.hypergraph.m == 0


def test_deletion_invariants():
    for H in enumerate_hypertrees(4, 3):
        for e in H.edges:
            assert delete_edge(H, e).n == H.n
            assert delete_edge(H, e).m == H.m - 1
            assert delete_edge_closed(H, e).hypergraph.n == H.n - H.r


def test_hypertree_vertex_count_identity():
    for m in range(1, 6):
        for r in (2, 3, 4):
            for H in enumerate_hypertrees(m, r):
                assert H.n == H.m * (H.r - 1) + 1


def test_disjoint_union():
    a = single_edge(3)
    two = disjoint_union(a, a)
    assert two.n == 6 and two.m == 2
    assert not validate(two).connected
    empty = Hypergraph(3, 0, ())
    assert disjoint_union(a, empty) == a
    assert disjoint_union(empty, a) == a
    with pytest.raises(ValueError):
        disjoint_union(a, single_edge(4))
    assert disjoint_union(a) == a
    three = disjoint_union(a, PATH3_R3, a)
    assert three == disjoint_union(disjoint_union(a, PATH3_R3), a)
    assert three.n == 13 and three.edges[-1] == (10, 11, 12)
    with pytest.raises(ValueError, match="edge sizes differ: 3 vs 4"):
        disjoint_union(a, a, single_edge(4))


def test_helly_property_exhaustive():
    """Every pairwise-intersecting edge family of a hypertree has a common vertex."""
    for r, m_max in [(2, 5), (3, 5), (4, 5)]:
        for m in range(1, m_max + 1):
            for H in enumerate_hypertrees(m, r):
                for size in range(1, H.m + 1):
                    for family in itertools.combinations(H.edges, size):
                        intersecting = all(
                            set(a) & set(b)
                            for a, b in itertools.combinations(family, 2)
                        )
                        if intersecting:
                            assert set.intersection(*map(set, family))


def test_canonical_code_relabel_invariance(rng):
    pool = [H for m in range(1, 6) for H in enumerate_hypertrees(m, 3)]
    pool += [H for m in range(1, 6) for H in enumerate_hypertrees(m, 2)]
    trials = 0
    while trials < 120:
        H = pool[rng.randrange(len(pool))]
        perm = list(range(H.n))
        rng.shuffle(perm)
        assert canonical_code(relabel(H, perm)) == canonical_code(H)
        trials += 1


def test_canonical_code_separates():
    assert canonical_code(hyperstar(3, 3)) != canonical_code(PATH3_R3)
    a, b = single_edge(3), hyperstar(2, 3)
    assert canonical_code(disjoint_union(a, b)) == canonical_code(disjoint_union(b, a))


def test_canonical_code_rejects_cycles():
    triangle = Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])
    # leaf peeling strips the pendent trees and leaves the cycle of three 3-edges
    hung = Hypergraph(3, 10, [(0, 1, 2), (2, 3, 4), (4, 5, 0), (1, 6, 7), (6, 8, 9)])
    shared_pair = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])
    forest = disjoint_union(disjoint_union(PATH3_R3, hung), single_edge(3))
    for H in (triangle, hung, shared_pair, forest):
        with pytest.raises(ValueError):
            canonical_code(H)
        with pytest.raises(ValueError):
            automorphism_count(H)


def test_is_isomorphic():
    P4 = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)])
    Q4 = Hypergraph(2, 4, [(2, 0), (0, 3), (3, 1)])
    assert is_isomorphic(P4, Q4)
    assert not is_isomorphic(P4, hyperstar(3, 2))


def test_automorphism_count():
    # K_{1,3}: 3! leaf swaps
    assert automorphism_count(hyperstar(3, 2)) == 6
    # P4: the flip
    assert automorphism_count(Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)])) == 2
    # single 3-edge: all 3! vertex swaps
    assert automorphism_count(single_edge(3)) == 6
    # S_3^3: permute edges (3!) and swap the two cores inside each (2^3)
    assert automorphism_count(hyperstar(3, 3)) == 48
    # two copies of P3: flip each (2 * 2) and swap the copies (2!)
    assert automorphism_count(Hypergraph(2, 6, [(0, 1), (1, 2), (3, 4), (4, 5)])) == 8
    # two 3-edges (3! each, 2! to swap them) and two isolated vertices (2!)
    assert automorphism_count(Hypergraph(3, 8, [(0, 1, 2), (4, 5, 6)])) == 144


def _brute_force_orbits(H):
    """Vertex orbits under every permutation mapping the edge set onto itself.

    Only permutations that keep each vertex's degree can do so, so the
    search runs over those alone.
    """
    edges = set(H.edges)
    by_degree = {}
    for v in range(H.n):
        by_degree.setdefault(degree(H, v), []).append(v)
    blocks = list(by_degree.values())
    orbit = {v: {v} for v in range(H.n)}
    automorphisms = 0
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        perm = {}
        for block, image in zip(blocks, images):
            perm.update(zip(block, image))
        if {tuple(sorted(perm[v] for v in e)) for e in H.edges} == edges:
            automorphisms += 1
            for v in range(H.n):
                orbit[v].add(perm[v])
    return {frozenset(o) for o in orbit.values()}, automorphisms


def test_vertex_orbits_match_brute_force():
    """Orbits read off the AHU pass equal the orbits of the automorphism
    group found by search, on every class with n <= 8 and on hyperforests
    with repeated components and isolated vertices."""
    cases = [
        H
        for r in range(2, 9)
        for m in range(1, 8 // (r - 1) + 1)
        if m * (r - 1) + 1 <= 8
        for H in enumerate_hypertrees(m, r)
    ]
    P3 = Hypergraph(2, 3, [(0, 1), (1, 2)])
    star = hyperstar(3, 2)
    cases += [
        disjoint_union(disjoint_union(P3, P3), Hypergraph(2, 1, ())),
        disjoint_union(disjoint_union(star, Hypergraph(2, 2, ())), star),
        disjoint_union(disjoint_union(P3, star), P3),
        Hypergraph(3, 8, [(0, 1, 2), (4, 5, 6)]),
        Hypergraph(3, 7, [(0, 1, 2), (2, 3, 4)]),
        Hypergraph(4, 3, ()),
    ]
    assert len(cases) > 40
    for H in cases:
        got = {}
        for v, orbit in enumerate(_forest_code(H)[2]):
            got.setdefault(orbit, set()).add(v)
        want, automorphisms = _brute_force_orbits(H)
        assert {frozenset(o) for o in got.values()} == want, H.edges
        assert automorphisms == automorphism_count(H), H.edges


def test_canonical_code_one_vertex_edge():
    """A one-vertex edge can leave two adjacent incidence-tree centers; the
    code is rooted at the edge-side one, whose code sorts first."""
    H = Hypergraph(3, 4, [(0,), (0, 1, 2)])
    assert canonical_code(H) == b"r3:e(v()v()v(e()))v()"
    assert automorphism_count(H) == 2
    assert canonical_code(Hypergraph(3, 1, [(0,)])) == b"r3:e(v())"


def test_forest_code_matches_reference():
    """The array pass gives the same (code, automorphism order, orbit ids)
    as the `_merge`-based pass of `reference_codes` on every class up to
    the guards (r = 2..6), seeded hyperforests with isolated vertices
    scattered in, edgeless input, both one-vertex-edge inputs and a
    600-edge path."""
    cases = [H for r in range(2, 7) for m in range(1, max_edges_guard(r) + 1) for H in enumerate_hypertrees(m, r)]
    assert len(cases) == 334
    rng = random.Random(25)
    for _ in range(60):
        r = rng.randint(2, 5)
        F = random_hyperforest([rng.randint(1, 12) for _ in range(rng.randint(1, 4))], r, rng)
        F = disjoint_union(F, Hypergraph(r, rng.randint(0, 5)))
        perm = list(range(F.n))
        rng.shuffle(perm)
        cases.append(relabel(F, perm))
    cases += [Hypergraph(r, n) for r in (2, 3) for n in (0, 1, 4)]
    cases += [Hypergraph(3, 4, [(0,), (0, 1, 2)]), Hypergraph(3, 1, [(0,)]), path_graph(601)]
    for H in cases:
        assert _forest_code(H) == reference_codes.forest_code(H), H.edges


def _brute_force_centers(H):
    """The center of each incidence tree by eccentricity (BFS distances),
    the edge node where two tie."""
    adjacent = [[] for _ in range(H.n + H.m)]
    for j, e in enumerate(H.edges):
        for v in e:
            adjacent[v].append(H.n + j)
            adjacent[H.n + j].append(v)

    def distances(source):
        dist = {source: 0}
        queue = [source]
        for x in queue:
            for y in adjacent[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    centers, seen = set(), set()
    for source in range(H.n + H.m):
        if source not in seen:
            tree = distances(source)
            seen.update(tree)
            eccentricity = {x: max(distances(x).values()) for x in tree}
            least = min(eccentricity.values())
            centers.add(max(x for x in tree if eccentricity[x] == least))  # edge ids follow vertex ids
    return centers


def test_incidence_walk_roots_each_tree_at_its_center():
    """The walk lists every node once, each after its parent, which is an
    incidence neighbour, and roots each incidence tree at its center."""
    cases = [H for r in range(2, 7) for m in range(1, max_edges_guard(r) + 1) for H in enumerate_hypertrees(m, r)]
    P3 = Hypergraph(2, 3, [(0, 1), (1, 2)])
    star = hyperstar(3, 2)
    cases += [
        disjoint_union(disjoint_union(P3, P3), Hypergraph(2, 1, ())),
        disjoint_union(disjoint_union(star, Hypergraph(2, 2, ())), star),
        disjoint_union(disjoint_union(P3, star), P3),
        Hypergraph(3, 8, [(0, 1, 2), (4, 5, 6)]),
        Hypergraph(3, 7, [(0, 1, 2), (2, 3, 4)]),
        Hypergraph(4, 3, ()),
        Hypergraph(3, 4, [(0,), (0, 1, 2)]),
        Hypergraph(3, 1, [(0,)]),
    ]
    for H in cases:
        order, parent = _incidence_walk(H)
        assert sorted(order) == list(range(H.n + H.m)), H.edges
        position = {x: i for i, x in enumerate(order)}
        for x, p in enumerate(parent):
            if p >= 0:
                vertex, edge = sorted((x, p))
                assert edge >= H.n and vertex in H.edges[edge - H.n], H.edges
                assert position[p] < position[x], H.edges
        assert {x for x, p in enumerate(parent) if p < 0} == _brute_force_centers(H), H.edges


def test_canonical_code_deep_path():
    """A 600-edge path is far deeper than the interpreter's recursion limit."""
    P = path_graph(601)
    code = canonical_code(P)
    assert len(code) == len("r2:") + 3 * (P.n + P.m)  # each node is "v()" or "e()"
    assert code == canonical_code(relabel(P, list(reversed(range(P.n)))))
    assert automorphism_count(P) == 2


def test_connected_components():
    H = Hypergraph(3, 8, [(0, 1, 2), (4, 5, 6)])
    assert connected_components(H) == [[0, 1, 2], [3], [4, 5, 6], [7]]


def test_json_round_trip():
    H = PATH3_R3
    text = to_json(H)
    data = json.loads(text)
    assert data["edges"] == sorted(data["edges"])
    assert from_json(text) == H
    # readers accept any edge order
    shuffled = dict(data)
    shuffled["edges"] = list(reversed(data["edges"]))
    assert from_json(json.dumps(shuffled)) == H


def test_hypertree_paths_unique():
    """On a hypertree the edge sequence between two vertices is unique:
    exhaustive search finds exactly one."""

    def all_edge_paths(H, u, v):
        found = []

        def walk(at, used_edges, used_vertices, trail):
            if at == v:
                found.append(tuple(trail))
                return
            for e in H.edges:
                if at in e and e not in used_edges:
                    for w in e:
                        if w != at and w not in used_vertices:
                            walk(w, used_edges | {e}, used_vertices | {w}, trail + [e])

        walk(u, frozenset(), frozenset({u}), [])
        return found

    for m in range(2, 5):
        for H in enumerate_hypertrees(m, 3):
            for u in range(H.n):
                for v in range(u + 1, H.n):
                    assert len(all_edge_paths(H, u, v)) == 1, (H.edges, u, v)
