"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import random

from hypertree_spectra import (
    build_Ra,
    build_Tvab,
    canonical_code,
    compare_order,
    delete_edge,
    delete_edge_closed,
    delete_vertex,
    disjoint_union,
    enumerate_hypertrees,
    hyperstar,
    is_pendent_edge,
    matching_polynomial,
    move_edges,
    edge_release,
    perfect_matching_bound,
    random_hyperforest,
    random_hypertree,
    rho_bound,
    run_suite,
    naive_filter_class_count,
    labeled_count_from_classes,
    labeled_hypertree_count,
    spectral_radius_polyroot,
    spectral_radius_power,
    tree_class_count_prufer,
    verify_extremal,
    verify_perfect_matching,
)
from hypertree_spectra.constructions import CompositionVector
from hypertree_spectra.enumeration import NAIVE_FILTER_CELLS
from hypertree_spectra.harness import SuiteConfig
from sparse_poly import sp_equal, sp_monomial, sp_mul, sp_pow, sp_sub
from conftest import perfect_cells, perfect_matching_reference
from hypertree_spectra.transforms import PRECEDES_STRICT, is_majorized, majorization_chain

DESK_RANGE = [(2, 8), (3, 6), (4, 5)]


def _desk_hypertrees():
    for r, m_max in DESK_RANGE:
        for m in range(1, m_max + 1):
            for H in enumerate_hypertrees(m, r):
                yield H


def test_criterion_1_extremality():
    """Unique max-rho class is A(m, k, r) and hits the bound, both readings."""
    checked = 0
    for at_least in (False, True):
        config = SuiteConfig(ranges=DESK_RANGE, at_least=at_least)
        result = run_suite(config)
        assert result.exit_code == 0, [row for row in result.rows if not row["passed"]]
        for row in result.rows:
            if not row["feasible"]:
                continue
            assert row["unique"] is True, row
            assert row["matches_bound"] is True, row
            assert row["winner_is_construction"] is True, row
            checked += 1
    print(f"criterion 1 PASS - extremality: {checked} feasible cases, both interpretations")


def test_criterion_2_golden_ratio():
    bound = rho_bound(3, 2, 2)
    assert abs(bound.rho - 1.618033989) <= 1e-9
    report = verify_extremal(3, 2, 2)
    from conftest import path_graph

    assert report.winner_code == canonical_code(path_graph(4))
    assert report.passed
    print(f"criterion 2 PASS - golden ratio: rho_bound(3,2,2) = {bound.rho:.10f}, winner is the 4-vertex path")


def test_criterion_3_cross_method_agreement():
    worst_gap = 0.0
    worst_residual = 0.0
    count = 0
    for H in _desk_hypertrees():
        power = spectral_radius_power(H)
        root = spectral_radius_polyroot(H)
        gap = abs(power.rho - root.rho) / root.rho
        assert gap <= 1e-6, (H.edges, gap)
        assert power.residual <= 1e-10, (H.edges, power.residual)
        worst_gap = max(worst_gap, gap)
        worst_residual = max(worst_residual, power.residual)
        count += 1
    print(
        f"criterion 3 PASS - cross-method: {count} hypertrees, worst gap {worst_gap:.2e},"
        f" worst residual {worst_residual:.2e}"
    )


def _phi(H):
    return matching_polynomial(H).coeffs


def test_criterion_4_matching_identities():
    """Product, edge-deletion, and vertex recurrences, exactly."""
    edge_checks = vertex_checks = 0
    for H in _desk_hypertrees():
        phi = _phi(H)
        for e in H.edges:
            lhs = sp_sub(_phi(delete_edge(H, e)), _phi(delete_edge_closed(H, e).hypergraph))
            assert sp_equal(phi, lhs), (H.edges, e)
            edge_checks += 1
        for u in range(H.n):
            acc = sp_mul({1: 1}, _phi(delete_vertex(H, u).hypergraph))
            for e in H.edges:
                if u in e:
                    acc = sp_sub(acc, _phi(delete_edge_closed(H, e).hypergraph))
            assert sp_equal(phi, acc), (H.edges, u)
            vertex_checks += 1
    rng = random.Random(40813)
    for i in range(500):
        r = rng.choice([2, 3, 4])
        F = random_hyperforest([rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))], r, rng)
        G = random_hyperforest([rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))], r, rng)
        union = disjoint_union(F, G)
        assert sp_equal(_phi(union), sp_mul(_phi(F), _phi(G)))
        if F.m:
            e = F.edges[rng.randrange(F.m)]
            assert sp_equal(_phi(F), sp_sub(_phi(delete_edge(F, e)), _phi(delete_edge_closed(F, e).hypergraph)))
        u = rng.randrange(F.n)
        acc = sp_mul({1: 1}, _phi(delete_vertex(F, u).hypergraph))
        for e in F.edges:
            if u in e:
                acc = sp_sub(acc, _phi(delete_edge_closed(F, e).hypergraph))
        assert sp_equal(_phi(F), acc)
    print(
        f"criterion 4 PASS - recurrences: {edge_checks} edge checks, {vertex_checks} vertex checks,"
        " 500 random hyperforests, all exact"
    )


def test_criterion_5_closed_forms():
    cases_a = 0
    for r in (2, 3, 4, 5):
        for a in range(1, r + 1):
            expanded = sp_sub(
                sp_mul(sp_monomial(r - a), sp_pow({r: 1, 0: -1}, a)),
                sp_monomial(a * (r - 1)),
            )
            assert sp_equal(_phi(build_Ra(a, r)), expanded), (a, r)
            cases_a += 1
    rng = random.Random(51521)
    cases_b = 0
    while cases_b < 50:
        r = rng.choice([3, 4, 5])
        T = random_hypertree(rng.randrange(1, 5), r, rng)
        v = rng.randrange(T.n)
        a = rng.randrange(0, r)
        if a > r - 1:
            continue
        from hypertree_spectra import build_Tva

        lhs = _phi(build_Tva(T, v, a))
        rhs = sp_sub(
            sp_mul(sp_mul(sp_monomial(r - a - 1), sp_pow({r: 1, 0: -1}, a)), _phi(T)),
            sp_mul(sp_monomial(a * (r - 1)), _phi(delete_vertex(T, v).hypergraph)),
        )
        assert sp_equal(lhs, rhs), (T.edges, v, a)
        cases_b += 1
    print(f"criterion 5 PASS - closed forms: {cases_a} gadget polynomials, {cases_b} glued identities, exact")


def _assert_strict(first, second, context):
    rel = compare_order(first, second)
    assert rel.tag == PRECEDES_STRICT, (context, rel.tag)
    r1 = spectral_radius_polyroot(first).rho
    r2 = spectral_radius_polyroot(second).rho
    assert r1 < r2 - 1e-9, (context, r1, r2)


def test_criterion_6_ordering_verdicts():
    deletions = releases = swaps = 0
    for r in (2, 3, 4):
        for m in range(1, 6):
            for H in enumerate_hypertrees(m, r):
                for e in H.edges:
                    _assert_strict(delete_edge(H, e), H, ("delete", H.edges, e))
                    deletions += 1
                if m < 2:
                    continue
                for e in H.edges:
                    if is_pendent_edge(H, e):
                        continue
                    _assert_strict(H, edge_release(H, e), ("release", H.edges, e))
                    releases += 1
    from hypertree_spectra import Hypergraph

    for r in (3, 4, 5):
        bases = [Hypergraph(r, 1, ())] + list(enumerate_hypertrees(1, r))
        for T in bases:
            for v in range(T.n):
                for a in range(1, r - 1):
                    for b in range(1, a + 1):
                        if T.m + a + b + 2 > 5:
                            continue
                        lower = build_Tvab(T, v, a, b)
                        upper = build_Tvab(T, v, a + 1, b - 1)
                        _assert_strict(lower, upper, ("swap", r, T.edges, v, a, b))
                        swaps += 1
    assert swaps > 0
    print(
        f"criterion 6 PASS - ordering: {deletions} deletions, {releases} releases,"
        f" {swaps} gadget swaps, all strict with certificates"
    )


def test_criterion_7_majorization_chains():
    rng = random.Random(62901)
    done = 0
    while done < 1000:
        b = rng.randrange(2, 9)
        c = rng.randrange(1, 7)
        upper = tuple(sorted((rng.randrange(0, c + 1) for _ in range(b)), reverse=True))
        lower = list(upper)
        for _ in range(rng.randrange(0, 10)):
            i = rng.randrange(b - 1)
            j = rng.randrange(i + 1, b)
            trial = list(lower)
            trial[i] -= 1
            trial[j] += 1
            if trial[i] >= 0 and all(x >= y for x, y in zip(trial, trial[1:])):
                lower = trial
        lower = tuple(lower)
        assert is_majorized(lower, upper)
        chain = majorization_chain(
            CompositionVector(lower, cap=c), CompositionVector(upper, cap=c)
        )
        l1 = sum(abs(a - b_) for a, b_ in zip(lower, upper))
        assert len(chain) == l1 // 2 + 1
        assert chain[0].entries == upper and chain[-1].entries == lower
        for above, below in zip(chain, chain[1:]):
            diffs = [b_ - a for a, b_ in zip(above.entries, below.entries) if a != b_]
            assert sorted(diffs) == [-1, 1]
            assert is_majorized(below.entries, above.entries)
            assert below.entries[0] <= c
        done += 1
    print("criterion 7 PASS - majorization: 1000 random chains, all valid")


def test_criterion_8_star_closed_form():
    worst = 0.0
    for r in (2, 3, 4, 5, 6):
        for m in range(1, 51):
            star = hyperstar(m, r)
            expected = m ** (1 / r)
            for result in (spectral_radius_power(star), spectral_radius_polyroot(star)):
                err = abs(result.rho - expected)
                assert err <= 1e-9, (m, r, result.method, err)
                worst = max(worst, err)
    print(f"criterion 8 PASS - stars: m <= 50, r in 2..6, both methods, worst error {worst:.2e}")


def test_criterion_9_monotonicity_and_moving():
    removals = 0
    for r in (2, 3, 4):
        for m in range(2, 6):
            for H in enumerate_hypertrees(m, r):
                rho = spectral_radius_polyroot(H).rho
                for e in H.edges:
                    if not is_pendent_edge(H, e):
                        continue
                    rho_smaller = spectral_radius_polyroot(delete_edge(H, e)).rho
                    assert rho > rho_smaller + 1e-9
                    removals += 1
    moves = 0
    for r in (2, 3, 4):
        for m in range(2, 6):
            for H in enumerate_hypertrees(m, r):
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
                            assert spectral_radius_power(moved).rho > power.rho + 1e-9, (
                                H.edges,
                                e,
                                v,
                                u,
                            )
                            moves += 1
    print(f"criterion 9 PASS - monotonicity: {removals} pendent removals, {moves} eigenvector-gated moves, all strict")


def test_criterion_10_perfect_matching():
    for r, k in [(2, 2), (2, 3), (2, 4), (3, 3)]:
        report = verify_perfect_matching(r, k)
        assert report.passed, (r, k, report)
    agreements = 0
    for m, r, k in perfect_cells():
        expected = perfect_matching_reference(m, r)
        for bound in (perfect_matching_bound(m, r), rho_bound(m, k, r)):
            assert (bound.alpha0, bound.rho, bound.certificate) == expected, (m, r)
        agreements += 1
    print(f"criterion 10 PASS - perfect matchings: 4 verified cases, {agreements} bound consistency checks")


def test_criterion_11_enumeration_baseline():
    counts = [len(enumerate_hypertrees(m, 2)) for m in range(1, 8)]
    assert counts == [1, 1, 2, 3, 6, 11, 23]
    oracle = [tree_class_count_prufer(m + 1) for m in range(1, 8)]
    assert oracle == [1, 1, 2, 3, 6, 11, 23]
    naive_cells = 0
    for m, r in sorted(NAIVE_FILTER_CELLS):
        assert naive_filter_class_count(m, r) == len(enumerate_hypertrees(m, r)), (m, r)
        naive_cells += 1
    # the (m=4, r=4) subset space is ~1.1e10 candidates; completeness there
    # (and everywhere) is certified by the exact labeled-count identity
    identity_cells = 0
    for r in (2, 3, 4):
        for m in range(1, 5):
            assert labeled_count_from_classes(m, r) == labeled_hypertree_count(m, r), (m, r)
            identity_cells += 1
    print(
        f"criterion 11 PASS - enumeration: r=2 counts {counts}, {naive_cells} naive-filter cells,"
        f" labeled-count identity on {identity_cells} cells incl. (4,4)"
    )
