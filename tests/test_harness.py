"""Verification reports, the suite driver, and winner structure checks."""

import dataclasses
import json
import math
from fractions import Fraction
from functools import cmp_to_key

import pytest

from hypertree_spectra import constructions, harness, polynomials as poly
from hypertree_spectra import (
    InfeasibleParameters,
    SuiteConfig,
    brute_force_counts,
    build_A,
    canonical_code,
    default_config,
    enumerate_T_mkr,
    is_pendent_edge,
    hyperstar,
    matching_counts,
    rho_bound,
    run_suite,
    verify_extremal,
    verify_perfect_matching,
)
from hypertree_spectra.constructions import _cleared_bound_poly, extremal_params
from hypertree_spectra.enumeration import max_edges_guard

import reference_poly as ref
from conftest import path_graph


def test_verify_331():
    report = verify_extremal(3, 2, 3)
    assert report.class_count == 1
    assert abs(report.winner_rho - 1.3782407724892103) < 1e-9
    assert report.unique and report.matches_bound and report.winner_is_construction
    assert report.passed


def test_verify_golden():
    report = verify_extremal(3, 2, 2)
    assert abs(report.winner_rho - 1.6180339887498949) < 1e-9
    assert report.winner_code == canonical_code(path_graph(4))
    assert report.passed


def test_verify_stars():
    for m, r in [(4, 2), (5, 3), (4, 4)]:
        report = verify_extremal(m, 1, r)
        assert report.winner_code == canonical_code(hyperstar(m, r))
        assert abs(report.winner_rho - m ** (1 / r)) < 1e-9
        assert report.passed


def test_verify_infeasible_raises():
    with pytest.raises(InfeasibleParameters):
        verify_extremal(5, 4, 3)


def test_verify_at_least_interpretation():
    report = verify_extremal(4, 2, 3, at_least=True)
    assert report.interpretation == "at-least-nu"
    assert report.passed


def test_verify_perfect_matching_examples():
    report = verify_perfect_matching(2, 2)
    assert report.m == 3
    assert report.winner_code == canonical_code(path_graph(4))
    assert abs(report.winner_rho - 1.618034) < 1e-6
    assert report.passed
    report = verify_perfect_matching(3, 3)
    assert report.m == 4
    assert abs(report.winner_rho - 1.4655712318767682) < 1e-9
    assert report.passed
    with pytest.raises(ValueError):
        verify_perfect_matching(3, 2)  # m = 5/2


def test_winner_matching_structure():
    """Each extremal winner (m >= 2) has a maximum matching of pendent edges,
    and the leftover edges all pass through one vertex."""
    for r, m_max in [(2, 6), (3, 5), (4, 4)]:
        for m in range(2, m_max + 1):
            for k in range(1, m + 1):
                try:
                    report = verify_extremal(m, k, r)
                except InfeasibleParameters:
                    continue
                winner = build_A(m, k, r)
                assert report.winner_code == canonical_code(winner)
                witnesses = _pendent_maximum_matchings(winner, k)
                assert witnesses, (m, k, r)
                assert any(
                    _rest_has_common_vertex(winner, M) for M in witnesses
                ), (m, k, r)


def _pendent_maximum_matchings(H, k):
    """All maximum matchings consisting solely of pendent edges."""
    from itertools import combinations

    assert brute_force_counts(H).nu == k
    out = []
    for subset in combinations(H.edges, k):
        vertices = [v for e in subset for v in e]
        if len(set(vertices)) != len(vertices):
            continue
        if all(is_pendent_edge(H, e) for e in subset):
            out.append(subset)
    return out


def _rest_has_common_vertex(H, matching):
    rest = [e for e in H.edges if e not in set(matching)]
    if not rest:
        return True
    return bool(set.intersection(*map(set, rest)))


def test_suite_default_passes(tmp_path):
    config = default_config()
    config.csv_path = str(tmp_path / "report.csv")
    config.json_path = str(tmp_path / "report.json")
    result = run_suite(config)
    assert result.exit_code == 0
    text = (tmp_path / "report.csv").read_text()
    assert text.splitlines()[0] == "m,k,r,q,s,l,classes,winner_code,winner_rho,bound_rho,unique,matches_bound"
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["all_passed"] is True


def test_suite_marks_infeasible_not_failure():
    # an infeasible triple past the enumeration guard is a row too
    config = SuiteConfig(triples=[(5, 4, 3), (12, 12, 3)])
    result = run_suite(config)
    assert result.exit_code == 0
    assert len(result.rows) == 2
    for row in result.rows:
        assert row["winner_code"] == "infeasible"
        assert row["feasible"] is False


@pytest.mark.parametrize(
    "triples, message",
    [
        ([(9, 4, 2), (7, 3, 3), (12, 2, 3)], "m=12 exceeds the enumeration guard for r=3"),
        ([(5, 3, 2), (4, 5, 3)], "need m >= k >= 1"),
    ],
)
def test_suite_checks_every_triple_before_any_runs(monkeypatch, tmp_path, triples, message):
    """An explicit triple that cannot run fails the config before the first
    verification, whatever its place in the sort order, as a range past the
    guard does."""
    calls, verify = [], harness.verify_extremal
    monkeypatch.setattr(harness, "verify_extremal", lambda *args, **kw: calls.append(args) or verify(*args, **kw))
    csv_path = tmp_path / "report.csv"
    with pytest.raises(ValueError, match=message):
        run_suite(SuiteConfig(triples=triples, csv_path=str(csv_path)))
    assert calls == [] and not csv_path.exists()


@pytest.mark.parametrize("m_max", [0, 3, 9])
def test_suite_range_below_edge_size_two(m_max):
    """A range with r < 2 is an edge-size error whatever its m_max, not a
    breach of a guard that r has none of."""
    config = SuiteConfig.from_json_dict({"ranges": [{"r": 1, "m_max": m_max}]})
    with pytest.raises(ValueError, match="^edge size must be at least 2$"):
        config.all_triples()


def test_suite_empty_config():
    result = run_suite(SuiteConfig())
    assert result.exit_code == 0
    assert result.rows == []
    assert result.csv_text.strip() == "m,k,r,q,s,l,classes,winner_code,winner_rho,bound_rho,unique,matches_bound"


def test_suite_deterministic():
    config = SuiteConfig(ranges=[(3, 4)])
    first = run_suite(config)
    second = run_suite(config)
    assert first.csv_text == second.csv_text
    assert first.json_text == second.json_text


def test_suite_config_json_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "triples": [[3, 2, 3]],
                "ranges": [{"r": 2, "m_max": 3}],
                "at_least": True,
            }
        )
    )
    config = SuiteConfig.load(str(path))
    assert (3, 2, 3) in config.all_triples()
    assert (3, 1, 2) in config.all_triples()
    assert config.at_least is True


def _coarse(rec):
    """The record with the first isolating interval of its rho^r as its
    bracket: still sound, but wide enough to overlap its neighbours'."""
    top = poly.isolate_real_roots(matching_counts(rec.hypergraph).z_poly())[-1]
    return dataclasses.replace(rec, certificate=(top[1], top[-1]))


def test_verdicts_on_overlapping_brackets(monkeypatch):
    """Where brackets overlap, the winner, `unique` and `matches_bound`
    come from the exact fallback, and agree with the narrow brackets."""
    cases = [(7, 3, 2, False), (7, 2, 2, False), (6, 3, 3, False), (5, 2, 4, True), (6, 2, 2, True)]
    expected = [verify_extremal(*case) for case in cases]
    calls = []
    refine = poly.refine_isolating
    monkeypatch.setattr(poly, "refine_isolating", lambda *args: calls.append(args) or refine(*args))
    monkeypatch.setattr(
        harness, "enumerate_T_mkr", lambda *args, **kwargs: map(_coarse, enumerate_T_mkr(*args, **kwargs))
    )
    assert [verify_extremal(*case) for case in cases] == expected
    assert len(calls) >= len(cases)


def test_exact_tie_is_not_unique(monkeypatch):
    """Two classes at (7, 3, 2) share rho^r = 4; one bracket is the point 4
    and the other the first's isolating interval, open around it, so only
    the exact fallback can call the tie."""
    tied = [rec for rec in enumerate_T_mkr(7, 3, 2) if rec.rho == 2.0]
    assert len(tied) == 2
    tied[0] = _coarse(tied[0])
    assert tied[0].certificate[0] < 4 < tied[0].certificate[1] and tied[1].certificate == (4, 4)
    monkeypatch.setattr(harness, "enumerate_T_mkr", lambda *args, **kwargs: iter(tied))
    report = verify_extremal(7, 3, 2)
    assert report.class_count == 2
    assert report.winner_code == tied[0].code < tied[1].code
    assert not report.unique and not report.matches_bound and not report.passed


def _first_bracket(p):
    """The first isolating bracket of p's top root: a point or an interval."""
    top = poly.isolate_top_root(p)
    return top[1], top[-1]


def _feasible_cells(r_max):
    """Every feasible (m, k, r) up to the enumeration guards, r = 2..r_max."""
    for r in range(2, r_max + 1):
        for m in range(1, max_edges_guard(r) + 1):
            for k in range(1, m + 1):
                if extremal_params(m, k, r).feasible:
                    yield m, k, r


def test_bound_poly_matches_reference():
    """`_bound_top`'s B(z) = z^deg(G) G(1 - 1/z), read off one Taylor shift
    of G, is the term-by-term sum on every feasible triple with r = 2..6
    and m < 40."""
    cases = 0
    for r in range(2, 7):
        for m in range(1, 40):
            for k in range(1, m + 1):
                ep = extremal_params(m, k, r)
                if ep.feasible:
                    G = _cleared_bound_poly(r, ep.q, ep.s, ep.l)
                    assert constructions._bound_top(G, (Fraction(0), Fraction(0)))[0] == ref.bound_poly(G), (m, k, r)
                    cases += 1
    assert cases == 2756


def test_compare_top_roots(monkeypatch):
    """Cases whose signs are known, with every mix of kernel and first
    isolating brackets, in both orders."""
    x = Fraction(math.sqrt(2))
    cases = [
        # (7, 3, 2): the z-polynomials (z-4)(z^2-3z+1) and (z-4)(z-2)(z-1) of
        # two classes share their top root 4
        ([-4, 13, -7, 1], [-8, 14, -7, 1], 0),
        # sqrt(2) against n/d, the double nearest it, which lies above
        ([-2, 0, 1], [-x.numerator, x.denominator], -1),
        # different degrees, as for classes of different nu (at-least-nu reading)
        ([-4, 1], [1, -3, 1], 1),
        ([-2, 1], [1, -3, 1], -1),
        ([-4, 1], [-8, 14, -7, 1], 0),
    ]
    calls = []
    refine = poly.refine_isolating
    monkeypatch.setattr(poly, "refine_isolating", lambda *args: calls.append(args) or refine(*args))
    for p, q, sign in cases:
        for a in (poly._nearest_top_root(p)[2], _first_bracket(p)):
            for b in (poly._nearest_top_root(q)[2], _first_bracket(q)):
                assert poly._compare((p, a), (q, b)) == sign == ref.compare_top_roots(p, q)
                assert poly._compare((q, b), (p, a)) == -sign
    # sqrt(2) and n/d round to one double; their first isolating brackets
    # overlap, and only the refinement parts them
    p, q = cases[1][:2]
    assert poly._nearest_top_root(p)[0] == poly._nearest_top_root(q)[0] == math.sqrt(2)
    calls.clear()
    assert poly._compare((p, _first_bracket(p)), (q, _first_bracket(q))) == -1
    assert calls


@pytest.mark.parametrize("offset", [Fraction(1, 2**200), Fraction(-1, 2**200), Fraction(1, 3 * 2**200)])
def test_compare_point_inside_close_interval(offset):
    """A point bracket inside another polynomial's open bracket, whose root
    is only 2^-200 away: the refinement parts them with the right sign."""
    root = 4 + offset
    point = ([-4, 1], (Fraction(4), Fraction(4)))
    interval = ([-root.numerator, root.denominator], (Fraction(3), Fraction(5)))
    sign = 1 if offset < 0 else -1
    assert poly._compare(point, interval) == sign
    assert poly._compare(interval, point) == -sign


def test_compare_matches_reference_on_every_cell():
    """On every pair of classes in every cell up to the guards, `_compare`
    gives the sign of the reference comparison, with kernel brackets,
    first isolating ones, and one of each."""
    for m, k, r in _feasible_cells(5):
        records = list(enumerate_T_mkr(m, k, r))
        polys = [rec.z_poly for rec in records]
        tops = [((p, rec.certificate), (p, _first_bracket(p))) for p, rec in zip(polys, records)]
        # the reference sign of every pair, from ranks in the reference order
        order = sorted(range(len(polys)), key=cmp_to_key(lambda i, j: ref.compare_top_roots(polys[i], polys[j])))
        rank = {order[0]: 0}
        for i, j in zip(order, order[1:]):
            rank[j] = rank[i] + (ref.compare_top_roots(polys[j], polys[i]) > 0)
        for i in range(len(tops)):
            for j in range(i + 1, len(tops)):
                sign = (rank[i] > rank[j]) - (rank[i] < rank[j])
                for x, y in ((0, 0), (1, 1), (0, 1), (1, 0)):
                    assert poly._compare(tops[i][x], tops[j][y]) == sign, (m, k, r, i, j, x, y)


@pytest.mark.parametrize("at_least", [False, True])
def test_matches_bound_agrees_with_reference(at_least):
    """`matches_bound` is the reference's common-root test on every feasible
    triple up to the guards, and so is `_compare` against the bound with
    the winner's first isolating bracket."""
    for m, k, r in _feasible_cells(6):
        report = verify_extremal(m, k, r, at_least=at_least)
        winner = next(rec for rec in enumerate_T_mkr(m, k, r, at_least=at_least) if rec.code == report.winner_code)
        params, alpha = extremal_params(m, k, r), rho_bound(m, k, r).certificate
        G = _cleared_bound_poly(r, params.q, params.s, params.l)
        assert report.matches_bound == ref.matches_bound(winner.z_poly, winner.certificate, G, alpha)
        coarse = _first_bracket(winner.z_poly)
        equal = poly._compare((winner.z_poly, coarse), constructions._bound_top(G, alpha)) == 0
        assert equal == ref.matches_bound(winner.z_poly, coarse, G, alpha), (m, k, r)
