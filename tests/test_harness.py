"""Verification reports, the suite driver, and winner structure checks."""

import dataclasses
import json

import pytest

from hypertree_spectra import harness, polynomials as poly
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
    run_suite,
    verify_extremal,
    verify_perfect_matching,
)

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
    compare = poly.compare_top_roots
    monkeypatch.setattr(poly, "compare_top_roots", lambda p, q: calls.append((p, q)) or compare(p, q))
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
