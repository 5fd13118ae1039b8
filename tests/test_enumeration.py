"""Isomorphism-free enumeration and its completeness oracles."""

import random

import pytest

from hypertree_spectra import (
    attach_pendent,
    canonical_code,
    enumerate_T_mkr,
    enumerate_hypertrees,
    hyperstar,
    is_isomorphic,
    labeled_count_from_classes,
    labeled_hypertree_count,
    max_edges_guard,
    naive_filter_class_count,
    random_hyperforest,
    random_hypertree,
    single_edge,
    tree_class_count_prufer,
    validate,
)
from hypertree_spectra import enumeration, hypergraph
from hypertree_spectra.enumeration import _classes

import reference_growth

TREE_COUNTS = [1, 1, 2, 3, 6, 11, 23]  # unlabeled trees with m = 1..7 edges


def test_single_class_for_one_edge():
    for r in (2, 3, 5):
        classes = enumerate_hypertrees(1, r)
        assert len(classes) == 1
        assert classes[0] == single_edge(r)


def test_two_classes_three_edges_r3():
    classes = enumerate_hypertrees(3, 3)
    assert len(classes) == 2
    codes = {canonical_code(H) for H in classes}
    assert canonical_code(hyperstar(3, 3)) in codes


def test_r2_matches_tree_counts():
    for m, expected in zip(range(1, 8), TREE_COUNTS):
        assert len(enumerate_hypertrees(m, 2)) == expected


def test_codes_pairwise_distinct_and_sorted():
    classes = enumerate_hypertrees(5, 3)
    codes = [canonical_code(H) for H in classes]
    assert len(set(codes)) == len(codes)
    assert codes == sorted(codes)


def test_every_class_is_a_hypertree():
    for r, m_max in [(2, 6), (3, 5), (4, 4)]:
        for m in range(1, m_max + 1):
            for H in enumerate_hypertrees(m, r):
                report = validate(H)
                assert report.is_hypertree and report.uniform and report.linear
                assert H.m == m and H.n == m * (r - 1) + 1


def test_guards():
    assert max_edges_guard(2) == 9
    assert max_edges_guard(3) == 7
    assert max_edges_guard(4) == 5
    assert max_edges_guard(7) == 5
    for r in (1, 0, -3):
        with pytest.raises(ValueError, match="edge size must be at least 2"):
            max_edges_guard(r)
    with pytest.raises(ValueError):
        enumerate_hypertrees(10, 2)
    with pytest.raises(ValueError):
        enumerate_hypertrees(6, 4)


@pytest.mark.parametrize(
    "m, r, message",
    [
        (0, 1, "edge size must be at least 2"),
        (1, 1, "edge size must be at least 2"),
        (3, 0, "edge size must be at least 2"),
        (-1, 2, "need at least one edge"),
        (0, 2, "need at least one edge"),
        (10, 2, "m=10 exceeds the enumeration guard for r=2"),
        (8, 3, "m=8 exceeds the enumeration guard for r=3"),
    ],
)
def test_enumeration_argument_messages(m, r, message):
    """An edge size below 2 is named first, whatever m; then m below 1, then m past the guard."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        enumerate_hypertrees(m, r)


def test_attach_pendent():
    H = single_edge(3)
    grown = attach_pendent(H, 1)
    assert grown.m == 2 and grown.n == 5
    assert validate(grown).is_hypertree


def test_random_hypertree_is_hypertree(rng):
    for _ in range(20):
        H = random_hypertree(rng.randrange(1, 7), rng.choice([2, 3, 4]), rng)
        assert validate(H).is_hypertree


def test_random_hypertree_matches_per_edge_growth():
    """Every seed gives the edges of the loop that grew one `attach_pendent`
    call at a time: the same draws, in the same order."""
    cases = [(m, r, s) for s in range(10) for r in range(2, 7) for m in (1, 2, 17, 200)]
    for m, r, s in cases + [(1000, 3, 1)]:
        expected = reference_growth.random_hypertree(m, r, random.Random(s))
        assert random_hypertree(m, r, random.Random(s)) == expected, (m, r, s)


def test_random_hyperforest_matches_pairwise_unions():
    """One union of every tree gives the edges of the loop that joined them
    two at a time, from the same draws: the generator ends in the same state."""
    cases = [([], 3, 0), ([1], 2, 0), ([1], 4, 5), ([3] * 200, 3, 1), ([2] * 200, 2, 7)]
    seeded = random.Random(19)
    for s in range(20):
        sizes = [seeded.randint(1, 12) for _ in range(seeded.randint(0, 15))]
        cases.append((sizes, seeded.randint(2, 6), s))
    for sizes, r, s in cases:
        ours, theirs = random.Random(s), random.Random(s)
        forest = random_hyperforest(sizes, r, ours)
        assert forest == reference_growth.random_hyperforest(sizes, r, theirs), (sizes, r, s)
        assert forest.m == sum(sizes) and ours.getstate() == theirs.getstate(), (sizes, r, s)


def test_random_growth_needs_an_edge(rng):
    for m in (0, -2):
        with pytest.raises(ValueError, match="need at least one edge"):
            random_hypertree(m, 3, rng)
    with pytest.raises(ValueError, match="need at least one edge"):
        random_hyperforest([0, 2], 3, rng)
    assert random_hyperforest([1, 2], 3, rng).m == 3


def _plain_classes(m, r, memo):
    """Reference grower: a pendent edge at every vertex of every smaller
    class, the first candidate of each code kept, codes sorted."""
    if (m, r) not in memo:
        if m == 1:
            seen = {canonical_code(single_edge(r)): single_edge(r)}
        else:
            seen = {}
            for smaller in _plain_classes(m - 1, r, memo).values():
                for v in range(smaller.n):
                    grown = attach_pendent(smaller, v)
                    seen.setdefault(canonical_code(grown), grown)
        memo[m, r] = {code: seen[code] for code in sorted(seen)}
    return memo[m, r]


def test_orbit_pruned_grower_matches_plain_grower():
    """Same codes, same code order, same representatives' edge tuples as
    the grower that tries every vertex, on every cell up to the guards."""
    memo = {}
    for r in range(2, 8):
        for m in range(1, max_edges_guard(r) + 1):
            want = _plain_classes(m, r, memo)
            assert list(_classes(m, r)) == list(want), (m, r)
            got = [H.edges for H in enumerate_hypertrees(m, r)]
            assert got == [H.edges for H in want.values()], (m, r)


def test_grower_codes_each_candidate_in_one_pass(monkeypatch):
    """A cold cell walks the incidence forest once per candidate plus once
    for the single edge, and never runs the union-find acyclicity scan."""
    calls = {"attach_pendent": 0, "_incidence_walk": 0, "_forest_scan": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(enumeration, "attach_pendent")
    counted(hypergraph, "_incidence_walk")
    counted(hypergraph, "_forest_scan")
    _classes.cache_clear()
    try:
        classes = _classes(6, 3)
    finally:
        _classes.cache_clear()
    assert len(classes) == 19
    assert calls["attach_pendent"] > len(classes)
    assert calls["_incidence_walk"] == calls["attach_pendent"] + 1
    assert calls["_forest_scan"] == 0


def test_enumerate_T_mkr_examples():
    records = list(enumerate_T_mkr(3, 2, 3))
    assert len(records) == 1
    assert records[0].nu == 2
    assert not is_isomorphic(records[0].hypergraph, hyperstar(3, 3))
    records = list(enumerate_T_mkr(3, 1, 3))
    assert len(records) == 1
    assert is_isomorphic(records[0].hypergraph, hyperstar(3, 3))
    assert list(enumerate_T_mkr(5, 4, 3)) == []


def test_enumerate_T_mkr_at_least():
    exact = {rec.code for rec in enumerate_T_mkr(4, 1, 3)}
    at_least = {rec.code for rec in enumerate_T_mkr(4, 1, 3, at_least=True)}
    assert exact < at_least
    assert len(at_least) == len(enumerate_hypertrees(4, 3))


def test_labeled_count_identity():
    """Sum of n!/|Aut| over classes equals the closed-form labeled count."""
    for r, m_max in [(2, 7), (3, 6), (4, 5)]:
        for m in range(1, m_max + 1):
            assert labeled_count_from_classes(m, r) == labeled_hypertree_count(m, r), (m, r)


def test_labeled_count_rejects_no_edges():
    for m in (0, -1):
        with pytest.raises(ValueError, match="need at least one edge"):
            labeled_hypertree_count(m, 3)


def test_labeled_count_rejects_small_edges():
    for r in (1, 0):
        with pytest.raises(ValueError, match="edge size must be at least 2"):
            labeled_hypertree_count(2, r)


def test_naive_filter_guard():
    with pytest.raises(ValueError):
        naive_filter_class_count(4, 4)


def test_prufer_oracle_small():
    assert [tree_class_count_prufer(n) for n in range(2, 8)] == TREE_COUNTS[:6]
