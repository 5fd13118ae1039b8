"""Shared helpers for the test suite."""

import random
from fractions import Fraction

import pytest

from hypertree_spectra import (
    Hypergraph,
    enumerate_hypertrees,
)
from hypertree_spectra.polynomials import _nearest_top_root

DESK_RANGE = [(2, 8), (3, 6), (4, 5)]  # (r, max m), mirrors the suite sweep


def all_hypertrees(max_m_by_r=None):
    """Every enumerated hypertree class in the desk-scale range."""
    ranges = max_m_by_r or DESK_RANGE
    for r, m_max in ranges:
        for m in range(1, m_max + 1):
            for H in enumerate_hypertrees(m, r):
                yield H


@pytest.fixture
def rng():
    return random.Random(20240917)


def path_graph(n: int) -> Hypergraph:
    """Ordinary path on n vertices as a 2-uniform hypergraph."""
    return Hypergraph(2, n, tuple((i, i + 1) for i in range(n - 1)))


def perfect_matching_reference(m: int, r: int) -> tuple:
    """(alpha0, rho, certificate) for r | m - 1 from the perfect-matching
    polynomial r a^r + (m-1) a - (m-1) itself, as the bound once solved it."""
    if m == 1:
        return 0.0, 1.0, (Fraction(0), Fraction(0))
    alpha0, _, bracket = _nearest_top_root([1 - m, m - 1] + [0] * (r - 2) + [r])
    return alpha0, (1.0 / (1.0 - alpha0)) ** (1.0 / r), bracket


def perfect_cells(r_max: int = 8, m_max: int = 300):
    """Every (m, r, k) with k r = m(r-1) + 1, r = 2..r_max, 1 <= m <= m_max."""
    for r in range(2, r_max + 1):
        for m in range(1, m_max + 1, r):  # r | m - 1
            yield m, r, (m * (r - 1) + 1) // r
