"""Adjacency-tensor application, power iteration, and the polynomial route."""

import math
import random

import numpy as np
import pytest

from hypertree_spectra import (
    Hypergraph,
    PowerIterationError,
    apply_adjacency,
    build_Ra,
    connected_components,
    delete_edge,
    disjoint_union,
    enumerate_hypertrees,
    hyperstar,
    random_hyperforest,
    residual,
    restrict,
    single_edge,
    spectral_radius_polyroot,
    spectral_radius_power,
)
from hypertree_spectra.enumeration import random_hypertree

from conftest import path_graph

GOLDEN = (1 + 5**0.5) / 2


def test_apply_adjacency_single_edge():
    H = single_edge(3)
    assert np.allclose(apply_adjacency(H, [1, 1, 1]), [1, 1, 1])
    assert np.allclose(apply_adjacency(H, [1, 2, 3]), [6, 3, 2])
    assert np.allclose(apply_adjacency(H, [0, 0, 0]), [0, 0, 0])


def test_apply_adjacency_rejects_bad_length():
    with pytest.raises(ValueError):
        apply_adjacency(single_edge(3), [1, 1])


def test_power_single_edge():
    for r in (2, 3, 5):
        res = spectral_radius_power(single_edge(r))
        assert abs(res.rho - 1.0) < 1e-9
        assert res.residual <= 1e-10
        assert np.all(res.eigenvector > 0)


def test_power_star_closed_form():
    res = spectral_radius_power(hyperstar(3, 2))
    assert abs(res.rho - math.sqrt(3)) < 1e-9
    res = spectral_radius_power(hyperstar(2, 3))
    assert abs(res.rho - 2 ** (1 / 3)) < 1e-9


def test_power_eigenvector_normalized():
    for H in (hyperstar(4, 3), path_graph(5)):
        res = spectral_radius_power(H)
        assert np.all(res.eigenvector > 0)
        assert abs(np.sum(res.eigenvector**H.r) - 1.0) < 1e-12


def test_power_bracket_monotone():
    """The bracket after each step, read off the failure at max_iter = 1,
    2, ..., then the certificate the route closes on."""
    H = path_graph(6)
    res = spectral_radius_power(H)
    brackets = []
    for max_iter in range(1, res.iterations):
        with pytest.raises(PowerIterationError) as info:
            spectral_radius_power(H, max_iter=max_iter)
        brackets.append(info.value.bracket)
    brackets.append(res.certificate)
    assert len(brackets) == res.iterations == 37
    for (lo1, hi1), (lo2, hi2) in zip(brackets, brackets[1:]):
        assert lo2 >= lo1 - 1e-12
        assert hi2 <= hi1 + 1e-12


def test_power_rejects_bad_tol():
    for kwargs in ({"tol": 0}, {"tol": -1e-10}, {"tol": float("nan")}, {"max_iter": 0}, {"max_iter": -3}):
        with pytest.raises(ValueError):
            spectral_radius_power(single_edge(3), **kwargs)


def test_power_disconnected_takes_max():
    # single edge + P4 + an isolated vertex; the P4 wins with the golden ratio
    H = Hypergraph(2, 7, [(0, 1), (2, 3), (3, 4), (4, 5)])
    res = spectral_radius_power(H)
    assert abs(res.rho - GOLDEN) < 1e-9
    assert residual(H, res.rho, res.eigenvector) <= 1e-10


def test_polyroot_examples():
    res = spectral_radius_polyroot(path_graph(4))
    assert abs(res.rho - GOLDEN) < 1e-12
    res = spectral_radius_polyroot(build_Ra(2, 3))
    assert abs(res.rho - ((3 + 5**0.5) / 2) ** (1 / 3)) < 1e-12
    for m in (2, 7):
        res = spectral_radius_polyroot(hyperstar(m, 3))
        assert abs(res.rho - m ** (1 / 3)) < 1e-12


def test_polyroot_eigenvector_empty_and_optional_residual():
    res = spectral_radius_polyroot(path_graph(4))
    assert res.eigenvector is None
    assert res.residual is None


def test_polyroot_rejects_cycles():
    triangle = Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        spectral_radius_polyroot(triangle)


def test_polyroot_edgeless():
    assert spectral_radius_polyroot(Hypergraph(2, 3, ())).rho == 0.0


def test_residual_examples():
    H = single_edge(3)
    assert residual(H, 1.0, [1, 1, 1]) == 0.0
    with pytest.raises(ValueError):
        residual(H, 0.0, [0, 0, 0])
    star = hyperstar(3, 2)
    c = 1 / math.sqrt(2)
    t = 1 / math.sqrt(6)
    assert residual(star, math.sqrt(3), [c, t, t, t]) <= 1e-10


def test_residual_scale_covariance():
    H = build_Ra(2, 3)
    res = spectral_radius_power(H)
    x = res.eigenvector
    base = residual(H, res.rho, x)
    scaled = residual(H, res.rho, 2 * x)
    assert scaled == pytest.approx(2 ** (H.r - 1) * base, rel=1e-9, abs=1e-15)


def test_rho_at_least_one_with_edges():
    for H in (single_edge(2), hyperstar(2, 4), path_graph(3)):
        assert spectral_radius_power(H).rho >= 1 - 1e-9


def test_monotone_under_pendent_removal():
    for m in range(2, 6):
        for H in enumerate_hypertrees(m, 3):
            rho = spectral_radius_polyroot(H).rho
            for e in H.edges:
                smaller = spectral_radius_polyroot(delete_edge(H, e)).rho
                assert rho > smaller + 1e-9


def test_cross_method_sample():
    for H in enumerate_hypertrees(5, 3):
        a = spectral_radius_power(H)
        b = spectral_radius_polyroot(H)
        assert abs(a.rho - b.rho) / b.rho <= 1e-6


def test_forest_rho_is_component_max():
    """rho of a hyperforest equals the max over its components, both routes."""
    from hypertree_spectra import connected_components, disjoint_union, restrict
    from hypertree_spectra.enumeration import random_hypertree
    import random

    rng = random.Random(3111)
    for _ in range(10):
        F = disjoint_union(
            random_hypertree(rng.randrange(1, 5), 3, rng),
            random_hypertree(rng.randrange(1, 5), 3, rng),
        )
        parts = [restrict(F, comp).hypergraph for comp in connected_components(F)]
        expected = max(spectral_radius_polyroot(P).rho for P in parts)
        assert spectral_radius_polyroot(F).rho == pytest.approx(expected, abs=1e-12)
        assert spectral_radius_power(F).rho == pytest.approx(expected, abs=1e-9)


# --- the power route as first written, kept as a byte-level reference ---


def _reference_apply(H, x):
    """(A x) with a fresh index array and buffers, scattered by np.add.at."""
    out = np.zeros(H.n)
    if H.m == 0:
        return out
    E = np.array(H.edges, dtype=int)
    X = x[E]
    r = E.shape[1]
    prefix = np.ones_like(X)
    suffix = np.ones_like(X)
    for j in range(1, r):
        prefix[:, j] = prefix[:, j - 1] * X[:, j - 1]
        suffix[:, r - 1 - j] = suffix[:, r - j] * X[:, r - j]
    np.add.at(out, E, prefix * suffix)
    return out


def _reference_residual(H, lam, x):
    return float(np.max(np.abs(_reference_apply(H, x) - lam * x ** (H.r - 1))))


def _reference_connected(H, brackets, tol=1e-10, max_iter=10**6):
    n, r = H.n, H.r
    x = np.full(n, n ** (-1.0 / r))
    if H.m == 0:
        return 0.0, x, 0.0, 0
    shift = 1.0
    for it in range(1, max_iter + 1):
        y = _reference_apply(H, x) + x ** (r - 1)
        ratios = y / x ** (r - 1)
        lo = float(ratios.min())
        hi = float(ratios.max())
        brackets.append((lo - shift, hi - shift))
        if hi - lo <= tol:
            rho = (lo + hi) / 2 - shift
            return rho, x, _reference_residual(H, rho, x), it
        x = y ** (1.0 / (r - 1))
        x = x / (np.sum(x**r)) ** (1.0 / r)
    raise AssertionError("reference iteration did not converge")


def _reference_power(H, brackets):
    """(rho, eigenvector, residual, iterations), component by component;
    `brackets` gets one list of brackets per component."""
    comps = connected_components(H)
    if len(comps) == 1:
        brackets.append([])
        return _reference_connected(H, brackets[-1])
    best, best_comp, iterations = None, None, 0
    for comp in comps:
        brackets.append([])
        res = _reference_connected(restrict(H, comp).hypergraph, brackets[-1])
        iterations += res[3]
        if best is None or res[0] > best[0]:
            best, best_comp = res, comp
    x = np.zeros(H.n)
    x[np.array(best_comp, dtype=int)] = best[1]
    return best[0], x, _reference_residual(H, best[0], x), iterations


def test_power_route_bytes_match_reference():
    """rho, iterations, eigenvector and residual are the bytes of the route
    as first written, and the certificate is (max lo, max hi) over its
    components' final brackets; an edgeless component's bracket is (0, 0)."""
    rng = random.Random(2024)
    cases = [random_hypertree(m, r, rng) for r in range(2, 7) for m in (1, 3, 17, 60)]
    cases.append(random_hyperforest([5, 1, 8], 3, rng))
    cases.append(disjoint_union(random_hypertree(4, 2, rng), Hypergraph(2, 2, ())))
    cases.append(Hypergraph(4, 6, ()))
    for H in cases:
        want_brackets = []
        res = spectral_radius_power(H)
        rho, x, res_want, iterations = _reference_power(H, want_brackets)
        assert (repr(res.rho), res.iterations) == (repr(rho), iterations), H.edges
        assert res.eigenvector.tobytes() == x.tobytes(), H.edges
        assert repr(res.residual) == repr(res_want), H.edges
        finals = [b[-1] for b in want_brackets if b]
        certificate = tuple(map(max, zip(*finals))) if finals else (0.0, 0.0)
        assert repr(res.certificate) == repr(certificate), H.edges


def test_apply_adjacency_matches_edge_loop():
    """Against a per-edge loop, exactly: small integer entries keep every
    product and sum exact, whatever the order of operations."""
    rng = random.Random(17)
    for r in range(2, 7):
        for m in (0, 1, 4, 25):
            H = random_hypertree(m, r, rng) if m else Hypergraph(r, 5, ())
            x = [float(rng.randint(0, 3)) for _ in range(H.n)]
            want = [0.0] * H.n
            for e in H.edges:
                for i in e:
                    want[i] += math.prod(x[j] for j in e if j != i)
            got = apply_adjacency(H, x)
            assert got.dtype == np.float64 and got.shape == (H.n,)
            assert got.tolist() == want, (r, m)
            assert apply_adjacency(H, x).tobytes() == _reference_apply(H, np.array(x)).tobytes()


def test_power_failure_reports_last_bracket():
    """A bracket that has not closed after max_iter steps raises, carrying
    the step count and a bracket that still holds rho."""
    brackets = []
    with pytest.raises(AssertionError):
        _reference_connected(path_graph(40), brackets, max_iter=5)
    with pytest.raises(PowerIterationError) as info:
        spectral_radius_power(path_graph(40), max_iter=5)
    assert info.value.iterations == 5
    assert len(brackets) == 5
    assert info.value.bracket == brackets[4]
    lo, hi = info.value.bracket
    assert lo <= spectral_radius_polyroot(path_graph(40)).rho <= hi
