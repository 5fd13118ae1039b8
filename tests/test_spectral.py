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
    max_edges_guard,
    random_hyperforest,
    residual,
    restrict,
    single_edge,
    spectral_radius_polyroot,
    spectral_radius_power,
)
from hypertree_spectra import spectral
from hypertree_spectra.enumeration import random_hypertree

from conftest import path_graph
import reference_power

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
    assert len(brackets) == res.iterations == 10
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


# --- the plain power route as first written, kept as a reference ---


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
    """Against the plain iteration as first written: rho within 1e-10, the
    eigenvector within 1e-9 in max norm, positive where the reference's is
    and normalised, the residual within 1e-10, and never more steps."""
    rng = random.Random(2024)
    cases = [random_hypertree(m, r, rng) for r in range(2, 7) for m in (1, 3, 17, 60)]
    cases.append(random_hyperforest([5, 1, 8], 3, rng))
    cases.append(disjoint_union(random_hypertree(4, 2, rng), Hypergraph(2, 2, ())))
    cases.append(Hypergraph(4, 6, ()))
    for H in cases:
        res = spectral_radius_power(H)
        rho, x, _, iterations = _reference_power(H, [])
        assert abs(res.rho - rho) <= 1e-10, H.edges
        assert np.max(np.abs(res.eigenvector - x)) <= 1e-9, H.edges
        assert np.array_equal(res.eigenvector > 0, x > 0), H.edges
        assert abs(np.sum(res.eigenvector**H.r) - 1.0) <= 1e-12, H.edges
        assert res.residual <= 1e-10, H.edges
        assert res.iterations <= iterations, H.edges


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


def _bracket(H, x):
    """The Collatz-Wielandt bracket of rho at a positive x."""
    x_r1 = x ** (H.r - 1)
    ratios = (_reference_apply(H, x) + x_r1) / x_r1
    return float(ratios.min()) - 1.0, float(ratios.max()) - 1.0


def test_power_failure_reports_last_bracket(monkeypatch):
    """A bracket that has not closed after max_iter steps raises, carrying
    the step count and the intersection of the brackets at the vectors the
    route visited, which still holds rho."""
    seen = []
    adjacency = spectral._adjacency

    def recording(H):
        apply = adjacency(H)
        return lambda x: seen.append(x.copy()) or apply(x)

    monkeypatch.setattr(spectral, "_adjacency", recording)
    H = path_graph(40)
    with pytest.raises(PowerIterationError) as info:
        spectral_radius_power(H, max_iter=5)
    assert info.value.iterations == 5
    assert len(seen) == 5
    lows, highs = zip(*(_bracket(H, x) for x in seen))
    assert info.value.bracket == (max(lows), min(highs))
    lo, hi = info.value.bracket
    assert lo <= spectral_radius_polyroot(H).rho <= hi


def _loose_path(L, r):
    """The r-uniform loose path with L edges, consecutive edges sharing one vertex."""
    return Hypergraph(r, L * (r - 1) + 1, [range(i * (r - 1), i * (r - 1) + r) for i in range(L)])


def test_power_deep_path_converges():
    """The 600- and 1000-edge loose paths for r = 2, 3 and 4 close their
    brackets with the defaults, on the closed form (2 cos(pi / (L + 2)))^(2/r):
    the r-uniform loose path is the r-th power hypergraph of the ordinary
    one.  The form shares no code with either route.  The r = 4 paths need
    the periodic mixing: mixed at every step, their brackets stall."""
    for L in (600, 1000):
        for r in (2, 3, 4):
            res = spectral_radius_power(_loose_path(L, r))
            want = (2 * math.cos(math.pi / (L + 2))) ** (2 / r)
            assert abs(res.rho - want) <= 1e-9, (L, r)
            lo, hi = res.certificate
            assert lo <= want <= hi, (L, r)


def test_power_mixes_every_period_th_step(monkeypatch):
    """The Gram system is solved only at every `PERIOD`-th step, on a long
    path run to convergence and on one stopped at max_iter, whose bracket
    still holds polyroot's rho."""
    calls = []
    solve = spectral._solve
    monkeypatch.setattr(spectral, "_solve", lambda a, b: calls.append(len(b)) or solve(a, b))
    H = _loose_path(100, 3)
    res = spectral_radius_power(H)
    assert 0 < len(calls) <= res.iterations // spectral.PERIOD + 1
    calls.clear()
    with pytest.raises(PowerIterationError) as info:
        spectral_radius_power(H, max_iter=res.iterations // 2)
    assert 0 < len(calls) <= info.value.iterations // spectral.PERIOD + 1
    lo, hi = info.value.bracket
    assert lo <= spectral_radius_polyroot(H).rho <= hi


def test_power_stall_raises_with_bracket():
    """A tol below what doubles can resolve: the bracket stops narrowing
    near step 132, so the route raises `STALL` steps later, not after
    max_iter, with a bracket that still holds rho."""
    H = random_hypertree(30, 3, random.Random(2))
    with pytest.raises(PowerIterationError, match="stalled") as info:
        spectral_radius_power(H, tol=1e-15)
    assert spectral.STALL < info.value.iterations < 5200
    lo, hi = info.value.bracket
    assert lo <= spectral_radius_polyroot(H).rho <= hi


def _power_cases(rng):
    for r in range(2, 7):
        for m in (1, 2, 7, 30, 120, 300):
            yield random_hypertree(m, r, rng)
            yield random_hyperforest([m, rng.randrange(1, 20), 1], r, rng)


def test_power_route_matches_buffered_kernel():
    """Against the route with the prefix/suffix kernel, a second kernel for
    the residual and its own component split: every byte of rho, steps,
    certificate, residual and eigenvector for r = 2 and 3, whose products
    keep their factors; for r >= 4, which groups them differently, the
    tolerances of the plain reference above.  The residual is the public
    `residual` of the result in every case."""
    for H in _power_cases(random.Random(2077)):
        res, ref = spectral_radius_power(H), reference_power.spectral_radius_power(H)
        assert res.residual == residual(H, res.rho, res.eigenvector), H.edges
        if H.r <= 3:
            assert (res.rho, res.iterations, res.certificate) == (ref.rho, ref.iterations, ref.certificate), H.edges
            assert res.residual == ref.residual, H.edges
            assert res.eigenvector.tobytes() == ref.eigenvector.tobytes(), H.edges
        else:
            assert abs(res.rho - ref.rho) <= 1e-10, H.edges
            assert np.max(np.abs(res.eigenvector - ref.eigenvector)) <= 1e-9, H.edges
            assert res.residual <= 1e-10, H.edges


def test_power_connected_input_skips_component_split(monkeypatch):
    """Connectivity comes from the `validate` report: a connected input never
    asks for its components, a forest still does."""
    split = connected_components

    def refuse(H):
        assert not spectral.validate(H).connected, H.edges
        return split(H)

    monkeypatch.setattr(spectral, "connected_components", refuse)
    for H in _power_cases(random.Random(31)):
        spectral_radius_power(H)


def test_power_certificate_holds_polyroot_rho():
    """Every class up to the guards for r = 2..6 and seeded random
    hyperforests: the power route's certificate holds polyroot's rho."""
    rng = random.Random(4417)
    cases = [H for r in range(2, 7) for m in range(1, max_edges_guard(r) + 1) for H in enumerate_hypertrees(m, r)]
    cases += [random_hyperforest([rng.randrange(1, 30) for _ in range(3)], rng.randrange(2, 7), rng) for _ in range(15)]
    for H in cases:
        lo, hi = spectral_radius_power(H).certificate
        assert lo - 1e-12 <= spectral_radius_polyroot(H).rho <= hi + 1e-12, H.edges


def test_solve_against_numpy_and_singular():
    """The mixing's Gram-system solver: the numpy solution on Gram matrices
    of 1 to 5 random vectors, coefficient 0 for a dependent row, and None
    when no pivot is positive."""
    rng = np.random.default_rng(9)
    for k in range(1, 6):
        for _ in range(20):
            V = rng.standard_normal((k, 30))
            gram = np.einsum("ij,kj->ik", V, V)
            b = rng.standard_normal(k)
            got = spectral._solve(gram.tolist(), b.tolist())
            assert np.allclose(got, np.linalg.solve(gram, b), rtol=1e-9, atol=1e-12)
    assert spectral._solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) == [1.0, 0.0]
    assert spectral._solve([[0.0]], [1.0]) is None


def test_power_star_drops_dependent_differences():
    """A star's iterates span few directions, so its Gram systems are
    singular.  A dependent difference gets coefficient 0 and the others
    still mix: hyperstar(m, r) closes its bracket in at most 15 steps for
    r = 2, 3, 4 and m = 100, 1000, and the certificate holds m^(1/r) to
    the 1e-12 the float brackets may round by."""
    assert spectral._solve([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]], [1.0, 1.0, 4.0]) == [1.0, 0.0, 2.0]
    for r in (2, 3, 4):
        for m in (100, 1000):
            res = spectral_radius_power(hyperstar(m, r))
            assert res.iterations <= 15, (m, r, res.iterations)
            lo, hi = res.certificate
            assert lo - 1e-12 <= m ** (1 / r) <= hi + 1e-12, (m, r)
