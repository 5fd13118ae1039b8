"""Spectral radius of the adjacency tensor, by two independent routes.

The adjacency tensor of an r-uniform hypergraph has entries 1/(r-1)! on
the index tuples of each edge, so applying it to a vector never needs
the tensor itself:

    (A x)_i = sum over edges e containing i of prod_{j in e, j != i} x_j

because the (r-1)! orderings of an edge cancel the 1/(r-1)! weight.

Route one is shifted nonnegative-tensor power iteration on B = A + I
(diagonal shift sigma = 1 forces convergence on bipartite-flavored
structures), with the Collatz-Wielandt bracket
min_i (Bx)_i / x_i^(r-1) <= rho(B) <= max_i (...) driving the stopping
rule.  The bracket holds rho(B) at every positive x, so every step
pushes its difference and every `PERIOD`-th one (periodic Pulay mixing,
Banerjee et al., Chem. Phys. Lett. 647, 2016) takes the type-II Anderson
mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) of the map
g(x) = normalise((B x)^(1/(r-1))) over its last `DEPTH` differences, if
finite and positive, else g(x) with the history cleared; the other steps
take g(x).  The certificate is the intersection of every bracket.
Each connected component gets r - 1 index columns, built before its
first step; a step multiplies the gathers of x over them in place and
scatters the products onto the vertices with one `np.bincount`.  A
bracket that has not narrowed for `STALL` steps raises.
The step calls no BLAS or LAPACK, whose first call maps several hundred
KB: the mixing's Gram system, at most `DEPTH` unknowns, is solved in
Python floats.
Route two, for hyperforests, reads rho off the matching polynomial:
substituting z = x^r turns phi into x^(n-nu*r) p(z), and rho is the r-th
root of the largest real root of p.  That root is read by
the top-root kernel in `polynomials` that also serves the closed-form
bounds.  Its first bracket is certified by Descartes' rule of signs: c
walks down from a float guess x by 4, 64, 1024, ... ulps, not below
x(1 - 2^-20), until one exact sign of p confirms it, and p(c + y) with
one sign variation has one root above c, a simple one; the upper end
walks up from x until p takes its leading sign.  Where that fails (a
multiple top root, or a guess that is noise), the top root is isolated
on an integer Sturm chain.  Integer sign bisection then halves until
both ends round to one double, the one nearest the root; its final
rational bracket of rho^r is the certificate.  `SpectralResult.iterations`
counts the power steps of route one and the exact sign tests of route two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import polynomials as poly
from .hypergraph import Hypergraph, connected_components, restrict, validate
from .matching import MatchingProfile, _counts, _require_uniform_linear

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10**6
DEPTH = 5  # differences kept by the Anderson mixing of the power route
PERIOD = 3  # the power route mixes only at every PERIOD-th step
STALL = 5000  # steps the power route's bracket may go without narrowing


class PowerIterationError(RuntimeError):
    """Raised when the bracket fails to close; carries the intersection of
    the brackets of every step, which holds rho."""

    def __init__(self, message: str, bracket: tuple[float, float], iterations: int):
        super().__init__(message)
        self.bracket = bracket
        self.iterations = iterations


@dataclass
class SpectralResult:
    """`iterations`: power steps (power route) or the exact sign tests
    that took rho^r to the nearest double (polyroot route): the upper end's
    walk from the float guess and the halvings, or the halvings from an
    isolating interval (0 for a rational rho^r met by isolation).
    `certificate`: for polyroot, the final rational bracket of rho^r
    (`polynomials._nearest_top_root`), if H has an edge; for power, the
    intersection (lo, hi) of the float Collatz-Wielandt brackets of rho
    at every step (rho is the midpoint of the last one)."""

    rho: float
    method: str
    eigenvector: Optional[np.ndarray] = None
    residual: Optional[float] = None
    iterations: int = 0
    certificate: Optional[tuple] = None


def _adjacency(H: Hypergraph):
    """The map x -> A x of H, as a function of a float vector of length n.

    r - 1 index columns are built once: column j lists, for each (edge,
    slot), the j-th other vertex of that edge in ascending order.  Each
    call gathers x over the columns, multiplies the gathers in place from
    the first column on and scatters the products with `np.bincount`,
    which adds up each vertex's products in edge order, starting from zero.
    """
    n = H.n
    if H.m == 0:  # np.bincount would return ints
        return lambda x: np.zeros(n)
    E = np.array(H.edges, dtype=np.intp)
    flat = E.ravel()
    r = E.shape[1]
    first, *rest = (E[:, [j + (j >= i) for i in range(r)]].ravel() for j in range(r - 1))

    def apply(x: np.ndarray) -> np.ndarray:
        products = x[first]
        for column in rest:
            products *= x[column]
        return np.bincount(flat, weights=products, minlength=n)

    return apply


def apply_adjacency(H: Hypergraph, x) -> np.ndarray:
    """Evaluate (A x) without materializing the tensor."""
    x = np.asarray(x, dtype=float)
    if x.shape != (H.n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({H.n},)")
    return _adjacency(H)(x)


def residual(H: Hypergraph, lam: float, x) -> float:
    """Max-norm defect of the eigen-equation, max_i |(Ax)_i - lam x_i^(r-1)|."""
    x = np.asarray(x, dtype=float)
    if x.shape != (H.n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({H.n},)")
    if not np.any(x):
        raise ValueError("eigenvector must be nonzero")
    return float(np.max(np.abs(_adjacency(H)(x) - lam * x ** (H.r - 1))))


def _solve(a: list, b: list) -> Optional[list]:
    """The solution of a x = b for a symmetric positive semidefinite a, by
    Gaussian elimination without pivoting in Python floats, or None at a
    pivot that is not positive (a singular to rounding)."""
    n = len(b)
    rows = [row[:n] + [v] for row, v in zip(a, b)]
    for k, pivot in enumerate(rows):
        if not pivot[k] > 0:
            return None
        for row in rows[k + 1 :]:
            f = row[k] / pivot[k]
            for j in range(k + 1, n + 1):
                row[j] -= f * pivot[j]
    x = [0.0] * n
    for k in reversed(range(n)):
        row = rows[k]
        t = row[n]
        for j in range(k + 1, n):
            t -= row[j] * x[j]
        x[k] = t / row[k]
    return x


def _power_connected(H: Hypergraph, tol: float, max_iter: int) -> tuple:
    """(rho, x, residual, iterations, intersection of every bracket of rho)
    for connected H."""
    n, r = H.n, H.r
    x = np.full(n, n ** (-1.0 / r))
    if H.m == 0:
        return 0.0, x, 0.0, 0, (0.0, 0.0)
    adjacency = _adjacency(H)
    shift = 1.0
    low, high = -np.inf, np.inf
    dg, df = np.empty((DEPTH, n)), np.empty((DEPTH, n))
    gram = [[0.0] * DEPTH for _ in range(DEPTH)]
    kept = 0  # differences pushed since the history was last cleared
    narrowed = 0  # the last step that narrowed the bracket
    for it in range(1, max_iter + 1):
        x_r1 = x ** (r - 1)
        y = adjacency(x) + x_r1
        ratios = y / x_r1
        lo = float(np.minimum.reduce(ratios))
        hi = float(np.maximum.reduce(ratios))
        if lo > low or hi < high:
            low, high, narrowed = max(low, lo), min(high, hi), it
        if hi - lo <= tol:
            rho, x = (lo + hi) / 2 - shift, x / ((x**r).sum()) ** (1.0 / r)
            defect = float(np.maximum.reduce(np.abs(adjacency(x) - rho * x ** (r - 1))))
            return rho, x, defect, it, (low - shift, high - shift)
        if it - narrowed >= STALL:
            stalled = f"bracket stalled for {STALL} steps at width {high - low:.3e} after {it} iterations"
            raise PowerIterationError(stalled, (low - shift, high - shift), it)
        g = y ** (1.0 / (r - 1))
        g /= ((g**r).sum()) ** (1.0 / r)
        f = g - x
        if it > 1:
            s = kept % DEPTH
            np.subtract(f, f_prev, out=df[s])
            np.subtract(g, g_prev, out=dg[s])
            kept += 1
            k = min(kept, DEPTH)
            for j, v in enumerate(np.einsum("ij,j->i", df[:k], df[s]).tolist()):
                gram[s][j] = gram[j][s] = v
        f_prev, g_prev = f, g
        x = g
        if it % PERIOD:
            continue
        gamma = _solve(gram[:k], np.einsum("ij,j->i", df[:k], f).tolist()) if kept else None
        if gamma is not None:
            mixed = g - np.einsum("i,ij->j", gamma, dg[:k])
            if np.minimum.reduce(mixed) > 0 and np.maximum.reduce(mixed) < np.inf:  # false on NaN
                x = mixed
        if x is g:
            kept = 0
    raise PowerIterationError(
        f"bracket width {hi - lo:.3e} above tol {tol:.3e} after {max_iter} iterations",
        (low - shift, high - shift),
        max_iter,
    )


def spectral_radius_power(
    H: Hypergraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Shifted power iteration on each connected component (connectivity
    gives weak irreducibility).

    rho is the largest component rho, that component's eigenvector is
    embedded, and `certificate` is (max lo, max hi) over the components'
    intersected brackets, so it holds rho.  The zeros off that component
    add nothing to the eigen-equation, so the component's residual is H's.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    report = _require_uniform_linear(validate(H))
    if H.n == 0:
        raise ValueError("empty hypergraph has no spectrum")
    comps = [range(H.n)] if report.connected else connected_components(H)
    parts = [H] if report.connected else [restrict(H, comp).hypergraph for comp in comps]
    rhos, xs, defects, steps, brackets = zip(*(_power_connected(part, tol, max_iter) for part in parts))
    best = rhos.index(max(rhos))  # the first of equals
    rho, x = rhos[best], np.zeros(H.n)
    x[comps[best]] = xs[best]
    certificate = tuple(map(max, zip(*brackets)))
    return SpectralResult(rho, "power", x, defects[best], sum(steps), certificate)


def spectral_radius_polyroot(H: Hypergraph) -> SpectralResult:
    """rho of a hyperforest as the r-th root of the top root of p(z).

    rho is the r-th root of the double nearest that root, `iterations`
    the number of exact sign tests it took from the first bracket, and
    `certificate` the rational bracket it ended on.  The eigenvector and
    residual fields are left empty.
    """
    if not _require_uniform_linear(validate(H)).acyclic:
        raise ValueError("polynomial-root method requires a hyperforest")
    if H.n == 0:
        raise ValueError("empty hypergraph has no spectrum")
    return _polyroot(MatchingProfile(_counts(H)), H.r)


def _polyroot(profile: MatchingProfile, r: int) -> SpectralResult:
    """`spectral_radius_polyroot` on the counts of a known hyperforest."""
    if profile.nu == 0:
        return SpectralResult(0.0, "polyroot")
    top = poly._nearest_top_root(profile.z_poly())
    if top is None:
        raise RuntimeError("matching polynomial with no real root in z")
    z, tests, bracket = top
    return SpectralResult(z ** (1.0 / r), "polyroot", iterations=tests, certificate=bracket)
