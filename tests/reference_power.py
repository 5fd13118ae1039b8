"""The power route's adjacency kernel and component loop as they were
before the index columns, kept as references for the tests: prefix and
suffix product buffers filled in place, a second kernel built for the
residual, and connectivity read from a fresh `connected_components`."""

import numpy as np

from hypertree_spectra import PowerIterationError, connected_components, restrict
from hypertree_spectra.spectral import DEPTH, PERIOD, SpectralResult, _solve


def _adjacency(H):
    n = H.n
    if H.m == 0:
        return lambda x: np.zeros(n)
    E = np.array(H.edges, dtype=np.intp)
    flat = E.ravel()
    r = E.shape[1]
    prefix = np.ones(E.shape)
    suffix = np.ones(E.shape)
    products = np.empty(E.shape)
    weights = products.ravel()

    def apply(x):
        X = x[E]
        for j in range(1, r):
            np.multiply(prefix[:, j - 1], X[:, j - 1], out=prefix[:, j])
            np.multiply(suffix[:, r - j], X[:, r - j], out=suffix[:, r - 1 - j])
        np.multiply(prefix, suffix, out=products)
        return np.bincount(flat, weights=weights, minlength=n)

    return apply


def residual(H, lam, x):
    return float(np.max(np.abs(_adjacency(H)(x) - lam * x ** (H.r - 1))))


def _power_connected(H, tol, max_iter):
    n, r = H.n, H.r
    x = np.full(n, n ** (-1.0 / r))
    if H.m == 0:
        return 0.0, x, 0, (0.0, 0.0)
    adjacency = _adjacency(H)
    shift = 1.0
    low, high = -np.inf, np.inf
    dg, df = np.empty((DEPTH, n)), np.empty((DEPTH, n))
    gram = [[0.0] * DEPTH for _ in range(DEPTH)]
    kept = 0
    for it in range(1, max_iter + 1):
        x_r1 = x ** (r - 1)
        y = adjacency(x) + x_r1
        ratios = y / x_r1
        lo = float(ratios.min())
        hi = float(ratios.max())
        low, high = max(low, lo), min(high, hi)
        if hi - lo <= tol:
            return (lo + hi) / 2 - shift, x / ((x**r).sum()) ** (1.0 / r), it, (low - shift, high - shift)
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
            if mixed.min() > 0 and mixed.max() < np.inf:
                x = mixed
        if x is g:
            kept = 0
    raise PowerIterationError("bracket did not close", (low - shift, high - shift), max_iter)


def spectral_radius_power(H, tol=1e-10, max_iter=10**6):
    comps = connected_components(H)
    parts = [H] if len(comps) == 1 else [restrict(H, comp).hypergraph for comp in comps]
    rhos, xs, steps, brackets = zip(*(_power_connected(part, tol, max_iter) for part in parts))
    best = rhos.index(max(rhos))
    rho, x = rhos[best], np.zeros(H.n)
    x[comps[best]] = xs[best]
    certificate = tuple(map(max, zip(*brackets)))
    return SpectralResult(rho, "power", x, residual(H, rho, x), sum(steps), certificate)
