"""Reference growth loops for the tests: the hyperstar built edge by edge
and the random hypertree grown by one `attach_pendent` call per edge,
against which the single `_with_pendents` pass of each builder is checked,
and the random hyperforest joined one two-part `disjoint_union` per tree,
against which the single union of `random_hyperforest` is checked."""

import random

from hypertree_spectra import Hypergraph, attach_pendent, disjoint_union, single_edge


def hyperstar(m: int, r: int) -> Hypergraph:
    edges = []
    for i in range(m):
        base = 1 + i * (r - 1)
        edges.append((0, *range(base, base + r - 1)))
    return Hypergraph(r, m * (r - 1) + 1, tuple(edges))


def random_hypertree(m: int, r: int, rng: random.Random) -> Hypergraph:
    H = single_edge(r)
    for _ in range(m - 1):
        H = attach_pendent(H, rng.randrange(H.n))
    return H


def random_hyperforest(sizes, r: int, rng: random.Random) -> Hypergraph:
    out = Hypergraph(r, 0, ())
    for m in sizes:
        out = disjoint_union(out, random_hypertree(m, r, rng))
    return out
