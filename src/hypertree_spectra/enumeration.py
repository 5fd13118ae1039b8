"""Isomorphism-free enumeration of r-uniform hypertrees, with oracles.

Every hypertree with at least two edges has a pendent edge whose removal
(together with its core vertices) leaves a smaller hypertree: in the
vertex-edge incidence tree, a deepest edge-node has only leaf children
plus its parent link.  The generator therefore grows each class from the
single edge by attaching one pendent edge per automorphism orbit of the
vertices of every smaller class and deduplicating by canonical code,
which is complete: vertices in one orbit give isomorphic children.  Each
orbit is tried at its lowest vertex, and the first vertex of a parent
that yields a new code is always the lowest of its orbit, so the kept
representatives are those of growth at every vertex.

Two independent checks back this up: a generate-all-and-filter oracle
over labeled edge subsets (small sizes only), and the exact labeled
count n^(m-1) * (n-1)! / (m! * ((r-1)!)^m), which must equal the sum of
n!/|Aut| over the enumerated classes.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Sequence

from .hypergraph import (
    CanonicalCode,
    Hypergraph,
    _forest_code,
    _with_pendents,
    automorphism_count,
    canonical_code,
    disjoint_union,
    single_edge,
)
from .matching import MatchingProfile, _counts
from .spectral import _polyroot


def max_edges_guard(r: int) -> int:
    """Enumeration guard: class counts explode quickly beyond desk scale.
    An edge size below 2 has no guard and raises ValueError."""
    if r < 2:
        raise ValueError("edge size must be at least 2")
    if r == 2:
        return 9
    if r == 3:
        return 7
    return 5


def attach_pendent(H: Hypergraph, v: int) -> Hypergraph:
    """Grow a hypertree by one pendent edge at v (fresh vertices appended)."""
    return _with_pendents(H, (H.check_vertex(v),))


def enumerate_hypertrees(m: int, r: int) -> tuple[Hypergraph, ...]:
    """All r-uniform hypertrees with m edges, one per isomorphism class.

    Deterministic: output is sorted by canonical code.
    """
    return tuple(H for H, _ in _classes(m, r).values())


@lru_cache(maxsize=None)
def _classes(m: int, r: int) -> dict[CanonicalCode, tuple[Hypergraph, list[int]]]:
    """The classes of `enumerate_hypertrees` keyed by canonical code, in code
    order, with their vertex orbit ids, grown by one pendent edge per orbit
    of each smaller class.  `attach_pendent` on a hypertree gives a
    hypertree, so one `_forest_code` pass, with no acyclicity scan, codes
    each candidate and gives a new class the orbits it is grown from."""
    if m > max_edges_guard(r):  # raises first for an edge size below 2
        raise ValueError(f"m={m} exceeds the enumeration guard for r={r}")
    if m < 1:
        raise ValueError("need at least one edge")
    if m == 1:
        code, _, orbits = _forest_code(single_edge(r))
        return {code: (single_edge(r), orbits)}
    seen: dict[CanonicalCode, tuple[Hypergraph, list[int]]] = {}
    for smaller, orbits in _classes(m - 1, r).values():
        tried = set()
        for v, orbit in enumerate(orbits):
            if orbit in tried:
                continue
            tried.add(orbit)
            grown = attach_pendent(smaller, v)
            code, _, grown_orbits = _forest_code(grown)
            if code not in seen:
                seen[code] = (grown, grown_orbits)
    return {code: seen[code] for code in sorted(seen)}


def random_hypertree(m: int, r: int, rng: random.Random) -> Hypergraph:
    """Random hypertree grown by pendent attachment (any class can occur,
    but the sampling is not uniform over classes): each pendent edge goes
    at a uniform vertex of the n = r, 2r - 1, ... grown so far."""
    if m < 1:
        raise ValueError("need at least one edge")
    return _with_pendents(single_edge(r), [rng.randrange(n) for n in range(r, m * (r - 1) + 1, r - 1)])


def random_hyperforest(sizes: Sequence[int], r: int, rng: random.Random) -> Hypergraph:
    """Disjoint union of random hypertrees with the given edge counts, drawn in turn."""
    return disjoint_union(Hypergraph(r, 0, ()), *(random_hypertree(m, r, rng) for m in sizes))


@dataclass
class EnumerationRecord:
    """A class, its matching number and rho by the polyroot route, with that
    route's rational bracket of rho^r and p(z), whose top root is rho^r."""

    code: CanonicalCode
    hypergraph: Hypergraph
    nu: int
    rho: float
    certificate: tuple
    z_poly: list[int]


def enumerate_T_mkr(
    m: int, k: int, r: int, at_least: bool = False
) -> Iterator[EnumerationRecord]:
    """Hypertrees with m edges and matching number k (or >= k), with rho.

    Records come out in canonical-code order, rho attached via the
    polynomial-root method.
    """
    for H, code in zip(enumerate_hypertrees(m, r), _classes(m, r)):
        profile = MatchingProfile(_counts(H))
        if profile.nu == k or (at_least and profile.nu > k):
            root = _polyroot(profile, r)
            yield EnumerationRecord(code, H, profile.nu, root.rho, root.certificate, profile.z_poly())


# ---------------------------------------------------------------------------
# completeness oracles
# ---------------------------------------------------------------------------


def labeled_hypertree_count(m: int, r: int) -> int:
    """Exact number of labeled r-uniform hypertrees with m edges.

    Generalized Cayley count on n = m(r-1)+1 labeled vertices:
    n^(m-1) * (n-1)! / (m! * ((r-1)!)^m).
    """
    if r < 2:
        raise ValueError("edge size must be at least 2")
    if m < 1:
        raise ValueError("need at least one edge")
    n = m * (r - 1) + 1
    num = n ** (m - 1) * math.factorial(n - 1)
    den = math.factorial(m) * math.factorial(r - 1) ** m
    if num % den:
        raise ArithmeticError("labeled count formula did not divide evenly")
    return num // den


def labeled_count_from_classes(m: int, r: int) -> int:
    """Sum of n!/|Aut| over enumerated classes; must match the closed form."""
    n = m * (r - 1) + 1
    total = 0
    for H in enumerate_hypertrees(m, r):
        total += math.factorial(n) // automorphism_count(H)
    return total


NAIVE_FILTER_CELLS = {(m, 2) for m in range(1, 5)}
NAIVE_FILTER_CELLS |= {(m, 3) for m in range(1, 5)}
NAIVE_FILTER_CELLS |= {(m, 4) for m in range(1, 4)}


def naive_filter_class_count(m: int, r: int) -> int:
    """Generate-all-and-filter oracle: distinct classes among all labeled
    m-subsets of r-sets on n = m(r-1)+1 vertices that form hypertrees.

    On exactly n = m(r-1)+1 vertices an acyclic m-edge set is
    automatically connected and spanning (each acyclic edge merges r
    components, so m edges leave n - m(r-1) = 1), so the filter is just
    acyclicity.  Guarded to the cells where the subset space is small.
    """
    if (m, r) not in NAIVE_FILTER_CELLS:
        raise ValueError(f"naive filter oracle not sized for m={m}, r={r}")
    n = m * (r - 1) + 1
    candidates = list(combinations(range(n), r))
    codes: set[CanonicalCode] = set()

    def parent_find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def extend(start: int, chosen: list[int], parent: list[int]) -> None:
        if len(chosen) == m:
            H = Hypergraph(r, n, tuple(candidates[i] for i in chosen))
            codes.add(canonical_code(H))
            return
        for i in range(start, len(candidates)):
            e = candidates[i]
            roots = {parent_find(parent, v) for v in e}
            if len(roots) < r:
                continue
            saved = parent[:]
            roots = list(roots)
            for other in roots[1:]:
                parent[other] = roots[0]
            chosen.append(i)
            extend(i + 1, chosen, parent)
            chosen.pop()
            parent[:] = saved

    extend(0, [], list(range(n)))
    return len(codes)


# ---------------------------------------------------------------------------
# ordinary-tree oracle for r = 2
# ---------------------------------------------------------------------------


def _prufer_to_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(heap, x)
    u, v = heapq.heappop(heap), heapq.heappop(heap)
    edges.append((u, v))
    return edges


def _centroid_code(n: int, edges: list[tuple[int, int]]) -> tuple:
    """Canonical form of a tree via centroid-rooted tuple encoding.

    Deliberately different machinery from the incidence-forest AHU codes:
    direct adjacency, centroid (not center) rooting, nested tuples.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    size = [1] * n
    order: list[int] = []
    parent = [-1] * n
    stack = [0]
    seen = [False] * n
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    centroids = []
    for v in range(n):
        heaviest = n - size[v]
        for w in adj[v]:
            if parent[w] == v:
                heaviest = max(heaviest, size[w])
        if heaviest <= n // 2:
            centroids.append(v)

    def encode(root: int) -> tuple:
        def go(v: int, par: int) -> tuple:
            return tuple(sorted(go(w, v) for w in adj[v] if w != par))

        return go(root, -1)

    return min(encode(c) for c in centroids)


def tree_class_count_prufer(n: int) -> int:
    """Unlabeled trees on n vertices, counted the slow way.

    Decodes every Prufer sequence and deduplicates with the centroid
    encoding; independent of the pendent-growth generator and of the
    incidence-forest codes.
    """
    if n == 1 or n == 2:
        return 1
    seen = set()
    for seq in product(range(n), repeat=n - 2):
        seen.add(_centroid_code(n, _prufer_to_edges(seq, n)))
    return len(seen)
