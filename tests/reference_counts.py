"""Reference hyperforest matching counts for the tests: the children-before-
parents fold over coefficient lists, against which the packed-int fold of
`matching._forest_counts` is checked."""

from hypertree_spectra import polynomials as poly
from hypertree_spectra.hypergraph import Hypergraph, _incidence_walk


def forest_counts(H: Hypergraph) -> list[int]:
    """Counts of a hyperforest as a list in t, children before parents.

    Each node x carries (full, free): the matchings below x, all of them
    and those leaving x out (for an edge node: not using the edge).
    """
    order, parent = _incidence_walk(H)
    # (full, free) folded so far from the children of each node; the
    # forest's tree roots multiply into node -1
    below: dict[int, tuple[list[int], list[int]]] = {}
    for x in reversed(order):
        full, free = below.pop(x, ([1], [1]))
        if x >= H.n:  # an edge: the products over its vertices become (full, free)
            full, free = poly.add(full, [0] + free), full
        p = parent[x]
        a, f = below.get(p, ([1], [1]))
        if x >= H.n and p >= 0:  # edge x covers vertex p, or stays out
            a = poly.add(poly.mul(a, free), poly.mul(f, poly.sub(full, free)))
        else:
            a = poly.mul(a, full)
        below[p] = (a, poly.mul(f, free) if p >= 0 else f)
    return below.get(-1, ([1],))[0]
