"""Data model and structural operations for r-uniform linear hypergraphs.

A hypergraph is stored as a declared edge size r, a vertex count n with
dense vertex ids 0..n-1, and a normalized tuple of edges (each edge a
sorted tuple of distinct vertex ids, edges sorted lexicographically).
Construction rejects non-integer r, n or vertex ids (numpy integers
pass), duplicate edges and out-of-range vertex ids; edge size and
pairwise-intersection violations are surfaced by `validate`, which
reports findings instead of raising.

Acyclicity is decided on the bipartite vertex-edge incidence graph: a
linear hypergraph is acyclic exactly when that graph is a forest.  One
pass peeling the incidence forest's leaves in rounds roots each incidence
tree at its center, the last node peeled, and lists parents first; it
drives both the matching-count DP in `matching` and `_forest_code`, one
AHU pass over per-node lists of child codes, which gives everything read
off the forest's shape: the canonical code (and with it isomorphism
tests), the order of the automorphism group, and the vertex orbits.  The
center is unique: every edge holds at least two vertices, so every leaf
of an incidence tree is a vertex node, any two leaves lie at even
distance in the bipartite incidence graph, and the diameter is even.  A
cycle is never peeled, so the same pass tells `_forest_code` of it.
All operations are pure functions over immutable values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from operator import index
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

CanonicalCode = bytes


def _integer(x, field: str) -> int:
    """x as an int (numpy integers too); a float, even 3.0, raises ValueError."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{field} must be an integer, got {x!r}") from None


def _edge(e: Iterable[int]) -> tuple[int, ...]:
    """An edge's distinct vertex ids, sorted, checked as by `_integer`."""
    try:
        return tuple(sorted(set(map(index, e))))
    except TypeError:
        raise ValueError(f"vertex ids must be integers, got edge {e!r}") from None


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph with dense integer vertex ids.

    `r` is the declared uniformity: edges of a different size can be
    constructed (so that `validate` can report them) but every algorithm
    beyond validation assumes r-uniform linear input.
    """

    r: int
    n: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        r, n = _integer(self.r, "edge size r"), _integer(self.n, "vertex count n")
        if r < 2:
            raise ValueError(f"edge size r must be at least 2, got {r}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        norm = []
        for e in self.edges:
            t = _edge(e)
            if not t:
                raise ValueError("empty edge")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"edge {t} has a vertex outside 0..{n - 1}")
            norm.append(t)
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def edge_tuple(self, e: Iterable[int]) -> tuple[int, ...]:
        """Normalize `e` and check membership."""
        t = _edge(e)
        if t not in self.edges:
            raise ValueError(f"edge {t} not present")
        return t

    def check_vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        return v


class DeletionResult(NamedTuple):
    """Deletion output: the new hypergraph plus the old->new vertex id map."""

    hypergraph: Hypergraph
    vertex_map: dict[int, int]


@dataclass(frozen=True)
class ValidationReport:
    uniform: bool
    linear: bool
    connected: bool
    acyclic: bool
    is_hypertree: bool
    violations: tuple[str, ...]


def single_edge(r: int) -> Hypergraph:
    """The one-edge r-uniform hypergraph on vertices 0..r-1."""
    return Hypergraph(r, r, (tuple(range(r)),))


def _with_pendents(H: Hypergraph, vertices: Iterable[int]) -> Hypergraph:
    """H plus a pendent edge at each of `vertices` in turn, the i-th on fresh
    ids from n + i(r-1), so a later vertex may be one an earlier edge made."""
    r1, n, grown = H.r - 1, H.n, []
    for v in vertices:
        grown.append((v, *range(n, n + r1)))
        n += r1
    return Hypergraph(H.r, n, H.edges + tuple(grown))


# ---------------------------------------------------------------------------
# validation and local structure
# ---------------------------------------------------------------------------


def _forest_scan(H: Hypergraph) -> tuple[Optional[tuple[int, ...]], int, Callable[[int], int]]:
    """(cycle edge, component count, find) via union-find over vertices.

    `find` maps a vertex to its component's root.  An edge whose vertices
    already meet a common component closes a cycle in the incidence graph;
    this matches the walk-based cycle notion for linear hypergraphs and
    flags any pair of edges sharing >= 2 vertices.  The first such edge is
    returned (None on a hyperforest).
    """
    parent = list(range(H.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cycle_edge = None
    components = H.n
    for e in H.edges:
        root = find(e[0])
        for v in e[1:]:
            other = find(v)
            if other == root:
                cycle_edge = cycle_edge or e
            else:
                parent[other] = root
                components -= 1
    return cycle_edge, components, find


def is_acyclic(H: Hypergraph) -> bool:
    return _forest_scan(H)[0] is None


def validate(H: Hypergraph) -> ValidationReport:
    """Check uniformity, linearity, connectivity, and acyclicity.

    Never raises: findings are returned as human-readable violations.
    """
    violations = []
    uniform = True
    for e in H.edges:
        if len(e) != H.r:
            uniform = False
            violations.append(f"edge {e} has {len(e)} vertices, expected {H.r}")
    cycle_edge, components, _ = _forest_scan(H)
    acyclic = cycle_edge is None
    # edge pairs sharing two or more vertices meet at a common vertex pair;
    # the later edge of such a pair closes a cycle in the scan, so only
    # cyclic input is searched for them
    holders: dict[tuple[int, int], list[int]] = {}
    clashes = set()
    for j, e in enumerate(() if acyclic else H.edges):
        for pair in combinations(e, 2):
            earlier = holders.setdefault(pair, [])
            if earlier:
                clashes.update((i, j) for i in earlier)
            earlier.append(j)
    for i, j in sorted(clashes):
        a, b = H.edges[i], H.edges[j]
        violations.append(f"edges {a} and {b} share {len(set(a).intersection(b))} vertices")
    linear = not clashes
    connected = components <= 1
    if not connected:
        violations.append(f"{components} connected components")
    if not acyclic:
        violations.append("contains a cycle")
    return ValidationReport(
        uniform=uniform,
        linear=linear,
        connected=connected,
        acyclic=acyclic,
        is_hypertree=connected and acyclic,
        violations=tuple(violations),
    )


def degree(H: Hypergraph, v: int) -> int:
    """Number of edges containing v."""
    H.check_vertex(v)
    return sum(1 for e in H.edges if v in e)


def is_pendent_edge(H: Hypergraph, e: Iterable[int]) -> bool:
    """An edge is pendent when all but one of its vertices have degree 1."""
    t = H.edge_tuple(e)
    core = sum(1 for v in t if degree(H, v) == 1)
    return core == len(t) - 1


# ---------------------------------------------------------------------------
# partial hypergraphs
# ---------------------------------------------------------------------------


def delete_edge(H: Hypergraph, e: Iterable[int]) -> Hypergraph:
    """Remove one edge, keeping every vertex."""
    t = H.edge_tuple(e)
    return Hypergraph(H.r, H.n, tuple(x for x in H.edges if x != t))


def delete_vertices(H: Hypergraph, remove: Iterable[int]) -> DeletionResult:
    """Keep exactly the edges contained in the remaining vertex set.

    Vertex ids are re-compacted (order preserving); the old->new map is
    returned so callers can track surviving vertices.
    """
    gone = set(remove)
    for v in gone:
        H.check_vertex(v)
    keep = [v for v in range(H.n) if v not in gone]
    vmap = {old: new for new, old in enumerate(keep)}
    edges = tuple(
        tuple(vmap[v] for v in e) for e in H.edges if gone.isdisjoint(e)
    )
    return DeletionResult(Hypergraph(H.r, len(keep), edges), vmap)


def delete_vertex(H: Hypergraph, v: int) -> DeletionResult:
    return delete_vertices(H, (v,))


def delete_edge_closed(H: Hypergraph, e: Iterable[int]) -> DeletionResult:
    """Remove all vertices of e (and with them every edge meeting e)."""
    return delete_vertices(H, H.edge_tuple(e))


def restrict(H: Hypergraph, vertices: Iterable[int]) -> DeletionResult:
    """Induced partial hypergraph on a vertex subset, ids re-compacted."""
    keep = set(vertices)
    return delete_vertices(H, (v for v in range(H.n) if v not in keep))


def disjoint_union(G: Hypergraph, *rest: Hypergraph) -> Hypergraph:
    """Disjoint union of G and the rest, in one pass: each part's vertex
    ids are shifted by the vertex count of the parts before it."""
    n, edges = G.n, list(G.edges)
    for H in rest:
        if G.r != H.r:
            raise ValueError(f"edge sizes differ: {G.r} vs {H.r}")
        edges += (tuple(v + n for v in e) for e in H.edges)
        n += H.n
    return Hypergraph(G.r, n, tuple(edges))


def connected_components(H: Hypergraph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, in sorted order."""
    find = _forest_scan(H)[2]
    groups: dict[int, list[int]] = {}
    for v in range(H.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


# ---------------------------------------------------------------------------
# canonical codes for hyperforests
# ---------------------------------------------------------------------------


def _incidence_walk(H: Hypergraph) -> tuple[list[int], list[int]]:
    """Nodes of the incidence forest, parents first, and the parent of each.

    Nodes 0..n-1 are vertices, n..n+m-1 edges.  One pass peels leaves in
    rounds, each round in id order, and gives each peeled node the one
    neighbour not yet peeled as its parent; the reversed peel order lists
    parents first.  The last node peeled in each incidence tree is its
    center and root (parent -1).  Where a one-vertex edge leaves two
    adjacent centers, the vertex peels first and the edge-side one stays
    the root: its code sorts first ("e(" < "v("), and every automorphism
    fixes it since the two centers differ in kind.  Nodes on a cycle are
    never peeled, so on cyclic input `order` is shorter than n + m.
    """
    size = H.n + H.m
    # count and sum of each node's neighbours not yet peeled: a leaf's link is its one neighbour
    deg, link, parent = [0] * size, [0] * size, [-1] * size
    for j, e in enumerate(H.edges, H.n):
        deg[j] = len(e)
        link[j] = sum(e)
        for v in e:
            deg[v] += 1
            link[v] += j
    order: list[int] = []
    layer = [x for x, d in enumerate(deg) if d <= 1]
    while layer:
        layer.sort()
        order += layer
        leaves = []
        for x in layer:
            if deg[x]:
                p = parent[x] = link[x]
                link[p] -= x
                deg[p] -= 1
                if deg[p] == 1:
                    leaves.append(p)
        layer = leaves
    order.reverse()
    return order, parent


def _forest_code(H: Hypergraph) -> tuple[CanonicalCode, int, list[int]]:
    """Canonical code, automorphism-group order and vertex orbit ids of a
    hyperforest, all from one AHU pass over its incidence forest.  Cyclic
    input raises ValueError: the walk leaves the nodes of a cycle unpeeled.

    The pass runs children before parents over lists of child codes
    indexed by node id, the forest root -1 in the last slot.  Reached, a
    node sorts its list and wraps it as `v(...)` or `e(...)`; a node with
    no child is a leaf, `v()` (`e()` for a one-vertex edge).  The root's
    sorted list, the component codes, follows an `r{r}:` prefix.  Siblings
    permute only when their codes agree, so the group order is the
    product, over every list, of k! for each block of k equal codes.
    Every automorphism maps the center of each incidence tree to the
    center of its image, so two nodes share an orbit iff the chains of
    subtree codes on their paths from the root agree: a node's key is (its
    parent's key, its own code), and roots key on their code alone, so
    components with equal codes interchange.
    """
    order, parent = _incidence_walk(H)
    n, size = H.n, len(parent)
    if len(order) < size:
        raise ValueError("canonical code and automorphism count are defined for hyperforests only")
    codes, below, aut = [""] * size, [None] * size + [[]], 1
    for x in [*reversed(order), -1]:
        sib = below[x]
        if sib is None:
            code = "v()" if x < n else "e()"
        else:
            sib.sort()
            run = 1
            for i in range(1, len(sib)):
                run = run + 1 if sib[i] == sib[i - 1] else 1
                aut *= run
            if x < 0:  # the forest root: its list is the component codes
                break
            code = ("v(" if x < n else "e(") + "".join(sib) + ")"
        codes[x] = code
        if below[p := parent[x]] is None:
            below[p] = [code]
        else:
            below[p].append(code)
    key = [-1] * (size + 1)
    ids: dict[tuple[int, str], int] = {}
    for x in order:
        key[x] = ids.setdefault((key[parent[x]], codes[x]), len(ids))
    return f"r{H.r}:{''.join(below[-1])}".encode("ascii"), aut, key[:n]


def canonical_code(H: Hypergraph) -> CanonicalCode:
    """Canonical byte code of a hyperforest (`_forest_code`): two
    hyperforests get equal codes iff they are isomorphic.  Cyclic input
    raises ValueError."""
    return _forest_code(H)[0]


def is_isomorphic(G: Hypergraph, H: Hypergraph) -> bool:
    """Isomorphism test for hyperforests via canonical codes."""
    if G.r != H.r or G.n != H.n or G.m != H.m:
        return False
    return canonical_code(G) == canonical_code(H)


def automorphism_count(H: Hypergraph) -> int:
    """Order of the automorphism group of a hyperforest, from the same
    pass as its canonical code (`_forest_code`).  Cyclic input raises
    ValueError."""
    return _forest_code(H)[1]


def relabel(H: Hypergraph, perm: Sequence[int]) -> Hypergraph:
    """Apply a vertex permutation (perm[old] = new)."""
    if sorted(perm) != list(range(H.n)):
        raise ValueError("not a permutation of the vertex ids")
    return Hypergraph(H.r, H.n, tuple(tuple(perm[v] for v in e) for e in H.edges))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def to_json_dict(H: Hypergraph) -> dict:
    """Stable JSON form: edges sorted ascending, lexicographic order."""
    return {"r": H.r, "n": H.n, "edges": [list(e) for e in H.edges]}


def _json_fields(data, kind: str, keys: tuple[str, ...]) -> list:
    """The values of `keys` in the JSON object `data` that holds a `kind`;
    a non-object or a missing field raises ValueError naming it."""
    if not isinstance(data, dict):
        raise ValueError(f"a {kind} is a JSON object, not a {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{kind} field {key!r} is missing")
    return [data[key] for key in keys]


def from_json_dict(data: dict) -> Hypergraph:
    """Readers accept edges in any order; normalization re-sorts.  Data of
    the wrong shape raises ValueError naming the field."""
    r, n, edges = _json_fields(data, "hypergraph", ("r", "n", "edges"))
    if not (type(r) is int and type(n) is int):
        raise ValueError("hypergraph fields 'r' and 'n' must be integers")
    if not (isinstance(edges, list) and all(isinstance(e, list) and all(type(v) is int for v in e) for e in edges)):
        raise ValueError("hypergraph field 'edges' must be a list of lists of integer vertex ids")
    return Hypergraph(r, n, tuple(map(tuple, edges)))


def to_json(H: Hypergraph) -> str:
    return json.dumps(to_json_dict(H), separators=(", ", ": "))


def from_json(text: str) -> Hypergraph:
    return from_json_dict(json.loads(text))


def load(path: str) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def save(H: Hypergraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(H), fh)
        fh.write("\n")
