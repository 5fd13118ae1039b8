"""`hypergraph.validate` as it was before it ran the forest scan first,
kept as a reference for the tests: the vertex-pair index of every edge
pair is built on every input, acyclic ones included."""

from itertools import combinations

from hypertree_spectra.hypergraph import ValidationReport, _forest_scan


def validate(H):
    violations = []
    uniform = True
    for e in H.edges:
        if len(e) != H.r:
            uniform = False
            violations.append(f"edge {e} has {len(e)} vertices, expected {H.r}")
    # edge pairs sharing two or more vertices meet at a common vertex pair
    holders = {}
    clashes = set()
    for j, e in enumerate(H.edges):
        for pair in combinations(e, 2):
            earlier = holders.setdefault(pair, [])
            if earlier:
                clashes.update((i, j) for i in earlier)
            earlier.append(j)
    for i, j in sorted(clashes):
        a, b = H.edges[i], H.edges[j]
        violations.append(f"edges {a} and {b} share {len(set(a).intersection(b))} vertices")
    linear = not clashes
    cycle_edge, components, _ = _forest_scan(H)
    acyclic = cycle_edge is None
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
