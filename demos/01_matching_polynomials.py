"""Matching counts and matching polynomials, exactly.

A k-matching is a set of k pairwise disjoint edges.  For an r-uniform
hypergraph of order n the matching polynomial used here is

    phi(H, x) = sum_k (-1)^k m(H, k) x^(n - k r),

which always has degree n, so hypergraphs of the same order can be
compared coefficient by coefficient.  Everything below is arbitrary
precision: no floats appear until a root is wanted.
"""

from hypertree_spectra import (
    brute_force_counts,
    build_Ra,
    delete_edge,
    delete_edge_closed,
    hyperstar,
    matching_counts,
    matching_polynomial,
    Hypergraph,
)


def show(H, name):
    profile = matching_counts(H)
    phi = matching_polynomial(H)
    terms = " ".join(
        f"{'+' if c > 0 else '-'} {abs(c)}x^{e}" for e, c in sorted(phi.coeffs.items(), reverse=True)
    )
    print(f"{name}: n={H.n}, m={H.m}, counts={profile.counts}, nu={profile.nu}")
    print(f"   phi = {terms}")


print("== small families ==")
show(hyperstar(3, 2), "star K_{1,3}")
show(Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)]), "path P4")
show(build_Ra(2, 3), "three 3-edges in a chain")
show(hyperstar(4, 3), "hyperstar S_4^3")

print()
print("== the deletion recurrence, checked exactly ==")
H = build_Ra(2, 3)
phi = matching_polynomial(H).coeffs
e = H.edges[0]
without = matching_polynomial(delete_edge(H, e)).coeffs
closed = matching_polynomial(delete_edge_closed(H, e).hypergraph).coeffs
# exponent -> coefficient dicts, compared termwise
same = all(
    phi.get(k, 0) == without.get(k, 0) - closed.get(k, 0)
    for k in phi.keys() | without.keys() | closed.keys()
)
print(f"phi(H) == phi(H \\ e) - phi(H - V(e)) for e={e}: {same}")

print()
print("== counts agree with the subset-enumeration oracle ==")
for name, G in [("S_5^3", hyperstar(5, 3)), ("chain", build_Ra(3, 4))]:
    fast = matching_counts(G).counts
    slow = brute_force_counts(G).counts
    print(f"{name}: recurrence {fast} vs brute force {slow} -> {fast == slow}")
