"""Reference canonical codes for the tests: the AHU pass that merges
(code, automorphism order) tuples of each node's children in a dict of
sibling lists, against which the array pass of
`hypergraph._forest_code` is checked."""

from hypertree_spectra.hypergraph import Hypergraph, _incidence_walk


def _merge(parts: list[tuple[str, int]]) -> tuple[str, int]:
    """Sorted concatenation of sibling codes and the order of their automorphism group.

    Siblings are permuted among themselves only when their codes agree, so
    each block of k equal codes contributes k!.
    """
    parts.sort()
    aut = 1
    run = 1
    for i, (code, sub_aut) in enumerate(parts):
        aut *= sub_aut
        if i and code == parts[i - 1][0]:
            run += 1
            aut *= run
        else:
            run = 1
    return "".join(code for code, _ in parts), aut


def forest_code(H: Hypergraph) -> tuple[bytes, int, list[int]]:
    """(canonical code, automorphism-group order, vertex orbit ids) of a
    hyperforest; cyclic input raises ValueError."""
    order, parent = _incidence_walk(H)
    if len(order) < len(parent):
        raise ValueError("canonical code and automorphism count are defined for hyperforests only")
    codes = [""] * len(parent)
    # encoded subtrees awaiting their parent; tree roots wait under -1
    below: dict[int, list[tuple[str, int]]] = {}
    for x in reversed(order):
        code, aut = _merge(below.pop(x, []))
        code = codes[x] = ("v(" if x < H.n else "e(") + code + ")"
        below.setdefault(parent[x], []).append((code, aut))
    code, aut = _merge(below.pop(-1, []))
    key = [-1] * len(parent)
    ids: dict[tuple[int, str], int] = {}
    for x in order:
        p = parent[x]
        key[x] = ids.setdefault((key[p] if p >= 0 else -1, codes[x]), len(ids))
    return f"r{H.r}:{code}".encode("ascii"), aut, key[: H.n]
