"""Exact matching counts and the matching polynomial.

Counts m(H, k) of k-matchings of a hyperforest come from the tree
recurrence for matching polynomials, run over each incidence tree
children before parents.  The run keeps each polynomial in t as one
packed int (Kronecker substitution: t = 2^B, with B-bit slots too wide
for any count to carry into the next), so each product of the
recurrence is a single bigint multiply.  A first run at t = 1 counts the
matchings below each node, which sizes its slots.

Only cyclic input uses the edge-deletion recurrence
m(H, k) = m(H \\ e, k) + m(H - V(e), k - 1), one component at a time,
branching on an edge that closes a cycle, so its depth grows with the
number of independent cycles, not with m.  Everything is arbitrary
precision; the brute-force subset enumerator is kept as an independent
oracle.

The matching polynomial of a hypergraph of order n is
phi(H, x) = sum_k (-1)^k m(H, k) x^(n - k r), of degree n, so hypergraphs
of equal order always get equal-degree polynomials and deletion
identities line up exponent by exponent without manual shifting.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from . import polynomials as poly
from .hypergraph import (
    Hypergraph,
    ValidationReport,
    _forest_scan,
    _incidence_walk,
    _json_fields,
    delete_edge,
    delete_edge_closed,
    validate,
)

BRUTE_FORCE_EDGE_LIMIT = 25

# append-only, immutable values: concurrent readers always see value semantics
_cache: dict = {}


def clear_matching_cache() -> None:
    _cache.clear()


@dataclass(frozen=True)
class MatchingProfile:
    """Counts (m(H,0), ..., m(H,nu)) with nu the matching number."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts or self.counts[0] != 1:
            raise ValueError("counts must start with m(H,0) = 1")
        if self.counts[-1] < 1:
            raise ValueError("trailing count must be positive")

    @property
    def nu(self) -> int:
        return len(self.counts) - 1

    def z_poly(self) -> list[int]:
        """Coefficients of p(z) = sum_k (-1)^k m(H,k) z^(nu-k), ascending.

        phi(H, x) = x^(n - nu*r) p(x^r), so the largest root of p is rho^r.
        """
        nu = self.nu
        return [(-1) ** (nu - j) * self.counts[nu - j] for j in range(nu + 1)]


@dataclass
class MatchPoly:
    """phi(H, x) stored exactly as exponent -> integer coefficient."""

    n: int
    r: int
    coeffs: dict[int, int]

    def __post_init__(self):
        self.coeffs = {e: c for e, c in self.coeffs.items() if c != 0}
        if self.coeffs.get(self.n) != 1:
            raise ValueError("leading term must be x^n with coefficient 1")
        for e, c in self.coeffs.items():
            if e < 0 or e > self.n or (self.n - e) % self.r:
                raise ValueError(f"exponent {e} not congruent to n mod r")
            k = (self.n - e) // self.r
            if (c > 0) != (k % 2 == 0):
                raise ValueError("signs must alternate with k")

    def to_json_dict(self) -> dict:
        coeffs = {str(e): str(self.coeffs[e]) for e in sorted(self.coeffs, reverse=True)}
        return {"n": self.n, "r": self.r, "coeffs": coeffs}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "MatchPoly":
        """Integers may be ints or the decimal strings `to_json_dict` writes;
        data of the wrong shape raises ValueError naming the field."""
        n, r, coeffs = _json_fields(data, "matching polynomial", ("n", "r", "coeffs"))
        if not isinstance(coeffs, dict):
            raise ValueError("matching polynomial field 'coeffs' must be an object")
        coeffs = {_json_int(e, "coeffs"): _json_int(c, f"coeffs[{e!r}]") for e, c in coeffs.items()}
        return cls(_json_int(n, "n"), _json_int(r, "r"), coeffs)

    @classmethod
    def from_json(cls, text: str) -> "MatchPoly":
        return cls.from_json_dict(json.loads(text))


def _json_int(value, field: str) -> int:
    """An int, or a decimal string such as `MatchPoly.to_json_dict` writes, as an int."""
    if type(value) is int or isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(f"matching polynomial field {field!r} must be an integer, not {value!r}")


def _widen(v: int, w: int, w2: int) -> int:
    """Packed int v with w-byte slots, repacked with w2-byte slots."""
    data = v.to_bytes((v.bit_length() + 7) // 8, "little")
    return int.from_bytes(bytes(w2 - w).join([data[i : i + w] for i in range(0, len(data), w)]), "little")


def _fold(H: Hypergraph, order: list[int], parent: list[int], width: list[int]) -> tuple[int, list[int]]:
    """The fold of `_forest_counts`, packed at width[x] bytes a slot at
    node x and width[-1] at the forest's root; also each node's
    full.bit_length()."""
    bits = [0] * len(order)
    # (full, free) folded so far from the children of each node; the
    # forest's tree roots multiply into node -1
    below: dict[int, tuple[int, int]] = {}
    n = H.n
    for x in reversed(order):
        full, free = below.pop(x, (1, 1))
        w = width[x]
        if x >= n:  # an edge: the products over its vertices become (full, free)
            full, free = full + (free << 8 * w), full
        bits[x] = full.bit_length()
        p = parent[x]
        if width[p] != w:
            full, free = _widen(full, w, width[p]), _widen(free, w, width[p])
        a, f = below.get(p, (1, 1))
        if x >= n and p >= 0:  # edge x covers vertex p, or stays out
            a = a * free + f * (full - free)
        else:
            a = a * full
        below[p] = (a, f * free if p >= 0 else f)
    return below.get(-1, (1,))[0], bits


def _forest_counts(H: Hypergraph, walk: tuple | None = None) -> list[int]:
    """Counts of a hyperforest as a polynomial in t, children before parents
    of `walk`, its `_incidence_walk` (made here if not given).

    Each node x carries (full, free): the matchings below x, all of them
    and those leaving x out (for an edge node: not using the edge).  The
    polynomials are packed ints (Kronecker substitution): sum c_k t^k is
    sum c_k 2^(kB), so a product is one bigint multiply, a sum one add,
    and a factor t a shift by B.

    The first fold runs at B = 0, i.e. t = 1: it counts Z_x, the number
    of matchings below each node x, and Z = M(H, 1) for all of H.  The
    second runs at B_x = Z_x.bit_length(), rounded up to whole bytes, at
    node x, and the values a child hands its parent are repacked to the
    parent's wider slots.  No slot ever carries or borrows: every value
    formed at x (full, free, full - free, the products, a) has
    nonnegative coefficients and counts matchings of a sub-hyperforest of
    x's subtree, so its coefficient sum is at most Z_x < 2^(B_x).  The
    counts are then the slots of the final int, read in one pass over its
    bytes.  Slots sized per node, rather than all at Z's width, keep the
    many small products below the root small.
    """
    order, parent = walk or _incidence_walk(H)
    Z, bits = _fold(H, order, parent, [0] * (len(order) + 1))
    size = (Z.bit_length() + 7) // 8
    width = [(b + 7) // 8 for b in bits] + [size]  # width[-1]: the forest's root
    packed, _ = _fold(H, order, parent, width)
    data = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


def _cyclic_counts(H: Hypergraph) -> list[int]:
    """Counts of H with a cycle through edge e, the one `_forest_scan` finds, per
    component, so that the branches of disjoint cycles add up instead of multiplying."""
    e, _, find = _forest_scan(H)
    parts: dict[int, list[tuple[int, ...]]] = {}
    for x in H.edges:
        parts.setdefault(find(x[0]), []).append(x)
    if len(parts) == 1:
        # e lies on a cycle, so both branches have fewer independent cycles
        skip = _counts(delete_edge(H, e))
        take = _counts(delete_edge_closed(H, e).hypergraph)
        return poly.add(skip, (0,) + take)
    total = [1]
    for edges in parts.values():
        ids: dict[int, int] = {}
        part = tuple(tuple(ids.setdefault(v, len(ids)) for v in x) for x in edges)
        total = poly.mul(total, _counts(Hypergraph(H.r, len(ids), part)))
    return total


def _counts(H: Hypergraph) -> tuple[int, ...]:
    key = (H.r, H.n, H.edges)
    hit = _cache.get(key)
    if hit is None:
        walk = _incidence_walk(H)  # a hyperforest exactly when every node is peeled
        hit = _cache[key] = tuple(_forest_counts(H, walk) if len(walk[0]) == H.n + H.m else _cyclic_counts(H))
    return hit


def _require_uniform_linear(report: ValidationReport) -> ValidationReport:
    """A `validate` report that finds H uniform and linear, else ValueError."""
    if not (report.uniform and report.linear):
        raise ValueError(f"invalid hypergraph: {'; '.join(report.violations)}")
    return report


def matching_counts(H: Hypergraph) -> MatchingProfile:
    """Exact k-matching counts for every k up to the matching number."""
    _require_uniform_linear(validate(H))
    return MatchingProfile(_counts(H))


def matching_number(H: Hypergraph) -> int:
    return matching_counts(H).nu


def matching_polynomial(H: Hypergraph) -> MatchPoly:
    profile = matching_counts(H)
    coeffs = {H.n - k * H.r: (-1) ** k * c for k, c in enumerate(profile.counts)}
    return MatchPoly(H.n, H.r, coeffs)


def brute_force_counts(H: Hypergraph) -> MatchingProfile:
    """Independent oracle: enumerate pairwise-disjoint edge subsets by size.

    The search walks every matching exactly once (subsets already sharing
    a vertex are abandoned), so it touches none of the recurrence code.
    """
    if H.m > BRUTE_FORCE_EDGE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_EDGE_LIMIT} edges")
    masks = [0] * H.m
    for i, e in enumerate(H.edges):
        for v in e:
            masks[i] |= 1 << v
    counts = [0] * (H.m + 1)
    counts[0] = 1

    def walk(start: int, used: int, size: int) -> None:
        for j in range(start, H.m):
            if masks[j] & used:
                continue
            counts[size + 1] += 1
            walk(j + 1, used | masks[j], size + 1)

    walk(0, 0, 0)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return MatchingProfile(tuple(counts))
