"""Named hypertree families and the closed-form extremal bounds.

The extremal family: given m edges, a target matching size k, and edge
size r, write k - 1 = (r-1) q + s with 0 <= s < r - 1 and
l = m - (q r + s + 1).  The maximizer A(m, k, r) is the loaded star
S((r-1)^(q), s, 0^(l)): a hyperstar on q + 1 + l edges with r - 1
pendent edges attached to each of q star edges and s attached to one
more.  Its spectral radius is (1/(1 - alpha0))^(1/r) where alpha0 is the
maximum root in (0, 1) of

    x^(r-1) * (1/(1-x) - x^(-s) - l) = q,

which specializes, for hypertrees with a perfect matching, to
r x^r = (m - 1)(1 - x): 0 = kr = m(r-1) + 1 = -(m-1) mod r, so r | m - 1,
s = l = 0 and q = (m-1)/r.  The bound reads alpha0 off an integer
polynomial as the double nearest its top root, by the same route as
polyroot's rho^r (`polynomials._nearest_top_root`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from . import polynomials as poly
from .hypergraph import Hypergraph, _with_pendents, single_edge


class InfeasibleParameters(ValueError):
    """No hypertree with these (m, k, r) exists; nothing to bound."""


@dataclass(frozen=True)
class ExtremalParams:
    m: int
    k: int
    r: int
    q: int
    s: int
    l: int
    feasible: bool


@dataclass(frozen=True)
class BoundResult:
    """`certificate`: alpha0's final rational bracket from the top-root
    kernel (`polynomials._nearest_top_root`); `top`: rho^r as a certified
    top root (B, bracket), from `_bound_top`."""

    alpha0: float
    rho: float
    certificate: tuple
    top: tuple


@dataclass(frozen=True)
class CompositionVector:
    """Non-increasing nonnegative integer vector with a cap: member of A^c_(a,b)."""

    entries: tuple[int, ...]
    cap: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        if any(e < 0 for e in self.entries):
            raise ValueError("entries must be nonnegative")
        if any(a < b for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError("entries must be non-increasing")
        if self.entries and self.cap < self.entries[0]:
            raise ValueError(f"cap {self.cap} below largest entry {self.entries[0]}")

    @property
    def total(self) -> int:
        return sum(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _entry_list(pendants: Union[CompositionVector, Sequence[int]]) -> list[int]:
    if isinstance(pendants, CompositionVector):
        return list(pendants.entries)
    return [int(a) for a in pendants]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def hyperstar(m: int, r: int) -> Hypergraph:
    """S_m^r: m edges pairwise intersecting exactly in the center vertex 0."""
    if m < 1:
        raise ValueError("a hyperstar needs at least one edge")
    if r < 2:
        raise ValueError("edge size must be at least 2")
    return _with_pendents(Hypergraph(r, 1), (0,) * m)


def build_S(pendants: Union[CompositionVector, Sequence[int]], r: int) -> Hypergraph:
    """S(a_1, ..., a_b): hyperstar on b edges with a_i pendent edges on edge i.

    Pendants are attached at the lowest-id core vertices of their star
    edge; any choice of distinct core vertices gives an isomorphic result,
    so the deterministic pick only pins the labeling.  One pendant pass
    grows the b star edges at vertex 0, then the pendants on their cores.
    """
    a = _entry_list(pendants)
    if not a:
        raise ValueError("need at least one star edge")
    if any(x < 0 for x in a):
        raise ValueError("pendant counts must be nonnegative")
    if any(x > r - 1 for x in a):
        raise ValueError(f"an edge has only {r - 1} core vertices for pendants")
    cores = [1 + i * (r - 1) + t for i, count in enumerate(a) for t in range(count)]
    return _with_pendents(Hypergraph(r, 1), [0] * len(a) + cores)


def build_Ra(a: int, r: int) -> Hypergraph:
    """R_a: one central edge with a pendent edges on a of its vertices."""
    if not 1 <= a <= r:
        raise ValueError(f"need 1 <= a <= {r}")
    return _with_pendents(single_edge(r), range(a))


def build_Tva(T: Hypergraph, v: int, a: int) -> Hypergraph:
    """T(v; a): glue R_a to T by identifying a free core vertex of its
    central edge with v (so the edge takes the ids T.n onward, a of them
    getting pendants).  a = 0 degenerates to a bare pendent edge at v."""
    T.check_vertex(v)
    if not 0 <= a <= T.r - 1:
        raise ValueError(f"need 0 <= a <= {T.r - 1} so the central edge keeps a free core vertex")
    return _with_pendents(T, (v, *range(T.n, T.n + a)))


def build_Tvab(T: Hypergraph, v: int, a: int, b: int) -> Hypergraph:
    """T(v; a, b): two R-gadgets glued at the same vertex of T."""
    return build_Tva(build_Tva(T, v, b), v, a)


# ---------------------------------------------------------------------------
# extremal parameters and the family A(m, k, r)
# ---------------------------------------------------------------------------


def extremal_params(m: int, k: int, r: int) -> ExtremalParams:
    """Euclidean split k-1 = (r-1)q + s plus l = m - (qr + s + 1).

    Feasibility needs l >= 0 and kr <= m(r-1) + 1 (a k-matching occupies
    kr distinct vertices); the s > 0, l = 0 corner is exactly the
    vertex-count violation.  Infeasibility is reported, never raised.
    """
    if r < 2:
        raise ValueError("edge size must be at least 2")
    if not m >= k >= 1:
        raise ValueError("need m >= k >= 1")
    q, s = divmod(k - 1, r - 1)
    l = m - (q * r + s + 1)
    feasible = l >= 0 and k * r <= m * (r - 1) + 1
    return ExtremalParams(m=m, k=k, r=r, q=q, s=s, l=l, feasible=feasible)


def build_A(m: int, k: int, r: int) -> Hypergraph:
    """The extremal hypertree A(m, k, r) = S((r-1)^(q), s, 0^(l))."""
    p = extremal_params(m, k, r)
    if not p.feasible:
        raise InfeasibleParameters(f"no hypertree with m={m}, k={k}, r={r}")
    H = build_S([r - 1] * p.q + [p.s] + [0] * p.l, r)  # non-increasing: s < r - 1
    assert H.m == m, "edge count drifted"
    return H


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def _cleared_bound_poly(r: int, q: int, s: int, l: int) -> list[int]:
    """G(a) = a^s (1-a) g(a) = a^(r-1+s) - (1-a) (a^(r-1) + l a^(r-1+s) + q a^s):
    integer coefficients, degree <= r + s, and g's sign on (0, 1)."""
    G = [0] * (r + s + 1)
    for e, c in ((r - 1 + s, 1 - l), (r + s, l), (r - 1, -1), (r, 1), (s, -q), (s + 1, q)):
        G[e] += c
    return G


def _bound_top(G: list[int], alpha_bracket: tuple) -> tuple:
    """rho^r of the closed form as a certified top root: B(z) = z^deg(G) G(1 - 1/z),
    whose top root is 1/(1 - alpha0), and alpha0's bracket mapped by x -> 1/(1 - x).
    With G(1 + y) = sum h_j y^j, B(z) = sum (-1)^j h_j z^(deg G - j)."""
    shifted = poly.taylor_shift(G, 1)
    B = poly.trim([-h if j % 2 else h for j, h in enumerate(shifted)][::-1])
    return B, tuple(1 / (1 - x) for x in alpha_bracket)


def rho_bound(m: int, k: int, r: int) -> BoundResult:
    """Closed-form spectral-radius bound for hypertrees with a k-matching.

    alpha0 is the maximum root in (0, 1) of
    g(a) = a^(r-1) (1/(1-a) - a^(-s) - l) - q, which is the largest root
    in (0, 1) of the integer polynomial G(a) = a^s (1-a) g(a) with its
    power of a divided out.  rho = (1/(1-alpha0))^(1/r).  No real root of
    G lies at or above 1: there G(a) = a^(r-1+s) + (a-1)(a^(r-1) +
    l a^(r-1+s) + q a^s) >= 1, and dividing out a power of a keeps that
    sign.  So alpha0 is G's largest real root, read with no interval.
    """
    p = extremal_params(m, k, r)
    if not p.feasible:
        raise InfeasibleParameters(f"no hypertree with m={m}, k={k}, r={r}")
    G = _cleared_bound_poly(r, p.q, p.s, p.l)  # with its power of a, for `_bound_top`
    if p.q == 0 and p.s == 0 and p.l == 0:  # G = a^r, and B = (z - 1)^r
        alpha0, bracket = 0.0, (Fraction(0), Fraction(0))
    else:
        low = next(i for i, c in enumerate(G) if c)
        alpha0, _, bracket = poly._nearest_top_root(G[low:])
    rho = (1.0 / (1.0 - alpha0)) ** (1.0 / r)
    return BoundResult(alpha0, rho, bracket, _bound_top(G, bracket))


def perfect_matching_bound(m: int, r: int) -> BoundResult:
    """Bound specialization when the matching is perfect (kr = m(r-1) + 1):
    `rho_bound` at s = l = 0, since 0 = kr = -(m-1) mod r makes r divide
    m - 1, and k - 1 = q (r-1) with q = (m-1)/r.  There r G(a) is
    r a^r + (m-1) a - (m-1), so alpha0 is the unique root in (0, 1) of
    r a^r = (m-1)(1-a)."""
    if r < 2:
        raise ValueError("edge size must be at least 2")
    if m < 1:
        raise InfeasibleParameters(f"m={m}: a hypertree needs at least one edge")
    n = m * (r - 1) + 1
    if n % r:
        raise InfeasibleParameters(
            f"m={m}, r={r}: perfect matching needs r | m(r-1)+1 (n={n})"
        )
    return rho_bound(m, n // r, r)
