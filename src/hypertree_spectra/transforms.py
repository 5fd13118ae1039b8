"""Hypertree rewrites, the matching-polynomial order, and majorization.

Edge-moving replaces chosen edges e_i by (e_i \\ {v_i}) | {u}; when the
principal eigenvector satisfies x_u >= max x_{v_i} the spectral radius
strictly grows.  Edge-releasing a non-pendent edge e at u moves every
edge adjacent to e but missing u over to u (any choice of u in e gives
isomorphic output, so u is pinned to e's lowest vertex id).

For hyperforests of equal order, T1 precedes T2 when
phi(T1, x) >= phi(T2, x) for every x >= rho(T1), strictly when the
difference also misses zero at x = rho(T1).  In z = x^r the difference is
an integer polynomial D, and both are decided exactly.  A Descartes
certificate comes first: p1 (phi(T1) in z) of sign opposite to its leading
coefficient at a rational c > 0 has an odd number of roots above c, so
rho(T1)^r > c, and D(c + y) with no negative coefficient and a positive
constant term is > 0 for y >= 0 by the rule of signs.  Otherwise D's odd
part O, the product of its square-free factors of odd multiplicity, has
D's sign off D's roots and only simple roots, so D >= 0 beyond rho(T1)^r
exactly when O's top root, from the same top-root kernel, is not above
it: one comparison (`polynomials._compare`), and a gcd tells whether D
vanishes at rho(T1)^r.  No verdict rests on floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from . import polynomials as poly
from .constructions import CompositionVector
from .hypergraph import Hypergraph, is_pendent_edge, validate
from .matching import MatchingProfile, _counts, _require_uniform_linear

Vector = Union[CompositionVector, Sequence[int]]

PRECEDES_STRICT = "precedes_strict"
PRECEDES_WEAK = "precedes_weak"
SUCCEEDS_STRICT = "succeeds_strict"
SUCCEEDS_WEAK = "succeeds_weak"
EQUAL_POLY = "equal_poly"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class OrderRelation:
    tag: str
    witness: dict


# ---------------------------------------------------------------------------
# edge rewrites
# ---------------------------------------------------------------------------


def move_edges(
    H: Hypergraph, u: int, moves: Iterable[tuple[Iterable[int], int]]
) -> Hypergraph:
    """Move each (edge, vertex) pair to u: e_i becomes (e_i - {v_i}) + {u}.

    Requires u outside every moved edge and v_i inside its edge; the
    rewritten hypergraph must stay linear (and free of duplicate edges),
    otherwise the move is rejected.
    """
    H.check_vertex(u)
    move_list = []
    seen = set()
    for e, v in moves:
        t = H.edge_tuple(e)
        if t in seen:
            raise ValueError(f"edge {t} moved twice")
        seen.add(t)
        if u in t:
            raise ValueError(f"target vertex {u} already lies in {t}")
        if v not in t:
            raise ValueError(f"vertex {v} not in edge {t}")
        move_list.append((t, v))
    if not move_list:
        return H
    edges = [e for e in H.edges if e not in seen]
    for t, v in move_list:
        edges.append(tuple(sorted((set(t) - {v}) | {u})))
    result = Hypergraph(H.r, H.n, tuple(edges))
    report = validate(result)
    if not report.linear:
        raise ValueError(f"move produces a non-linear hypergraph: {report.violations[0]}")
    return result


def edge_release(H: Hypergraph, e: Iterable[int]) -> Hypergraph:
    """Release a non-pendent edge: pull its neighbors through one vertex.

    u is e's lowest vertex id; every edge adjacent to e but not containing
    u is moved from its shared vertex to u.  Rejected for pendent edges
    (there is nothing to release).
    """
    report = validate(H)
    if not (report.uniform and report.linear and report.acyclic):
        raise ValueError("edge release is defined on linear hyperforests")
    t = H.edge_tuple(e)
    if is_pendent_edge(H, t):
        raise ValueError(f"edge {t} is pendent; releasing it is a no-op by definition")
    u = t[0]
    members = set(t)
    moves = []
    for other in H.edges:
        if other == t or u in other:
            continue
        shared = members.intersection(other)
        if shared:
            moves.append((other, min(shared)))
    return move_edges(H, u, moves)


# ---------------------------------------------------------------------------
# exact ordering of hyperforests
# ---------------------------------------------------------------------------


def _dominates_from(p1: list[int], D: list[int], trailing_exp: int) -> tuple[bool, bool, dict]:
    """Decide whether the difference stays >= 0 on [rho1, infinity).

    In z = x^r, z1 is the top root of p1 and the difference is x^trailing_exp * D(x^r);
    returns (weak, boundary_vanishes, witness).  A negative leading coefficient
    decides at once, Descartes' certificate (module docstring) next, its witness
    recording c.  Otherwise let O be D's odd part, the product of its square-free
    factors of odd multiplicity.  D / O is a square times a positive constant, so
    D and O have the same sign off the roots of D, and every root of O is simple.
    So D >= 0 on [z1, infinity) exactly when O is constant or O's top root is
    <= z1, which one comparison of certified top roots decides.  z1's bracket
    comes from the top-root kernel (on z for an edgeless p1: the point 0), and
    O's from the same kernel, unless O shifted to its lower end has no sign
    variation, so no root above it.  D(z1) = 0 exactly when the comparison finds
    O's top root at z1 or gcd(p1, D) has a root in z1's bracket.  The witness
    records that bracket (`boundary`), whether the difference vanishes at rho1,
    and O's (`odd_top`, null where O has no root above `boundary[0]`).
    """
    witness: dict = {}
    D = poly.trim(D)
    if not D:
        raise ValueError("zero difference escaped the equality check")
    if D[-1] < 0:
        witness["leading_sign"] = -1
        return False, False, witness
    witness["leading_sign"] = 1
    D = poly.primitive(D)

    below = poly._below_top(p1)  # c just below a float guess at z1, confirmed under z1
    if below is not None:
        c = below[1]
        shifted = poly.taylor_shift(D, c)
        if shifted[0] > 0 and min(shifted) >= 0:
            witness.update(descartes=str(c), boundary_vanishes=False)
            return True, False, witness

    # one Sturm chain per polynomial and one evaluation per (polynomial, point)
    chains = poly._Chains()
    z = p1 if len(p1) > 1 else [0, 1]  # an edgeless hyperforest's boundary is z = 0, the root of z
    bracket = poly._nearest_from(z, below, chains)[2]
    # D's chain ends in gcd(D, D'), and is O's own chain where D is square-free
    odd = poly.odd_part(chains.chain(D))
    top = None  # O's top-root bracket; None where O has no root above z1's lower end
    if len(odd) > 1 and poly._sign_changes(poly.taylor_shift(odd, bracket[0])):  # rule of signs
        nearest = poly._nearest_from(odd, poly._below_top(odd), chains)  # None: no real root
        top = nearest and nearest[2]
    order = None if top is None else poly._compare((odd, top), (z, bracket), chains)
    # O's top root at z1 is a root of D, so the gcd is asked only otherwise;
    # at rho1 = 0 the x^trailing_exp factor can force the vanishing
    vanishes = (
        order == 0
        or (len(p1) == 1 and trailing_exp > 0)
        or poly._root_in(poly.poly_gcd(z, D), bracket[0], bracket[1], chains)
    )
    witness["boundary"] = [str(x) for x in bracket]
    witness["boundary_vanishes"] = vanishes
    witness["odd_top"] = None if top is None else [str(x) for x in top]
    return order is None or order <= 0, vanishes, witness


def compare_order(T1: Hypergraph, T2: Hypergraph) -> OrderRelation:
    """Exact order verdict between two hyperforests of the same order.

    precedes_* means T1 comes earlier (so rho(T1) <= rho(T2), strictly
    for precedes_strict); the ordering is only defined for equal n and r.
    """
    if T1.r != T2.r:
        raise ValueError(f"edge sizes differ: {T1.r} vs {T2.r}")
    if T1.n != T2.n:
        raise ValueError(f"orders differ: {T1.n} vs {T2.n}; the ordering needs equal order")
    reports = [validate(T) for T in (T1, T2)]
    if not all(report.acyclic for report in reports):
        raise ValueError("both arguments must be hyperforests")
    for report in reports:
        _require_uniform_linear(report)
    prof1, prof2 = MatchingProfile(_counts(T1)), MatchingProfile(_counts(T2))
    if prof1 == prof2:
        return OrderRelation(EQUAL_POLY, {})
    p1, p2 = prof1.z_poly(), prof2.z_poly()
    nu = max(prof1.nu, prof2.nu)
    trailing = T1.n - nu * T1.r
    D = poly.sub(poly.mul_xpow(p1, nu - prof1.nu), poly.mul_xpow(p2, nu - prof2.nu))
    weak12, vanish12, wit12 = _dominates_from(p1, D, trailing)
    if weak12:
        tag = PRECEDES_WEAK if vanish12 else PRECEDES_STRICT
        return OrderRelation(tag, wit12)
    weak21, vanish21, wit21 = _dominates_from(p2, poly.neg(D), trailing)
    if weak21:
        tag = SUCCEEDS_WEAK if vanish21 else SUCCEEDS_STRICT
        return OrderRelation(tag, wit21)
    return OrderRelation(INCOMPARABLE, {"forward": wit12, "backward": wit21})


# ---------------------------------------------------------------------------
# majorization
# ---------------------------------------------------------------------------


def _as_entries(pi: Vector) -> tuple[int, ...]:
    if not isinstance(pi, CompositionVector):
        entries = [int(x) for x in pi]
        pi = CompositionVector(entries, cap=max(entries, default=0))
    return pi.entries


def _cap_of(pi: Vector, other: Vector) -> int:
    caps = [p.cap for p in (pi, other) if isinstance(p, CompositionVector)]
    if caps:
        return max(caps)
    entries = _as_entries(pi) + _as_entries(other)
    return max(entries) if entries else 0


def is_majorized(pi: Vector, pi_prime: Vector) -> bool:
    """Prefix-sum dominance with equal totals, on non-increasing vectors."""
    a = _as_entries(pi)
    b = _as_entries(pi_prime)
    if len(a) != len(b):
        raise ValueError(f"lengths differ: {len(a)} vs {len(b)}")
    run_a = run_b = 0
    for x, y in zip(a[:-1], b[:-1]):
        run_a += x
        run_b += y
        if run_a > run_b:
            return False
    return sum(a) == sum(b)


def majorization_step(pi: Vector, pi_prime: Vector) -> CompositionVector:
    """One constructive step from pi_prime toward pi.

    With p the smallest index where pi exceeds pi_prime and q the largest
    earlier index where it falls short, move one unit from position q to
    position p.  The result stays non-increasing, sits strictly between
    the two vectors in the majorization order, and cuts the L1 distance
    to pi by exactly 2.
    """
    a = _as_entries(pi)
    b = _as_entries(pi_prime)
    if a == b:
        raise ValueError("vectors are equal; no step to take")
    if not is_majorized(pi, pi_prime):
        raise ValueError("first vector must be majorized by the second")
    p = next(i for i in range(len(a)) if a[i] > b[i])
    q = max(i for i in range(p) if a[i] < b[i])
    out = list(b)
    out[q] -= 1
    out[p] += 1
    return CompositionVector(tuple(out), cap=_cap_of(pi, pi_prime))


def majorization_chain(pi: Vector, pi_prime: Vector) -> list[CompositionVector]:
    """Walk from pi_prime down to pi, one two-coordinate unit move at a time.

    The chain starts at pi_prime, ends at pi, has length
    L1(pi, pi_prime)/2 + 1, and each adjacent pair is majorization-related.
    """
    a = _as_entries(pi)
    if not is_majorized(pi, pi_prime):
        raise ValueError("first vector must be majorized by the second")
    cap = _cap_of(pi, pi_prime)
    current = CompositionVector(_as_entries(pi_prime), cap=cap)
    chain = [current]
    while current.entries != a:
        current = majorization_step(a, current)
        chain.append(current)
    return chain
