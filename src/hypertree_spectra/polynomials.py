"""Exact univariate polynomial arithmetic and real-root machinery.

Dense polynomials are lists of integer coefficients in ascending power
order ([c0, c1, c2] means c0 + c1*x + c2*x**2), so all arithmetic is
exact.  One primitive remainder sequence gives the Sturm chain and the
gcd; rationals appear only as points (signs, interval ends).

Real roots are handled in integers: `sign_at` takes signs at rationals
by homogeneous Horner, Sturm chains have integer coefficients, isolation
bisects on exact Sturm counts from +-(`root_bound` + 1), and one bisection
on the sign of the square-free part at dyadic points (`_bisect`; Rouillier
& Zimmermann, JCAM 162, 2004) refines roots and halves to the nearest
double.  Exact division is integer long division by a primitive divisor,
so no polynomial is ever divided over the rationals.

One lazy bisection, kept on a stack with no recursion, yields the
isolating markers from the largest root down: all of them for
`isolate_real_roots`, only the first for `isolate_top_root`, which so
halves just the intervals on the way down to the top root.

Every top root, polyroot's, the closed-form bounds' and the order's odd
part's, takes one route (`_nearest_from`) to the one float read off it:
the double nearest it, decided by exact signs.  First a float Newton
guess x may certify the first bracket by Descartes' rule of signs: just
below it, at c, one exact sign and one Taylor shift p(c + y) with a
single sign variation show that p has one root above c, a simple one
(Collins & Akritas, SYMSAC 1976).  Both ends of the bracket take one walk
(`_walk`) out from x in steps of 4, 64, 1024, ... ulps to the first exact
sign that confirms it, c at most down to x(1 - 2^-20) (float search, exact
certificate, as in Sagraloff & Mehlhorn, J. Symb. Comput. 73, 2016), and
the bisection starts from there.  Where the certificate fails (a multiple
top root, a guess that is noise), the root is isolated on the integer Sturm
chain and halved from there with no float guess.  The double comes with
the rational bracket it was read from: the top root and no other root.

Certified top roots are compared in one place (`_compare`): brackets
that do not meet decide; where they meet, a root of the gcd there is
both; else `refine_isolating` narrows both until they part.  It ranks
classes against each other and the closed form, and rho(T1)^r against
the top root of an order difference's odd part (`odd_part`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import count
from math import copysign, exp, gcd, inf, isfinite, lcm, log, nextafter, ulp
from typing import Sequence

Dense = list

# ---------------------------------------------------------------------------
# dense arithmetic
# ---------------------------------------------------------------------------


def trim(p: Sequence) -> Dense:
    """Drop trailing zero coefficients; the zero polynomial becomes []."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Sequence) -> int:
    """Degree of p, with the convention deg 0 = -1."""
    return len(trim(p)) - 1


def add(p: Sequence, q: Sequence) -> Dense:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p: Sequence) -> Dense:
    return [-c for c in p]


def sub(p: Sequence, q: Sequence) -> Dense:
    return add(p, neg(q))


def mul(p: Sequence, q: Sequence) -> Dense:
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def mul_xpow(p: Sequence, t: int) -> Dense:
    """Multiply by x**t."""
    p = trim(p)
    return [0] * t + p if p else []


def derivative(p: Sequence) -> Dense:
    return trim([i * c for i, c in enumerate(p)][1:])


def exact_quotient(p: Sequence, q: Sequence) -> Dense:
    """p / q for integer p and a primitive integer q that divides p.

    By Gauss's lemma the quotient has integer coefficients, so the long
    division runs in integers; a remainder raises ValueError.
    """
    rem, q = trim(p), trim(q)
    dq = len(q) - 1
    quo = [0] * max(len(rem) - dq, 0)
    for shift in reversed(range(len(quo))):
        quo[shift] = f = rem[shift + dq] // q[-1]
        for i, c in enumerate(q):
            rem[shift + i] -= f * c
    if any(rem):
        raise ValueError("divisor does not divide the polynomial")
    return trim(quo)


def _content_free(p: Sequence) -> Dense:
    """The positive multiple of the integer polynomial p with coprime coefficients."""
    g = gcd(*p)
    return [c // g for c in p]


def _prem(a: Dense, b: Dense) -> Dense:
    """|lc(b)|^k * rem(a, b) for integer a and b, computed in integers."""
    lead = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    r = list(a)
    while len(r) >= len(b):
        f = r[-1] * sign
        shift = len(r) - len(b)
        r = [c * lead for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r = trim(r)
    return r


def primitive(p: Sequence) -> Dense:
    """Scale to a primitive integer polynomial with positive leading coefficient."""
    ints = _content_free(trim(p))
    return neg(ints) if ints and ints[-1] < 0 else ints


def _remainders(a: Sequence, b: Sequence):
    """The primitive remainder sequence of integer a and b: a, b, then -prem
    of the last two, each scaled by a positive factor to coprime integers,
    up to a zero remainder, which follows a nonzero constant at once.  The
    last element is gcd(a, b) up to a constant."""
    a, b = _content_free(trim(a)), _content_free(trim(b))
    yield a
    while b:
        yield b
        a, b = b, _content_free(neg(_prem(a, b)))


def poly_gcd(p: Sequence, q: Sequence) -> Dense:
    """Primitive gcd of integer p and q (positive leading coefficient)."""
    *_, g = _remainders(p, q)
    return primitive(g)


def odd_part(chain: list[Dense]) -> Dense:
    """The product of the square-free factors of odd multiplicity of p, from
    p's Sturm chain (p first, gcd(p, p') last), primitive with positive
    leading coefficient: p over it is a constant times a square.  Yun's loop
    (SYMSAC 1976) peels off f_i, the product of the factors of multiplicity
    i: with a = gcd(p, p'), b = p / a and c = p' / a, each step takes
    d = c - b', f_i = gcd(b, d), then b / f_i and d / f_i.  A loop, not a
    recursion, and only the first gcd, which the chain holds, has p's degree."""
    p = primitive(chain[0])
    a = primitive(chain[-1])
    b = exact_quotient(p, a)
    c = exact_quotient(derivative(p), a)
    out = [1]
    odd = True
    while len(b) > 1:
        d = sub(c, derivative(b))
        f = poly_gcd(b, d)
        if odd:
            out = mul(out, f)
        b = exact_quotient(b, f)
        c = exact_quotient(d, f)
        odd = not odd
    return primitive(out)


def root_bound(p: Sequence) -> Fraction:
    """Every real root of p has absolute value below this bound: the smaller of
    Cauchy's 1 + max_k |a_k / a_d| and a power of two above Fujiwara's 2 max_k
    |a_(d-k) / a_d|^(1/k), as |a_(d-k) / a_d| < 2^(bits(a_(d-k)) - bits(a_d) + 1)."""
    p = trim(p)
    if len(p) <= 1:
        return Fraction(1)
    lead = abs(p[-1]).bit_length() - 1
    e = max((-((lead - abs(c).bit_length()) // k) for k, c in enumerate(p[-2::-1], 1) if c), default=0)
    return min(1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1])), Fraction(2) ** (e + 1))


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation
# ---------------------------------------------------------------------------


def sturm_chain(p: Sequence) -> list[Dense]:
    """Sturm chain p, p', -rem(p, p'), ... of integer p: its primitive
    remainder sequence, whose positive scalings keep every sign variation.
    The last element is gcd(p, p') up to a constant."""
    return list(_remainders(p, derivative(p)))


def _sign_scaled(p: Sequence, n: int, d: int) -> int:
    """Sign of d^deg(p) * p(n/d) for d > 0, by homogeneous Horner."""
    acc = 0
    dk = 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def sign_at(p: Sequence, x) -> int:
    """Sign of p at the rational x = n/d: the sign of sum c_i n^i d^(deg-i),
    in Python ints when p has integer coefficients."""
    x = Fraction(x)
    return _sign_scaled(p, x.numerator, x.denominator)


def _sign_changes(values: Sequence) -> int:
    """Sign variations of a sequence of numbers, zeros skipped."""
    count = last = 0
    for v in values:
        s = (v > 0) - (v < 0)
        if s:
            count += last == -s  # opposite to the last nonzero sign
            last = s
    return count


def _variations(chain: list[Dense], x) -> tuple[int, int]:
    """(sign of chain[0] at x, sign variations of the chain at x); the
    count means something only where the sign is nonzero."""
    x = Fraction(x)
    n, d = x.numerator, x.denominator
    signs = [_sign_scaled(f, n, d) for f in chain]
    return signs[0], _sign_changes(signs)


def count_real_roots(chain: list[Dense], a, b) -> int:
    """Distinct real roots of chain[0] in (a, b]; endpoints must not be roots."""
    (sa, va), (sb, vb) = _variations(chain, a), _variations(chain, b)
    if not (sa and sb):
        raise ValueError("counting endpoints must not be roots")
    return va - vb


def isolate_real_roots(p: Sequence, lo=None, hi=None, evaluate=None) -> list[tuple]:
    """Isolate the distinct real roots of p in (lo, hi), by default
    +-(`root_bound` + 1), whose ends must not be roots.

    Returns markers in increasing order, each either ("point", q) for an
    exact rational root or ("interval", a, b) for an open interval holding
    exactly one root with p(a) != 0 != p(b).  `evaluate(x)` is
    `_variations` of p's Sturm chain at x, if the caller has the chain or
    keeps its evaluations; the chain's first element is a positive
    multiple of p, so the same evaluation tells where p vanishes.  The
    markers come from one lazy bisection with no recursion (`_roots_down`).
    """
    return list(_roots_down(p, lo, hi, evaluate))[::-1]


def isolate_top_root(p: Sequence, lo=None, hi=None, evaluate=None) -> tuple | None:
    """`isolate_real_roots(p, lo, hi, evaluate)[-1]`, or None for no root:
    the first marker of the same lazy bisection, which halves nothing below it."""
    return next(_roots_down(p, lo, hi, evaluate), None)


def _roots_down(p: Sequence, lo, hi, evaluate):
    """The markers of `isolate_real_roots`, largest root first.

    Bisection on Sturm counts (va, vb: the sign variations at the ends
    of (a, b)) with no recursion: each halving goes on into the upper
    half and leaves the lower one on a stack, under a point marker where
    the midpoint is a root (widened into an (l, r) holding no other
    root).  So an interval is halved only once a root in it is asked for."""
    p = trim(p)
    if len(p) <= 1:
        return
    bound = root_bound(p) + 1
    lo, hi = Fraction(-bound if lo is None else lo), Fraction(bound if hi is None else hi)
    evaluate = evaluate or partial(_variations, sturm_chain(p))
    (sa, va), (sb, vb) = evaluate(lo), evaluate(hi)
    if not (sa and sb):
        raise ValueError("isolation endpoints must not be roots")
    stack: list[tuple] = [(lo, hi, va, vb)]
    while stack:
        part = stack.pop()
        if len(part) == 2:
            yield part
            continue
        a, b, va, vb = part
        while va - vb > 1:
            mid = (a + b) / 2
            sm, vm = evaluate(mid)
            if sm:
                stack.append((a, mid, va, vm))
                a, va = mid, vm
                continue
            eps = (b - a) / 4
            while True:
                l, r = mid - eps, mid + eps
                (sl, vl), (sr, vr) = evaluate(l), evaluate(r)
                if sl and sr and vl - vr == 1:
                    break
                eps /= 2
            stack += [(a, l, va, vl), ("point", mid)]
            a, va = r, vr
        if va - vb == 1:
            yield ("interval", a, b)


class _Chains:
    """A per-call memo: one Sturm chain per polynomial and one evaluation per
    (polynomial, point), a point keyed by numerator and denominator (a
    Fraction hashes slowly)."""

    def __init__(self):
        self.chains, self.values = {}, {}

    def chain(self, p: Sequence) -> list[Dense]:
        key = tuple(p)
        if key not in self.chains:
            self.chains[key] = sturm_chain(p)
        return self.chains[key]

    def evaluate(self, p: Sequence, x: Fraction) -> tuple[int, int]:
        key = (tuple(p), x.numerator, x.denominator)
        if key not in self.values:
            self.values[key] = _variations(self.chain(p), x)
        return self.values[key]


def _square_free(chain: list[Dense]) -> Dense:
    """A multiple of p / gcd(p, p') from p's Sturm chain (p first, the gcd last)."""
    if len(chain[-1]) == 1:
        return chain[0]
    return exact_quotient(chain[0], chain[-1])


def refine_isolating(q: Sequence, a: Fraction, b: Fraction, width: Fraction) -> tuple:
    """Shrink an interval holding one root of q, where q changes sign, below
    `width`: one sign at a, then the one sign bisection `_bisect`.  For a
    root of p of even multiplicity, pass p's square-free part
    `_square_free(sturm_chain(p))`, whose roots are those of p, all simple.
    May collapse to a ("point", mid) marker when the root is rational.
    """
    a, b, width = Fraction(a), Fraction(b), Fraction(width)
    A, B, D, _ = _bisect(q, a, b, sign_at(q, a), lambda A, B, D: (B - A) * width.denominator <= width.numerator * D)
    return ("point", Fraction(A, D)) if A == B else ("interval", Fraction(A, D), Fraction(B, D))


def _bisect(q: Sequence, a: Fraction, b: Fraction, left: int, done) -> tuple[int, int, int, int]:
    """The kernel's one sign bisection: (A, B, D, n), (a, b) halved as A/D,
    B/D over one denominator on the sign of q (`left` at a) until `done(A,
    B, D)`, checked before each halving, holds, or up to a midpoint that is
    a root, with A == B there; n is the number of signs of q taken."""
    D = lcm(a.denominator, b.denominator)
    A, B = a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)
    n = 0
    while not done(A, B, D):
        mid, A, B, D, n = A + B, 2 * A, 2 * B, 2 * D, n + 1
        s = _sign_scaled(q, mid, D)
        if s == 0:
            return mid, mid, D, n
        A, B = (A, mid) if s != left else (mid, B)
    return A, B, D, n


def taylor_shift(p: Sequence, x: Fraction) -> Dense:
    """d^deg p((n + y)/d) in y, for x = n/d: the coefficients of p(x + y)
    times positive powers of d, so of the same signs.  O(deg^2) integer steps."""
    n, d, deg = x.numerator, x.denominator, len(p) - 1
    out = [c * d ** (deg - i) for i, c in enumerate(p)]
    for i in range(deg):
        for j in range(deg - 1, i - 1, -1):
            out[j] += n * out[j + 1]
    return out


def _horner(coeffs: list[float], x: float) -> tuple[float, float]:
    """(q(x), q'(x)) by Horner's rule on q's float coefficients, highest power first."""
    f = df = 0.0
    for c in coeffs:
        df = df * x + f
        f = f * x + c
    return f, df


def _float_top_root(p: Sequence) -> float | None:
    """A float guess at the largest root of p, or None where a float overflows:
    Newton's method down from Fujiwara's bound 2 max_k |a_(d-k) / a_d|^(1/k), on
    g(t) = t^d p(1/t) at t = 1/x, where p/p' = x g / (d g - t g'), so no x^d overflows."""
    try:  # ValueError: p has no lower coefficient, so no bound
        coeffs, d = [float(c) for c in p], len(p) - 1  # g's coefficients, highest power of t first
        x = 2 * exp(max((log(abs(c)) - log(abs(p[-1]))) / k for k, c in enumerate(p[-2::-1], 1) if c))
        for _ in range(100 * d):  # until it stops descending
            g, dg = _horner(coeffs, 1 / x)
            if not (step := x - x * g / (d * g - dg / x)) < x:
                break
            x = step
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    return x if isfinite(x) else None


def _walk(q: Sequence, x: float, want: int, down: bool = False) -> tuple[Fraction, int] | None:
    """The kernel's one ulp walk: (c, n), the first c = x + w ulp(x) (x - w
    ulp(x) down), w = 4 16^j, where one exact sign of q is `want`, and the n
    signs taken.  Up the steps never end; down the last is the most ulps
    that keep c >= x(1 - 2^-20), and None means that none confirmed."""
    (X, XD), (U, E) = x.as_integer_ratio(), ulp(x).as_integer_ratio()
    X = X * (E // XD)
    most, U = (X // (U << 20), -U) if down else (inf, U)  # up: no last step
    for n in count(1):
        w = min(4 * 16 ** (n - 1), most)
        if _sign_scaled(q, X + w * U, E) == want:
            return Fraction(X + w * U, E), n
        if w == most:
            return None


def _below_top(p: Sequence) -> tuple[float, Fraction] | None:
    """(x, c): a float guess x > 0 at the largest root of p (`_float_top_root`)
    and the first c `_walk` finds down from x where p has the sign opposite
    to its leading coefficient, so p has an odd number of roots above c;
    None where the guess fails or no step confirms."""
    x = _float_top_root(p)
    if x is None or x <= 0:
        return None
    below = _walk(p, x, (p[-1] < 0) - (p[-1] > 0), down=True)
    return None if below is None else (x, below[0])


def _ratio(n: int, d: int) -> float:
    """n / d for d > 0 as the nearest double, or +-inf past the largest one."""
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


def _nearest_top_root(p: Sequence) -> tuple[float, int, tuple] | None:
    """`_nearest_from` with p's own `_below_top` and a fresh memo."""
    p = trim(p)
    return _nearest_from(p, _below_top(p), _Chains())


def _nearest_from(p: Sequence, below: tuple | None, chains: _Chains) -> tuple[float, int, tuple] | None:
    """The double nearest the largest real root of p, the number of exact
    sign tests of q (below) it took past `below` (0 for a root met by
    isolation), and the final rational bracket, an open interval holding
    no other root of p or (x, x) for a root x that isolation or a halving
    lands on; None if no root.  `below` is `_below_top(p)`, taken by the
    caller; the Sturm route takes p's chain and its evaluations from `chains`.

    A Descartes test comes first: at c from `_below_top`, where p has the
    sign opposite to its leading coefficient, p(c + y) with one sign
    variation has one root y > 0, so p has one root above c, a simple one.
    There q is p, and the upper end is where `_walk` up from `_below_top`'s
    guess x first gives p its leading sign, so the root lies below it (a
    zero sign walks on; past `root_bound` every sign is the leading one).
    Otherwise (a multiple top root, a guess that is noise) the root is
    isolated on p's integer Sturm chain (`isolate_top_root`), q is p's
    square-free part, and one test of q's sign at the lower end of the
    isolating interval starts the halving there, with no float guess.

    From the first bracket, `_bisect` halves on q's sign until both ends
    round to one double or to two adjacent ones.  For two, q's sign at the
    tie point between them (an end's is known) decides which is nearer; a
    root exactly there is rounded half to even.  An end past the largest
    double M reads as +-inf, with the tie point at +-(M + ulp(M) / 2).
    """
    p = trim(p)
    if below is not None and _sign_changes(taylor_shift(p, below[1])) == 1:
        (x, a), q, left = below, p, (p[-1] < 0) - (p[-1] > 0)
        b, tests = _walk(p, x, -left)
    else:
        top = isolate_top_root(p, evaluate=partial(chains.evaluate, p))
        if top is None:
            return None
        if top[0] == "point":
            return float(top[1]), 0, top[1:] * 2
        (_, a, b), q = top, _square_free(chains.chain(p))
        left, tests = sign_at(q, a), 1

    def adjacent(A: int, B: int, D: int) -> bool:  # the ends round to one double or to two adjacent ones
        fb = _ratio(B, D)
        return nextafter(_ratio(A, D), fb) == fb

    A, B, D, halvings = _bisect(q, a, b, left, adjacent)
    fa, fb, bracket = _ratio(A, D), _ratio(B, D), (Fraction(A, D), Fraction(B, D))
    if fa == fb:
        return fa, tests + halvings, bracket
    f, g = sorted((fa, fb), key=abs)  # f is finite, and ulp(f) apart from g
    n, d = (Fraction(f) + Fraction(copysign(ulp(f), g - f)) / 2).as_integer_ratio()
    s = left if n * D == A * d else -left if n * D == B * d else _sign_scaled(q, n, d)
    tests += halvings + (n * D not in (A * d, B * d))  # the tie's sign is taken unless it is an end's
    return _ratio(n, d) if s == 0 else fa if s != left else fb, tests, bracket


# ---------------------------------------------------------------------------
# comparing certified top roots
# ---------------------------------------------------------------------------


def _root_in(g: Sequence, lo: Fraction, hi: Fraction, chains: _Chains) -> bool:
    """Whether g has a root in (lo, hi), or at lo where lo == hi, by Sturm
    counts from `chains`; the ends of an interval must not be roots."""
    if lo == hi:
        return chains.evaluate(g, lo)[0] == 0
    return chains.evaluate(g, lo)[1] > chains.evaluate(g, hi)[1]


def _compare(a: tuple, b: tuple, chains: _Chains | None = None) -> int:
    """Sign of top root of p - top root of q, for a = (p, bracket), b = (q, bracket),
    each bracket a point or an open interval holding no other root.  Brackets
    that do not overlap decide.  A root of gcd(p, q) where they meet is both top roots;
    else they differ, and `refine_isolating` narrows both until they part, each on
    its square-free part.  Chains come from `chains` (a fresh memo by default)."""
    (p, (a0, a1)), (q, (b0, b1)) = a, b
    if a1 > b0 and b1 > a0:  # the brackets meet in (lo, hi), or in lo == hi where one is a point
        chains = chains or _Chains()
        if _root_in(poly_gcd(p, q), max(a0, b0), min(a1, b1), chains):
            return 0
        p, q = (f if l == h else _square_free(chains.chain(f)) for f, (l, h) in (a, b))
    while a1 > b0 and b1 > a0:
        (a0, a1), (b0, b1) = _narrow(p, a0, a1), _narrow(q, b0, b1)
    return (b1 <= a0) - (a1 <= b0)  # both only for the same point twice


def _narrow(q: Sequence, lo, hi) -> tuple:
    """(lo, hi) narrowed 2^20-fold about the one root of q in it, q square-free; a point stays."""
    marker = ("point", lo) if lo == hi else refine_isolating(q, lo, hi, (hi - lo) / 2**20)
    return marker[1], marker[-1]
