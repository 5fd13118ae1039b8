"""Sparse polynomials for the tests: dicts mapping exponent to integer
coefficient, for the wide-degree matching polynomials where only a few
exponents are populated (`MatchPoly.coeffs` has this form)."""

Sparse = dict


def sp_trim(d: Sparse) -> Sparse:
    return {e: c for e, c in d.items() if c != 0}


def sp_monomial(exp: int, coeff: int = 1) -> Sparse:
    return {exp: coeff} if coeff else {}


def sp_add(a: Sparse, b: Sparse) -> Sparse:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return sp_trim(out)


def sp_sub(a: Sparse, b: Sparse) -> Sparse:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
    return sp_trim(out)


def sp_mul(a: Sparse, b: Sparse) -> Sparse:
    out: Sparse = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return sp_trim(out)


def sp_pow(a: Sparse, k: int) -> Sparse:
    out: Sparse = {0: 1}
    for _ in range(k):
        out = sp_mul(out, a)
    return out


def sp_equal(a: Sparse, b: Sparse) -> bool:
    return sp_trim(a) == sp_trim(b)
