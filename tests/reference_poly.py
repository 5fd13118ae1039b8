"""Reference polynomial routines for the tests: plain Horner evaluation
over ints or Fractions, against which the integer sign kernel is checked,
and the first non-root among `_dyadic_points` by fresh sign tests, which
`transforms._dominates_from` computes through its own sign memo."""

from fractions import Fraction
from typing import Sequence

from hypertree_spectra import polynomials as poly


def evaluate(p: Sequence, x):
    """Horner evaluation; exact when x is an int or Fraction."""
    acc = 0
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def pick_nonroot(polys: list[Sequence], a: Fraction, b: Fraction) -> Fraction:
    """The first of `poly._dyadic_points(a, b)` where none of the polynomials vanish."""
    return next(x for x in poly._dyadic_points(a, b) if all(poly.sign_at(p, x) != 0 for p in polys))
