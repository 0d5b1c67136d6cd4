"""Exact rational arithmetic: perfect-square detection, the text of numbers
(integers, and rationals in `p/q` form), and integer polynomials.

Every quantity the verification pipeline touches is an arbitrary-precision
integer or a reduced fraction of such integers.  Rationals are represented by
:class:`fractions.Fraction`, which already maintains the canonical form this
package relies on (positive denominator, gcd(|num|, den) = 1, zero as 0/1).
No floating point enters any code path in this module: square detection on
floats is unsound, and exactness is the whole point.

All values are immutable and all functions are pure, so they can be shared
freely across threads.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Mapping


def int_sqrt_exact(n: int) -> int | None:
    """Return r with r*r == n exactly, or None when n is not a perfect square.

    Raises ValueError for negative n.  math.isqrt is purely integral, so the
    floor square root is exact at any magnitude; the multiply-back check then
    decides squareness soundly.
    """
    r = math.isqrt(n)
    return r if r * r == n else None


def rational_sqrt_exact(q: Fraction) -> Fraction | None:
    """Return the nonnegative rational square root of q, or None.

    A reduced fraction a/b is a rational square iff a >= 0 and both a and b
    are perfect integer squares (numerator and denominator of a square of a
    reduced fraction are themselves coprime squares).
    """
    if q < 0:
        return None
    num = int_sqrt_exact(q.numerator)
    if num is None:
        return None
    den = int_sqrt_exact(q.denominator)
    if den is None:
        return None
    return Fraction(num, den)


# Number text, shared by candidate files, the CLI and the reports: DIGITS are
# ASCII_DIGITS (int() alone would also take "1_0", non-ASCII digits and other
# whitespace), an integer is an optional sign and DIGITS, a rational is an
# integer with an optional "/" and DIGITS for its denominator, and a field may
# carry BLANKS, the only whitespace allowed, around its text.
BLANKS = " \t"
ASCII_DIGITS = "0123456789"
DIGITS = f"[{ASCII_DIGITS}]+"
INT = f"[+-]?{DIGITS}"
PAD = f"[{BLANKS}]*"
_FIELD_RE = re.compile(rf"{PAD}({INT})(?:/({DIGITS}))?{PAD}")


def parse_int(text: str) -> int:
    """The integer one field spells, blanks around it allowed; ValueError for
    anything else."""
    match = _FIELD_RE.fullmatch(text)
    if match is None or match[2] is not None:
        raise ValueError(f"not an integer: {text!r}")
    return int(match[1])


def parse_rational(text: str) -> Fraction:
    """Parse `p/q` or a bare integer, with spaces and tabs around it; reject
    anything else, including other whitespace and q = 0."""
    match = _FIELD_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational in p/q form: {text!r}")
    p, q = match.groups()
    den = int(q or 1)
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(p), den)


def format_rational(q: Fraction) -> str:
    """Render a rational as `p/q` (denominator kept even when it is 1)."""
    return f"{q.numerator}/{q.denominator}"


class Poly:
    """An integer polynomial: ``terms`` maps each monomial, the sorted tuple of
    its variables' names (``("q", "t")`` is q*t), to its nonzero coefficient,
    read-only.  +, - and * take Polys and ints, and == and != compare
    coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[str, ...], int]) -> None:
        self._terms = {e: c for e, c in terms.items() if c}

    @property
    def terms(self) -> Mapping[tuple[str, ...], int]:
        return MappingProxyType(self._terms)

    @classmethod
    def var(cls, name: str) -> Poly:
        return cls({(name,): 1})

    @staticmethod
    def of(x: Poly | int) -> Poly:
        return x if isinstance(x, Poly) else Poly({(): x})

    def __add__(self, other: Poly | int) -> Poly:
        terms = Counter(self._terms)
        terms.update(Poly.of(other)._terms)  # adds, unlike dict.update
        return Poly(terms)

    def __mul__(self, other: Poly | int) -> Poly:
        terms: Counter[tuple[str, ...]] = Counter()
        for (e, c), (f, d) in product(self._terms.items(), Poly.of(other)._terms.items()):
            terms[tuple(sorted(e + f))] += c * d
        return Poly(terms)

    __radd__, __rmul__ = __add__, __mul__
    __neg__ = lambda self: self * -1
    __sub__ = lambda self, other: self + -other
    __rsub__ = lambda self, other: -self + other

    def __eq__(self, other: object) -> bool:  # object's != negates it
        return isinstance(other, (Poly, int)) and self._terms == Poly.of(other)._terms

    def __repr__(self) -> str:
        return f"Poly({self._terms!r})"
