"""Riemann-Roch in the characteristic value, its discriminant, and the
rational-square filter on Betti candidates.

For a line bundle L on a compact hyperkahler 4-fold W, the holomorphic Euler
characteristic is a quadratic polynomial in the characteristic value
lambda(L) = 48 * int(exp L) / int(c2 exp L):

    chi(W, L) = chi(W, O) + (7/2 c2sq - 2 c4) lambda / 720
                          + (7/8 c2sq - c4/2) lambda^2 / 720

On such a W, chi(W, O) = 3 and 3*c2sq - c4 = 2160, which collapses the
polynomial to a function of c4 alone (rr_chi_hk).  Existence of a rational
lambda with chi = 0 then forces the discriminant to be a rational square,
which very few values of c4 survive; filter_candidates applies that test to
(b2, b3) candidates via their Chern numbers.

Integer form.  With u = 3024 - c4 the coefficients are linear = u/864 and
quadratic = u/3456, so the discriminant is delta = N / 864^2 with

    N = u * (u - 2592) = (3024 - c4) * (432 - c4).

As 864^2 is a square, delta is a rational square iff N is a perfect integer
square s^2 (s = isqrt(N), N >= 0); then sqrt(delta) = s/864 and, for u != 0,
the roots of chi = 0 are 2(s - u)/u and -2(s + u)/u.  At u = 0 (c4 = 3024)
N = 0 is a square but chi is the constant 3, so there are no roots.
zero_chi is the one derivation of delta, sqrt(delta) and the roots from these
integers: delta, admits_zero_chi, the filter, prove and the rr command all
read it.  In the same terms chi = 3 + u * lambda * (lambda + 4) / 3456
(rr_chi_hk).

Everything a CandidateRecord holds besides b2 and b3 is therefore a function
of c4 alone, and many pairs share a c4 (105,324 admissible pairs with
b2 <= 200 have 1,024 values).  The filter report (pipeline.filter_report_chunks)
relies on this: it calls evaluate_candidate once per distinct c4 and writes
that record's values for every pair with the same c4.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import int_sqrt_exact
from .topology import ChernData, chern_from_betti

#: 864^2, the denominator of delta over its integer numerator N.
_DELTA_DENOMINATOR = 864 * 864


class _CandidateRecord(NamedTuple):
    b2: int
    b3: int
    chern: ChernData
    delta: Fraction
    delta_sqrt: Fraction | None
    lambda_roots: frozenset[Fraction]
    accepted: bool


class CandidateRecord(_CandidateRecord):
    """Outcome of the rational-square filter on one (b2, b3) candidate."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # checked, and so is _replace

    def __new__(cls, *args: object, **kwargs: object) -> CandidateRecord:
        self = super().__new__(cls, *args, **kwargs)
        if self.accepted != bool(self.lambda_roots):
            raise ValueError("accepted must mirror root-set nonemptiness")
        if self.delta_sqrt is not None and self.delta_sqrt**2 != self.delta:
            raise ValueError("delta_sqrt does not square to delta")
        return self


def rr_chi_hk(c4: int, lam: Fraction) -> Fraction:
    """chi(W, L) on a hyperkahler 4-fold:

        3 + (7/2 - c4/864) lambda + (7/8 - c4/3456) lambda^2
          = 3 + (3024 - c4) lambda (lambda + 4) / 3456
    """
    return 3 + Fraction(3024 - c4, 3456) * lam * (lam + 4)


def zero_chi(c4: int) -> tuple[Fraction, Fraction | None, set[Fraction]]:
    """(delta, sqrt(delta), roots) at c4, from the integer form: delta(c4),
    its nonnegative rational square root (None when delta is not a rational
    square), and every rational lambda with rr_chi_hk(c4, lambda) == 0."""
    u = 3024 - c4
    n = u * (u - 2592)
    s = int_sqrt_exact(n) if n >= 0 else None
    d = Fraction(n, _DELTA_DENOMINATOR)
    sqrt = None if s is None else Fraction(s, 864)
    if s is None or u == 0:
        return d, sqrt, set()
    return d, sqrt, {Fraction(2 * (s - u), u), Fraction(-2 * (s + u), u)}


def delta(c4: int) -> Fraction:
    """Discriminant of rr_chi_hk as a quadratic in lambda:

        (7/2 - c4/864)^2 - 12 (7/8 - c4/3456) = (3024 - c4)(432 - c4) / 864^2

    chi = 0 has a rational solution only if this is a rational square.
    """
    return zero_chi(c4)[0]


def admits_zero_chi(c4: int) -> set[Fraction]:
    """All rational lambda with rr_chi_hk(c4, lambda) == 0.

    Empty when delta(c4) is not a rational square, and also at the degenerate
    c4 = 3024 where both non-constant coefficients vanish and chi is the
    constant 3.
    """
    return zero_chi(c4)[2]


def evaluate_candidate(b2: int, b3: int) -> CandidateRecord:
    """Run the full filter on one nonnegative (b2, b3) pair."""
    chern = chern_from_betti(b2, b3)
    d, sqrt, roots = zero_chi(chern.c4)
    return CandidateRecord(
        b2=b2,
        b3=b3,
        chern=chern,
        delta=d,
        delta_sqrt=sqrt,
        lambda_roots=frozenset(roots),
        accepted=bool(roots),
    )


def filter_candidates(pairs: list[tuple[int, int]]) -> list[CandidateRecord]:
    """Filter each (b2, b3) pair, preserving input order.

    A candidate is accepted iff chi = 0 actually has a rational solution for
    its c4, which is strictly stronger than delta-squareness at the single
    degenerate value c4 = 3024.
    """
    return [evaluate_candidate(b2, b3) for b2, b3 in pairs]
