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
of c4 alone (filter_c4), and many pairs share a c4 (105,324 admissible pairs
with b2 <= 200 have 1,024 values).  The filter report and table1
(candidates.filter_report_chunks and table1) rely on this: they call filter_c4
once per distinct c4, on c4 alone, and write its values for every pair with
that c4.  filter_c4 checks its values as a CandidateRecord checks its fields
(_check_filter_values).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import int_sqrt_exact
from .topology import ChernData, chern_from_betti, chern_from_c4

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
        _check_filter_values(*self[3:])
        return self


def _check_filter_values(
    delta: Fraction, delta_sqrt: Fraction | None, lambda_roots: frozenset[Fraction],
    accepted: bool,
) -> None:
    """The checks on a CandidateRecord's fields past its Chern data, and on
    filter_c4's values: accepted mirrors the roots, delta_sqrt squares to delta."""
    if accepted != bool(lambda_roots):
        raise ValueError("accepted must mirror root-set nonemptiness")
    if delta_sqrt is not None and delta_sqrt**2 != delta:
        raise ValueError("delta_sqrt does not square to delta")


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


def filter_c4(c4: int) -> tuple[
    ChernData, Fraction, Fraction | None, frozenset[Fraction], bool
]:
    """The fields of the CandidateRecord of any pair with this c4 past b2 and
    b3, (chern, delta, delta_sqrt, lambda_roots, accepted), checked as
    CandidateRecord checks them."""
    d, sqrt, roots = zero_chi(c4)
    values = (d, sqrt, frozenset(roots), bool(roots))
    _check_filter_values(*values)
    return (chern_from_c4(c4), *values)


def evaluate_candidate(b2: int, b3: int) -> CandidateRecord:
    """Run the full filter on one nonnegative (b2, b3) pair."""
    return CandidateRecord(b2, b3, *filter_c4(chern_from_betti(b2, b3).c4))


def filter_candidates(pairs: list[tuple[int, int]]) -> list[CandidateRecord]:
    """Filter each (b2, b3) pair, preserving input order.

    A candidate is accepted iff chi = 0 actually has a rational solution for
    its c4, which is strictly stronger than delta-squareness at the single
    degenerate value c4 = 3024.
    """
    return [evaluate_candidate(b2, b3) for b2, b3 in pairs]
