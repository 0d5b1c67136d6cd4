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
N = 0 is a square but chi is the constant 3, so there are no roots.  In the
same terms chi = 3 + u * lambda * (lambda + 4) / 3456 (rr_chi_hk).

Closed form.  With v = u - 1296 = 1728 - c4, N = v^2 - 1296^2, so N = s^2
exactly when (v - s)(v + s) = 1296^2 = 2^8 * 3^8: v = +-(d + e)/2 and
s = (e - d)/2 for a divisor pair d * e = 1296^2, d <= e, of equal parity.
That gives 64 square classes, from c4 = -418,177 to 421,633; 63 have
rational roots (all but c4 = 3024), and only the 35 of those with
c4 = 0 (mod 6) occur on an admissible pair, whose b3 is even.  Each of the
35 is a half-line b3 = 16 + 4*b2 - c4/3 with infinitely many admissible
pairs, so the filter alone leaves Table 1 infinite; a finite table needs
Guan's bounds (Guan, Math. Res. Lett. 8, 2001), which are cited, not coded.
SQUARE_CLASSES is that table, derived from the divisors, and square_class,
the one integer core, checks the isqrt test on every c4 against it; zero_chi
(Fractions, for rr and prove), admits_zero_chi and filter_c4 read it.  The
filter report and table1 call filter_c4 once per distinct c4 (1,024 for the
105,324 admissible pairs with b2 <= 200).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, NamedTuple

from .exact import int_sqrt_exact
from .topology import ChernData, chern_from_betti

#: sqrt(delta) = s / DENOMINATOR and delta = N / DENOMINATOR**2.
DENOMINATOR = 864


class VerificationError(Exception):
    """An internal consistency check failed; this indicates a bug in the
    pipeline or its inputs, never an accepted 'no contradiction' outcome.

    ``candidate``, ``prime`` and ``t`` locate the failing triple as far as it
    is known, and ``identity`` names the check that broke (for example
    ``"salamon_W"`` or ``"chi_top_W"``); ``str(exc)`` is the message alone.
    """

    def __init__(
        self,
        message: str,
        *,
        candidate: tuple[int, int] | None = None,
        prime: int | None = None,
        t: int | None = None,
        identity: str | None = None,
    ) -> None:
        super().__init__(message)
        self.candidate = candidate
        self.prime = prime
        self.t = t
        self.identity = identity


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
    delta: Fraction | int, delta_sqrt: Fraction | int | None,
    lambda_roots: Collection[object], accepted: bool,
) -> None:
    """The checks on a CandidateRecord's fields past its Chern data, and on
    filter_c4's integers (N and s in place of delta and its square root):
    accepted mirrors the roots, delta_sqrt squares to delta."""
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


def _square_classes() -> dict[int, tuple[int, tuple[tuple[int, int], ...]]]:
    """c4 -> (s, roots) at each c4 where N = s^2, from the divisor pairs
    d * e = 1296^2 of equal parity with d <= e (v = 1728 - c4 = +-(d + e)/2,
    s = (e - d)/2); the roots ascending, distinct and as (p, q) in lowest
    terms with q > 0, none at u = 0."""
    classes = {}
    for d in (2**i * 3**j for i in range(9) for j in range(9)):
        e = 1296**2 // d
        if d <= e and (e - d) % 2 == 0:
            for v in ((d + e) // 2, -(d + e) // 2):
                s, u = (e - d) // 2, v + 1296
                tops = (2 * (s - u), -2 * (s + u)) if u else ()
                roots = sorted({Fraction(top, u) for top in tops})
                classes[1728 - v] = (s, tuple(r.as_integer_ratio() for r in roots))
    return classes


#: The 64 values of c4 at which N is a square, each with its s and roots.
SQUARE_CLASSES = _square_classes()


def square_class(c4: int) -> tuple[int, int | None, tuple[tuple[int, int], ...]]:
    """(N, s, roots) at c4: N = (3024 - c4)(432 - c4), s = isqrt(N) if N is a
    square (else None), and the roots of chi = 0 from SQUARE_CLASSES, which
    must agree with the isqrt test on s (VerificationError)."""
    u = 3024 - c4
    n = u * (u - 2592)
    s = int_sqrt_exact(n) if n >= 0 else None
    s_table, roots = SQUARE_CLASSES.get(c4, (None, ()))
    if s != s_table:
        raise VerificationError(f"square_class fails at c4 = {c4}: isqrt gives s = {s}, "
                                f"the divisor table s = {s_table}", identity="square_class")
    return n, s, roots


def zero_chi(c4: int) -> tuple[Fraction, Fraction | None, set[Fraction]]:
    """(delta, sqrt(delta), roots) at c4 from square_class: delta(c4), its
    nonnegative rational square root (None when delta is not a rational
    square), and every rational lambda with rr_chi_hk(c4, lambda) == 0."""
    n, s, roots = square_class(c4)
    sqrt = None if s is None else Fraction(s, DENOMINATOR)
    return Fraction(n, DENOMINATOR**2), sqrt, {Fraction(*root) for root in roots}


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


def filter_c4(c4: int) -> tuple[int, int | None, tuple[tuple[int, int], ...], bool]:
    """(N, s, roots, accepted) of any pair with this c4: square_class's
    integers and accepted, checked as CandidateRecord checks its fields."""
    n, s, roots = square_class(c4)
    values = (n, s, roots, bool(roots))
    _check_filter_values(*values)
    return values


def evaluate_candidate(b2: int, b3: int) -> CandidateRecord:
    """Run the full filter on one nonnegative (b2, b3) pair."""
    chern = chern_from_betti(b2, b3)
    d, sqrt, roots = zero_chi(chern.c4)
    return CandidateRecord(b2, b3, chern, d, sqrt, frozenset(roots), bool(roots))


def filter_candidates(pairs: list[tuple[int, int]]) -> list[CandidateRecord]:
    """Filter each (b2, b3) pair, preserving input order.

    A candidate is accepted iff chi = 0 actually has a rational solution for
    its c4, which is strictly stronger than delta-squareness at the single
    degenerate value c4 = 3024.
    """
    return [evaluate_candidate(b2, b3) for b2, b3 in pairs]
