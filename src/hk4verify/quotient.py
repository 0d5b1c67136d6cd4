"""Fixed-locus accounting for a prime-order symplectic automorphism and
Betti-number transport from the quotient to its crepant partial resolution.

Setting: a symplectic automorphism g of prime order p on a compact
hyperkahler 4-fold X fixes m isolated points, k K3 surfaces and t
2-dimensional complex tori.  The quotient Y = X/<g> has ADE singularities
along the fixed surfaces; the crepant partial resolution W -> Y replaces each
such surface S by S x C, where C is a chain of p - 1 smooth rational curves
(an A-chain; nothing else occurs here).  The m isolated points survive on W
as cyclic quotient singularities of index p.

Transport of Betti numbers assumes pullback injectivity on rational
cohomology, under which each exceptional fiber contributes additively:

    b_j(W) = b_j(Y) + (p - 1) * sum_S b_{j-2}(S)

The degree-2..4 instances are the classical statement; applying the rule in
every degree is forced by needing total Euler characteristics, and the result
still satisfies Poincare duality.

is_prime is deterministic Miller-Rabin on the 13 prime bases 2..41, exact
below 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 86, 2017); it refuses
larger n with ValueError rather than give a probabilistic verdict.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

from .topology import K3_BETTI, TORUS2_BETTI, euler_characteristic, salamon_defect

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


@functools.cache  # one test per distinct n and process
def is_prime(n: int) -> bool:
    """Whether n is prime; ValueError for n >= _MILLER_RABIN_BOUND."""
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(
            f"cannot decide whether {n} is prime: Miller-Rabin on bases 2..41 "
            f"is exact only below {_MILLER_RABIN_BOUND}"
        )
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:  # Miller-Rabin below needs odd n > 41
        if n % a == 0:
            return n == a
    d, s = n - 1, 0  # n - 1 = d * 2^s with d odd
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False  # a witnesses that n is composite
    return True


def _require_prime(p: int) -> None:
    if type(p) is not int or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


class _FixedLocusProfile(NamedTuple):
    p: int
    m: int
    k: int
    t: int


class FixedLocusProfile(_FixedLocusProfile):
    """Counts (m, k, t) of isolated points, K3 components and torus
    components in the fixed locus of an order-p automorphism."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # checked, and so is _replace

    def __new__(cls, p: int, m: int, k: int, t: int) -> FixedLocusProfile:
        self = super().__new__(cls, p, m, k, t)
        _require_prime(p)
        if any(type(n) is not int for n in (m, k, t)):
            raise ValueError(f"component counts must be int: {self}")
        if m < 0 or k < 0 or t < 0:
            raise ValueError(f"component counts must be nonnegative: {self}")
        return self


def transport_betti(bY: Sequence[int], profile: FixedLocusProfile) -> tuple[int, ...]:
    """Betti numbers of the crepant partial resolution W of Y.

    Adds (p - 1) * b_{j-2}(S) in every degree j for each of the k K3 and t
    torus components; isolated fixed points contribute nothing since they
    stay singular on W.  In degrees 2, 3, 4 this reads

        b2(W) = b2(Y) + (p - 1)(k + t)
        b3(W) = b3(Y) + 4(p - 1)t
        b4(W) = b4(Y) + (p - 1)(22k + 6t)
    """
    scale = profile.p - 1
    w = list(bY)
    for surface, count in ((K3_BETTI, profile.k), (TORUS2_BETTI, profile.t)):
        for i, bs in enumerate(surface):
            w[i + 2] += scale * count * bs
    return tuple(w)


def orbifold_salamon_defect(bW: Sequence[int], profile: FixedLocusProfile) -> int:
    """b4(W) + b3(W) - 10*b2(W) - 46 + m(p - 1).

    Zero exactly when the orbifold Salamon relation holds on W, whose m
    index-p quotient points contribute s = -m(p - 1) to the right-hand side.
    """
    return salamon_defect(bW) + profile.m * (profile.p - 1)


def lefschetz_euler_fixed(profile: FixedLocusProfile) -> int:
    """Topological Euler characteristic of the fixed locus.

    Points count 1 each, K3 surfaces 24 each, complex 2-tori 0; for a
    numerically trivial automorphism the fixed-point formula equates this
    with the Euler characteristic of the ambient space.
    """
    return (
        profile.m * 1
        + profile.k * euler_characteristic(K3_BETTI)
        + profile.t * euler_characteristic(TORUS2_BETTI)
    )


def solve_mk(p: int) -> tuple[int, int]:
    """The unique nonnegative solution of (m + 12k)(p - 1) = 0.

    Combining the Salamon relation on X, the orbifold Salamon relation on W
    and the transport formula balances the singularity contribution against
    the exceptional one:

        -m(p - 1) = (p - 1)(22k + 6t + 4t - 10k - 10t) = 12k(p - 1)

    Since p - 1 > 0 and m, k >= 0, the only solution is m = k = 0.
    """
    _require_prime(p)
    return (0, 0)


def mk_elimination_equation(p: int) -> str:
    """The balance equation behind solve_mk, rendered for certificates."""
    _require_prime(p)
    return (
        "-m*(p-1) = (p-1)*(22k + 6t + 4t - 10k - 10t), i.e. "
        f"(m + 12k)*(p-1) = 0; p = {p} gives m = k = 0"
    )
