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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .topology import BettiTable, K3_SURFACE, TORUS_SURFACE, salamon_defect


@functools.cache  # one trial division per distinct n and process
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


@dataclass(frozen=True)
class FixedLocusProfile:
    """Counts (m, k, t) of isolated points, K3 components and torus
    components in the fixed locus of an order-p automorphism."""

    p: int
    m: int
    k: int
    t: int

    def __post_init__(self) -> None:
        _require_prime(self.p)
        if self.m < 0 or self.k < 0 or self.t < 0:
            raise ValueError(f"component counts must be nonnegative: {self}")


def transport_betti(bY: BettiTable, profile: FixedLocusProfile) -> BettiTable:
    """Betti numbers of the crepant partial resolution W of Y.

    Adds (p - 1) * b_{j-2}(S) in every degree j for each of the k K3 and t
    torus components; isolated fixed points contribute nothing since they
    stay singular on W.  In degrees 2, 3, 4 this reads

        b2(W) = b2(Y) + (p - 1)(k + t)
        b3(W) = b3(Y) + 4(p - 1)t
        b4(W) = b4(Y) + (p - 1)(22k + 6t)
    """
    scale = profile.p - 1
    w = list(bY.b)
    for surface, count in ((K3_SURFACE, profile.k), (TORUS_SURFACE, profile.t)):
        if count == 0:
            continue
        for i, bs in enumerate(surface.full_betti()):
            w[i + 2] += scale * count * bs
    return BettiTable(tuple(w), strict_hk=bY.strict_hk)


def orbifold_salamon_defect(bW: BettiTable, profile: FixedLocusProfile) -> int:
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
        + profile.k * K3_SURFACE.euler_characteristic()
        + profile.t * TORUS_SURFACE.euler_characteristic()
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
