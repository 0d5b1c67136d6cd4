"""Betti tables of compact hyperkahler 4-folds and their Chern arithmetic.

A :class:`BettiTable` is the tuple b0..b8 of a compact hyperkahler 4-fold,
checked when it is built.  The formulas here and in ``quotient`` take any
sequence of entries and use only +, - and *, so they also run on the tables of
other spaces (surfaces, quotients) and on polynomials; a caller checks a table
with BettiTable where it claims to be a 4-fold's.

The fixed surfaces of the quotient transport are plain data: K3_BETTI and
TORUS2_BETTI are b0..b4 of a K3 surface and of a complex 2-torus.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

K3_BETTI = (1, 0, 22, 0, 1)
TORUS2_BETTI = (1, 4, 6, 4, 1)


class InadmissiblePairError(ValueError):
    """A (b2, b3) pair that no compact hyperkahler 4-fold can carry."""


class BettiTable(tuple):
    """The Betti numbers b0..b8 of a compact hyperkahler 4-fold, checked;
    ``bt[j]`` is b_j."""

    __slots__ = ()

    def __new__(cls, b: Iterable[int]) -> BettiTable:
        b = tuple(b)
        if len(b) != 9:
            raise ValueError(f"9 Betti numbers expected, got {len(b)}")
        if any(type(x) is not int for x in b):
            raise ValueError(f"Betti numbers must be int, got {b}")
        if any(x < 0 for x in b):
            raise ValueError(f"negative Betti number in {b}")
        if b[0] != 1 or b[8] != 1 or b[1] != 0 or b[7] != 0:
            raise ValueError(f"not a hyperkahler 4-fold table: {b}")
        if any(b[j] != b[8 - j] for j in range(9)):
            raise ValueError(f"Poincare duality fails: {b}")
        if b[3] % 2 != 0:
            raise ValueError(f"odd b3 = {b[3]} is impossible on a hyperkahler 4-fold")
        return super().__new__(cls, b)


class ChernData(NamedTuple):
    """The Chern numbers (integral of c2^2, integral of c4) of a 4-fold."""

    c2sq: int
    c4: int


def c4_from_betti(b2: int, b3: int) -> int:
    """c4 = 48 + 12*b2 - 3*b3 of a hyperkahler 4-fold with Betti numbers b2
    and b3; with 3*c2sq - c4 = 2160 it fixes both Chern numbers.  No check on
    the pair (chern_from_betti rejects non-int and negative values)."""
    return 48 + 12 * b2 - 3 * b3


def chern_from_betti(b2: int, b3: int) -> ChernData:
    """Chern numbers of a hyperkahler 4-fold from its second and third Betti
    numbers:

        c4    = 48 + 12*b2 - 3*b3      (c4_from_betti)
        c2sq  = (c4 + 2160) / 3 = 736 + 4*b2 - b3    (chern_from_c4)

    Total on nonnegative int pairs even when the result is geometrically
    unrealizable (c4 may come out negative), so candidate sweeps never crash
    on junk rows.
    """
    if type(b2) is not int or type(b3) is not int:
        raise ValueError(f"Betti numbers must be int, got ({b2!r}, {b3!r})")
    if b2 < 0 or b3 < 0:
        raise ValueError(f"Betti numbers must be nonnegative, got ({b2}, {b3})")
    return chern_from_c4(c4_from_betti(b2, b3))


def chern_from_c4(c4: int) -> ChernData:
    """Both Chern numbers of a hyperkahler 4-fold from c4, by 3*c2sq - c4 = 2160."""
    return ChernData(c2sq=(c4 + 2160) // 3, c4=c4)


def betti_numbers(b2: int, b3: int) -> tuple[int, ...]:
    """b0..b8 of a hyperkahler 4-fold with b2 and b3, unchecked: b4 by the
    Salamon relation, the rest by Poincare duality, b0 = 1 and b1 = 0."""
    return (1, 0, b2, b3, 46 + 10 * b2 - b3, b3, b2, 0, 1)


def admissible_b4(b2: int, b3: int) -> int:
    """The b4 that the Salamon relation b4 + b3 - 10*b2 = 46 forces on an
    admissible (b2, b3) pair.

    Raises InadmissiblePairError when b2 or b3 is not an int or is negative,
    b3 is odd, or the forced b4 would be negative.
    """
    if type(b2) is not int or type(b3) is not int:
        raise InadmissiblePairError(f"Betti numbers must be int, got ({b2!r}, {b3!r})")
    if b2 < 0 or b3 < 0:
        raise InadmissiblePairError(
            f"Betti numbers must be nonnegative, got ({b2}, {b3})"
        )
    if b3 % 2 != 0:
        raise InadmissiblePairError(f"b3 must be even, got {b3}")
    b4 = betti_numbers(b2, b3)[4]
    if b4 < 0:
        raise InadmissiblePairError(
            f"Salamon relation forces b4 = 46 + 10*{b2} - {b3} = {b4} < 0"
        )
    return b4


def betti_from_pair(b2: int, b3: int) -> BettiTable:
    """The checked betti_numbers(b2, b3); InadmissiblePairError on the pairs
    admissible_b4 rejects."""
    admissible_b4(b2, b3)
    return BettiTable(betti_numbers(b2, b3))


def salamon_defect(bt: Sequence[int]) -> int:
    """b4 + b3 - 10*b2 - 46; zero exactly when the Salamon relation holds."""
    return bt[4] + bt[3] - 10 * bt[2] - 46


def euler_characteristic(bt: Sequence[int]) -> int:
    """Topological Euler characteristic: the alternating sum of all entries."""
    return sum(bt[0::2]) - sum(bt[1::2])
