"""Independent reference implementations the tests compare the package
against: a token-split reader of candidate rows, a rational quadratic solver,
the Riemann-Roch quadratic in its rational and fully general forms, the
Kuenneth product behind the Betti transport, and an evaluator of integer
polynomials."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from hk4verify.exact import Poly, rational_sqrt_exact
from hk4verify.topology import InadmissiblePairError, admissible_b4


class ReferenceFormatError(ValueError):
    """A malformed line of a candidate file; ``line`` is its number."""

    def __init__(self, line: int) -> None:
        super().__init__(f"malformed line {line}")
        self.line = line


def read_rows_by_tokens(text: str) -> list[tuple[int, int, int, str | None]]:
    """(line, b2, b3, error) of every data row of a candidate file, read by
    splitting each line into comma-separated tokens and stripping spaces and
    tabs from each; raises ReferenceFormatError at the first malformed line."""
    rows = []
    seen: dict[tuple[int, int], int] = {}
    header_seen = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r").strip(" \t")
        if not line or line.startswith("#"):
            continue
        tokens = [tok.strip(" \t") for tok in line.split(",")]
        if not header_seen:
            if tokens != ["b2", "b3"]:
                raise ReferenceFormatError(lineno)
            header_seen = True
            continue
        if len(tokens) != 2 or not all(
            re.fullmatch(r"[+-]?[0-9]+", tok) for tok in tokens
        ):
            raise ReferenceFormatError(lineno)
        b2, b3 = int(tokens[0]), int(tokens[1])
        error = None
        if (b2, b3) in seen:
            error = f"duplicate of line {seen[(b2, b3)]}"
        else:
            seen[(b2, b3)] = lineno
            try:
                admissible_b4(b2, b3)
            except InadmissiblePairError as exc:
                error = str(exc)
        rows.append((lineno, b2, b3, error))
    if not header_seen:
        raise ReferenceFormatError(0)
    return rows


class IndeterminateEquationError(ValueError):
    """Raised when a quadratic degenerates to 0 = 0.

    Every rational satisfies such an equation; no caller can consume an
    infinite root set, so this is an error rather than a sentinel.
    """


def solve_rational_quadratic(
    a: Fraction, b: Fraction, c: Fraction
) -> set[Fraction]:
    """Return exactly the set of rational x with a*x**2 + b*x + c == 0.

    Degenerate cases: a == 0, b != 0 gives the single linear root {-c/b};
    a == b == 0 with c != 0 has no solutions; a == b == c == 0 raises
    IndeterminateEquationError.  For a != 0 the root set is nonempty iff the
    discriminant b**2 - 4ac has a rational square root, and every returned
    root satisfies the equation exactly.
    """
    if a == 0:
        if b == 0:
            if c == 0:
                raise IndeterminateEquationError(
                    "all coefficients vanish: every rational is a solution"
                )
            return set()
        return {-c / b}
    disc = b * b - 4 * a * c
    root = rational_sqrt_exact(disc)
    if root is None:
        return set()
    return {(-b + root) / (2 * a), (-b - root) / (2 * a)}


#: chi(W, O) of a compact hyperkahler 4-fold, equal to 2160/720.
CHI_TRIVIAL_BUNDLE = Fraction(3)


@dataclass(frozen=True)
class RRPolynomial:
    """chi as a polynomial constant + linear*x + quadratic*x^2 in the
    characteristic value, specialized to a hyperkahler 4-fold."""

    constant: Fraction
    linear: Fraction
    quadratic: Fraction

    def __post_init__(self) -> None:
        if self.constant != CHI_TRIVIAL_BUNDLE:
            raise ValueError(
                f"constant term must be {CHI_TRIVIAL_BUNDLE} on a hyperkahler "
                f"4-fold, got {self.constant}"
            )

    @classmethod
    def for_c4(cls, c4: int) -> "RRPolynomial":
        return cls(
            constant=CHI_TRIVIAL_BUNDLE,
            linear=Fraction(7, 2) - Fraction(c4, 864),
            quadratic=Fraction(7, 8) - Fraction(c4, 3456),
        )

    def evaluate(self, x: Fraction) -> Fraction:
        return self.constant + self.linear * x + self.quadratic * x * x

    def discriminant(self) -> Fraction:
        """linear^2 - 4 * quadratic * constant, the usual quadratic
        discriminant (constant = 3, hence the factor 12)."""
        return self.linear * self.linear - 12 * self.quadratic

    def rational_roots(self) -> set[Fraction]:
        return solve_rational_quadratic(self.quadratic, self.linear, self.constant)


def rr_chi_full(c2sq: int, c4: int, chi_o: Fraction, lam: Fraction) -> Fraction:
    """chi(W, L) from both Chern numbers, chi(W, O) and the characteristic
    value, with no hyperkahler constraint assumed."""
    linear = (Fraction(7, 2) * c2sq - 2 * c4) / 720
    quadratic = (Fraction(7, 8) * c2sq - Fraction(1, 2) * c4) / 720
    return chi_o + linear * lam + quadratic * lam * lam


#: Betti numbers b0..b4 of a K3 surface and of a complex 2-torus, written out
#: here rather than taken from hk4verify.topology, whose constants they check.
K3_SURFACE = (1, 0, 22, 0, 1)
TORUS_SURFACE = (1, 4, 6, 4, 1)


@dataclass(frozen=True)
class ExceptionalFiber:
    """Product of a fixed surface with a chain of chain_length rational
    curves, the exceptional fiber over a codimension-2 stratum."""

    surface: tuple[int, ...]  # b0..b4, e.g. K3_SURFACE or TORUS_SURFACE
    chain_length: int

    def __post_init__(self) -> None:
        if self.chain_length < 1:
            raise ValueError(f"chain length must be positive, got {self.chain_length}")

    def chain_betti(self) -> tuple[int, int, int]:
        # A connected chain of n rational curves: n fundamental classes in
        # degree 2, no odd cohomology.
        return (1, 0, self.chain_length)

    def betti(self) -> tuple[int, ...]:
        """Betti numbers b0..b8 of surface x chain via the Kuenneth formula."""
        out = [0] * 9
        for i, bs in enumerate(self.surface):
            for j, bc in enumerate(self.chain_betti()):
                out[i + j] += bs * bc
        return tuple(out)


def is_prime(n: int) -> bool:
    """Trial division by every d with d * d <= n."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def exceptional_betti(surface: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Betti table of S x C_p for a prime p (degrees 0..6, zeros above)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return ExceptionalFiber(surface, p - 1).betti()


def evaluate(poly: Poly | int, point: dict[str, int]) -> int:
    """The value of ``poly`` at ``point``, a value for each variable name: the
    sum over its terms of the coefficient times the product of the values."""
    if isinstance(poly, int):
        return poly
    return sum(c * math.prod(point[v] for v in e) for e, c in poly.terms.items())
