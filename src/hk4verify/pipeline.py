"""Candidate ingestion, the contradiction pipeline, and report emission.

Candidate file format
---------------------
UTF-8 text, LF or CRLF line endings.  Comment lines start with ``#`` (the
leading comment block is kept as free-text provenance), the first
non-comment line must be the header ``b2,b3``, and every following line
holds two comma-separated integers, spelled as in ``exact`` (the one home
of the number grammar).  Spaces and tabs around a field are ignored; any
other whitespace in a line is an error.  One anchored ASCII pattern
(``_ROW_RE``) accepts a data row; other lines are comments, blank, the
header, or errors.  A plain body, every line after the header two fields of
ASCII digits with no leading zero around one comma and an LF, is read in bulk
(``_read_plain_body``); each plain line also fullmatches ``_ROW_RE``, so the
bulk reader accepts a subset of what the per-line reader does.  Any other
body (CRLF, blanks around a field, comments, signs, a leading zero) and a
plain body with a row to flag or refuse are read line by line, by the reader
that writes every message and flagged row.  Malformed input (bad header,
non-integer or over-long fields, non-UTF-8 bytes) is an error; inadmissible
rows (negative values, odd b3, negative forced b4, duplicates) are kept as
flagged rows with an error annotation, never silently dropped.  A
CandidateFile holds the valid pairs in file order as two int columns, b2s
and b3s, with the line of each, and the flagged rows.

The contradiction pipeline
--------------------------
For a hypothetical numerically trivial automorphism of prime order p on a
compact hyperkahler 4-fold X with Betti candidate (b2, b3), the fixed locus
would consist of m points, k K3 surfaces and t tori with m = k = 0 forced by
the orbifold Salamon balance.  Exactly one of two contradictions then fires:

* ``LefschetzMismatch``: chi_top(X) != 0, but the fixed-point formula says
  chi_top(X) equals the Euler characteristic of a disjoint union of tori,
  which is 0.
* ``Table1Exclusion``: chi_top(X) = 0, so the resolved quotient W would be a
  hyperkahler 4-fold with c4(W) = 0 carrying a line bundle with chi = 0; but
  chi = 0 has no rational solution at c4 = 0 (the discriminant 7/4 is not a
  rational square).

Every (candidate, prime, t) triple must yield a certificate; a triple that
refuses both branches aborts the run, because it would mean the verified
chain of identities is broken.

Before the sweep, prove checks once, on polynomials in (b2, b3, p - 1, m, k,
t), the identities the sweep rests on, for all integers (chi_top(X) = c4, the
Salamon balances, chi_top(W) and the fixed locus's chi_top), and that b(W) =
b(X) + (p - 1)*t*c is a 4-fold's table at every t >= 0.  It builds each
prime's m and k, whose fixed locus must have chi_top 0, and the values at
c4(W) = 0.  The branch, the details of each prime and the hypotheses are
functions of c4 = chi_top(X) alone, so the sweep builds them once per
distinct c4 and holds one group per candidate (``_Group``) that shares them;
a Table1Exclusion group adds b(X), the base of the affine form (``AffineBetti``)
b(W) = b(X) + (p - 1)*t*c.  verify_certificate checks the runs of each c4's
first candidate in file order, which stand for the runs of all its candidates.
``prove`` returns the groups as ``Certificates``: ``runs`` gives one
``CertificateRun`` per (candidate, prime), and iteration one per certificate
(a run of one t).  ``report_chunks`` writes each group as one block from a
template built once per c4 and range of t.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from collections import deque
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import add, itemgetter, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from ._version import __version__
from .exact import ASCII_DIGITS, BLANKS, INT, PAD, Poly, format_rational
from .quotient import (
    FixedLocusProfile,
    _FixedLocusProfile,
    is_prime,
    lefschetz_euler_fixed,
    mk_elimination_equation,
    orbifold_salamon_defect,
    solve_mk,
    transport_betti,
)
from .riemann_roch import (
    CandidateRecord,
    admits_zero_chi,
    evaluate_candidate,
    zero_chi,
)
from .topology import (
    BettiTable,
    InadmissiblePairError,
    admissible_b4,
    betti_from_pair,
    betti_numbers,
    c4_from_betti,
    euler_characteristic,
    salamon_defect,
)

_T = TypeVar("_T")

DEFAULT_PRIMES: tuple[int, ...] = (2, 3, 5, 7, 11, 13)
DEFAULT_T_MAX = 20


class CandidateFormatError(ValueError):
    """Structurally malformed candidate file."""


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


class CandidateRow(NamedTuple):
    """One data row; ``error`` carries the inadmissibility reason, if any."""

    line: int
    b2: int
    b3: int
    error: str | None = None


class CandidateFile(NamedTuple):
    """The valid pairs in file order as two columns, ``b2s`` and ``b3s``, the
    line of each, and a CandidateRow per ``flagged`` row; ``pairs`` and
    ``rows`` (every data row, in line order) are built on demand."""

    path: str
    b2s: tuple[int, ...]
    b3s: tuple[int, ...]
    pair_lines: tuple[int, ...]
    flagged: tuple[CandidateRow, ...]
    provenance: str
    digest: str

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.b2s, self.b3s))

    @property
    def rows(self) -> tuple[CandidateRow, ...]:
        valid = list(map(CandidateRow, self.pair_lines, self.b2s, self.b3s))
        return tuple(sorted(valid + list(self.flagged), key=lambda row: row.line))

    def valid_pairs(self) -> list[tuple[int, int]]:
        return list(self.pairs)

    def invalid_rows(self) -> list[CandidateRow]:
        return list(self.flagged)


class Branch(Enum):
    LEFSCHETZ_MISMATCH = "LefschetzMismatch"
    TABLE1_EXCLUSION = "Table1Exclusion"


class AffineBetti(NamedTuple):
    """Betti numbers as an affine form in t: ``at(t)`` is ``base + slope*t``
    entrywise.  In the details a _Group shares, ``base`` is None and stands
    for the group's ``base``."""

    base: tuple[int, ...] | None
    slope: tuple[int, ...]

    def at(self, t: int) -> tuple[int, ...]:
        return tuple([x + s * t for x, s in zip(self.base, self.slope)])


class CertificateRun(NamedTuple):
    """The certificates of one (candidate, prime) for each t in ``ts``, one
    certificate when ``ts`` has one t; they share ``branch``, ``details``
    (read-only: runs share it too) and ``hypotheses``.  A betti_W that is an
    AffineBetti stands for its value at each certificate's t."""

    candidate: tuple[int, int]
    prime: int
    ts: range
    branch: Branch
    details: dict[str, object]
    hypotheses: tuple[str, ...]

    @property
    def t(self) -> int:
        """The run's first t, where verify_certificate places a failure."""
        return self.ts.start


class _Group(NamedTuple):
    """The certificates of one candidate: a run over ``ts`` for each prime of
    ``primes``, with that prime's entry of ``details``.  prove's groups of one
    c4 share ``details`` and ``hypotheses``.  An AffineBetti betti_W is read
    as ``base + slope*t``: its slope from the details, ``base`` (b(X)) from the
    group, since in shared details its base is None."""

    candidate: tuple[int, int]
    primes: tuple[int, ...]
    ts: range
    branch: Branch
    details: tuple[dict[str, object], ...]
    hypotheses: tuple[str, ...]
    base: tuple[int, ...] | None = None

    @classmethod
    def of(cls, run: CertificateRun) -> _Group:
        """``run`` as a group of one prime."""
        candidate, p, ts, branch, details, hypotheses = run
        form = details.get("betti_W")
        base = form.base if isinstance(form, AffineBetti) else None
        return cls(candidate, (p,), ts, branch, (details,), hypotheses, base)

    def runs(self) -> Iterator[CertificateRun]:
        """The group's runs, one per prime, in the order of ``primes``."""
        for p, details in zip(self.primes, self.details):
            if self.base is not None:
                form = AffineBetti(self.base, details["betti_W"].slope)
                details = {**details, "betti_W": form}
            yield CertificateRun(self.candidate, p, self.ts, self.branch, details,
                                 self.hypotheses)


class Certificates:
    """The certificates of one prove call, held per candidate; ``runs`` gives
    them per (candidate, prime), and ``len`` and iteration one per (candidate,
    prime, t), in sweep order, as a run of that one t.  ``Certificates(runs)``
    holds each run as a group of one prime; prove passes its ``_groups``."""

    def __init__(
        self, runs: Iterable[CertificateRun] = (), *, _groups: Iterable[_Group] = ()
    ) -> None:
        self._groups = (*_groups, *map(_Group.of, runs))

    @property
    def runs(self) -> tuple[CertificateRun, ...]:
        return tuple(chain.from_iterable(map(_Group.runs, self._groups)))

    def __len__(self) -> int:
        return sum(self.branch_counts().values())

    def __iter__(self) -> Iterator[CertificateRun]:
        make = CertificateRun._make  # tuple.__new__, without the keywords of __new__
        for candidate, p, ts, branch, details, hypotheses in self.runs:
            form = details.get("betti_W")
            affine = isinstance(form, AffineBetti)  # then details per t, with b(W) at t
            for t in ts:
                at_t = {**details, "betti_W": form.at(t)} if affine else details
                yield make((candidate, p, range(t, t + 1), branch, at_t, hypotheses))

    def branch_counts(self) -> dict[str, int]:
        """Certificates per branch, keyed by branch name in Branch order."""
        # compared by identity: hashing an Enum member runs Python code
        return {
            branch.value: sum(
                len(g.primes) * len(g.ts) for g in self._groups if g.branch is branch
            )
            for branch in Branch
        }


# Cited facts the certificates rely on but do not recompute.  Stated here
# once so reports separate computed values from assumed theorems.
_HYPOTHESES_COMMON = (
    "numerically_trivial: g acts as the identity on rational cohomology, "
    "hence b_j(X/<g>) = b_j(X) for all j",
    "pullback_injective: pullback to the partial resolution is injective on "
    "rational cohomology, so exceptional fibers contribute additively to "
    "Betti numbers",
    "orbifold_salamon: b4 + b3 - 10*b2 = 46 + s holds on the partial "
    "resolution, with s = -m*(p-1) contributed by the m index-p quotient "
    "points",
    "lefschetz_fixed_point: chi_top(X) equals chi_top of the fixed locus for "
    "a numerically trivial automorphism",
)
_HYPOTHESES_EXCLUSION = _HYPOTHESES_COMMON + (
    "resolution_smooth_hyperkahler: with m = k = 0 the partial resolution W "
    "is a smooth compact hyperkahler 4-fold",
    "vanishing_chi_line_bundle: W carries a line bundle L with "
    "chi(W, L) = 0, induced by the O-cohomologically trivial action",
)


# ---------------------------------------------------------------------------
# Candidate ingestion

#: The pattern of a data row: two integer fields around a comma, blanks around
#: each field, and the "\r" of a CRLF line ending.
_ROW_RE = re.compile(rf"{PAD}({INT}){PAD},{PAD}({INT}){PAD}\r?")

#: Deletes the ASCII digits: a plain body, every line two digit fields around
#: one comma and an LF, becomes ",\n" per line.
_DROP_DIGITS = str.maketrans("", "", ASCII_DIGITS)


#: Pairs accepted by the rational-square filter; the default prove fixture.
TABLE1_FIXTURE = """\
# Betti pairs (b2, b3) of compact hyperkahler 4-folds that pass the
# rational-square filter on the Riemann-Roch discriminant.
# Built-in fixture used when no candidate file is supplied.
b2,b3
23,0
7,8
6,4
5,0
"""


def parse_candidates(
    text: str, path: str = "<memory>", digest: str | None = None
) -> CandidateFile:
    """Parse candidate text; see the module docstring for the grammar."""
    if digest is None:
        raw = text.encode("utf-8", "surrogatepass")  # a str may hold lone surrogates
        digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    provenance: list[str] = []
    lineno, start = 1, 0  # the line being read and its offset in text
    while True:  # comments and blank lines, up to the header
        end = text.find("\n", start)
        line = text[start:] if end < 0 else text[start:end]
        line = line.removesuffix("\r").strip(BLANKS)
        if line.startswith("#"):
            provenance.append(line.lstrip("#").strip(BLANKS))
        elif line:
            if [tok.strip(BLANKS) for tok in line.split(",")] != ["b2", "b3"]:
                raise CandidateFormatError(
                    f"{path}:{lineno}: expected header 'b2,b3', got {line!r}"
                )
            break
        if end < 0:
            raise CandidateFormatError(f"{path}: missing 'b2,b3' header line")
        lineno, start = lineno + 1, end + 1
    body = "" if end < 0 else text[end + 1:]
    first = lineno + 1  # the line of the body's first row
    columns = _read_plain_body(body)
    if columns is None:
        b2s, b3s, pair_lines, flagged = _read_rows(body, first, path)
    else:  # one pair per line
        b2s, b3s = columns
        pair_lines, flagged = tuple(range(first, first + len(b2s))), ()
    return CandidateFile(
        path=path, b2s=b2s, b3s=b3s, pair_lines=pair_lines, flagged=flagged,
        provenance="\n".join(provenance), digest=digest,
    )


def _read_plain_body(body: str) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The b2 and b3 columns of a plain body, one pair per line, read in bulk;
    None when the body is not plain (lines of two digit fields around a comma,
    each ending in LF, with no leading zero, which JSON refuses like an empty
    or over-long field) or holds a row that _read_rows flags."""
    if body[-1:] != "\n" or body.translate(_DROP_DIGITS) != ",\n" * body.count("\n"):
        return None
    try:  # the C scanner of json reads the fields faster than int() one by one
        numbers = json.loads("[" + body[:-1].replace("\n", ",") + "]")
    except ValueError:
        return None
    lines = body.split("\n")
    if len(set(lines)) != len(lines):  # one spelling per pair, so a duplicate
        return None
    b2s, b3s = tuple(numbers[0::2]), tuple(numbers[1::2])
    # admissible_b4 decides the body from representatives.  Asked about
    # (max(b2s), b3) it refuses an odd b3, and a b3 that forces a negative b4
    # on every b2.  By the Salamon relation b4 + b3 - 10*b2 = 46 the b4 it
    # forces on (b2, b3) is admissible_b4(b2, 0) - b3, so no pair forces a
    # negative b4 unless the pair with the least one does.
    try:
        top = max(b2s)
        for b3 in set(b3s):
            admissible_b4(top, b3)
        base = {b2: admissible_b4(b2, 0) for b2 in set(b2s)}
        b4s = list(map(sub, map(base.__getitem__, b2s), b3s))
        least = b4s.index(min(b4s))
        admissible_b4(b2s[least], b3s[least])
    except InadmissiblePairError:
        return None
    return b2s, b3s


def _read_rows(body: str, first_line: int, path: str) -> tuple[
    tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[CandidateRow, ...]
]:
    """The b2 and b3 columns of the valid pairs of ``body``, the line of each,
    and the flagged rows, read one line at a time from line ``first_line``:
    the reader of every body that _read_plain_body does not read, and the
    only one that flags a row or refuses a line."""
    flagged: list[CandidateRow] = []
    seen: dict[tuple[int, int], int] = {}  # the first line of each pair read
    inadmissible: list[tuple[int, int]] = []
    match_row = _ROW_RE.fullmatch
    for lineno, raw in enumerate(body.split("\n"), start=first_line):
        if match := match_row(raw):
            try:
                b2, b3 = int(match[1]), int(match[2])
            except ValueError:  # more digits than int() converts
                limit = sys.get_int_max_str_digits()
                message = f"{path}:{lineno}: integer field longer than {limit} digits"
                raise CandidateFormatError(message) from None
            first = seen.setdefault((b2, b3), lineno)
            if first != lineno:
                flagged.append(CandidateRow(lineno, b2, b3, f"duplicate of line {first}"))
                continue
            try:
                admissible_b4(b2, b3)
            except InadmissiblePairError as exc:
                flagged.append(CandidateRow(lineno, b2, b3, str(exc)))
                inadmissible.append((b2, b3))
            continue
        # comments, blank lines, and data lines _ROW_RE refused
        line = raw.removesuffix("\r").strip(BLANKS)
        if not line or line.startswith("#"):
            continue
        if line.count(",") != 1:
            raise CandidateFormatError(
                f"{path}:{lineno}: expected two comma-separated fields, got {line!r}"
            )
        raise CandidateFormatError(f"{path}:{lineno}: non-integer field in {line!r}")
    for pair in inadmissible:  # what remains is each valid pair at its line
        del seen[pair]
    b2s, b3s = tuple([b2 for b2, _ in seen]), tuple([b3 for _, b3 in seen])
    return b2s, b3s, tuple(seen.values()), tuple(flagged)


def load_candidates(path: str | os.PathLike[str]) -> CandidateFile:
    """Read and parse a candidate file; the digest covers the raw bytes."""
    with open(path, "rb") as f:
        raw = f.read()
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")  # a leading BOM is allowed
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        message = f"{path}:{line}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        raise CandidateFormatError(message) from None
    return parse_candidates(text, path=str(path), digest=digest)


def builtin_candidates() -> CandidateFile:
    return parse_candidates(TABLE1_FIXTURE, path="<builtin:table1>")


# ---------------------------------------------------------------------------
# The contradiction pipeline

def prove(
    candidates: CandidateFile,
    primes: Sequence[int] = DEFAULT_PRIMES,
    t_max: int = DEFAULT_T_MAX,
) -> Certificates:
    """Replay the contradiction for every (valid candidate, prime, t) triple.

    Returns one certificate per triple, in sweep order (candidates in file
    order, then primes, then t), held as one group per candidate.
    verify_certificate reads only the branch and details, which the runs of
    one c4 and prime share, so it checks the runs of each c4's first candidate
    and places a failure at the run's first t, where a check of every run, in
    sweep order, would.  Raises VerificationError if any triple fails to
    produce a contradiction or an internal identity breaks.
    """
    if type(t_max) is not int or t_max < 0:
        raise ValueError(f"t_max must be a nonnegative int, got {t_max!r}")
    primes = tuple(primes)
    if not primes:
        raise ValueError("at least one prime is required")
    if len(set(primes)) != len(primes):
        raise ValueError(f"duplicate primes in {primes}")
    for p in primes:
        if type(p) is not int or not is_prime(p):
            raise ValueError(f"not a prime: {p}")
    expected = len(candidates.b2s) * len(primes) * (t_max + 1)
    if expected > sys.maxsize:  # len() of the result could not be taken
        raise ValueError(f"{expected} certificates exceed sys.maxsize = {sys.maxsize}")
    slope = _check_identities()
    fixed = {p: _prime_details(p) for p in primes}  # no candidate changes these
    d, sqrt, roots = zero_chi(0)  # nor the values at c4(W) = chi_top(W) = 0
    zero_W = {
        "salamon_defect_W": 0, "c4_W": 0, "delta": d, "delta_sqrt": sqrt,
        "lambda_roots": tuple(sorted(roots)),
    }
    ts = range(t_max + 1)
    classes: dict[int, _Group] = {}  # the first group of each c4, in file order
    groups: list[_Group] = []
    for b2, b3 in zip(candidates.b2s, candidates.b3s):
        admissible_b4(b2, b3)  # refuses the pairs betti_from_pair refuses
        c4 = c4_from_betti(b2, b3)  # chi_top(X) = c4, checked on polynomials
        base = None if c4 else betti_from_pair(b2, b3)  # b(W) = b(X) + (p - 1)*t*c
        first = classes.get(c4)  # its branch, details and hypotheses are first[3:6]
        shared = _class_of(c4, fixed, zero_W, slope) if first is None else first[3:6]
        groups.append(_Group((b2, b3), primes, ts, *shared, base))
        classes.setdefault(c4, groups[-1])
    certificates = Certificates(_groups=groups)
    if len(certificates) != expected:
        raise VerificationError(
            f"expected {expected} certificates, produced {len(certificates)}",
            identity="certificate_count",
        )
    for first in classes.values():  # a c4's groups share all verify reads
        for run in first.runs():
            verify_certificate(run)
    return certificates


def _check_identities() -> tuple[int, ...]:
    """Check the identities the sweep rests on, running the unmodified formulas
    on polynomials in b2, b3, q = p - 1, m, k and t.  Returns c with b(W) - b(X)
    = q*t*c + q*k*(K3 term), c >= 0 and b(X) + c a 4-fold's table."""
    b2, b3, q, m, k, t = map(Poly.var, ("b2", "b3", "q", "m", "k", "t"))
    c4 = c4_from_betti(b2, b3)
    profile = _FixedLocusProfile(q + 1, m, k, t)
    bX = betti_numbers(b2, b3)
    bW = transport_betti(bX, profile)
    diff = [Poly.of(w - x) for w, x in zip(bW, bX)]
    c, k3 = (tuple([d.terms.get(e, 0) for d in diff]) for e in (("q", "t"), ("k", "q")))
    rows = (
        ("chi_top_X", euler_characteristic(bX), c4),
        ("salamon_W", salamon_defect(bW), 12 * q * k),
        ("orbifold_salamon_W", orbifold_salamon_defect(bW, profile), q * (m + 12 * k)),
        ("chi_top_W", euler_characteristic(bW), c4 + 24 * q * k),
        ("chi_top_fixed_locus", lefschetz_euler_fixed(profile), m + 24 * k),
        ("betti_W", diff, [q * t * x + q * k * y for x, y in zip(c, k3)]),
    )
    try:
        for identity, got, stated in rows:
            if got != stated:
                raise ValueError(f"{got} != {stated}")
        identity = "betti_W"
        if min(c) < 0:
            raise ValueError(f"b(X) + (p - 1)*t*{c} goes negative as t grows")
        BettiTable(map(add, betti_numbers(0, 0), c))  # b(X) at b2 = b3 = 0, plus c
    except ValueError as exc:
        message = f"{identity} fails on polynomials: {exc}"
        raise VerificationError(message, identity=identity) from None
    return c


def _class_of(
    c4: int, fixed: dict[int, dict[str, object]], zero_W: dict[str, object],
    slope: tuple[int, ...],
) -> tuple[Branch, tuple[dict[str, object], ...], tuple[str, ...]]:
    """The branch, the details per prime of ``fixed`` (each prime's details)
    and the hypotheses of the candidates with chi_top(X) = ``c4``, with
    ``zero_W``, the values at c4(W) = 0, and _check_identities' c."""
    if c4 != 0:  # chi_top(X) != 0, the fixed locus's chi_top (_prime_details)
        details = tuple([{"chi_top_X": c4, **d} for d in fixed.values()])
        return Branch.LEFSCHETZ_MISMATCH, details, _HYPOTHESES_COMMON
    # chi_top(X) = 0: through the quotient to W, with c4(W) = 0
    forms = [AffineBetti(None, tuple([(p - 1) * x for x in slope])) for p in fixed]
    details = tuple([
        {"chi_top_X": 0, **d, "betti_W": form, **zero_W}
        for d, form in zip(fixed.values(), forms)
    ])
    return Branch.TABLE1_EXCLUSION, details, _HYPOTHESES_EXCLUSION


def _prime_details(p: int) -> dict[str, object]:
    """The details of prime p, which no candidate changes, after checking that
    its fixed locus has chi_top 0 (at any t: _check_identities found m + 24k)."""
    m, k = solve_mk(p)
    got = lefschetz_euler_fixed(FixedLocusProfile(p=p, m=m, k=k, t=0))
    if got != 0:
        raise VerificationError(
            f"fixed locus of {m} points and {k} K3 surfaces must have chi_top 0, "
            f"got {got}", prime=p, identity="chi_top_fixed_locus",
        )
    elimination = mk_elimination_equation(p)
    return {"chi_top_fixed_locus": 0, "m": m, "k": k, "mk_elimination": elimination}


def verify_certificate(cert: CertificateRun) -> None:
    """Re-check the branch invariants of a run's certificates from its details."""
    chi_X = cert.details["chi_top_X"]
    if cert.branch is Branch.LEFSCHETZ_MISMATCH:
        if chi_X == 0:
            raise _certificate_error(
                cert, f"LefschetzMismatch with chi_top(X) = 0: {cert}",
                "lefschetz_mismatch",
            )
    elif cert.branch is Branch.TABLE1_EXCLUSION:
        c4_W = cert.details["c4_W"]
        if chi_X != 0 or c4_W != 0:
            raise _certificate_error(
                cert, f"Table1Exclusion requires chi_top(X) = c4(W) = 0: {cert}",
                "table1_exclusion",
            )
        if admits_zero_chi(c4_W):
            raise _certificate_error(
                cert,
                f"Table1Exclusion but chi = 0 is rationally solvable at c4 = {c4_W}",
                "zero_chi_W",
            )
    else:  # pragma: no cover - enum is closed
        raise _certificate_error(cert, f"unknown branch {cert.branch}", None)


def _certificate_error(
    cert: CertificateRun, message: str, identity: str | None
) -> VerificationError:
    """A VerificationError located at ``cert``'s first triple."""
    return VerificationError(
        message, candidate=cert.candidate, prime=cert.prime, t=cert.t,
        identity=identity,
    )


# ---------------------------------------------------------------------------
# Reports
#
# Rows are filled into fixed byte templates: any indent makes json.dumps use
# its pure-Python encoder, which would walk every row.  Other blocks are
# encoded by json.JSONEncoder(indent=2), so a report is laid out exactly as
# json.dumps(value, indent=2) lays it out; a tail that repeats between rows is
# encoded once per shape, with slots for the values that vary (_item_tail),
# filled once per value, and shared by its rows.  A prove or filter report is
# joined in chunks of _CHUNK_PIECES pieces, so no copy of the whole report is
# made unless a caller asks for the bytes (emit_report, emit_filter_report).

#: Pieces per chunk of a report: about 0.6 MB of a JSON prove report and 0.13
#: MB (about 683 records) of a filter report, as fast to write as 1,024 or 4,096.
_CHUNK_PIECES = 2048

_json_str = json.encoder.encode_basestring_ascii


def _fraction_text(value: object) -> str:
    """A Fraction as the string "p/q"; any other non-JSON value is refused."""
    if isinstance(value, Fraction):
        return format_rational(value)
    raise TypeError(f"unexpected report value {value!r}")


#: Report values are trees built here, so the cycle check is skipped.
_ENCODER = json.JSONEncoder(indent=2, default=_fraction_text, check_circular=False)


def _json_block(value: object, indent: str = "") -> str:
    """JSON text of ``value`` as json.dumps(indent=2) writes it when the
    value's first line sits at ``indent``."""
    return _ENCODER.encode(value).replace("\n", "\n" + indent)


def _item_tail(value: object, slot: str) -> list[bytes]:
    """The fields of ``value``, an item of a report's top-level array, after a
    head that holds its "{": led by "," and followed by ",\\n    ", as bytes
    split where the string ``slot`` ("\\x00" and a name) stands in ``value``."""
    text = "," + _json_block(value, "    ")[1:] + ",\n    "
    return text.encode().split(_json_str(slot).encode())


def _chunks(parts: list[bytes]) -> Iterator[bytes]:
    """``parts`` joined _CHUNK_PIECES at a time (the last chunk fewer)."""
    for start in range(0, len(parts), _CHUNK_PIECES):
        yield b"".join(parts[start:start + _CHUNK_PIECES])


def _json_chunks(fields: dict[str, object], rows_key: str) -> Iterator[bytes]:
    """``json.dumps(fields, indent=2) + "\\n"`` as bytes in _chunks, for a
    nonempty ``fields``.  ``fields[rows_key]`` is a list of ASCII bytes pieces
    that go in as they are: the array's items in one or more pieces, indented
    for that place, each item followed by ",\\n    " (dropped after the last)."""
    parts = [b"{\n  "]
    for key, value in fields.items():
        parts.append(f"{_json_str(key)}: ".encode())
        if key == rows_key and value:
            parts.append(b"[\n    ")
            parts += value
            parts[-1] = parts[-1].removesuffix(b",\n    ")
            parts.append(b"\n  ]")
        else:
            parts.append(_json_block(value, "  ").encode())
        parts.append(b",\n  ")
    parts[-1] = b"\n}\n"
    return _chunks(parts)


def _md_row(cells: Iterable[object]) -> str:
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


#: The header lines of a csv and a markdown certificate report, in the column
#: order of the rows that _cert_rows writes.
_CERT_CSV_HEAD = (
    "b2,b3,prime,t,branch,chi_top_X,c4_W,delta,lambda_roots,m,k,version,input_digest\n"
)
_CERT_MD_HEAD = (
    "| b2 | b3 | prime | t | branch | chi_top_X | c4_W | delta | lambda_roots | m | k |\n"
    "|---:|---:|------:|--:|--------|----------:|-----:|------:|--------------|--:|--:|\n"
)


def _table_tail(
    no_roots: str, row: Callable[[list[str]], str],
    branch: Branch, details: dict[str, object], hypotheses: object,
) -> list[bytes]:
    """The tail of a csv or markdown certificate: ``row`` of the cells after
    t, in the column order of _CERT_CSV_HEAD.  ``no_roots`` fills the
    lambda_roots cell of a Table1Exclusion certificate with an empty root set."""
    exclusion = branch is Branch.TABLE1_EXCLUSION
    roots = ";".join(format_rational(r) for r in details.get("lambda_roots", ()))
    cells = [
        branch.value, str(details["chi_top_X"]),
        str(details["c4_W"]) if exclusion else "",
        format_rational(details["delta"]) if exclusion else "",
        roots or (no_roots if exclusion else ""),
        str(details["m"]), str(details["k"]),
    ]
    return [row(cells).encode()]


#: One certificate, an item of the report's "certificates" array: the head
#: (the candidate), the prime and t, and the tail (branch, details and
#: hypotheses).  The tail is the same for every certificate of a (candidate,
#: prime), except for the betti_W of an AffineBetti, which the tail holds as
#: _BETTI_W_SLOT and is split at; _BETTI_W_JSON fills in its value at each t.
_CERT_HEAD_JSON = b'{\n      "candidate": [\n        %d,\n        %d\n      ],\n'
_PRIME_T_JSON = b'      "prime": %d,\n      "t": %d'
_BETTI_W_SLOT = "\x00betti_W"
_BETTI_W_JSON = b"[" + b",".join([b"\n          %d"] * 9) + b"\n        ]"  # b0..b8
_CHI_X_SLOT = "\x00chi_top_X"


def _json_tail(
    shapes: dict[tuple[int, ...], list[bytes]],
    branch: Branch, details: dict[str, object], hypotheses: tuple[str, ...],
) -> list[bytes]:
    """The tail of a JSON certificate, split at betti_W when that is an
    AffineBetti.  ``shapes`` holds it once per branch, hypotheses and details
    with an int chi_top_X and an AffineBetti betti_W as slots, keyed on the ids
    of those objects (the report's runs keep them alive, and 1, True and
    Fraction(1) stay apart); chi_top_X is filled in here, as %d writes it."""
    chi = details.get("chi_top_X")
    shown = {**details, "chi_top_X": _CHI_X_SLOT} if type(chi) is int else dict(details)
    if isinstance(details.get("betti_W"), AffineBetti):
        shown["betti_W"] = _BETTI_W_SLOT
    key = (id(branch), id(hypotheses), *map(id, shown), *map(id, shown.values()))
    if key not in shapes:
        tail = {"branch": branch.value, "details": shown, "hypotheses": hypotheses}
        shapes[key] = _item_tail(tail, _BETTI_W_SLOT)
    if type(chi) is not int:
        return shapes[key]
    return [p.replace(_json_str(_CHI_X_SLOT).encode(), b"%d" % chi) for p in shapes[key]]


def _cert_rows(
    groups: Iterable[_Group], head: bytes, prime_t: bytes,
    render_tail: Callable[[Branch, dict[str, object], tuple[str, ...]], list[bytes]],
) -> list[bytes]:
    """The rows of every report format, one block per group: each certificate
    is ``head`` filled with the candidate, ``prime_t`` filled with (prime, t),
    and the tail of the prime's details, split around b(W) at t if in two.
    The block less its heads and b(W) texts is a _template, built once per
    (branch, hypotheses, primes, ts, details) objects, keyed on ids: the
    groups keep them alive.  One slice assignment fills in the heads."""
    templates: dict[tuple, tuple[list[bytes], int, list[list[int]]]] = {}
    texts: dict[tuple[int, range], list[bytes]] = {}  # of prime_t, per (prime, ts)
    rows: list[bytes] = []
    for g in groups:
        key = (id(g.branch), id(g.hypotheses), g.primes, g.ts, *map(id, g.details))
        if key not in templates:
            templates[key] = _template(g, prime_t, render_tail, texts)
        pieces, step, steps = templates[key]
        start = len(rows)
        rows += pieces
        rows[start::step] = [head % g.candidate] * (len(pieces) // step)
        if steps:  # b(W) = b(X) + slope*t, column by column
            columns = [map(b.__add__, column) for b, column in zip(g.base, steps)]
            rows[start + 3::step] = map(_BETTI_W_JSON.__mod__, zip(*columns))
    return rows


def _template(
    g: _Group, prime_t: bytes,
    render_tail: Callable[[Branch, dict[str, object], tuple[str, ...]], list[bytes]],
    texts: dict[tuple[int, range], list[bytes]],
) -> tuple[list[bytes], int, list[list[int]]]:
    """The block of ``g`` with b"" for each head and b(W) text (see _cert_rows),
    with primes in increasing order; the pieces per certificate; and, when the
    tails are split around b(W), each column of slope*t in block order (else
    no column)."""
    pieces: list[bytes] = []
    slopes: list[tuple[int, ...]] = []
    for p, details in sorted(zip(g.primes, g.details), key=itemgetter(0)):
        cert = [b"", b"", *render_tail(g.branch, details, g.hypotheses)]
        if len(cert) == 4:  # a tail split around b(W)
            cert.insert(3, b"")
            slopes.append(details["betti_W"].slope)
        if (p, g.ts) not in texts:
            texts[p, g.ts] = [prime_t % (p, t) for t in g.ts]
        run = cert * len(g.ts)
        run[1::len(cert)] = texts[p, g.ts]
        pieces += run
    steps = [[x * t for x in column for t in g.ts] for column in zip(*slopes)]
    return pieces, len(cert), steps


def report_chunks(
    certs: Certificates, fmt: str = "json", *, input_digest: str = ""
) -> Iterator[bytes]:
    """Serialize the certificates of a prove call deterministically, as
    chunks of bytes whose concatenation is the report.

    Certificates are sorted by (b2, b3, prime, t) by sorting the groups on
    (candidate, primes, first t) and each group's primes in _template;
    rationals are rendered as `p/q` strings; the tool version and the
    input-file digest are embedded.  Identical inputs produce byte-identical
    output.  _cert_rows writes the rows of every format here, so an
    unsupported ``fmt`` raises ValueError before any row, and so does a csv
    ``input_digest`` holding `,`, `"`, "\\r" or "\\n" (csv cells are never
    quoted); the chunks are joined as they are consumed.
    """
    groups = sorted(certs._groups, key=lambda g: (g.candidate, g.primes, g.ts.start))
    if fmt == "json":
        payload = {
            "version": __version__,
            "input_digest": input_digest,
            "branch_counts": certs.branch_counts(),
            "certificates": _cert_rows(
                groups, _CERT_HEAD_JSON, _PRIME_T_JSON, partial(_json_tail, {})
            ),
        }
        return _json_chunks(payload, "certificates")
    if fmt == "csv":
        if any(c in input_digest for c in ',"\r\n'):
            raise ValueError(f"csv cannot hold the input digest {input_digest!r}")
        header = _CERT_CSV_HEAD
        end = f",{__version__},{input_digest}\n"
        tail = partial(_table_tail, "", lambda cells: "," + ",".join(cells) + end)
        rows = _cert_rows(groups, b"%d,%d,", b"%d,%d", tail)
    elif fmt == "md":
        counts = certs.branch_counts()
        header = (
            "# Contradiction certificates\n\n"
            f"- version: {__version__}\n"
            f"- input digest: {input_digest}\n"
            f"- certificates: {len(certs)} ("
            + ", ".join(f"{name}: {count}" for name, count in sorted(counts.items()))
            + ")\n\n"
            + _CERT_MD_HEAD
        )
        tail = partial(_table_tail, "none", lambda cells: " " + _md_row(cells) + "\n")
        rows = _cert_rows(groups, b"| %d | %d | ", b"%d | %d", tail)
    else:
        raise ValueError(f"unsupported format: {fmt!r}")
    rows.insert(0, header.encode())
    return _chunks(rows)


def emit_report(
    certs: Certificates, fmt: str = "json", *, input_digest: str = ""
) -> bytes:
    """The report of report_chunks as one bytes object."""
    return b"".join(report_chunks(certs, fmt, input_digest=input_digest))


def table1(candidates: CandidateFile, fmt: str = "md") -> str:
    """Render the accepted candidates as a md, csv or json table (columns
    No., c2sq, c4, b2, b3) sorted by decreasing b2 then decreasing b3."""
    b2s, b3s = candidates.b2s, candidates.b3s
    records = zip(b2s, b3s, _per_c4(b2s, b3s, lambda r: r))
    accepted = [(b2, b3, r.chern) for b2, b3, r in records if r.accepted]
    accepted.sort(reverse=True)  # by (-b2, -b3), since the pairs are distinct
    rows = [
        (no, chern.c2sq, chern.c4, b2, b3)
        for no, (b2, b3, chern) in enumerate(accepted, start=1)
    ]
    if fmt == "md":
        head = "| No. | c2sq | c4 | b2 | b3 |\n|----:|-----:|---:|---:|---:|\n"
        return head + "".join(_md_row(row) + "\n" for row in rows)
    if fmt == "csv":
        return "no,c2sq,c4,b2,b3\n" + "".join("%d,%d,%d,%d,%d\n" % row for row in rows)
    if fmt == "json":
        keys = ("no", "c2sq", "c4", "b2", "b3")
        return _json_block([dict(zip(keys, row)) for row in rows]) + "\n"
    raise ValueError(f"unsupported format: {fmt!r}")


def _per_c4(
    b2s: Sequence[int], b3s: Sequence[int], derive: Callable[[CandidateRecord], _T]
) -> Iterator[_T]:
    """``derive(record)`` for each pair of the columns, in order.  A record past
    b2 and b3 is a function of c4 alone, so evaluate_candidate and ``derive``
    run once per distinct c4, on its first pair, and pairs with that c4 share it."""
    c4s = list(map(c4_from_betti, b2s, b3s))
    firsts: dict[int, int] = {}  # the index of the first pair of each c4
    deque(map(firsts.setdefault, c4s, range(len(c4s))), maxlen=0)
    memo = {c4: derive(evaluate_candidate(b2s[i], b3s[i])) for c4, i in firsts.items()}
    return map(memo.__getitem__, c4s)


#: The head of one filter record, an item of the report's "records" array,
#: filled with b2; b3's text and _record_tail write the rest.  b2 and b3 are
#: the ints the parser read, so %d writes them as JSON.
_RECORD_HEAD_JSON = b'{\n      "b2": %d,\n      "b3": '
_NUMBER_SLOT = "\x00number"


def _record_tail(shapes: dict[tuple, list[bytes]], r: CandidateRecord) -> bytes:
    """A filter record after b2 and b3 (see _item_tail).  ``shapes`` holds it
    once per shape (delta_sqrt None or not, the number of roots, accepted),
    with a slot for each number, which is filled with r's numbers here."""
    roots, slot = sorted(r.lambda_roots), _NUMBER_SLOT
    shape = (r.delta_sqrt is None, len(roots), r.accepted)
    if shape not in shapes:
        shapes[shape] = _item_tail({
            "c2sq": slot, "c4": slot, "delta": slot,
            "delta_sqrt": None if r.delta_sqrt is None else slot,
            "lambda_roots": [slot] * len(roots), "accepted": r.accepted,
        }, slot)
    numbers = [b"%d" % r.chern.c2sq, b"%d" % r.chern.c4] + [
        _json_str(format_rational(x)).encode()
        for x in (r.delta, r.delta_sqrt, *roots) if x is not None
    ]
    pieces = shapes[shape]
    return b"".join(chain.from_iterable(zip(pieces, numbers))) + pieces[-1]


def filter_report_chunks(candidates: CandidateFile) -> Iterator[bytes]:
    """Full per-candidate filter outcomes, valid and flagged rows alike, as
    chunks of bytes whose concatenation is the report.  Each record is three
    shared pieces: the head of its b2, the text of its b3, and the tail of its
    c4, so no bytes object is built per record."""
    b2s, b3s = candidates.b2s, candidates.b3s
    heads = {b2: _RECORD_HEAD_JSON % b2 for b2 in set(b2s)}
    b3_texts = {b3: b"%d" % b3 for b3 in set(b3s)}
    records: list[bytes] = [b""] * (3 * len(b2s))
    records[::3] = map(heads.__getitem__, b2s)
    records[1::3] = map(b3_texts.__getitem__, b3s)
    records[2::3] = _per_c4(b2s, b3s, partial(_record_tail, {}))
    payload = {
        "version": __version__,
        "input_digest": candidates.digest,
        "note": (
            "accepted flags below are computed for the supplied candidate "
            "list by this tool; they are not an externally attested table"
        ),
        "records": records,
        "invalid_rows": [row._asdict() for row in candidates.flagged],
    }
    return _json_chunks(payload, "records")


def emit_filter_report(candidates: CandidateFile) -> bytes:
    """The report of filter_report_chunks as one bytes object."""
    return b"".join(filter_report_chunks(candidates))
