"""The contradiction pipeline and its certificate report.

Candidate ingestion, the filter report, table1 and the JSON helpers of every
report live in ``candidates``, which the ``filter`` and ``table1`` commands
import without this module; their names are re-exported here, so
``hk4verify.pipeline.parse_candidates`` and the rest stay importable.

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

import sys
from enum import Enum
from functools import partial
from itertools import chain
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ._version import __version__
from .candidates import (  # re-exported: the supported hk4verify.pipeline names
    DEFAULT_PRIMES,
    DEFAULT_T_MAX,
    TABLE1_FIXTURE,
    CandidateFile,
    CandidateFormatError,
    CandidateRow,
    VerificationError,
    _chunks,
    _item_tail,
    _json_chunks,
    _json_str,
    _md_row,
    builtin_candidates,
    emit_filter_report,
    filter_report_chunks,
    load_candidates,
    parse_candidates,
    table1,
)
from .exact import Poly, format_rational
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
from .riemann_roch import admits_zero_chi, zero_chi
from .topology import (
    BettiTable,
    admissible_b4,
    betti_from_pair,
    betti_numbers,
    c4_from_betti,
    euler_characteristic,
    salamon_defect,
)


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
# The certificate report

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

