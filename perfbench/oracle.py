"""Independent verdict oracle for hk4verify reports.

Shares no code with hk4verify: every expected value is derived here from
(b2, b3) with the closed forms

    c4     = 48 + 12*b2 - 3*b3
    delta  = ((c4 - 1728)^2 - 1296^2) / 864^2

A candidate is accepted by the filter exactly when that numerator is a
non-negative perfect square and c4 != 3024 (where chi is the constant 3).
For prove, every (candidate, prime, t) triple of the default grid must carry
a certificate whose branch is LefschetzMismatch when c4 != 0 and
Table1Exclusion when c4 = 0, in (b2, b3, prime, t) order.

Each check returns a list of problems; an empty list means the report agrees.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

PRIMES = (2, 3, 5, 7, 11, 13)
T_MAX = 20
LEFSCHETZ = "LefschetzMismatch"
EXCLUSION = "Table1Exclusion"
MAX_PROBLEMS = 20

_WS = json.decoder.WHITESPACE


def c4_of(b2: int, b3: int) -> int:
    return 48 + 12 * b2 - 3 * b3


def c2sq_of(b2: int, b3: int) -> int:
    return 736 + 4 * b2 - b3


def delta_numerator(c4: int) -> int:
    return (c4 - 1728) ** 2 - 1296**2


def delta_of(c4: int) -> Fraction:
    return Fraction(delta_numerator(c4), 864**2)


def is_accepted(c4: int) -> bool:
    n = delta_numerator(c4)
    return n >= 0 and math.isqrt(n) ** 2 == n and c4 != 3024


def lambda_roots(c4: int) -> list[Fraction]:
    """Rational roots of 3 + (7/2 - c4/864) x + (7/8 - c4/3456) x^2, sorted."""
    if not is_accepted(c4):
        return []
    a = Fraction(7, 8) - Fraction(c4, 3456)
    b = Fraction(7, 2) - Fraction(c4, 864)
    root = Fraction(math.isqrt(delta_numerator(c4)), 864)
    return sorted({(-b + root) / (2 * a), (-b - root) / (2 * a)})


def fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def expected_branch(b2: int, b3: int) -> str:
    return EXCLUSION if c4_of(b2, b3) == 0 else LEFSCHETZ


def expected_branch_counts(pairs) -> dict[str, int]:
    per_pair = len(PRIMES) * (T_MAX + 1)
    counts = {LEFSCHETZ: 0, EXCLUSION: 0}
    for b2, b3 in pairs:
        counts[expected_branch(b2, b3)] += per_pair
    return counts


def sha256_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def sha256_file(path, chunk: int = 1 << 22) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(chunk):
            h.update(block)
    return "sha256:" + h.hexdigest()


class _Problems(list):
    def add(self, message: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(message)
        elif len(self) == MAX_PROBLEMS:
            self.append("... further problems suppressed")


class _Sweep:
    """Order and coverage check over a stream of (b2, b3, prime, t) keys."""

    def __init__(self, pairs, problems: _Problems) -> None:
        self.pairs = set(pairs)
        self.problems = problems
        self.last: tuple[int, int, int, int] | None = None
        self.seen = 0
        self.counts = {LEFSCHETZ: 0, EXCLUSION: 0}

    def visit(self, key: tuple[int, int, int, int], branch: str) -> bool:
        """Record one certificate; False when its key is not a grid triple."""
        b2, b3, p, t = key
        if self.last is not None and key <= self.last:
            self.problems.add(f"certificate {key} out of order after {self.last}")
        self.last = key
        if (b2, b3) not in self.pairs or p not in PRIMES or not 0 <= t <= T_MAX:
            self.problems.add(f"certificate {key} is not a triple of the input grid")
            return False
        self.seen += 1
        if branch in self.counts:
            self.counts[branch] += 1
        if branch != expected_branch(b2, b3):
            self.problems.add(
                f"certificate {key}: branch {branch}, expected {expected_branch(b2, b3)}"
            )
        return True

    def finish(self, reported_counts) -> None:
        expected = expected_branch_counts(self.pairs)
        total = len(self.pairs) * len(PRIMES) * (T_MAX + 1)
        if self.seen != total:
            self.problems.add(f"{self.seen} certificates, expected {total}")
        if self.counts != expected:
            self.problems.add(f"certificate branches {self.counts}, expected {expected}")
        if reported_counts != expected:
            self.problems.add(f"reported branch counts {reported_counts}, expected {expected}")


def _check_details(key, branch: str, details: dict, problems: _Problems) -> None:
    b2, b3 = key[0], key[1]
    if details.get("chi_top_X") != c4_of(b2, b3):
        problems.add(f"certificate {key}: chi_top_X {details.get('chi_top_X')}")
    if details.get("m") != 0 or details.get("k") != 0:
        problems.add(f"certificate {key}: m, k = {details.get('m')}, {details.get('k')}")
    if branch == EXCLUSION:
        want = {
            "c4_W": 0,
            "delta": fmt(delta_of(0)),
            "delta_sqrt": None,
            "lambda_roots": [fmt(r) for r in lambda_roots(0)],
        }
        got = {name: details.get(name) for name in want}
        if got != want:
            problems.add(f"certificate {key}: exclusion details {got}, expected {want}")


def _iter_json_object(text: str, streamed: str):
    """Yield (key, value) pairs of the top-level JSON object in ``text``.

    The array under key ``streamed`` is not materialised: it is yielded as a
    generator of its elements, which must be consumed before the next pair.
    This keeps a 200+ MB report from becoming a gigabyte of Python objects.
    """
    decoder = json.JSONDecoder()

    def skip(i: int) -> int:
        return _WS.match(text, i).end()

    def expect(i: int, char: str) -> int:
        if text[i] != char:
            raise ValueError(f"expected {char!r} at offset {i}, got {text[i]!r}")
        return skip(i + 1)

    pos = [expect(skip(0), "{")]

    def elements():
        i = expect(pos[0], "[")
        while text[i] != "]":
            value, i = decoder.raw_decode(text, i)
            yield value
            i = skip(i)
            if text[i] == ",":
                i = skip(i + 1)
        pos[0] = skip(i + 1)

    while text[pos[0]] != "}":
        key, i = decoder.raw_decode(text, pos[0])
        pos[0] = expect(skip(i), ":")
        if key == streamed:
            yield key, elements()
        else:
            value, i = decoder.raw_decode(text, pos[0])
            pos[0] = skip(i)
            yield key, value
        if text[pos[0]] == ",":
            pos[0] = skip(pos[0] + 1)
    if skip(pos[0] + 1) != len(text):
        raise ValueError("trailing data after the top-level object")


def check_prove_json(text: str, pairs, input_digest: str) -> list[str]:
    problems = _Problems()
    sweep = _Sweep(pairs, problems)
    fields: dict[str, object] = {}
    try:
        for key, value in _iter_json_object(text, "certificates"):
            if key != "certificates":
                fields[key] = value
                continue
            for cert in value:
                cand = cert["candidate"]
                triple = (cand[0], cand[1], cert["prime"], cert["t"])
                if sweep.visit(triple, cert["branch"]):
                    _check_details(triple, cert["branch"], cert["details"], problems)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.add(f"malformed JSON report: {exc!r}")
        return problems
    if fields.get("input_digest") != input_digest:
        problems.add(f"input_digest {fields.get('input_digest')}, expected {input_digest}")
    sweep.finish(fields.get("branch_counts"))
    return problems


_MD_COLUMNS = ("b2", "b3", "prime", "t", "branch", "chi_top_X", "c4_W", "delta",
               "lambda_roots", "m", "k")


def check_prove_md(text: str, pairs, input_digest: str) -> list[str]:
    problems = _Problems()
    sweep = _Sweep(pairs, problems)
    reported = None
    digest_line = f"- input digest: {input_digest}"
    if digest_line not in text.splitlines():
        problems.add(f"missing line {digest_line!r}")
    exclusion_cells = {
        "chi_top_X": "0",
        "c4_W": "0",
        "delta": fmt(delta_of(0)),
        "lambda_roots": ";".join(fmt(r) for r in lambda_roots(0)) or "none",
    }
    for line in text.splitlines():
        if line.startswith("- certificates:") and "(" in line:
            inner = line[line.index("(") + 1 : line.rindex(")")]
            reported = {}
            for part in inner.split(","):
                name, _, count = part.partition(":")
                reported[name.strip()] = int(count)
            continue
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not cells[0].lstrip("-").isdigit():
            continue  # header or alignment row
        if len(cells) != len(_MD_COLUMNS):
            problems.add(f"row with {len(cells)} cells: {line!r}")
            continue
        row = dict(zip(_MD_COLUMNS, cells))
        try:
            triple = (int(row["b2"]), int(row["b3"]), int(row["prime"]), int(row["t"]))
        except ValueError:
            problems.add(f"non-integer key in row {line!r}")
            continue
        if not sweep.visit(triple, row["branch"]):
            continue
        if row["m"] != "0" or row["k"] != "0":
            problems.add(f"certificate {triple}: m, k = {row['m']}, {row['k']}")
        if row["branch"] == EXCLUSION:
            want = exclusion_cells
        else:
            want = {"chi_top_X": str(c4_of(*triple[:2])), "c4_W": "", "delta": "",
                    "lambda_roots": ""}
        got = {name: row[name] for name in want}
        if got != want:
            problems.add(f"certificate {triple}: cells {got}, expected {want}")
    sweep.finish(reported)
    return problems


def check_filter_json(text: str, pairs, input_digest: str) -> list[str]:
    problems = _Problems()
    try:
        report = json.loads(text)
        records = report["records"]
    except (ValueError, KeyError, TypeError) as exc:
        problems.add(f"malformed filter report: {exc!r}")
        return problems
    if report.get("input_digest") != input_digest:
        problems.add(f"input_digest {report.get('input_digest')}, expected {input_digest}")
    if report.get("invalid_rows") != []:
        problems.add(f"invalid_rows {report.get('invalid_rows')!r}, expected none")
    expected = set(pairs)
    seen: set[tuple[int, int]] = set()
    accepted = 0
    for rec in records:
        try:
            pair = (rec["b2"], rec["b3"])
            c4 = c4_of(*pair)
            if pair not in expected or pair in seen:
                problems.add(f"record {pair} is not a distinct input pair")
                continue
            seen.add(pair)
            d = delta_of(c4)
            ok = is_accepted(c4)
            accepted += ok
            root = Fraction(math.isqrt(delta_numerator(c4)), 864) if ok else None
            want = {
                "c2sq": c2sq_of(*pair),
                "c4": c4,
                "delta": fmt(d),
                "accepted": ok,
                "lambda_roots": [fmt(r) for r in lambda_roots(c4)],
            }
            got = {name: rec[name] for name in want}
            if got != want:
                problems.add(f"record {pair}: {got}, expected {want}")
            sqrt = rec["delta_sqrt"]
            if ok and sqrt != fmt(root):
                problems.add(f"record {pair}: delta_sqrt {sqrt}, expected {fmt(root)}")
            if sqrt is not None and Fraction(sqrt) ** 2 != d:
                problems.add(f"record {pair}: delta_sqrt {sqrt} does not square to delta")
        except (KeyError, TypeError, ValueError) as exc:
            problems.add(f"malformed record {rec!r}: {exc!r}")
    if seen != expected:
        problems.add(f"{len(expected - seen)} input pairs have no record")
    return problems


CHECKS = {"json": check_prove_json, "md": check_prove_md, "filter": check_filter_json}


def check_report(fmt_name: str, text: str, pairs, input_digest: str) -> list[str]:
    """Problems found in a report of format ``json``, ``md`` or ``filter``."""
    return CHECKS[fmt_name](text, pairs, input_digest)
