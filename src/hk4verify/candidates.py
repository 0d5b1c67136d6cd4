"""Candidate ingestion, the Riemann-Roch filter report and table1, and the
JSON helpers that every report shares.

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

The filter and table1
---------------------
Past b2 and b3, a pair's filter outcome is a function of c4 alone
(riemann_roch.filter_c4), so both evaluate each distinct c4 once and the
pairs with that c4 share the result.

The ``filter`` and ``table1`` commands import this module and not
``pipeline``, which holds the sweep and the certificate writer and
re-exports the names defined here.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import add, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from ._version import __version__
from .exact import ASCII_DIGITS, BLANKS, INT, PAD, format_rational
from .riemann_roch import filter_c4
from .topology import InadmissiblePairError, admissible_b4, c4_from_betti

_T = TypeVar("_T")

# The defaults of prove and the error of a failed check, here so that the
# command line reads them without importing the sweep.
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
    # forces on (b2, b3) is admissible_b4(b2, 0) - b3, so a pair forces a
    # negative b4 exactly when the least of these is negative; _read_rows
    # flags that pair with admissible_b4's message.
    try:
        top = max(b2s)
        for b3 in set(b3s):
            admissible_b4(top, b3)
        base = {b2: admissible_b4(b2, 0) for b2 in set(b2s)}
    except InadmissiblePairError:
        return None
    if min(map(sub, map(base.__getitem__, b2s), b3s)) < 0:
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


def table1(candidates: CandidateFile, fmt: str = "md") -> str:
    """Render the accepted candidates as a md, csv or json table (columns
    No., c2sq, c4, b2, b3) sorted by decreasing b2 then decreasing b3."""
    b2s, b3s = candidates.b2s, candidates.b3s
    # filter_c4's values are (chern, ..., accepted): the Chern data of an accepted c4
    cherns = _per_c4(b2s, b3s, lambda values: values[0] if values[-1] else None)
    accepted = [(b2, b3, chern) for b2, b3, chern in zip(b2s, b3s, cherns) if chern]
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
    b2s: Sequence[int], b3s: Sequence[int], derive: Callable[[tuple], _T]
) -> Iterator[_T]:
    """``derive(filter_c4(c4))`` for the c4 of each pair of the columns, in
    order; filter_c4 and ``derive`` run once per distinct c4.  c4 is affine in
    (b2, b3), so it is c4_from_betti(b2, 0) + c4_from_betti(0, b3) - c4 at
    (0, 0), read off dicts keyed on the distinct b2 and b3."""
    at_b2 = {b2: c4_from_betti(b2, 0) for b2 in set(b2s)}
    at_b3 = {b3: c4_from_betti(0, b3) - c4_from_betti(0, 0) for b3 in set(b3s)}
    c4s = list(map(add, map(at_b2.__getitem__, b2s), map(at_b3.__getitem__, b3s)))
    memo = {c4: derive(filter_c4(c4)) for c4 in set(c4s)}
    return map(memo.__getitem__, c4s)


#: The head of one filter record, an item of the report's "records" array,
#: filled with b2; b3's text and _record_tail write the rest.  b2 and b3 are
#: the ints the parser read, so %d writes them as JSON.
_RECORD_HEAD_JSON = b'{\n      "b2": %d,\n      "b3": '
_NUMBER_SLOT = "\x00number"


def _record_tail(shapes: dict[tuple, list[bytes]], values: tuple) -> bytes:
    """A filter record after b2 and b3 (see _item_tail).  ``shapes`` holds it
    once per shape (delta_sqrt None or not, the number of roots, accepted),
    with a slot for each number, which is filled with the numbers of
    ``values`` here."""
    chern, delta, delta_sqrt, roots, accepted = values
    roots, slot = sorted(roots), _NUMBER_SLOT
    shape = (delta_sqrt is None, len(roots), accepted)
    if shape not in shapes:
        shapes[shape] = _item_tail({
            "c2sq": slot, "c4": slot, "delta": slot,
            "delta_sqrt": None if delta_sqrt is None else slot,
            "lambda_roots": [slot] * len(roots), "accepted": accepted,
        }, slot)
    numbers = [b"%d" % chern.c2sq, b"%d" % chern.c4] + [
        _json_str(format_rational(x)).encode()
        for x in (delta, delta_sqrt, *roots) if x is not None
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
