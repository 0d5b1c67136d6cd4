import hashlib
import json
import re
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hk4verify import candidates, pipeline, quotient, riemann_roch
from hk4verify._version import __version__
from hk4verify.pipeline import (
    Branch,
    CandidateFormatError,
    CertificateRun,
    Certificates,
    DEFAULT_PRIMES,
    DEFAULT_T_MAX,
    VerificationError,
    builtin_candidates,
    emit_filter_report,
    emit_report,
    load_candidates,
    parse_candidates,
    prove,
    report_chunks,
    table1,
    verify_certificate,
)
from hk4verify.exact import format_rational
from hk4verify.riemann_roch import filter_candidates
from hk4verify.quotient import FixedLocusProfile, transport_betti
from hk4verify.topology import (
    InadmissiblePairError,
    TORUS2_BETTI,
    betti_from_pair,
    c4_from_betti,
    chern_from_betti,
)
from oracles import ReferenceFormatError, read_rows_by_tokens

FOUR_PAIRS = "b2,b3\n23,0\n7,8\n6,4\n5,0\n"


# ---------------------------------------------------------------------------
# Candidate ingestion

def test_parse_four_pairs():
    cf = parse_candidates(FOUR_PAIRS)
    assert cf.valid_pairs() == [(23, 0), (7, 8), (6, 4), (5, 0)]
    assert cf.invalid_rows() == []


def test_parse_flags_inadmissible_rows():
    cf = parse_candidates("b2,b3\n0,48\n23,0\n")
    assert cf.valid_pairs() == [(23, 0)]
    (bad,) = cf.invalid_rows()
    assert (bad.b2, bad.b3) == (0, 48)
    assert "b4" in bad.error


def test_parse_flags_odd_b3_and_negative():
    cf = parse_candidates("b2,b3\n5,3\n-1,0\n7,8\n")
    assert cf.valid_pairs() == [(7, 8)]
    assert len(cf.invalid_rows()) == 2


def test_parse_flags_duplicates():
    cf = parse_candidates("b2,b3\n23,0\n7,8\n23,0\n")
    assert cf.valid_pairs() == [(23, 0), (7, 8)]
    (dup,) = cf.invalid_rows()
    assert dup.line == 4
    assert "duplicate of line 2" in dup.error


def test_parse_errors_match_betti_from_pair():
    cf = parse_candidates("b2,b3\n5,3\n0,48\n-1,0\n23,0\n5,3\n23,0\n")
    errors = {row.line: row.error for row in cf.invalid_rows()}
    for line, pair in ((2, (5, 3)), (3, (0, 48)), (4, (-1, 0))):
        with pytest.raises(InadmissiblePairError) as exc:
            betti_from_pair(*pair)
        assert errors[line] == str(exc.value)
    assert errors[6] == "duplicate of line 2"
    assert errors[7] == "duplicate of line 5"
    assert cf.valid_pairs() == [(23, 0)]


def test_parse_empty_data_section():
    cf = parse_candidates("# nothing here yet\nb2,b3\n")
    assert cf.rows == ()
    assert cf.provenance == "nothing here yet"


def test_parse_comments_blank_lines_crlf():
    text = "# source: transcription\r\n# second line\r\nb2,b3\r\n\r\n23,0\r\n# inline note\r\n7,8\r\n"
    cf = parse_candidates(text)
    assert cf.valid_pairs() == [(23, 0), (7, 8)]
    assert cf.provenance == "source: transcription\nsecond line"


def test_parse_splits_lines_on_lf_only():
    # \x0c (and the other splitlines() boundaries) is not a line break, so
    # the row below is malformed instead of two rows with shifted numbers
    with pytest.raises(CandidateFormatError, match=r":2: expected two"):
        parse_candidates("b2,b3\n4,32\x0c5,0\n4,32\n")


def test_parse_strips_only_spaces_tabs_and_crlf():
    cf = parse_candidates("#\tnote \r\n b2 ,\tb3\r\n\t4 , 32 \r\n")
    assert cf.valid_pairs() == [(4, 32)]
    assert cf.provenance == "note"


@pytest.mark.parametrize("ws", ["\x0c", "\x0b", "\x1c", "\x85", "\xa0", "\u2003", "\r"])
@pytest.mark.parametrize("row", ["4,{}32", "{}4,32", "4,32{} ", "4{},32"])
def test_parse_rejects_other_whitespace(row, ws):
    with pytest.raises(CandidateFormatError, match=r":3: "):
        parse_candidates("b2,b3\n23,0\n" + row.format(ws) + "\n")


_blanks = st.text(alphabet=" \t", max_size=2)
_field = st.one_of(
    st.from_regex(r"[+-]?0{0,2}[0-9]{1,2}", fullmatch=True),
    st.sampled_from(["", "-0", "+0", "007", "\u0663", "\uff14", "1_0", "4\x0c", "x"]),
)
_row_like = st.builds(
    lambda a, f1, b, c, f2, d, extra, end: f"{a}{f1}{b},{c}{f2}{d}{extra}{end}",
    _blanks, _field, _blanks, _blanks, _field, _blanks,
    st.sampled_from(["", "", ",", ",5", " , 7"]),
    st.sampled_from(["", "", "\r", "\r\r", " \r", "\r ", "\x0c"]),
)
_pieces = st.lists(
    st.sampled_from([
        " ", "\t", "\r", "\r\r", "+", "-", "-0", "0", "007", "4", "32", ",", "",
        "\x0c", "\x0b", "\xa0", "\u0663", "#", "b2", "x", "_",
    ]),
    max_size=8,
).map("".join)
_line = st.one_of(
    _row_like, _pieces, st.text(st.characters(exclude_characters="\n"), max_size=8)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_line, min_size=1, max_size=5))
@example(["\t+4 , -0 \r", "007,0032\r"])
@example(["4,32", "4,32\r\r"])
@example(["4,32,1"])
@example(["4,"])
@example(["4,\x0c32"])
@example(["\u0663,0"])
@example(["\ud800"])
@example(["# \ud800", "4,32"])
def test_parse_rows_match_token_split_reference(lines):
    text = "b2,b3\n" + "\n".join(lines) + "\n"
    try:
        expected = read_rows_by_tokens(text)
    except ReferenceFormatError as exc:
        with pytest.raises(CandidateFormatError) as err:
            parse_candidates(text)
        assert re.match(r"<memory>:(\d+): ", str(err.value))[1] == str(exc.line)
        return
    rows = parse_candidates(text).rows
    assert [(r.line, r.b2, r.b3, r.error) for r in rows] == expected


def test_parse_rows_match_token_split_reference_at_scale():
    # the hypothesis test above reaches 5 lines; this checks the line of every
    # valid and flagged row over a few thousand, with every kind of flag
    header, *data = _region_text(30).splitlines()
    extras = ["# note", "", " \t", "-1,0", "5,3\r", "0,48", " 0 ,\t48 ", "-2,-4"]
    lines = [header]
    for i, row in enumerate(data):
        if i % 7 == 0:
            row = " {}\t, {} ".format(*row.split(","))
        lines.append(row + "\r" * (i % 11 == 0))
        if i % 97 == 0:
            lines.append(data[i // 2])
        if i % 53 == 0:
            lines.append(extras[i // 53 % len(extras)])
    text = "\n".join(lines) + "\n"
    expected = read_rows_by_tokens(text)
    cf = parse_candidates(text)
    assert [(r.line, r.b2, r.b3, r.error) for r in cf.rows] == expected
    assert len(cf.rows) == len(cf.valid_pairs()) + len(cf.invalid_rows())
    assert cf.valid_pairs() == [(b2, b3) for _, b2, b3, error in expected if not error]
    errors = [(r.b2, r.b3, r.error.split()[0]) for r in cf.invalid_rows()]
    assert {e for _, _, e in errors} == {"Betti", "b3", "Salamon", "duplicate"}
    assert (0, 48, "duplicate") in errors and len(lines) > 3000


_admissible_row = st.integers(0, 30).flatmap(
    lambda b2: st.integers(0, 23 + 5 * b2).map(lambda h: f"{b2},{2 * h}")
)
#: each perturbation of a plain body, and whether the body stays plain
_PERTURBATIONS = {
    "none": (lambda rows, i: None, True),
    "leading zeros": (lambda rows, i: rows.__setitem__(i, "00" + rows[i]), False),
    "duplicate": (lambda rows, i: rows.insert(i + 1, rows[i]), False),
    "odd b3": (lambda rows, i: rows.insert(i, "5,3"), False),
    "negative b4": (lambda rows, i: rows.insert(i, "0,48"), False),
    "comment": (lambda rows, i: rows.insert(i, "# note"), False),
    "blank line": (lambda rows, i: rows.insert(i, ""), False),
    "crlf": (lambda rows, i: rows.__setitem__(i, rows[i] + "\r"), False),
    "plus sign": (lambda rows, i: rows.__setitem__(i, "+" + rows[i]), False),
    "minus sign": (lambda rows, i: rows.__setitem__(i, "-" + rows[i]), False),
    "blank around a field": (lambda rows, i: rows.__setitem__(i, " " + rows[i]), False),
    "over-long field": (
        lambda rows, i: rows.__setitem__(i, "1" * (sys.get_int_max_str_digits() + 1) + ",0"),
        False,
    ),
}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_admissible_row, min_size=1, max_size=12, unique=True),
    st.sampled_from(sorted(_PERTURBATIONS)),
    st.integers(0, 11),
    st.sampled_from(["", "# from a table\n", "# a\n\n#\tb\n"]),
)
def test_plain_body_reads_like_the_token_split_reference(rows, kind, i, preamble):
    # a plain body is read in bulk; any other body, and a plain one with a row
    # to flag, line by line
    perturb, plain = _PERTURBATIONS[kind]
    i %= len(rows)
    perturb(rows, i)
    text = preamble + "b2,b3\n" + "".join(row + "\n" for row in rows)
    calls = []
    read_rows = candidates._read_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(candidates, "_read_rows", lambda *a: calls.append(a) or read_rows(*a))
        if kind == "over-long field":
            line = preamble.count("\n") + 2 + i
            with pytest.raises(CandidateFormatError, match=f"^<memory>:{line}: integer"):
                parse_candidates(text)
            return
        cf = parse_candidates(text)
    expected = read_rows_by_tokens(text)
    valid = [(n, (b2, b3)) for n, b2, b3, error in expected if error is None]
    assert list(cf.pairs) == [pair for _, pair in valid]
    assert list(cf.pair_lines) == [n for n, _ in valid]
    assert [tuple(row) for row in cf.flagged] == [row for row in expected if row[3]]
    assert (not calls) == plain


@settings(max_examples=300, deadline=None)
@given(st.builds(
    lambda lines, tail: "".join(line + "\n" for line in lines) + tail,
    st.lists(st.one_of(
        _admissible_row, _admissible_row,
        st.text(st.sampled_from("0123456789, \t\r+-#"), max_size=6),
    ), max_size=8),
    st.one_of(st.just(""), st.text(st.sampled_from("0123456789,\n \t\r+-#"), max_size=3)),
))
@example("")
@example("0,46\n1,56\n")
@example("0,48\n23,0\n")
@example("01,2\n")
@example("1,2\n34")
@example("5")
@example("0,-0\n")
def test_a_plain_row_is_a_row(body):
    # the bulk reader accepts a body only when it is one or more lines, each a
    # row that _ROW_RE reads, spelled with no blank, sign or leading zero, and
    # an LF, and no row is flagged
    columns = candidates._read_plain_body(body)
    lines = body.split("\n")[:-1]
    matches = [candidates._ROW_RE.fullmatch(line) for line in lines]
    plain = body.endswith("\n") and all(
        match and f"{match[1]},{match[2]}" == line
        and not re.search(r"(^|,)0[0-9]|[+-]", line)
        for match, line in zip(matches, lines)
    )
    if columns is None:
        assert not plain or any(row[3] for row in read_rows_by_tokens("b2,b3\n" + body))
    else:
        assert plain
        assert list(zip(*columns)) == [(int(m[1]), int(m[2])) for m in matches]


def test_plain_body_lines_count_the_preamble():
    text = "# provenance\n\n# more\n b2 , b3 \n" + _region_text(30).removeprefix("b2,b3\n")
    cf = parse_candidates(text)
    assert cf.pair_lines == tuple(range(5, 5 + len(cf.pairs)))
    assert cf.pairs == parse_candidates(_region_text(30)).pairs
    assert (cf.flagged, cf.provenance) == ((), "provenance\nmore")
    # a duplicate in the last line sends the whole body to the per-line reader
    cf = parse_candidates(text + "0,0\n")
    assert (cf.flagged[0].line, cf.flagged[0].error) == (5 + len(cf.pairs), "duplicate of line 5")


@pytest.mark.parametrize(
    ("body", "b2s", "b3s"),
    [
        ("0,46\n1,56\n", (0, 1), (46, 56)),  # b4 = 0
        ("0,2\n1,0\n", (0, 1), (2, 0)),
        ("1,0\n2,4\n3,6\n", (1, 2, 3), (0, 4, 6)),
    ],
)
def test_plain_body_is_read_into_columns(monkeypatch, body, b2s, b3s):
    # each body is read in bulk, without the per-line reader
    read_rows = candidates._read_rows
    monkeypatch.setattr(candidates, "_read_rows", lambda *a: pytest.fail("read per line"))
    cf = parse_candidates("b2,b3\n" + body)
    assert (cf.b2s, cf.b3s, cf.flagged) == (b2s, b3s, ())
    assert cf.pairs == tuple(zip(b2s, b3s)) and cf.pair_lines == tuple(range(2, 2 + len(b2s)))
    # a leading zero on a row sends the body to the per-line reader, which
    # reads the same CandidateFile
    calls = []
    monkeypatch.setattr(candidates, "_read_rows", lambda *a: calls.append(a) or read_rows(*a))
    zeros = parse_candidates("b2,b3\n" + body.replace("\n", "\n0", 1))
    assert len(calls) == 1 and zeros._replace(digest=cf.digest) == cf


def test_parse_header_errors():
    with pytest.raises(CandidateFormatError):
        parse_candidates("23,0\n")
    with pytest.raises(CandidateFormatError):
        parse_candidates("b2;b3\n23,0\n")
    with pytest.raises(CandidateFormatError):
        parse_candidates("# only comments\n")
    with pytest.raises(CandidateFormatError):
        parse_candidates("")


def test_parse_malformed_rows():
    with pytest.raises(CandidateFormatError):
        parse_candidates("b2,b3\n23\n")
    with pytest.raises(CandidateFormatError):
        parse_candidates("b2,b3\n23,0,1\n")
    with pytest.raises(CandidateFormatError):
        parse_candidates("b2,b3\nx,0\n")
    with pytest.raises(CandidateFormatError):
        parse_candidates("b2,b3\n1.5,0\n")
    with pytest.raises(CandidateFormatError):
        parse_candidates("b2,b3\n1_0,0\n")


def test_load_candidates_digest_and_path(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_bytes(FOUR_PAIRS.encode())
    cf = load_candidates(path)
    assert cf.path == str(path)
    expected = "sha256:" + hashlib.sha256(FOUR_PAIRS.encode()).hexdigest()
    assert cf.digest == expected


def test_load_candidates_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_candidates(tmp_path / "absent.csv")


def test_builtin_candidates():
    cf = builtin_candidates()
    assert cf.valid_pairs() == [(23, 0), (7, 8), (6, 4), (5, 0)]
    assert cf.digest.startswith("sha256:")


def test_shipped_data_files():
    # the fixture file holds the built-in pairs, and the template holds no row
    data = Path(__file__).resolve().parents[1] / "data"
    assert load_candidates(data / "table1_pairs.csv").pairs == builtin_candidates().pairs
    template = load_candidates(data / "guan_pairs_template.csv")
    assert (template.pairs, template.flagged) == ((), ())


# ---------------------------------------------------------------------------
# prove

def test_prove_default_sweep_counts_and_branches():
    certs = prove(builtin_candidates(), DEFAULT_PRIMES, DEFAULT_T_MAX)
    assert len(certs) == 4 * 6 * 21
    assert {c.branch for c in certs} == {Branch.LEFSCHETZ_MISMATCH}
    for cert in certs:
        verify_certificate(cert)


def test_prove_lefschetz_details():
    cf = parse_candidates("b2,b3\n23,0\n")
    certs = prove(cf, primes=(2,), t_max=0)
    (cert,) = certs
    assert cert.candidate == (23, 0)
    assert cert.prime == 2 and cert.t == 0
    assert cert.branch is Branch.LEFSCHETZ_MISMATCH
    assert cert.details["chi_top_X"] == 324
    assert cert.details["chi_top_fixed_locus"] == 0
    assert cert.details["m"] == 0 and cert.details["k"] == 0
    assert "lambda_roots" not in cert.details


def test_prove_exclusion_details():
    cf = parse_candidates("b2,b3\n4,32\n")
    certs = prove(cf, primes=(3,), t_max=7)
    assert len(certs) == 8
    *_, cert = certs
    assert cert.branch is Branch.TABLE1_EXCLUSION
    assert cert.details["chi_top_X"] == 0
    assert cert.details["c4_W"] == 0
    assert cert.details["delta"] == F(7, 4)
    assert cert.details["delta_sqrt"] is None
    assert cert.details["lambda_roots"] == ()
    assert cert.details["salamon_defect_W"] == 0
    assert cert.details["betti_W"][2] == 4 + 2 * 7  # b2 + (p-1) * t
    assert any("vanishing_chi_line_bundle" in h for h in cert.hypotheses)


def test_prove_chi5_0_example():
    cf = parse_candidates("b2,b3\n5,0\n")
    (cert,) = prove(cf, primes=(2,), t_max=0)
    assert cert.branch is Branch.LEFSCHETZ_MISMATCH
    assert cert.details["chi_top_X"] == 108


def test_prove_branch_dichotomy_and_pt_independence():
    cf = parse_candidates("b2,b3\n23,0\n4,32\n8,48\n")
    certs = prove(cf, primes=(2, 3, 5), t_max=4)
    by_candidate = {}
    for cert in certs:
        by_candidate.setdefault(cert.candidate, set()).add(cert.branch)
    # one branch per candidate across every (p, t)
    assert all(len(branches) == 1 for branches in by_candidate.values())
    assert by_candidate[(23, 0)] == {Branch.LEFSCHETZ_MISMATCH}
    assert by_candidate[(4, 32)] == {Branch.TABLE1_EXCLUSION}
    assert by_candidate[(8, 48)] == {Branch.TABLE1_EXCLUSION}  # c4 = 48+96-144


def test_prove_skips_flagged_rows():
    cf = parse_candidates("b2,b3\n0,48\n23,0\n")
    certs = prove(cf, primes=(2,), t_max=1)
    assert len(certs) == 2
    assert {c.candidate for c in certs} == {(23, 0)}


def test_prove_totality_over_admissible_rectangle():
    # every admissible pair must land in exactly one branch, never neither
    lines = ["b2,b3"]
    pairs = []
    for b2 in range(26):
        for b3 in range(0, 46 + 10 * b2 + 1, 2):
            pairs.append((b2, b3))
            lines.append(f"{b2},{b3}")
    cf = parse_candidates("\n".join(lines) + "\n")
    assert cf.valid_pairs() == pairs
    certs = prove(cf, primes=(2, 13), t_max=2)
    assert len(certs) == len(pairs) * 2 * 3
    for cert in certs:
        b2, b3 = cert.candidate
        c4 = 48 + 12 * b2 - 3 * b3
        expected = Branch.TABLE1_EXCLUSION if c4 == 0 else Branch.LEFSCHETZ_MISMATCH
        assert cert.branch is expected


def test_prove_lefschetz_only_sweep_builds_nothing_per_t():
    started = time.perf_counter()
    certs = prove(builtin_candidates(), t_max=10**7)
    elapsed = time.perf_counter() - started
    assert len(certs.runs) == 4 * 6
    assert len(certs) == 4 * 6 * (10**7 + 1)
    assert elapsed < 0.5, elapsed


def test_prove_exclusion_only_sweep_builds_nothing_per_t(monkeypatch):
    built = []

    class Counted(pipeline._Group):
        def __new__(cls, *fields):  # a group per t fails here, long before memory runs out
            built.append(fields[:3])
            assert len(built) <= 4, built[-1]
            return super().__new__(cls, *fields)

    monkeypatch.setattr(pipeline, "_Group", Counted)
    cf = parse_candidates("b2,b3\n" + "".join(f"{b2},{16 + 4 * b2}\n" for b2 in range(4)))
    started = time.perf_counter()
    certs = prove(cf, t_max=10**7)
    elapsed = time.perf_counter() - started
    assert len(built) == 4  # one group per candidate
    assert len(certs.runs) == 4 * 6
    assert certs.branch_counts() == {
        "LefschetzMismatch": 0, "Table1Exclusion": 4 * 6 * (10**7 + 1),
    }
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize("pair", [(0, 48), (5, 3), (-1, 0), (2.0, 0), (-1, 12)])
def test_prove_refuses_an_inadmissible_pair_of_a_hand_built_file(pair):
    # the parser flags these rows, so only a CandidateFile built by hand holds
    # them; (-1, 12) has c4 = 0, the others c4 != 0
    cf = builtin_candidates()._replace(b2s=(23, pair[0]), b3s=(0, pair[1]))
    with pytest.raises(InadmissiblePairError) as exc:
        betti_from_pair(*pair)
    with pytest.raises(InadmissiblePairError) as refused:
        prove(cf, primes=(2,), t_max=0)
    assert str(refused.value) == str(exc.value)


def test_prove_exclusion_betti_w_is_the_transport_at_each_t():
    cf = parse_candidates("b2,b3\n" + "".join(f"{b2},{16 + 4 * b2}\n" for b2 in range(6)))
    certs = prove(cf, t_max=40)
    assert certs.branch_counts() == {"LefschetzMismatch": 0, "Table1Exclusion": 6 * 6 * 41}
    for cert in certs:
        profile = FixedLocusProfile(p=cert.prime, m=0, k=0, t=cert.t)
        bW = transport_betti(betti_from_pair(*cert.candidate), profile)
        assert cert.details["betti_W"] == bW


def test_prove_input_validation():
    cf = builtin_candidates()
    with pytest.raises(ValueError):
        prove(cf, primes=(4,), t_max=1)
    for p in (2.0, F(2), True):  # equal to 2 or 1, but not of type int
        with pytest.raises(ValueError, match="not a prime"):
            prove(cf, primes=(p,), t_max=0)
    with pytest.raises(ValueError):
        prove(cf, primes=(2,), t_max=-1)
    for t_max in (2.0, True, F(2)):  # equal to 2 or 1, but not of type int
        with pytest.raises(ValueError, match="t_max must be a nonnegative int"):
            prove(cf, primes=(2,), t_max=t_max)
    # len() of the result can count up to sys.maxsize and no further
    one = parse_candidates("b2,b3\n23,0\n")
    assert len(prove(one, primes=(2,), t_max=sys.maxsize - 1)) == sys.maxsize
    with pytest.raises(ValueError, match="exceed sys.maxsize"):
        prove(one, primes=(2,), t_max=sys.maxsize)


def test_prove_rejects_empty_and_duplicate_primes():
    cf = builtin_candidates()
    with pytest.raises(ValueError, match="at least one prime"):
        prove(cf, primes=(), t_max=0)
    with pytest.raises(ValueError, match="duplicate"):
        prove(cf, primes=(2, 3, 2), t_max=0)


def test_prove_tests_each_prime_once():
    # every FixedLocusProfile, solve_mk and mk_elimination_equation tests its
    # prime again; each distinct prime still costs one primality test per
    # process, on either branch
    c4_zero = parse_candidates(FOUR_PAIRS + "0,16\n")
    for cf, t_max in ((builtin_candidates(), 0), (c4_zero, 2)):
        quotient.is_prime.cache_clear()
        prove(cf, primes=(10007,), t_max=t_max)
        assert quotient.is_prime.cache_info().misses == 1
    for _ in range(2):  # a cached verdict still rejects a non-prime
        with pytest.raises(ValueError, match="p must be prime"):
            quotient.FixedLocusProfile(p=4, m=0, k=0, t=0)


def test_prove_with_a_16_digit_prime_is_fast():
    quotient.is_prime.cache_clear()
    started = time.perf_counter()
    certs = prove(builtin_candidates(), primes=(9999999999999937,), t_max=0)
    assert time.perf_counter() - started < 1.0
    assert len(certs) == 4


def test_value_types_are_immutable():
    # the package docstring promises that all values are immutable
    values = [
        (chern_from_betti(23, 0), "c4"),
        (FixedLocusProfile(p=2, m=0, k=0, t=0), "t"),
        (filter_candidates([(23, 0)])[0], "accepted"),
        (builtin_candidates(), "pairs"),
        (builtin_candidates(), "b2s"),
    ]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1
    bt = betti_from_pair(23, 0)
    with pytest.raises(TypeError):
        bt[2] = 24
    with pytest.raises(AttributeError):
        bt.extra = 1


def test_replace_and_make_run_the_constructor_checks():
    values = [
        (FixedLocusProfile(p=2, m=0, k=0, t=0), {"p": 4, "m": -1}, "p must be prime"),
        (filter_candidates([(23, 0)])[0], {"accepted": False}, "accepted must mirror"),
    ]
    for value, changes, message in values:
        with pytest.raises(ValueError, match=message):
            value._replace(**changes)
        fields = {**value._asdict(), **changes}
        with pytest.raises(ValueError, match=message):
            type(value)._make(fields[name] for name in value._fields)
        assert value._replace() == value and type(value._replace()) is type(value)


def _broken_fixed_locus(profile):
    return profile.t  # chi_top of t tori, broken: should be 0


def _transport_plus(bY, profile, extra, by=None):
    """transport_betti plus ``by`` (default (p - 1)*t) times ``extra``."""
    by = (profile.p - 1) * profile.t if by is None else by
    return tuple(w + by * x for w, x in zip(transport_betti(bY, profile), extra))


def _broken_transport_salamon(bY, profile):
    return _transport_plus(bY, profile, (0, 0, 0, 0, 1, 0, 0, 0, 0))


def _broken_transport_chi(bY, profile):  # Salamon defects unchanged
    return _transport_plus(bY, profile, (1, 0, 0, 0, 0, 0, 0, 0, 0))


def _broken_transport_duality(bY, profile):  # every named identity unchanged
    return _transport_plus(bY, profile, (0, 0, 0, 0, 0, 2, 2, 0, 0))


def _broken_transport_unscaled(bY, profile):  # the same, without the factor p - 1
    return _transport_plus(bY, profile, (0, 0, 0, 0, 0, 2, 2, 0, 0), profile.t)


def _broken_transport_negative(bY, profile):  # the torus term, subtracted twice
    return _transport_plus(bY, profile, [-2 * s for s in (0, 0, *TORUS2_BETTI, 0, 0)])


#: (name in pipeline, broken stand-in, the identity whose check must fail)
BROKEN_FORMULAS = [
    ("c4_from_betti", lambda b2, b3: 49 + 12 * b2 - 3 * b3, "chi_top_X"),
    ("transport_betti", _broken_transport_salamon, "salamon_W"),
    ("orbifold_salamon_defect",  # the points weighted by p, not p - 1
     lambda bW, pr: quotient.orbifold_salamon_defect(bW, pr) + pr.m, "orbifold_salamon_W"),
    ("transport_betti", _broken_transport_chi, "chi_top_W"),
    ("lefschetz_euler_fixed", _broken_fixed_locus, "chi_top_fixed_locus"),
    ("transport_betti", _broken_transport_unscaled, "betti_W"),
    ("transport_betti", _broken_transport_duality, "betti_W"),
    ("transport_betti", _broken_transport_negative, "betti_W"),
]


@pytest.mark.parametrize("name, broken, identity", BROKEN_FORMULAS)
def test_verification_error_names_triple_and_identity(
    monkeypatch, name, broken, identity
):
    # the identities are checked once, on polynomials: a broken one fails on
    # a file without pairs and at t_max = 0, and names no candidate, prime or t
    monkeypatch.setattr(f"hk4verify.pipeline.{name}", broken)
    for text, t_max in (("b2,b3\n", 0), ("b2,b3\n23,0\n4,32\n", 3)):
        with pytest.raises(VerificationError, match=f"^{identity} fails on poly") as e:
            prove(parse_candidates(text), primes=(3, 2), t_max=t_max)
        assert vars(e.value) == dict(candidate=None, prime=None, t=None, identity=identity)


def test_transport_without_poincare_duality_fails_the_betti_table_check(monkeypatch):
    # every named identity holds; BettiTable refuses b(X) + c at b2 = b3 = 0
    monkeypatch.setattr("hk4verify.pipeline.transport_betti", _broken_transport_duality)
    with pytest.raises(VerificationError) as exc:
        prove(parse_candidates("b2,b3\n4,32\n"), primes=(3,), t_max=0)
    assert str(exc.value) == (
        "betti_W fails on polynomials: Poincare duality fails: (1, 0, 1, 4, 52, 6, 3, 0, 1)"
    )


@pytest.mark.parametrize("pair, p, t_max", [((4, 32), 3, 3), ((40, 176), 13, 4)])
def test_transport_with_a_negative_slope_fails_the_betti_table_check(
    monkeypatch, pair, p, t_max
):
    # b(W) is a 4-fold's table at t = 0 and goes negative as t grows: the sign
    # of the slope is checked, since nonnegativity is an inequality
    monkeypatch.setattr("hk4verify.pipeline.transport_betti", _broken_transport_negative)
    with pytest.raises(VerificationError, match="^betti_W .* goes negative as t grows"):
        prove(parse_candidates("b2,b3\n%d,%d\n" % pair), primes=(p,), t_max=t_max)


@pytest.mark.parametrize(
    "broken, identity",
    [(_broken_transport_salamon, "salamon_W"), (_broken_transport_chi, "chi_top_W")],
    ids=["salamon", "chi_top"],
)
def test_transport_broken_in_its_slope_fails_at_t_1_even_with_t_max_0(
    monkeypatch, broken, identity
):
    # both breaks vanish at t = 0, and prove fails all the same
    monkeypatch.setattr("hk4verify.pipeline.transport_betti", broken)
    with pytest.raises(VerificationError, match=f"^{identity} fails on polynomials"):
        prove(parse_candidates("b2,b3\n23,0\n4,32\n"), primes=(3, 2), t_max=0)


@pytest.mark.parametrize(
    "broken", [_broken_fixed_locus, lambda pr: 5], ids=["slope", "constant"]
)
def test_fixed_locus_identity_is_checked_as_affine_form_in_t(monkeypatch, broken):
    # compared with m + 24k on polynomials, a t term fails as a constant does
    monkeypatch.setattr("hk4verify.pipeline.lefschetz_euler_fixed", broken)
    with pytest.raises(VerificationError, match="^chi_top_fixed_locus fails on poly"):
        prove(parse_candidates("b2,b3\n23,0\n"), primes=(5, 2), t_max=0)


def test_broken_fixed_locus_fails_prove_on_a_file_without_pairs(monkeypatch):
    # each prime's m and k are checked once, before the sweep, and the
    # failure names the prime
    monkeypatch.setattr("hk4verify.pipeline.solve_mk", lambda p: (0, int(p == 5)))
    with pytest.raises(VerificationError) as exc:
        prove(parse_candidates("b2,b3\n"), primes=(2, 5), t_max=0)
    err = exc.value
    assert str(err) == "fixed locus of 0 points and 1 K3 surfaces must have chi_top 0, got 24"
    assert vars(err) == dict(candidate=None, prime=5, t=None, identity="chi_top_fixed_locus")


def test_prove_runs_the_formulas_once_per_call(monkeypatch):
    # the same calls on the four LefschetzMismatch pairs of the fixture and on
    # region3, which has Table1Exclusion runs too: none is made per candidate
    calls = []
    for name in ("transport_betti", "euler_characteristic"):
        formula = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *a, f=formula: calls.append(f) or f(*a))
    counts = []
    for cf in (builtin_candidates(), parse_candidates(_region_text(3))):
        calls.clear()
        exclusions = prove(cf).branch_counts()["Table1Exclusion"]
        counts.append((exclusions > 0, sorted(f.__name__ for f in calls)))
    once = ["euler_characteristic", "euler_characteristic", "transport_betti"]
    assert counts == [(False, once), (True, once)]


def test_lefschetz_certificates_of_one_candidate_and_prime_share_details():
    certs = prove(parse_candidates("b2,b3\n23,0\n4,32\n"), primes=(2, 3), t_max=2)
    by_prime = {}
    for cert in certs:
        by_prime.setdefault((cert.candidate, cert.prime), []).append(cert.details)
    for (candidate, _), details in by_prime.items():
        shared = candidate == (23, 0)  # LefschetzMismatch; (4, 32) is c4 = 0
        assert all((d is details[0]) == shared for d in details[1:])
    assert len({id(d) for ds in by_prime.values() for d in ds}) == 2 + 2 * 3


def test_lefschetz_runs_with_equal_chi_top_x_and_prime_share_details():
    # c4 = 324 on both pairs; (4, 32) has c4 = 0
    cf = parse_candidates("b2,b3\n23,0\n4,32\n24,4\n")
    runs = prove(cf, primes=(2, 3), t_max=1).runs
    lefschetz = [run for run in runs if run.branch is Branch.LEFSCHETZ_MISMATCH]
    assert [(run.candidate, run.prime) for run in lefschetz] == [
        ((23, 0), 2), ((23, 0), 3), ((24, 4), 2), ((24, 4), 3),
    ]
    assert lefschetz[0].details is lefschetz[2].details
    assert lefschetz[1].details is lefschetz[3].details
    assert lefschetz[0].details is not lefschetz[1].details


def test_verify_certificate_rejects_tampering():
    cf = parse_candidates("b2,b3\n23,0\n")
    (cert,) = prove(cf, primes=(2,), t_max=0)
    bad = cert._replace(details={**cert.details, "chi_top_X": 0})
    with pytest.raises(VerificationError) as exc:
        verify_certificate(bad)
    assert (exc.value.candidate, exc.value.prime, exc.value.t) == ((23, 0), 2, 0)
    assert exc.value.identity == "lefschetz_mismatch"
    bad_exclusion = cert._replace(
        branch=Branch.TABLE1_EXCLUSION,
        details={**cert.details, "chi_top_X": 0, "c4_W": 324},
    )
    with pytest.raises(VerificationError):
        verify_certificate(bad_exclusion)


def _b2_le_3_runs():
    cf = parse_candidates(_region_text(3))
    return prove(cf, primes=(2, 3), t_max=3), cf


def test_certificates_sequence_matches_the_per_triple_sweep():
    certs, cf = _b2_le_3_runs()
    sweep = [
        (pair, p, t, Branch.TABLE1_EXCLUSION if c4 == 0 else Branch.LEFSCHETZ_MISMATCH)
        for pair in cf.valid_pairs()
        for c4 in [48 + 12 * pair[0] - 3 * pair[1]]
        for p in (2, 3)
        for t in range(4)
    ]
    listed = list(certs)
    assert len(certs) == len(listed) == len(sweep) == 126 * 2 * 4
    assert [(c.candidate, c.prime, c.t, c.branch) for c in listed] == sweep
    assert all(c.ts == range(c.t, c.t + 1) for c in listed)
    # one run per (candidate, prime) on either branch
    assert len(certs.runs) == 126 * 2
    assert certs.branch_counts() == {"LefschetzMismatch": 976, "Table1Exclusion": 32}


def test_lefschetz_run_with_zero_chi_top_x_fails_at_its_first_t(monkeypatch):
    # one tampered details object per prime is shared by every candidate of
    # a c4 and by the 4 certificates of each of their runs
    real = pipeline._class_of

    def tampered(*args):
        branch, details, hypotheses = real(*args)
        if branch is Branch.LEFSCHETZ_MISMATCH:
            details = tuple({**d, "chi_top_X": 0} for d in details)
        return branch, details, hypotheses

    monkeypatch.setattr(pipeline, "_class_of", tampered)
    with pytest.raises(VerificationError) as exc:
        _b2_le_3_runs()
    err = exc.value
    assert (err.candidate, err.prime, err.t, err.identity) == (
        (0, 0), 2, 0, "lefschetz_mismatch",
    )
    assert str(err).startswith("LefschetzMismatch with chi_top(X) = 0: CertificateRun(")


def test_zero_chi_w_with_rational_roots_fails_at_its_first_t(monkeypatch):
    # verify_certificate checks it at the first t of each Table1Exclusion run;
    # LefschetzMismatch candidates never reach it
    monkeypatch.setattr("hk4verify.pipeline.admits_zero_chi", lambda c4: {F(-1, 2)})
    with pytest.raises(VerificationError) as exc:
        prove(parse_candidates("b2,b3\n23,0\n4,32\n"), primes=(3, 2), t_max=2)
    err = exc.value
    assert (err.candidate, err.prime, err.t, err.identity) == (
        (4, 32), 3, 0, "zero_chi_W",
    )
    assert str(err) == "Table1Exclusion but chi = 0 is rationally solvable at c4 = 0"


def test_zero_chi_w_failure_names_the_first_c4_zero_candidate_in_file_order(monkeypatch):
    # prove checks each c4's shared details once, on its first candidate in
    # file order, which places a failure where a check of every run would
    monkeypatch.setattr("hk4verify.pipeline.admits_zero_chi", lambda c4: {F(-1, 2)})
    cf = parse_candidates("b2,b3\n23,0\n5,36\n7,8\n4,32\n")
    with pytest.raises(VerificationError) as exc:
        prove(cf, primes=(5, 2, 3), t_max=2)
    err = exc.value
    assert (err.candidate, err.prime, err.t, err.identity) == ((5, 36), 5, 0, "zero_chi_W")
    assert str(err) == "Table1Exclusion but chi = 0 is rationally solvable at c4 = 0"


def test_lefschetz_only_input_never_reaches_the_zero_chi_check(monkeypatch):
    monkeypatch.setattr("hk4verify.pipeline.admits_zero_chi", lambda c4: {F(-1, 2)})
    certs = prove(parse_candidates("b2,b3\n23,0\n"), primes=(2, 3), t_max=1)
    assert certs.branch_counts() == {"LefschetzMismatch": 4, "Table1Exclusion": 0}


# ---------------------------------------------------------------------------
# Reports

def _certs_mixed():
    cf = parse_candidates("b2,b3\n4,32\n23,0\n")
    return prove(cf, primes=(2, 3), t_max=1), cf


def test_emit_report_json_schema_and_order():
    certs, cf = _certs_mixed()
    data = json.loads(emit_report(certs, "json", input_digest=cf.digest))
    assert data["version"] == __version__
    assert data["input_digest"] == cf.digest
    assert data["branch_counts"] == {"LefschetzMismatch": 4, "Table1Exclusion": 4}
    entries = data["certificates"]
    assert len(entries) == 8
    keys = [(e["candidate"][0], e["candidate"][1], e["prime"], e["t"]) for e in entries]
    assert keys == sorted(keys)
    first = entries[0]
    assert set(first) == {"candidate", "prime", "t", "branch", "details", "hypotheses"}
    assert first["candidate"] == [4, 32]
    assert first["branch"] == "Table1Exclusion"
    assert first["details"]["delta"] == "7/4"
    assert first["details"]["delta_sqrt"] is None
    assert first["details"]["lambda_roots"] == []
    assert first["details"]["betti_W"] == [1, 0, 4, 32, 54, 32, 4, 0, 1]


def test_emit_report_deterministic():
    certs1, cf1 = _certs_mixed()
    certs2, cf2 = _certs_mixed()
    for fmt in ("json", "csv", "md"):
        blob1 = emit_report(certs1, fmt, input_digest=cf1.digest)
        blob2 = emit_report(certs2, fmt, input_digest=cf2.digest)
        assert blob1 == blob2


def test_emit_report_csv():
    certs, cf = _certs_mixed()
    lines = emit_report(certs, "csv", input_digest=cf.digest).decode().splitlines()
    assert lines[0] == (
        "b2,b3,prime,t,branch,chi_top_X,c4_W,delta,lambda_roots,m,k,"
        "version,input_digest"
    )
    assert len(lines) == 9
    assert lines[1].startswith("4,32,2,0,Table1Exclusion,0,0,7/4,,0,0")
    assert lines[-1].startswith("23,0,3,1,LefschetzMismatch,324,,,,0,0")


def test_emit_report_csv_empty_is_header_only():
    blob = emit_report(Certificates(()), "csv", input_digest="sha256:none")
    assert blob.decode().splitlines() == [
        "b2,b3,prime,t,branch,chi_top_X,c4_W,delta,lambda_roots,m,k,"
        "version,input_digest"
    ]


def test_emit_report_markdown_mentions_version_and_digest():
    certs, cf = _certs_mixed()
    text = emit_report(certs, "md", input_digest=cf.digest).decode()
    assert f"- version: {__version__}" in text
    assert cf.digest in text
    assert "| 4 | 32 | 2 | 0 | Table1Exclusion | 0 | 0 | 7/4 | none | 0 | 0 |" in text


def test_emit_report_csv_full_text():
    certs, cf = _certs_mixed()
    tail = f"0,0,{__version__},{cf.digest}\n"
    assert emit_report(certs, "csv", input_digest=cf.digest).decode() == (
        "b2,b3,prime,t,branch,chi_top_X,c4_W,delta,lambda_roots,m,k,"
        "version,input_digest\n"
        + "".join(
            f"4,32,{p},{t},Table1Exclusion,0,0,7/4,," + tail
            for p in (2, 3) for t in (0, 1)
        )
        + "".join(
            f"23,0,{p},{t},LefschetzMismatch,324,,,," + tail
            for p in (2, 3) for t in (0, 1)
        )
    )


def test_emit_report_markdown_full_text():
    certs, cf = _certs_mixed()
    expected = (
        "# Contradiction certificates\n"
        "\n"
        f"- version: {__version__}\n"
        f"- input digest: {cf.digest}\n"
        "- certificates: 8 (LefschetzMismatch: 4, Table1Exclusion: 4)\n"
        "\n"
        "| b2 | b3 | prime | t | branch | chi_top_X | c4_W | delta "
        "| lambda_roots | m | k |\n"
        "|---:|---:|------:|--:|--------|----------:|-----:|------:"
        "|--------------|--:|--:|\n"
        + "".join(
            f"| 4 | 32 | {p} | {t} | Table1Exclusion | 0 | 0 | 7/4 | none | 0 | 0 |\n"
            for p in (2, 3) for t in (0, 1)
        )
        + "".join(
            f"| 23 | 0 | {p} | {t} | LefschetzMismatch | 324 |  |  |  | 0 | 0 |\n"
            for p in (2, 3) for t in (0, 1)
        )
    )
    assert emit_report(certs, "md", input_digest=cf.digest).decode() == expected


def test_emit_report_unsupported_format():
    for fmt in ("xml", "markdown"):
        with pytest.raises(ValueError):
            emit_report(Certificates(()), fmt)


def test_table1_markdown():
    assert table1(builtin_candidates()) == (
        "| No. | c2sq | c4 | b2 | b3 |\n"
        "|----:|-----:|---:|---:|---:|\n"
        "| 1 | 828 | 324 | 23 | 0 |\n"
        "| 2 | 756 | 108 | 7 | 8 |\n"
        "| 3 | 756 | 108 | 6 | 4 |\n"
        "| 4 | 756 | 108 | 5 | 0 |\n"
    )


def test_table1_csv_sorts_by_decreasing_b2_b3():
    cf = parse_candidates("b2,b3\n5,0\n6,4\n23,0\n7,8\n")
    assert table1(cf, "csv") == (
        "no,c2sq,c4,b2,b3\n"
        "1,828,324,23,0\n"
        "2,756,108,7,8\n"
        "3,756,108,6,4\n"
        "4,756,108,5,0\n"
    )


def test_table1_json():
    rows = json.loads(table1(builtin_candidates(), "json"))
    assert rows[0] == {"no": 1, "c2sq": 828, "c4": 324, "b2": 23, "b3": 0}
    assert len(rows) == 4


def test_table1_rejected_candidates_yield_empty_table():
    cf = parse_candidates("b2,b3\n4,32\n")
    assert table1(cf, "csv") == "no,c2sq,c4,b2,b3\n"


def test_table1_empty_input():
    cf = parse_candidates("b2,b3\n")
    assert table1(cf, "csv") == "no,c2sq,c4,b2,b3\n"


def test_table1_unsupported_format():
    for fmt in ("yaml", "markdown"):
        with pytest.raises(ValueError):
            table1(builtin_candidates(), fmt)


# ---------------------------------------------------------------------------
# JSON layout: every JSON output is laid out exactly as json.dumps(indent=2)

FLAGGED_ROWS = (
    "# odd b3, negative, negative b4 and duplicate rows\n"
    "b2,b3\n23,0\n5,3\n-1,0\n0,48\n4,32\n23,0\n-2,-4\n7,8\n"
)


def _region_text(b2_max):
    return "b2,b3\n" + "".join(
        f"{b2},{b3}\n"
        for b2 in range(b2_max + 1)
        for b3 in range(0, 46 + 10 * b2 + 1, 2)
    )


def _assert_dumps_layout(blob):
    assert blob == (json.dumps(json.loads(blob), indent=2) + "\n").encode()


def test_emit_report_json_layout_on_fixture():
    cf = builtin_candidates()
    _assert_dumps_layout(emit_report(prove(cf), "json", input_digest=cf.digest))


def test_emit_report_json_layout_and_digest_on_b2_le_3_region():
    cf = parse_candidates(_region_text(3))
    blob = emit_report(prove(cf), "json", input_digest=cf.digest)
    _assert_dumps_layout(blob)
    assert json.loads(blob)["branch_counts"] == {
        "LefschetzMismatch": 15372, "Table1Exclusion": 504,
    }
    assert hashlib.sha256(blob).hexdigest() == (
        "00d5f33e80bcb33a8810032666a73ecd3644a452eb463f1a82556c35f4e121e2"
    )


def test_emit_report_json_digest_on_b2_le_9_region():
    # 465 pairs, 58,590 certificates, 56.5 MB; LefschetzMismatch runs of
    # different candidates share details objects, and so tails
    cf = parse_candidates(_region_text(9))
    blob = emit_report(prove(cf), "json", input_digest=cf.digest)
    assert hashlib.sha256(blob).hexdigest() == (
        "47d7eb70d1984bd226824abdbf51eca46bdf75f2e45616768af854696d1c9e97"
    )


def test_emit_report_json_layout_empty():
    blob = emit_report(Certificates(()), "json", input_digest="sha256:none")
    _assert_dumps_layout(blob)
    assert json.loads(blob)["certificates"] == []


def test_emit_report_json_keeps_equal_values_of_different_types_apart():
    # 1, True and Fraction(1) compare equal but are written 1, true and "1/1"
    (run,) = prove(parse_candidates("b2,b3\n23,0\n"), primes=(2,), t_max=0).runs
    values = [1, True, F(1), (1,), (True,), (F(1),)]
    certs = Certificates(
        run._replace(
            ts=range(t, t + 1), details={**run.details, "x": value},
            hypotheses=run.hypotheses if t % 2 else ("h", 1, True),
        )
        for t, value in enumerate(values)
    )
    data = json.loads(emit_report(certs, "json"))
    assert [c["details"]["x"] for c in data["certificates"]] == [
        1, True, "1/1", [1], [True], ["1/1"],
    ]
    assert [type(c["details"]["x"]) for c in data["certificates"]][:2] == [int, bool]
    assert data["certificates"][0]["hypotheses"] == ["h", 1, True]
    assert data["certificates"][1]["hypotheses"] == list(run.hypotheses)


@pytest.mark.parametrize("value", [{1}, b"1"])
def test_emit_report_json_refuses_unsupported_values(value):
    (run,) = prove(parse_candidates("b2,b3\n23,0\n"), primes=(2,), t_max=0).runs
    certs = Certificates([run._replace(details={**run.details, "x": value})])
    with pytest.raises(TypeError, match="unexpected report value"):
        emit_report(certs, "json")


#: sha256 of the csv and md reports of the b2 <= 3 and b2 <= 9 regions
_CSV_MD_DIGESTS = {
    (3, "csv"): "1aff2fbd886047d8f8b0e6cdaf9d5fbc9c3f4cbf687d1c1b0b6094af0e694ce4",
    (3, "md"): "2465389ee69a9a9fc912d22a4164e22cb33e825a71cb7a86e318f8ac13fff058",
    (9, "csv"): "f47922e690b41205121883ee6af5b7edb954394d437910a6db6b1eae84b9bdef",
    (9, "md"): "557f69d78f4f0bbcb1d19ec0683b735dfcba2dc587aa252eaeee2cd445a14240",
}


@pytest.mark.parametrize("b2_max, fmt", list(_CSV_MD_DIGESTS))
def test_emit_report_csv_and_md_digests_and_chunks_on_regions(b2_max, fmt):
    # streamed like JSON: 15,876 and 58,590 certificates, many chunks each
    cf = parse_candidates(_region_text(b2_max))
    certs = prove(cf)
    chunks = list(report_chunks(certs, fmt, input_digest=cf.digest))
    assert len(chunks) > 1
    assert b"".join(chunks) == emit_report(certs, fmt, input_digest=cf.digest)
    assert hashlib.sha256(b"".join(chunks)).hexdigest() == _CSV_MD_DIGESTS[b2_max, fmt]


@pytest.mark.parametrize("digest", ["a,b", 'a"b', "a\rb", "a\nb"])
def test_emit_report_csv_refuses_a_digest_it_would_have_to_quote(digest):
    # csv cells are never quoted, so such a digest is refused before any row;
    # a sha256 digest, the only kind the CLI writes, passes
    cf = builtin_candidates()
    certs = prove(cf)
    blob = emit_report(certs, "csv", input_digest=cf.digest)
    assert blob.endswith(f",{__version__},{cf.digest}\n".encode())
    with pytest.raises(ValueError, match="csv cannot hold the input digest"):
        report_chunks(certs, "csv", input_digest=digest)


#: region3 with two more c4 = 0 pairs ahead of it, out of sorted order
_REGION3_AND_C4_ZERO = "b2,b3\n5,36\n4,32\n" + _region_text(3).removeprefix("b2,b3\n")


def _same_reports(cf, *values):
    for fmt in ("json", "csv", "md"):
        first, *rest = (emit_report(v, fmt, input_digest=cf.digest) for v in values)
        assert all(blob == first for blob in rest), fmt


def test_emit_report_same_bytes_for_shared_and_copied_details():
    # prove's groups, their runs, the runs split at t = 2, the certificates
    # (a single-t run each), and copies with a details object each
    cf = parse_candidates(_REGION3_AND_C4_ZERO)
    certs = prove(cf, primes=(5, 2, 3), t_max=3)
    split = Certificates(
        run._replace(ts=ts) for run in certs.runs for ts in (run.ts[:2], run.ts[2:])
    )
    copies = Certificates(
        CertificateRun(
            c.candidate, c.prime, range(c.t, c.t + 1), c.branch, dict(c.details),
            c.hypotheses,
        )
        for c in certs
    )
    assert len(certs.runs) == 128 * 3 < len(split.runs) < len(copies.runs) == len(certs)
    assert certs.branch_counts() == copies.branch_counts() == {
        "LefschetzMismatch": 122 * 3 * 4, "Table1Exclusion": 6 * 3 * 4,
    }
    assert len({id(c.details) for c in certs}) < len({id(c.details) for c in copies})
    _same_reports(cf, certs, Certificates(certs.runs), split, Certificates(iter(certs)),
                  copies)


def test_emit_report_same_bytes_for_any_prime_order():
    cf = parse_candidates(_REGION3_AND_C4_ZERO)
    shuffled = prove(cf, primes=(5, 2, 3), t_max=3)
    ordered = prove(cf, primes=(2, 3, 5), t_max=3)
    assert [run.prime for run in shuffled.runs][:3] == [5, 2, 3]
    _same_reports(cf, shuffled, ordered, Certificates(shuffled.runs),
                  Certificates(iter(shuffled)))


def test_emit_report_json_tail_follows_branch_details_and_hypotheses():
    # one details object under two branches and two hypotheses tuples
    (run,) = prove(parse_candidates("b2,b3\n23,0\n"), primes=(2,), t_max=0).runs
    certs = Certificates([
        run,
        run._replace(ts=range(1, 2), hypotheses=("h",)),
        run._replace(ts=range(2, 3), branch=Branch.TABLE1_EXCLUSION),
    ])
    data = json.loads(emit_report(certs, "json"))
    assert [(c["branch"], c["hypotheses"]) for c in data["certificates"]] == [
        ("LefschetzMismatch", list(run.hypotheses)),
        ("LefschetzMismatch", ["h"]),
        ("Table1Exclusion", list(run.hypotheses)),
    ]
    assert all(c["details"]["chi_top_X"] == 324 for c in data["certificates"])


def test_emit_report_rows_follow_the_prime_and_ts_of_runs_sharing_details():
    # four runs share one details object; each keeps its own prime and ts
    (run,) = prove(parse_candidates("b2,b3\n23,0\n"), primes=(2,), t_max=0).runs
    certs = Certificates([
        run._replace(prime=5), run, run._replace(ts=range(1, 3)), run._replace(prime=3),
    ])
    lines = emit_report(certs, "csv").decode().splitlines()[1:]
    assert [line.split(",")[:4] for line in lines] == [
        ["23", "0", "2", "0"], ["23", "0", "2", "1"], ["23", "0", "2", "2"],
        ["23", "0", "3", "0"], ["23", "0", "5", "0"],
    ]


def test_emit_filter_report_layout_and_digest_on_flagged_rows():
    blob = emit_filter_report(parse_candidates(FLAGGED_ROWS))
    _assert_dumps_layout(blob)
    assert [row["line"] for row in json.loads(blob)["invalid_rows"]] == [4, 5, 6, 8, 9]
    assert hashlib.sha256(blob).hexdigest() == (
        "11ae6783c8f384505e7564d3e3f6a0632f73d99275fb68a27e059b72bf7cc2dc"
    )


def _assert_records_match_filter_candidates(cf, blob):
    records = json.loads(blob)["records"]
    reference = filter_candidates(cf.valid_pairs())
    assert [(r["b2"], r["b3"]) for r in records] == cf.valid_pairs()
    assert [
        (r["c2sq"], r["c4"], r["delta"], r["delta_sqrt"], r["lambda_roots"],
         r["accepted"])
        for r in records
    ] == [
        (r.chern.c2sq, r.chern.c4, format_rational(r.delta),
         None if r.delta_sqrt is None else format_rational(r.delta_sqrt),
         [format_rational(x) for x in sorted(r.lambda_roots)], r.accepted)
        for r in reference
    ]


def test_emit_filter_report_matches_filter_candidates_on_b2_le_30_region():
    # the report evaluates each c4 once; here 3,069 pairs share 174 values
    cf = parse_candidates(_region_text(30))
    reference = filter_candidates(cf.valid_pairs())
    assert (len(reference), len({r.chern.c4 for r in reference})) == (3069, 174)
    _assert_records_match_filter_candidates(cf, emit_filter_report(cf))


def test_emit_filter_report_layout_on_every_tail_shape():
    # c4 = 3024 (delta_sqrt "0/1", no roots, not accepted), two roots, a
    # non-square delta, a negative c4, and c4 = 432 (one double root)
    cf = parse_candidates("b2,b3\n248,0\n23,0\n0,0\n10,100\n32,0\n")
    blob = emit_filter_report(cf)
    _assert_dumps_layout(blob)
    shapes = [
        (r["c4"], r["delta_sqrt"], len(r["lambda_roots"]), r["accepted"])
        for r in json.loads(blob)["records"]
    ]
    assert shapes == [
        (3024, "0/1", 0, False), (324, "5/8", 2, True), (48, None, 0, False),
        (-132, None, 0, False), (432, "0/1", 1, True),
    ]
    _assert_records_match_filter_candidates(cf, blob)
    assert hashlib.sha256(blob).hexdigest() == (
        "3fd44b2108514c0a17bc0b9357457ea265142e51fb427c5882e8c6608aa36b40"
    )


def test_reports_encode_once_per_shape_not_per_value(monkeypatch):
    # the number of encoder calls depends on neither the number of distinct
    # c4 values nor of candidates: 39 and 174 c4 values for the filter, and
    # 4 + 1 and 126 candidates, both with both branches, for prove
    calls = []
    encode = candidates._ENCODER.encode
    monkeypatch.setattr(
        candidates._ENCODER, "encode", lambda value: calls.append(value) or encode(value)
    )

    def count(report):
        calls.clear()
        report()
        return len(calls)

    small, large = (parse_candidates(_region_text(b2_max)) for b2_max in (3, 30))
    assert len({c4_from_betti(*pair) for pair in small.pairs}) == 39
    assert count(lambda: emit_filter_report(small)) == count(
        lambda: emit_filter_report(large)
    )
    fixture = parse_candidates(candidates.TABLE1_FIXTURE + "4,32\n")  # and c4 = 0

    def prove_json(cf):
        return lambda: emit_report(prove(cf, primes=(2, 3), t_max=1), "json")

    assert count(prove_json(fixture)) == count(prove_json(small))


def test_table1_matches_filter_candidates_on_b2_le_30_region():
    # table1 evaluates each c4 once; 3,069 pairs share 174 values
    cf = parse_candidates(_region_text(30))
    accepted = [r for r in filter_candidates(cf.valid_pairs()) if r.accepted]
    accepted.sort(key=lambda r: (-r.b2, -r.b3))
    assert table1(cf, "csv") == "no,c2sq,c4,b2,b3\n" + "".join(
        f"{no},{r.chern.c2sq},{r.chern.c4},{r.b2},{r.b3}\n"
        for no, r in enumerate(accepted, start=1)
    )
    assert len(accepted) == 80
    assert {
        fmt: hashlib.sha256(table1(cf, fmt).encode()).hexdigest()
        for fmt in ("md", "csv", "json")
    } == {
        "md": "59f3c6841f4cba1aade2b2d115857b4efc04bef8303fea37873dbbe65acf07fe",
        "csv": "037d757687b825cf4f304cba965182ae59099b973ff4a71ffe1a47adbe840a64",
        "json": "02d9afec05944852bdb2e918aef28ac2d50bd0c576341b4e4e8719d818329a15",
    }


def test_filter_report_and_table1_read_the_columns_not_pairs(monkeypatch):
    # the filter path builds no pair tuples: with CandidateFile.pairs broken,
    # both reports keep their bytes
    four = parse_candidates("b2,b3\n248,0\n23,0\n0,0\n10,100\n32,0\n")
    region = parse_candidates(_region_text(30))

    def broken(self):
        raise AssertionError("CandidateFile.pairs read")

    monkeypatch.setattr(pipeline.CandidateFile, "pairs", property(broken))

    def sha256(data):
        return hashlib.sha256(data).hexdigest()

    assert sha256(emit_filter_report(four)) == (
        "3fd44b2108514c0a17bc0b9357457ea265142e51fb427c5882e8c6608aa36b40"
    )
    assert sha256(emit_filter_report(region)) == (
        "6f29a43e5b8803d07169b34c5228401333f1dbf6e45dd8c7c82d29496f142616"
    )
    assert sha256(table1(region, "json").encode()) == (
        "02d9afec05944852bdb2e918aef28ac2d50bd0c576341b4e4e8719d818329a15"
    )


def test_table1_json_layout():
    for cf in (builtin_candidates(), parse_candidates("b2,b3\n4,32\n")):
        _assert_dumps_layout(table1(cf, "json").encode())
    assert table1(parse_candidates("b2,b3\n"), "json") == "[]\n"


def test_emit_filter_report():
    cf = parse_candidates("b2,b3\n4,32\n23,0\n0,48\n")
    data = json.loads(emit_filter_report(cf))
    assert data["version"] == __version__
    assert data["input_digest"] == cf.digest
    assert "computed" in data["note"]
    assert [r["accepted"] for r in data["records"]] == [False, True]
    rejected = data["records"][0]
    assert rejected["delta"] == "7/4"
    assert rejected["delta_sqrt"] is None
    accepted = data["records"][1]
    assert accepted["delta_sqrt"] == "5/8"
    assert accepted["lambda_roots"] == ["-12/5", "-8/5"]
    (invalid,) = data["invalid_rows"]
    assert invalid["line"] == 4


def test_filter_checks_each_c4_class_as_candidate_record_does(monkeypatch):
    # filter_c4 runs CandidateRecord's checks on the values of each c4 class
    zero_chi = riemann_roch.zero_chi

    def off(c4):
        d, sqrt, roots = zero_chi(c4)
        return d, (None if sqrt is None else sqrt + 1), roots

    monkeypatch.setattr(riemann_roch, "zero_chi", off)
    cf = parse_candidates(FOUR_PAIRS)
    for report in (lambda: emit_filter_report(cf), lambda: table1(cf, "csv")):
        with pytest.raises(ValueError, match="delta_sqrt does not square to delta"):
            report()


def test_filter_c4_column_is_c4_from_betti():
    # the c4 column comes from an affine split over the distinct b2 and b3
    cf = parse_candidates(_region_text(12))
    c4s = list(candidates._per_c4(cf.b2s, cf.b3s, lambda values: values[0].c4))
    assert c4s == list(map(c4_from_betti, cf.b2s, cf.b3s))
