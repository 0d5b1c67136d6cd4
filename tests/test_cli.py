import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hk4verify
from hk4verify.cli import main
from hk4verify.pipeline import emit_filter_report, filter_report_chunks, parse_candidates
from test_pipeline import (
    FLAGGED_ROWS,
    _broken_transport_duality,
    _broken_transport_negative,
    _region_text,
)

FOUR_PAIRS = "b2,b3\n23,0\n7,8\n6,4\n5,0\n"


@pytest.fixture
def pairs_file(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text(FOUR_PAIRS)
    return path


def test_table1_markdown(pairs_file, capsys):
    assert main(["table1", "--candidates", str(pairs_file)]) == 0
    out = capsys.readouterr().out
    assert "| 1 | 828 | 324 | 23 | 0 |" in out
    assert "| 4 | 756 | 108 | 5 | 0 |" in out


def test_table1_csv(pairs_file, capsys):
    assert main(["table1", "--candidates", str(pairs_file), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "no,c2sq,c4,b2,b3",
        "1,828,324,23,0",
        "2,756,108,7,8",
        "3,756,108,6,4",
        "4,756,108,5,0",
    ]


def test_table1_missing_file(tmp_path, capsys):
    assert main(["table1", "--candidates", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_table1_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x2,x3\n1,2\n")
    assert main(["table1", "--candidates", str(bad)]) == 1
    assert "header" in capsys.readouterr().err


def test_table1_warns_on_flagged_rows(tmp_path, capsys):
    path = tmp_path / "pairs.csv"
    path.write_text("b2,b3\n0,48\n23,0\n")
    assert main(["table1", "--candidates", str(path)]) == 0
    captured = capsys.readouterr()
    assert "skipping row 2" in captured.err
    assert "| 1 | 828 | 324 | 23 | 0 |" in captured.out


def test_table1_default_fixture(capsys):
    assert main(["table1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "no,c2sq,c4,b2,b3",
        "1,828,324,23,0",
        "2,756,108,7,8",
        "3,756,108,6,4",
        "4,756,108,5,0",
    ]


def test_filter_default_fixture(tmp_path, capsys):
    out = tmp_path / "filter.json"
    assert main(["filter", "--out", str(out)]) == 0
    data = json.loads(out.read_bytes())
    assert [(r["b2"], r["b3"]) for r in data["records"]] == [
        (23, 0), (7, 8), (6, 4), (5, 0),
    ]
    assert all(r["accepted"] for r in data["records"])
    assert data["invalid_rows"] == []
    assert "wrote filter report for 4 rows" in capsys.readouterr().out


def test_bad_usage_exits_1(capsys):
    assert main(["filter"]) == 1  # --out required
    assert main(["nonsense"]) == 1
    assert main(["table1", "--candidates", "x", "--format", "yaml"]) == 1
    assert main([]) == 1


def test_rr_command(capsys):
    assert main(["rr", "--c4", "324", "--lambda", "-8/5"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "chi = 0/1",
        "delta = 25/64",
        "delta_sqrt = 5/8",
        "lambda_roots = -12/5, -8/5",
    ]


def test_rr_no_roots(capsys):
    assert main(["rr", "--c4", "0", "--lambda", "1/1"]) == 0
    out = capsys.readouterr().out
    assert "delta = 7/4" in out
    assert "delta_sqrt = none" in out
    assert "lambda_roots = none" in out


def test_rr_rejects_bad_rational(capsys):
    assert main(["rr", "--c4", "324", "--lambda", "0.5"]) == 1
    assert main(["rr", "--c4", "324", "--lambda", "1/0"]) == 1


@pytest.mark.parametrize("text", ["\xa01/2", "1/2\x0c"])
def test_rr_lambda_rejects_whitespace_other_than_blanks(text, capsys):
    assert main(["rr", "--c4", "324", "--lambda", text]) == 1
    assert capsys.readouterr().err.startswith("error: not a rational")


def test_rr_lambda_allows_blanks_around_it(capsys):
    assert main(["rr", "--c4", "324", "--lambda", " 1/2\t"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "chi = 609/128"


def test_transport_command(capsys):
    assert main(
        ["transport", "--p", "2", "--m", "0", "--k", "1", "--t", "0",
         "--betti", "23,0"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert "bY = 1,0,23,0,276,0,23,0,1" in out
    assert "bW = 1,0,24,0,298,0,24,0,1" in out
    assert "salamon_defect_bW = 12" in out
    assert "euler_bW = 348" in out


def test_transport_rejects_non_prime(capsys):
    assert main(["transport", "--p", "4", "--betti", "23,0"]) == 1
    assert "prime" in capsys.readouterr().err


def test_transport_rejects_inadmissible_pair(capsys):
    assert main(["transport", "--p", "2", "--betti", "0,48"]) == 1
    # a negative list reaches its parser
    assert main(["transport", "--p", "2", "--betti", "-1,0"]) == 1
    assert capsys.readouterr().err.endswith(
        "error: Betti numbers must be nonnegative, got (-1, 0)\n"
    )


def test_prove_default_fixture(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["prove", "--out", str(out)]) == 0
    data = json.loads(out.read_bytes())
    assert len(data["certificates"]) == 4 * 6 * 21
    stdout = capsys.readouterr().out
    assert re.fullmatch(
        r"contradicted 504 \(candidate, prime, t\) triples in [0-9]+\.[0-9]{3}s: "
        r"LefschetzMismatch=504, Table1Exclusion=0\n"
        rf"wrote json report to {re.escape(str(out))}\n",
        stdout,
    )


def test_prove_flags_and_formats(tmp_path):
    src = tmp_path / "one.csv"
    src.write_text("b2,b3\n4,32\n")
    out_csv = tmp_path / "report.csv"
    assert main(
        ["prove", "--candidates", str(src), "--primes", "2,3", "--t-max", "1",
         "--out", str(out_csv), "--format", "csv"]
    ) == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 4  # header + 2 primes * 2 t-values
    assert all("Table1Exclusion" in line for line in lines[1:])
    out_md = tmp_path / "report.md"
    assert main(
        ["prove", "--candidates", str(src), "--primes", "2", "--t-max", "0",
         "--out", str(out_md), "--format", "md"]
    ) == 0
    assert out_md.read_text().startswith("# Contradiction certificates")


def test_prove_rejects_bad_sweep_parameters(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["prove", "--primes", "4", "--out", str(out)]) == 1
    assert main(["prove", "--t-max", "-1", "--out", str(out)]) == 1
    assert main(["prove", "--primes", "2;3", "--out", str(out)]) == 1
    # a negative list reaches its parser
    assert main(["prove", "--primes", "-2,3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith("error: not a prime: -2\n")
    # more certificates than len() can count
    assert main(["prove", "--t-max", "100000000000000000000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceed sys.maxsize" in err
    # past the bound where Miller-Rabin on bases 2..41 is proven exact
    assert main(["prove", "--primes", "3317044064679887385961981", "--out", str(out)]) == 1
    assert "exact only below" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["prove", "--primes", "2,,3"],
        ["prove", "--primes", "2,3,"],
        ["prove", "--primes", "1_1"],
        ["prove", "--primes", "\u0663"],  # ARABIC-INDIC DIGIT THREE
        ["prove", "--primes", "2,\x0c3"],
        ["prove", "--t-max", "1_0"],
        ["prove", "--t-max", ""],
        ["rr", "--c4", "1_08", "--lambda", "1"],
        ["rr", "--c4", "\uff11\uff10\uff18", "--lambda", "1"],  # fullwidth 108
        ["transport", "--p", "\u0662", "--betti", "23,0"],
        ["transport", "--p", "2", "--m", "0_0", "--betti", "23,0"],
        ["transport", "--p", "2", "--k", "\u00a00", "--betti", "23,0"],
        ["transport", "--p", "2", "--t", "+", "--betti", "23,0"],
        ["transport", "--p", "2", "--betti", "2_3,0"],
        ["transport", "--p", "2", "--betti", "23,"],
        ["transport", "--p", "2", "--betti", "1,2,3"],
        # a list that starts with a minus sign reaches its parser
        ["transport", "--p", "2", "--betti", "-1,,0"],
        ["prove", "--primes", "-2,,3"],
    ],
)
def test_cli_integers_follow_candidate_grammar(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    if argv[0] == "prove":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expects" in err
    assert not out.exists()


def test_cli_integers_allow_blanks_around_items(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(
        ["prove", "--primes", " 2 ,\t3 ", "--t-max", " 1 ", "--out", str(out),
         "--format", "csv"]
    ) == 0
    assert len(out.read_text().splitlines()) == 1 + 4 * 2 * 2
    assert main(["transport", "--p", " 2", "--t", "+0", "--betti", " 23 , 0 "]) == 0
    assert "bY = 1,0,23,0,276,0,23,0,1" in capsys.readouterr().out


def test_prove_rejects_empty_and_duplicate_primes(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["prove", "--primes", "", "--out", str(out)]) == 1
    assert main(["prove", "--primes", "2,2", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "at least one prime" in err and "duplicate" in err


def test_prove_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["prove", "--out", str(out1)]) == 0
    assert main(["prove", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_filter_command(tmp_path, capsys):
    src = tmp_path / "pairs.csv"
    src.write_text("b2,b3\n23,0\n0,48\n")
    out = tmp_path / "filter.json"
    assert main(["filter", "--candidates", str(src), "--out", str(out)]) == 0
    data = json.loads(out.read_bytes())
    assert [r["accepted"] for r in data["records"]] == [True]
    assert len(data["invalid_rows"]) == 1


def test_filter_summary_counts_flagged_rows(tmp_path, capsys):
    src = tmp_path / "flagged.csv"
    src.write_text(FLAGGED_ROWS)
    out = tmp_path / "filter.json"
    assert main(["filter", "--candidates", str(src), "--out", str(out)]) == 0
    assert len(json.loads(out.read_bytes())["invalid_rows"]) == 5
    assert f"wrote filter report for 8 rows to {out}" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["filter", "--out", "x.json"], ["table1"], ["rr", "--c4", "324", "--lambda", "0"],
])
def test_square_class_table_disagreeing_with_isqrt_exits_2(command, tmp_path, monkeypatch,
                                                          capsys):
    from hk4verify import riemann_roch

    table = dict(riemann_roch.SQUARE_CLASSES)
    del table[324]  # the fixture's (23, 0) has c4 = 324
    monkeypatch.setattr(riemann_roch, "SQUARE_CLASSES", table)
    monkeypatch.chdir(tmp_path)
    assert main(command) == 2
    assert capsys.readouterr().err == (
        "verification failed: square_class fails at c4 = 324: isqrt gives s = 540, "
        "the divisor table s = None\n"
    )
    assert sorted(tmp_path.iterdir()) == []


def test_verification_failure_exits_2(tmp_path, monkeypatch, capsys):
    from hk4verify.pipeline import VerificationError

    def broken(*args, **kwargs):
        raise VerificationError("forced failure")

    monkeypatch.setattr("hk4verify.pipeline.prove", broken)  # prove imports it per call
    assert main(["prove", "--out", str(tmp_path / "x.json")]) == 2
    assert "verification failed" in capsys.readouterr().err
    monkeypatch.undo()
    # a real broken identity: the message names the identity, nothing else
    monkeypatch.setattr("hk4verify.pipeline.lefschetz_euler_fixed", lambda pr: pr.t)
    argv = ["prove", "--primes", "2", "--t-max", "1", "--out", str(tmp_path / "y.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "verification failed: chi_top_fixed_locus fails on polynomials: "
        "Poly({('t',): 1}) != Poly({('m',): 1, ('k',): 24})\n"
    )
    assert sorted(tmp_path.iterdir()) == []  # no report file, not even an empty one


def test_a_b_w_that_is_not_a_4_fold_table_exits_2(tmp_path, monkeypatch, capsys):
    # b5 and b6 off by 2(p - 1)t: every named identity holds, and BettiTable
    # refuses b(X) + c at b2 = b3 = 0, on any input and at --t-max 0
    monkeypatch.setattr("hk4verify.pipeline.transport_betti", _broken_transport_duality)
    assert main(["prove", "--t-max", "0", "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        "verification failed: betti_W fails on polynomials: Poincare duality fails: "
        "(1, 0, 1, 4, 52, 6, 3, 0, 1)\n"
    )
    assert sorted(tmp_path.iterdir()) == []  # no report file


def test_a_b_w_that_goes_negative_past_t_max_exits_2(tmp_path, monkeypatch, capsys):
    # the torus term subtracted twice: b(W) goes negative as t grows
    monkeypatch.setattr("hk4verify.pipeline.transport_betti", _broken_transport_negative)
    assert main(["prove", "--t-max", "0", "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        "verification failed: betti_W fails on polynomials: "
        "b(X) + (p - 1)*t*(0, 0, -1, -4, -6, -4, -1, 0, 0) goes negative as t grows\n"
    )
    assert sorted(tmp_path.iterdir()) == []  # no report file


def test_prove_writes_the_pinned_report_on_b2_le_9_region(tmp_path):
    # 56.5 MB in 88 chunks; the same sha256 as emit_report's in test_pipeline
    src = tmp_path / "pairs.csv"
    src.write_text(_region_text(9))
    out = tmp_path / "r.json"
    assert main(["prove", "--candidates", str(src), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "47d7eb70d1984bd226824abdbf51eca46bdf75f2e45616768af854696d1c9e97"
    )


def test_filter_writes_emit_filter_report_on_b2_le_30_region(tmp_path):
    text = _region_text(30) + "0,48\n"  # 3,069 records and a flagged row
    src = tmp_path / "pairs.csv"
    src.write_text(text)
    out = tmp_path / "filter.json"
    assert main(["filter", "--candidates", str(src), "--out", str(out)]) == 0
    cf = parse_candidates(text, path=str(src))
    assert len(list(filter_report_chunks(cf))) > 1
    assert out.read_bytes() == emit_filter_report(cf)


def test_module_entry_point(tmp_path):
    out = tmp_path / "report.json"
    result = subprocess.run(
        [sys.executable, "-m", "hk4verify", "prove", "--primes", "2",
         "--t-max", "0", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert out.exists()
    result = subprocess.run(
        [sys.executable, "-m", "hk4verify", "rr", "--c4", "324", "--lambda", "x"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1


def test_version_matches_pyproject():
    # reports embed hk4verify._version; package metadata reads pyproject.toml
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (declared,) = re.findall(r'^version = "([^"]*)"$', pyproject.read_text(), re.M)
    assert hk4verify._version.__version__ == declared


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # each sits on every CLI call's start-up path once any module imports it
    code = (
        "import sys, hk4verify.cli; "
        "names = {'csv', 'dataclasses', 'inspect', 'pathlib'}; "
        "print(sorted(names & sys.modules.keys()))"
    )
    src = Path(hk4verify.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"


def test_filter_and_table1_import_neither_the_sweep_nor_quotient(tmp_path):
    # filter and table1 import hk4verify.candidates; only prove imports the
    # sweep, and only prove and transport import quotient
    out = tmp_path / "r.json"
    code = (
        "import sys, hk4verify.cli as cli; "
        "names = {'hk4verify.pipeline', 'hk4verify.quotient'}; "
        "seen = [sorted(names & sys.modules.keys())]; "
        f"cli.main(['filter', '--out', {str(out)!r}]); "
        "cli.main(['table1', '--format', 'json']); "
        "seen.append(sorted(names & sys.modules.keys())); "
        f"cli.main(['prove', '--t-max', '0', '--out', {str(out)!r}]); "
        "seen.append(sorted(names & sys.modules.keys())); "
        "print(seen, file=sys.stderr)"
    )
    src = Path(hk4verify.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    both = ["hk4verify.pipeline", "hk4verify.quotient"]
    assert result.stderr == f"{[[], [], both]}\n"


def test_readme_pipeline_names_are_the_candidates_objects():
    from hk4verify import candidates, pipeline

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"`pipeline\.(\w+)", readme))
    moved = {name for name in named if hasattr(candidates, name)}
    assert {"parse_candidates", "table1"} <= moved
    for name in named:
        assert hasattr(pipeline, name), name
    for name in moved | {"load_candidates", "filter_report_chunks", "emit_filter_report",
                         "CandidateFile", "CandidateRow", "VerificationError"}:
        assert getattr(pipeline, name) is getattr(candidates, name), name


@pytest.mark.parametrize("command", ["table1", "filter", "prove"])
def test_candidates_that_are_not_utf8_exit_1_naming_the_file(command, tmp_path, capsys):
    src = tmp_path / "pairs.csv"
    src.write_bytes(b"\xef\xbb\xbfb2,b3\n23,0\n\xff,0\n")
    out = tmp_path / "out"
    argv = [command, "--candidates", str(src)]
    assert main(argv if command == "table1" else [*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {src}:3: not UTF-8 text: invalid start byte at byte 14\n"
    )
    assert not out.exists()


def test_candidates_integer_field_over_the_digit_limit_exits_1_naming_the_line(
    tmp_path, capsys
):
    limit = sys.get_int_max_str_digits()
    src = tmp_path / "pairs.csv"
    src.write_text("b2,b3\n23,0\n7," + "8" * (limit + 1) + "\n")
    assert main(["prove", "--candidates", str(src), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        f"error: {src}:3: integer field longer than {limit} digits\n"
    )


def test_candidates_with_a_utf8_bom_are_accepted(tmp_path, capsys):
    raw = b"\xef\xbb\xbf" + FOUR_PAIRS.encode()
    src = tmp_path / "pairs.csv"
    src.write_bytes(raw)
    assert main(["table1", "--candidates", str(src), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "1,828,324,23,0", "2,756,108,7,8", "3,756,108,6,4", "4,756,108,5,0",
    ]
    out = tmp_path / "r.json"
    assert main(["prove", "--candidates", str(src), "--out", str(out)]) == 0
    digest = json.loads(out.read_bytes())["input_digest"]
    assert digest == "sha256:" + hashlib.sha256(raw).hexdigest()
