"""Self-tests of the benchmark: generators, oracle and output contract.

Run from the repository root with `python3 -m pytest -q perfbench`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from replay import PER_LAYER
from workloads import WORKLOADS, admissible_region, c4_zero_line

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _accepted(pairs) -> int:
    return sum(oracle.is_accepted(oracle.c4_of(b2, b3)) for b2, b3 in pairs)


def test_region_sizes_and_acceptance():
    region23, region200 = admissible_region(23), admissible_region(200)
    assert len(region23) == 1956
    assert len(region200) == 105324
    assert sum(oracle.c4_of(*p) == 0 for p in region23) == 24
    assert _accepted(region23) == 49
    assert _accepted(region200) == 1513
    region9 = admissible_region(9)
    assert len(region9) == 465
    assert sum(oracle.c4_of(*p) == 0 for p in region9) == 10


def test_c4_zero_line_is_all_exclusion():
    pairs = c4_zero_line(500)
    assert len(set(pairs)) == 500
    assert all(oracle.c4_of(*p) == 0 for p in pairs)
    assert oracle.expected_branch_counts(pairs) == {
        oracle.LEFSCHETZ: 0, oracle.EXCLUSION: 63000
    }
    assert oracle.expected_branch_counts(admissible_region(23)) == {
        oracle.LEFSCHETZ: 243432, oracle.EXCLUSION: 3024
    }
    assert oracle.expected_branch_counts(admissible_region(9)) == {
        oracle.LEFSCHETZ: 57330, oracle.EXCLUSION: 1260
    }


def test_seed_shuffles_rows_only():
    wl = WORKLOADS["region23-prove-json"]
    a, b = wl.candidate_text(1), wl.candidate_text(2)
    assert a == wl.candidate_text(1)
    assert a != b
    rows = lambda text: [ln for ln in text.splitlines() if ln and ln[0].isdigit()]
    assert rows(a) != rows(b)
    assert sorted(rows(a)) == sorted(rows(b))
    assert len(rows(a)) == len(wl.pairs)


def test_oracle_closed_forms():
    assert oracle.fmt(oracle.delta_of(0)) == "7/4"
    assert oracle.fmt(oracle.delta_of(324)) == "25/64"
    assert oracle.fmt(oracle.delta_of(108)) == "81/64"
    assert not oracle.is_accepted(0)
    assert oracle.delta_numerator(3024) == 0  # a square, yet chi is the constant 3
    assert not oracle.is_accepted(3024)
    assert [oracle.fmt(r) for r in oracle.lambda_roots(324)] == ["-12/5", "-8/5"]


# ---------------------------------------------------------------------------
# The oracle against real reports, and against tampered copies of them.

PAIRS = [(0, 16), (23, 0), (7, 8), (1, 20), (2, 4)]  # (0,16), (1,20) have c4 = 0


def _report(tmp_path: Path, fmt: str) -> tuple[str, str]:
    cand = tmp_path / "cand.csv"
    cand.write_text("b2,b3\n" + "".join(f"{a},{b}\n" for a, b in PAIRS))
    out = tmp_path / f"report.{fmt}"
    if fmt == "filter":
        args = ["filter", "--candidates", str(cand), "--out", str(out)]
    else:
        args = ["prove", "--candidates", str(cand), "--out", str(out), "--format", fmt]
    subprocess.run(
        [sys.executable, "-m", "hk4verify", *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True, capture_output=True,
    )
    return out.read_text(), oracle.sha256_file(cand)


def _replace_once(text: str, old: str, new: str, start: str = "") -> str:
    i = text.index(old, text.index(start) if start else 0)
    return text[:i] + new + text[i + len(old):]


@pytest.mark.parametrize("fmt", ["json", "md", "filter"])
def test_oracle_accepts_real_report(tmp_path, fmt):
    text, digest = _report(tmp_path, fmt)
    assert oracle.check_report(fmt, text, PAIRS, digest) == []


def test_oracle_rejects_tampered_prove_json(tmp_path):
    text, digest = _report(tmp_path, "json")
    check = lambda t: oracle.check_prove_json(t, PAIRS, digest)
    flipped = _replace_once(text, '"branch": "LefschetzMismatch"',
                            '"branch": "Table1Exclusion"', '"certificates"')
    assert any("branch" in p for p in check(flipped))
    altered = _replace_once(text, '"delta": "7/4"', '"delta": "7/5"')
    assert any("exclusion details" in p for p in check(altered))
    report = json.loads(text)
    del report["certificates"][17]
    dropped = json.dumps(report, indent=2)
    assert any("certificates, expected" in p for p in check(dropped))
    assert check(text.replace(digest, "sha256:" + "0" * 64))
    assert check(text[: len(text) // 2])


def test_oracle_rejects_tampered_prove_md(tmp_path):
    text, digest = _report(tmp_path, "md")
    check = lambda t: oracle.check_prove_md(t, PAIRS, digest)
    assert any("branch" in p for p in check(
        _replace_once(text, "| LefschetzMismatch |", "| Table1Exclusion |")))
    assert any("cells" in p for p in check(_replace_once(text, "| 7/4 |", "| 7/5 |")))
    lines = text.splitlines(keepends=True)
    row = next(i for i, ln in enumerate(lines) if ln.startswith("| 0 | 16 | 5 |"))
    assert any("certificates, expected" in p for p in check("".join(lines[:row] + lines[row + 1:])))
    swapped = lines[:row] + [lines[row + 1], lines[row]] + lines[row + 2:]
    assert any("out of order" in p for p in check("".join(swapped)))


def test_oracle_rejects_tampered_filter_report(tmp_path):
    text, digest = _report(tmp_path, "filter")
    check = lambda t: oracle.check_filter_json(t, PAIRS, digest)
    report = json.loads(text)
    report["records"][0]["delta"] = "7/5"
    assert check(json.dumps(report))
    report = json.loads(text)
    report["records"][1]["accepted"] = not report["records"][1]["accepted"]
    assert check(json.dumps(report))
    report = json.loads(text)
    del report["records"][2]
    assert any("no record" in p for p in check(json.dumps(report)))


# ---------------------------------------------------------------------------
# BENCHMARK.json and the printed result agree.

def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_match_the_replay():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_end_to_end_result_line(tmp_path):
    proc = _run(ROOT, "--workload", "c4zero-prove-md", "--seed", "5", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "c4zero-prove-md", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
