"""Mutation check for tier-1: each mutant breaks one constant, check or step
in src/hk4verify that the tests must catch.

    python tests/mutants.py

For each (file, old, new, why) mutant, src/ is copied to a fresh temporary
directory, ``old`` is replaced by ``new`` in the copy, and tier-1 runs with
-x against the copy; the mutant is killed when a test fails.  The unmutated
copy runs first and must pass, so a broken environment cannot pass for a
kill.  Each mutant's run is stopped after ten times the unmutated run's time
(at least 60 s) and counted as killed, so a mutant that makes the program
loop forever cannot hang the check.  Exits 1 if a mutant survives or if an
``old`` text does not occur exactly once in its file.  Stdlib only; pytest
does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

MUTANTS = [
    (
        "topology.py",
        "TORUS2_BETTI = (1, 4, 6, 4, 1)",
        "TORUS2_BETTI = (1, 4, 5, 4, 1)",
        "torus b2 6 -> 5",
    ),
    (
        "topology.py",
        "K3_BETTI = (1, 0, 22, 0, 1)",
        "K3_BETTI = (1, 0, 21, 0, 1)",
        "K3 b2 22 -> 21",
    ),
    (
        "quotient.py",
        "scale = profile.p - 1",
        "scale = profile.p",
        "transport_betti scales by p instead of p - 1",
    ),
    (
        "topology.py",
        "        if b[3] % 2 != 0:\n"
        '            raise ValueError(f"odd b3 = {b[3]} is impossible on a '
        'hyperkahler 4-fold")\n',
        "",
        "BettiTable drops the odd-b3 check",
    ),
    (
        "topology.py",
        "        if len(b) != 9:\n"
        '            raise ValueError(f"9 Betti numbers expected, got {len(b)}")\n',
        "",
        "BettiTable drops the nine-entry check",
    ),
    (
        "topology.py",
        "        if any(type(x) is not int for x in b):\n"
        '            raise ValueError(f"Betti numbers must be int, got {b}")\n',
        "",
        "BettiTable drops the int-entry check",
    ),
    (
        "pipeline.py",
        "        BettiTable(map(add, betti_numbers(0, 0), c))",
        "        tuple(map(add, betti_numbers(0, 0), c))",
        "the preflight takes b(X) + c without checking it is a 4-fold's table",
    ),
    (
        "pipeline.py",
        "        if type(p) is not int or not is_prime(p):\n",
        "        if not is_prime(p):\n",
        "prove takes a prime that equals an int, such as 2.0",
    ),
    (
        "quotient.py",
        "    if type(p) is not int or not is_prime(p):\n",
        "    if not is_prime(p):\n",
        "FixedLocusProfile takes a prime that equals an int, such as 2.0",
    ),
    (
        "quotient.py",
        "        if any(type(n) is not int for n in (m, k, t)):\n"
        '            raise ValueError(f"component counts must be int: {self}")\n',
        "",
        "FixedLocusProfile drops the int-count check",
    ),
    (
        "quotient.py",
        "        if m < 0 or k < 0 or t < 0:\n"
        '            raise ValueError(f"component counts must be nonnegative: {self}")\n',
        "",
        "FixedLocusProfile drops the nonnegative-count check",
    ),
    (
        "riemann_roch.py",
        "    if accepted != bool(lambda_roots):\n"
        '        raise ValueError("accepted must mirror root-set nonemptiness")\n',
        "",
        "CandidateRecord drops the accepted-mirrors-roots check",
    ),
    (
        "quotient.py",
        "29, 31, 37, 41)",
        "29, 31, 37)",
        "Miller-Rabin drops base 41",
    ),
    (
        "candidates.py",
        "parts[start:start + _CHUNK_PIECES]",
        "parts[start:start + _CHUNK_PIECES - 1]",
        "a report chunk drops the last piece before its boundary",
    ),
    (
        "candidates.py",
        "parts[start:start + _CHUNK_PIECES]",
        "parts[start:start + _CHUNK_PIECES + 1]",
        "a report chunk repeats the first piece after its boundary",
    ),
    (
        "pipeline.py",
        "x + s * t for x, s in",
        "x + s * (t + 1) for x, s in",
        "betti_W is expanded with the slope taken at t + 1",
    ),
    (
        "riemann_roch.py",
        "    n = u * (u - 2592)\n",
        "    n = u * (u - 2590)\n",
        "square_class: 2592 -> 2590",
    ),
    (
        "exact.py",
        "int(q or 1)",
        "int(q or 2)",
        "parse_rational reads a bare integer as a half",
    ),
    (
        "cli.py",
        'r"^-[0-9]"',
        'r"^-[0-9]+$"',
        "a negative list such as -1,0 is taken for an option string",
    ),
    (
        "candidates.py",
        "            if first != lineno:\n"
        "                flagged.append(CandidateRow(lineno, b2, b3, "
        'f"duplicate of line {first}"))\n'
        "                continue\n",
        "",
        "parse_candidates drops the duplicate-row check",
    ),
    (
        "candidates.py",
        " or body.translate(_DROP_DIGITS) != \",\\n\" * body.count(\"\\n\"):",
        ":",
        "the bulk reader drops its digit-deletion check, so JSON reads blanks and CR",
    ),
    (
        "candidates.py",
        'if body[-1:] != "\\n" or ',
        "if ",
        "the bulk reader reads a last line with no LF",
    ),
    (
        "candidates.py",
        "    if len(set(lines)) != len(lines):  # one spelling per pair, so a duplicate\n"
        "        return None\n",
        "",
        "the bulk reader drops the line-set duplicate check",
    ),
    (
        "candidates.py",
        "        for b3 in set(b3s):\n            admissible_b4(top, b3)\n",
        "",
        "the bulk reader asks admissible_b4 about no b3, so an odd b3 passes",
    ),
    (
        "candidates.py",
        "admissible_b4(top, b3)",
        "admissible_b4(0, b3)",
        "the bulk reader asks about each b3 at b2 = 0, so b3 > 46 leaves the bulk path",
    ),
    (
        "candidates.py",
        "if min(map(sub, map(base.__getitem__, b2s), b3s)) < 0:",
        "if max(map(sub, map(base.__getitem__, b2s), b3s)) < 0:",
        "the bulk reader checks the pair with the largest forced b4, not the least",
    ),
    (
        "candidates.py",
        "map(base.__getitem__, b2s), b3s)) < 0:",
        "map(base.__getitem__, b2s), b3s)) < -2:",
        "the bulk reader reads a pair that forces b4 = -2 (b4 is even)",
    ),
    (
        "candidates.py",
        "range(first, first + len(b2s))",
        "range(first + 1, first + 1 + len(b2s))",
        "the bulk reader numbers its rows from one line too late",
    ),
    (
        "topology.py",
        "    if type(b2) is not int or type(b3) is not int:\n"
        '        raise InadmissiblePairError(f"Betti numbers must be int, '
        'got ({b2!r}, {b3!r})")\n',
        "",
        "admissible_b4 takes a float pair",
    ),
    (
        "pipeline.py",
        "    if type(t_max) is not int or t_max < 0:\n",
        "    if t_max < 0:\n",
        "prove takes a t_max that equals an int, such as 2.0",
    ),
    (
        "pipeline.py",
        "        if admits_zero_chi(c4_W):\n",
        "        if False:\n",
        "verify_certificate drops the zero-chi check, prove's only one",
    ),
    (
        "pipeline.py",
        '{"chi_top_X": c4, **d} for d in fixed.values()',
        '{"chi_top_X": c4, **fixed[min(fixed)]} for d in fixed.values()',
        "the details of one prime leak into another prime's runs with equal chi_top(X)",
    ),
    (
        "pipeline.py",
        "classes.setdefault(c4, groups[-1])",
        "classes[c4] = groups[-1]",
        "prove verifies each c4 on its last candidate in file order, not its first",
    ),
    (
        "pipeline.py",
        "        admissible_b4(b2, b3)  # refuses the pairs betti_from_pair refuses\n",
        "",
        "prove drops the input check of a candidate with c4 != 0",
    ),
    (
        "pipeline.py",
        "        if g.branch not in templates:\n"
        "            templates[g.branch] = _template(g, prime_t, render_tail)\n"
        "        pieces, step, steps = templates[g.branch]\n",
        "        if None not in templates:\n"
        "            templates[None] = _template(g, prime_t, render_tail)\n"
        "        pieces, step, steps = templates[None]\n",
        "the templates are keyed on a constant, so both branches share the first one",
    ),
    (
        "pipeline.py",
        "[prime_t % (p, t) for t in g.ts]",
        "[prime_t % (min(g.primes), t) for t in g.ts]",
        "the prime and t texts are built without the prime",
    ),
    (
        "pipeline.py",
        'sorted(certs._groups, key=attrgetter("candidate"))',
        "list(certs._groups)",
        "the writer keeps the groups in file order",
    ),
    (
        "pipeline.py",
        "[[x * t for x in column for t in g.ts] for column in zip(*slopes)]",
        "[[x * t for t in g.ts for x in column] for column in zip(*slopes)]",
        "the column-wise b(W) runs t-major, not in the block's prime-major order",
    ),
    (
        "pipeline.py",
        "rows[start + 3::step] = [b\"%d\"",
        "rows[start + 2::step] = [b\"%d\"",
        "chi_top_X is written over the tail piece before its slot",
    ),
    (
        "pipeline.py",
        "rows[start + 5::step] = map(",
        "rows[start + 3::step] = map(",
        "b(W) is written into chi_top_X's slot",
    ),
    (
        "pipeline.py",
        "        if len(tail) == 3:  # split at chi_top_X and at b(W)\n",
        "        if len(tail) >= 2:  # split at chi_top_X and at b(W)\n",
        "the csv and md templates take b(W) columns they have no slot for",
    ),
    (
        "pipeline.py",
        "        return self.ts.start\n",
        "        return self.ts[-1]\n",
        "a run's failure is placed at its last t",
    ),
    (
        "pipeline.py",
        "        if min(c) < 0:",
        "        if False:",
        "the preflight drops c >= 0, so b(W) may go negative as t grows",
    ),
    (
        "pipeline.py",
        '        ("chi_top_W", euler_characteristic(bW), c4 + 24 * q * k),\n',
        "",
        "the preflight drops the chi_top(W) identity",
    ),
    (
        "pipeline.py",
        '(("q", "t"), ("k", "q"))',
        '(("t",), ("k", "q"))',
        "the preflight reads b(W)'s slope off t, not q*t",
    ),
    (
        "exact.py",
        "isinstance(other, (Poly, int)) and self._terms == Poly.of(other)._terms",
        "True",
        "every Poly equals everything",
    ),
    (
        "exact.py",
        "{e: c for e, c in terms.items() if c}",
        "dict(terms)",
        "Poly keeps zero coefficients, so x - x != 0",
    ),
    (
        "candidates.py",
        "    return map(sub, map(_Memo(third).__getitem__, b2s), b3s)\n",
        "    return (k % 7 for k in map(sub, map(_Memo(third).__getitem__, b2s), b3s))\n",
        "the c4 column keys its classes on c4/3 % 7",
    ),
    (
        "candidates.py",
        "        return c4 // 3\n",
        "        return c4 // 3 + 16\n",
        "the c4 column counts the constant term twice",
    ),
    (
        "candidates.py",
        "        c4 = c4_from_betti(b2, 0)\n",
        "        c4 = c4_from_betti(b2, 2)\n",
        "the c4 column reads b2's term at b3 = 2",
    ),
    (
        "riemann_roch.py",
        "    _check_filter_values(*values)\n",
        "",
        "filter_c4 drops CandidateRecord's checks on a c4 class's integers",
    ),
    (
        "riemann_roch.py",
        "    if delta_sqrt is not None and delta_sqrt**2 != delta:\n",
        "    if False:\n",
        "the shared check drops delta_sqrt**2 == delta",
    ),
    (
        "topology.py",
        "ChernData(c2sq=(c4 + 2160) // 3, c4=c4)",
        "ChernData(c2sq=(c4 + 2159) // 3, c4=c4)",
        "chern_from_c4: 2160 -> 2159",
    ),
    (
        "candidates.py",
        "        return format_rational(value)\n",
        "        return str(value)\n",
        "a report Fraction is written by str, so an integer one loses its /1",
    ),
    (
        "candidates.py",
        '"," + _json_block(value, "    ")[1:]',
        '"," + _json_block(value, "    ")[0:]',
        "an item tail keeps its block's opening brace",
    ),
    (
        "pipeline.py",
        'b"%d" % g.details[0]["chi_top_X"]',
        'b"%d" % g.details[0]["chi_top_fixed_locus"]',
        "chi_top_X is filled from the fixed locus's chi_top",
    ),
    (
        "pipeline.py",
        '"hypotheses": hypotheses}',
        '"hypotheses": _HYPOTHESES_COMMON}',
        "a JSON tail writes the common hypotheses on either branch",
    ),
    (
        "pipeline.py",
        'shown = {**details, "chi_top_X": _SLOT}',
        'shown = {**g.details[0], "chi_top_X": _SLOT}',
        "a template writes its first prime's details for every prime",
    ),
    (
        "candidates.py",
        "    records[::3] = map(_Memo(_RECORD_HEAD_JSON.__mod__).__getitem__, b2s)\n"
        "    records[1::3] = map(_Memo(b\"%d\".__mod__).__getitem__, b3s)\n"
        "    records[2::3] = map(",
        "    records[2::3] = map(_Memo(_RECORD_HEAD_JSON.__mod__).__getitem__, b2s)\n"
        "    records[1::3] = map(_Memo(b\"%d\".__mod__).__getitem__, b3s)\n"
        "    records[::3] = map(",
        "a filter record writes its tail before its head",
    ),
    (
        "candidates.py",
        "    records[::3] = map(_Memo(_RECORD_HEAD_JSON.__mod__).__getitem__, b2s)\n"
        "    records[1::3] = map(",
        "    records[1::3] = map(_Memo(_RECORD_HEAD_JSON.__mod__).__getitem__, b2s)\n"
        "    records[::3] = map(",
        "a filter record writes its b3 text before its b2 head",
    ),
    (
        "pipeline.py",
        "zip(candidates.b2s, candidates.b3s)",
        "zip(candidates.b3s, candidates.b2s)",
        "prove sweeps (b3, b2) for each pair (b2, b3)",
    ),
    (
        "candidates.py",
        "shape = (s is None, len(roots), accepted)",
        "shape = (len(roots), accepted)",
        "the filter tail shape ignores whether delta_sqrt is None",
    ),
    (
        "pipeline.py",
        'b"%d,%d,", b"%d,%d"',
        'b"%d,%d;", b"%d,%d"',
        "the csv head ends its b3 cell with ';'",
    ),
    (
        "pipeline.py",
        '" " + _md_row(cells)',
        "_md_row(cells)",
        "the markdown tail drops the space after t",
    ),
    (
        "pipeline.py",
        "|--------|",
        "|-------:|",
        "the markdown certificate header right-aligns the branch column",
    ),
    (
        "candidates.py",
        '"%d,%d,%d,%d,%d\\n"',
        '"%d,%d,%d,%d;%d\\n"',
        "a table1 csv row joins b2 and b3 with ';'",
    ),
    (
        "candidates.py",
        "accepted.sort(reverse=True)",
        "accepted.sort()",
        "table1 sorts by increasing b2 and b3",
    ),
    (
        "riemann_roch.py",
        "for i in range(9) for j in range(9)",
        "for i in range(7) for j in range(9)",
        "the square classes skip the divisors with 2^7 (with 2^8 they pair with an odd e)",
    ),
    (
        "riemann_roch.py",
        "if d <= e and (e - d) % 2 == 0:",
        "if d <= e:",
        "the square classes take divisor pairs of unequal parity",
    ),
    (
        "riemann_roch.py",
        "for v in ((d + e) // 2, -(d + e) // 2):",
        "for v in ((d + e) // 2,):",
        "the square classes drop the negative v",
    ),
    (
        "riemann_roch.py",
        "-2 * (s + u)) if u else ()",
        "-2 * (s + u)) if u > 0 else ()",
        "the rootless exclusion takes every c4 >= 3024, not c4 = 3024 alone",
    ),
    (
        "riemann_roch.py",
        "    if s != s_table:\n",
        "    if False:\n",
        "square_class drops the isqrt-against-table check",
    ),
    (
        "candidates.py",
        "c4 % 3 or c4_from_betti(b2, 1) - c4 != -3:",
        "c4 % 3:",
        "the c4 column drops the check of c4_from_betti's -3 on b3",
    ),
    (
        "candidates.py",
        "c4 % 3 or c4_from_betti(b2, 1) - c4 != -3:",
        "c4_from_betti(b2, 1) - c4 != -3:",
        "the c4 column drops the check that 3 divides c4_from_betti(b2, 0)",
    ),
    (
        "candidates.py",
        "tails = _Memo(lambda third: _record_tail(shapes, 3 * third))",
        "tails = _Memo(lambda third: _record_tail(shapes, third))",
        "a class is derived at c4/3, not c4",
    ),
    (
        "exact.py",
        "    g = math.gcd(p, q)\n",
        "    g = 1\n",
        "format_ratio writes p/q unreduced",
    ),
    (
        "riemann_roch.py",
        "roots = sorted({Fraction(top, u) for top in tops})",
        "roots = list({Fraction(top, u) for top in tops})",
        "the square classes leave their roots unsorted",
    ),
]


def tier1(src: Path, cwd: Path, timeout: float | None) -> int | None:
    """pytest's exit code for tier-1 with -x, importing hk4verify from
    ``src``; run in ``cwd`` so that the hypothesis database stays there.
    None if the run took longer than ``timeout`` seconds and was stopped."""
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", str(REPO / "tests"),
    ]
    with subprocess.Popen(
        command, cwd=cwd, env=env, stdout=subprocess.DEVNULL, start_new_session=True
    ) as pytest:
        try:
            return pytest.wait(timeout)
        except subprocess.TimeoutExpired:  # stop pytest and the CLI runs it started
            os.killpg(pytest.pid, signal.SIGKILL)
            pytest.wait()
            return None


def run(
    mutant: tuple[str, str, str, str] | None = None, timeout: float | None = None
) -> int | None:
    """tier1 on a fresh copy of src/, with ``mutant`` applied if given; -1
    if the mutant's old text does not occur exactly once in its file."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            name, old, new, _ = mutant
            path = src / "hk4verify" / name
            text = path.read_text()
            if text.count(old) != 1:
                return -1
            path.write_text(text.replace(old, new))
        return tier1(src, Path(tmp), timeout)


def main() -> int:
    start = time.monotonic()
    code = run()
    if code != 0:
        print(f"the unmutated copy fails tier-1 (pytest exit {code})")
        return 1
    limit = max(60.0, 10 * (time.monotonic() - start))
    killed = 0
    for mutant in MUTANTS:
        code = run(mutant, limit)
        if code is None:
            verdict = f"killed (timed out after {limit:.0f} s)"
            killed += 1
        elif code == -1:
            verdict = "OLD TEXT NOT FOUND ONCE"
        elif code == 1:  # the tests ran and one failed
            verdict = "killed"
            killed += 1
        else:
            verdict = f"NOT KILLED (pytest exit {code})"
        print(f"{verdict}: {mutant[0]}: {mutant[3]}", flush=True)
    minutes, seconds = divmod(round(time.monotonic() - start), 60)
    print(f"{killed}/{len(MUTANTS)} mutants killed in {minutes} min {seconds} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
