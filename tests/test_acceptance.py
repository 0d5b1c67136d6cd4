"""Acceptance suite: one test per exit criterion, exact tolerances, with a
PASS/FAIL line printed per criterion (run with `pytest -s` to see them)."""

import functools
import json
import random
import time
from fractions import Fraction as F

from hk4verify.cli import main as cli_main
from hk4verify.exact import rational_sqrt_exact
from hk4verify.pipeline import (
    Branch,
    DEFAULT_PRIMES,
    DEFAULT_T_MAX,
    builtin_candidates,
    load_candidates,
    parse_candidates,
    prove,
    table1,
    verify_certificate,
)
from hk4verify.quotient import (
    FixedLocusProfile,
    is_prime,
    solve_mk,
    transport_betti,
)
from hk4verify.riemann_roch import admits_zero_chi, delta, rr_chi_hk
from hk4verify.topology import (
    betti_from_pair,
    chern_from_betti,
    euler_characteristic,
    salamon_defect,
)
from oracles import rr_chi_full

FOUR_PAIRS = "b2,b3\n23,0\n7,8\n6,4\n5,0\n"


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL [{num}] {title}")
                raise
            print(f"ACCEPTANCE PASS [{num}] {title}")

        return wrapper

    return decorate


@criterion(1, "table1 emits exactly the four accepted rows in < 0.1 s")
def test_criterion_1_table_rows():
    started = time.perf_counter()
    rendered = table1(parse_candidates(FOUR_PAIRS), "csv")
    elapsed = time.perf_counter() - started
    assert rendered == (
        "no,c2sq,c4,b2,b3\n"
        "1,828,324,23,0\n"
        "2,756,108,7,8\n"
        "3,756,108,6,4\n"
        "4,756,108,5,0\n"
    )
    assert elapsed < 0.1, f"table1 took {elapsed:.3f}s"


@criterion(2, "discriminant values and square roots are exact")
def test_criterion_2_discriminants():
    assert delta(324) == F(25, 64)
    assert rational_sqrt_exact(delta(324)) == F(5, 8)
    assert delta(108) == F(81, 64)
    assert rational_sqrt_exact(delta(108)) == F(9, 8)
    assert delta(0) == F(7, 4)
    assert rational_sqrt_exact(delta(0)) is None


@criterion(3, "rational root sets match by exact set equality")
def test_criterion_3_root_sets():
    assert admits_zero_chi(324) == {F(-8, 5), F(-12, 5)}
    assert admits_zero_chi(108) == {F(-4, 3), F(-8, 3)}
    assert admits_zero_chi(0) == set()
    assert admits_zero_chi(3024) == set()


@criterion(4, "identity suite holds exactly on >= 10^4 instances per identity")
def test_criterion_4_identity_suite():
    # 3*c2sq - c4 == 2160, and euler(betti_from_pair) == c4 where admissible
    chern_instances = 0
    euler_instances = 0
    for b2 in range(101):
        for b3 in range(0, 221, 2):
            chern = chern_from_betti(b2, b3)
            assert 3 * chern.c2sq - chern.c4 == 2160
            chern_instances += 1
            if 46 + 10 * b2 - b3 >= 0:
                assert euler_characteristic(betti_from_pair(b2, b3)) == chern.c4
                euler_instances += 1
    assert chern_instances >= 10_000
    assert euler_instances >= 10_000

    # the two Riemann-Roch forms agree under the hyperkahler constraint
    rng = random.Random(20260810)
    pool = [F(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(200)]
    agreement_instances = 0
    for b2 in range(61):
        for b3 in range(61):
            chern = chern_from_betti(b2, b3)
            base = b2 * 61 + b3
            for offset in (0, 67, 131):
                lam = pool[(base + offset) % 200]
                assert rr_chi_full(chern.c2sq, chern.c4, F(3), lam) == rr_chi_hk(
                    chern.c4, lam
                )
                agreement_instances += 1
    assert agreement_instances >= 10_000

    # closed form of the discriminant, and chi at lambda = 0, on the sweep
    zero = F(0)
    for c4 in range(-100_000, 100_001):
        assert delta(c4) == F((c4 - 1728) ** 2 - 1296**2, 746496)
        assert rr_chi_hk(c4, zero) == F(3)


@criterion(5, "transport: degree 2-4 closed forms, defect 12k(p-1), euler +24k(p-1)")
def test_criterion_5_transport_suite():
    pairs = [(23, 0), (7, 8), (6, 4), (5, 0), (4, 32), (0, 0)]
    checked = 0
    for b2, b3 in pairs:
        bY = betti_from_pair(b2, b3)
        assert salamon_defect(bY) == 0
        eY = euler_characteristic(bY)
        for p in (2, 3, 5, 7, 11):
            for k in range(11):
                for t in range(11):
                    bW = transport_betti(bY, FixedLocusProfile(p=p, m=0, k=k, t=t))
                    assert bW[2] == bY[2] + (p - 1) * (k + t)
                    assert bW[3] == bY[3] + 4 * (p - 1) * t
                    assert bW[4] == bY[4] + (p - 1) * (22 * k + 6 * t)
                    assert salamon_defect(bW) == 12 * k * (p - 1)
                    assert euler_characteristic(bW) == eY + 24 * k * (p - 1)
                    checked += 1
    assert checked == len(pairs) * 5 * 11 * 11


@criterion(6, "(m + 12k)(p-1) = 0 has only (0, 0): brute force to p <= 97")
def test_criterion_6_solve_mk_oracle():
    primes = [p for p in range(2, 98) if is_prime(p)]
    assert len(primes) == 25
    for p in primes:
        solutions = {
            (m, k)
            for m in range(101)
            for k in range(101)
            if (m + 12 * k) * (p - 1) == 0
        }
        assert solutions == {(0, 0)}
        assert solve_mk(p) == solutions.pop()


@criterion(7, "prove contradicts every (candidate, p, t) triple in < 1 s, exit 0")
def test_criterion_7_contradiction_pipeline(tmp_path):
    started = time.perf_counter()
    certs = prove(builtin_candidates(), DEFAULT_PRIMES, DEFAULT_T_MAX)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"prove took {elapsed:.3f}s"
    assert len(certs) == 4 * len(DEFAULT_PRIMES) * (DEFAULT_T_MAX + 1)
    for cert in certs:
        verify_certificate(cert)
        assert cert.branch is Branch.LEFSCHETZ_MISMATCH
        assert cert.details["chi_top_X"] in (324, 108)

    report = tmp_path / "report.json"
    assert cli_main(["prove", "--out", str(report)]) == 0
    assert len(json.loads(report.read_bytes())["certificates"]) == len(certs)

    # synthetic chi_top = 0 candidate exercises the exclusion branch
    synthetic = tmp_path / "synthetic.csv"
    synthetic.write_text("b2,b3\n4,32\n")
    exclusions = prove(load_candidates(synthetic), DEFAULT_PRIMES, DEFAULT_T_MAX)
    assert len(exclusions) == len(DEFAULT_PRIMES) * (DEFAULT_T_MAX + 1)
    for cert in exclusions:
        verify_certificate(cert)
        assert cert.branch is Branch.TABLE1_EXCLUSION
        assert cert.details["chi_top_X"] == 0
        assert cert.details["c4_W"] == 0
        assert cert.details["delta"] == F(7, 4)
        assert cert.details["delta_sqrt"] is None
        assert cert.details["lambda_roots"] == ()


@criterion(8, "two consecutive prove runs emit byte-identical reports")
def test_criterion_8_determinism(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(["prove", "--out", str(first)]) == 0
    assert cli_main(["prove", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    for fmt, suffix in (("csv", "csv"), ("md", "md")):
        a = tmp_path / f"a.{suffix}"
        b = tmp_path / f"b.{suffix}"
        assert cli_main(["prove", "--format", fmt, "--out", str(a)]) == 0
        assert cli_main(["prove", "--format", fmt, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
