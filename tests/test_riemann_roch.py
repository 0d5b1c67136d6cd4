import math
import random
from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hk4verify import riemann_roch
from hk4verify.candidates import VerificationError
from hk4verify.exact import format_ratio, format_rational, rational_sqrt_exact
from hk4verify.riemann_roch import (
    SQUARE_CLASSES,
    CandidateRecord,
    admits_zero_chi,
    delta,
    evaluate_candidate,
    filter_c4,
    filter_candidates,
    rr_chi_hk,
    square_class,
    zero_chi,
)
from hk4verify.topology import chern_from_betti
from oracles import RRPolynomial, rr_chi_full


def test_rr_chi_full_values():
    assert rr_chi_full(828, 324, F(3), F(0)) == F(3)
    assert rr_chi_full(828, 324, F(3), F(-8, 5)) == F(0)
    assert rr_chi_full(756, 108, F(3), F(-4, 3)) == F(0)


def test_rr_chi_hk_values():
    assert rr_chi_hk(324, F(-12, 5)) == F(0)
    assert rr_chi_hk(108, F(1)) == F(231, 32)
    for lam in (F(0), F(1), F(-5, 7), F(100)):
        assert rr_chi_hk(3024, lam) == F(3)


def test_rr_chi_hk_matches_rational_reference_on_grid():
    lambdas = [F(n, d) for n in range(-30, 31, 3) for d in (1, 2, 5, 7, 12)]
    for c4 in list(range(-1500, 4001, 37)) + [0, 108, 324, 432, 3024]:
        poly = RRPolynomial.for_c4(c4)
        for lam in lambdas:
            assert rr_chi_hk(c4, lam) == poly.evaluate(lam)


def test_delta_values():
    assert delta(0) == F(7, 4)
    assert delta(324) == F(25, 64)
    assert delta(108) == F(81, 64)
    assert delta(3024) == F(0)


def test_delta_sqrt_values():
    assert rational_sqrt_exact(delta(324)) == F(5, 8)
    assert rational_sqrt_exact(delta(108)) == F(9, 8)
    assert rational_sqrt_exact(delta(0)) is None


def test_delta_closed_form_sweep():
    for c4 in range(-5000, 5001):
        assert delta(c4) == F((c4 - 1728) ** 2 - 1296**2, 746496)


def test_rr_forms_agree_under_hk_constraint():
    rng = random.Random(20260810)
    lambdas = [
        F(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(200)
    ]
    for b2 in range(0, 61, 6):
        for b3 in range(0, 61, 6):
            chern = chern_from_betti(b2, b3)
            for lam in lambdas:
                assert rr_chi_full(chern.c2sq, chern.c4, F(3), lam) == rr_chi_hk(
                    chern.c4, lam
                )


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
    st.fractions(min_value=-50, max_value=50, max_denominator=50),
)
@settings(deadline=None)
def test_rr_forms_agree_property(b2, b3, lam):
    chern = chern_from_betti(b2, b3)
    assert rr_chi_full(chern.c2sq, chern.c4, F(3), lam) == rr_chi_hk(chern.c4, lam)


def test_admits_zero_chi_examples():
    assert admits_zero_chi(324) == {F(-8, 5), F(-12, 5)}
    assert admits_zero_chi(108) == {F(-4, 3), F(-8, 3)}
    assert admits_zero_chi(0) == set()
    assert admits_zero_chi(3024) == set()


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_admits_zero_chi_root_soundness(c4):
    for lam in admits_zero_chi(c4):
        assert rr_chi_hk(c4, lam) == 0
    assert rr_chi_hk(c4, F(0)) == F(3)


def _roots_by_brute_force(lo, hi, umax=200, vmax=50):
    """Scan every rational u/v in the grid; u/v solves chi = 0 for c4 iff

        (3024 - c4) * (u^2 + 4uv) + 10368 v^2 == 0

    (chi cleared of denominators by 3456).  Inverting for c4 visits each
    grid point once instead of once per c4.
    """
    found = defaultdict(set)
    for v in range(1, vmax + 1):
        for u in range(-umax, umax + 1):
            d = u * u + 4 * u * v
            if d == 0:
                continue  # equation reduces to 10368 v^2 != 0
            num = -10368 * v * v
            if num % d:
                continue
            c4 = 3024 - num // d
            if lo <= c4 <= hi:
                lam = F(u, v)
                assert rr_chi_hk(c4, lam) == 0  # exact verification
                found[c4].add(lam)
    return found


def test_admits_zero_chi_completeness_small_grid():
    lo, hi = -2000, 4000
    brute = _roots_by_brute_force(lo, hi)
    assert brute[324] == {F(-8, 5), F(-12, 5)}
    assert brute[108] == {F(-4, 3), F(-8, 3)}
    for c4 in range(lo, hi + 1):
        solver = admits_zero_chi(c4)
        assert brute.get(c4, set()) <= solver
        in_grid = {
            r for r in solver if abs(r.numerator) <= 200 and r.denominator <= 50
        }
        assert in_grid == brute.get(c4, set())


def test_square_delta_necessary_and_degenerate_converse():
    square_but_unsolvable = set()
    for c4 in range(-2000, 4001):
        solvable = bool(admits_zero_chi(c4))
        square = rational_sqrt_exact(delta(c4)) is not None
        if solvable:
            assert square
        elif square:
            square_but_unsolvable.add(c4)
    assert square_but_unsolvable == {3024}


def _record_for_c4(c4):
    """evaluate_candidate on a nonnegative pair with the given c4 (a multiple
    of 3): 48 + 12*b2 - 3*b3 = c4 with b3 = 16 + 4*b2 - c4/3."""
    k = c4 // 3
    b2 = max(0, -(-(k - 16) // 4))
    record = evaluate_candidate(b2, 16 + 4 * b2 - k)
    assert record.chern.c4 == c4
    return record


def _assert_integer_core_matches_reference(c4):
    poly = RRPolynomial.for_c4(c4)
    d = delta(c4)
    assert d == poly.discriminant()
    assert admits_zero_chi(c4) == poly.rational_roots()
    # zero_chi against the rational derivation it replaced in prove and rr
    assert zero_chi(c4) == (d, rational_sqrt_exact(d), poly.rational_roots())
    if c4 % 3 == 0:
        record = _record_for_c4(c4)
        assert record.delta == d
        assert record.delta_sqrt == rational_sqrt_exact(d)
        assert record.lambda_roots == poly.rational_roots()


def test_integer_core_matches_rational_reference_on_range():
    for c4 in range(-2000, 4001):
        _assert_integer_core_matches_reference(c4)


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_integer_core_matches_rational_reference_property(c4):
    _assert_integer_core_matches_reference(c4)


def test_integer_core_special_points():
    # c4 = 3024: delta = 0 is a square, but chi is the constant 3
    assert delta(3024) == 0
    assert _record_for_c4(3024).delta_sqrt == 0
    assert admits_zero_chi(3024) == set()
    assert not _record_for_c4(3024).accepted
    # c4 = 432: delta = 0 and chi = 3/4 (lambda + 2)^2, a double root
    assert delta(432) == 0
    assert admits_zero_chi(432) == {F(-2)}
    assert _record_for_c4(432).lambda_roots == {F(-2)}
    assert admits_zero_chi(324) == {F(-8, 5), F(-12, 5)}
    assert _record_for_c4(324).delta_sqrt == F(5, 8)
    assert admits_zero_chi(108) == {F(-4, 3), F(-8, 3)}
    assert _record_for_c4(108).delta_sqrt == F(9, 8)
    assert delta(0) == F(7, 4)
    assert admits_zero_chi(0) == set()
    assert _record_for_c4(0).delta_sqrt is None
    for c4 in (3024, 432, 324, 108, 0):
        _assert_integer_core_matches_reference(c4)


def test_filter_over_admissible_region_b2_le_23():
    pairs = [
        (b2, b3) for b2 in range(24) for b3 in range(0, 46 + 10 * b2 + 1, 2)
    ]
    assert len(pairs) == 1956
    accepted = [r for r in filter_candidates(pairs) if r.accepted]
    assert len(accepted) == 49
    by_c4 = defaultdict(int)
    for record in accepted:
        by_c4[record.chern.c4] += 1
    assert by_c4 == {108: 19, -18: 24, -432: 5, 324: 1}
    assert {(8, 12), (23, 72), (0, 22), (23, 0)} <= {(r.b2, r.b3) for r in accepted}


def test_rr_polynomial_structure():
    poly = RRPolynomial.for_c4(324)
    assert poly.linear == F(25, 8)
    assert poly.quadratic == F(25, 32)
    assert poly.discriminant() == F(25, 64)
    assert poly.evaluate(F(-8, 5)) == 0
    with pytest.raises(ValueError):
        RRPolynomial(constant=F(2), linear=F(0), quadratic=F(0))


def test_rr_polynomial_degenerates_only_at_3024():
    for c4 in range(-2000, 4001):
        poly = RRPolynomial.for_c4(c4)
        assert (poly.linear == 0 and poly.quadratic == 0) == (c4 == 3024)


def test_filter_candidates_accepts_table_rows():
    records = filter_candidates([(23, 0), (7, 8), (6, 4), (5, 0)])
    assert [r.accepted for r in records] == [True] * 4
    assert [(r.chern.c2sq, r.chern.c4) for r in records] == [
        (828, 324),
        (756, 108),
        (756, 108),
        (756, 108),
    ]
    assert records[0].delta_sqrt == F(5, 8)
    assert records[0].lambda_roots == {F(-8, 5), F(-12, 5)}


def test_filter_candidates_rejects_and_preserves_order():
    records = filter_candidates([(4, 32), (23, 0)])
    assert [(r.b2, r.b3) for r in records] == [(4, 32), (23, 0)]
    rejected = records[0]
    assert not rejected.accepted
    assert rejected.chern.c4 == 0
    assert rejected.delta == F(7, 4)
    assert rejected.delta_sqrt is None
    assert rejected.lambda_roots == frozenset()


def test_filter_candidates_empty():
    assert filter_candidates([]) == []


def test_filter_candidates_propagates_domain_error():
    with pytest.raises(ValueError):
        filter_candidates([(-1, 0)])


def test_candidate_record_invariants():
    record = evaluate_candidate(23, 0)
    with pytest.raises(ValueError):
        CandidateRecord(
            b2=record.b2,
            b3=record.b3,
            chern=record.chern,
            delta=record.delta,
            delta_sqrt=record.delta_sqrt,
            lambda_roots=record.lambda_roots,
            accepted=False,
        )
    with pytest.raises(ValueError):
        CandidateRecord(
            b2=record.b2,
            b3=record.b3,
            chern=record.chern,
            delta=record.delta,
            delta_sqrt=F(1, 2),
            lambda_roots=record.lambda_roots,
            accepted=True,
        )


def test_square_classes_are_every_square_n_by_brute_force():
    # N = v^2 - 1296^2 with v = 1728 - c4.  If N = s^2 then (|v| - s)(|v| + s)
    # = 1296^2 with |v| - s >= 1, so |v| <= (1296^2 + 1) / 2: scan all such v.
    bound = (1296**2 + 1) // 2
    brute = {}
    for v in range(-bound, bound + 1):
        n = v * v - 1296**2
        if n >= 0 and math.isqrt(n) ** 2 == n:
            brute[1728 - v] = math.isqrt(n)
    assert {c4: s for c4, (s, _) in SQUARE_CLASSES.items()} == brute
    assert len(brute) == 64
    assert (min(brute), max(brute)) == (-418177, 421633)
    rooted = {c4 for c4, (_, roots) in SQUARE_CLASSES.items() if roots}
    assert set(SQUARE_CLASSES) - rooted == {3024}
    assert len(rooted) == 63
    assert len({c4 for c4 in rooted if c4 % 6 == 0}) == 35
    for c4 in SQUARE_CLASSES:  # and each against the rational reference
        _assert_integer_core_matches_reference(c4)


def _region200_c4s():
    return {48 + 12 * b2 - 3 * b3 for b2 in range(201) for b3 in range(0, 47 + 10 * b2, 2)}


def test_filter_c4_integers_are_zero_chi_fractions():
    # on every class of the b2 <= 200 region and of the table, the integers
    # that the filter writes are zero_chi's delta, sqrt(delta) and roots
    c4s = _region200_c4s()
    assert len(c4s) == 1024
    for c4 in c4s | set(SQUARE_CLASSES):
        n, s, roots, accepted = filter_c4(c4)
        d, sqrt, zero = zero_chi(c4)
        assert F(n, 864**2) == d and format_ratio(n, 864**2) == format_rational(d)
        assert (s is None) == (sqrt is None)
        if s is not None:
            assert F(s, 864) == sqrt and format_ratio(s, 864) == format_rational(sqrt)
        assert [F(*root) for root in roots] == sorted(zero)
        assert [format_ratio(*root) for root in roots] == list(map(format_rational, sorted(zero)))
        assert accepted == bool(zero) == (c4 in SQUARE_CLASSES and c4 != 3024)


@pytest.mark.parametrize("c4, entry", [
    (108, None),  # a square class missing from the table
    (0, (1, ((-1, 1),))),  # a table entry where N is no square
    (324, (SQUARE_CLASSES[324][0] + 2, SQUARE_CLASSES[324][1])),  # a wrong s
])
def test_square_class_refuses_a_table_that_disagrees_with_isqrt(monkeypatch, c4, entry):
    table = dict(SQUARE_CLASSES)
    if entry is None:
        del table[c4]
    else:
        table[c4] = entry
    monkeypatch.setattr(riemann_roch, "SQUARE_CLASSES", table)
    for call in (square_class, zero_chi, admits_zero_chi, filter_c4):
        with pytest.raises(VerificationError, match=f"^square_class fails at c4 = {c4}:") as exc:
            call(c4)
        assert exc.value.identity == "square_class"
