from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hk4verify.exact import (
    Poly,
    format_ratio,
    format_rational,
    int_sqrt_exact,
    parse_int,
    parse_rational,
    rational_sqrt_exact,
)
from oracles import IndeterminateEquationError, evaluate, solve_rational_quadratic


def test_int_sqrt_examples():
    assert int_sqrt_exact(291600) == 540
    assert int_sqrt_exact(1306368) is None  # 1143**2 == 1306449
    assert int_sqrt_exact(0) == 0


def test_int_sqrt_negative_raises():
    with pytest.raises(ValueError):
        int_sqrt_exact(-1)


def test_int_sqrt_brute_force_sweep():
    squares = {r * r: r for r in range(1001)}
    for n in range(10**6 + 1):
        assert int_sqrt_exact(n) == squares.get(n)


@given(st.integers(min_value=0, max_value=10**30))
def test_int_sqrt_accepts_squares(r):
    assert int_sqrt_exact(r * r) == r


@given(st.integers(min_value=2, max_value=10**30))
def test_int_sqrt_rejects_near_squares(r):
    # r*r - 1 lies strictly between (r-1)^2 and r^2 for r >= 2
    assert int_sqrt_exact(r * r - 1) is None


def test_rational_sqrt_examples():
    assert rational_sqrt_exact(F(25, 64)) == F(5, 8)
    assert rational_sqrt_exact(F(7, 4)) is None
    assert rational_sqrt_exact(F(-1)) is None


@given(st.fractions())
def test_rational_sqrt_of_squares(q):
    assert rational_sqrt_exact(q * q) == abs(q)


@given(st.fractions())
def test_rational_sqrt_soundness(q):
    root = rational_sqrt_exact(q)
    if root is not None:
        assert root >= 0
        assert root * root == q


def test_solve_quadratic_examples():
    assert solve_rational_quadratic(F(25, 32), F(25, 8), F(3)) == {F(-8, 5), F(-12, 5)}
    assert solve_rational_quadratic(F(0), F(27, 8), F(3)) == {F(-8, 9)}
    assert solve_rational_quadratic(F(0), F(0), F(3)) == set()


def test_solve_quadratic_indeterminate_raises():
    with pytest.raises(IndeterminateEquationError):
        solve_rational_quadratic(F(0), F(0), F(0))


def test_solve_quadratic_double_root():
    # (x - 3/2)^2 = x^2 - 3x + 9/4
    assert solve_rational_quadratic(F(1), F(-3), F(9, 4)) == {F(3, 2)}


_small = st.fractions(min_value=-50, max_value=50, max_denominator=20)
_small_nonzero = _small.filter(lambda q: q != 0)


@settings(deadline=None)
@given(_small_nonzero, _small, _small)
def test_solve_quadratic_root_soundness_and_count(a, b, c):
    roots = solve_rational_quadratic(a, b, c)
    for x in roots:
        assert a * x * x + b * x + c == 0
    disc = b * b - 4 * a * c
    if rational_sqrt_exact(disc) is not None:
        assert len(roots) == (1 if disc == 0 else 2)
    else:
        assert roots == set()


@settings(deadline=None)
@given(_small_nonzero, _small, _small)
def test_solve_quadratic_completeness_by_construction(a, r1, r2):
    b = -a * (r1 + r2)
    c = a * r1 * r2
    assert solve_rational_quadratic(a, b, c) == {r1, r2}


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/2", F(3, 2)),
        ("-8/5", F(-8, 5)),
        ("+7/2", F(7, 2)),
        ("12", F(12)),
        ("-12", F(-12)),
        ("0/5", F(0)),
        (" 3/4 ", F(3, 4)),
        ("007", F(7)),
        ("\t 1/2\t", F(1, 2)),
        ("+0", F(0)),
        (" -0\t", F(0)),
        ("\t-0012 ", F(-12)),
    ],
)
def test_parse_rational_accepts(text, expected):
    assert parse_rational(text) == expected
    # parse_int takes the same text when it has no denominator
    if "/" in text:
        with pytest.raises(ValueError):
            parse_int(text)
    else:
        assert parse_int(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "1/0", "1.5", "", "a/b", "3/-2", "1e3", "--3", "1/ 2", "3 / 2", "1/2/3",
        # only spaces and tabs may surround the text
        "\xa01/2", "1/2\x0c", "\n1/2", "1/2\r", "\u30001/2",
        # integers: no underscores, non-ASCII digits or bare signs
        "1_0", "\u0663", "\uff11", "+", "-", "1 2", "\xa01", "1\n", "0x10",
    ],
)
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)
    with pytest.raises(ValueError):
        parse_int(text)


def test_format_rational():
    assert format_rational(F(-8, 5)) == "-8/5"
    assert format_rational(F(3)) == "3/1"
    assert format_rational(F(0)) == "0/1"


def test_format_ratio_is_format_rational_of_the_fraction():
    for p in range(-60, 61):
        for q in [*range(1, 25), 746496, 864]:
            assert format_ratio(p, q) == format_rational(F(p, q)), (p, q)
    assert format_ratio(-1296 * 5, 2 * 1296) == "-5/2"


@given(st.fractions())
def test_parse_format_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


_monomials = st.lists(st.sampled_from("xyz"), max_size=3).map(lambda v: tuple(sorted(v)))
_polys = st.dictionaries(_monomials, st.integers(-9, 9), max_size=4).map(Poly)


@given(_polys, st.one_of(_polys, st.integers(-9, 9)),
       st.fixed_dictionaries({v: st.integers(-9, 9) for v in "xyz"}))
def test_poly_arithmetic_commutes_with_evaluation(a, b, point):
    assert evaluate(-a, point) == -evaluate(a, point)
    for left, right in ((a, b), (b, a)):  # an int on either side
        u, v = evaluate(left, point), evaluate(right, point)
        assert evaluate(left + right, point) == u + v
        assert evaluate(left - right, point) == u - v
        assert evaluate(left * right, point) == u * v


def test_poly_equality_and_inequality_agree():
    x, y = Poly.var("x"), Poly.var("y")
    cases = [
        (Poly({}), 0), (Poly({(): 0}), 0), (Poly({(): 5}), 5), (x - x, 0), (x * 0, 0),
        (x, 0), (x, 1), (x + 1, 1), (Poly({(): 5}), 4), (x, y), (x, x), (x + y, y + x),
        (x * y, y * x), (Poly({}), Poly({(): 0})), (Poly({(): 5}), Poly.of(5)),
    ]
    assert [a == b for a, b in cases] == [True] * 5 + [False] * 5 + [True] * 5
    for a, b in cases:
        assert (a != b) is (not (a == b)) and (b != a) is (not (b == a))


def test_poly_terms_are_read_only():
    # the package docstring promises immutable values; repr keeps its dict text
    x = Poly.var("x") + 2
    with pytest.raises(TypeError):
        x.terms[("x",)] = 0
    with pytest.raises(AttributeError):
        x.terms = {}
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == Poly({("x",): 1, (): 2}) and dict(x.terms) == {("x",): 1, (): 2}
    assert repr(x) == "Poly({('x',): 1, (): 2})"
