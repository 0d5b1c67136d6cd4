from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hk4verify.topology import (
    BettiTable,
    ChernData,
    InadmissiblePairError,
    K3_BETTI,
    TORUS2_BETTI,
    admissible_b4,
    betti_from_pair,
    chern_from_betti,
    euler_characteristic,
    salamon_defect,
)


def test_chern_from_betti_table_rows():
    assert chern_from_betti(23, 0) == ChernData(828, 324)
    assert chern_from_betti(7, 8) == ChernData(756, 108)
    assert chern_from_betti(6, 4) == ChernData(756, 108)
    assert chern_from_betti(5, 0) == ChernData(756, 108)


def test_chern_from_betti_total_on_unrealizable_input():
    assert chern_from_betti(4, 32) == ChernData(720, 0)
    assert chern_from_betti(0, 100).c4 == -252


def test_chern_from_betti_rejects_negative():
    with pytest.raises(ValueError):
        chern_from_betti(-1, 0)
    with pytest.raises(ValueError):
        chern_from_betti(0, -2)


@pytest.mark.parametrize(
    "pair", [(23.5, 0), (23, 0.0), (True, 0), (23, False), (Fraction(23), 0), ("23", 0)]
)
def test_chern_from_betti_and_admissible_b4_refuse_non_int_pairs(pair):
    # a float, bool or Fraction would compute (23.5, 0) -> b4 = 281.0
    with pytest.raises(ValueError, match=r"^Betti numbers must be int, got \("):
        chern_from_betti(*pair)
    with pytest.raises(InadmissiblePairError, match=r"^Betti numbers must be int, got \("):
        admissible_b4(*pair)


def test_chern_identity_grid():
    for b2 in range(31):
        for b3 in range(201):
            chern = chern_from_betti(b2, b3)
            assert 3 * chern.c2sq - chern.c4 == 2160


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
def test_chern_identity_unbounded(b2, b3):
    chern = chern_from_betti(b2, b3)
    assert 3 * chern.c2sq - chern.c4 == 2160


def test_betti_from_pair_examples():
    assert betti_from_pair(23, 0) == (1, 0, 23, 0, 276, 0, 23, 0, 1)
    assert betti_from_pair(7, 8) == (1, 0, 7, 8, 108, 8, 7, 0, 1)
    assert betti_from_pair(4, 32) == (1, 0, 4, 32, 54, 32, 4, 0, 1)


def test_betti_from_pair_rejects():
    with pytest.raises(InadmissiblePairError):
        betti_from_pair(0, 48)  # forced b4 = -2
    with pytest.raises(InadmissiblePairError):
        betti_from_pair(5, 3)  # odd b3
    with pytest.raises(InadmissiblePairError):
        betti_from_pair(-1, 0)


def test_admissible_b4_refuses_exactly_the_pairs_betti_from_pair_refuses():
    # prove checks a candidate with c4 != 0 by admissible_b4 alone; the
    # rectangle holds negative values, odd b3 and pairs that force b4 < 0
    refused = 0
    for b2 in range(-3, 9):
        for b3 in range(-5, 140):
            try:
                table = betti_from_pair(b2, b3)
            except InadmissiblePairError as exc:
                refused += 1
                with pytest.raises(InadmissiblePairError) as same:
                    admissible_b4(b2, b3)
                assert str(same.value) == str(exc)
            else:
                assert admissible_b4(b2, b3) == table[4]
    assert 0 < refused < 12 * 145


def test_betti_from_pair_output_is_strict():
    for b2, b3 in [(23, 0), (7, 8), (6, 4), (5, 0), (0, 0), (4, 32)]:
        bt = betti_from_pair(b2, b3)
        assert isinstance(bt, BettiTable)
        assert salamon_defect(bt) == 0
        assert bt == tuple(reversed(bt))


def test_salamon_defect_values():
    assert salamon_defect(BettiTable((1, 0, 23, 0, 276, 0, 23, 0, 1))) == 0
    assert salamon_defect(BettiTable((1, 0, 7, 8, 108, 8, 7, 0, 1))) == 0
    assert salamon_defect((0, 0, 1, 0, 0)) == -56


def test_euler_characteristic_values():
    assert euler_characteristic((1, 0, 22, 0, 1)) == 24  # K3
    assert euler_characteristic((1, 4, 6, 4, 1)) == 0  # 2-torus
    assert euler_characteristic(BettiTable((1, 0, 23, 0, 276, 0, 23, 0, 1))) == 324


def test_euler_equals_c4_for_admissible_pairs():
    for b2 in range(31):
        for b3 in range(0, 46 + 10 * b2 + 1, 2):
            assert (
                euler_characteristic(betti_from_pair(b2, b3))
                == chern_from_betti(b2, b3).c4
            )


def _forced_b4(b2, b3):
    try:
        return admissible_b4(b2, b3)
    except InadmissiblePairError:
        return None


@given(st.integers(0, 400), st.integers(0, 4200), st.integers(0, 400))
def test_admissible_b4_is_its_value_at_b3_zero_less_b3(b2, b3, more):
    # the relation behind the bulk reader's representative pairs: the forced
    # b4 is admissible_b4(b2, 0) - b3, a pair admitted at b2 is admitted at
    # every larger b2, and one admitted at a larger b2 is admitted at b2 when
    # admissible_b4(b2, 0) - b3 >= 0
    b4 = _forced_b4(b2, b3)
    if b4 is not None:
        assert b4 == admissible_b4(b2, 0) - b3
        assert _forced_b4(b2 + more, b3) is not None
    elif _forced_b4(b2 + more, b3) is not None:
        assert admissible_b4(b2, 0) - b3 < 0


def test_betti_table_indexes_its_entries():
    bt = BettiTable((1, 0, 22, 4, 262, 4, 22, 0, 1))
    assert bt == (1, 0, 22, 4, 262, 4, 22, 0, 1)
    assert bt[3] == 4 and bt[4] == 262 and bt[8] == 1


def test_betti_table_rejects_bad_input():
    with pytest.raises(ValueError):
        BettiTable((1, -1, 0))
    with pytest.raises(ValueError):
        BettiTable(tuple(range(10)))
    with pytest.raises(ValueError, match="9 Betti numbers expected, got 5"):
        BettiTable((1, 0, 22, 0, 1))
    with pytest.raises(ValueError, match="9 Betti numbers expected, got 10"):
        BettiTable((1, 0, 0, 0, 0, 0, 0, 0, 1, 0))
    with pytest.raises(ValueError, match="must be int"):
        BettiTable((1, 0, 2.5, 0, 30, 0, 2.5, 0, 1))


def test_strict_flag_validation():
    with pytest.raises(ValueError):
        BettiTable((2, 0, 5, 0, 0, 0, 5, 0, 1))  # b0 != 1
    with pytest.raises(ValueError):
        BettiTable((1, 0, 5, 0, 96, 0, 6, 0, 1))  # not palindromic
    with pytest.raises(ValueError):
        BettiTable((1, 0, 5, 3, 98, 3, 5, 0, 1))  # odd b3


def test_surface_betti_constants():
    assert K3_BETTI == (1, 0, 22, 0, 1)
    assert TORUS2_BETTI == (1, 4, 6, 4, 1)
    assert euler_characteristic(K3_BETTI) == 24
    assert euler_characteristic(TORUS2_BETTI) == 0
