import pytest

from hk4verify.exact import Poly
from hk4verify.pipeline import DEFAULT_PRIMES
from hk4verify.quotient import (
    FixedLocusProfile,
    _FixedLocusProfile,
    is_prime,
    lefschetz_euler_fixed,
    mk_elimination_equation,
    orbifold_salamon_defect,
    solve_mk,
    transport_betti,
)
from hk4verify.topology import (
    BettiTable,
    betti_from_pair,
    betti_numbers,
    c4_from_betti,
    euler_characteristic,
    salamon_defect,
)
from oracles import K3_SURFACE, TORUS_SURFACE, ExceptionalFiber, exceptional_betti
from oracles import is_prime as reference_is_prime

PRIMES = (2, 3, 5, 7, 11)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_matches_the_oracle():
    assert all(is_prime(n) == reference_is_prime(n) for n in range(-5, 10**5))


@pytest.mark.parametrize(
    "n",
    [
        2047,  # strong pseudoprime to base 2
        3215031751,  # to bases 2, 3, 5 and 7
        3825123056546413051,  # to bases 2..31
        318665857834031151167461,  # to bases 2..37; only base 41 catches it
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_refuses_n_where_its_bases_are_not_proven():
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(3317044064679887385961981)


def test_exceptional_betti_k3_order2():
    bt = exceptional_betti(K3_SURFACE, 2)
    assert bt == (1, 0, 23, 0, 23, 0, 1, 0, 0)
    assert euler_characteristic(bt) == 48  # 2 * chi(K3)


def test_exceptional_betti_torus_order3():
    bt = exceptional_betti(TORUS_SURFACE, 3)
    assert bt == (1, 4, 8, 12, 13, 8, 2, 0, 0)
    assert euler_characteristic(bt) == 0


def test_exceptional_betti_requires_prime():
    with pytest.raises(ValueError):
        exceptional_betti(K3_SURFACE, 4)
    with pytest.raises(ValueError):
        exceptional_betti(TORUS_SURFACE, 1)


def test_exceptional_fiber_chain():
    fiber = ExceptionalFiber(K3_SURFACE, 4)  # p = 5
    assert fiber.chain_betti() == (1, 0, 4)
    with pytest.raises(ValueError):
        ExceptionalFiber(K3_SURFACE, 0)


def test_exceptional_difference_identity():
    # b_j(S x C_p) - b_j(S) == (p - 1) * b_{j-2}(S) in every degree
    for p in PRIMES:
        for surface in (K3_SURFACE, TORUS_SURFACE):
            product = exceptional_betti(surface, p)
            s = surface + (0,) * 4
            shifted = (0, 0) + surface + (0, 0)
            for j in range(9):
                assert product[j] - s[j] == (p - 1) * shifted[j]


def _kuenneth_increment(surface, p):
    """b_j(S x C_p) - b_j(S) from the Kuenneth oracle."""
    product = exceptional_betti(surface, p)
    return [e - s for e, s in zip(product, surface + (0,) * 4)]


#: b(Y) of a 4-fold on the symbols b2 and b3, and the symbols k and t
b2_, b3_, k_, t_ = map(Poly.var, ("b2", "b3", "k", "t"))
SYMBOLIC_BY = betti_numbers(b2_, b3_)


def test_transport_matches_kuenneth_oracle():
    for p in PRIMES:
        k3 = _kuenneth_increment(K3_SURFACE, p)
        torus = _kuenneth_increment(TORUS_SURFACE, p)
        bW = transport_betti(SYMBOLIC_BY, _FixedLocusProfile(p, 0, k_, t_))
        assert [w - y for w, y in zip(bW, SYMBOLIC_BY)] == [
            k_ * a + t_ * b for a, b in zip(k3, torus)
        ]


@pytest.mark.parametrize("p", DEFAULT_PRIMES)
def test_transport_is_affine_in_t(p):
    # b(W) is its value at t = 0 plus t times its change from t = 0 to t = 1
    at_0, at_1, at_t = (
        transport_betti(SYMBOLIC_BY, _FixedLocusProfile(p, 0, k_, t)) for t in (0, 1, t_)
    )
    assert list(at_t) == [x + t_ * (y - x) for x, y in zip(at_0, at_1)]


def test_transport_k3_component_order2():
    bY = betti_from_pair(23, 0)
    bW = transport_betti(bY, FixedLocusProfile(p=2, m=0, k=1, t=0))
    assert tuple(w - y for w, y in zip(bW, bY)) == (0, 0, 1, 0, 22, 0, 1, 0, 0)


def test_transport_torus_component_order3():
    bY = betti_from_pair(7, 8)
    bW = transport_betti(bY, FixedLocusProfile(p=3, m=0, k=0, t=1))
    assert tuple(w - y for w, y in zip(bW, bY)) == (0, 0, 2, 8, 12, 8, 2, 0, 0)


def test_transport_empty_fixed_surface_locus_is_identity():
    bY = betti_from_pair(5, 0)
    bW = transport_betti(bY, FixedLocusProfile(p=5, m=0, k=0, t=0))
    assert bW == bY


def test_transport_degrees_2_3_4_closed_forms():
    q, bY = Poly.var("q"), SYMBOLIC_BY
    bW = transport_betti(bY, _FixedLocusProfile(q + 1, 0, k_, t_))
    assert bW[2] == bY[2] + q * (k_ + t_)
    assert bW[3] == bY[3] + 4 * q * t_
    assert bW[4] == bY[4] + q * (22 * k_ + 6 * t_)


def test_transport_preserves_duality_and_flag():
    bY = betti_from_pair(23, 0)
    bW = transport_betti(bY, FixedLocusProfile(p=3, m=0, k=2, t=5))
    assert BettiTable(bW) == bW
    assert bW == tuple(reversed(bW))


def test_transport_salamon_and_euler_shifts():
    e_Y = euler_characteristic(SYMBOLIC_BY)
    for p in PRIMES:
        bW = transport_betti(SYMBOLIC_BY, _FixedLocusProfile(p, 0, k_, t_))
        assert salamon_defect(bW) == 12 * k_ * (p - 1)
        assert euler_characteristic(bW) == e_Y + 24 * k_ * (p - 1)


def test_identities_hold_as_polynomials():
    # the unmodified formulas on symbols, with q = p - 1: each identity holds
    # for all integers, and b(W) is affine in t
    b2, b3, q, m, k, t = map(Poly.var, ("b2", "b3", "q", "m", "k", "t"))
    c4 = c4_from_betti(b2, b3)
    bX = (1, 0, b2, b3, 46 + 10 * b2 - b3, b3, b2, 0, 1)
    profile = _FixedLocusProfile(p=q + 1, m=m, k=k, t=t)
    bW = transport_betti(bX, profile)
    assert salamon_defect(bW) == 12 * q * k
    assert orbifold_salamon_defect(bW, profile) == q * (m + 12 * k)
    assert euler_characteristic(bW) == c4 + 24 * q * k
    assert euler_characteristic(bX) == c4
    assert lefschetz_euler_fixed(profile) == m + 24 * k
    degrees = [max((e.count("t") for e in Poly.of(w).terms), default=0) for w in bW]
    assert degrees == [0, 0, 1, 1, 1, 1, 1, 0, 0]


def test_orbifold_defect_counts_isolated_points():
    m = Poly.var("m")
    for p in (2, 3, 5):
        profile = _FixedLocusProfile(p, m, k_, t_)
        bW = transport_betti(SYMBOLIC_BY, profile)
        assert orbifold_salamon_defect(bW, profile) == (m + 12 * k_) * (p - 1)


def test_orbifold_defect_zero_for_torus_only_profiles():
    profile = _FixedLocusProfile(3, 0, 0, t_)
    assert orbifold_salamon_defect(transport_betti(SYMBOLIC_BY, profile), profile) == 0


def test_orbifold_defect_on_relation_satisfying_table():
    # a table obeying the orbifold relation with s = -2: b4 + b3 - 10*b2 = 44
    bW = BettiTable((1, 0, 23, 0, 274, 0, 23, 0, 1))
    profile = FixedLocusProfile(p=2, m=2, k=0, t=0)
    assert salamon_defect(bW) == -2
    assert orbifold_salamon_defect(bW, profile) == 0


def test_orbifold_defect_all_zero_table():
    profile = FixedLocusProfile(p=2, m=0, k=0, t=0)
    assert orbifold_salamon_defect((0,) * 9, profile) == -46


def test_lefschetz_euler_fixed():
    assert lefschetz_euler_fixed(FixedLocusProfile(p=2, m=0, k=0, t=5)) == 0
    assert lefschetz_euler_fixed(FixedLocusProfile(p=3, m=1, k=0, t=0)) == 1
    assert lefschetz_euler_fixed(FixedLocusProfile(p=2, m=0, k=2, t=3)) == 48


def test_profile_validation():
    with pytest.raises(ValueError):
        FixedLocusProfile(p=4, m=0, k=0, t=0)
    with pytest.raises(ValueError):
        FixedLocusProfile(p=2, m=-1, k=0, t=0)
    with pytest.raises(ValueError, match="p must be prime"):
        FixedLocusProfile(p=2.0, m=0, k=0, t=0)
    with pytest.raises(ValueError, match="component counts must be int"):
        FixedLocusProfile(p=3, m=0, k=0, t=0.25)


def test_solve_mk():
    assert solve_mk(2) == (0, 0)
    assert solve_mk(7) == (0, 0)
    with pytest.raises(ValueError):
        solve_mk(4)
    with pytest.raises(ValueError):
        solve_mk(1)


def test_solve_mk_small_oracle():
    for p in (2, 3, 97):
        solutions = {
            (m, k)
            for m in range(101)
            for k in range(101)
            if (m + 12 * k) * (p - 1) == 0
        }
        assert solutions == {solve_mk(p)}


def test_mk_elimination_equation_mentions_balance():
    text = mk_elimination_equation(5)
    assert "(m + 12k)*(p-1) = 0" in text
    assert "p = 5" in text
    with pytest.raises(ValueError):
        mk_elimination_equation(6)
