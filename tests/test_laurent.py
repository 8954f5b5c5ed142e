from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfun.laurent import (
    LP_ONE,
    LaurentPoly,
    NotDivisible,
    POLE_AT_ONE,
    Q,
    QINV,
    Q_MINUS_1,
    Q_MINUS_QINV,
    DivisionByZero,
    RatFunc,
    divide_by_q_minus_1,
    rf_regular_at_one,
)

coeffs = st.integers(min_value=-30, max_value=30)
exps = st.integers(min_value=-5, max_value=5)
polys = st.dictionaries(exps, coeffs, max_size=5).map(LaurentPoly)


def test_mul_example():
    assert (Q - 1) * (LP_ONE + QINV) == Q - QINV


def test_add_identity():
    p = LaurentPoly({3: 2, -1: 5})
    assert p + LaurentPoly() == p


def test_square_of_q_minus_qinv():
    assert Q_MINUS_QINV * Q_MINUS_QINV == LaurentPoly({2: 1, 0: -2, -2: 1})


@given(polys, polys, polys)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_divide_q_minus_1():
    assert divide_by_q_minus_1(Q * Q - 1) == Q + 1
    assert divide_by_q_minus_1(LaurentPoly()) == LaurentPoly()
    p = (Q_MINUS_1 ** 2) * ((LP_ONE + QINV) ** 3)
    assert divide_by_q_minus_1(p) == Q_MINUS_1 * ((LP_ONE + QINV) ** 3)


@given(polys)
@settings(max_examples=200, deadline=None)
def test_divide_then_multiply_back(p):
    m = p * Q_MINUS_1
    assert divide_by_q_minus_1(m) * Q_MINUS_1 == m


@given(polys)
@settings(max_examples=200, deadline=None)
def test_not_divisible_iff_nonzero_at_one(p):
    try:
        divide_by_q_minus_1(p)
        divisible = True
    except NotDivisible:
        divisible = False
    assert divisible == (p.evaluate_at_one() == 0)


def test_evaluate_at_one():
    assert (Q + QINV).evaluate_at_one() == 2
    assert (Q - 1).evaluate_at_one() == 0


def test_detq_offdiagonal_coefficients_vanish_at_one():
    # coefficients (-q)^l (q - q^-1)^e with e >= 2 evaluate to 0 at q = 1
    for l in range(4):
        for e in range(2, 5):
            c = LaurentPoly.monomial((-1) ** l, l) * (Q_MINUS_QINV ** e)
            assert c.evaluate_at_one() == 0


def test_rf_reduction_and_inverse():
    r = RatFunc(Q * Q - 1, Q - 1)
    assert r.is_laurent() and r.to_laurent() == Q + 1
    s = RatFunc(LP_ONE, Q_MINUS_QINV)
    assert (s * RatFunc.from_laurent(Q_MINUS_QINV)).is_one()


def test_rf_div_by_zero():
    with pytest.raises(DivisionByZero):
        RatFunc.from_laurent(Q) / RatFunc.from_laurent(LaurentPoly())


def test_rf_regular_at_one():
    assert rf_regular_at_one(RatFunc(Q - 1, Q * Q - 1)) == Fraction(1, 2)
    assert rf_regular_at_one(RatFunc(LP_ONE, Q_MINUS_1)) is POLE_AT_ONE
    assert rf_regular_at_one(RatFunc.from_laurent(LaurentPoly.from_int(5))) == 5


nonzero_polys = polys.filter(bool)
ratfuncs = st.tuples(polys, nonzero_polys).map(lambda t: RatFunc(t[0], t[1]))


@given(ratfuncs, ratfuncs)
@settings(max_examples=150, deadline=None)
def test_rf_equality_agrees_with_cross_multiplication(a, b):
    assert (a == b) == (a.num * b.den == b.num * a.den)


@given(ratfuncs, ratfuncs, ratfuncs)
@settings(max_examples=100, deadline=None)
def test_rf_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    if not b.is_zero():
        assert (a / b) * b == a


def test_serialization_roundtrip():
    p = LaurentPoly({2: 3, -1: -7})
    assert LaurentPoly.from_json(p.to_json()) == p
    r = RatFunc(Q - 1, Q + 1)
    assert r.to_json() == {"num": (Q - 1).to_json(), "den": (Q + 1).to_json()}
