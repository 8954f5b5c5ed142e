import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfun.laurent import (
    LP_ONE,
    LP_ZERO,
    LaurentPoly,
    NotDivisible,
    POLE_AT_ONE,
    Q,
    QINV,
    Q_MINUS_1,
    Q_MINUS_QINV,
    Q_PLUS_1,
    RATFUNC,
    LAURENT,
    DivisionByZero,
    RatFunc,
    laurent_gcd,
    over_den_power,
)
from qfun.qmatrix import MatrixAlgebra

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
    assert (Q * Q - 1).divide_q_minus_1() == Q + 1
    assert LaurentPoly().divide_q_minus_1() == LaurentPoly()
    p = (Q_MINUS_1 ** 2) * ((LP_ONE + QINV) ** 3)
    assert p.divide_q_minus_1() == Q_MINUS_1 * ((LP_ONE + QINV) ** 3)


@given(polys)
@settings(max_examples=200, deadline=None)
def test_divide_then_multiply_back(p):
    m = p * Q_MINUS_1
    assert m.divide_q_minus_1() * Q_MINUS_1 == m


@given(polys)
@settings(max_examples=200, deadline=None)
def test_not_divisible_iff_nonzero_at_one(p):
    try:
        p.divide_q_minus_1()
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
    assert RatFunc(Q - 1, Q * Q - 1).regular_at_one() == Fraction(1, 2)
    assert RatFunc(LP_ONE, Q_MINUS_1).regular_at_one() is POLE_AT_ONE
    assert RatFunc.from_laurent(LaurentPoly.from_int(5)).regular_at_one() == 5


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


def test_not_divisible_names_the_divisor_or_the_denominator():
    with pytest.raises(NotDivisible, match=r"by \(q - 1\); remainder 2$") as exc:
        (Q + 1).divide_q_minus_1()
    assert exc.value.remainder == 2
    with pytest.raises(NotDivisible, match=r"by \(2\*q \+ 1\); remainder q$"):
        Q.divide_exact(LaurentPoly({1: 2, 0: 1}))
    for refuse in (RatFunc(1, Q_PLUS_1).to_laurent,
                   lambda: LAURENT.coerce(RatFunc(1, Q_PLUS_1)),
                   lambda: MatrixAlgebra(1).gen(1, 1).scale(RatFunc(1, Q_PLUS_1))):
        with pytest.raises(NotDivisible, match=r"^not in Z\[q,q\^-1\]: denominator q \+ 1$") as exc:
            refuse()
        assert exc.value.remainder == Q_PLUS_1


def test_divide_exact_raises_with_a_laurent_remainder():
    # quotient integral, remainder nonzero: q^2 + 1 = (q + 1)(q - 1) + 2
    with pytest.raises(NotDivisible) as exc:
        (Q * Q + 1).divide_exact(Q_MINUS_1)
    assert exc.value.remainder == LaurentPoly({0: 2})
    # quotient not integral: q by 2q + 1 stops at once, and 2q^2 + 2q + 1 by
    # 2q + 1 after the step q, leaving q + 1 (its leading 1 is not a multiple of 2)
    two_q_plus_1 = LaurentPoly({1: 2, 0: 1})
    for a, rem in ((Q, Q), (LaurentPoly({2: 2, 1: 2, 0: 1}), Q + 1)):
        with pytest.raises(NotDivisible) as exc:
            a.divide_exact(two_q_plus_1)
        assert isinstance(exc.value.remainder, LaurentPoly)
        assert exc.value.remainder == rem
        (a - rem).divide_exact(two_q_plus_1)
    # q-power shifts: q^-3 (q^2 - 1) = q^-2 (q + 1) * q^-1 (q - 1)
    a = LaurentPoly({-1: 1, -3: -1})
    assert a.divide_exact(LaurentPoly({0: 1, -1: -1})) == LaurentPoly({-1: 1, -2: 1})


# q - 1, q + 1, q^2 + 1, q^2 + q + 1 and 2q - 3, planted as common factors
PLANTED = [LaurentPoly(t) for t in ({1: 1, 0: -1}, {1: 1, 0: 1}, {2: 1, 0: 1},
                                     {2: 1, 1: 1, 0: 1}, {1: 2, 0: -3})]
small_polys = st.dictionaries(st.integers(-3, 4), st.integers(-9, 9), max_size=4).map(LaurentPoly)
factor_lists = st.lists(st.sampled_from(PLANTED), max_size=3)
contents = st.sampled_from([1, -1, 2, 3, 6, -4])


def _times(p, factors, c):
    for f in factors:
        p = p * f
    return p * c


def _planted_pair(t):
    """num and den sharing the planted common factors, each with its own
    cofactor, extra factors and integer content."""
    pn, pd, common, extra_n, extra_d, cn, cd = t
    return _times(pn, common + extra_n, cn), _times(pd or LP_ONE, common + extra_d, cd)


planted_pairs = st.tuples(small_polys, small_polys, factor_lists, factor_lists, factor_lists,
                          contents, contents).map(_planted_pair)
# den = 2(q - 1) divides num = 3(q - 1)(q + 1): the gcd is den made primitive
DEN_DIVIDES_NUM = (LaurentPoly({2: 3, 0: -3}), LaurentPoly({1: 2, 0: -2}))


def _expr(q, p, shift=0):
    return sum(c * q ** (e + shift) for e, c in p.terms.items())


def _sympy_poly(sympy, q, p):
    """p times the power of q that clears its negative exponents."""
    return sympy.Poly(_expr(q, p, -min(p.min_exp(), 0)), q)


def _normalized(poly):
    """Primitive part with the powers of q divided out and a positive
    leading coefficient, as a LaurentPoly."""
    _, prim = poly.primitive()
    coeffs = {e: int(c) for (e,), c in prim.terms()}
    m = min(coeffs)
    sign = 1 if coeffs[max(coeffs)] > 0 else -1
    return LaurentPoly({e - m: sign * c for e, c in coeffs.items()})


def _content(p):
    return gcd(*p.terms.values())


@given(planted_pairs)
@example(DEN_DIVIDES_NUM)
@settings(max_examples=150, deadline=None)
def test_reduction_against_sympy_cancel(pair):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    num, den = pair
    r = RatFunc(num, den)
    if num.is_zero():
        assert r.num.is_zero() and r.den.is_one()
        return
    n_s, d_s = sympy.fraction(sympy.cancel(_expr(q, num) / _expr(q, den)))
    # the same value, with den the reduced sympy denominator up to content and units
    assert sympy.expand(_expr(q, r.num) * d_s - n_s * _expr(q, r.den)) == 0
    assert r.den.min_exp() == 0 and r.den.terms[r.den.max_exp()] > 0
    primitive_den = _normalized(sympy.Poly(d_s, q))
    assert r.den == primitive_den * _content(r.den)
    assert gcd(_content(r.num), _content(r.den)) == 1


@given(planted_pairs)
@example(DEN_DIVIDES_NUM)
@settings(max_examples=150, deadline=None)
def test_gcd_against_sympy(pair):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    a, b = pair
    if a.is_zero():
        return
    g = laurent_gcd(a, b)
    expected = sympy.gcd(_sympy_poly(sympy, q, a), _sympy_poly(sympy, q, b))
    assert g == _normalized(expected)
    ca, cb = a.divide_exact(g), b.divide_exact(g)
    assert laurent_gcd(ca, cb).is_one()


# -- the multiply fast paths (a side equal to 1) against sympy -------------------

signed_monomials = st.tuples(st.sampled_from([1, -1]), exps).map(
    lambda t: LaurentPoly({t[1]: t[0]}))
lp_operands = st.one_of(st.just(LP_ONE), st.just(-LP_ONE), signed_monomials,
                        st.tuples(coeffs, exps).map(lambda t: LaurentPoly({t[1]: t[0]})), polys)
rf_operands = st.one_of(
    st.just(RatFunc(1)), st.just(RatFunc(-1)),
    signed_monomials.map(RatFunc.from_laurent), polys.map(RatFunc.from_laurent),
    st.tuples(small_polys, small_polys.filter(bool)).map(lambda t: RatFunc(*t)),
)


def _from_sympy(sympy, q, expr, shift=40):
    """A Laurent polynomial expression of sympy (exponents above -shift) as a
    LaurentPoly, built without LaurentPoly arithmetic."""
    poly = sympy.Poly(sympy.expand(expr * q ** shift), q)
    return LaurentPoly({e - shift: int(c) for (e,), c in poly.terms()})


def _snapshot(*ps):
    return [dict(p.terms) for p in ps]


@given(lp_operands, st.one_of(lp_operands, st.sampled_from([0, 1, -1, 3])))
@settings(max_examples=300, deadline=None)
def test_lp_mul_fast_paths_against_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    operands = [p for p in (a, b) if isinstance(p, LaurentPoly)]
    before = _snapshot(*operands)
    b_expr = b if isinstance(b, int) else _expr(q, b)
    expected = _from_sympy(sympy, q, _expr(q, a) * b_expr)
    for prod in (a * b, b * a):
        assert isinstance(prod, LaurentPoly) and prod == expected
        assert all(prod.terms.values())
    assert _snapshot(*operands) == before


@given(rf_operands, rf_operands)
@settings(max_examples=300, deadline=None)
def test_rf_mul_fast_paths_against_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    before = _snapshot(a.num, a.den, b.num, b.den)
    # the canonical form of the product, reduced from numerator and
    # denominator products that sympy multiplied
    num = _from_sympy(sympy, q, _expr(q, a.num) * _expr(q, b.num))
    den = _from_sympy(sympy, q, _expr(q, a.den) * _expr(q, b.den))
    expected = RatFunc(num, den)
    for prod in (a * b, b * a):
        assert (prod.num, prod.den) == (expected.num, expected.den)
        value = sympy.cancel(_expr(q, prod.num) / _expr(q, prod.den)
                             - _expr(q, a.num) * _expr(q, b.num)
                             / (_expr(q, a.den) * _expr(q, b.den)))
        assert value == 0
    assert _snapshot(a.num, a.den, b.num, b.den) == before


# the operand a itself, or its negation, built without LaurentPoly arithmetic
lp_summands = st.one_of(lp_operands, st.sampled_from([0, 1, -1, 3, "a", "-a"]))


@given(lp_operands, lp_summands)
@settings(max_examples=300, deadline=None)
def test_lp_add_and_sub_against_sympy(a, b):
    """Sums and differences in both operand orders, including ones that
    cancel to zero: the terms sympy expands, no zero stored, operands kept."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    if b in ("a", "-a"):
        sign = 1 if b == "a" else -1
        b = LaurentPoly({e: sign * c for e, c in a.terms.items()})
    operands = [p for p in (a, b) if isinstance(p, LaurentPoly)]
    before = _snapshot(*operands)
    a_expr = _expr(q, a)
    b_expr = b if isinstance(b, int) else _expr(q, b)
    for got, expr in ((a + b, a_expr + b_expr), (b + a, a_expr + b_expr),
                      (a - b, a_expr - b_expr), (b - a, b_expr - a_expr)):
        assert isinstance(got, LaurentPoly)
        assert got.terms == _from_sympy(sympy, q, expr).terms
        assert all(got.terms.values())
    assert _snapshot(*operands) == before


@given(lp_operands)
def test_lp_one_times_p_is_p_itself(p):
    """RatFunc products and the `one` skips of the element types test the
    unit by `is`, so a product by 1 returns the other operand object; a
    product with a zero polynomial or 0 is LP_ZERO."""
    one = LaurentPoly({0: 1})
    for unit in (LP_ONE, one):
        # when p is 1 too, either operand object is the product
        allowed = (LP_ZERO,) if not p else ((p, unit) if p == 1 else (p,))
        assert any(unit * p is r for r in allowed)
        assert any(p * unit is r for r in allowed)
    assert p * 1 is p and 1 * p is p
    assert LP_ZERO * p is LP_ZERO and p * LP_ZERO is LP_ZERO and p * 0 is LP_ZERO


# -- the shared-monomial table against a plain double loop -----------------------

monomials = st.tuples(coeffs.filter(bool), exps).map(lambda t: LaurentPoly({t[1]: t[0]}))
mul_operands = st.one_of(monomials, signed_monomials, polys)


def _double_loop(a, b):
    """The terms of a * b, summed pair by pair without LaurentPoly arithmetic."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@given(mul_operands, mul_operands)
@settings(max_examples=400, deadline=None)
@example(LaurentPoly({1: 2}), LaurentPoly({-1: 3}))
@example(LaurentPoly({1: -1}), LaurentPoly({-1: -1}))
@example(LaurentPoly({2: 1}), LaurentPoly({-2: -1}))
def test_lp_mul_1x1_1xk_kxk_against_the_double_loop(a, b):
    """1x1 products come from the table of shared monomials: the value is
    the double loop's, a product equal to 1 of two factors other than 1 is
    LP_ONE itself, and no operand or earlier product changes."""
    from qfun import laurent

    before = _snapshot(a, b)
    expected = _double_loop(a, b)
    for prod in (a * b, b * a):
        assert prod.terms == expected
        if expected == {0: 1} and a != 1 and b != 1:
            assert prod is LP_ONE
    if len(a.terms) == len(b.terms) == 1 and a != 1 and b != 1:
        assert a * b is b * a
    assert _snapshot(a, b) == before
    assert all(m.terms == {e: c} for (e, c), m in laurent._MONOMIALS.items())


def test_shared_monomials_keep_their_values_through_coproducts():
    """A slice of the coproduct check Delta(ab) = Delta(a)Delta(b) in M_q(3)
    with Laurent-monomial coefficients, then every shared monomial against
    its key: the table holds at most _MONOMIAL_LIMIT, and 1 is LP_ONE."""
    from qfun import laurent
    from qfun.qmatrix import MatrixAlgebra

    alg = MatrixAlgebra(2)
    gens = [alg.gen(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    for k in range(12):
        a = gens[k % 9].scale(LaurentPoly({k % 5 - 2: (-1) ** k * (k % 3 + 1)}))
        b = (gens[(5 * k) % 9] * gens[(2 * k + 1) % 9]).scale(LaurentPoly({2 - k % 4: 1}))
        assert alg.coproduct(a * b) == alg.coproduct(a) * alg.coproduct(b)
    table = laurent._MONOMIALS
    assert 1 < len(table) <= laurent._MONOMIAL_LIMIT
    assert table[(0, 1)] is LP_ONE
    assert all(m.terms == {e: c} for (e, c), m in table.items())


@given(polys, rf_operands)
@settings(max_examples=100, deadline=None)
def test_laurent_and_ratfunc_operands_mix_in_both_orders(p, r):
    """A LaurentPoly meets a RatFunc as the RatFunc with den 1 would."""
    rp = RatFunc.from_laurent(p)
    for got, expected in ((p + r, rp + r), (r + p, r + rp), (p - r, rp - r),
                          (r - p, r - rp), (p * r, rp * r), (r * p, r * rp)):
        assert isinstance(got, RatFunc)
        assert (got.num, got.den) == (expected.num, expected.den)


@pytest.mark.parametrize("other", [1.5, Fraction(1, 2)], ids=["float", "Fraction"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_laurent_refuses_other_operands(op, other):
    with pytest.raises(TypeError):
        op(LP_ONE, other)
    with pytest.raises(TypeError):
        op(other, LP_ONE)


# -- Henrici products and sums: operands that share planted factors -----------


def _sharing_operands(t):
    """Two reduced fractions a/b and c/d with planted factors shared across
    them: `cross` in a and d, `back` in c and b, `dens` in b and d."""
    (pa, pb, pc, pd), cross, back, dens, (ca, cb, cc, cd) = t
    a = RatFunc(_times(pa, cross, ca), _times(pb or LP_ONE, back + dens, cb))
    c = RatFunc(_times(pc, back, cc), _times(pd or LP_ONE, cross + dens, cd))
    return a, c


sharing_pairs = st.tuples(st.tuples(small_polys, small_polys, small_polys, small_polys),
                          factor_lists, factor_lists, factor_lists,
                          st.tuples(contents, contents, contents, contents)).map(_sharing_operands)
# 1/(q - 1) + (-1)/(q - 1) = 0 and q/(q^2 - 1) + 1/(q^2 - 1) = 1/(q - 1)
CANCELLING_SUMS = (
    (RatFunc(1, Q_MINUS_1), RatFunc(-1, Q_MINUS_1)),
    (RatFunc(Q, Q * Q - 1), RatFunc(1, Q * Q - 1)),
)


@given(sharing_pairs)
@example(CANCELLING_SUMS[0])
@example(CANCELLING_SUMS[1])
@settings(max_examples=100, deadline=None)
def test_rf_sum_and_product_against_sympy(pair):
    """The canonical form of a * c and a + c is the full reduction of the
    numerator and denominator that sympy multiplied out."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    a, c = pair
    e = {x: (_expr(q, x.num), _expr(q, x.den)) for x in (a, c)}
    (an, ad), (cn, cd) = e[a], e[c]
    cases = (("mul", an * cn, ad * cd), ("add", an * cd + cn * ad, ad * cd))
    for op, num, den in cases:
        expected = RatFunc(_from_sympy(sympy, q, num), _from_sympy(sympy, q, den))
        for got in ((a * c, c * a) if op == "mul" else (a + c, c + a)):
            assert (got.num, got.den) == (expected.num, expected.den)
            assert sympy.expand(_expr(q, got.num) * den - num * _expr(q, got.den)) == 0


# -- inverse and quotient without a gcd --------------------------------------------


@given(sharing_pairs)
@example(CANCELLING_SUMS[1])
@example((RatFunc(LaurentPoly({3: -2, 1: 4})), RatFunc(LaurentPoly({-2: -1}), Q_MINUS_1)))
@settings(max_examples=60, deadline=None)
def test_inverse_and_quotient_against_sympy(pair):
    """a.inverse() is the full reduction RatFunc(den, num), and a / c the
    full reduction of the cross products, checked against sympy.cancel."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    a, c = pair
    for x in (a, c):
        if x.is_zero():
            with pytest.raises(DivisionByZero):
                x.inverse()
            continue
        inv = x.inverse()
        expected = RatFunc(x.den, x.num)
        assert (inv.num, inv.den) == (expected.num, expected.den)
        assert sympy.cancel(_expr(q, inv.num) / _expr(q, inv.den)
                            - _expr(q, x.den) / _expr(q, x.num)) == 0
    if c.is_zero():
        with pytest.raises(DivisionByZero, match="division by zero RatFunc"):
            a / c
        return
    num = _expr(q, a.num) * _expr(q, c.den)
    den = _expr(q, a.den) * _expr(q, c.num)
    expected = RatFunc(_from_sympy(sympy, q, num), _from_sympy(sympy, q, den))
    got = a / c
    assert (got.num, got.den) == (expected.num, expected.den)
    assert sympy.cancel(_expr(q, got.num) / _expr(q, got.den) - num / den) == 0


def test_inverse_calls_no_gcd(monkeypatch):
    import qfun.laurent as laurent

    x = RatFunc(LaurentPoly({-2: -3, 1: 6, 2: 3}), LaurentPoly({0: 2, 1: 1}) * Q_MINUS_1)
    y, z = RatFunc(-2), RatFunc(QINV)

    def no_gcd(a, b):
        raise AssertionError("laurent_gcd called")

    monkeypatch.setattr(laurent, "laurent_gcd", no_gcd)
    inverses = [x.inverse(), y.inverse(), z.inverse()]
    monkeypatch.undo()
    assert (inverses[0] * x).is_one()
    assert inverses[1] == RatFunc(-1, 2)
    assert inverses[2] == RatFunc(Q) and inverses[2].den is LP_ONE


UNIT_DEN_CASES = (
    (RatFunc(1, Q_MINUS_1), RatFunc(-1, Q_MINUS_1)),
    (RatFunc(Q, Q_MINUS_1), RatFunc(-1, Q_MINUS_1)),
    (RatFunc(Q * Q - 1, Q + 1), RatFunc(Q_MINUS_1)),
    (RatFunc(Q + 1, Q_MINUS_1), RatFunc(Q_MINUS_1, Q + 1)),
    (RatFunc(LaurentPoly({0: 2})), RatFunc(LaurentPoly({0: 2}))),
    (RatFunc(QINV), RatFunc(LaurentPoly({2: -1}))),
)


@given(st.one_of(st.sampled_from(UNIT_DEN_CASES), st.tuples(rf_operands, rf_operands)))
@settings(max_examples=200, deadline=None)
def test_unit_denominator_is_lp_one(pair):
    """Every + - * / result whose den is 1 holds the LP_ONE object."""
    a, b = pair
    results = [a + b, a - b, b - a, a * b, -a, a + 1, 2 * a, RatFunc(a.num, a.den)]
    if b:
        results += [a / b, b.inverse()]
    for r in results:
        assert r.den.is_one() == (r.den is LP_ONE), (a, b, r)
    assert LaurentPoly.from_int(1) is LP_ONE
    assert RATFUNC.coerce(1) is RATFUNC.coerce(LP_ONE) is RATFUNC.one


# -- the lift boundary division p / ((q-q^-1)^a (q-1)^b), with no gcd ------------


def _boundary_den(a, b):
    return Q_MINUS_QINV ** a * Q_MINUS_1 ** b


@st.composite
def _boundary_cases(draw):
    """p with planted (q-1)^i (q+1)^j, a q-power and integer content, over
    (q-q^-1)^a (q-1)^b with a, b <= 6; i and j may pass what the den holds."""
    p = draw(small_polys)
    i, j = draw(st.integers(0, 8)), draw(st.integers(0, 7))
    p = p * Q_MINUS_1 ** i * Q_PLUS_1 ** j * LaurentPoly({draw(st.integers(-4, 4)): 1})
    return p * draw(contents), draw(st.integers(0, 6)), draw(st.integers(0, 6))


# (q^2 - 1)^6 over (q - q^-1)^6: every factor cancels, leaving q^6
_FULL_CANCEL = ((Q * Q - 1) ** 6, 6, 0)


@given(_boundary_cases())
@example(_FULL_CANCEL)
@settings(max_examples=200, deadline=None)
def test_boundary_division_against_the_gcd_path_and_sympy(case):
    p, a, b = case
    got = over_den_power(p, a, b)
    expected = RatFunc(p, _boundary_den(a, b))
    assert (got.num, got.den) == (expected.num, expected.den)
    assert got.den.is_one() == (got.den is LP_ONE)
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    n_s, d_s = sympy.fraction(sympy.cancel(_expr(q, p) / _expr(q, _boundary_den(a, b))))
    assert sympy.expand(_expr(q, got.num) * d_s - n_s * _expr(q, got.den)) == 0
    if not p.is_zero():
        assert got.den == _normalized(sympy.Poly(d_s, q))


def test_boundary_division_needs_no_gcd(monkeypatch):
    from qfun import laurent

    cases = [_FULL_CANCEL, (LaurentPoly(), 2, 1), (LaurentPoly({-3: 4}), 0, 0),
             (2 * Q_MINUS_1 ** 3 * Q_PLUS_1 * (Q * Q + 1), 2, 2), (Q_PLUS_1 ** 4, 1, 5)]
    expected = [RatFunc(p, _boundary_den(a, b)) for p, a, b in cases]

    def no_gcd(a, b):
        raise AssertionError("laurent_gcd called")

    monkeypatch.setattr(laurent, "laurent_gcd", no_gcd)
    got = [over_den_power(p, a, b) for p, a, b in cases]
    monkeypatch.undo()
    assert got == expected
    assert got[0].num == LaurentPoly({6: 1}) and got[0].den is LP_ONE
    # 2 (q-1)^3 (q+1) (q^2+1) q^2 / (q-1)^4 (q+1)^2
    assert got[3].den == Q_MINUS_1 * Q_PLUS_1
