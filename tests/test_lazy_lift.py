"""The lazy lift against the eager path.

IntContext.lift returns a Lift that keeps its Laurent numerators by den and
powers; sums, differences and zero tests of lifts stay over Z[q,q^-1].  The
oracle is the eager path: over_common_denominator of the same groups, and
k(q) arithmetic on plain NCElements built from the lifts' coefficients."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfun import intform
from qfun.freealg import AlgebraMismatch, NCElement
from qfun.intform import IntContext, IntExpr, Lift, chigen, phigen, psigen, relation_catalog, rgen
from qfun.laurent import LP_ONE, Q_MINUS_1, Q_MINUS_QINV, LaurentPoly, RatFunc, over_common_denominator

_CONTEXTS = {}


def _context(n, kind):
    """One shared context per (n, kind): SL with each strategy, or GL."""
    if (n, kind) not in _CONTEXTS:
        _CONTEXTS[n, kind] = (IntContext(n, gl=True) if kind == "GL"
                              else IntContext(n, strategy=kind))
    return _CONTEXTS[n, kind]


def _letters(n):
    idx = range(1, n + 2)
    return ([rgen(i, j) for i in idx for j in idx] + [phigen(i) for i in range(1, n + 1)]
            + [psigen(i) for i in idx] + [chigen(i) for i in idx])


def _plain(el):
    """el as a plain NCElement with its k(q) coefficients."""
    return NCElement(el.spec, dict(el.terms), reduce=False)


_Q_PLUS_1 = LaurentPoly({1: 1, 0: 1})
# 1/(q+1), 1/(q-1)^2 and 1/(q-q^-1), and Laurent coefficients
_DENS = [_Q_PLUS_1, Q_MINUS_1 * Q_MINUS_1, Q_MINUS_QINV, None]
_small = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), min_size=1, max_size=3).map(
    LaurentPoly).filter(bool)
_coeffs = st.tuples(_small, st.sampled_from(_DENS)).map(
    lambda t: RatFunc.from_laurent(t[0]) if t[1] is None else RatFunc(*t))


@st.composite
def _cases(draw):
    n = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["diagonal74", "antidiag73", "GL"]))
    words = st.lists(st.sampled_from(_letters(n)), max_size=3).map(tuple)
    expr = IntExpr(draw(st.dictionaries(words, _coeffs, min_size=1, max_size=4)))
    # a split of each coefficient, with a den of its own
    part = IntExpr({w: draw(_coeffs) for w in expr.terms})
    other = IntExpr(draw(st.dictionaries(words, _coeffs, max_size=2)))
    return _context(n, kind), expr, part, other


@given(_cases())
@settings(max_examples=80, deadline=None)
def test_lazy_sums_differences_and_zero_tests_match_the_eager_path(case):
    ctx, expr, part, other = case
    lifts = [ctx.lift(e) for e in (expr, part, expr - part, other)]
    lifted, lp, lr, lo = lifts
    eager = dict(zip("xpro", (_plain(el) for el in lifts)))
    # lift(expr) - lift(part) - lift(expr - part) vanishes, over several dens
    # and powers; adding lift(other) leaves lift(other)
    for combo, plain in (
        (lifted - lp - lr, eager["x"] - eager["p"] - eager["r"]),
        (lifted - (lp + lr) + lo, eager["x"] - (eager["p"] + eager["r"]) + eager["o"]),
        (-lo + lifted - lr, -eager["o"] + eager["x"] - eager["r"]),
    ):
        assert isinstance(combo, Lift)
        assert all(nums for by_ab in combo.groups.values() for nums in by_ab.values())
        assert over_common_denominator(combo.groups) == plain.terms
        vanishes = not plain.terms
        assert combo.is_zero() is vanishes
        assert bool(combo) is not vanishes
        assert combo.terms == plain.terms
        assert str(combo) == str(plain)
        assert combo.is_zero() is vanishes
    assert (lifted - lp - lr).is_zero()
    assert (lifted == lp + lr) and (lp + lr == lifted)
    assert (lifted - lp - lr + lo == lo) and hash(lifted) == hash(lp + lr)
    assert (lifted == lo) is (eager["x"] == eager["o"])
    assert (lifted + lo == lp) is (eager["x"] + eager["o"] == eager["p"])
    # +, - and == with a plain NCElement, either way round
    assert lifted - eager["o"] == eager["x"] - eager["o"] and eager["o"] - lifted == eager["o"] - eager["x"]
    assert lifted + eager["o"] == eager["o"] + lifted == eager["x"] + eager["o"]
    for el, plain in zip(lifts, eager.values()):
        assert el == plain and plain == el and hash(el) == hash(plain)
        assert (el == eager["o"]) is (plain == eager["o"])
        assert (eager["o"] == el) is (eager["o"] == plain)


def test_vanishing_across_dens_and_powers():
    """Each difference vanishes only when every numerator is brought to the
    top powers over all groups and multiplied by the other groups' dens."""
    q_minus_1_sq = RatFunc(1, Q_MINUS_1 * Q_MINUS_1)
    q_plus_1 = RatFunc(1, _Q_PLUS_1)
    over_qmqinv = RatFunc(1, Q_MINUS_QINV)
    for kind in ("diagonal74", "antidiag73", "GL"):
        ctx = _context(2, kind)
        lift = ctx.lift
        one = IntExpr.one()
        for i in (1, 2, 3):
            r, chi = IntExpr.gen(rgen(i, i)), IntExpr.gen(chigen(i))
            # (r_ii - 1)/(q-1)^2 - chi_i/(q-1): dens (q-1)^2 and (q-1),
            # powers (0, 0) and (0, 1)
            d = lift(r.scale(q_minus_1_sq)) - lift(one.scale(q_minus_1_sq)) \
                - lift(chi.scale(RatFunc(1, Q_MINUS_1)))
            assert d.is_zero() and not d and d == lift(IntExpr.zero()), (kind, i)
            assert not (d + lift(chi)).is_zero()
        for i, j in ((1, 2), (3, 1)):
            # x_ij/(q+1) three ways: r_ij (q-q^-1)/(q+1) over den 1, r_ij
            # over den (q+1), and r_ij (q-q^-1) over den (q+1)
            rij = IntExpr.gen(rgen(i, j))
            a = lift(rij.scale(RatFunc(Q_MINUS_QINV, _Q_PLUS_1)))
            b = lift(rij.scale(q_plus_1)) + lift(rij.scale(RatFunc(Q_MINUS_QINV - 1, _Q_PLUS_1)))
            assert a == b and b == a and not (a - b)
            # 1/(q-q^-1) with the power a = 1 of r_ij
            c = lift(rij.scale(over_qmqinv))
            assert (c - lift(rij.scale(over_qmqinv * RatFunc(1, 2)))
                    - lift(rij.scale(over_qmqinv * RatFunc(1, 2)))).is_zero()
            assert c != a and not (c - a).is_zero()


def test_empty_groups_are_dropped_and_a_lone_group_needs_no_arithmetic(monkeypatch):
    ctx = _context(1, "diagonal74")
    # phi_1 - chi_1 + chi_2 cancels inside the one group (0, 1)
    zero = ctx.lift(IntExpr.gen(phigen(1)) - IntExpr.gen(chigen(1)) + IntExpr.gen(chigen(2)))
    assert zero.groups == {} and zero.is_zero() and zero == 0
    r12, chi1 = ctx.lift(IntExpr.gen(rgen(1, 2))), ctx.lift(IntExpr.gen(chigen(1)))
    assert (r12 - r12).groups == {} and (r12 - r12).is_zero()
    lone = chi1 + r12 - r12
    assert list(lone.groups) == [LP_ONE] and list(lone.groups[LP_ONE]) == [(0, 1)]
    products = []
    real = LaurentPoly.__mul__

    def counting(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    assert not lone.is_zero() and lone and (chi1 - r12 + r12 == chi1)
    assert not products


def test_lifts_of_two_contexts_do_not_mix():
    a, b = IntContext(1), IntContext(1)
    x, y = a.lift_gen(chigen(1)), b.lift_gen(chigen(1))
    for op in (lambda: x - y, lambda: x + y, lambda: x == y, lambda: x == _plain(y),
               lambda: _plain(x) - y):
        with pytest.raises(AlgebraMismatch):
            op()


def test_reading_terms_divides_once_and_keeps_the_result(monkeypatch):
    ctx = _context(1, "GL")
    d = ctx.lift(IntExpr.gen(phigen(1))) - ctx.lift(IntExpr.gen(chigen(2)))
    calls = []
    real = intform.over_common_denominator

    def counting(groups):
        calls.append(1)
        return real(groups)

    monkeypatch.setattr(intform, "over_common_denominator", counting)
    assert not d.is_zero() and not calls
    first = d.terms
    assert d.terms is first and str(d) and d.scale(2).terms and len(calls) == 1
    assert type(d.scale(2)) is NCElement and type(d * d) is NCElement


def test_sampled_n3_catalog_verdicts_match_the_eager_path():
    ctx = IntContext(3)
    for form in ("Q", "P", "plain"):
        for rid, inst, variants in relation_catalog(form, 3)[::9]:
            for vname, lhs, rhs in variants:
                lazy = ctx.lift(lhs) - ctx.lift(rhs)
                plain = _plain(ctx.lift(lhs)) - _plain(ctx.lift(rhs))
                assert lazy.is_zero() is plain.is_zero(), (form, rid, inst, vname)
                assert lazy.terms == plain.terms and str(lazy) == str(plain)
