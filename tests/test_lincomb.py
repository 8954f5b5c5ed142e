"""Properties of the sparse linear-combination core over each coefficient ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfun.laurent import LaurentPoly, RatFunc
from qfun.lincomb import LinComb, accumulate, add_outer, echelon, reduce_row


class Vec(LinComb):
    """The core with no context: keys are small words."""

    __slots__ = ()

    def __init__(self, terms):
        self.terms = terms

    def _same(self, terms):
        return Vec(terms)


ints = st.integers(min_value=-4, max_value=4)
polys = st.dictionaries(st.integers(min_value=-2, max_value=2), ints, max_size=3).map(
    LaurentPoly
)
ratfuncs = st.tuples(polys, polys.filter(bool)).map(lambda t: RatFunc(t[0], t[1]))
fractions = st.builds(Fraction, ints, st.integers(min_value=1, max_value=5))
keys = st.tuples(*[st.integers(min_value=0, max_value=2)] * 2)


def vec_and_scalar(coeffs):
    """A Vec built through accumulate (so it never stores a zero) and a scalar."""
    items = st.lists(st.tuples(keys, coeffs), max_size=8)
    return st.tuples(items.map(lambda it: Vec(accumulate({}, it))), coeffs)


def check_laws(a, b, s):
    for v in (a, b, a + b, a - b, -a, a.scale(s)):
        assert all(v.terms.values())
    assert (a + (-a)).is_zero() and not (a - a)
    assert (a + b) - b == a
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)


@settings(max_examples=80, deadline=None)
@given(vec_and_scalar(polys), vec_and_scalar(polys))
def test_laws_over_laurent_polys(x, y):
    check_laws(x[0], y[0], x[1])


@settings(max_examples=40, deadline=None)
@given(vec_and_scalar(ratfuncs), vec_and_scalar(ratfuncs))
def test_laws_over_ratfuncs(x, y):
    check_laws(x[0], y[0], x[1])


@settings(max_examples=80, deadline=None)
@given(vec_and_scalar(fractions), vec_and_scalar(fractions))
def test_laws_over_fractions(x, y):
    check_laws(x[0], y[0], x[1])


def test_accumulate_drops_cancelled_terms_and_add_outer_pairs_keys():
    d = accumulate({}, [("a", Fraction(1)), ("b", Fraction(2)), ("a", Fraction(-1))])
    assert d == {"b": Fraction(2)}
    t = add_outer({}, {"x": 2, "y": 1}, {"z": 3}, 5)
    assert t == {("x", "z"): 30, ("y", "z"): 15}
    assert add_outer(t, {"x": 1}, {"z": -6}, 5) == {("y", "z"): 15}


sparse_rows = st.dictionaries(st.integers(min_value=0, max_value=5), fractions.filter(bool), max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.lists(sparse_rows, max_size=6), sparse_rows)
def test_row_reduction_against_sympy_rank(rows, v):
    sympy = pytest.importorskip("sympy")

    def rank(rs):
        return sympy.Matrix(len(rs), 6, [r.get(k, 0) for r in rs for k in range(6)]).rank()

    pivots = echelon(rows)
    assert len(pivots) == rank(rows)
    assert all(min(p) == k and p[k] == 1 for k, p in pivots.items())
    rest = reduce_row(v, pivots)
    assert not set(rest) & set(pivots)
    # v - rest lies in the row space; rest vanishes exactly when v adds no rank
    assert rank(rows + [accumulate(dict(v), rest.items(), -1)]) == rank(rows)
    assert (not rest) == (rank(rows + [v]) == rank(rows))
