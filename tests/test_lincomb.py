"""Properties of the sparse linear-combination core over each coefficient ring."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfun.laurent import LaurentPoly, RatFunc
from qfun.lincomb import (
    LinComb,
    accumulate,
    add_outer,
    apply_pair_map,
    apply_word_map,
    back_substitute,
    concat_product,
    echelon,
    extend_prefix,
    reduce_row,
)


class Vec(LinComb):
    """The core with no context: keys are small words."""

    __slots__ = ()

    def __init__(self, terms):
        self.terms = terms

    def _same(self, terms):
        return Vec(terms)


class Words(Vec):
    """Vec with the concatenation product of word keys."""

    __slots__ = ()

    def _same(self, terms):
        return Words(terms)

    def __mul__(self, other):
        return Words(concat_product(self.terms, other.terms))


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


def test_accumulate_takes_coeff_for_an_item_that_is_one():
    class One:
        def __mul__(self, other):
            raise AssertionError("multiplied by one")

    one = One()
    d = accumulate({}, [("a", one), ("b", Fraction(2))], Fraction(5), one)
    assert d == {"a": Fraction(5), "b": Fraction(10)}
    # an equal coefficient that is another object is multiplied
    assert accumulate({}, [("a", Fraction(1))], Fraction(5), Fraction(1)) == {"a": Fraction(5)}


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


ratfunc_rows = st.dictionaries(st.integers(min_value=0, max_value=7), ratfuncs.filter(bool), max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.lists(ratfunc_rows, max_size=7))
def test_back_substitute_matches_reduce_row_over_ratfuncs(rows):
    """Minus the tail of a lead is reduce_row of that lead, a key that leads
    no pivot reduces to itself, and lead + tail lies in the row span."""
    pivots = echelon(rows)
    tails = back_substitute(pivots)
    assert set(tails) == set(pivots)
    one = RatFunc(LaurentPoly({0: 1}))
    for lead, tail in tails.items():
        assert not set(tail) & set(pivots)
        assert all(k > lead for k in tail)
        assert {k: -c for k, c in tail.items()} == reduce_row({lead: one}, pivots)
        assert reduce_row({lead: one, **tail}, pivots) == {}
    for k in range(8):
        if k not in pivots:
            assert reduce_row({k: one}, pivots) == {k: one}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=2), max_size=5).map(tuple), max_size=8),
       st.integers(min_value=0, max_value=2), st.sampled_from([0, 3, 100]))
def test_extend_prefix_equals_the_fold(words, start, limit):
    """The value of every word equals the letter-by-letter fold from the unit
    at word[:start], on a cold and a warm memo and at any limit; only
    prefixes longer than start are memoized, at most limit of them."""
    calls = []

    def extend(value, letter):
        calls.append(letter)
        return value * 3 + letter + 1

    def fold(word):
        value = 7
        for letter in word[start:]:
            value = value * 3 + letter + 1
        return value

    memo = {}
    for _ in range(2):
        for w in words:
            assert extend_prefix(memo, w, 7, extend, limit, start=start) == fold(w)
    assert len(memo) <= limit
    assert all(len(k) > start and v == fold(k) for k, v in memo.items())
    if limit == 100:
        # each distinct prefix is extended once
        prefixes = {w[:t] for w in words for t in range(start + 1, len(w) + 1)}
        assert len(calls) == len(prefixes)


word_terms = st.dictionaries(
    st.lists(st.integers(min_value=0, max_value=3), max_size=4).map(tuple),
    ints.filter(bool),
    max_size=6,
)


def letter_image(letter):
    """A two-term image of a letter; letter 1 maps to the single word (1,)."""
    return Words(accumulate({}, [((letter,), 1), ((letter + 10,), letter - 1)]))


@settings(max_examples=60, deadline=None)
@given(word_terms, st.booleans())
@example({(0, 1, 0): 2, (1, 1, 2): -1}, False)
def test_apply_word_map_calls_image_once_per_letter(terms, reverse):
    calls = []

    def image(letter):
        calls.append(letter)
        return letter_image(letter)

    got = apply_word_map(terms, image, Words({(): 1}), reverse=reverse)
    assert sorted(calls) == sorted({letter for w in terms for letter in w})
    ref = {}
    for w, c in terms.items():
        acc = Words({(): 1})
        for letter in reversed(w) if reverse else w:
            acc = acc * letter_image(letter)
        accumulate(ref, acc.terms.items(), c)
    assert got.terms == ref


side_images = st.dictionaries(
    st.integers(min_value=0, max_value=3),
    st.dictionaries(st.integers(min_value=0, max_value=2), ints.filter(bool), max_size=3),
)
pair_terms = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
    ints.filter(bool),
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(pair_terms, side_images, side_images)
@example({(0, 1): 1, (0, 2): 3, (1, 1): -2, (2, 1): 1}, {0: {0: 1}, 2: {1: 2}}, {1: {0: 1}, 2: {2: 1}})
def test_apply_pair_map_equals_the_per_pair_loop(terms, lefts, rights):
    """An image missing from lefts or rights is empty."""
    calls = {"left": [], "right": []}

    def spy(side, images):
        def image(key):
            calls[side].append(key)
            return images.get(key, {})

        return image

    got = apply_pair_map(terms, spy("left", lefts), spy("right", rights))
    ref = {}
    for (a, b), c in terms.items():
        add_outer(ref, lefts.get(a, {}), rights.get(b, {}), c)
    assert got == ref
    assert sorted(calls["left"]) == sorted({a for a, _ in terms})
    assert sorted(calls["right"]) == sorted({b for a, b in terms if lefts.get(a)})


def test_powers_multiply_out_and_refuse_negative_exponents():
    from qfun.qmatrix import MatrixAlgebra
    from qfun.uq import UqAlgebra

    m = MatrixAlgebra(1)
    x = m.gen(1, 2) + m.gen(2, 1)
    assert x ** 0 == 1 and x ** 1 == x and x ** 3 == x * x * x
    uq = UqAlgebra(1)
    for el in (x, uq.E(1), uq.K(1)):
        with pytest.raises(ValueError):
            el ** -1
    with pytest.raises(TypeError):
        m.coproduct(x) ** 2
