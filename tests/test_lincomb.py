"""Properties of the sparse linear-combination core over each coefficient ring."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfun.laurent import LP_ONE, RATFUNC, RF_ONE, LaurentPoly, RatFunc
from qfun.lincomb import (
    LinComb,
    accumulate,
    add_outer,
    add_pair_products,
    apply_pair_map,
    apply_word_map,
    back_substitute,
    concat_product,
    echelon,
    extend_prefix,
    pair_product,
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


def test_scale_row_reduction_and_pair_maps_skip_products_by_the_unit(monkeypatch):
    """A coefficient that is RF_ONE, the unit object of k(q), is never a
    factor of a product; the results equal the multiplied-out ones."""
    q = RatFunc(LaurentPoly({1: 1}))
    rows = [{0: RF_ONE, 1: q, 2: RF_ONE}, {1: RF_ONE, 2: q + 1}, {0: q, 2: RF_ONE}]
    pairs = {(0, 1): RF_ONE, (1, 1): q}
    images = {0: {0: RF_ONE, 1: q}, 1: {1: RF_ONE}}

    class KqVec(Vec):
        __slots__ = ()

        def _coerce(self, c):
            return RATFUNC.coerce(c)

    def run(one):
        pivots = echelon(rows, one)
        return pivots, back_substitute(pivots, one), apply_pair_map(pairs, images.get, images.get, one)

    expected = run(None)
    scaled = {0: q, 1: q * q}
    real = RatFunc.__mul__

    def spy(a, b):
        assert a is not RF_ONE and b is not RF_ONE, "multiplied by one"
        return real(a, b)

    monkeypatch.setattr(RatFunc, "__mul__", spy)
    monkeypatch.setattr(RatFunc, "__rmul__", spy)
    assert run(RF_ONE) == expected
    assert KqVec({0: RF_ONE, 1: q}).scale(q).terms == scaled
    assert KqVec({0: q}).scale(1).terms == {0: q}


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


class Monomials(Vec):
    """Vec with the commutative product: a key is a sorted word.  Its
    images of distinct words can cancel, unlike those of the free product."""

    __slots__ = ()
    products = None  # a list records (left terms, right terms) of each product

    def _same(self, terms):
        return Monomials(terms)

    def __mul__(self, other):
        if Monomials.products is not None:
            Monomials.products.append((self.terms, other.terms))
        out = {}
        for w1, c1 in self.terms.items():
            accumulate(out, ((tuple(sorted(w1 + w2)), c1 * c2) for w2, c2 in other.terms.items()))
        return Monomials(out)


def monomial_image(letter):
    """x_l + (l - 1) x_(l+1): images of distinct words collide."""
    return Monomials(accumulate({}, [((letter,), 1), ((letter + 1,), letter - 1)]))


def fold(terms, image, one, reverse):
    """The oracle: sum_w c_w image(w_1)...image(w_k), word by word."""
    out = {}
    for w, c in terms.items():
        acc = one
        for letter in reversed(w) if reverse else w:
            acc = acc * image(letter)
        accumulate(out, acc.terms.items(), c)
    return out


@settings(max_examples=80, deadline=None)
@given(word_terms, st.booleans(), st.booleans(), st.sampled_from(["free", "commutative"]))
@example({(0, 1, 2): 1, (1, 0, 2): -1, (2, 0, 1): 1, (2, 1, 0): -1}, False, True, "commutative")
def test_apply_word_map_equals_the_per_word_fold(terms, reverse, memoized, product):
    """Horner form against the fold, forward and reversed, with the caller's
    value of one word and without it."""
    image, one = ((letter_image, Words({(): 1})) if product == "free"
                  else (monomial_image, Monomials({(): 1})))
    values = []

    def word_value(w):
        values.append(w)
        return fold({w: 1}, image, one, reverse)

    got = apply_word_map(terms, image, one, reverse=reverse,
                         word_value=word_value if memoized else None)
    assert got.terms == fold(terms, image, one, reverse)
    # word_value sees only a word of terms or the rest of one: a nonempty
    # prefix, or a nonempty suffix when reversed
    rests = {w[t:] if reverse else w[:len(w) - t] for w in terms for t in range(len(w))}
    assert set(values) <= rests
    if memoized:
        # a word alone in its group takes word_value, not a product of images
        last = [w[0] if reverse else w[-1] for w in terms if w]
        assert {w for w in terms if w and last.count(w[0] if reverse else w[-1]) == 1} <= set(values)


@pytest.mark.parametrize("reverse", [False, True])
def test_a_group_whose_rests_cancel_makes_no_product_with_its_image(reverse):
    """x0 x1 x2 - x1 x0 x2: the rests of the group of letter 2 cancel in the
    commutative target, so image(2) is neither built nor multiplied."""
    terms = {(0, 1, 2): 1, (1, 0, 2): -1, (3, 3): 2}
    if reverse:
        terms = {w[::-1]: c for w, c in terms.items()}
    calls = []

    def image(letter):
        calls.append(letter)
        return monomial_image(letter)

    products = Monomials.products = []
    try:
        got = apply_word_map(terms, image, Monomials({(): 1}), reverse=reverse)
    finally:
        Monomials.products = None
    assert got.terms == fold(terms, monomial_image, Monomials({(): 1}), reverse)
    assert got.terms == (monomial_image(3) * monomial_image(3)).scale(2).terms
    assert 2 not in calls
    assert all(right != monomial_image(2).terms for _, right in products)


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


# LP_ONE itself takes the `one` skips; units make sums cancel
units = st.sampled_from([LP_ONE, -LP_ONE, LaurentPoly({0: 1}), LaurentPoly({1: 1})])
small_keys = st.integers(min_value=0, max_value=2)
tensors = st.dictionaries(
    st.tuples(small_keys, small_keys), st.one_of(units, polys.filter(bool)), max_size=5
)
products = st.dictionaries(
    st.tuples(small_keys, small_keys), st.dictionaries(small_keys, units, min_size=1, max_size=2)
)


def _snapshot(terms):
    return {k: (_snapshot(c) if isinstance(c, dict) else dict(c.terms)) for k, c in terms.items()}


@settings(max_examples=150, deadline=None)
@given(tensors, tensors, products)
@example({(0, 0): LP_ONE, (1, 0): LP_ONE}, {(0, 0): LP_ONE},
         {(0, 0): {0: LP_ONE}, (1, 0): {0: -LP_ONE}})
def test_pair_product_equals_the_double_loop(x, y, table):
    """A pair of keys missing from table multiplies to 0."""
    before = [_snapshot(x), _snapshot(y), _snapshot(table)]
    calls = []

    def product(u, v):
        calls.append((u, v))
        return table.get((u, v), {})

    ref = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            add_pair_products(ref, [(c1 * c2, table.get((a1, a2), {}), table.get((b1, b2), {}))])
    for one in (LP_ONE, None):
        calls.clear()
        got = pair_product(x, y, product, one)
        assert list(got.items()) == list(ref.items())
        assert all(got.values())
        assert calls == [p for (a1, b1) in x for (a2, b2) in y for p in ((a1, a2), (b1, b2))]
    assert [_snapshot(x), _snapshot(y), _snapshot(table)] == before


# tensors whose terms share coefficient objects, as a coproduct scaled by
# one coefficient has: each key takes one of a few objects of a pool
coeff_pools = st.lists(st.one_of(units, polys.filter(bool)), min_size=1, max_size=3)
pool_indices = st.dictionaries(st.tuples(small_keys, small_keys),
                               st.integers(min_value=0, max_value=2), max_size=6)


def _from_pool(pool, indices):
    return {k: pool[i % len(pool)] for k, i in indices.items()}


@settings(max_examples=150, deadline=None)
@given(coeff_pools, pool_indices, pool_indices, products, st.booleans())
@example([LaurentPoly({1: 1}), LaurentPoly({0: 2})], {(0, 0): 0, (1, 0): 0, (1, 1): 1},
         {(0, 0): 0, (1, 1): 1},
         {(0, 0): {0: LP_ONE}, (1, 0): {1: LP_ONE}, (0, 1): {2: LP_ONE}, (1, 1): {0: LP_ONE}},
         True)
def test_pair_product_with_shared_coefficient_objects(pool, xi, yi, table, same_pool):
    """x = c X and the like: every product c1 c2 of two shared objects,
    computed once per call, equals the double loop's fresh product, and the
    terms come in the double loop's order.  With same_pool both factors
    draw from one pool, so a pair (c1, c2) also meets (c2, c1)."""
    x = _from_pool(pool, xi)
    y = _from_pool(pool if same_pool else [c * LaurentPoly({1: 1}) for c in pool], yi)
    before = [_snapshot(x), _snapshot(y)]
    ref = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            add_pair_products(ref, [(c1 * c2, table.get((a1, a2), {}), table.get((b1, b2), {}))])
    for one in (LP_ONE, None):
        got = pair_product(x, y, lambda u, v: table.get((u, v), {}), one)
        assert list(got.items()) == list(ref.items())
    assert [_snapshot(x), _snapshot(y)] == before


def test_pair_product_shares_no_product_across_distinct_right_coefficients():
    """One left coefficient object against two right ones: two products."""
    c = LaurentPoly({1: 1})
    x = {(0, 0): c, (1, 1): c}
    y = {(0, 0): LaurentPoly({0: 2}), (1, 1): LaurentPoly({-1: 3})}
    got = pair_product(x, y, lambda u, v: {u + v: LP_ONE}, LP_ONE)
    assert got == {(0, 0): LaurentPoly({1: 2}), (1, 1): LaurentPoly({0: 3}) + LaurentPoly({1: 2}),
                   (2, 2): LaurentPoly({0: 3})}


@settings(max_examples=80, deadline=None)
@given(tensors, tensors, products)
def test_pair_product_concat_passes_the_concatenated_word(x, y, table):
    """With concat, product takes the word a1 + a2 in place of (a1, a2), in
    the same order, and the result is the same."""
    words = lambda t: {((a,), (b,)): c for (a, b), c in t.items()}
    calls = []

    def word_nf(w):
        calls.append(w)
        return table.get(w, {})

    got = pair_product(words(x), words(y), word_nf, LP_ONE, concat=True)
    ref = pair_product(words(x), words(y), lambda u, v: table.get(u + v, {}), LP_ONE)
    assert list(got.items()) == list(ref.items())
    assert calls == [w for (a1, b1) in x for (a2, b2) in y for w in ((a1, a2), (b1, b2))]


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
