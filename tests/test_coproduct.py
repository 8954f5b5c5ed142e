"""The memoized coproduct and the fused tensor product against the
definitions they replace: the raw (n+1)^k expansion of Delta on a word and
the accumulate-then-reduce product of two tensors, both reduced pair by pair
with plain loops."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfun import qmatrix
from qfun.classical import ClassicalTensor, PBWElement, lie_algebra
from qfun.laurent import LAURENT, RATFUNC
from qfun.freealg import AlgebraMismatch, NCElement
from qfun.intform import IntExpr, rgen
from qfun.lincomb import add_outer
from qfun.qmatrix import MatrixAlgebra
from qfun.qsl import BorelAlgebra, SLAlgebra
from qfun.uq import UqAlgebra, uq_coproduct

ALGEBRAS = {
    "M(2)/lex": MatrixAlgebra(1, order="lex"),
    "M(2)/antidiag": MatrixAlgebra(1, order="antidiag"),
    "SL(2)/diagonal74": SLAlgebra(1, strategy="diagonal74"),
    "SL(2)/antidiag73": SLAlgebra(1, strategy="antidiag73"),
    "B+(3)": BorelAlgebra(2, "+"),
}
# the SL and Borel entries above are over k(q), their default domain; these
# add M(2) over k(q), SL(2) with its reducer over Z[q,q^-1], and M(3)
TENSOR_ALGEBRAS = {
    **ALGEBRAS,
    "M(2)/lex/k(q)": MatrixAlgebra(1, domain=RATFUNC),
    "SL(2)/diagonal74/laurent": SLAlgebra(1, domain=LAURENT),
    "M(3)/lex": MatrixAlgebra(2, order="lex"),
}


def _reduced(alg, word):
    """The full normal form of one word, the reducer included."""
    return alg.spec.reduce_terms({word: alg.spec.domain.one})


def _reduce_pairs(alg, raw):
    """Reduce each side of each word pair and sum, with plain loops."""
    out = {}
    for (wl, wr), c in raw.items():
        for kl, cl in _reduced(alg, wl).items():
            for kr, cr in _reduced(alg, wr).items():
                key = (kl, kr)
                out[key] = out.get(key, alg.spec.domain.zero) + c * cl * cr
    return {k: c for k, c in out.items() if c}


def _raw_coproduct(alg, el):
    """sum_w c_w sum over the (n+1)^k splittings of w of wl (x) wr, unreduced."""
    out = {}
    for w, c in el.terms.items():
        pieces = [((), ())]
        for p in w:
            i, j = alg.cell_of(p)
            pieces = [
                (wl + (alg.spec.index[qmatrix.x_gen(i, k)],),
                 wr + (alg.spec.index[qmatrix.x_gen(k, j)],))
                for wl, wr in pieces
                for k in range(1, alg.n + 2)
                if (i, k) in alg.cells and (k, j) in alg.cells
            ]
        for key in pieces:
            out[key] = out.get(key, alg.spec.domain.zero) + c
    return {k: c for k, c in out.items() if c}


@st.composite
def elements(draw, alg, max_len=3):
    """A raw (unreduced) element: a few words with small integer coefficients."""
    letters = st.integers(min_value=0, max_value=len(alg.spec.alphabet) - 1)
    words = st.lists(letters, max_size=max_len).map(tuple)
    coeffs = st.integers(min_value=-3, max_value=3).filter(bool)
    terms = draw(st.dictionaries(words, coeffs, max_size=3))
    coerce = alg.spec.domain.coerce
    return NCElement(alg.spec, {w: coerce(c) for w, c in terms.items()}, reduce=False)


def _assert_coproduct_is_the_raw_expansion(alg, el):
    """Delta(el) equals the reduced raw expansion, and the call changes no
    value of the coproduct memo and returns none of them as its terms."""
    memo = alg._delta_memo
    before = {w: dict(d) for w, d in memo.items()}
    got = alg.coproduct(el).terms
    assert got == _reduce_pairs(alg, _raw_coproduct(alg, el))
    assert all(memo[w] == d for w, d in before.items())
    assert all(got is not d for d in memo.values())
    return got


def _cancelling_group(alg):
    """u p - nf(u) p unreduced, for the first rule's word u = (a, b) and the
    letter p = a: the words ending in p form one group whose prefixes sum
    to zero in the algebra."""
    (a, b) = next(iter(alg.spec.rules))
    terms = {(a, b, a): alg.spec.domain.one}
    for w, c in alg.spec.reduce_terms({(a, b): alg.spec.domain.one}).items():
        terms[w + (a,)] = -c
    return NCElement(alg.spec, terms, reduce=False)


def _explicit_elements(alg):
    """Every quantum minor (det_q among them), the antipode images of the
    generators and a sum whose group of last letters cancels to zero."""
    idx = range(1, alg.n + 2)
    out = {"cancelling group": _cancelling_group(alg)}
    for k in idx:
        for rows in combinations(idx, k):
            for cols in combinations(idx, k):
                out[f"minor {rows} {cols}"] = alg.quantum_minor(rows, cols)
    for i in idx:
        for j in idx:
            for sign in (1, -1):
                out[f"S(x{i}{j}) sign {sign}"] = alg.antipode_image(i, j, sign)
    return out


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_memoized_coproduct_equals_the_raw_expansion(name, data):
    alg = ALGEBRAS[name]
    el = data.draw(elements(alg))
    got = _assert_coproduct_is_the_raw_expansion(alg, el)
    # the reduced element has the same coproduct
    reduced = NCElement(alg.spec, dict(el.terms))
    assert alg.coproduct(reduced).terms == got


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + ["M(3)/lex"])
def test_memoized_coproduct_equals_the_raw_expansion_on_minors(name):
    """Words that share a last letter take the grouped path of coproduct:
    the cancelling group everywhere, and det_q of M(3), whose six words fall
    into three groups of two."""
    alg = TENSOR_ALGEBRAS[name]
    for label, el in _explicit_elements(alg).items():
        got = _assert_coproduct_is_the_raw_expansion(alg, el)
        if label == "cancelling group":
            assert got == {}
    # det_q is group-like (in SL it is 1, whose coproduct is 1 (x) 1)
    d = alg.detq()
    assert alg.coproduct(d).terms == add_outer({}, d.terms, d.terms, alg.spec.domain.one)


@pytest.mark.parametrize("name", sorted(TENSOR_ALGEBRAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tensor_product_equals_accumulate_then_reduce(name, data):
    alg = TENSOR_ALGEBRAS[name]
    x = alg.coproduct(data.draw(elements(alg, max_len=2)))
    y = alg.coproduct(data.draw(elements(alg, max_len=2)))
    raw = {}
    for (al, ar), ca in x.terms.items():
        for (bl, br), cb in y.terms.items():
            key = (al + bl, ar + br)
            raw[key] = raw.get(key, alg.spec.domain.zero) + ca * cb
    raw = {k: c for k, c in raw.items() if c}
    assert (x * y).terms == _reduce_pairs(alg, raw)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_coproduct_builds_each_distinct_word_once(name, data):
    alg = ALGEBRAS[name]
    el = data.draw(elements(alg))
    alg.clear_caches()
    built = []
    real = alg._delta_extend

    def spy(d, p):
        built.append(p)
        return real(d, p)

    alg._delta_extend = spy
    try:
        first = alg.coproduct(el)
        prefixes = {w[:k] for w in el.terms for k in range(1, len(w) + 1)}
        # grouped words build no Delta of their own; each build is memoized
        # under a new prefix, so none is built twice
        memo = alg._delta_memo
        assert len(built) == len(memo) and set(memo) <= prefixes
        assert alg.coproduct(el) == first
        for w in el.terms:
            alg.coproduct_word(w)
        assert len(built) == len(prefixes)
    finally:
        del alg._delta_extend


def test_coproduct_past_the_memo_bound(monkeypatch):
    alg = MatrixAlgebra(1)
    el = alg.gen(1, 2) * alg.gen(2, 1) * alg.gen(1, 1)
    expect = alg.coproduct(el)
    alg.clear_caches()
    assert not alg._delta_memo and not alg.spec._nf_cache
    monkeypatch.setattr(qmatrix, "CACHE_LIMIT", 0)
    assert alg.coproduct(el) == expect
    assert not alg._delta_memo


def test_scaled_coproduct_multiplies_no_coefficient_by_one(monkeypatch):
    from qfun.laurent import LP_ONE, Q, LaurentPoly

    alg = MatrixAlgebra(2)
    el = (alg.gen(1, 2) * alg.gen(2, 3)).scale(Q) + alg.gen(3, 1).scale(2)
    expect = alg.coproduct(el)
    real = LaurentPoly.__mul__
    ones = []

    def mul(a, b):
        if a is LP_ONE or b is LP_ONE:
            ones.append((a, b))
        return real(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", mul)
    assert alg.coproduct(el) == expect
    assert not ones


def test_tensors_over_different_algebras_are_refused():
    lex, anti = MatrixAlgebra(2), MatrixAlgebra(2, order="antidiag")
    a = lex.coproduct(lex.gen(1, 2))
    b = anti.coproduct(anti.gen(1, 2))
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a == b):
        with pytest.raises(AlgebraMismatch):
            op()
    # two contexts over equal rules are still two algebras
    twin = MatrixAlgebra(2)
    c = twin.coproduct(twin.gen(1, 2))
    with pytest.raises(AlgebraMismatch):
        a + c
    assert a + a == a.scale(2)

    u, v = UqAlgebra(1), UqAlgebra(1)
    s, t = uq_coproduct(u.E(1)), uq_coproduct(v.E(1))
    for op in (lambda: s + t, lambda: s * t, lambda: s == t):
        with pytest.raises(AlgebraMismatch):
            op()
    assert (s * s - s * s).is_zero()


_M1 = MatrixAlgebra(1)
_T = _M1.coproduct(_M1.gen(1, 2))
_X = _M1.gen(1, 2)
_U = uq_coproduct(UqAlgebra(1).E(1))
_C = ClassicalTensor(lie_algebra(1), {})
FOREIGN = {
    "tensor + int": lambda: _T + 1,
    "tensor - int": lambda: _T - 1,
    "tensor * int": lambda: _T * 2,
    "int * tensor": lambda: 2 * _T,
    "tensor + element": lambda: _T + _X,
    "element + tensor": lambda: _X + _T,
    "element * tensor": lambda: _X * _T,
    "tensor + uq tensor": lambda: _T + _U,
    "uq tensor * int": lambda: _U * 2,
    "classical tensor + int": lambda: _C + 1,
}


@pytest.mark.parametrize("name", sorted(FOREIGN))
def test_an_operand_of_another_type_raises_type_error(name):
    with pytest.raises(TypeError):
        FOREIGN[name]()


_E = UqAlgebra(1).E(1)
_PBW = PBWElement.one(lie_algebra(1))
FOREIGN_FACTORS = {
    "int expr * element": (IntExpr.one(), _X),
    "int expr * uq element": (IntExpr.one(), _E),
    "uq element * element": (_E, _X),
    "element * uq element": (_X, _E),
    "uq element * float": (_E, 1.5),
    "float * uq element": (1.5, _E),
    "pbw element * element": (_PBW, _X),
    "pbw element * float": (_PBW, 1.5),
    "float * pbw element": (1.5, _PBW),
}


@pytest.mark.parametrize("name", sorted(FOREIGN_FACTORS))
def test_a_factor_of_another_type_raises_type_error(name):
    """Python's own TypeError for the two operand types: the product
    returned NotImplemented on both sides instead of failing inside the
    other operand's terms."""
    left, right = FOREIGN_FACTORS[name]
    names = f"'{type(left).__name__}' and '{type(right).__name__}'"
    with pytest.raises(TypeError, match=f"unsupported operand .*: {names}$"):
        left * right


def test_scalar_factors_still_scale():
    x = IntExpr.gen(rgen(1, 2))
    assert (x * 2).terms == x.scale(2).terms
    assert (_E * 2).terms == _E.scale(2).terms == (2 * _E).terms
    assert _PBW * Fraction(1, 2) == _PBW.scale(Fraction(1, 2)) == Fraction(1, 2) * _PBW
