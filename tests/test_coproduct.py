"""The memoized coproduct and the fused tensor product against the
definitions they replace: the raw (n+1)^k expansion of Delta on a word and
the accumulate-then-reduce product of two tensors, both reduced pair by pair
with plain loops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfun import qmatrix
from qfun.classical import ClassicalTensor, lie_algebra
from qfun.laurent import LAURENT, RATFUNC
from qfun.freealg import AlgebraMismatch, NCElement
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
# add M(2) over k(q), SL(2) with its post-reducer over Z[q,q^-1], and M(3)
TENSOR_ALGEBRAS = {
    **ALGEBRAS,
    "M(2)/lex/k(q)": MatrixAlgebra(1, domain=RATFUNC),
    "SL(2)/diagonal74/laurent": SLAlgebra(1, domain=LAURENT),
    "M(3)/lex": MatrixAlgebra(2, order="lex"),
}


def _reduced(alg, word):
    """The full normal form of one word, post-reducers included."""
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


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_memoized_coproduct_equals_the_raw_expansion(name, data):
    alg = ALGEBRAS[name]
    el = data.draw(elements(alg))
    assert alg.coproduct(el).terms == _reduce_pairs(alg, _raw_coproduct(alg, el))
    # the reduced element has the same coproduct
    reduced = NCElement(alg.spec, dict(el.terms))
    assert alg.coproduct(reduced).terms == alg.coproduct(el).terms


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
        assert len(built) == len(prefixes)
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
