"""One presentation over Z[q,q^-1] serves both coefficient domains: the same
random element has the same normal form, product and coproduct over k(q)
and over Z[q,q^-1], and each domain's elements and tensors hold only its own
coefficient type."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfun.freealg import NCElement, rule_table_key
from qfun.laurent import LAURENT, Q_PLUS_1, RATFUNC, LaurentPoly, RatFunc
from qfun.qmatrix import MatrixAlgebra
from qfun.qsl import BorelAlgebra, SLAlgebra

FAMILIES = {
    "M/lex": lambda n, domain: MatrixAlgebra(n, order="lex", domain=domain),
    "M/triangular": lambda n, domain: MatrixAlgebra(n, order="triangular", domain=domain),
    "M/antidiag": lambda n, domain: MatrixAlgebra(n, order="antidiag", domain=domain),
    "SL/diagonal74": lambda n, domain: SLAlgebra(n, strategy="diagonal74", domain=domain),
    "SL/antidiag73": lambda n, domain: SLAlgebra(n, strategy="antidiag73", domain=domain),
    "B+": lambda n, domain: BorelAlgebra(n, "+", domain=domain),
    "B-": lambda n, domain: BorelAlgebra(n, "-", domain=domain),
}

PAIRS = {(name, n): (make(n, RATFUNC), make(n, LAURENT))
         for name, make in FAMILIES.items() for n in (1, 2)}


def _types(terms):
    return {c.__class__ for c in terms.values()}


def _as_kq(terms):
    return {k: RATFUNC.coerce(c) for k, c in terms.items()}


@st.composite
def raw_terms(draw, alg, max_len=3):
    """An unreduced {word: int} dict over the algebra's letters."""
    letters = st.integers(min_value=0, max_value=len(alg.spec.alphabet) - 1)
    words = st.lists(letters, max_size=max_len).map(tuple)
    coeffs = st.integers(min_value=-3, max_value=3).filter(bool)
    return draw(st.dictionaries(words, coeffs, min_size=1, max_size=3))


def _element(alg, terms):
    return NCElement(alg.spec, {w: alg.spec.domain.coerce(c) for w, c in terms.items()})


@pytest.mark.parametrize("key", sorted(PAIRS), ids=lambda key: f"{key[0]}-n{key[1]}")
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_both_domains_agree_and_keep_their_coefficient_type(key, data):
    kq, lp = PAIRS[key]
    assert rule_table_key(kq.spec) == rule_table_key(lp.spec)
    a, b = data.draw(raw_terms(kq)), data.draw(raw_terms(kq, max_len=2))
    ka, kb = _element(kq, a), _element(kq, b)
    la, lb = _element(lp, a), _element(lp, b)
    for k_el, l_el in ((ka, la), (ka * kb, la * lb)):
        assert _types(k_el.terms) <= {RatFunc} and _types(l_el.terms) <= {LaurentPoly}
        assert k_el.terms == _as_kq(l_el.terms)
        assert str(k_el) == str(l_el)
        kd, ld = kq.coproduct(k_el), lp.coproduct(l_el)
        assert _types(kd.terms) <= {RatFunc} and _types(ld.terms) <= {LaurentPoly}
        assert kd.terms == _as_kq(ld.terms)
    square = kq.coproduct(ka) * kq.coproduct(kb)
    assert _types(square.terms) <= {RatFunc}
    assert square.terms == _as_kq((lp.coproduct(la) * lp.coproduct(lb)).terms)
    assert square == kq.coproduct(ka * kb)
    # the memos behind both domains hold Laurent coefficients only
    for alg in (kq, lp):
        assert all(_types(nf) <= {LaurentPoly} for nf in alg.spec._nf_cache.values())
        assert all(_types(d) <= {LaurentPoly} for d in alg._delta_memo.values())
    # a coefficient outside Z[q,q^-1] meets the Laurent normal forms
    scalar = RatFunc(1, Q_PLUS_1)
    scaled = NCElement(kq.spec, {w: RATFUNC.coerce(c) * scalar for w, c in a.items()})
    assert _types(scaled.terms) <= {RatFunc}
    assert scaled == ka.scale(scalar)
    assert _types(kq.coproduct(scaled).terms) <= {RatFunc}
    assert kq.coproduct(scaled) == kq.coproduct(ka).scale(scalar)
