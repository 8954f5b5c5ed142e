import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfun import uq
from qfun.laurent import RF_ONE, RF_Q_MINUS_QINV
from qfun.lincomb import apply_word_map
from qfun.qsl import SLAlgebra
from qfun.uq import (
    MuMap,
    NotInSlForm,
    RF_Q_PLUS_QINV,
    UqAlgebra,
    _braid_image,
    _letter_words,
    braid_T,
    collapse_at_one,
    convex_order,
    corrected_position_formula,
    printed_position_formula,
    q_bracket,
    qpow,
    root_vector_iterated,
    root_vector_lusztig,
    uq_coproduct,
)


@pytest.fixture(scope="module")
def u2():
    return UqAlgebra(2)


def _defining_relations(alg):
    n = alg.n
    rels = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            ca = 2 if a == b else (-1 if abs(a - b) == 1 else 0)
            rels.append(alg.K(a) * alg.E(b) - (alg.E(b) * alg.K(a)).scale(qpow(ca)))
            rels.append(alg.K(a) * alg.F(b) - (alg.F(b) * alg.K(a)).scale(qpow(-ca)))
            d = alg.E(a) * alg.F(b) - alg.F(b) * alg.E(a)
            if a == b:
                d = d - (alg.K(a) - alg.K(a, -1)).scale(RF_Q_MINUS_QINV.inverse())
            rels.append(d)
            if abs(a - b) > 1:
                rels.append(alg.E(a) * alg.E(b) - alg.E(b) * alg.E(a))
                rels.append(alg.F(a) * alg.F(b) - alg.F(b) * alg.F(a))
            if abs(a - b) == 1:
                rels.append(
                    alg.E(a) * alg.E(a) * alg.E(b)
                    - (alg.E(a) * alg.E(b) * alg.E(a)).scale(RF_Q_PLUS_QINV)
                    + alg.E(b) * alg.E(a) * alg.E(a)
                )
                rels.append(
                    alg.F(a) * alg.F(a) * alg.F(b)
                    - (alg.F(a) * alg.F(b) * alg.F(a)).scale(RF_Q_PLUS_QINV)
                    + alg.F(b) * alg.F(a) * alg.F(a)
                )
    return rels


def test_presentation_relations_normalize_to_zero(u2):
    for r in _defining_relations(u2):
        assert r.is_zero()


def test_g_scaling_rules(u2):
    assert u2.G(1) * u2.E(1) == (u2.E(1) * u2.G(1)).scale(qpow(1))
    assert u2.E(1) * u2.F(2) == u2.F(2) * u2.E(1)
    d = u2.E(1) * u2.F(1) - u2.F(1) * u2.E(1)
    expect = (u2.K(1) - u2.K(1, -1)).scale(RF_Q_MINUS_QINV.inverse())
    assert d == expect
    assert u2.G(1) * u2.G(1, -1) == u2.one()


def test_triangular_nf_idempotent_and_equality(u2):
    el = u2.E(1) * u2.F(1) * u2.G(2) * u2.E(2)
    el2 = sum_terms = el + u2.zero()
    assert el == el2
    # F1 G1 E1 is already triangular
    t = u2.F(1) * u2.G(1) * u2.E(1)
    assert list(t.terms) == [((1,), (1, 0, 0), (1,))]


def test_serre_reduction_equality_vs_bruteforce(u2):
    # random ideal elements u * serre * v normalize to zero
    rng = random.Random(4)
    serre = (
        u2.E(1) * u2.E(1) * u2.E(2)
        - (u2.E(1) * u2.E(2) * u2.E(1)).scale(RF_Q_PLUS_QINV)
        + u2.E(2) * u2.E(1) * u2.E(1)
    )
    for _ in range(10):
        u = u2.one()
        v = u2.one()
        for _ in range(rng.randrange(2)):
            u = u * u2.E(rng.randrange(1, 3))
        for _ in range(rng.randrange(2)):
            v = v * u2.E(rng.randrange(1, 3))
        assert (u * serre * v).is_zero()


def test_q_bracket_identities(u2):
    e12 = root_vector_iterated(u2, 1, 2, "E")
    e23 = root_vector_iterated(u2, 2, 3, "E")
    lhs = q_bracket(e23, e12, 1).scale(qpow(-1))
    rhs = q_bracket(e12, e23, -1).scale(-1)
    assert (lhs - rhs).is_zero()
    e13 = root_vector_iterated(u2, 1, 3, "E")
    expect = (u2.E(1) * u2.E(2)).scale(-1) + (u2.E(2) * u2.E(1)).scale(qpow(-1))
    assert (e13 - expect).is_zero()
    assert root_vector_iterated(u2, 1, 2, "E") == u2.E(1)
    assert root_vector_iterated(u2, 1, 2, "F") == u2.F(1)


def test_convex_order_n2():
    co = convex_order(2)
    assert co.reduced_word == (1, 2, 1)
    assert co.roots == [(1, 2), (1, 3), (2, 3)]
    assert co.is_convex()


def test_convex_order_lengths_and_convexity():
    for n in range(2, 7):
        co = convex_order(n)
        assert len(co.reduced_word) == n * (n + 1) // 2
        assert co.is_convex()


def test_position_formulas():
    co = convex_order(2)
    assert printed_position_formula(2, 1, 3) == 0  # the printed form is off
    for (i, j) in co.roots:
        assert corrected_position_formula(2, i, j) == co.position(i, j)


def test_braid_images(u2):
    t = braid_T(u2, 1, u2.E(1))
    g = [0] * 3
    g[0], g[1] = 1, -1
    from qfun.uq import UqElement

    expect = UqElement(u2, u2.normalize({((1,), tuple(g), ()): -RF_ONE}))
    assert (t - expect).is_zero()
    t = braid_T(u2, 1, u2.E(2))
    expect = (u2.E(1) * u2.E(2)).scale(-1) + (u2.E(2) * u2.E(1)).scale(qpow(-1))
    assert (t - expect).is_zero()
    u3 = UqAlgebra(3)
    assert (braid_T(u3, 1, u3.E(3)) - u3.E(3)).is_zero()


def test_braid_requires_sl_form(u2):
    with pytest.raises(NotInSlForm):
        braid_T(u2, 1, u2.G(1))


def test_braid_is_automorphism(u2):
    for i in (1, 2):
        for r in _defining_relations(u2):
            assert braid_T(u2, i, r).is_zero()


# (n, sl_quotient, i, terms): each term (coefficient, F-word, K-exponents,
# E-word) is c F_word K^k E_word, so a draw spans U-, the torus and U+
braid_cases = st.tuples(st.integers(1, 3), st.booleans()).flatmap(
    lambda ns: st.tuples(
        st.just(ns[0]),
        st.just(ns[1]),
        st.integers(1, ns[0]),
        st.lists(
            st.tuples(
                st.integers(-2, 2).filter(bool),
                st.lists(st.integers(1, ns[0]), max_size=2),
                st.lists(st.integers(-1, 1), min_size=ns[0], max_size=ns[0]),
                st.lists(st.integers(1, ns[0]), max_size=2),
            ),
            min_size=1,
            max_size=3,
        ),
    )
)


def _braid_element(alg, terms):
    el = alg.zero()
    for c, fw, ks, ew in terms:
        x = alg.one()
        for j in fw:
            x = x * alg.F(j)
        for j, k in enumerate(ks, start=1):
            x = x * alg.K(j, k)
        for j in ew:
            x = x * alg.E(j)
        el = el + x.scale(c)
    return el


def _braid_reference(alg, i, el):
    """T_i without the memo: apply_word_map of the letter images."""
    return apply_word_map(_letter_words(el), lambda letter: _braid_image(alg, i, letter), alg.one())


@settings(max_examples=40, deadline=None)
@given(braid_cases)
def test_braid_memo_equals_the_memo_free_map(case):
    """Cold memo, warm memo and CACHE_LIMIT 0 give the memo-free value."""
    n, sl, i, terms = case
    alg = UqAlgebra(n, sl_quotient=sl)
    el = _braid_element(alg, terms)
    ref = _braid_reference(alg, i, el)
    assert not alg._braid_memo
    assert braid_T(alg, i, el).terms == ref.terms
    assert all(key[0] == i for key in alg._braid_memo)
    assert braid_T(alg, i, el).terms == ref.terms
    # T_i of T_i(el) runs on a memo that already holds T_i of el's letters,
    # and the other operators share the memo
    assert braid_T(alg, i, ref).terms == _braid_reference(alg, i, ref).terms
    for j in range(1, n + 1):
        assert braid_T(alg, j, el).terms == _braid_reference(alg, j, el).terms
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uq, "CACHE_LIMIT", 0)
        fresh = UqAlgebra(n, sl_quotient=sl)
        assert braid_T(fresh, i, _braid_element(fresh, terms)).terms == ref.terms
        assert not fresh._braid_memo


def test_braid_memo_clears_and_refuses_before_lookup():
    alg = UqAlgebra(2)
    root_vector_lusztig(alg, convex_order(2), 3, "E")
    assert alg._braid_memo
    alg.clear_caches()
    assert not alg._braid_memo
    with pytest.raises(NotInSlForm):
        braid_T(alg, 1, alg.G(1))
    quotient = UqAlgebra(2, sl_quotient=True)
    with pytest.raises(NotInSlForm):
        braid_T(quotient, 1, quotient.G(1) * quotient.E(1))
    assert not alg._braid_memo and not quotient._braid_memo


def test_braid_equals_iterated_root_vectors(u2):
    co = convex_order(2)
    for (i, j) in co.roots:
        k = co.position(i, j)
        for side in ("E", "F"):
            lu = root_vector_lusztig(u2, co, k, side)
            it = root_vector_iterated(u2, i, j, side)
            assert (lu - it).is_zero(), (i, j, side)


def test_uq_coproduct_is_algebra_map(u2):
    for alg in (UqAlgebra(1), u2):
        for r in _defining_relations(alg):
            assert uq_coproduct(r).is_zero()


def test_theta_maps_and_mu():
    sl = SLAlgebra(1, strategy="diagonal74")
    mu = MuMap(sl)
    uq = mu.uq
    # theta_+(rho_11) = G_1^{-1}; theta_-(rho_21) = (q - q^-1) G_2 E_1
    assert (mu.theta_plus.image(1, 1) - uq.G(1, -1)).is_zero()
    img = mu.theta_minus.image(2, 1)
    expect = (uq.G(2) * uq.E(1)).scale(RF_Q_MINUS_QINV)
    assert (img - expect).is_zero()
    # the Borel diagonal relation maps to 1 under the L_{n+1} = 1 convention
    assert (mu.theta_plus.image(1, 1) * mu.theta_plus.image(2, 2) - uq.one()).is_zero()
    assert mu.theta_plus.verify_coalgebra()["ok"]
    assert mu.theta_minus.verify_coalgebra()["ok"]


def test_mu_leading_terms_n1():
    sl = SLAlgebra(1, strategy="diagonal74")
    mu = MuMap(sl)
    r12 = sl.gen(1, 2).scale(RF_Q_MINUS_QINV.inverse())
    col = collapse_at_one(mu.apply(r12))
    assert col == {(((1,), ()), ((), ())): -1}
    r21 = sl.gen(2, 1).scale(RF_Q_MINUS_QINV.inverse())
    col = collapse_at_one(mu.apply(r21))
    assert col == {(((), ()), ((), (1,))): 1}
    assert collapse_at_one(mu.apply(sl.one())) == {(((), ()), ((), ())): 1}


def test_mu_is_algebra_map_on_relation():
    sl = SLAlgebra(1, strategy="diagonal74")
    mu = MuMap(sl)
    lhs = mu.apply(sl.gen(1, 1) * sl.gen(1, 2))
    rhs = mu.apply(sl.gen(1, 2) * sl.gen(1, 1)).scale(qpow(1))
    assert (lhs - rhs).is_zero()


def test_graded_dimensions_match_kostant():
    from qfun.suites import graded_dimension_suite

    rep = graded_dimension_suite()
    assert rep["ok"]


def _standard_rep_matrix(alg, el):
    """Action of an element on the standard module, as a dense matrix of
    RatFuncs: F_i v_i = v_{i+1}, E_i v_{i+1} = v_i, G_i v_j = q^{d_ij} v_j."""
    from qfun.laurent import RF_ZERO

    n = alg.n
    dim = n + 1
    out = [[RF_ZERO for _ in range(dim)] for _ in range(dim)]
    for (fw, g, ew), c in el.terms.items():
        for col in range(dim):
            row = col
            coeff = c
            dead = False
            for j in reversed(ew):  # rightmost letter acts first
                if row == j:  # E_j: v_{j+1} -> v_j  (0-based: j -> j-1)
                    row = j - 1
                else:
                    dead = True
                    break
            if dead:
                continue
            coeff = coeff * qpow(g[row])
            for j in reversed(fw):
                if row == j - 1:  # F_j: v_j -> v_{j+1}
                    row = j
                else:
                    dead = True
                    break
            if dead:
                continue
            out[row][col] = out[row][col] + coeff
    return out


def test_root_vectors_act_as_signed_matrix_units():
    # independent oracle: on the standard module the iterated root vectors
    # act as (-1)^{j-i-1} times the matrix unit in the expected corner
    from qfun.laurent import RF_ZERO

    for n in (2, 3):
        alg = UqAlgebra(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                sign = RF_ONE if (j - i - 1) % 2 == 0 else -RF_ONE
                m = _standard_rep_matrix(alg, root_vector_iterated(alg, i, j, "E"))
                for a in range(n + 1):
                    for b in range(n + 1):
                        expect = sign if (a, b) == (i - 1, j - 1) else RF_ZERO
                        assert m[a][b] == expect, ("E", i, j, a, b, str(m[a][b]))
                m = _standard_rep_matrix(alg, root_vector_iterated(alg, i, j, "F"))
                for a in range(n + 1):
                    for b in range(n + 1):
                        expect = sign if (a, b) == (j - 1, i - 1) else RF_ZERO
                        assert m[a][b] == expect, ("F", i, j, a, b)


def test_standard_rep_respects_relations():
    alg = UqAlgebra(2)
    for r in _defining_relations(alg):
        m = _standard_rep_matrix(alg, r)
        assert all(not c for row in m for c in row)


def _cache_probe(alg):
    """An element whose product straightens E-F words and Serre-normalizes
    F- and E-words of degree three."""
    x = alg.E(1) * alg.E(2) * alg.E(1) * alg.F(2) * alg.F(1)
    return x * (alg.F(1) * alg.F(2) * alg.E(2) + alg.G(1))


def test_uq_memos_bound_and_clear(monkeypatch):
    from qfun import uq

    alg = UqAlgebra(2)
    expected = _cache_probe(alg)
    assert alg._serre_nf and alg._cross_cache
    alg.clear_caches()
    assert not alg._serre_nf and not alg._cross_cache
    monkeypatch.setattr(uq, "CACHE_LIMIT", 0)
    assert _cache_probe(alg) == expected
    assert _cache_probe(UqAlgebra(2)).terms == expected.terms
    assert not alg._serre_nf and not alg._cross_cache
