import random

import pytest

from qfun.freealg import NCElement
from qfun.laurent import Q, QINV, Q_MINUS_QINV
from qfun.lincomb import add_outer
from qfun.qmatrix import (
    BadIndexLists,
    InadmissibleOrder,
    MatrixAlgebra,
    OrderMismatch,
    TensorElement,
)


@pytest.fixture(scope="module")
def m1():
    return MatrixAlgebra(1, order="lex")


@pytest.fixture(scope="module")
def m2():
    return MatrixAlgebra(2, order="lex")


def test_rule_counts(m1, m2):
    assert len(m1.spec.rules) == 6
    assert len(m2.spec.rules) == 36


def test_row_swap(m1):
    assert m1.gen(1, 2) * m1.gen(1, 1) == m1.gen(1, 1) * m1.gen(1, 2) * QINV


def test_cross_relation(m1):
    lhs = m1.gen(2, 2) * m1.gen(1, 1)
    rhs = m1.gen(1, 1) * m1.gen(2, 2) - (m1.gen(1, 2) * m1.gen(2, 1)).scale(
        Q_MINUS_QINV
    )
    assert lhs == rhs


def test_antidiagonal_commutes(m1):
    assert m1.gen(2, 1) * m1.gen(1, 2) == m1.gen(1, 2) * m1.gen(2, 1)


def test_inadmissible_custom_order():
    # an order that breaks the termination witness for the correction term
    bad = [(1, 1), (2, 2), (1, 2), (2, 1)]
    with pytest.raises(InadmissibleOrder):
        MatrixAlgebra(1, order=bad)


def test_coproduct_on_generator(m1):
    t = m1.coproduct(m1.gen(1, 2))
    expect = {}
    add_outer(expect, m1.gen(1, 1).terms, m1.gen(1, 2).terms, m1.spec.domain.one)
    add_outer(expect, m1.gen(1, 2).terms, m1.gen(2, 2).terms, m1.spec.domain.one)
    assert t == TensorElement(m1, expect)
    one = m1.one()
    expect = add_outer({}, one.terms, one.terms, m1.spec.domain.one)
    assert m1.coproduct(one) == TensorElement(m1, expect)


def test_coassociativity_n2(m2):
    from qfun.suites import _tensor3_of_delta

    for i in range(1, 4):
        for j in range(1, 4):
            d = m2.coproduct(m2.gen(i, j))
            assert _tensor3_of_delta(m2, d, "left") == _tensor3_of_delta(
                m2, d, "right"
            )


def test_counit(m1, m2):
    assert m1.counit(m1.gen(1, 2)).is_zero()
    assert m1.counit(m1.one()) == m1.spec.domain.one
    # (eps ox id) Delta = id on all generators
    for i in range(1, 4):
        for j in range(1, 4):
            g = m2.gen(i, j)
            acc = m2.zero()
            for (wl, wr), c in m2.coproduct(g).terms.items():
                el = NCElement(m2.spec, {wl: m2.spec.domain.one}, reduce=False)
                er = NCElement(m2.spec, {wr: m2.spec.domain.one}, reduce=False)
                acc = acc + er.scale(c * m2.counit(el))
            assert acc == g


def test_delta_and_eps_are_algebra_maps_on_relations(m2):
    # both sides of every defining relation map to equal tensors
    spec = m2.spec
    for (a, b), rhs in spec.rules.items():
        lhs_el = NCElement(spec, {(a, b): spec.domain.one}, reduce=False)
        rhs_el = NCElement(spec, {w: c for c, w in rhs}, reduce=False)
        assert m2.coproduct(lhs_el) == m2.coproduct(rhs_el)
        assert m2.counit(lhs_el) == m2.counit(rhs_el)


def test_quantum_minor(m2):
    m = m2.quantum_minor([1, 2], [1, 2])
    expect = m2.gen(1, 1) * m2.gen(2, 2) - (m2.gen(1, 2) * m2.gen(2, 1)).scale(Q)
    assert m == expect
    assert m2.quantum_minor([2], [3]) == m2.gen(2, 3)
    with pytest.raises(BadIndexLists):
        m2.quantum_minor([2, 1], [1, 2])
    with pytest.raises(BadIndexLists):
        m2.quantum_minor([1], [1, 2])


def test_detq_n2_term_structure(m2):
    d = m2.detq()
    assert len(d.terms) == 6
    powers = sorted(
        max(abs(e) for e in c.terms) if hasattr(c, "terms") else 0
        for c in d.terms.values()
    )
    assert powers == [0, 1, 1, 2, 2, 3]


def test_detq_central_grouplike(m1, m2):
    assert m1.verify_detq_central_grouplike()["ok"]
    assert m2.verify_detq_central_grouplike()["ok"]


def test_corrupted_relation_breaks_centrality():
    alg = MatrixAlgebra(1, order="lex")
    key = next(iter(alg.spec.rules))
    coeff, word = alg.spec.rules[key][0]
    alg.spec.rules[key] = ((coeff * Q, word),) + alg.spec.rules[key][1:]
    alg.clear_caches()
    assert not alg.verify_detq_central_grouplike()["ok"]


def test_triangular_factor():
    alg = MatrixAlgebra(1, order="antidiag")
    parts = alg.triangular_factor(alg.gen(1, 2))
    assert parts == [((), ((1, 2),), (), alg.spec.domain.one)]
    el = alg.gen(2, 2) * alg.gen(1, 1)
    parts = alg.triangular_factor(el)
    assert len(parts) == 2
    # N0 commutativity
    assert alg.gen(1, 2) * alg.gen(2, 1) == alg.gen(2, 1) * alg.gen(1, 2)
    # reassembly: multiplying the blocks back gives the element
    acc = alg.zero()
    for wplus, wzero, wminus, c in parts:
        piece = alg.one()
        for ij in wplus + wzero + wminus:
            piece = piece * alg.gen(*ij)
        acc = acc + piece.scale(c)
    assert acc == el
    with pytest.raises(OrderMismatch):
        MatrixAlgebra(1, order="lex").triangular_factor(el)


def test_pbw_counts(m1, m2):
    assert len(m1.pbw_basis(1)) == 5
    assert len(m1.pbw_basis(2)) == 15
    assert len(m2.pbw_basis(2)) == 55


def test_product_word_count_bounded_by_commutative_count(m2):
    rng = random.Random(11)
    k = len(m2.spec.alphabet)
    from qfun.suites import _comm_monomial_count

    for _ in range(15):
        d1, d2 = rng.randrange(1, 3), rng.randrange(1, 3)
        w1 = tuple(rng.randrange(k) for _ in range(d1))
        w2 = tuple(rng.randrange(k) for _ in range(d2))
        el = NCElement(m2.spec, {w1: m2.spec.domain.one}) * NCElement(
            m2.spec, {w2: m2.spec.domain.one}
        )
        bound = _comm_monomial_count(k, d1 + d2) - _comm_monomial_count(
            k, d1 + d2 - 1
        )
        assert len(el.terms) <= bound


def test_json_schema():
    alg = MatrixAlgebra(1)
    el = alg.gen(1, 2) * alg.gen(1, 1)
    j = el.to_json()
    assert j["terms"][0]["word"] == [["x", 1, 1], ["x", 1, 2]]
