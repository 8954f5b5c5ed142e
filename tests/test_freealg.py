import random
from itertools import permutations

import pytest

from qfun.freealg import (
    NCElement,
    confluence_check,
    graded_component_basis,
    words_of_multidegree,
)
from qfun.laurent import Q, RF_ONE, RatFunc
from qfun.qmatrix import MatrixAlgebra, build_matrix_spec
from qfun.suites import kostant_count


@pytest.fixture(scope="module")
def m2():
    return MatrixAlgebra(1, order="lex")


def random_element(spec, rng, max_len=3, n_terms=3):
    terms = {}
    k = len(spec.alphabet)
    for _ in range(n_terms):
        w = tuple(rng.randrange(k) for _ in range(rng.randrange(max_len + 1)))
        terms[w] = spec.domain.coerce(rng.randrange(-3, 4))
    return NCElement(spec, terms)


def test_normal_form_idempotent_and_linear(m2):
    rng = random.Random(7)
    for _ in range(40):
        a = random_element(m2.spec, rng)
        b = random_element(m2.spec, rng)
        again = NCElement(m2.spec, dict(a.terms))
        assert again == a
        assert (a + b).terms == (b + a).terms


def test_multiplication_associative(m2):
    rng = random.Random(21)
    for _ in range(25):
        a = random_element(m2.spec, rng, max_len=2)
        b = random_element(m2.spec, rng, max_len=2)
        c = random_element(m2.spec, rng, max_len=2)
        assert ((a * b) * c) == (a * (b * c))


def test_unit_and_mismatch(m2):
    a = m2.gen(1, 2)
    assert m2.one() * a == a
    other = MatrixAlgebra(1, order="lex")
    from qfun.freealg import AlgebraMismatch

    with pytest.raises(AlgebraMismatch):
        a * other.gen(1, 1)


def test_rule_table_total_on_descending_pairs(m2):
    assert m2.spec.rules_total_on_descending_pairs() == []


def test_normal_form_preserves_row_and_column_degrees():
    alg = MatrixAlgebra(2, order="lex")
    rng = random.Random(3)
    k = len(alg.spec.alphabet)
    for _ in range(30):
        w = tuple(rng.randrange(k) for _ in range(4))
        rows = sorted(alg.cell_of(p)[0] for p in w)
        cols = sorted(alg.cell_of(p)[1] for p in w)
        for nw in alg.spec.normal_form_word(w):
            assert len(nw) == len(w)
            assert sorted(alg.cell_of(p)[0] for p in nw) == rows
            assert sorted(alg.cell_of(p)[1] for p in nw) == cols


def test_confluence_passes_and_fails():
    for n in (1, 2):
        assert confluence_check(MatrixAlgebra(n).spec)["ok"]
    spec = build_matrix_spec(1, order="lex")
    key = next(iter(spec.rules))
    coeff, word = spec.rules[key][0]
    spec.rules[key] = ((coeff * Q, word),) + spec.rules[key][1:]
    spec._nf_cache.clear()
    rep = confluence_check(spec)
    assert not rep["ok"] and rep["failures"]


def _serre_relations(n):
    rels = []
    from qfun.laurent import LaurentPoly

    q_plus_qinv = RatFunc.from_laurent(LaurentPoly({1: 1, -1: 1}))
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1 and i < j:
                rels.append({(i, j): RF_ONE, (j, i): -RF_ONE})
            if abs(i - j) == 1:
                rels.append(
                    {(i, i, j): RF_ONE, (i, j, i): -q_plus_qinv, (j, i, i): RF_ONE}
                )
    return rels


def test_graded_component_sl2_degree_one():
    words, basis, proj = graded_component_basis(1, _serre_relations(1), (1,))
    assert basis == [(0,)]
    assert proj[(0,)] == {(0,): RF_ONE}


def test_graded_component_sl3_kostant_dimensions():
    for deg in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        words, basis, proj = graded_component_basis(2, _serre_relations(2), deg)
        assert len(basis) == kostant_count(2, deg)


def test_graded_component_projection_consistency():
    # every word's expansion re-expands to itself modulo the ideal
    words, basis, proj = graded_component_basis(2, _serre_relations(2), (2, 1))
    assert len(basis) == 2
    for w in words:
        exp = proj[w]
        assert all(bw in basis for bw in exp)


def test_words_of_multidegree():
    assert words_of_multidegree(2, (1, 1)) == [(0, 1), (1, 0)]
    assert len(words_of_multidegree(2, (2, 1))) == 3


@pytest.mark.parametrize("degree", [(), (0,), (3,), (2, 2), (1, 0, 2), (2, 1, 2), (1, 1, 1, 1)])
def test_words_of_multidegree_are_the_sorted_distinct_permutations(degree):
    letters = [i for i, m in enumerate(degree) for _ in range(m)]
    assert words_of_multidegree(len(degree), degree) == sorted(set(permutations(letters)))


def test_words_of_multidegree_walks_only_distinct_words():
    # the 16! letter permutations of (8, 8) hold 12 870 distinct words
    words = words_of_multidegree(2, (8, 8))
    assert len(words) == 12870 and words == sorted(set(words))


def test_dimension_overflow():
    from qfun.freealg import DimensionOverflow

    with pytest.raises(DimensionOverflow):
        graded_component_basis(2, _serre_relations(2), (6, 6), cap=10)
