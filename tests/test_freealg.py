import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfun import freealg
from qfun.freealg import (
    NCElement,
    confluence_check,
    graded_component_basis,
    ideal_rows,
    words_of_multidegree,
)
from qfun.laurent import LAURENT, Q, RATFUNC, RF_ONE, RatFunc
from qfun.lincomb import echelon, reduce_row
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
    spec.clear_caches()
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


def _assert_projection_is_reduce_row(n_letters, relations, degree):
    """basis and proj equal what the echelon pivots of every row of
    ideal_rows give, with no word identified with another: the basis words
    lead no pivot, and proj[w] is reduce_row of w's unit row."""
    words, basis, proj = graded_component_basis(n_letters, relations, degree)
    pivots = echelon(ideal_rows(n_letters, relations, degree, words))
    assert basis == [w for i, w in enumerate(words) if i not in pivots]
    for i, w in enumerate(words):
        assert proj[w] == {words[j]: c for j, c in reduce_row({i: RF_ONE}, pivots).items()}


def test_graded_component_projection_equals_reduce_row_to_degree_5():
    for n in (1, 2, 3):
        for degree in product(range(6), repeat=n):
            if 1 <= sum(degree) <= 5:
                _assert_projection_is_reduce_row(n, _serre_relations(n), degree)


def test_graded_component_projection_equals_reduce_row_at_n5():
    # the three 360-word components of the braid root vector E_(2,6) at n=5
    for degree in [(1, 2, 1, 1, 1), (1, 1, 2, 1, 1), (1, 1, 1, 2, 1)]:
        _assert_projection_is_reduce_row(5, _serre_relations(5), degree)


_RF_Q = RatFunc.from_laurent(Q)
# nonzero coefficients, c = +-1 and c != +-1 alike
_COEFFS = [RF_ONE, -RF_ONE, RF_ONE + _RF_Q, RatFunc.from_laurent(Q * Q - 2),
           RF_ONE / (RF_ONE + _RF_Q)]


@st.composite
def _relation_sets(draw):
    """(n_letters, relations, multidegree) on 2-4 letters: identifications
    c*a - c*b, binomials a - q*b, and trinomials, each homogeneous."""
    n = draw(st.integers(2, 4))
    rels = []
    for kind in draw(st.lists(st.sampled_from(["identify", "q-binomial", "trinomial"]),
                              min_size=1, max_size=4)):
        size = 3 if kind == "trinomial" else 2
        letters = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=3))
        perms = sorted(set(permutations(letters)))
        if len(perms) < size:
            continue
        a, b, *rest = draw(st.permutations(perms))[:size]
        if kind == "identify":
            c = draw(st.sampled_from(_COEFFS))
            rels.append({a: c, b: -c})
        elif kind == "q-binomial":
            rels.append({a: RF_ONE, b: -_RF_Q})
        else:
            rels.append({w: draw(st.sampled_from(_COEFFS)) for w in (a, b, *rest)})
    # at most 6 letters, 180 words
    degree = tuple(draw(st.lists(st.integers(0, 6 // n), min_size=n, max_size=n)))
    return n, rels, degree


@given(_relation_sets())
@settings(max_examples=80, deadline=None)
def test_graded_component_matches_full_echelon_on_mixed_relations(case):
    _assert_projection_is_reduce_row(*case)


def test_a_q_binomial_is_not_an_identification():
    # x0 x1 = q x1 x0 identifies no words; (q+1)(x0 x1 - x1 x0) = 0 does
    ab, ba = (0, 1), (1, 0)
    for rels in ([{ab: RF_ONE, ba: -_RF_Q}], [{ab: RF_ONE + _RF_Q, ba: -RF_ONE - _RF_Q}]):
        _assert_projection_is_reduce_row(2, rels, (1, 1))
        _assert_projection_is_reduce_row(2, rels, (2, 1))


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


def test_term_budget_read_once_per_spec(monkeypatch):
    from qfun.freealg import TermBudgetExceeded

    monkeypatch.setenv("QFUN_MAX_TERMS", "5")
    alg = MatrixAlgebra(2, order="lex")
    assert alg.spec.term_budget == 5
    # a later change of the variable leaves the built algebra alone
    monkeypatch.setenv("QFUN_MAX_TERMS", "1000000")
    word = tuple(reversed(range(9)))
    with pytest.raises(TermBudgetExceeded):
        alg.spec.normal_form_word(word)
    assert MatrixAlgebra(2, order="lex").spec.normal_form_word(word)


# -- the commuting-swap overlaps confluence_check does not rewrite -------------------


def _algebra_specs():
    from qfun.qsl import BorelAlgebra, SLAlgebra

    for n in (1, 2, 3):
        for order in ("lex", "antidiag", "triangular"):
            yield MatrixAlgebra(n, order=order).spec
        for strategy in ("diagonal74", "antidiag73"):
            yield SLAlgebra(n, strategy=strategy).spec
        for sign in "+-":
            yield BorelAlgebra(n, sign).spec


def _is_swap(spec, a, b):
    rhs = spec.rules.get((a, b))
    return rhs is not None and len(rhs) == 1 and rhs[0][1] == (b, a)


def _overlaps(spec):
    """(a, b, c, skipped) for every a > b > c with rules on (a, b) and (b, c)."""
    k = len(spec.alphabet)
    for a in range(k):
        for b in range(a):
            for c in range(b):
                if (a, b) in spec.rules and (b, c) in spec.rules:
                    yield a, b, c, all(_is_swap(spec, x, y) for x, y in ((a, b), (b, c), (a, c)))


def _both_ways(spec, a, b, c):
    left, right = {}, {}
    for rc, rw in spec.rules[(a, b)]:
        for w, v in spec.normal_form_word(rw + (c,)).items():
            left[w] = left.get(w, 0) + rc * v
    for rc, rw in spec.rules[(b, c)]:
        for w, v in spec.normal_form_word((a,) + rw).items():
            right[w] = right.get(w, 0) + rc * v
    return left, right


def _confluence_by_rewriting(spec):
    """confluence_check's report with every overlap rewritten both ways."""
    failures = []
    checked = 0
    for c, b, a in combinations(range(len(spec.alphabet)), 3):
        if (a, b) not in spec.rules or (b, c) not in spec.rules:
            continue
        checked += 1
        left, right = ({w: v for w, v in t.items() if v} for t in _both_ways(spec, a, b, c))
        if left != right:
            failures.append({"word": spec.word_str((a, b, c)),
                             "left": str(NCElement(spec, left, reduce=False)),
                             "right": str(NCElement(spec, right, reduce=False))})
    return {"checked": checked, "failures": failures, "ok": not failures}


def test_skipped_overlaps_agree_when_rewritten():
    skipped_total = 0
    for spec in _algebra_specs():
        overlaps = list(_overlaps(spec))
        for a, b, c, skipped in overlaps:
            if skipped:
                left, right = _both_ways(spec, a, b, c)
                assert len(left) == 1 and left == right, spec.word_str((a, b, c))
                assert next(iter(left)) == (c, b, a)
                skipped_total += 1
        report = confluence_check(spec)
        assert report["checked"] == len(overlaps)
        assert report == _confluence_by_rewriting(spec), spec.name
    assert skipped_total > 0


def test_sl4_skips_216_of_560_overlaps():
    from qfun.qsl import SLAlgebra

    spec = SLAlgebra(3).spec
    overlaps = list(_overlaps(spec))
    assert len(overlaps) == 560
    assert sum(skipped for *_, skipped in overlaps) == 216


@pytest.mark.parametrize("which", ["ab", "bc", "ac"])
def test_swap_with_an_added_correction_is_rewritten(monkeypatch, which):
    # on an empty certificate memo, so the first check rewrites the overlaps
    monkeypatch.setattr(freealg, "_certificates", {})
    spec = build_matrix_spec(1, order="lex")
    a, b, c = next((a, b, c) for a, b, c, skipped in _overlaps(spec) if skipped)
    asked = []
    real = spec.normal_form_word

    def spy(word):
        asked.append(word)
        return real(word)

    spec.normal_form_word = spy
    assert confluence_check(spec)["ok"]
    assert (b, a, c) not in asked
    # xy -> s yx + cc: the correction is smaller in deglex, and it does not
    # reach the normal form with the same coefficient both ways
    pos = {"a": a, "b": b, "c": c}
    lhs = (pos[which[0]], pos[which[1]])
    spec.rules[lhs] = spec.rules[lhs] + ((spec.domain.one, (c, c)),)
    spec.clear_caches()
    asked.clear()
    report = confluence_check(spec)
    assert (b, a, c) in asked and (a, c, b) in asked
    assert not report["ok"]
    assert spec.word_str((a, b, c)) in [f["word"] for f in report["failures"]]
    assert report == _confluence_by_rewriting(spec)


# -- the normal_form_word kernel against a plain leftmost rewriting ----------------


def _leftmost_normal_form(spec, word):
    """Rewrite the leftmost pair that has a rule, scanning each word from its
    start and multiplying every coefficient out: the kernel without its
    shortcuts.  Returns the normal words with their coefficients in the order
    they were reached."""
    out = {}
    stack = [(word, spec.domain.one)]
    while stack:
        w, c = stack.pop()
        for t in range(len(w) - 1):
            rhs = spec.rules.get((w[t], w[t + 1]))
            if rhs is not None:
                for rc, rw in rhs:
                    stack.append((w[:t] + rw + w[t + 2 :], c * rc))
                break
        else:
            out[w] = out[w] + c if w in out else c
    return [(w, c) for w, c in out.items() if c]


_KERNEL_SPECS = {}


def _kernel_spec(n, order, domain):
    key = (n, order, domain.name)
    if key not in _KERNEL_SPECS:
        _KERNEL_SPECS[key] = build_matrix_spec(n, order=order, domain=domain)
    return _KERNEL_SPECS[key]


@given(st.sampled_from([1, 2]), st.sampled_from(["lex", "antidiag", "triangular"]),
       st.sampled_from([LAURENT, RATFUNC]), st.lists(st.integers(0, 8), max_size=6))
@settings(max_examples=150, deadline=None)
def test_normal_form_word_equals_leftmost_rewriting(n, order, domain, letters):
    spec = _kernel_spec(n, order, domain)
    word = tuple(x % len(spec.alphabet) for x in letters)
    spec.clear_caches()
    assert list(spec.normal_form_word(word).items()) == _leftmost_normal_form(spec, word)
