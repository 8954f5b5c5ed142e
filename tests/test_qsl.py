import random
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfun.freealg import AlgebraSpec, GenSym, NCElement, NonTerminating
from qfun.lincomb import accumulate
from qfun.laurent import LAURENT, LP_ONE, Q, QINV, RATFUNC, RF_ONE, LaurentPoly, RatFunc, neg_q_power
from qfun.qmatrix import MatrixAlgebra, perm_inversions
from qfun.qsl import (
    DET_INVERSE,
    BorelAlgebra,
    GLAlgebra,
    NotInBorel,
    _det_substitution,
    SLAlgebra,
    antipode_convention_report,
    pi_project,
    sl_reduce,
)


@pytest.fixture(scope="module")
def sl1():
    return SLAlgebra(1, strategy="diagonal74")


@pytest.fixture(scope="module")
def sl2():
    return SLAlgebra(2, strategy="diagonal74")


def test_diagonal_reduction(sl1):
    got = sl1.gen(1, 1) * sl1.gen(2, 2)
    expect = sl1.one() + (sl1.gen(2, 1) * sl1.gen(1, 2)).scale(Q)
    assert got == expect


def test_already_canonical_is_fixed(sl1):
    el = sl1.gen(2, 1) * sl1.gen(1, 2)
    assert sl_reduce(sl1, el) == el


def test_antidiag_reduction():
    alg = SLAlgebra(1, strategy="antidiag73")
    got = alg.gen(1, 2) * alg.gen(2, 1)
    expect = (alg.gen(1, 1) * alg.gen(2, 2) - alg.one()).scale(
        RatFunc.from_laurent(QINV)
    )
    assert got == expect


def test_antipode_convention_oracle():
    rep = antipode_convention_report()
    assert rep["selected_exponent"] == "(i-j)"
    assert rep["printed_verifies"] is False


def test_antipode_values(sl1):
    assert sl1.antipode(sl1.gen(1, 1)) == sl1.gen(2, 2)
    assert sl1.antipode(sl1.one()) == sl1.one()
    # m(S ox id)Delta(x12) = 0
    g = sl1.gen(1, 2)
    acc = sl1.zero()
    for (wl, wr), c in sl1.coproduct(g).terms.items():
        el = NCElement(sl1.spec, {wl: RF_ONE}, reduce=False)
        er = NCElement(sl1.spec, {wr: RF_ONE}, reduce=False)
        acc = acc + (sl1.antipode(el) * er).scale(c)
    assert acc.is_zero()


def test_antipode_is_antimultiplicative(sl2):
    a = sl2.gen(1, 2)
    b = sl2.gen(2, 3)
    assert sl2.antipode(a * b) == sl2.antipode(b) * sl2.antipode(a)


def test_sl_reduce_random_path_independence(sl1):
    rng = random.Random(5)
    k = len(sl1.spec.alphabet)
    for trial in range(60):
        raw = NCElement(sl1.spec, {}, reduce=False)
        raw.terms = {
            tuple(rng.randrange(k) for _ in range(rng.randrange(5))): RATFUNC.coerce(
                rng.randrange(-2, 3) or 1
            )
            for _ in range(2)
        }
        base = sl_reduce(sl1, raw)
        alt = sl_reduce(sl1, raw, rng=random.Random(trial))
        assert (base - alt).is_zero()


def test_post_reducers_compute_each_replacement_once(monkeypatch):
    """The scan for a redex keeps the replacement it finds: reduce_word never
    runs twice in a row on a word with a redex, in reduce_terms and in the
    random-site loop of sl_reduce."""
    from qfun.qsl import DetReducer

    calls = []
    real = DetReducer.reduce_word

    def spy(self, spec, word):
        repl = real(self, spec, word)
        calls.append((word, repl is not None))
        return repl

    monkeypatch.setattr(DetReducer, "reduce_word", spy)
    alg = SLAlgebra(1)
    rng = random.Random(7)
    k = len(alg.spec.alphabet)
    for trial in range(30):
        raw = NCElement(alg.spec, {}, reduce=False)
        raw.terms = {tuple(rng.randrange(k) for _ in range(rng.randrange(6))): RF_ONE for _ in range(2)}
        base = sl_reduce(alg, raw)
        assert (sl_reduce(alg, raw, rng=random.Random(trial)) - base).is_zero()
    hits = [t for t, (_, found) in enumerate(calls) if found]
    assert hits
    assert all(calls[t + 1][0] != calls[t][0] for t in hits if t + 1 < len(calls))


def test_pi_project(sl1):
    m = MatrixAlgebra(1, order="triangular", domain=RATFUNC)
    assert pi_project(m, sl1, m.detq()) == sl1.one()
    assert pi_project(m, sl1, m.gen(1, 2)) == sl1.gen(1, 2)
    # pi respects Delta on x12
    t = m.coproduct(m.gen(1, 2))
    lhs = {}
    for (wl, wr), c in t.terms.items():
        el = pi_project(m, sl1, NCElement(m.spec, {wl: RF_ONE}, reduce=False))
        er = pi_project(m, sl1, NCElement(m.spec, {wr: RF_ONE}, reduce=False))
        for w1, c1 in el.terms.items():
            for w2, c2 in er.terms.items():
                key = (w1, w2)
                lhs[key] = lhs.get(key, RATFUNC.zero) + c * c1 * c2
    rhs = sl1.coproduct(sl1.gen(1, 2)).terms
    assert {k: v for k, v in lhs.items() if v} == rhs


def test_borel_quotient_and_relations(sl1):
    bp = BorelAlgebra(1, "+")
    bm = BorelAlgebra(1, "-")
    assert pi_project(sl1, bp, sl1.gen(2, 1)).is_zero()
    assert pi_project(sl1, bp, sl1.gen(1, 1)) == bp.gen(1, 1)
    # the diagonal product is 1 in the Borel
    assert bp.gen(1, 1) * bp.gen(2, 2) == bp.one()
    with pytest.raises(NotInBorel):
        bp.gen(2, 1)
    assert pi_project(sl1, bm, sl1.gen(1, 2)).is_zero()


def test_borel_quotient_is_algebra_map_on_relations():
    for n in (1, 2):
        sl = SLAlgebra(n, strategy="diagonal74")
        for sign in ("+", "-"):
            b = BorelAlgebra(n, sign)
            spec = sl.spec
            for (x, y), rhs in spec.rules.items():
                lhs_el = NCElement(spec, {(x, y): RF_ONE}, reduce=False)
                rhs_el = NCElement(spec, {w: c for c, w in rhs}, reduce=False)
                assert pi_project(sl, b, lhs_el) == pi_project(sl, b, rhs_el)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_borel_coproduct_is_quotient_of_sl_coproduct(n, sign):
    """Delta_B(x_ij) equals Delta_SL(x_ij) with the quotient on both factors."""
    from qfun.lincomb import add_outer
    from qfun.qmatrix import TensorElement

    sl = SLAlgebra(n, strategy="diagonal74")
    b = BorelAlgebra(n, sign)
    for (i, j) in sorted(b.cells):
        expect = {}
        for (wl, wr), c in sl.coproduct(sl.gen(i, j)).terms.items():
            left = pi_project(sl, b, NCElement(sl.spec, {wl: RF_ONE}, reduce=False))
            right = pi_project(sl, b, NCElement(sl.spec, {wr: RF_ONE}, reduce=False))
            add_outer(expect, left.terms, right.terms, c)
        got = b.coproduct(b.gen(i, j))
        assert got == TensorElement(b, expect)
        # k runs between i and j inside the triangle
        assert len(got.terms) == abs(i - j) + 1


def test_matrix_contexts_refuse_n_below_one():
    from qfun.uq import UqAlgebra

    for make in (lambda: MatrixAlgebra(0), lambda: SLAlgebra(0), lambda: BorelAlgebra(0, "+"),
                 lambda: BorelAlgebra(-1, "-"), lambda: UqAlgebra(0)):
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_borel_relation_pairs_are_the_whole_presentation(n, sign):
    """One pair per descending pair of letters, plus the diagonal product:
    the two sides of each differ as words and agree in the Borel."""
    b = BorelAlgebra(n, sign)
    pairs = b.defining_relation_pairs()
    k = len(b.spec.alphabet)
    assert len(pairs) == k * (k - 1) // 2 + 1
    for name, lhs, rhs in pairs:
        assert lhs.terms != rhs.terms, name
        assert NCElement(b.spec, dict(lhs.terms)) == NCElement(b.spec, dict(rhs.terms)), name


class DiagProductReducer:
    """The Borel reducer that det_q = 1 replaced, kept as an oracle: the
    diagonal generators commute exactly and their full product is 1, so a
    word holding the diagonal loses one copy of each diagonal letter."""

    name = "borel-diag"

    def __init__(self, n, spec):
        self.diag_pos = frozenset(spec.index[GenSym("x", (i, i))] for i in range(1, n + 2))

    def reduce_word(self, spec, word):
        if not self.diag_pos.issubset(word):
            return None
        missing = set(self.diag_pos)
        kept = []
        for p in word:
            if p in missing:
                missing.discard(p)
            else:
                kept.append(p)
        return {tuple(kept): LP_ONE}


_BORELS = {}


def _borel_and_oracle(n, sign):
    """BorelAlgebra(n, sign) over Z[q,q^-1], and a copy of its spec with the
    oracle reducer in place of det_q = 1; built once per (n, sign)."""
    if (n, sign) not in _BORELS:
        b = BorelAlgebra(n, sign, domain=LAURENT)
        old = AlgebraSpec(b.spec.alphabet, domain=LAURENT, name=b.spec.name)
        old.rules.update(b.spec.rules)
        old.reducer = DiagProductReducer(n, old)
        _BORELS[n, sign] = b, old
    return _BORELS[n, sign]


@st.composite
def _borel_sums(draw):
    """(n, sign, terms): up to three words with small integer coefficients,
    most holding the whole diagonal once or twice among other letters."""
    n = draw(st.integers(1, 3))
    sign = draw(st.sampled_from("+-"))
    b, _ = _borel_and_oracle(n, sign)
    k = len(b.spec.alphabet)
    diag = [b.spec.index[GenSym("x", (i, i))] for i in range(1, n + 2)]
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        letters = diag * draw(st.sampled_from((0, 1, 1, 1, 2)))
        letters += draw(st.lists(st.integers(0, k - 1), max_size=4))
        word = tuple(draw(st.permutations(letters)))
        terms[word] = LAURENT.coerce(draw(st.sampled_from((-2, -1, 1, 3))))
    return n, sign, terms


@settings(max_examples=150, deadline=None)
@given(_borel_sums())
def test_borel_det_reduction_matches_the_diagonal_product_oracle(case):
    """On B+ and B- the det_q = 1 reducer keeps only the identity
    permutation, whose substitution drops the diagonal product: the same
    rewriting as the old diagonal-product reducer."""
    n, sign, terms = case
    b, old = _borel_and_oracle(n, sign)
    assert b.spec.reduce_terms(dict(terms)) == old.reduce_terms(dict(terms))


def test_borel_antipode_axiom():
    bp = BorelAlgebra(1, "+")
    for (i, j) in sorted(bp.cells):
        g = bp.gen(i, j)
        eps = bp.counit(g)
        target = bp.one().scale(eps) if eps else bp.zero()
        acc = bp.zero()
        for (wl, wr), c in bp.coproduct(g).terms.items():
            el = NCElement(bp.spec, {wl: RF_ONE}, reduce=False)
            er = NCElement(bp.spec, {wr: RF_ONE}, reduce=False)
            acc = acc + (bp.antipode(el) * er).scale(c)
        assert acc == target


def test_pbw_basis_sl_counts(sl1):
    words = sl1.pbw_basis(1)
    assert len(words) == 5
    # no canonical word contains the full diagonal product
    for w in sl1.pbw_basis(4):
        counts = {}
        for p in w:
            i, j = sl1.cell_of(p)
            if i == j:
                counts[i] = counts.get(i, 0) + 1
        assert not counts or min(counts.get(i, 0) for i in (1, 2)) == 0


def test_gl_element_arithmetic():
    """det_q and t = det_q^-1 cancel on either side; t alone stays."""
    alg = GLAlgebra(1)
    t = alg.det_inverse()
    assert alg.detq() * t == alg.one() == t * alg.detq()
    assert list(t.terms) == [(alg.spec.index[DET_INVERSE],)]
    assert str(t * t) == "detq^-1 detq^-1"


def test_gl_canonical_divides_out_detq():
    alg = GLAlgebra(2)
    x, t = alg.gen, alg.det_inverse()
    # terms of degree 0 to 3; det_q * c has degrees 3 to 6
    c = alg.one().scale(2) + x(1, 2).scale(Q) + x(2, 1) * x(1, 1) - x(3, 3) * x(1, 3) * x(2, 2)
    assert alg.detq() * c * t == c
    # det_q does not divide the degree-1 part, so a det_q^-1 stays
    got = (x(1, 2) + alg.detq()) * t
    assert got == alg.one() + x(1, 2) * t
    assert any(alg.spec.index[DET_INVERSE] in w for w in got.terms)


def _t_to_one(alg, a):
    """a with every letter t = det_q^-1 dropped: t -> 1 on words."""
    t = alg.spec.index[DET_INVERSE]
    return NCElement(alg.spec, accumulate({}, ((tuple(p for p in w if p != t), c)
                                              for w, c in a.terms.items())), reduce=False)


def test_gl_antipode():
    alg = GLAlgebra(1)
    s = alg.antipode(alg.gen(1, 1))
    assert s == alg.gen(2, 2) * alg.det_inverse()
    # antipode axiom in GL: m(S ox id)Delta(x11) = eps(x11) = 1
    acc = alg.zero()
    for (wl, wr), c in alg.coproduct(alg.gen(1, 1)).terms.items():
        el = NCElement(alg.spec, {wl: RF_ONE}, reduce=False)
        er = NCElement(alg.spec, {wr: RF_ONE}, reduce=False)
        acc = acc + (alg.antipode(el) * er).scale(c)
    assert acc == alg.one()


def test_pi_intertwines_gl_and_sl_antipodes(sl1, sl2):
    for n, sl in ((1, sl1), (2, sl2)):
        gl = GLAlgebra(n)
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                gl_s = gl.antipode(gl.gen(i, j))
                # project: the cells map through pi, det^{-1} maps to 1
                projected = pi_project(gl, sl, _t_to_one(gl, gl_s))
                assert projected == sl.antipode(sl.gen(i, j))


def test_strategies_agree_through_reprojection():
    # reduce via antidiag73, then push every canonical word through the
    # diagonal74 reduction: must equal the direct diagonal74 reduction
    rng = random.Random(17)
    for n in (1, 2):
        a73 = SLAlgebra(n, strategy="antidiag73")
        a74 = SLAlgebra(n, strategy="diagonal74")
        k = len(a73.spec.alphabet)
        for _ in range(25 if n == 1 else 10):
            terms = {}
            for _ in range(rng.randrange(1, 3)):
                w = tuple(rng.randrange(k) for _ in range(rng.randrange(5)))
                terms[w] = RATFUNC.coerce(rng.randrange(-3, 4))
            raw73 = NCElement(a73.spec, {}, reduce=False)
            raw73.terms = {w: c for w, c in terms.items() if c}
            red73 = sl_reduce(a73, raw73)
            pushed = a74.zero()
            for w, c in red73.terms.items():
                cells = [a73.cell_of(p) for p in w]
                el = a74.one()
                for ij in cells:
                    el = el * a74.gen(*ij)
                pushed = pushed + el.scale(c)
            direct = a74.zero()
            for w, c in raw73.terms.items():
                cells = [a73.cell_of(p) for p in w]
                el = a74.one()
                for ij in cells:
                    el = el * a74.gen(*ij)
                direct = direct + el.scale(c)
            assert (pushed - direct).is_zero()


# -- deg-lex termination of the det_q rewrite -----------------------------------


@pytest.mark.parametrize("order", ["triangular", "antidiag", "lex"])
def test_detq_times_u_leads_with_block_plus_u(order):
    """The leading-word fact behind the SL and GL canonical forms:
    for every sorted word u, the deg-lex largest word of NF(det_q u) is
    sorted(block + u), with coefficient 1 (triangular order, diagonal block)
    or (-q)^N (antidiag and lex orders, antidiagonal block)."""
    checked = 0
    for n, max_degree in ((1, 4), (2, 3), (3, 2)):
        alg = MatrixAlgebra(n, order=order, domain=RATFUNC)
        d = alg.detq()
        cols = range(1, n + 2) if order == "triangular" else range(n + 1, 0, -1)
        block_word = tuple(alg.spec.index[GenSym("x", (i, j))] for i, j in enumerate(cols, 1))
        lead_c = RF_ONE if order == "triangular" else RATFUNC.coerce(neg_q_power(n * (n + 1) // 2))
        for k in range(max_degree + 1):
            for u in combinations_with_replacement(range(len(alg.spec.alphabet)), k):
                prod = d * NCElement(alg.spec, {u: RF_ONE}, reduce=False)
                top = max(prod.terms, key=lambda w: (len(w), w))
                assert top == tuple(sorted(block_word + u)), (n, u)
                assert prod.terms[top] == lead_c, (n, u)
                checked += 1
    assert checked == 443


def test_det_substitution_is_the_block_solved_from_detq_equal_1():
    """One formula for both strategies, with the coefficients of the two
    written out separately."""
    for n in (1, 2, 3):
        N = n * (n + 1) // 2
        ident = tuple(range(1, n + 2))
        w0 = ident[::-1]

        def cells(perm):
            return tuple((t + 1, perm[t]) for t in range(n + 1))

        diagonal = [(1, ())] + [(-neg_q_power(perm_inversions(p)), cells(p))
                                for p in permutations(ident) if p != ident]
        scale = neg_q_power(-N)
        antidiag = [(scale, ())] + [(-neg_q_power(perm_inversions(p)) * scale, cells(p))
                                    for p in permutations(ident) if p != w0]
        assert list(_det_substitution(n, "diagonal74")) == diagonal
        assert list(_det_substitution(n, "antidiag73")) == antidiag
    with pytest.raises(ValueError):
        _det_substitution(1, "diagonal")
    with pytest.raises(ValueError):
        SLAlgebra(1, strategy="diagonal")


def test_a_replacement_that_does_not_go_down_in_deglex_is_refused():
    """A reducer is held to the rules' witness: x y -> y x with x < y
    goes up in deg-lex, so it raises NonTerminating instead of looping."""

    class Swap:
        name = "swap"

        def __init__(self, up):
            self.up = up

        def reduce_word(self, spec, word):
            if len(word) == 2 and word[0] != word[1] and (word[0] < word[1]) == self.up:
                return {word[::-1]: LP_ONE}
            return None

    for up in (False, True):
        spec = AlgebraSpec([GenSym("x", (1,)), GenSym("x", (2,))])
        spec.reducer = Swap(up)
        if up:
            with pytest.raises(NonTerminating):
                spec.reduce_terms({(0, 1): LP_ONE})
        else:
            assert spec.reduce_terms({(1, 0): LP_ONE}) == {(0, 1): LP_ONE}


def _words_holding_the_diagonal(alg, rng, copies, extra):
    """A word with the whole diagonal `copies` times and up to `extra` other
    random letters, shuffled: random words almost never hold the diagonal."""
    diag = [alg.spec.index[GenSym("x", (i, i))] for i in range(1, alg.n + 2)]
    letters = diag * copies + [rng.randrange(len(alg.spec.alphabet)) for _ in range(rng.randrange(extra + 1))]
    rng.shuffle(letters)
    return tuple(letters)


def test_no_word_is_replaced_twice(monkeypatch):
    """Targets are taken deg-lex largest first, so a word that a
    replacement brings in is never a word already replaced.  A word that
    holds the diagonal twice needs a second replacement, of a word that
    the first brings in."""
    from qfun.qsl import DetReducer

    replaced = []
    real = DetReducer.reduce_word

    def spy(self, spec, word):
        repl = real(self, spec, word)
        if repl is not None:
            replaced.append(word)
        return repl

    monkeypatch.setattr(DetReducer, "reduce_word", spy)
    for n in (1, 2):
        alg = SLAlgebra(n)
        rng = random.Random(5)
        for _ in range(10):
            replaced.clear()
            alg.spec.reduce_terms({_words_holding_the_diagonal(alg, rng, 2, 2): RF_ONE})
            assert len(replaced) > 1
            assert len(replaced) == len(set(replaced))


@pytest.mark.parametrize("n, copies", [(1, 3), (2, 2)])
def test_words_holding_the_diagonal_again_reduce_to_canonical_words(n, copies):
    """A replacement can bring in words that hold the diagonal again; they
    are rewritten too, and the random-site loop agrees."""
    alg = SLAlgebra(n)
    rng = random.Random(29 + n)
    diag = {alg.spec.index[GenSym("x", (i, i))] for i in range(1, n + 2)}
    for trial in range(10):
        raw = NCElement(alg.spec, {}, reduce=False)
        raw.terms = {_words_holding_the_diagonal(alg, rng, copies, 2): RF_ONE}
        base = sl_reduce(alg, raw)
        assert base.terms and all(diag - set(w) for w in base.terms)
        assert sl_reduce(alg, raw, rng=random.Random(trial)) == base


@pytest.fixture(scope="module")
def sl3():
    return SLAlgebra(3, strategy="diagonal74")


@pytest.mark.parametrize("expr", ["S(x[1,2])S(x[4,3])", "S(x[4,3])S(x[1,2])"])
def test_sl4_products_of_antipodes_reduce(expr):
    """The two products that once raised NonTerminating under diagonal74."""
    from qfun.cli import run_command

    code, out = run_command(["nf", "--n", "3", "--algebra", "SL", expr])
    assert code == 0, out
    assert "x[" in out


def test_sl4_antipode_is_antimultiplicative_on_all_generator_pairs(sl3):
    gens = [sl3.gen(i, j) for i in range(1, 5) for j in range(1, 5)]
    images = [sl3.antipode(g) for g in gens]
    for a, sa in zip(gens, images):
        for b, sb in zip(gens, images):
            assert sl3.antipode(a * b) == sb * sa


def test_sl4_random_sites_agree_with_the_installed_reducer(sl3):
    rng = random.Random(23)
    diag = {sl3.spec.index[GenSym("x", (i, i))] for i in range(1, 5)}
    for trial in range(12):
        raw = NCElement(sl3.spec, {}, reduce=False)
        raw.terms = {_words_holding_the_diagonal(sl3, rng, 1, 2): RATFUNC.coerce(rng.randrange(-2, 3) or 1)
                     for _ in range(2)}
        base = sl_reduce(sl3, raw)
        assert all(diag - set(w) for w in base.terms)
        assert sl_reduce(sl3, raw, rng=random.Random(trial)) == base


@pytest.mark.parametrize("order", ["triangular", "antidiag"])
@pytest.mark.parametrize("n", [1, 2])
def test_gl_canonical_divides_seeded_multiples_of_detq(n, order):
    """det_q c formed in the matrix algebra of either order, carried into GL
    by its cells and multiplied by det_q^-1, reduces to c."""
    m = MatrixAlgebra(n, order=order, domain=RATFUNC)
    gl = GLAlgebra(n)
    t = gl.det_inverse()
    k = len(m.spec.alphabet)
    rng = random.Random(40 + n)
    for _ in range(15):
        c = NCElement(m.spec, {
            tuple(rng.randrange(k) for _ in range(rng.randrange(4 - n))):
                RATFUNC.coerce(LaurentPoly.monomial(rng.randrange(-3, 4) or 1, rng.randrange(-1, 2)))
            for _ in range(rng.randrange(1, 4))
        })
        body = pi_project(m, gl, m.detq() * c)
        assert body * t == pi_project(m, gl, c) == t * body
        # x[1,2] added: det_q no longer divides the body, and a t stays
        got = (body + gl.gen(1, 2)) * t
        assert got == pi_project(m, gl, c) + gl.gen(1, 2) * t
