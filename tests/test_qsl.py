import random

import pytest

from qfun.freealg import NCElement
from qfun.laurent import Q, QINV, RATFUNC, RF_ONE, RatFunc
from qfun.qmatrix import MatrixAlgebra
from qfun.qsl import (
    BorelAlgebra,
    GLElement,
    NotInBorel,
    SLAlgebra,
    antipode_convention_report,
    borel_antipode,
    borel_quotient,
    gl_antipode,
    gl_inverse_det,
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
    assert borel_quotient(sl1, bp, sl1.gen(2, 1)).is_zero()
    assert borel_quotient(sl1, bp, sl1.gen(1, 1)) == bp.gen(1, 1)
    # the diagonal product is 1 in the Borel
    assert bp.gen(1, 1) * bp.gen(2, 2) == bp.one()
    with pytest.raises(NotInBorel):
        bp.gen(2, 1)
    assert borel_quotient(sl1, bm, sl1.gen(1, 2)).is_zero()


def test_borel_quotient_is_algebra_map_on_relations():
    for n in (1, 2):
        sl = SLAlgebra(n, strategy="diagonal74")
        for sign in ("+", "-"):
            b = BorelAlgebra(n, sign)
            spec = sl.spec
            for (x, y), rhs in spec.rules.items():
                lhs_el = NCElement(spec, {(x, y): RF_ONE}, reduce=False)
                rhs_el = NCElement(spec, {w: c for c, w in rhs}, reduce=False)
                assert borel_quotient(sl, b, lhs_el) == borel_quotient(sl, b, rhs_el)


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
            left = borel_quotient(sl, b, NCElement(sl.spec, {wl: RF_ONE}, reduce=False))
            right = borel_quotient(sl, b, NCElement(sl.spec, {wr: RF_ONE}, reduce=False))
            add_outer(expect, left.terms, right.terms, c)
        got = b.coproduct(b.gen(i, j))
        assert got == TensorElement(b, b, expect)
        # k runs between i and j inside the triangle
        assert len(got.terms) == abs(i - j) + 1


def test_matrix_contexts_refuse_n_below_one():
    from qfun.uq import UqAlgebra

    for make in (lambda: MatrixAlgebra(0), lambda: SLAlgebra(0), lambda: BorelAlgebra(0, "+"),
                 lambda: BorelAlgebra(-1, "-"), lambda: UqAlgebra(0)):
        with pytest.raises(ValueError):
            make()


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
            acc = acc + (borel_antipode(bp, el) * er).scale(c)
        assert acc == target


def test_pbw_basis_sl_counts(sl1):
    words = sl1.pbw_basis_sl(1)
    assert len(words) == 5
    # no canonical word contains the full diagonal product
    for w in sl1.pbw_basis_sl(4):
        counts = {}
        for p in w:
            i, j = sl1.cell_of(p)
            if i == j:
                counts[i] = counts.get(i, 0) + 1
        assert not counts or min(counts.get(i, 0) for i in (1, 2)) == 0


def test_gl_element_arithmetic():
    alg = MatrixAlgebra(1, order="triangular", domain=RATFUNC)
    d = GLElement(alg, alg.one(), -1)
    shifted = d.shift_det(1).canonical()
    assert shifted.detpow == 0 and shifted.body == alg.one()
    assert gl_inverse_det(GLElement(alg, alg.one(), 0), 1).detpow == -1


def test_gl_canonical_divides_out_detq():
    alg = MatrixAlgebra(2, order="triangular", domain=RATFUNC)
    x = alg.gen
    # terms of degree 0 to 3; det_q * c has degrees 3 to 6
    c = alg.one().scale(2) + x(1, 2).scale(Q) + x(2, 1) * x(1, 1) - x(3, 3) * x(1, 3) * x(2, 2)
    got = GLElement(alg, alg.detq() * c, -1).canonical()
    assert got.detpow == 0 and got.body == c
    # det_q does not divide the degree-1 part, so nothing is extracted
    got = GLElement(alg, x(1, 2) + alg.detq(), -1).canonical()
    assert got.detpow == -1 and got.body == x(1, 2) + alg.detq()


def test_gl_antipode():
    alg = MatrixAlgebra(1, order="triangular", domain=RATFUNC)
    s = gl_antipode(alg, GLElement(alg, alg.gen(1, 1), 0)).canonical()
    expect = GLElement(alg, alg.gen(2, 2), -1)
    assert s == expect
    # antipode axiom in GL: m(S ox id)Delta(x11) = eps(x11) = 1
    acc = GLElement(alg, alg.zero(), 0)
    for (wl, wr), c in alg.coproduct(alg.gen(1, 1)).terms.items():
        el = GLElement(alg, NCElement(alg.spec, {wl: RF_ONE}, reduce=False), 0)
        er = GLElement(alg, NCElement(alg.spec, {wr: RF_ONE}, reduce=False), 0)
        acc = acc + (gl_antipode(alg, el) * er).scale(c)
    assert acc == GLElement(alg, alg.one(), 0)


def test_pi_intertwines_gl_and_sl_antipodes(sl1, sl2):
    for n, sl in ((1, sl1), (2, sl2)):
        malg = MatrixAlgebra(n, order="triangular", domain=RATFUNC)
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                gl_s = gl_antipode(malg, GLElement(malg, malg.gen(i, j), 0))
                # project: body maps through pi, det^{-1} maps to 1
                projected = pi_project(malg, sl, gl_s.body)
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
