"""GL(n+1) as the matrix algebra plus the central letter t = det_q^-1."""

import random
from math import comb

import pytest

from qfun.freealg import AlgebraMismatch, NCElement
from qfun.intform import IntContext, chigen, phigen, psigen, rgen
from qfun.laurent import Q_MINUS_1, Q_MINUS_QINV, RATFUNC, RF_ONE, LaurentPoly, RatFunc
from qfun.lincomb import add_outer
from qfun.qmatrix import MatrixAlgebra, TensorElement
from qfun.qsl import DET_INVERSE, GLAlgebra

_ALGEBRAS = {}


def _algebras(n):
    """GL(n+1) and the matrix algebra in GL's (triangular) order, built once."""
    if n not in _ALGEBRAS:
        _ALGEBRAS[n] = GLAlgebra(n), MatrixAlgebra(n, order="triangular", domain=RATFUNC)
    return _ALGEBRAS[n]


def _t_power(gl, a):
    """The largest power of t in a word of a."""
    t = gl.spec.index[DET_INVERSE]
    return max((w.count(t) for w in a.terms), default=0)


def _clear(gl, m, a, K):
    """a det_q^K, computed in the matrix algebra m: each word u t^k of a
    (k <= K) becomes u det_q^(K-k)."""
    t = gl.spec.index[DET_INVERSE]
    out = m.zero()
    for w, c in a.terms.items():
        k = w.count(t)
        assert k <= K
        u = m.monomial([gl.cell_of(p) for p in w if p != t], c)
        for _ in range(K - k):
            u = u * m.detq()
        out = out + u
    return out


def _atoms(gl):
    """Generators, their antipodes and t."""
    cells = sorted(gl.cells)
    return ([gl.gen(*ij) for ij in cells] + [gl.antipode(gl.gen(*ij)) for ij in cells]
            + [gl.det_inverse()])


def _seeded_elements(gl, rng, count, factors):
    """Products of 1..factors atoms, each scaled by a Laurent monomial, and
    sums of two of them."""
    atoms = _atoms(gl)
    out = []
    for _ in range(count):
        el = gl.one()
        for _ in range(rng.randint(1, factors)):
            el = el * rng.choice(atoms)
        el = el.scale(RATFUNC.coerce(LaurentPoly.monomial(rng.choice((-2, -1, 1, 3)),
                                                          rng.randrange(-1, 2))))
        if rng.random() < 0.3:
            el = el + rng.choice(atoms)
        out.append(el)
    return out


@pytest.mark.parametrize("n, factors", [(1, 3), (2, 2)])
def test_products_agree_with_the_matrix_algebra_after_clearing_detq(n, factors):
    """Differential oracle: a b det_q^(Ka+Kb) computed in GL and cleared
    equals (a det_q^Ka)(b det_q^Kb) computed in the matrix algebra, det_q
    being central there; the GL side is the only one that uses the
    DetReducer."""
    gl, m = _algebras(n)
    rng = random.Random(20 + n)
    elements = _seeded_elements(gl, rng, 24, factors)
    for a, b in zip(elements, reversed(elements)):
        ka, kb = _t_power(gl, a), _t_power(gl, b)
        assert _clear(gl, m, a * b, ka + kb) == _clear(gl, m, a, ka) * _clear(gl, m, b, kb)


@pytest.mark.parametrize("n", [1, 2])
def test_antipode_axiom_on_every_letter(n):
    """m(S ox id)Delta(g) = eps(g) 1 = m(id ox S)Delta(g) on every cell and
    on t."""
    gl, _ = _algebras(n)
    letters = [gl.gen(*ij) for ij in sorted(gl.cells)] + [gl.det_inverse()]
    for g in letters:
        left = right = gl.zero()
        for (wl, wr), c in gl.coproduct(g).terms.items():
            el = NCElement(gl.spec, {wl: RF_ONE}, reduce=False)
            er = NCElement(gl.spec, {wr: RF_ONE}, reduce=False)
            left = left + (gl.antipode(el) * er).scale(c)
            right = right + (el * gl.antipode(er)).scale(c)
        assert left == right == gl.one().scale(gl.counit(g)), str(g)


@pytest.mark.parametrize("n", [1, 2])
def test_coproduct_and_counit_are_multiplicative(n):
    gl, _ = _algebras(n)
    t = gl.det_inverse()
    assert gl.coproduct(t) == TensorElement(gl, add_outer({}, t.terms, t.terms, RF_ONE))
    assert gl.counit(t) == RF_ONE
    rng = random.Random(30 + n)
    elements = _seeded_elements(gl, rng, 16, 2)
    for a, b in zip(elements, elements[1:]):
        assert gl.coproduct(a * b) == gl.coproduct(a) * gl.coproduct(b)
        assert gl.counit(a * b) == gl.counit(a) * gl.counit(b)


@pytest.mark.parametrize("n", [1, 2])
def test_detq_times_a_power_of_t_lowers_the_power(n):
    """det_q t^k u reduces to t^(k-1) u, a single canonical word when u is
    free of the diagonal."""
    gl, _ = _algebras(n)
    t, tpos = gl.det_inverse(), gl.spec.index[DET_INVERSE]
    words = [u for u in gl.pbw_basis(2) if tpos not in u]
    for u in words:
        el = NCElement(gl.spec, {u: RF_ONE}, reduce=False)
        for k in (1, 2, 3):
            got = gl.detq() * t ** k * el
            assert got == t ** (k - 1) * el
            if not gl.spec.reducer.block_pos - {tpos} <= set(u):
                assert got.terms == {u + (tpos,) * (k - 1): RF_ONE}


@pytest.mark.parametrize("n, max_degree", [(1, 5), (2, 4)])
def test_gl_basis_counts_are_the_words_not_divisible_by_the_diagonal_and_t(n, max_degree):
    """C(D+L, L) - C(D-(n+2)+L, L) sorted words of degree <= D in L letters
    do not hold the n+1 diagonal cells and t."""
    gl, _ = _algebras(n)
    L = (n + 1) ** 2 + 1
    for D in range(max_degree + 1):
        assert len(gl.pbw_basis(D)) == comb(D + L, L) - comb(D - (n + 2) + L, L)


@pytest.mark.parametrize("n", [1, 2])
def test_gl_integer_form_context_lifts_into_gl(n):
    """IntContext(n, gl=True) lifts into GLAlgebra: r_ij = x_ij/(q - q^-1)
    (i != j), r_ii = x_ii, phi_i = (x_ii - x_{i+1,i+1})/(q - 1),
    psi_i = (x_11...x_ii - 1)/(q - 1) and chi_i = (x_ii - 1)/(q - 1), written
    out in a GL(n+1) of its own; and the lifts have GL's antipode."""
    ctx = IntContext(n, gl=True)
    assert isinstance(ctx.alg, GLAlgebra)
    gl, _ = _algebras(n)
    x, one = gl.gen, gl.one()
    by_q_minus_1 = RatFunc(1, Q_MINUS_1)
    idx = range(1, n + 2)
    formulas = {rgen(i, i): x(i, i) for i in idx}
    for i in idx:
        for j in idx:
            if i != j:
                formulas[rgen(i, j)] = x(i, j).scale(RatFunc(1, Q_MINUS_QINV))
        formulas[chigen(i)] = (x(i, i) - one).scale(by_q_minus_1)
        diagonal = one
        for s in range(1, i + 1):
            diagonal = diagonal * x(s, s)
        formulas[psigen(i)] = (diagonal - one).scale(by_q_minus_1)
    for i in range(1, n + 1):
        formulas[phigen(i)] = (x(i, i) - x(i + 1, i + 1)).scale(by_q_minus_1)
    for g, formula in formulas.items():
        lifted = ctx.lift_gen(g)
        assert lifted.terms == formula.terms, str(g)
        assert ctx.alg.antipode(lifted).terms == gl.antipode(formula).terms, str(g)


def test_gl_spec_is_named_gl():
    """GL(n+1) and the matrix algebra it extends have two names, and GL's
    letter is adjoined to the unnamed presentation of the cells: no
    presentation of the cells is built under GL's name."""
    from qfun import qmatrix

    gl, m = GLAlgebra(1), MatrixAlgebra(1, order="triangular", domain=RATFUNC)
    assert gl.spec.name == "GL(2)" and m.spec.name == "M(2)/triangular"
    with pytest.raises(AlgebraMismatch, match=r"^'GL\(2\)' vs 'M\(2\)/triangular'$"):
        gl.gen(1, 2) + m.gen(1, 2)
    keys = {k[3:] for k in qmatrix._presentations if k[:3] == (1, "triangular", None)}
    assert {(None, None), ("GL(2)", DET_INVERSE)} <= keys and ("GL(2)", None) not in keys
