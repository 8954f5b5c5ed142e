"""U_q straightening over Z[q,q^-1] against the straightening over k(q).

`KqStraightening` is the k(q) straightening that UqAlgebra ran before it
counted the cross relation's 1/(q-q^-1) as a power: every coefficient of
_cross, mul_terms and normalize is a RatFunc, reduced at every step.  It
shares nothing with UqAlgebra but the algebra's rank, its sl_quotient flag
and its Serre relations, so the products of the two must agree term for
term.
"""

import itertools
from math import factorial

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from qfun.freealg import graded_component_basis
from qfun.laurent import LP_ONE, LaurentPoly, NotDivisible, RF_ONE, RF_Q_MINUS_QINV, RatFunc, over_common_denominator
from qfun.lincomb import accumulate, pair_product
from qfun.uq import UqAlgebra, UqTensor, _tensor


def _qpow(k):
    return RatFunc.from_laurent(LaurentPoly({k: 1}))


class KqStraightening:
    """The k(q) straightening of triangular terms of alg, with its own memos."""

    def __init__(self, alg):
        self.alg = alg
        self.n = alg.n
        self._serre_nf = {}
        self._cross_cache = {}

    def _serre_nf_word(self, word):
        if not word:
            return {(): RF_ONE}
        hit = self._serre_nf.get(word)
        if hit is None:
            deg = [0] * (self.n + 1)
            for letter in word:
                deg[letter] += 1
            _, _, proj = graded_component_basis(self.n + 1, self.alg.serre_relations, tuple(deg))
            self._serre_nf.update(proj)
            hit = proj[word]
        return hit

    def _norm_g(self, g):
        if not self.alg.sl_quotient:
            return tuple(g)
        return tuple(x - g[-1] for x in g)

    def _cross(self, eword, fword):
        if not eword or not fword:
            return {(tuple(fword), (0,) * (self.n + 1), tuple(eword)): RF_ONE}
        key = (tuple(eword), tuple(fword))
        hit = self._cross_cache.get(key)
        if hit is not None:
            return hit
        a, prefix, b, rest = eword[-1], eword[:-1], fword[0], fword[1:]

        def terms():
            for (f1, g1, e1), c1 in self._cross(prefix, (b,)).items():
                for (f2, g2, e2), c2 in self._cross(e1 + (a,), rest).items():
                    s = sum(g1[j] - g1[j - 1] for j in f2)
                    g = tuple(x + y for x, y in zip(g1, g2))
                    yield (f1 + f2, g, e2), _qpow(s) * c1 * c2
            if a == b:
                for sign, pw in ((1, 1), (-1, -1)):
                    gk = [0] * (self.n + 1)
                    gk[a - 1] = pw
                    gk[a] = -pw
                    s_e = sum(gk[j] - gk[j - 1] for j in prefix)
                    coeff = RF_Q_MINUS_QINV.inverse() * sign * _qpow(s_e)
                    for (f2, g2, e2), c2 in self._cross(prefix, rest).items():
                        s = sum(gk[j] - gk[j - 1] for j in f2)
                        g = tuple(x + y for x, y in zip(gk, g2))
                        yield (f2, g, e2), _qpow(s) * coeff * c2

        out = self._cross_cache[key] = accumulate({}, terms())
        return out

    def mul_terms(self, t1, c1, t2, c2, out):
        f1, g1, e1 = t1
        f2, g2, e2 = t2
        for (fm, gm, em), cc in self._cross(e1, f2).items():
            s1 = sum(g1[j] - g1[j - 1] for j in fm)
            s2 = sum(g2[j] - g2[j - 1] for j in em)
            g = tuple(a + b + c for a, b, c in zip(g1, gm, g2))
            accumulate(out, (((f1 + fm, g, em + e2), c1 * c2 * cc * _qpow(s1 + s2)),))
        return out

    def normalize(self, raw):
        out = {}
        for (fw, g, ew), c in raw.items():
            g = self._norm_g(g)
            for fb, fc in self._serre_nf_word(fw).items():
                for eb, ec in self._serre_nf_word(ew).items():
                    accumulate(out, (((fb, g, eb), c * fc * ec),))
        return out

    def product(self, x, y):
        raw = {}
        for (t1, c1), (t2, c2) in itertools.product(x.items(), y.items()):
            self.mul_terms(t1, c1, t2, c2, raw)
        return self.normalize(raw)

    def tensor_product(self, x, y):
        return pair_product(x, y, lambda u, v: self.normalize(self.mul_terms(u, RF_ONE, v, RF_ONE, {})),
                            RF_ONE)


_ALGEBRAS = {(n, sl): UqAlgebra(n, sl_quotient=sl) for n in (1, 2, 3) for sl in (False, True)}
_ORACLES = {key: KqStraightening(alg) for key, alg in _ALGEBRAS.items()}

# 1, -1, q, 1/(q+1), 1/(q-q^-1) and a sum over q^2 + 1
_COEFFS = (
    RF_ONE,
    -RF_ONE,
    _qpow(1),
    RatFunc(1, LaurentPoly({1: 1, 0: 1})),
    RF_Q_MINUS_QINV.inverse(),
    RatFunc(LaurentPoly({0: 3, -1: 2}), LaurentPoly({2: 1, 0: 1})),
)


@st.composite
def _monomials(draw, alg):
    """A product of up to three letters E_i, F_i, G_i^{+-1} and E_i F_i: a
    triangular element whose terms carry the dens that straightening brings
    in, q/(q^2-1) for E_i F_i."""
    n = alg.n
    out = alg.one()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["E", "F", "G", "EF"]))
        if kind == "G":
            out = out * alg.G(draw(st.integers(1, n + 1)), draw(st.sampled_from([1, -1])))
        else:
            i = draw(st.integers(1, n))
            letter = {"E": alg.E(i), "F": alg.F(i), "EF": alg.E(i) * alg.F(i)}[kind]
            out = out * letter
    return out


@st.composite
def _elements(draw, alg):
    out = alg.zero()
    for _ in range(draw(st.integers(1, 3))):
        out = out + draw(_monomials(alg)).scale(draw(st.sampled_from(_COEFFS)))
    return out


@st.composite
def _element_pairs(draw):
    key = (draw(st.integers(1, 3)), draw(st.booleans()))
    alg = _ALGEBRAS[key]
    return key, draw(_elements(alg)), draw(_elements(alg))


@settings(max_examples=80, deadline=None)
@given(_element_pairs())
def test_products_match_the_kq_straightening(case):
    key, x, y = case
    assert (x * y).terms == _ORACLES[key].product(x.terms, y.terms)


@st.composite
def _tensor_pairs(draw):
    key = (draw(st.integers(1, 2)), draw(st.booleans()))
    alg = _ALGEBRAS[key]

    def tensor():
        pairs = [(draw(_monomials(alg)), draw(_monomials(alg))) for _ in range(draw(st.integers(1, 2)))]
        return _tensor(alg, *pairs).scale(draw(st.sampled_from(_COEFFS)))

    return key, tensor(), tensor()


@settings(max_examples=40, deadline=None)
@given(_tensor_pairs())
def test_tensor_products_match_the_kq_straightening(case):
    key, x, y = case
    assert isinstance(x, UqTensor)
    assert (x * y).terms == _ORACLES[key].tensor_product(x.terms, y.terms)


def test_cross_relation_powers_and_element_dens():
    """E_1 F_1 carries 1/(q-q^-1) = q/(q^2-1); E_1^2 F_1^2 brings in its
    square; a coefficient's own den, 1/(q+1), survives the product."""
    alg = UqAlgebra(1)
    e, f = alg.E(1), alg.F(1)
    ef = e * f
    assert ef.terms[((), (1, -1), ())] == RF_Q_MINUS_QINV.inverse()
    assert ef.terms[((1,), (0, 0), (1,))] is RF_ONE
    e2f2 = (e * e) * (f * f)
    top = e2f2.terms[((), (2, -2), ())]
    assert not top.is_laurent() and (top * RF_Q_MINUS_QINV ** 2).is_laurent()
    third = RatFunc(1, LaurentPoly({1: 1, 0: 1}))
    scaled = e.scale(third) * f.scale(third)
    assert scaled.terms == {k: c * third * third for k, c in ef.terms.items()}
    oracle = KqStraightening(alg)
    assert e2f2.terms == oracle.product((e * e).terms, (f * f).terms)
    # K_1 comes from E_1 F_1 over (q-q^-1) and from K_1 * 1 over 1: one key
    # held at two powers, the lower one met first
    x, y = e + alg.K(1), f + alg.one()
    assert (x * y).terms == oracle.product(x.terms, y.terms)


def test_products_by_one_come_back_as_rf_one():
    alg = UqAlgebra(2)
    x = alg.F(1) * alg.F(2) * alg.G(1) * alg.E(2) * alg.E(1)
    assert all(c is RF_ONE for c in x.terms.values() if c == 1)
    assert any(c is RF_ONE for c in x.terms.values())


def test_a_serre_expansion_off_the_laurent_ring_raises_naming_its_den():
    """With a cubic relation whose middle coefficient is 1/(q+1), the Serre
    expansions are not Laurent, and straightening refuses them by name."""
    alg = UqAlgebra(2)
    third = RatFunc(1, LaurentPoly({1: 1, 0: 1}))
    alg.serre_relations = [
        {(1, 1, 2): RF_ONE, (1, 2, 1): -third, (2, 1, 1): RF_ONE},
        {(2, 2, 1): RF_ONE, (2, 1, 2): -RF_ONE, (1, 2, 2): RF_ONE},
    ]
    with pytest.raises(NotDivisible, match=r"denominator q \+ 1") as exc:
        alg.F(1) * alg.F(1) * alg.F(2)
    assert exc.value.remainder == LaurentPoly({1: 1, 0: 1})


def test_every_small_serre_component_expands_over_the_laurent_ring():
    """Every Serre component at n <= 4 of total degree 2..7 and at most 300
    words: the expansion of each of its words is Laurent."""
    components = 0
    for n in range(1, 5):
        alg = UqAlgebra(n)
        for deg in itertools.product(range(8), repeat=n):
            count = factorial(sum(deg))
            for m in deg:
                count //= factorial(m)
            if not 2 <= sum(deg) <= 7 or count > 300:
                continue
            word = tuple(letter for letter, m in enumerate(deg, 1) for _ in range(m))
            alg.clear_caches()
            alg._serre_nf_word(word)
            assert len(alg._serre_nf) == count
            assert all(type(c) is LaurentPoly for e in alg._serre_nf.values() for c in e.values())
            components += 1
    assert components == 464


def test_over_common_denominator_divides_each_key_by_its_own_top_power():
    """A key held only at a = b = 0 keeps its Laurent coefficient; a key
    held at several powers is brought to its largest before the division."""
    qmq = LaurentPoly({1: 1, -1: -1})
    by_den = {LP_ONE: {(0, 0): {"x": LP_ONE, "y": LaurentPoly({1: 2})},
                       (2, 0): {"y": qmq * qmq},
                       (1, 1): {"z": qmq}}}
    out = over_common_denominator(by_den)
    assert out["x"] is RF_ONE
    assert out["y"] == RatFunc.from_laurent(LaurentPoly({1: 2, 0: 1}))
    assert out["z"] == RatFunc(1, LaurentPoly({1: 1, 0: -1}))
