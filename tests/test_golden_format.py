"""Golden output of every sparse element type.

Pins str(), repr() and JSON output, byte for byte, for one small element of
each linear-combination class, so that a change to the shared arithmetic or
formatting core cannot alter what users and the CLI print.
"""

import json
from fractions import Fraction

from qfun.classical import PBWElement, build_h, e_sym, f_sym, h_sym, reference_cobracket
from qfun.cli import format_value
from qfun.intform import IntExpr, TensorIntExpr, chigen, phigen, rgen
from qfun.laurent import LP_ONE, Q, Q_MINUS_1, RatFunc
from qfun.qmatrix import MatrixAlgebra
from qfun.qsl import SLAlgebra
from qfun.uq import UqAlgebra, uq_coproduct


def _dump(obj):
    return json.dumps(obj, sort_keys=True)


def test_ncelement_laurent():
    m = MatrixAlgebra(1)
    el = m.gen(2, 1) * m.gen(1, 2) - m.gen(1, 1).scale(3) + m.gen(2, 2) - m.one()
    text = "-1 - 3 x[1,1] + x[2,2] + x[1,2] x[2,1]"
    assert str(el) == text
    assert repr(el) == f"<NCElement {text}>"
    assert _dump(el.to_json()) == (
        '{"algebra": "M(2)/lex", "terms": [{"coeff": {"0": "-1"}, "word": []}, '
        '{"coeff": {"0": "-3"}, "word": [["x", 1, 1]]}, '
        '{"coeff": {"0": "1"}, "word": [["x", 2, 2]]}, '
        '{"coeff": {"0": "1"}, "word": [["x", 1, 2], ["x", 2, 1]]}]}'
    )


def test_ncelement_ratfunc():
    sl = SLAlgebra(1)
    el = sl.gen(1, 2).scale(RatFunc(LP_ONE, Q_MINUS_1)) - sl.gen(2, 1) * sl.gen(1, 1)
    text = "((1)/(q - 1)) x[1,2] - x[2,1] x[1,1]"
    assert str(el) == text
    assert repr(el) == f"<NCElement {text}>"
    assert _dump(el.to_json()) == (
        '{"algebra": "SL(2)/diagonal74", "terms": [{"coeff": {"den": {"0": "-1", '
        '"1": "1"}, "num": {"0": "1"}}, "word": [["x", 1, 2]]}, {"coeff": {"den": '
        '{"0": "1"}, "num": {"0": "-1"}}, "word": [["x", 2, 1], ["x", 1, 1]]}]}'
    )


def test_tensor_element():
    m = MatrixAlgebra(1)
    t = m.coproduct(m.gen(1, 2)).scale(Q) - m.coproduct(m.gen(2, 2))
    text = (
        "q x[1,1] (x) x[1,2] + q x[1,2] (x) x[2,2] + -1 x[2,1] (x) x[1,2] "
        "+ -1 x[2,2] (x) x[2,2]"
    )
    assert str(t) == text
    assert repr(t) == f"<TensorElement {text}>"
    assert json.loads(format_value(t, "json")) == {
        "schema": "qfun/1",
        "tensor": [
            {"coeff": {"1": "1"}, "left": "x[1,1]", "right": "x[1,2]"},
            {"coeff": {"1": "1"}, "left": "x[1,2]", "right": "x[2,2]"},
            {"coeff": {"0": "-1"}, "left": "x[2,1]", "right": "x[1,2]"},
            {"coeff": {"0": "-1"}, "left": "x[2,2]", "right": "x[2,2]"},
        ],
    }


def test_uq_element_and_tensor():
    u = UqAlgebra(2)
    el = u.E(1) * u.F(1) - u.G(1, 2).scale(3)
    text = (
        "((-q)/(q^2 - 1)) G[1]^-1 G[2] + ((q)/(q^2 - 1)) G[1] G[2]^-1 "
        "+ -3 G[1]^2 + F[1] E[1]"
    )
    assert str(el) == text
    assert repr(el) == text
    assert json.loads(format_value(el, "json")) == {"schema": "qfun/1", "value": text}
    t = uq_coproduct(u.F(1))
    text = "(1) 1 (x) F[1] + (1) F[1] (x) G[1]^-1 G[2]"
    assert str(t) == text
    assert repr(t) == text


def test_pbw_element_and_classical_tensor():
    lie = build_h(1)
    e, f, h = (PBWElement.gen(lie, s) for s in (e_sym(1, 2), f_sym(2, 1), h_sym(1)))
    el = e * h - h.scale(Fraction(1, 2)) - f + PBWElement.one(lie).scale(2)
    text = "2 - f[2,1] - 1/2 h[1] - 2 e[1,2] + h[1] e[1,2]"
    assert str(el) == text
    assert repr(el) == text
    assert _dump(el.to_json()) == (
        '{"algebra": "h(1)", "terms": [{"coeff": "2", "word": []}, '
        '{"coeff": "-1", "word": [["f", 2, 1]]}, {"coeff": "-1/2", "word": [["h", 1]]}, '
        '{"coeff": "-2", "word": [["e", 1, 2]]}, '
        '{"coeff": "1", "word": [["h", 1], ["e", 1, 2]]}]}'
    )
    t = reference_cobracket(lie, f_sym(2, 1), 1)
    text = "-1 f[2,1] (x) h[1] + 1 h[1] (x) f[2,1]"
    assert str(t) == text
    assert repr(t) == text


def test_int_expr_and_tensor_int_expr():
    el = (
        IntExpr.word((rgen(1, 2), phigen(1)), RatFunc(Q, Q_MINUS_1))
        - IntExpr.gen(chigen(2))
        + IntExpr.one()
    )
    text = "(1) 1 + (-1) chi[2] + ((q)/(q - 1)) r[1,2] phi[1]"
    assert str(el) == text
    assert repr(el) == text
    t = TensorIntExpr()
    t.add((rgen(1, 1),), (chigen(1),), 1)
    t.add((chigen(1),), (), Q)
    t.add((rgen(1, 1),), (chigen(1),), -1)
    assert {k: str(c) for k, c in t.terms.items()} == {((chigen(1),), ()): "q"}
    # TensorIntExpr defines no text form of its own
    assert str(t).startswith("<qfun.intform.TensorIntExpr object at ")
