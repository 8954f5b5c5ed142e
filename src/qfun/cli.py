"""Command-line interface: expression parser, dispatch, JSON/text reports.

Grammar (EBNF):
    expr   := ["-"] term (("+"|"-") term)*
    term   := factor (("*"|"/")? factor)*
    factor := atom ("^" int)?
    atom   := number | "q" | gen | call | "(" expr ")"
Juxtaposition is multiplication, "/" divides by a scalar, "^" binds
tighter than juxtaposition; products are read left to right.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from .classical import (
    C_SYM,
    ClassicalTensor,
    PBWElement,
    build_h_prime,
    e_sym,
    f_sym,
    h_sym,
    lie_algebra,
    reference_cobracket,
)
from .freealg import NCElement, TermBudgetExceeded, _term_budget
from .intform import (
    IntContext,
    IntExpr,
    OutOfForm,
    chigen,
    phigen,
    poisson_cobracket,
    psigen,
    rgen,
    specialize_phi,
)
from .laurent import POLE_AT_ONE, DivisionByZero, LaurentPoly, NotDivisible, RatFunc
from .qmatrix import MatrixAlgebra, TensorElement
from .qsl import BorelAlgebra, NotInBorel, SLAlgebra
from .uq import MuMap, UqAlgebra, UqElement, UqTensor, collapse_at_one, convex_order, root_vector_iterated, root_vector_lusztig, uq_coproduct
from . import suites


class ExprSyntaxError(Exception):
    def __init__(self, msg, line, col):
        self.line = line
        self.col = col
        super().__init__(f"{msg} at line {line}, column {col}")


class ExprIndexError(Exception):
    pass


GEN_FAMILIES = {
    "x": 2,
    "r": 2,
    "phi": 1,
    "psi": 1,
    "chi": 1,
    "F": 1,
    "G": 1,
    "Ginv": 1,
    "E": 1,
    "f": 2,
    "h": 1,
    "e": 2,
}

CALLS = {"S", "Delta", "eps", "delta"}

# the algebras whose values are NCElements of a MatrixAlgebra
MATRIX_ALGEBRAS = ("M", "SL", "GL", "B+", "B-")

TENSORS = (TensorElement, UqTensor, ClassicalTensor)


def tokenize(src):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            try:
                tokens.append(("num", int(src[i:j]), line, col))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ExprSyntaxError(f"number of {j - i} digits is too long", line, col) from None
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()[],/":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", None, line, col))
    return tokens


class Parser:
    def __init__(self, src):
        self.tokens = tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {t[1]!r}", t[2], t[3])
        return t

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ExprSyntaxError(f"trailing input {t[1]!r}", t[2], t[3])
        return e

    def expr(self):
        if self.peek()[0] == "-":
            self.next()
            out = ("neg", self.term())
        else:
            out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            out = ("add" if op == "+" else "sub", out, rhs)
        return out

    def term(self):
        out = self.factor()
        while True:
            t = self.peek()
            if t[0] == "*":
                self.next()
                out = ("mul", out, self.factor())
            elif t[0] == "/":
                self.next()
                out = ("div", out, self.factor())
            elif t[0] in ("num", "name", "("):
                out = ("mul", out, self.factor())
            else:
                return out

    def factor(self):
        a = self.atom()
        if self.peek()[0] == "^":
            self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            t = self.expect("num")
            return ("pow", a, sign * t[1])
        return a

    def atom(self):
        t = self.next()
        if t[0] == "num":
            if self.peek()[0] == "/":
                self.next()
                den = self.expect("num")
                return ("rat", t[1], den[1])
            return ("num", t[1])
        if t[0] == "(":
            e = self.expr()
            self.expect(")")
            return e
        if t[0] == "name":
            name = t[1]
            if name == "q":
                return ("q",)
            if name == "c":
                return ("gen", "c", ())
            if name == "detq":
                return ("detq",)
            if name == "detqt":
                return ("detqt",)
            if name in CALLS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return ("call", name, arg)
            if name in GEN_FAMILIES:
                self.expect("[")
                idx = [self.expect("num")[1]]
                while self.peek()[0] == ",":
                    self.next()
                    idx.append(self.expect("num")[1])
                self.expect("]")
                if len(idx) != GEN_FAMILIES[name]:
                    raise ExprSyntaxError(
                        f"{name} takes {GEN_FAMILIES[name]} indices", t[2], t[3]
                    )
                return ("gen", name, tuple(idx))
            raise ExprSyntaxError(f"unknown symbol {name!r}", t[2], t[3])
        raise ExprSyntaxError(f"unexpected token {t[1]!r}", t[2], t[3])


def parse(src):
    return Parser(src).parse()


# the binary nodes, which the parser builds left-deep for a + b - c and a b / c
CHAINS = ("add", "sub", "mul", "div")


def _chain(node):
    """A left-deep chain of CHAINS nodes as its first operand and its
    (kind, right operand) steps in order, so that a sum or product of many
    terms is folded in a loop, not by one recursion per operand."""
    steps = []
    while node[0] in CHAINS:
        steps.append((node[0], node[2]))
        node = node[1]
    steps.reverse()
    return node, steps


def _joins(a, b):
    """True when a and b are single words of one algebra with no rewriting
    rule on the pair where they meet.  Their product is then the
    concatenated word, normal for the rules, so a run of such factors is
    joined and reduced once (by the reducer, when the algebra has one):
    reducing every prefix would fill the normal-form memo with all of
    them."""
    if not (isinstance(a, NCElement) and isinstance(b, NCElement) and a.spec is b.spec
            and len(a.terms) == 1 and len(b.terms) == 1):
        return False
    (u,), (v,) = a.terms, b.terms
    return not u or not v or (u[-1], v[0]) not in a.spec.rules


def _check_range(fam, idx, n):
    ok = all(1 <= t <= n + 1 for t in idx)
    if fam in ("phi", "h", "E", "F") and idx and idx[0] > n:
        ok = False
    if not ok:
        raise ExprIndexError(f"{fam}{list(idx)} out of range for n={n}")


def _refuse_huge_power(k, base, budget):
    """Refuse a power before the first multiplication when its exponent
    exceeds the term budget, or when its total degree k * (degree of the
    base) exceeds the square root of the budget.  The loop multiplies out
    words of up to that degree and rewrites each product again, so its work
    grows with the square of the degree.  The degree of a scalar is the span
    of its q-exponents, which its powers multiply the same way; an element of
    degree 0 counts as degree 1, as the loop still multiplies k times.  A
    scalar +-q^e is exempt from the first check, as it stays one term with
    coefficient +-1 under every power."""
    scalar = isinstance(base, RatFunc)
    unit = scalar and base.is_laurent() and list(base.num.terms.values()) in ([1], [-1])
    if abs(k) > budget and not unit:
        raise TermBudgetExceeded(f"exponent {k} exceeds the term budget {budget}")
    if scalar:
        degree = max(p.max_exp() - p.min_exp() for p in (base.num, base.den))
    elif isinstance(base, UqElement):
        degree = max(1, max((len(f) + len(e) for f, _, e in base.terms), default=0))
    else:
        degree = max(1, max((len(w) for w in base.terms), default=0))
    bound = math.isqrt(budget)
    if abs(k) * degree > bound:
        raise TermBudgetExceeded(
            f"power of degree {abs(k) * degree} exceeds {bound}, the square root "
            f"of the term budget {budget}")


class Context:
    """Evaluation context: one algebra, fixed n."""

    def __init__(self, algebra="SL", n=1, order=None, sl_strategy="diagonal74"):
        self.name = algebra
        self.n = n
        self.sl_strategy = sl_strategy
        if algebra == "M":
            from .laurent import RATFUNC

            self.alg = MatrixAlgebra(n, order=order or "lex", domain=RATFUNC)
        elif algebra in ("SL", "GL"):
            self.alg = self.ictx.alg
        elif algebra in ("B+", "B-"):
            self.alg = BorelAlgebra(n, algebra[1])
        elif algebra == "Uq":
            self.alg = UqAlgebra(n, sl_quotient=False)
        elif algebra == "Uh":
            self.lie = build_h_prime(n)
        else:
            raise ValueError(f"unknown algebra {algebra!r}")
        # eval refuses a power by the budget the algebra's normalization
        # read when it was built; U_q and U_h normalize without one
        self.term_budget = (self.alg.spec.term_budget
                            if algebra in MATRIX_ALGEBRAS else _term_budget())

    @functools.cached_property
    def ictx(self):
        """The integer-form context whose lifts give r, phi, psi and chi; in
        SL and GL its algebra is self.alg.  Built on first use."""
        return IntContext(self.n, gl=self.name == "GL", strategy=self.sl_strategy)

    @functools.cached_property
    def lattice(self):
        """The integer-form context whose canonical (diagonal74) lattice basis
        delta(...) expands over; built on first use."""
        if self.name == "SL" and self.sl_strategy != "diagonal74":
            return IntContext(self.n, gl=False)
        return self.ictx

    # -- generator resolution ------------------------------------------------

    def gen(self, fam, idx):
        _check_range(fam, idx, self.n)
        name = self.name
        if name in MATRIX_ALGEBRAS:
            if fam == "x":
                return self.alg.gen(*idx)
            if name in ("SL", "GL") and fam in ("r", "phi", "psi", "chi"):
                g = {"r": rgen, "phi": phigen, "psi": psigen, "chi": chigen}[fam](*idx)
                return self.ictx.lift_gen(g)
            raise ExprIndexError(f"generator {fam} not available in {name}")
        if name == "Uq":
            if fam == "F":
                return self.alg.F(*idx)
            if fam == "E":
                return self.alg.E(*idx)
            if fam == "G":
                return self.alg.G(*idx)
            if fam == "Ginv":
                return self.alg.G(idx[0], -1)
            raise ExprIndexError(f"generator {fam} not available in Uq")
        if name == "Uh":
            return PBWElement.gen(self.lie, self._uh_symbol(fam, idx))
        raise ExprIndexError(f"generator {fam} not available")

    def _uh_symbol(self, fam, idx):
        """The U(h) basis symbol of generator fam[idx]: f, e, h or the
        central c; any other family, or a symbol outside the basis for n,
        is refused."""
        make = {"f": f_sym, "e": e_sym, "h": h_sym, "c": lambda: C_SYM}.get(fam)
        if make is None:
            raise ExprIndexError(f"generator {fam} not available in Uh")
        sym = make(*idx)
        if sym not in self.lie.index:
            raise ExprIndexError(f"{sym} is not a basis symbol for n={self.n}")
        return sym

    def one(self):
        if self.name == "Uh":
            return PBWElement.one(self.lie)
        return self.alg.one()

    # -- evaluation --------------------------------------------------------------

    def eval(self, node):
        kind = node[0]
        if kind == "num":
            return RatFunc.from_laurent(LaurentPoly.from_int(node[1]))
        if kind == "rat":
            return RatFunc(LaurentPoly.from_int(node[1]), LaurentPoly.from_int(node[2]))
        if kind == "q":
            return RatFunc.from_laurent(LaurentPoly({1: 1}))
        if kind == "gen":
            return self.gen(node[1], node[2])
        if kind == "detq":
            if self.name not in ("M", "GL"):
                if self.name == "SL":
                    return self.alg.one()
                raise ExprIndexError("detq not available here")
            return self.alg.detq()
        if kind == "detqt":
            if self.name != "SL":
                raise ExprIndexError("detqt is an SL-form expression")
            return self.alg.one()
        if kind == "neg":
            return -self.eval(node[1])
        if kind in CHAINS:
            first, steps = _chain(node)
            out = self.eval(first)
            # out is a concatenated word not yet reduced while joined
            joined = False
            for op, rhs in steps:
                b = self.eval(rhs)
                if op == "mul" and _joins(out, b):
                    (u, c), = out.terms.items()
                    (v, d), = b.terms.items()
                    out = NCElement(out.spec, {u + v: c * d}, reduce=False)
                    joined = True
                    continue
                if joined:
                    out, joined = NCElement(out.spec, out.terms), False
                out = self._binary(op, out, b)
            return NCElement(out.spec, out.terms) if joined else out
        if kind == "pow":
            k = node[2]
            if k < 0 and self.name == "GL" and node[1] == ("detq",):
                # GL's letter det_q^-1, as a GL value prints it
                base, k = self.alg.det_inverse(), -k
            else:
                base = self.eval(node[1])
            if isinstance(base, TENSORS):
                raise ExprIndexError("a coproduct or cobracket value has no powers")
            _refuse_huge_power(k, base, self.term_budget)
            if isinstance(base, RatFunc):
                return base ** k
            if k < 0:
                # a U_q term key is (F-word, toral exponents, E-word)
                if not (isinstance(base, UqElement) and len(base.terms) == 1
                        and not any(next(iter(base.terms))[::2])):
                    raise ExprIndexError("negative powers only on scalars and toral monomials")
                (_, g, _), c = next(iter(base.terms.items()))
                base = base.alg.toral([-x for x in g]).scale(c.inverse())
                k = -k
            out = self.one()
            for _ in range(k):
                out = self._mul(out, base)
            return out
        if kind == "call":
            return self._call(node[1], node[2])
        raise ValueError(f"bad node {node!r}")

    def _binary(self, kind, a, b):
        """a + b, a - b, a b or a / b, by the kind of a CHAINS node."""
        if kind in ("add", "sub"):
            a, b = self._align(a, b)
            return a + b if kind == "add" else a - b
        if kind == "mul":
            return self._mul(a, b)
        if not isinstance(b, RatFunc):
            raise ExprIndexError("division only by scalars")
        if isinstance(a, RatFunc):
            return a / b
        return self._mul(a, b.inverse())

    @staticmethod
    def _refuse_mixed(a, b, scalars_mix):
        """A tensor combines only with a tensor of its own kind (a coproduct
        value with a coproduct value, a cobracket value with a cobracket
        value), and with scalars when scalars_mix."""
        kinds = {type(v) if isinstance(v, TENSORS) else None for v in (a, b)
                 if not (scalars_mix and isinstance(v, RatFunc))}
        if len(kinds) > 1:
            if None in kinds:
                raise ExprIndexError("a tensor and an element do not combine here")
            raise ExprIndexError("a coproduct value and a cobracket value do not combine")

    def _align(self, a, b):
        self._refuse_mixed(a, b, scalars_mix=False)
        if isinstance(a, RatFunc) and not isinstance(b, RatFunc):
            a = self.one().scale(self._scalar_for(a, b))
        elif isinstance(b, RatFunc) and not isinstance(a, RatFunc):
            b = self.one().scale(self._scalar_for(b, a))
        return a, b

    @staticmethod
    def _scalar_for(s, v):
        """The scalar s as a coefficient of v: its value at q = 1 when v is a
        classical (Uh or cobracket) value."""
        if not isinstance(v, (PBWElement, ClassicalTensor)):
            return s
        at_one = s.regular_at_one()
        if at_one is POLE_AT_ONE:
            raise ExprIndexError(f"{s} has a pole at q = 1")
        return at_one

    def _mul(self, a, b):
        self._refuse_mixed(a, b, scalars_mix=True)
        if isinstance(a, RatFunc) and isinstance(b, RatFunc):
            return a * b
        if isinstance(a, RatFunc):
            a, b = b, a  # scalars are central
        if isinstance(b, RatFunc):
            return a.scale(self._scalar_for(b, a))
        if isinstance(a, ClassicalTensor):
            raise ExprIndexError("cobracket values do not multiply")
        return a * b

    def _call(self, name, argnode):
        if name == "delta":
            if self.name in ("SL", "GL"):
                expr = _as_intexpr(argnode, self.n, self.term_budget)
                return poisson_cobracket(self.lattice, expr)
            if self.name == "Uh":
                if argnode[0] != "gen":
                    raise ExprIndexError("delta takes a single generator here")
                sym = self._uh_symbol(argnode[1], argnode[2])
                return reference_cobracket(self.lie, sym, self.n)
            raise ExprIndexError("delta not available here")
        arg = self.eval(argnode)
        if isinstance(arg, TENSORS):
            raise ExprIndexError(f"{name} takes an element, not a tensor")
        if isinstance(arg, RatFunc) and self.name != "Uh":
            arg = self.one().scale(arg)  # a scalar c stands for c 1
        if name == "Delta":
            if self.name in MATRIX_ALGEBRAS:
                return self.alg.coproduct(arg)
            if self.name == "Uq":
                return uq_coproduct(arg)
            raise ExprIndexError("Delta not available here")
        if name == "eps":
            if self.name not in MATRIX_ALGEBRAS:
                raise ExprIndexError("eps not available here")
            return self.alg.counit(arg)
        if name == "S":
            if self.name in ("SL", "GL", "B+", "B-"):
                return self.alg.antipode(arg)
            raise ExprIndexError("S not available here")
        raise ExprIndexError(f"unknown call {name}")


def _as_intexpr(node, n, budget):
    """Build a formal integer-form expression from a parse tree; it needs
    no algebra, only n for the index range and the term budget that bounds
    a power."""
    kind = node[0]
    if kind == "gen":
        fam, idx = node[1], node[2]
        g = {"r": rgen, "phi": phigen, "psi": psigen, "chi": chigen}.get(fam)
        if g is None:
            raise ExprIndexError("delta expects integer-form generators")
        _check_range(fam, idx, n)
        return IntExpr.gen(g(*idx))
    if kind == "neg":
        return -_as_intexpr(node[1], n, budget)
    if kind in CHAINS:
        first, steps = _chain(node)
        out = _as_intexpr(first, n, budget)
        for op, rhs in steps:
            b = _as_intexpr(rhs, n, budget)
            if op == "add":
                out = out + b
            elif op == "sub":
                out = out - b
            elif op == "mul":
                out = out * b
            elif list(b.terms) != [()]:
                raise ExprIndexError("division only by scalars")
            else:
                out = out.scale(b.terms[()].inverse())
        return out
    if kind == "num":
        return IntExpr.one().scale(node[1])
    if kind == "rat":
        return IntExpr.one().scale(
            RatFunc(LaurentPoly.from_int(node[1]), LaurentPoly.from_int(node[2]))
        )
    if kind == "q":
        return IntExpr.one().scale(RatFunc.from_laurent(LaurentPoly({1: 1})))
    if kind == "pow":
        base = _as_intexpr(node[1], n, budget)
        k = node[2]
        scalar = base.terms[()] if list(base.terms) == [()] else None
        _refuse_huge_power(k, base if scalar is None else scalar, budget)
        if scalar is not None:
            return IntExpr.one().scale(scalar ** k)
        if k < 0:
            raise ExprIndexError("negative powers only on scalars here")
        return base ** k
    raise ExprIndexError("unsupported expression under delta(...)")


class OutputTooLarge(Exception):
    pass


def format_value(v, fmt="text"):
    try:
        if fmt == "text":
            return str(v)
        return json.dumps(value_to_json(v), indent=2, sort_keys=True)
    except ValueError:
        # Python prints no integer past sys.get_int_max_str_digits()
        raise OutputTooLarge(
            f"the value has an integer of more than {sys.get_int_max_str_digits()} "
            f"digits, which Python does not print") from None


def value_to_json(v):
    if isinstance(v, NCElement):
        out = v.to_json()
        out["schema"] = "qfun/1"
        return out
    if isinstance(v, RatFunc):
        return {"schema": "qfun/1", "ratfunc": v.to_json()}
    if isinstance(v, Fraction):
        return {"schema": "qfun/1", "rational": str(v)}
    if isinstance(v, TensorElement):
        return {
            "schema": "qfun/1",
            "tensor": [
                {
                    "coeff": c.to_json(),
                    "left": v.alg.spec.word_str(wl),
                    "right": v.alg.spec.word_str(wr),
                }
                for (wl, wr), c in sorted(v.terms.items(), key=lambda kv: str(kv[0]))
            ],
        }
    if isinstance(v, PBWElement):
        out = v.to_json()
        out["schema"] = "qfun/1"
        return out
    return {"schema": "qfun/1", "value": str(v)}


SUITES = {
    "hopf": lambda args: [suites.hopf_axioms_suite()],
    "detq": lambda args: [suites.detq_suite()],
    "intform": lambda args: [
        suites.intform_suite(),
        suites.hopf_closure_suite(),
    ],
    "pbw": lambda args: [suites.pbw_matrix_suite(), suites.sl_pbw_suite(seed=args.seed)],
    "thm53": lambda args: [suites.thm53_suite()],
    "convex": lambda args: [suites.convex_suite()],
    "mu": lambda args: [suites.mu_suite()],
    "cobracket": lambda args: [suites.cobracket_suite(), suites.gl_central_suite()],
    "all": lambda args: suites.all_suites(seed=args.seed),
}


GLOBAL_DEFAULTS = {
    "n": 1,
    "algebra": "SL",
    "order": None,
    "sl_strategy": "diagonal74",
    "format": "text",
    "max_degree": 2,
    "seed": 0,
}


def _global_flags_parent():
    # global flags may appear before or after the subcommand; SUPPRESS keeps
    # subparser defaults from clobbering values given up front
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--n", type=int, default=argparse.SUPPRESS, help="size parameter (matrices of size n+1)"
    )
    parent.add_argument(
        "--algebra",
        default=argparse.SUPPRESS,
        choices=["M", "SL", "GL", "B+", "B-", "Uq", "Uh"],
    )
    parent.add_argument(
        "--order", default=argparse.SUPPRESS, choices=["lex", "antidiag", "triangular"]
    )
    parent.add_argument(
        "--sl-strategy", default=argparse.SUPPRESS, choices=["antidiag73", "diagonal74"]
    )
    parent.add_argument("--format", default=argparse.SUPPRESS, choices=["text", "json"])
    parent.add_argument("--max-degree", type=int, default=argparse.SUPPRESS)
    parent.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    return parent


class ArgvError(Exception):
    """An argparse refusal, raised where argparse would print usage and exit."""


class _Parser(argparse.ArgumentParser):
    # add_subparsers makes the subcommand parsers of this class too
    def error(self, message):
        raise ArgvError(message)


_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _argv_refusal(message, argv):
    """The error: text of an argparse refusal.  argparse reads a token that
    starts with '-' as an option, so point at '--' when it refused one, or
    when it took an expression for an option (qfun's only single-dash option
    is -h; a negative number or a token with a space stays positional)."""
    head = argv[:argv.index("--")] if "--" in argv else argv
    unknown = message.partition("unrecognized arguments: ")[2].split()
    misread = [t for t in head if len(t) > 1 and t[0] == "-" and t[1] != "-"
               and t != "-h" and " " not in t and not _NEGATIVE_NUMBER.match(t)]
    if misread or any(t.startswith("-") for t in unknown):
        return (f"error: {message} (an argument that starts with '-' is read as an "
                f"option; put '--' before an expression such as -x[1,1])")
    return f"error: {message}"


@functools.cache
def build_argparser():
    """The qfun parser, built on first use and shared by every command: it
    keeps no state between parses, since _Parser.error raises."""
    parent = _global_flags_parent()
    ap = _Parser(
        prog="qfun",
        parents=[parent],
        description="exact computations in quantum matrix/SL/GL function "
        "algebras, their integer forms, and classical limits",
    )
    sub = ap.add_subparsers(dest="command")
    for name in ("nf", "antipode", "counit", "coproduct", "specialize"):
        s = sub.add_parser(name, parents=[parent])
        s.add_argument("expr")
    s = sub.add_parser("mul", parents=[parent])
    s.add_argument("expr", nargs=2)
    sub.add_parser("detq", parents=[parent])
    sub.add_parser("basis", parents=[parent])
    s = sub.add_parser("verify", parents=[parent])
    s.add_argument("suite", choices=sorted(SUITES))
    s.add_argument("--form", default=None, choices=["Q", "P", "plain"])
    s = sub.add_parser("rootvec", parents=[parent])
    s.add_argument("--root", required=True, help="i,j")
    s.add_argument("--method", default="iterated", choices=["braid", "iterated"])
    s = sub.add_parser("mu", parents=[parent])
    s.add_argument("--gen", required=True, help="r:i,j or x:i,j")
    s.add_argument("--collapse", action="store_true")
    s = sub.add_parser("cobracket", parents=[parent])
    s.add_argument("--gen", required=True, help="phi:1 / r:1,2 / chi:2 / psi:1")
    return ap


def _parse_indices(flag, text):
    try:
        return tuple(int(t) for t in text.split(",") if t)
    except ValueError:
        raise ExprIndexError(f"{flag} takes integer indices, not {text!r}") from None


def _parse_gen_flag(flag, families, n):
    """fam:i[,j] from --gen, checked against the families the command takes
    and against the index range for n."""
    fam, _, idx = flag.partition(":")
    if fam not in families:
        raise ExprIndexError(f"--gen takes one of {', '.join(families)}, not {fam!r}")
    indices = _parse_indices("--gen", idx)
    if len(indices) != GEN_FAMILIES[fam]:
        raise ExprIndexError(f"--gen {fam} takes {GEN_FAMILIES[fam]} indices")
    _check_range(fam, indices, n)
    return fam, indices


def run_command(argv):
    ap = build_argparser()
    try:
        args = ap.parse_args(argv)
    except ArgvError as exc:
        return 2, _argv_refusal(str(exc), argv)
    except SystemExit as exc:  # --help
        return (0 if exc.code in (0, None) else 2), ""
    for key, value in GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if args.command is None:
        return 2, "error: the following arguments are required: command"
    if args.n < 1:
        return 2, "error: --n must be >= 1"
    try:
        return _dispatch(args)
    except (ExprSyntaxError, ExprIndexError) as exc:
        return 2, f"error: {exc}"
    except TermBudgetExceeded as exc:
        return 2, f"error: {exc} (raise QFUN_MAX_TERMS to allow more)"
    except (DivisionByZero, NotDivisible, NotInBorel, OutOfForm, OutputTooLarge) as exc:
        return 2, f"error: {exc}"
    except RecursionError:
        # parentheses and calls nest by recursion in the parser and evaluator
        return 2, "error: expression nested too deeply to evaluate"


def _dispatch(args):
    fmt = args.format
    if args.command == "verify":
        if args.suite == "intform" and args.form:
            from .intform import verify_relation_catalog

            recs = verify_relation_catalog(args.form, args.n, gl=(args.algebra == "GL"))
            ok = all(r.status != "failed" for r in recs)
            payload = {
                "schema": "qfun/1",
                "command": f"verify intform --form {args.form}",
                "n": args.n,
                "ok": ok,
                "records": [r.to_json() for r in recs],
            }
            if fmt == "json":
                return (0 if ok else 1), json.dumps(payload, indent=2, sort_keys=True)
            lines = [f"{r.id} {r.instance}: {r.status}" + (f" ({r.variant})" if r.variant else "") for r in recs]
            return (0 if ok else 1), "\n".join(lines)
        reports = SUITES[args.suite](args)
        ok = all(r["ok"] for r in reports)
        payload = {
            "schema": "qfun/1",
            "command": f"verify {args.suite}",
            "ok": ok,
            "reports": reports,
        }
        if fmt == "json":
            out = json.dumps(payload, indent=2, sort_keys=True, default=str)
        else:
            lines = []
            for rep in reports:
                lines.append(f"[{'PASS' if rep['ok'] else 'FAIL'}] suite {rep['suite']}"
                             f" ({len(rep['results'])} checks)")
                for r in rep["results"]:
                    if not r["ok"]:
                        lines.append(f"    FAIL {r['check']}")
                for e in rep["errata"]:
                    lines.append(f"    erratum {e['id']}: uses {e.get('used', '?')}")
            out = "\n".join(lines)
        return (0 if ok else 1), out

    if args.command == "rootvec":
        root = _parse_indices("--root", args.root)
        if len(root) != 2 or not 1 <= root[0] < root[1] <= args.n + 1:
            raise ExprIndexError(f"--root takes i,j with 1 <= i < j <= {args.n + 1}")
        i, j = root
        alg = UqAlgebra(args.n)
        if args.method == "iterated":
            ev = root_vector_iterated(alg, i, j, "E")
            fv = root_vector_iterated(alg, i, j, "F")
        else:
            co = convex_order(args.n)
            k = co.position(i, j)
            ev = root_vector_lusztig(alg, co, k, "E")
            fv = root_vector_lusztig(alg, co, k, "F")
        return 0, f"E[{i},{j}] = {ev}\nF[{j},{i}] = {fv}"
    if args.command == "mu":
        fam, idx = _parse_gen_flag(args.gen, ("r", "x"), args.n)
        sl = SLAlgebra(args.n, strategy="diagonal74")
        mu = MuMap(sl)
        el = sl.gen(*idx)
        if fam == "r" and idx[0] != idx[1]:
            from .laurent import RF_Q_MINUS_QINV

            el = el.scale(RF_Q_MINUS_QINV.inverse())
        t = mu.apply(el)
        if args.collapse:
            col = collapse_at_one(t)
            lines = []
            for ((f1, e1), (f2, e2)), v in sorted(col.items(), key=lambda kv: str(kv[0])):
                def skel(fw, ew):
                    bits = [f"F[{x}]" for x in fw] + [f"E[{x}]" for x in ew]
                    return " ".join(bits) if bits else "1"
                lines.append(f"{v} * {skel(f1, e1)} (x) {skel(f2, e2)}")
            return 0, "\n".join(lines) if lines else "0"
        return 0, format_value(t, fmt)
    if args.command == "cobracket":
        fam, idx = _parse_gen_flag(args.gen, ("r", "phi", "psi", "chi"), args.n)
        g = {"r": rgen, "phi": phigen, "psi": psigen, "chi": chigen}[fam](*idx)
        ictx = IntContext(args.n, gl=(args.algebra == "GL"))
        return 0, format_value(poisson_cobracket(ictx, IntExpr.gen(g)), fmt)
    if args.command == "specialize":
        gl = args.algebra == "GL"
        # no algebra is built, so the budget is read once here
        expr = _as_intexpr(parse(args.expr), args.n, _term_budget())
        return 0, format_value(specialize_phi(expr, lie_algebra(args.n, gl), args.n, gl=gl), fmt)
    if args.command == "basis":
        if args.max_degree < 0:
            return 2, "error: --max-degree must be >= 0"
        if args.algebra not in ("M", "SL", "GL"):
            return 2, "error: basis needs a matrix-type algebra"
        ctx = Context(args.algebra, args.n, order=args.order, sl_strategy=args.sl_strategy)
        alg = ctx.alg
        # pbw_basis enumerates every sorted word of degree <= D over the L
        # letters, C(L + D, D) of them, before it drops the reducible ones
        words = math.comb(len(alg.spec.alphabet) + args.max_degree, args.max_degree)
        if words > ctx.term_budget:
            raise TermBudgetExceeded(f"{words} sorted words of degree <= {args.max_degree} "
                                     f"exceed the term budget {ctx.term_budget}")
        lines = [alg.spec.word_str(w) for w in alg.pbw_basis(args.max_degree)]
        if fmt == "json":
            return 0, json.dumps({"schema": "qfun/1", "basis": lines}, indent=2)
        return 0, "\n".join(lines)
    # the other commands evaluate in the one algebra of --algebra
    ctx = Context(args.algebra, args.n, order=args.order, sl_strategy=args.sl_strategy)
    if args.command == "nf":
        return 0, format_value(ctx.eval(parse(args.expr)), fmt)
    if args.command == "mul":
        a = ctx.eval(parse(args.expr[0]))
        b = ctx.eval(parse(args.expr[1]))
        return 0, format_value(ctx._mul(a, b), fmt)
    if args.command == "coproduct":
        return 0, format_value(ctx._call("Delta", parse(args.expr)), fmt)
    if args.command == "antipode":
        return 0, format_value(ctx._call("S", parse(args.expr)), fmt)
    if args.command == "counit":
        return 0, format_value(ctx._call("eps", parse(args.expr)), fmt)
    if args.command == "detq":
        return 0, format_value(ctx.eval(("detq",)), fmt)
    return 2, f"error: unknown command {args.command}"


def main(argv=None):
    code, out = run_command(sys.argv[1:] if argv is None else argv)
    if out:
        print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
