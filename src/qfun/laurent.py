"""Exact arithmetic in Z[q,q^-1] and its fraction field.

LaurentPoly is a sparse integer Laurent polynomial in one variable q;
RatFunc is a reduced fraction of two LaurentPolys.  Both are immutable,
hashable, and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd


class NotDivisible(Exception):
    """Raised when an exact division by (q-1) fails; carries the remainder."""

    def __init__(self, remainder):
        self.remainder = remainder
        super().__init__(f"not divisible by (q-1); remainder {remainder}")


class DivisionByZero(Exception):
    pass


class PoleAtOne:
    """Marker returned when a rational function has a pole at q=1."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "PoleAtOne"


POLE_AT_ONE = PoleAtOne()


class LaurentPoly:
    """Integer Laurent polynomial, stored as {exponent: coefficient}."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(c):
        return LaurentPoly({0: c}) if c else LP_ZERO

    @staticmethod
    def monomial(coeff, exp):
        return LaurentPoly({exp: coeff})

    # -- basic structure ---------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {0: 1}

    def min_exp(self):
        return min(self.terms) if self.terms else 0

    def max_exp(self):
        return max(self.terms) if self.terms else 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
        out._hash = None
        return out

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e: -c for e, c in self.terms.items()}
        out._hash = None
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LP_ZERO
            out = LaurentPoly.__new__(LaurentPoly)
            out.terms = {e: c * other for e, c in self.terms.items()}
            out._hash = None
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return LP_ZERO
        if len(a) > len(b):
            a, b = b, a
        t = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = t.get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                else:
                    del t[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
        out._hash = None
        return out

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a LaurentPoly; use RatFunc")
        out = LP_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- specialization ----------------------------------------------------

    def evaluate_at_one(self):
        return sum(self.terms.values())

    def divide_q_minus_1(self):
        """Exact quotient by (q-1); raises NotDivisible with the remainder."""
        if not self.terms:
            return LP_ZERO
        rem = self.evaluate_at_one()
        if rem != 0:
            raise NotDivisible(rem)
        # synthetic division: shift to ordinary polynomial, divide by (q-1)
        m = self.min_exp()
        top = self.max_exp()
        coeffs = [self.terms.get(e, 0) for e in range(m, top + 1)]
        out = [0] * (len(coeffs) - 1)
        acc = 0
        for i in range(len(coeffs) - 1, 0, -1):
            acc += coeffs[i]
            out[i - 1] = acc
        return LaurentPoly({m + i: c for i, c in enumerate(out) if c})

    def divide_exact(self, other):
        """Exact division by another LaurentPoly (raises if not exact)."""
        q, r = _divmod_laurent(self, other)
        if r:
            raise NotDivisible(r)
        return q

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                mono = str(abs(c))
            else:
                v = "q" if e == 1 else f"q^{e}"
                mono = v if abs(c) == 1 else f"{abs(c)}*{v}"
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(parts)

    def to_json(self):
        return {str(e): str(c) for e, c in sorted(self.terms.items())}

    @staticmethod
    def from_json(obj):
        return LaurentPoly({int(e): int(c) for e, c in obj.items()})


LP_ZERO = LaurentPoly()
LP_ONE = LaurentPoly({0: 1})
Q = LaurentPoly({1: 1})
QINV = LaurentPoly({-1: 1})
Q_MINUS_1 = LaurentPoly({1: 1, 0: -1})
Q_MINUS_QINV = LaurentPoly({1: 1, -1: -1})
ONE_PLUS_QINV = LaurentPoly({0: 1, -1: 1})


def neg_q_power(k):
    """(-q)^k as a LaurentPoly, any integer k."""
    return LaurentPoly.monomial(-1 if k % 2 else 1, k)


# -- polynomial gcd helpers (integer coefficients, exponents >= 0) ----------


def _content(coeffs):
    g = 0
    for c in coeffs:
        g = _int_gcd(g, abs(c))
    return g or 1


def _to_dense(p):
    """LaurentPoly -> (list of int coefficients, min exponent)."""
    if not p.terms:
        return [], 0
    m = p.min_exp()
    top = p.max_exp()
    return [p.terms.get(e, 0) for e in range(m, top + 1)], m


def _strip(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _divmod_dense(num, den):
    """Fraction-exact division of dense rational coefficient lists."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    _strip(den)
    if not den:
        raise DivisionByZero("polynomial division by zero")
    quo = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    _strip(rem)
    dlead = den[-1]
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        factor = rem[-1] / dlead
        quo[shift] = factor
        for i, dc in enumerate(den):
            rem[shift + i] -= factor * dc
        _strip(rem)
        if not rem:
            break
    return quo, rem


def _divmod_laurent(a, b):
    """a = q*b + r with r the dense remainder; exponent shifts handled."""
    da, ma = _to_dense(a)
    db, mb = _to_dense(b)
    quo, rem = _divmod_dense(da, db)
    qden = 1
    for c in quo + rem:
        qden = qden * c.denominator // _int_gcd(qden, c.denominator)
    if qden != 1:
        # not exact over Z; report via rational remainder marker
        return None, rem or [Fraction(1)]
    qpoly = LaurentPoly({ma - mb + i: int(c) for i, c in enumerate(quo) if c})
    rpoly = LaurentPoly({ma + i: int(c) for i, c in enumerate(rem) if c})
    return qpoly, rpoly


def _poly_gcd_dense(a, b):
    """gcd of two integer coefficient lists, primitive, positive leading."""
    a = [Fraction(c) for c in _strip(list(a))]
    b = [Fraction(c) for c in _strip(list(b))]
    while b:
        _, r = _divmod_dense(a, b)
        a, b = b, r
    if not a:
        return [1]
    # clear denominators, make primitive with positive leading coefficient
    den = 1
    for c in a:
        den = den * c.denominator // _int_gcd(den, c.denominator)
    ints = [int(c * den) for c in a]
    g = _content(ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def laurent_gcd(a, b):
    """gcd in Z[q,q^-1], normalized to min exponent 0, positive leading."""
    if a.is_zero():
        return _normalize_poly_part(b)
    if b.is_zero():
        return _normalize_poly_part(a)
    da, _ = _to_dense(a)
    db, _ = _to_dense(b)
    g = _poly_gcd_dense(da, db)
    return LaurentPoly({i: c for i, c in enumerate(g) if c})


def _normalize_poly_part(p):
    """Shift q-powers out and fix the sign of the leading coefficient."""
    if p.is_zero():
        return LP_ZERO
    m = p.min_exp()
    t = {e - m: c for e, c in p.terms.items()}
    if t[max(t)] < 0:
        t = {e: -c for e, c in t.items()}
    return LaurentPoly(t)


class RatFunc:
    """Reduced fraction num/den of integer Laurent polynomials.

    Canonical form: den has min exponent 0, positive leading coefficient,
    gcd(num, den) = 1 up to units, and the integer contents of num and den
    are coprime.  Equality is structural and agrees with cross-multiplication.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=LP_ONE, _reduced=False):
        if isinstance(num, int):
            num = LaurentPoly.from_int(num)
        if isinstance(den, int):
            den = LaurentPoly.from_int(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if not _reduced:
            num, den = _reduce_fraction(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def from_laurent(p):
        out = RatFunc.__new__(RatFunc)
        out.num = p
        out.den = LP_ONE
        out._hash = None
        return out

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_laurent(self):
        return self.den.is_one()

    def to_laurent(self):
        if not self.den.is_one():
            raise NotDivisible(self.den)
        return self.num

    def __eq__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_laurent(self.num + other.num)
        num = self.num * other.den + other.num * self.den
        return RatFunc(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        out._hash = None
        return out

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_laurent(self.num * other.num)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero RatFunc")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_rf(other) / self

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = RF_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- specialization ----------------------------------------------------

    def regular_at_one(self):
        """Value at q=1 as a Fraction, or the PoleAtOne marker."""
        dv = self.den.evaluate_at_one()
        if dv == 0:
            return POLE_AT_ONE
        return Fraction(self.num.evaluate_at_one(), dv)

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def _coerce_rf(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, LaurentPoly):
        return RatFunc.from_laurent(x)
    if isinstance(x, int):
        return RatFunc.from_laurent(LaurentPoly.from_int(x))
    return NotImplemented


def _reduce_fraction(num, den):
    if num.is_zero():
        return LP_ZERO, LP_ONE
    # pull q-power units out of den
    mden = den.min_exp()
    if mden:
        den = LaurentPoly({e - mden: c for e, c in den.terms.items()})
        num = LaurentPoly({e - mden: c for e, c in num.terms.items()})
    g = laurent_gcd(num, den)
    if not g.is_one():
        num = num.divide_exact(g)
        den = den.divide_exact(g)
        mden = den.min_exp()
        if mden:
            den = LaurentPoly({e - mden: c for e, c in den.terms.items()})
            num = LaurentPoly({e - mden: c for e, c in num.terms.items()})
    # coprime integer contents, positive leading coefficient of den
    cn = _content(list(num.terms.values()))
    cd = _content(list(den.terms.values()))
    g = _int_gcd(cn, cd)
    if g > 1:
        num = LaurentPoly({e: c // g for e, c in num.terms.items()})
        den = LaurentPoly({e: c // g for e, c in den.terms.items()})
    if den.terms[den.max_exp()] < 0:
        num = -num
        den = -den
    return num, den


RF_ZERO = RatFunc.from_laurent(LP_ZERO)
RF_ONE = RatFunc.from_laurent(LP_ONE)
RF_Q = RatFunc.from_laurent(Q)
RF_Q_MINUS_1 = RatFunc.from_laurent(Q_MINUS_1)
RF_Q_MINUS_QINV = RatFunc.from_laurent(Q_MINUS_QINV)


# -- coefficient domains ----------------------------------------------------


class Domain:
    """A coefficient domain tag: either Z[q,q^-1] or its fraction field."""

    def __init__(self, name, zero, one):
        self.name = name
        self.zero = zero
        self.one = one

    def coerce(self, x):
        if self.name == "laurent":
            if isinstance(x, LaurentPoly):
                return x
            if isinstance(x, int):
                return LaurentPoly.from_int(x)
            if isinstance(x, RatFunc):
                return x.to_laurent()
            raise TypeError(f"cannot coerce {x!r} into Z[q,q^-1]")
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, LaurentPoly):
            return RatFunc.from_laurent(x)
        if isinstance(x, int):
            return RatFunc.from_laurent(LaurentPoly.from_int(x))
        raise TypeError(f"cannot coerce {x!r} into k(q)")

    def __repr__(self):
        return f"Domain({self.name})"


LAURENT = Domain("laurent", LP_ZERO, LP_ONE)
RATFUNC = Domain("ratfunc", RF_ZERO, RF_ONE)


def divide_by_q_minus_1(a):
    return a.divide_q_minus_1()


def rf_regular_at_one(a):
    return a.regular_at_one()
