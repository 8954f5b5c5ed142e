"""Exact arithmetic in Z[q,q^-1] and its fraction field.

LaurentPoly is a sparse integer Laurent polynomial in one variable q;
RatFunc is a reduced fraction of two LaurentPolys.  Both are immutable,
hashable, and safe to share between threads.

All of it runs over Python ints.  A fraction is reduced by a primitive
pseudo-remainder gcd in Z[q] (laurent_gcd) and exact synthetic division;
a quotient by (q-q^-1)^a (q-1)^b, the denominator of an integer-form lift
or of a U_q product coefficient, needs no gcd (over_den_power), and
over_common_denominator divides each coefficient of a term dict once.  The
only rational number built here is the value at q = 1
(RatFunc.regular_at_one).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd as _int_gcd

from .lincomb import accumulate


class NotDivisible(Exception):
    """Raised when an exact division fails; carries the remainder.  The
    message names the divisor, or, with divisor None, says that remainder is
    the den that keeps a fraction off Z[q,q^-1]."""

    def __init__(self, remainder, divisor=None):
        self.remainder = remainder
        if divisor is None:
            super().__init__(f"not in Z[q,q^-1]: denominator {remainder}")
        else:
            super().__init__(f"not divisible by ({divisor}); remainder {remainder}")


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
    """Integer Laurent polynomial, stored as {exponent: coefficient} with no
    zero coefficient.

    Arithmetic takes a LaurentPoly or an int and returns NotImplemented for
    anything else, so a RatFunc operand answers through its reflected
    method.  A product by 1 returns the other operand object, and a product
    with 0 is LP_ZERO: callers skip unit factors by `is`.  The product of
    two single-term factors other than 1 is one shared object per monomial
    c q^e (up to a fixed number of monomials), so a product equal to 1 is
    LP_ONE itself.  Sharing is safe because no operation changes the terms
    of a LaurentPoly once it is built.
    """

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
        if c == 1:
            return LP_ONE
        return LaurentPoly({0: c}) if c else LP_ZERO

    @staticmethod
    def monomial(coeff, exp):
        if not coeff:
            return LP_ZERO
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {exp: coeff}
        out._hash = None
        return out

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
        if other.__class__ is not LaurentPoly:
            if isinstance(other, int):
                other = LaurentPoly.from_int(other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        t = self.terms.copy()
        get = t.get
        for e, c in other.terms.items():
            s = get(e, 0) + c
            if s:
                t[e] = s
            else:
                del t[e]
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
        if other.__class__ is not LaurentPoly:
            if isinstance(other, int):
                other = LaurentPoly.from_int(other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        t = self.terms.copy()
        get = t.get
        for e, c in other.terms.items():
            s = get(e, 0) - c
            if s:
                t[e] = s
            else:
                del t[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
        out._hash = None
        return out

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product; LP_ONE times p is p itself, either way round.

        Two single-term factors multiply to the shared monomial of
        _MONOMIALS.  A single-term factor c q^s shifts and scales the
        other's terms in one loop: the exponents stay distinct and no
        product of nonzero integers is zero, so nothing is summed or
        dropped."""
        if other.__class__ is not LaurentPoly:
            if isinstance(other, int):
                if other == 0:
                    return LP_ZERO
                if other == 1:
                    return self
                out = LaurentPoly.__new__(LaurentPoly)
                out.terms = {e: c * other for e, c in self.terms.items()}
                out._hash = None
                return out
            if not isinstance(other, LaurentPoly):
                return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b, self, other = b, a, other, self
        if len(a) == 1:
            (e1, c1), = a.items()
            if e1 == 0 and c1 == 1:
                return other
            if len(b) == 1:
                (e2, c2), = b.items()
                if e2 == 0 and c2 == 1:
                    return self
                key = (e1 + e2, c1 * c2)
                out = _MONOMIALS.get(key)
                if out is None:
                    out = LaurentPoly.__new__(LaurentPoly)
                    out.terms = {key[0]: key[1]}
                    out._hash = None
                    if len(_MONOMIALS) < _MONOMIAL_LIMIT:
                        _MONOMIALS[key] = out
                return out
            t = {}
            for e, c in b.items():
                t[e + e1] = c * c1
        elif not a:
            return LP_ZERO
        else:
            t = {}
            get = t.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    s = get(e, 0) + c1 * c2
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
        coeffs, m = _to_dense(self)
        quo, rem = _divide_linear(coeffs, 1)
        if rem:
            raise NotDivisible(rem, Q_MINUS_1)
        return LaurentPoly({m + i: c for i, c in enumerate(quo) if c})

    def divide_exact(self, other):
        """Exact quotient by another LaurentPoly.

        Raises NotDivisible carrying the LaurentPoly self - quotient*other
        at the point where the integer division stopped (never zero)."""
        if not other.terms:
            raise DivisionByZero("polynomial division by zero")
        a, ma = _to_dense(self)
        b, mb = _to_dense(other)
        quo, rem = _divmod_dense(a, b)
        if rem:
            raise NotDivisible(LaurentPoly({ma + i: c for i, c in enumerate(rem) if c}), other)
        return LaurentPoly({ma - mb + i: c for i, c in enumerate(quo) if c})

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
_ONE_TERMS = LP_ONE.terms
# (exponent, coefficient) -> the one shared product c q^e of two
# single-term factors, up to _MONOMIAL_LIMIT entries; 1 is LP_ONE
_MONOMIAL_LIMIT = 1024
_MONOMIALS = {(0, 1): LP_ONE}
Q = LaurentPoly({1: 1})
QINV = LaurentPoly({-1: 1})
Q_MINUS_1 = LaurentPoly({1: 1, 0: -1})
Q_MINUS_QINV = LaurentPoly({1: 1, -1: -1})
ONE_PLUS_QINV = LaurentPoly({0: 1, -1: 1})
Q_PLUS_1 = LaurentPoly({1: 1, 0: 1})


def neg_q_power(k):
    """(-q)^k as a LaurentPoly, any integer k."""
    return LaurentPoly.monomial(-1 if k % 2 else 1, k)


# -- integer polynomial helpers (dense coefficient lists, exponents >= 0) ----
#
# Everything below stays in Z[q]: reducing a RatFunc builds no rational
# coefficient.


def _primitive(coeffs):
    g = _int_gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else coeffs


def _to_dense(p):
    """LaurentPoly -> (list of int coefficients, min exponent)."""
    if not p.terms:
        return [], 0
    m = p.min_exp()
    top = p.max_exp()
    return [p.terms.get(e, 0) for e in range(m, top + 1)], m


def _divide_linear(coeffs, r):
    """Synthetic division of a dense polynomial by (q - r): (quotient,
    remainder), the remainder being the value at r."""
    quo = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[i] + r * acc
        quo[i - 1] = acc
    return quo, coeffs[0] + r * acc


def _strip(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _divmod_dense(num, den):
    """Synthetic division in Z[q]: (quo, rem) with num = quo*den + rem.

    It stops at the first leading coefficient of the running remainder that
    den's leading coefficient does not divide, so rem is empty exactly when
    den divides num in Z[q]."""
    rem = list(num)
    nd = len(den)
    lead = den[-1]
    quo = [0] * max(0, len(rem) - nd + 1)
    while len(rem) >= nd:
        f, r = divmod(rem[-1], lead)
        if r:
            break
        shift = len(rem) - nd
        quo[shift] = f
        for i in range(nd - 1):
            rem[shift + i] -= f * den[i]
        rem.pop()
        _strip(rem)
    return quo, rem


def _pseudo_rem(a, b):
    """The remainder of a by b over Q, times a nonzero integer.

    Each step scales the running remainder only by what the leading
    coefficient of b does not already divide, so a monic b costs no scaling."""
    r = list(a)
    nb = len(b)
    lead = b[-1]
    while len(r) >= nb:
        f, rest = divmod(r[-1], lead)
        if rest:
            g = _int_gcd(r[-1], lead)
            s = lead // g
            f = r[-1] // g
            r = [s * c for c in r]
        shift = len(r) - nb
        for i in range(nb - 1):
            r[shift + i] -= f * b[i]
        r.pop()
        _strip(r)
    return r


def _poly_gcd_dense(a, b):
    """gcd of two nonzero dense coefficient lists (no trailing zeros),
    primitive, with positive leading coefficient.

    Primitive pseudo-remainder sequence: every remainder is divided by its
    content, so coefficients stay as small as the gcd allows."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _pseudo_rem(a, b)
        if b:
            b = _primitive(b)
    a = _primitive(a)
    return a if a[-1] > 0 else [-c for c in a]


def laurent_gcd(a, b):
    """gcd in Z[q,q^-1] up to integer content: primitive, min exponent 0,
    positive leading coefficient."""
    if a.is_zero():
        return _normalize_poly_part(b)
    if b.is_zero():
        return _normalize_poly_part(a)
    if len(a.terms) == 1 or len(b.terms) == 1:
        # a monomial is a unit times an integer
        return LP_ONE
    g = _poly_gcd_dense(_to_dense(a)[0], _to_dense(b)[0])
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
    are coprime.  A unit den is always the LP_ONE object.  Equality is
    structural and agrees with cross-multiplication.

    Reduction stays in Z[q]: the q-power of den moves to num, laurent_gcd
    (a primitive pseudo-remainder sequence) finds the common factor, and
    exact synthetic division removes it; then the common integer content
    goes.  The gcd is skipped when den is a constant, and laurent_gcd
    answers 1 at once when either side is a monomial.  Sums and products
    of two Laurent polynomials (den 1) are not reduced at all, and other
    sums and products follow Henrici: they cancel gcds of their operands'
    parts, which are smaller than the gcd of the full result, and skip a
    gcd where a monomial or coprime denominators make it 1.  An inverse
    needs no gcd at all, and a quotient is the product by the inverse.
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
        # a unit den is always the LP_ONE object, so the den-1 paths test it by `is`
        self.den = LP_ONE if den.terms == _ONE_TERMS else den
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
        return self.den is LP_ONE and self.num.is_one()

    def is_laurent(self):
        return self.den is LP_ONE

    def to_laurent(self):
        if self.den is not LP_ONE:
            raise NotDivisible(self.den)
        return self.num

    def __eq__(self, other):
        if isinstance(other, int):
            return self.den is LP_ONE and self.num == other
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
        if other.__class__ is not RatFunc:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        if self.den is LP_ONE and other.den is LP_ONE:
            return RatFunc.from_laurent(self.num + other.num)
        # Henrici: with g = gcd(b, d), gcd(a, b) = gcd(c, d) = 1 leaves only
        # gcd(t, g) to cancel from t = a (d/g) + c (b/g) over (b/g)(d/g) g
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            g, t = b, a + c
            b = d = LP_ONE
        elif _coprime(b, d) or (g := laurent_gcd(b, d)).is_one():
            return _content_reduced(a * d + c * b, b * d)
        else:
            b, d = b.divide_exact(g), d.divide_exact(g)
            t = a * d + c * b
        if t.is_zero():
            return RF_ZERO
        if not _coprime(t, g):
            h = laurent_gcd(t, g)
            t, g = t.divide_exact(h), g.divide_exact(h)
        return _content_reduced(t, b * d * g)

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
        if other.__class__ is not RatFunc:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        if self.den is LP_ONE and other.den is LP_ONE:
            num = self.num * other.num
            if num is other.num:
                return other
            if num is self.num:
                return self
            return RatFunc.from_laurent(num)
        # Henrici: with gcd(a, b) = gcd(c, d) = 1, cancelling gcd(a, d) and
        # gcd(c, b) leaves a reduced product
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return RF_ZERO
        if not _coprime(a, d):
            g = laurent_gcd(a, d)
            a, d = a.divide_exact(g), d.divide_exact(g)
        if not _coprime(c, b):
            g = laurent_gcd(c, b)
            c, b = c.divide_exact(g), b.divide_exact(g)
        return _content_reduced(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero RatFunc")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce_rf(other) / self

    def inverse(self):
        """den/num without a gcd: the parts of a canonical fraction are
        coprime, so only the q-power of num and the sign of its leading
        coefficient move."""
        a = self.num.terms
        if not a:
            raise DivisionByZero("inverse of zero")
        m = min(a)
        s = -1 if a[max(a)] < 0 else 1
        num = LaurentPoly({e - m: s * c for e, c in self.den.terms.items()})
        den = LaurentPoly({e - m: s * c for e, c in a.items()})
        return RatFunc(num, den, _reduced=True)

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
        if self.den is LP_ONE:
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


def _coprime(a, b):
    """True when a and b are known to share no factor of positive degree
    without a gcd: one of them is a monomial (a unit times an integer)."""
    return len(a.terms) == 1 or len(b.terms) == 1


def _without_common_content(num, den):
    """num and den divided by the gcd of all their integer coefficients."""
    g = _int_gcd(*den.terms.values())
    if g > 1:
        g = _int_gcd(g, *num.terms.values())
        if g > 1:
            num = LaurentPoly({e: c // g for e, c in num.terms.items()})
            den = LaurentPoly({e: c // g for e, c in den.terms.items()})
    return num, den


def _content_reduced(num, den):
    """The RatFunc num/den for num and den with no common factor of positive
    degree, den with min exponent 0 and a positive leading coefficient; only
    the common integer content is left to remove."""
    if num.is_zero():
        return RF_ZERO
    num, den = _without_common_content(num, den)
    return RatFunc(num, den, _reduced=True)


def _reduce_fraction(num, den):
    if num.is_zero():
        return LP_ZERO, LP_ONE
    # pull q-power units out of den
    mden = den.min_exp()
    if mden:
        den = LaurentPoly({e - mden: c for e, c in den.terms.items()})
        num = LaurentPoly({e - mden: c for e, c in num.terms.items()})
    # a constant den shares no factor of positive degree with num
    if len(den.terms) > 1:
        g = laurent_gcd(num, den)
        if not g.is_one():
            # g has a nonzero constant term, so den/g keeps min exponent 0
            num = num.divide_exact(g)
            den = den.divide_exact(g)
    # coprime integer contents, positive leading coefficient of den
    num, den = _without_common_content(num, den)
    if den.terms[den.max_exp()] < 0:
        num = -num
        den = -den
    return num, den


RF_ZERO = RatFunc.from_laurent(LP_ZERO)
RF_ONE = RatFunc.from_laurent(LP_ONE)
RF_Q = RatFunc.from_laurent(Q)
RF_Q_MINUS_1 = RatFunc.from_laurent(Q_MINUS_1)
RF_Q_MINUS_QINV = RatFunc.from_laurent(Q_MINUS_QINV)


@functools.lru_cache(maxsize=256)
def _q_minus_1_q_plus_1(i, j):
    """(q-1)^i (q+1)^j as a Laurent polynomial."""
    return Q_MINUS_1 ** i * Q_PLUS_1 ** j


def over_den_power(p, a, b):
    """The reduced RatFunc p / ((q-q^-1)^a (q-1)^b), found with no gcd.

    The denominator is q^-a (q-1)^(a+b) (q+1)^a, so (q-1) and (q+1) are the
    only factors that can cancel from p.  Each is divided out by synthetic
    division, as divide_q_minus_1 does for (q-1) alone, while p is zero at
    1 or -1.  What is left of the denominator is monic with constant term
    +-1: min exponent 0, positive leading coefficient and content 1, so the
    fraction is canonical as it stands.  A quotient equal to 1 is RF_ONE.
    """
    if not p.terms:
        return RF_ZERO
    if not a and not b:
        return RF_ONE if p.terms == _ONE_TERMS else RatFunc.from_laurent(p)
    coeffs, m = _to_dense(p)
    i = a + b
    while i and not sum(coeffs):
        coeffs = _divide_linear(coeffs, 1)[0]
        i -= 1
    j = a
    while j and sum(coeffs[::2]) == sum(coeffs[1::2]):
        coeffs = _divide_linear(coeffs, -1)[0]
        j -= 1
    num = LaurentPoly({m + a + t: c for t, c in enumerate(coeffs) if c})
    if not i and not j and num.terms == _ONE_TERMS:
        return RF_ONE
    return RatFunc(num, _q_minus_1_q_plus_1(i, j), _reduced=True)


@functools.lru_cache(maxsize=256)
def _den_power(a, b):
    """(q-q^-1)^a (q-1)^b as a Laurent polynomial."""
    return Q_MINUS_QINV ** a * Q_MINUS_1 ** b


def over_common_denominator(by_den):
    """sum N / (d (q-q^-1)^a (q-1)^b) over the {d: {(a, b): N}} of by_den,
    N term dicts over Z[q,q^-1] and d a LaurentPoly, as one k(q) term dict.

    For each d, the numerators of a key are brought to the key's own top
    powers (q-q^-1)^A (q-1)^B, the largest a and b of the groups that hold
    it, by a Laurent factor, and their sum is divided once, with no gcd
    (over_den_power).  So a RatFunc is built once per key, and a key whose
    groups all have a = b = 0 is divided by nothing.  A d other than 1, the
    den of a k(q) coefficient that went in, is multiplied in after that
    division.
    """
    out = {}
    for den, groups in by_den.items():
        if len(groups) == 1:
            ((a, b), summed), = groups.items()
            quotients = {k: over_den_power(c, a, b) for k, c in summed.items()}
        else:
            tops = {}
            for (a, b), group in groups.items():
                for k in group:
                    top = tops.get(k)
                    if top is None:
                        tops[k] = (a, b)
                    elif a > top[0] or b > top[1]:
                        tops[k] = (max(a, top[0]), max(b, top[1]))
            summed = {}
            for (a, b), group in groups.items():
                for k, c in group.items():
                    top_a, top_b = tops[k]
                    if top_a != a or top_b != b:
                        c = c * _den_power(top_a - a, top_b - b)
                    s = summed.get(k)
                    summed[k] = c if s is None else s + c
            quotients = {k: over_den_power(c, *tops[k]) for k, c in summed.items() if c}
        if den is LP_ONE and not out:
            # the keys of one den are distinct and their quotients nonzero
            out = quotients
        else:
            accumulate(out, quotients.items(), None if den is LP_ONE else RatFunc.from_laurent(den).inverse())
    return out


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
        if isinstance(x, int):
            x = LaurentPoly.from_int(x)
        if isinstance(x, LaurentPoly):
            return RF_ONE if x is LP_ONE else RatFunc.from_laurent(x)
        raise TypeError(f"cannot coerce {x!r} into k(q)")

    def __repr__(self):
        return f"Domain({self.name})"


LAURENT = Domain("laurent", LP_ZERO, LP_ONE)
RATFUNC = Domain("ratfunc", RF_ZERO, RF_ONE)
