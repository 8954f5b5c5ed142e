"""The classical targets: the dual Lie bialgebra of sl(n+1), its central
extension, and their enveloping algebras with PBW straightening.

The Lie algebra h has commuting upper and lower triangular copies (root
vectors e_{ij} for i<j and f_{ji} for i<j), with the Cartan elements h_i
acting on both copies through the positive root, with the same sign.
Structure constants come from the matrix model; Jacobi is checked at
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .freealg import certified
from .lincomb import LinComb, accumulate, add_outer, concat_product, format_terms


class JacobiFailure(Exception):
    pass


@dataclass(frozen=True, order=True)
class BasisSym:
    """Basis symbol: family 'f', 'h', 'e', or 'c' with its indices."""

    family: str
    indices: tuple

    def __str__(self):
        if self.family == "c":
            return "c"
        return f"{self.family}[{','.join(str(i) for i in self.indices)}]"


def f_sym(j, i):
    # f_{j,i} with j > i: lower-triangular root vector
    return BasisSym("f", (j, i))


def e_sym(i, j):
    # e_{i,j} with i < j: upper-triangular root vector
    return BasisSym("e", (i, j))


def h_sym(i):
    return BasisSym("h", (i,))


C_SYM = BasisSym("c", ())


class LieStructure:
    """Finite-dimensional Lie algebra by structure constants on an ordered
    basis; elements of U are straightened against the basis order."""

    def __init__(self, basis, brackets, name=""):
        self.basis = list(basis)
        self.name = name
        self.index = {s: i for i, s in enumerate(self.basis)}
        self.dim = len(self.basis)
        # brackets given on index pairs (a, b) with a > b (descending);
        # values are {index: Fraction}
        self.brackets = brackets
        self._check_jacobi()

    def bracket(self, a, b):
        """[x_a, x_b] as {index: Fraction} for any index pair."""
        if a == b:
            return {}
        if a > b:
            return self.brackets.get((a, b), {})
        neg = self.brackets.get((b, a), {})
        return {k: -v for k, v in neg.items()}

    def _check_jacobi(self):
        """Raise JacobiFailure unless the brackets satisfy Jacobi; the check
        runs once per (basis, brackets) in a process (certified)."""
        brackets = tuple(sorted((ab, tuple(sorted(v.items()))) for ab, v in self.brackets.items()))
        certified(("jacobi", tuple(self.basis), brackets), self._jacobi_holds)

    def _jacobi_holds(self):
        for a in range(self.dim):
            for b in range(a):
                for c in range(b):
                    acc = {}
                    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                        for k, v in self.bracket(y, z).items():
                            accumulate(acc, ((k2, v * v2) for k2, v2 in self.bracket(x, k).items()))
                    if acc:
                        raise JacobiFailure(
                            f"Jacobi fails on ({self.basis[a]}, {self.basis[b]}, "
                            f"{self.basis[c]})"
                        )
        return True

    def word_str(self, word):
        return " ".join(str(self.basis[i]) for i in word) if word else "1"

    # -- U(h) straightening ---------------------------------------------------

    def ue_normal_form(self, terms):
        """PBW normal form of {word: Fraction} with words = index tuples."""
        normal = []
        stack = list(terms.items())
        while stack:
            w, c = stack.pop()
            if not c:
                continue
            for t in range(len(w) - 1):
                if w[t] > w[t + 1]:
                    pre, a, b, suf = w[:t], w[t], w[t + 1], w[t + 2 :]
                    stack.append((pre + (b, a) + suf, c))
                    for k, v in self.bracket(a, b).items():
                        stack.append((pre + (k,) + suf, c * v))
                    break
            else:
                normal.append((w, c))
        return accumulate({}, normal)

    def adjoint_matrix(self, idx):
        """ad(x_idx) as a dense matrix of Fractions (column-action)."""
        m = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for b in range(self.dim):
            for k, v in self.bracket(idx, b).items():
                m[k][b] += v
        return m


class PBWElement(LinComb):
    """Element of the enveloping algebra in PBW normal form."""

    __slots__ = ("lie",)

    def __init__(self, lie, terms=None, reduce=True):
        self.lie = lie
        terms = terms or {}
        self.terms = lie.ue_normal_form(terms) if reduce else terms

    def _same(self, terms):
        return PBWElement(self.lie, terms, reduce=False)

    def _coerce(self, c):
        return Fraction(c)

    @staticmethod
    def zero(lie):
        return PBWElement(lie, {}, reduce=False)

    @staticmethod
    def one(lie):
        return PBWElement(lie, {(): Fraction(1)}, reduce=False)

    @staticmethod
    def gen(lie, sym):
        return PBWElement(lie, {(lie.index[sym],): Fraction(1)}, reduce=False)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, PBWElement):
            return NotImplemented
        return PBWElement(self.lie, concat_product(self.terms, other.terms))

    def __rmul__(self, other):
        return self.scale(other) if isinstance(other, (int, Fraction)) else NotImplemented

    def __str__(self):
        return format_terms(
            self.terms, lambda w: (len(w), w), self.lie.word_str, coeff=str, style="signed"
        )

    __repr__ = __str__

    def to_json(self):
        return {
            "algebra": self.lie.name,
            "terms": [
                {
                    "coeff": str(c),
                    "word": [
                        [self.lie.basis[i].family, *self.lie.basis[i].indices]
                        for i in w
                    ],
                }
                for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
            ],
        }


# -- construction of h and h' --------------------------------------------------------


def _matrix_unit_bracket(ab, cd):
    """[M_ab, M_cd] in matrix units as {unit: coeff}."""
    (a, b), (c, d) = ab, cd
    items = []
    if b == c:
        items.append(((a, d), 1))
    if d == a:
        items.append(((c, b), -1))
    return accumulate({}, items)


def _root_of_cell(i, j):
    """The positive root (min, max) attached to a triangular cell."""
    return (min(i, j), max(i, j))


def _root_value(i, j, k):
    """(eps_i - eps_j)(h_k) for h_k = M_kk - M_{k+1,k+1}."""
    return (
        (1 if i == k else 0)
        - (1 if i == k + 1 else 0)
        - (1 if j == k else 0)
        + (1 if j == k + 1 else 0)
    )


def build_h(n, central=False):
    """The dual Lie bialgebra of sl(n+1) by structure constants.

    Basis order: all f_{ji} (lex), then h_1..h_n (then c when central),
    then all e_{ij} (lex).  The e- and f-copies commute; h_i acts on both
    through the positive root with the same sign.
    """
    fs = [f_sym(j, i) for j in range(2, n + 2) for i in range(1, j)]
    fs.sort(key=lambda s: s.indices)
    es = [e_sym(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 2)]
    es.sort(key=lambda s: s.indices)
    hs = [h_sym(i) for i in range(1, n + 1)]
    basis = fs + hs + ([C_SYM] if central else []) + es
    lie = object.__new__(LieStructure)
    index = {s: i for i, s in enumerate(basis)}

    # matrix-model coefficients: e_{ij} <-> (-1)^{j-i-1} M_{ij} and the same
    # normalization on the f side
    def sign_of(sym):
        a, b = sym.indices
        return (-1) ** (abs(a - b) - 1)

    brackets = {}

    def put(a, b, val):
        # store on descending index pairs
        ia, ib = index[a], index[b]
        entry = val
        if ia == ib:
            return
        if ia < ib:
            ia, ib = ib, ia
            entry = {k: -v for k, v in val.items()}
        if entry:
            brackets[(ia, ib)] = entry

    # within the e-copy and within the f-copy: matrix model
    for fam, syms in (("e", es), ("f", fs)):
        for s1 in syms:
            for s2 in syms:
                if index[s1] <= index[s2]:
                    continue
                m1 = s1.indices
                m2 = s2.indices
                raw = _matrix_unit_bracket(m1, m2)
                out = {}
                for unit, coeff in raw.items():
                    a, b = unit
                    if a == b:
                        # diagonal matrix produced: happens only for opposite
                        # cells, which cannot occur within one triangle
                        raise JacobiFailure("unexpected diagonal in one copy")
                    tgt = BasisSym(fam, (a, b))
                    val = Fraction(coeff * sign_of(s1) * sign_of(s2), sign_of(tgt))
                    accumulate(out, [(index[tgt], val)])
                put(s1, s2, out)

    # h action: [h_k, x_gamma] = gamma(h_k) x_gamma on both copies
    for k in range(1, n + 1):
        for syms in (es, fs):
            for s in syms:
                a, b = s.indices
                i, j = _root_of_cell(a, b)
                val = _root_value(i, j, k)
                if val:
                    put(h_sym(k), s, {index[s]: Fraction(val)})

    lie.basis = basis
    lie.name = f"h'({n})" if central else f"h({n})"
    lie.index = index
    lie.dim = len(basis)
    lie.brackets = brackets
    lie._check_jacobi()
    return lie


def build_h_prime(n):
    """h extended by a central element c."""
    return build_h(n, central=True)


def lie_algebra(n, gl=False):
    """The classical target of the integer form: h for SL, h' for GL."""
    return build_h_prime(n) if gl else build_h(n)


# -- reference cobracket -------------------------------------------------------------


class ClassicalTensor(LinComb):
    """Sum of pairs of PBW monomial words with Fraction coefficients."""

    __slots__ = ("lie",)

    def __init__(self, lie, terms=None):
        self.lie = lie
        self.terms = terms or {}

    def _same(self, terms):
        return ClassicalTensor(self.lie, terms)

    def _coerce(self, c):
        return Fraction(c)

    def _unit_key(self):
        return None

    @staticmethod
    def zero(lie):
        return ClassicalTensor(lie, {})

    def add_wedge(self, x, y, coeff=Fraction(1)):
        return self._same(_add_wedge(dict(self.terms), x, y, coeff))

    def swap(self):
        return ClassicalTensor(
            self.lie, {(b, a): c for (a, b), c in self.terms.items()}
        )

    def act(self, sym):
        """Adjoint action of a basis symbol on the tensor square."""
        lie = self.lie
        idx = lie.index[sym]
        out = {}
        for (w1, w2), c in self.terms.items():
            for side in (0, 1):
                w = (w1, w2)[side]
                # ad on a PBW word: derivation
                for t in range(len(w)):
                    for k, v in lie.bracket(idx, w[t]).items():
                        nw = w[:t] + (k,) + w[t + 1 :]
                        red = lie.ue_normal_form({nw: c * v})
                        accumulate(
                            out,
                            (((rw, w2) if side == 0 else (w1, rw), rc) for rw, rc in red.items()),
                        )
        return ClassicalTensor(lie, out)

    def __str__(self):
        word_str = self.lie.word_str
        return format_terms(
            self.terms, None, lambda k: f"{word_str(k[0])} (x) {word_str(k[1])}",
            coeff=str, style="full",
        )

    __repr__ = __str__


def _add_wedge(dst, x, y, coeff):
    """dst += coeff * (x ^ y) = coeff * (x (x) y - y (x) x), in place."""
    add_outer(dst, x.terms, y.terms, coeff)
    return add_outer(dst, y.terms, x.terms, -coeff)


def reference_cobracket(lie, sym, n):
    """The defining cobracket on generators, emitted verbatim.

    delta(f_i) = h_i ^ f_i + 2 (sum_{j<i} f_{i+1,j} ^ e_{j,i}
                                + sum_{j>=i+2} e_{i+1,j} ^ f_{j,i})
    delta(h_i) = 4 (sum_{j<i} f_{i,j} ^ e_{j,i} + sum_{j>i} e_{i,j} ^ f_{j,i}
                    - sum_{j<=i} f_{i+1,j} ^ e_{j,i+1}
                    - sum_{j>=i+2} e_{i+1,j} ^ f_{j,i+1})
    delta(e_i) = e_i ^ h_i + 2 (sum_{j<i} e_{j,i+1} ^ f_{i,j}
                                + sum_{j>=i+2} f_{j,i+1} ^ e_{i,j})
    delta(c)   = 4 sum_{k<=n} f_{n+1,k} ^ e_{k,n+1}

    Composite root vectors get the unique 1-cocycle extension through the
    defining recursions e_{i,j} = -[e_{i,j-1}, e_{j-1,j}] and
    f_{j,i} = [f_{j-1,i}, f_{j,j-1}].
    """
    t = {}

    def wedge(x, y, coeff=Fraction(1)):
        _add_wedge(t, PBWElement.gen(lie, x), PBWElement.gen(lie, y), coeff)

    fam, idx = sym.family, sym.indices
    if fam == "e" and idx[1] > idx[0] + 1:
        i, j = idx
        a, b = e_sym(i, j - 1), e_sym(j - 1, j)
        da = reference_cobracket(lie, a, n)
        db = reference_cobracket(lie, b, n)
        # delta(e_ij) = -delta([a, b]) = -(a.delta(b) - b.delta(a))
        return da.act(b) - db.act(a)
    if fam == "f" and idx[0] > idx[1] + 1:
        j, i = idx
        a, b = f_sym(j - 1, i), f_sym(j, j - 1)
        da = reference_cobracket(lie, a, n)
        db = reference_cobracket(lie, b, n)
        return db.act(a) - da.act(b)
    if fam == "f":
        i = idx[1] if idx[0] == idx[1] + 1 else None
        if i is None:
            raise ValueError("reference cobracket is defined on simple generators")
        wedge(h_sym(i), f_sym(i + 1, i))
        for j in range(1, i):
            wedge(f_sym(i + 1, j), e_sym(j, i), Fraction(2))
        for j in range(i + 2, n + 2):
            wedge(e_sym(i + 1, j), f_sym(j, i), Fraction(2))
        return ClassicalTensor(lie, t)
    if fam == "e":
        i = idx[0] if idx[1] == idx[0] + 1 else None
        if i is None:
            raise ValueError("reference cobracket is defined on simple generators")
        wedge(e_sym(i, i + 1), h_sym(i))
        for j in range(1, i):
            wedge(e_sym(j, i + 1), f_sym(i, j), Fraction(2))
        for j in range(i + 2, n + 2):
            wedge(f_sym(j, i + 1), e_sym(i, j), Fraction(2))
        return ClassicalTensor(lie, t)
    if fam == "h":
        (i,) = idx
        for j in range(1, i):
            wedge(f_sym(i, j), e_sym(j, i), Fraction(4))
        for j in range(i + 1, n + 2):
            wedge(e_sym(i, j), f_sym(j, i), Fraction(4))
        for j in range(1, i + 1):
            wedge(f_sym(i + 1, j), e_sym(j, i + 1), Fraction(-4))
        for j in range(i + 2, n + 2):
            wedge(e_sym(i + 1, j), f_sym(j, i + 1), Fraction(-4))
        return ClassicalTensor(lie, t)
    if fam == "c":
        for k in range(1, n + 1):
            wedge(f_sym(n + 1, k), e_sym(k, n + 1), Fraction(4))
        return ClassicalTensor(lie, t)
    raise ValueError(f"no reference cobracket for {sym}")


def cocycle_defect(lie, n, sym_x, sym_y):
    """delta([x,y]) - (x.delta(y) - y.delta(x)); zero iff the 1-cocycle
    condition holds on the pair."""
    dx = reference_cobracket(lie, sym_x, n)
    dy = reference_cobracket(lie, sym_y, n)
    lhs = ClassicalTensor.zero(lie)
    for k, v in lie.bracket(lie.index[sym_x], lie.index[sym_y]).items():
        target = lie.basis[k]
        lhs = lhs + reference_cobracket(lie, target, n).scale(v)
    rhs = dy.act(sym_x) - dx.act(sym_y)
    return lhs - rhs


def simple_generators(lie, n):
    out = [f_sym(i + 1, i) for i in range(1, n + 1)]
    out += [h_sym(i) for i in range(1, n + 1)]
    if C_SYM in lie.index:
        out.append(C_SYM)
    out += [e_sym(i, i + 1) for i in range(1, n + 1)]
    return out
