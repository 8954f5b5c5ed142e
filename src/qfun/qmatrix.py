"""The quantum matrix bialgebra on (n+1) x (n+1) generators.

Relations, generator orders, comultiplication/counit, quantum minors, the
minor formula of the antipode and the quantum determinant, triangular
decomposition, and canonical-word (PBW) enumeration.  MatrixAlgebra is
defined over a cell set, and may adjoin a letter for det_q^-1, so the SL,
GL and Borel contexts of qsl.py subclass it.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations
from typing import NamedTuple

from .freealg import (CACHE_LIMIT, AlgebraMismatch, AlgebraSpec, GenSym, NCElement, RuleTable,
                      confluence_check, rule_table)
from .lincomb import LinComb, add_outer, apply_word_map, extend_prefix, format_terms, pair_product
from .laurent import (
    LAURENT,
    LP_ONE,
    Q,
    QINV,
    Q_MINUS_QINV,
    neg_q_power,
)


class InadmissibleOrder(Exception):
    pass


class BadIndexLists(Exception):
    pass


class OrderMismatch(Exception):
    pass


def x_gen(i, j):
    return GenSym("x", (i, j))


def perm_inversions(perm):
    """The number of inversions (the length) of a sequence."""
    return sum(
        1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b]
    )


def _order_key(name, n):
    if name == "lex":
        return lambda ij: ij
    if name == "antidiag":
        # N+ (i+j < n+2), then the antidiagonal, then N-
        def key(ij):
            i, j = ij
            s = i + j
            block = 0 if s < n + 2 else (1 if s == n + 2 else 2)
            return (block, i, j)

        return key
    if name == "triangular":
        # lower triangle, then diagonal, then upper triangle
        def key(ij):
            i, j = ij
            block = 0 if i > j else (1 if i == j else 2)
            return (block, i, j)

        return key
    raise InadmissibleOrder(f"unknown order {name!r}")


def pair_relation(u, v):
    """Straighten x_u * x_v: returns (swap_coeff, correction or None).

    The product equals swap_coeff * x_v x_u + (q - q^-1) * sign * x_a x_b
    when a correction is present; correction is then ((a, b), sign).
    """
    i, k = u
    j, l = v
    if i == j and k == l:
        return None, None  # same generator: nothing to do
    if i == j:
        return (Q if k < l else QINV), None
    if k == l:
        return (Q if i < j else QINV), None
    if (i < j and k > l) or (i > j and k < l):
        return LP_ONE, None
    if i < j and k < l:
        return LP_ONE, (((i, l), (j, k)), 1)
    # i > j and k > l
    return LP_ONE, (((j, k), (i, l)), -1)


class Presentation(NamedTuple):
    """The immutable part of a quantum matrix presentation.

    table: the ordered letters and the rule table over Z[q,q^-1], with the
    key of its confluence certificate, never mutated (build_matrix_spec
    copies it); letter_deltas: per letter, its coproduct
    sum_k x_ik (x) x_kj as a pair-keyed term dict over Z[q,q^-1];
    counit_letters: the letters with counit 1 (the diagonal cells), every
    other letter having counit 0.
    """

    name: str
    table: RuleTable
    cells: frozenset
    letter_deltas: tuple
    counit_letters: frozenset


# (n, order, cells, name, inverse) -> its Presentation
_presentations = {}


def matrix_presentation(n, order="lex", cells=None, name=None, inverse=None):
    """The Presentation of build_matrix_spec's arguments other than the
    domain, built once per arguments in this process and kept up to
    CACHE_LIMIT entries; a build that raises keeps nothing.

    inverse: a letter adjoined after the cells as det_q^-1, central (a
    commuting rule with each cell), group-like and of counit 1; the
    relation det_q det_q^-1 = 1 is left to the algebra's reducer.
    With inverse, name names the result only: the letter is adjoined to
    the unnamed presentation of the cells, which the matrix algebra shares,
    so no rule table is built twice.
    """
    if cells is not None:
        cells = tuple(sorted(set(cells)))
    key = (n, order if isinstance(order, str) else tuple(order), cells, name, inverse)
    pres = _presentations.get(key)
    if pres is None:
        if inverse is None:
            pres = _build_presentation(n, order, cells, name)
        else:
            pres = _adjoin_inverse(matrix_presentation(n, order, cells), inverse, name)
        if len(_presentations) < CACHE_LIMIT:
            _presentations[key] = pres
    return pres


def _build_presentation(n, order, cells, name):
    """The letters, rules, letter coproducts and counits of the quantum
    matrix relations on the given cells; see build_matrix_spec."""
    if cells is None:
        cells = [(i, j) for i in range(1, n + 2) for j in range(1, n + 2)]
    cells = sorted(set(cells))
    if isinstance(order, str):
        key = _order_key(order, n)
        ordered = sorted(cells, key=key)
    else:
        ordered = list(order)
        if sorted(ordered) != cells:
            raise InadmissibleOrder("custom order is not a permutation of the cells")
    spec = AlgebraSpec(
        [x_gen(i, j) for i, j in ordered],
        name=name or f"M({n + 1})/{order if isinstance(order, str) else 'custom'}",
    )
    cellset = set(cells)
    pos = {ij: spec.index[x_gen(*ij)] for ij in cells}
    for u in cells:
        for v in cells:
            if pos[u] <= pos[v]:
                continue
            swap, corr = pair_relation(u, v)
            rhs = [(swap, (pos[v], pos[u]))]
            if corr is not None:
                (a, b), sign = corr
                if a in cellset and b in cellset:
                    pa, pb = pos[a], pos[b]
                    if pa > pb:
                        pa, pb = pb, pa  # correction pair always commutes
                    rhs.append((Q_MINUS_QINV * sign, (pa, pb)))
            try:
                spec.add_rule(pos[u], pos[v], rhs)
            except ValueError as exc:
                raise InadmissibleOrder(str(exc)) from exc
    letter_deltas = tuple(
        {
            ((pos[(i, k)],), (pos[(k, j)],)): LP_ONE
            for k in range(1, n + 2)
            if (i, k) in cellset and (k, j) in cellset
        }
        for i, j in ordered
    )
    units = frozenset(pos[ij] for ij in cells if ij[0] == ij[1])
    return Presentation(spec.name, rule_table(spec), frozenset(cellset), letter_deltas, units)


def _adjoin_inverse(pres, inverse, name=None):
    """pres with the letter inverse adjoined last: a commuting rule with
    each letter, Delta(t) = t (x) t and counit 1; named name, or as pres."""
    spec = AlgebraSpec(pres.table.alphabet + (inverse,), name=name or pres.name)
    spec.rules.update(pres.table.rules)
    t = len(pres.table.alphabet)
    for p in range(t):
        spec.add_rule(t, p, [(LP_ONE, (p, t))])
    return pres._replace(name=spec.name, table=rule_table(spec),
                         letter_deltas=pres.letter_deltas + ({((t,), (t,)): LP_ONE},),
                         counit_letters=pres.counit_letters | {t})


def build_matrix_spec(n, order="lex", domain=LAURENT, cells=None, name=None, inverse=None):
    """AlgebraSpec for the quantum matrix relations on the given cells.

    cells: iterable of (i, j) pairs (defaults to the full square).  Rule
    corrections whose letters fall outside the cell set are dropped, which
    realizes the Borel quotients.  inverse: a det_q^-1 letter adjoined last
    (matrix_presentation).

    The rules are over Z[q,q^-1] whatever the domain, which types only the
    coefficients of the spec's elements, so the presentation is built once
    per arguments other than the domain (matrix_presentation), and it owns
    its rule table with the table's certificate key.  Each call returns a
    new spec copied from that table (RuleTable.new_spec): its own copy of
    the rules, its own normal-form memo, no reducer, and the term budget
    read now, so a change to one spec's rules reaches no other, and
    rule_table_key keys a changed spec from its own rules.
    """
    pres = matrix_presentation(n, order, cells, name, inverse)
    return pres.table.new_spec(domain=domain, name=pres.name)


class MatrixAlgebra:
    """Context object for a quantum matrix bialgebra over a cell set.

    With the full square of cells this is M_q(n+1).  A subset of the cells
    gives the quotient that kills the missing generators (the Borels), and
    subclasses add a reducer on top (det_q = 1 in SL and the Borels).
    With inverse, a central letter follows the cells (GL's det_q^-1; see
    matrix_presentation).  In every case Delta(x_ij) = sum_k x_ik (x) x_kj
    and the quantum minors sum over the cells that are present.
    """

    def __init__(self, n, order="lex", domain=LAURENT, cells=None, name=None, inverse=None):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.order_name = order if isinstance(order, str) else "custom"
        pres = matrix_presentation(n, order, cells, name, inverse)
        self.spec = build_matrix_spec(n, order=order, domain=domain, cells=cells, name=name,
                                      inverse=inverse)
        self.spec.reducer = self._reducer(self.spec)
        self.domain = domain
        self.cells = pres.cells
        self._detq = None
        report = confluence_check(self.spec)
        if not report["ok"]:
            raise InadmissibleOrder(f"rule table not confluent: {report['failures'][:3]}")
        self._letter_deltas = pres.letter_deltas
        self._counit_letters = pres.counit_letters
        # word -> its reduced coproduct as a pair-keyed term dict
        self._delta_memo = {}

    def _reducer(self, spec):
        """The reducer this algebra applies after its rules, built for spec,
        or None."""
        return None

    def clear_caches(self):
        """Forget the normal-form memo and the coproduct memo."""
        self.spec.clear_caches()
        self._delta_memo.clear()

    # -- element constructors ----------------------------------------------

    def gen(self, i, j):
        return NCElement.gen(self.spec, x_gen(i, j))

    def one(self):
        return NCElement.one(self.spec)

    def zero(self):
        return NCElement.zero(self.spec)

    def element(self, terms):
        coerce = self.spec.domain.coerce
        return NCElement(self.spec, {w: coerce(c) for w, c in terms.items()})

    def monomial(self, cells, coeff=1):
        word = tuple(self.spec.index[x_gen(i, j)] for i, j in cells)
        return NCElement(self.spec, {word: self.spec.domain.coerce(coeff)})

    def cell_of(self, position):
        return self.spec.alphabet[position].indices

    # -- coalgebra ------------------------------------------------------------

    def coproduct(self, a):
        """Delta as an algebra map; both factors are fully reduced here.

        apply_word_map takes the sum in Horner form by last letters, so the
        words ending in p cancel before one tensor product with Delta(p),
        and a word alone in its group reads the memoized coproduct_word.
        No dict of the coproduct memo is mutated or returned.
        """
        return apply_word_map(a.terms, lambda p: TensorElement(self, self._letter_deltas[p]),
                              TensorElement(self, {((), ()): LP_ONE}), word_value=self.coproduct_word)

    def coproduct_word(self, w):
        """Delta of one word as a reduced pair-keyed term dict over
        Z[q,q^-1], memoized.

        Delta is an algebra map, so Delta(w) = Delta(w[:-1]) Delta(w[-1]),
        and the longest memoized prefix is extended (extend_prefix).
        """
        unit = {((), ()): LP_ONE}
        return extend_prefix(self._delta_memo, w, unit, self._delta_extend, CACHE_LIMIT)

    def _delta_extend(self, d, p):
        """Delta(w) from d = Delta(w[:-1]) and the last letter p of w."""
        return _tensor_product(self.spec, d, self._letter_deltas[p])

    def counit(self, a):
        """eps as an algebra map: a word counts 1 when each of its letters
        has counit 1, and 0 otherwise."""
        units = self._counit_letters
        tot = self.spec.domain.zero
        for w, c in a.terms.items():
            if units.issuperset(w):
                tot = tot + c
        return tot

    # -- quantum minors -------------------------------------------------------

    def quantum_minor(self, rows, cols):
        """sum_s (-q)^l(s) x_{r1,c_s1} ... x_{rk,c_sk} over the permutations s
        whose cells are all present."""
        rows = list(rows)
        cols = list(cols)
        if len(rows) != len(cols):
            raise BadIndexLists("rows and cols must have equal length")
        if sorted(rows) != rows or sorted(cols) != cols:
            raise BadIndexLists("index lists must be strictly increasing")
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise BadIndexLists("index lists must be strictly increasing")
        terms = {}
        for perm in permutations(range(len(cols))):
            cells = [(rows[t], cols[perm[t]]) for t in range(len(rows))]
            if all(ij in self.cells for ij in cells):
                word = tuple(self.spec.index[x_gen(*ij)] for ij in cells)
                terms[word] = self.spec.domain.coerce(neg_q_power(perm_inversions(perm)))
        return NCElement(self.spec, terms)

    def antipode_image(self, i, j, sign):
        """(-q)^{sign (j-i)} times the minor without row j and column i: the
        antipode of x_ij, up to the factor det_q^{-1} that SL and the Borels
        set to 1."""
        idx = range(1, self.n + 2)
        minor = self.quantum_minor([h for h in idx if h != j], [k for k in idx if k != i])
        return minor.scale(neg_q_power(sign * (j - i)))

    def letter_antipode(self, p, sign):
        """antipode_image of the cell of letter p."""
        return self.antipode_image(*self.cell_of(p), sign)

    def detq(self):
        if self._detq is None:
            idx = list(range(1, self.n + 2))
            self._detq = self.quantum_minor(idx, idx)
        return self._detq

    def verify_detq_central_grouplike(self):
        """Exact check that det_q is central and group-like."""
        d = self.detq()
        report = {"central": [], "grouplike": None, "counit": None, "ok": True}
        for i in range(1, self.n + 2):
            for j in range(1, self.n + 2):
                g = self.gen(i, j)
                comm = d * g - g * d
                ok = comm.is_zero()
                report["central"].append({"gen": f"x[{i},{j}]", "ok": ok})
                if not ok:
                    report["ok"] = False
        dd = self.coproduct(d)
        one = self.spec.domain.one
        target = TensorElement(self, add_outer({}, d.terms, d.terms, one, one))
        report["grouplike"] = dd == target
        report["counit"] = self.counit(d) == one
        report["ok"] = report["ok"] and report["grouplike"] and report["counit"]
        return report

    # -- triangular decomposition ----------------------------------------------

    def _cell_block_antidiag(self, ij):
        s = ij[0] + ij[1]
        return 0 if s < self.n + 2 else (1 if s == self.n + 2 else 2)

    def triangular_factor(self, a):
        """Split each normal word into its N+ / N0 / N- blocks."""
        if self.order_name != "antidiag":
            raise OrderMismatch("triangular_factor needs the antidiag order")
        out = []
        for w, c in sorted(a.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            blocks = {0: [], 1: [], 2: []}
            for p in w:
                blocks[self._cell_block_antidiag(self.cell_of(p))].append(
                    self.cell_of(p)
                )
            out.append((tuple(blocks[0]), tuple(blocks[1]), tuple(blocks[2]), c))
        return out

    # -- PBW enumeration ---------------------------------------------------------

    def pbw_basis(self, degree):
        """The canonical words of total degree <= degree (1 included): the
        sorted words that the reducer does not rewrite."""
        spec, red = self.spec, self.spec.reducer
        return [w for d in range(degree + 1)
                for w in combinations_with_replacement(range(len(spec.alphabet)), d)
                if red is None or red.reduce_word(spec, w) is None]


def _tensor_product(spec, x, y):
    """The product of two pair-keyed term dicts in the tensor square of spec:
    words concatenate side by side and reduce to full normal form, the
    memoized quadratic one unless a reducer acts on top of it.  The
    coefficients come out of the type of x's and y's."""
    if spec.reducer is None:
        return pair_product(x, y, spec.normal_form_word, LP_ONE, concat=True)
    reduce_terms = spec.reduce_terms
    return pair_product(x, y, lambda u, v: reduce_terms({u + v: LP_ONE}), LP_ONE)


class TensorElement(LinComb):
    """Coefficient-weighted sum of pairs of normal words of one algebra: an
    element of its tensor square.  The terms are taken as they are given."""

    __slots__ = ("alg",)

    def __init__(self, alg, terms=None):
        self.alg = alg
        self.terms = terms or {}

    def _same(self, terms):
        return TensorElement(self.alg, terms)

    def _coerce(self, c):
        return self.alg.spec.domain.coerce(c)

    def _check(self, other):
        if self.alg.spec is not other.alg.spec:
            raise AlgebraMismatch(f"{self.alg.spec.name!r} vs {other.alg.spec.name!r}")

    def _unit_key(self):
        return None

    def __mul__(self, other):
        """Componentwise product (a ox b)(c ox d) = ac ox bd."""
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        return TensorElement(self.alg, _tensor_product(self.alg.spec, self.terms, other.terms))

    def swap(self):
        return TensorElement(self.alg, {(wr, wl): c for (wl, wr), c in self.terms.items()})

    def __str__(self):
        word_str = self.alg.spec.word_str
        return format_terms(
            self.terms,
            lambda k: (len(k[0]) + len(k[1]), k),
            lambda k: f"{word_str(k[0])} (x) {word_str(k[1])}",
        )

    def __repr__(self):
        return f"<TensorElement {self}>"
