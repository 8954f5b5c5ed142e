"""Hopf algebra structure on the quantum SL and GL function algebras.

The SL algebra is the quantum matrix algebra with the quantum-determinant
relation installed as a canonical-form reduction: every monomial is rewritten
until the minimal diagonal exponent (strategy "diagonal74") or the minimal
antidiagonal exponent (strategy "antidiag73") is zero.  The GL algebra is the
quantum matrix algebra with one more letter t = det_q^-1, central and last in
the order, and the same reduction on words that hold the diagonal and t, which
sets det_q t = 1.  The Borels are the triangular quotients with the same
reduction, which there drops the diagonal product.  SLAlgebra, GLAlgebra
and BorelAlgebra are MatrixAlgebra subclasses: they inherit Delta, epsilon,
the quantum minors and the antipode's generator images, and add the det_q
reducer and the antipode.
"""

from __future__ import annotations

import functools
from itertools import permutations

from .freealg import GenSym, NCElement, remember, rule_table_key
from .laurent import LAURENT, RATFUNC, neg_q_power
from .lincomb import accumulate, apply_word_map
from .qmatrix import MatrixAlgebra, perm_inversions, x_gen


class NotInBorel(Exception):
    pass


def _block_perm(n, strategy):
    """The permutation whose cells x_{1,b1}...x_{n+1,b(n+1)} form the
    strategy's block: the identity for diagonal74, w0 for antidiag73."""
    if strategy == "diagonal74":
        return tuple(range(1, n + 2))
    if strategy == "antidiag73":
        return tuple(range(n + 1, 0, -1))
    raise ValueError(f"unknown strategy {strategy!r}")


def _det_substitution(n, strategy):
    """Substitution terms for the extracted block product, as a tuple.

    With det_q = sum_s (-q)^l(s) x_{1,s1}...x_{n+1,s(n+1)} set to 1, the
    block permutation b gives
    x_{1,b1}...x_{n+1,b(n+1)} = (-q)^-l(b) (1 - sum_{s != b} (-q)^l(s) x_{1,s1}...).
    Words are given by their cell sequences (rows increasing).
    """
    block = _block_perm(n, strategy)
    scale = neg_q_power(-perm_inversions(block))
    terms = [(scale, ())]
    for perm in permutations(range(1, n + 2)):
        if perm != block:
            cells = tuple((t + 1, perm[t]) for t in range(n + 1))
            terms.append((-neg_q_power(perm_inversions(perm)) * scale, cells))
    return tuple(terms)


class DetReducer:
    """Rewrites monomials that hold every letter of the strategy's block.

    The block is the diagonal for diagonal74 and the antidiagonal for
    antidiag73.  In the algebra's deg-lex order NF(det_q u) leads with the
    word sorted(block + u) for every sorted word u, with coefficient
    (-q)^l(b), b the block's permutation.  So a word holding the block is
    (-q)^-l(b) det_q u, which is (-q)^-l(b) u in SL, plus words below it:
    each replacement goes down in deg-lex.

    With inverse, the letter t = det_q^-1 of GL, the block also holds t,
    which comes last in the order, and det_q t = 1: a word holding the
    block is (-q)^-l(b) det_q t u plus words below it, and the non-constant
    substitution words end in t.

    Only the permutations whose cells are all present enter the
    substitution, as in MatrixAlgebra.quantum_minor.  Inside a triangle
    only the identity is left, so in the Borels a word holding the diagonal
    is replaced by the word with one copy of each diagonal letter dropped.

    The block word, split and substitution depend only on the letters, so
    they are built once per (rule table, n, strategy, inverse) in a process
    and shared, immutable, by the reducer of every algebra of that
    presentation; each algebra still gets its own reducer object.
    """

    def __init__(self, n, strategy, spec, inverse=None):
        self.name = f"det-{strategy}"
        self.det_word, self.block_pos, self.split, self.subst = remember(
            _det_data, (rule_table_key(spec), n, strategy, inverse),
            lambda: _det_reducer_data(n, strategy, spec, inverse))

    def reduce_word(self, spec, word):
        if not self.block_pos.issubset(word):
            return None
        # word is sorted: remove one copy of each block letter and insert the
        # extracted product where the block's cells end; only block cells
        # and t cross it, so the quadratic renormalization adds (deg-lex
        # lower) commutator corrections and leaves word's coefficient 1.
        missing = set(self.block_pos)
        kept = []
        for p in word:
            if p in missing:
                missing.discard(p)
            else:
                kept.append(p)
        split = self.split
        prefix = tuple(p for p in kept if p < split)
        suffix = tuple(p for p in kept if p >= split)
        rearranged = prefix + self.det_word + suffix
        base = spec.normal_form_word(rearranged)
        # word == rearranged + (word - NF(rearranged)); the main term of
        # NF(rearranged) is `word` itself with coefficient 1.
        out = accumulate({}, ((w, -c) for w, c in base.items() if w != word))
        return accumulate(out, ((prefix + sub + suffix, c) for c, sub in self.subst))


# (rule table key, n, strategy, inverse) -> DetReducer's data
_det_data = {}


def _det_reducer_data(n, strategy, spec, inverse):
    """(det_word, block_pos, split, subst) of a DetReducer on spec's letters."""
    pos = {g.indices: p for p, g in enumerate(spec.alphabet)}
    cells = tuple(pos[ij] for ij in enumerate(_block_perm(n, strategy), 1))
    tail = () if inverse is None else (spec.index[inverse],)
    det_word = cells + tail
    # kept letters below the block's last cell stay before it
    split = max(cells)
    subst = tuple(
        (LAURENT.coerce(c), tuple(pos[ij] for ij in sub) + (tail if sub else ()))
        for c, sub in _det_substitution(n, strategy) if all(ij in pos for ij in sub)
    )
    return det_word, frozenset(det_word), split, subst


class SLAlgebra(MatrixAlgebra):
    """Quantum SL(n+1) function algebra with a canonical-form strategy."""

    def __init__(self, n, strategy="diagonal74", domain=RATFUNC):
        order = "triangular" if strategy == "diagonal74" else "antidiag"
        self.strategy = strategy
        super().__init__(n, order=order, domain=domain, name=f"SL({n + 1})/{strategy}")

    def _reducer(self, spec):
        return DetReducer(self.n, self.strategy, spec)

    def antipode(self, a, sign=None):
        """Algebra anti-map extended from the minor formula on generators."""
        return _minor_antipode(self, a, sign)


# the letter t = det_q^-1 of GL
DET_INVERSE = GenSym("detq^-1", ())


class GLAlgebra(MatrixAlgebra):
    """Quantum GL(n+1) function algebra: O_q(M(n+1))[t] / (t det_q - 1) with
    t central (Levasseur-Stafford, J. Pure Appl. Algebra 86, 1993).

    The letters are the cells in the triangular order and t = det_q^-1
    last; t commutes with every cell, Delta(t) = t (x) t and eps(t) = 1.
    The DetReducer with t in its block sets det_q t = 1, so the canonical
    words are the sorted words that do not hold the diagonal and t: every
    word of the matrix algebra, and u t^k (k >= 1) with u free of the
    diagonal.  The spec is named GL(n+1).
    """

    def __init__(self, n, domain=RATFUNC):
        super().__init__(n, order="triangular", domain=domain, name=f"GL({n + 1})",
                         inverse=DET_INVERSE)

    def _reducer(self, spec):
        return DetReducer(self.n, "diagonal74", spec, inverse=DET_INVERSE)

    def det_inverse(self):
        return NCElement.gen(self.spec, DET_INVERSE)

    def antipode(self, a, sign=None):
        """Algebra anti-map extended from S(x_ij) = antipode_image(i, j) t
        and S(t) = det_q."""
        return _minor_antipode(self, a, sign)

    def letter_antipode(self, p, sign):
        if self.spec.alphabet[p] == DET_INVERSE:
            return self.detq()
        return super().letter_antipode(p, sign) * self.det_inverse()


def _minor_antipode(alg, a, sign):
    """The anti-map p -> alg.letter_antipode(p, sign) applied to a."""
    sign = _select_antipode_sign() if sign is None else sign
    return apply_word_map(a.terms, lambda p: alg.letter_antipode(p, sign), alg.one(), reverse=True)


@functools.cache
def _select_antipode_sign():
    """Try both exponent conventions on SL(2); keep the first one satisfying
    the two-sided antipode axiom on every generator."""
    alg = SLAlgebra(1, strategy="diagonal74")
    for sign in (1, -1):
        if all(_antipode_axiom_holds(alg, alg.gen(i, j), sign)
               for i in (1, 2) for j in (1, 2)):
            return sign
    raise RuntimeError("no antipode exponent convention satisfies the axiom")


def antipode_convention_report():
    sign = _select_antipode_sign()
    return {
        "selected_exponent": "(j-i)" if sign == 1 else "(i-j)",
        "printed_exponent": "(j-i)",
        # (j-i) is tried first, so it verifies exactly when it is selected
        "printed_verifies": sign == 1,
    }


def _antipode_axiom_holds(alg, g, sign):
    """m(S ox id)Delta(g) == eps(g) 1 == m(id ox S)Delta(g)."""
    delta = alg.coproduct(g)
    eps = alg.counit(g)
    target = alg.one().scale(eps) if eps else alg.zero()
    left = alg.zero()
    right = alg.zero()
    for (wl, wr), c in delta.terms.items():
        el = NCElement(alg.spec, {wl: alg.spec.domain.one}, reduce=False)
        er = NCElement(alg.spec, {wr: alg.spec.domain.one}, reduce=False)
        left = left + (alg.antipode(el, sign=sign) * er).scale(c)
        right = right + (el * alg.antipode(er, sign=sign)).scale(c)
    return left == target and right == target


def sl_reduce(alg, a, rng=None):
    """Standalone canonical reduction with selectable substitution sites.

    Equivalent to the reducer installed on the algebra; when rng is given the
    substitution site is chosen at random among eligible monomials, which the
    path-independence property tests exercise.
    """
    spec = alg.spec
    red = spec.reducer
    terms = spec.reduce_terms(dict(a.terms))  # includes installed reducer
    if rng is None:
        return NCElement(spec, terms, reduce=False)
    # replay the loop manually on the raw terms to exercise random sites
    raw = {}
    for w, c in a.terms.items():
        accumulate(raw, spec.normal_form_word(w).items(), c)
    while True:
        sites = [(w, repl) for w in raw if (repl := red.reduce_word(spec, w)) is not None]
        if not sites:
            break
        w, repl = sites[rng.randrange(len(sites))]
        c = raw.pop(w)
        for rw, rc in repl.items():
            accumulate(raw, spec.normal_form_word(rw).items(), c * rc)
    return NCElement(spec, raw, reduce=False)


def pi_project(source, target, a):
    """Relabel each word of a by its cells into target's letters and reduce
    there; words with a cell that target lacks are dropped.

    As pi: M -> SL this is x_ij -> rho_ij followed by the SL canonical
    reduction; as SL -> B+- it is the Borel quotient: it kills the
    complementary triangle and reduces in the Borel.
    """
    index, coerce = target.spec.index, target.spec.domain.coerce
    terms = {}
    for w, c in a.terms.items():
        cells = [source.cell_of(p) for p in w]
        if all(ij in target.cells for ij in cells):
            terms[tuple(index[x_gen(*ij)] for ij in cells)] = coerce(c)
    return NCElement(target.spec, terms)


# -- Borel quotients -------------------------------------------------------------


class BorelAlgebra(MatrixAlgebra):
    """Quantum Borel: the upper (+) or lower (-) triangular quotient of SL,
    the matrix relations on the triangle's cells plus det_q = 1, where det_q
    is the diagonal product (Parshall-Wang, Mem. AMS 439, 1991)."""

    def __init__(self, n, sign, domain=RATFUNC):
        if sign == "+":
            cells = [(i, j) for i in range(1, n + 2) for j in range(i, n + 2)]
        elif sign == "-":
            cells = [(i, j) for i in range(1, n + 2) for j in range(1, i + 1)]
        else:
            raise ValueError("sign must be '+' or '-'")
        offdiag = sorted(ij for ij in cells if ij[0] != ij[1])
        diag = [(i, i) for i in range(1, n + 2)]
        self.sign = sign
        # diagonal letters last: exact det reduction
        super().__init__(n, order=offdiag + diag, domain=domain, cells=cells,
                         name=f"B{sign}({n + 1})")

    def _reducer(self, spec):
        return DetReducer(self.n, "diagonal74", spec)

    def antipode(self, a, sign=None):
        """The minor formula with the complementary triangle set to zero,
        extended as an anti-map."""
        return _minor_antipode(self, a, sign)

    def gen(self, i, j):
        if (i, j) not in self.cells:
            raise NotInBorel(f"x[{i},{j}] is not a generator of B{self.sign}")
        return super().gen(i, j)

    def defining_relation_pairs(self):
        """All (name, lhs, rhs) of the presentation, for map checks: each
        rule of the rule table, its lhs word against its rhs, and the
        diagonal product against 1.

        Both sides are left unreduced: reduced, they would be one element,
        and a map would send them to the same image whatever it is.
        """
        spec, coerce = self.spec, self.spec.domain.coerce

        def element(terms):
            return NCElement(spec, {w: coerce(c) for c, w in terms}, reduce=False)

        pairs = [(spec.word_str(lhs), element([(1, lhs)]), element(rhs))
                 for lhs, rhs in spec.rules.items()]
        diag = tuple(spec.index[x_gen(i, i)] for i in range(1, self.n + 2))
        pairs.append(("diag product = 1", element([(1, diag)]), element([(1, ())])))
        return pairs
