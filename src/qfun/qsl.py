"""Hopf algebra structure on the quantum SL and GL function algebras.

The SL algebra is the quantum matrix algebra with the quantum-determinant
relation installed as a canonical-form reduction: every monomial is rewritten
until the minimal diagonal exponent (strategy "diagonal74") or the minimal
antidiagonal exponent (strategy "antidiag73") is zero.  Antipode, Borel
quotients, and the determinant-localized GL algebra live here too.  SLAlgebra
and BorelAlgebra are MatrixAlgebra subclasses: they inherit Delta, epsilon,
the quantum minors and the antipode's generator images, and add reducers.
"""

from __future__ import annotations

import functools
from itertools import combinations_with_replacement, permutations

from .freealg import NCElement, PostReducer, deglex_key
from .laurent import LAURENT, LP_ONE, RATFUNC, neg_q_power
from .lincomb import accumulate, apply_word_map
from .qmatrix import MatrixAlgebra, OrderMismatch, perm_inversions, x_gen


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


@functools.lru_cache(maxsize=64)
def _det_substitution(n, strategy):
    """Substitution terms for the extracted block product, as a tuple built
    once per (n, strategy).

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


class DetReducer(PostReducer):
    """Rewrites monomials that hold every letter of the strategy's block.

    The block is the diagonal for diagonal74 and the antidiagonal for
    antidiag73.  In the algebra's deg-lex order NF(det_q u) leads with the
    word sorted(block + u) for every sorted word u, with coefficient
    (-q)^l(b), b the block's permutation.  So a word holding the block is
    (-q)^-l(b) det_q u, which is (-q)^-l(b) u in SL, plus words below it:
    each replacement goes down in deg-lex.
    """

    def __init__(self, n, strategy, spec):
        self.name = f"det-{strategy}"
        pos = {g.indices: p for p, g in enumerate(spec.alphabet)}
        self.det_word = tuple(pos[ij] for ij in enumerate(_block_perm(n, strategy), 1))
        self.block_pos = frozenset(self.det_word)
        self.subst = [
            (LAURENT.coerce(c), tuple(pos[ij] for ij in cells))
            for c, cells in _det_substitution(n, strategy)
        ]

    def reduce_word(self, spec, word):
        found = _drop_block(word, self.block_pos)
        if found is None:
            return None
        # remove one copy of each block letter, then insert the extracted
        # product where the block ends; quadratic renormalization accounts
        # for the (deg-lex lower) commutator corrections.
        kept, block_at = found
        prefix = tuple(word[t] for t in kept if t < block_at)
        suffix = tuple(word[t] for t in kept if t > block_at)
        rearranged = prefix + self.det_word + suffix
        base = spec.normal_form_word(rearranged)
        # word == rearranged + (word - NF(rearranged)); the main term of
        # NF(rearranged) is `word` itself with coefficient 1.
        out = accumulate({}, ((w, -c) for w, c in base.items() if w != word))
        return accumulate(out, ((prefix + sub + suffix, c) for c, sub in self.subst))


def _drop_block(word, block):
    """(kept, last) when word holds every letter of block: the positions of
    word left after dropping the first copy of each block letter, and the
    position of the last letter dropped.  None when a block letter is
    missing."""
    if not block.issubset(word):
        return None
    missing = set(block)
    kept = []
    last = None
    for t, p in enumerate(word):
        if p in missing:
            missing.discard(p)
            last = t
        else:
            kept.append(t)
    return kept, last


class SLAlgebra(MatrixAlgebra):
    """Quantum SL(n+1) function algebra with a canonical-form strategy."""

    def __init__(self, n, strategy="diagonal74", domain=RATFUNC):
        order = "triangular" if strategy == "diagonal74" else "antidiag"
        self.strategy = strategy
        super().__init__(n, order=order, domain=domain, name=f"SL({n + 1})/{strategy}")
        (self.reducer,) = self.spec.post_reducers

    def _post_reducers(self, spec):
        return [DetReducer(self.n, self.strategy, spec)]

    def antipode(self, a, sign=None):
        """Algebra anti-map extended from the minor formula on generators."""
        return _minor_antipode(self, a, sign)

    # -- canonical monomials ----------------------------------------------------

    def pbw_basis_sl(self, degree):
        """Canonical monomials (min block exponent zero) up to total degree."""
        k = len(self.spec.alphabet)
        block = self.reducer.block_pos
        return [w for d in range(degree + 1)
                for w in combinations_with_replacement(range(k), d)
                if _drop_block(w, block) is None]


def _minor_antipode(alg, a, sign):
    """The anti-map x_ij -> alg.antipode_image(i, j, sign) applied to a."""
    sign = _select_antipode_sign() if sign is None else sign
    return apply_word_map(
        a.terms, lambda p: alg.antipode_image(*alg.cell_of(p), sign), alg.one(), reverse=True
    )


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
    red = alg.reducer
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


class DiagProductReducer(PostReducer):
    """In the Borel algebras the diagonal generators commute exactly and
    their full product is 1."""

    name = "borel-diag"

    def __init__(self, n, spec):
        self.diag_pos = frozenset(spec.index[x_gen(i, i)] for i in range(1, n + 2))

    def reduce_word(self, spec, word):
        found = _drop_block(word, self.diag_pos)
        if found is None:
            return None
        return {tuple(word[t] for t in found[0]): LP_ONE}


class BorelAlgebra(MatrixAlgebra):
    """Quantum Borel: the upper (+) or lower (-) triangular quotient."""

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

    def _post_reducers(self, spec):
        return [DiagProductReducer(self.n, spec)]

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


def borel_antipode(borel, a, sign=None):
    """Antipode on the Borel: the minor formula with the complementary
    triangle set to zero."""
    return _minor_antipode(borel, a, sign)


# -- GL: localization at det_q ------------------------------------------------------


class GLElement:
    """Element of the quantum GL algebra: matrix-algebra body times an
    integer power of the central det_q^{-1}."""

    __slots__ = ("alg", "body", "detpow")

    def __init__(self, alg, body, detpow=0):
        self.alg = alg
        self.body = body
        self.detpow = detpow

    def _aligned(self, other):
        k = min(self.detpow, other.detpow)
        return self._times_det(self.detpow - k), other._times_det(other.detpow - k), k

    def _times_det(self, m):
        """The body times det_q^m, m >= 0."""
        body = self.body
        for _ in range(m):
            body = body * self.alg.detq()
        return body

    def __eq__(self, other):
        if not isinstance(other, GLElement):
            return NotImplemented
        a, b, _ = self._aligned(other)
        return a == b

    def __add__(self, other):
        a, b, k = self._aligned(other)
        return GLElement(self.alg, a + b, k)

    def __neg__(self):
        return GLElement(self.alg, -self.body, self.detpow)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GLElement):
            return GLElement(
                self.alg, self.body * other.body, self.detpow + other.detpow
            )
        return GLElement(self.alg, self.body * other, self.detpow)

    def scale(self, coeff):
        return GLElement(self.alg, self.body.scale(coeff), self.detpow)

    def shift_det(self, k):
        """Multiply by det_q^k (k of either sign); the body takes on only the
        positive part of the resulting power."""
        detpow = self.detpow + k
        return GLElement(self.alg, self._times_det(max(detpow, 0)), min(detpow, 0))

    def canonical(self):
        """Extract det_q factors out of the body where possible."""
        body, detpow = self.body, self.detpow
        while detpow < 0 and not body.is_zero():
            quo = _divide_by_detq(self.alg, body)
            if quo is None:
                break
            body, detpow = quo, detpow + 1
        return GLElement(self.alg, body, detpow)

    def is_zero(self):
        return self.body.is_zero()

    def __str__(self):
        if self.detpow == 0:
            return str(self.body)
        return f"({self.body}) * detq^{self.detpow}"

    __repr__ = __str__


def _divide_by_detq(alg, body):
    """The c with body = det_q * c, or None when det_q does not divide body.

    Long division by the leading word.  NF(det_q u) leads in deg-lex with
    the word sorted(L + u), L the leading word of det_q, and with det_q's
    leading coefficient; adding L keeps the deg-lex order of sorted words.
    So the leading word of det_q * c holds L and comes from the leading
    word of c alone, and each step below removes the leading word of body.
    The fact holds in the triangular, antidiag and lex orders, not in every
    custom one: a step that leaves a word as large raises OrderMismatch.
    """
    d = alg.detq()
    lead = max(d.terms, key=deglex_key)
    block, lead_c = frozenset(lead), d.terms[lead]
    quotient = {}
    while not body.is_zero():
        top = max(body.terms, key=deglex_key)
        found = _drop_block(top, block)
        if found is None:
            return None
        u = tuple(top[t] for t in found[0])
        quotient[u] = body.terms[top] / lead_c
        body = body - d * NCElement(alg.spec, {u: quotient[u]}, reduce=False)
        if any(deglex_key(w) >= deglex_key(top) for w in body.terms):
            raise OrderMismatch(f"det_q does not divide by its leading word in {alg.spec.name}")
    return NCElement(alg.spec, quotient)


def gl_antipode(alg, a, sign=None):
    """Antipode on GL: S(x_ij) = (-q)^{sign (j-i)} minor * det^{-1}."""
    # det_q is central, so a word of length k maps to its minor anti-image
    # times det^{-k}: one anti-map call per word length
    by_length = {}
    for w, c in a.body.terms.items():
        by_length.setdefault(len(w), {})[w] = c
    out = GLElement(alg, alg.zero(), 0)
    for k, terms in by_length.items():
        body = _minor_antipode(alg, NCElement(alg.spec, terms, reduce=False), sign)
        out = out + GLElement(alg, body, -k)
    # S(det^k) = det^{-k}, det_q being group-like and central
    return out.shift_det(-a.detpow)

