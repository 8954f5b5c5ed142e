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

from .freealg import NCElement, PostReducer
from .laurent import Q_MINUS_QINV, RATFUNC, neg_q_power
from .lincomb import accumulate, apply_word_map, echelon, reduce_row
from .qmatrix import MatrixAlgebra, pair_relation, perm_inversions, x_gen


class NotInBorel(Exception):
    pass


@functools.lru_cache(maxsize=64)
def _det_substitution(n, strategy):
    """Substitution terms for the extracted determinant product, as a tuple
    built once per (n, strategy).

    diagonal74: x_11...x_{n+1,n+1} = 1 - sum_{s != id} (-q)^l(s) x_{1,s1}...
    antidiag73: x_{1,n+1}...x_{n+1,1} = (-q)^-N (1 - sum_{s != w0} ...)
    Words are given by their cell sequences (rows increasing).
    """
    N = (n + 1) * n // 2
    terms = []
    if strategy == "diagonal74":
        terms.append((1, ()))
        for perm in permutations(range(1, n + 2)):
            if all(perm[t] == t + 1 for t in range(n + 1)):
                continue
            inv = perm_inversions(perm)
            cells = tuple((t + 1, perm[t]) for t in range(n + 1))
            terms.append((-1 * neg_q_power(inv), cells))
    else:
        scale = neg_q_power(-N)
        terms.append((scale, ()))
        for perm in permutations(range(1, n + 2)):
            if all(perm[t] == n + 1 - t for t in range(n + 1)):
                continue
            inv = perm_inversions(perm)
            cells = tuple((t + 1, perm[t]) for t in range(n + 1))
            terms.append((-1 * neg_q_power(inv) * scale, cells))
    return tuple(terms)


class DetReducer(PostReducer):
    """Rewrites monomials whose strategy block contains a full det product."""

    def __init__(self, n, strategy, spec):
        self.n = n
        self.strategy = strategy
        self.name = f"det-{strategy}"
        if strategy == "diagonal74":
            self.block_cells = [(i, i) for i in range(1, n + 2)]
        elif strategy == "antidiag73":
            self.block_cells = [(i, n + 2 - i) for i in range(1, n + 2)]
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        pos = {g.indices: p for p, g in enumerate(spec.alphabet)}
        self.block_pos = frozenset(pos[ij] for ij in self.block_cells)
        self.det_word = tuple(pos[ij] for ij in self.block_cells)
        self.subst = [
            (spec.domain.coerce(c), tuple(pos[ij] for ij in cells))
            for c, cells in _det_substitution(n, strategy)
        ]

    def measure(self, spec, word):
        return sum(1 for p in word if p in self.block_pos)

    def _block_exponents(self, word):
        counts = {p: 0 for p in self.det_word}
        for p in word:
            if p in self.block_pos:
                counts[p] += 1
        return counts

    def reduce_word(self, spec, word):
        counts = self._block_exponents(word)
        if not counts or min(counts.values()) < 1:
            return None
        # remove one copy of each block letter, then append the extracted
        # product at the right end of the block; quadratic renormalization
        # accounts for the (lower measure) commutator corrections.
        removed = {p: 1 for p in self.det_word}
        reduced = []
        block_at = None
        for t, p in enumerate(word):
            if p in self.block_pos and removed.get(p):
                removed[p] -= 1
                block_at = t
                continue
            reduced.append((t, p))
        # rebuild: letters before/inside/after the block; the extracted det
        # product is inserted where the block ends
        prefix = tuple(p for t, p in reduced if t <= block_at)
        suffix = tuple(p for t, p in reduced if t > block_at)
        rearranged = prefix + self.det_word + suffix
        base = spec.normal_form_word(rearranged)
        out = {}
        one = spec.domain.one
        # word == rearranged + (word - NF(rearranged)); the main term of
        # NF(rearranged) is `word` itself with coefficient 1.
        for w, c in base.items():
            if w == word:
                continue
            out[w] = out.get(w, spec.domain.zero) - c
        for c, sub in self.subst:
            w = prefix + sub + suffix
            out[w] = out.get(w, spec.domain.zero) + c
        return {w: c for w, c in out.items() if c}


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
        words = []
        for d in range(degree + 1):
            for w in combinations_with_replacement(range(k), d):
                counts = {p: 0 for p in block}
                for p in w:
                    if p in block:
                        counts[p] += 1
                if counts and min(counts.values()) >= 1:
                    continue
                words.append(w)
        return words


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
        for nw, nc in spec.normal_form_word(w).items():
            raw[nw] = raw.get(nw, spec.domain.zero) + nc * c
    raw = {w: c for w, c in raw.items() if c}
    while True:
        sites = [(w, repl) for w in raw if (repl := red.reduce_word(spec, w)) is not None]
        if not sites:
            break
        w, repl = sites[rng.randrange(len(sites))]
        c = raw.pop(w)
        for rw, rc in repl.items():
            accumulate(raw, spec.normal_form_word(rw).items(), rc * c)
    return NCElement(spec, raw, reduce=False)


def pi_project(source, target, a):
    """Relabel each word of a by its cells into target's letters and reduce
    there; words with a cell that target lacks are dropped.

    As pi: M -> SL this is x_ij -> rho_ij followed by the SL canonical
    reduction; as SL -> B+- it kills the complementary triangle and reduces
    in the Borel (borel_quotient is the same map).
    """
    if isinstance(a, GLElement):
        a = a.body
    index = target.spec.index
    terms = {}
    for w, c in a.terms.items():
        cells = [source.cell_of(p) for p in w]
        if all(ij in target.cells for ij in cells):
            terms[tuple(index[x_gen(*ij)] for ij in cells)] = c
    return NCElement(target.spec, terms)


borel_quotient = pi_project


# -- Borel quotients -------------------------------------------------------------


class DiagProductReducer(PostReducer):
    """In the Borel algebras the diagonal generators commute exactly and
    their full product is 1."""

    name = "borel-diag"

    def __init__(self, n, spec):
        self.diag_pos = frozenset(spec.index[x_gen(i, i)] for i in range(1, n + 2))

    def measure(self, spec, word):
        return sum(1 for p in word if p in self.diag_pos)

    def reduce_word(self, spec, word):
        counts = {p: 0 for p in self.diag_pos}
        for p in word:
            if p in self.diag_pos:
                counts[p] += 1
        if min(counts.values()) < 1:
            return None
        removed = {p: 1 for p in self.diag_pos}
        out = []
        for p in word:
            if p in self.diag_pos and removed[p]:
                removed[p] -= 1
                continue
            out.append(p)
        return {tuple(out): spec.domain.one}


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
        """All (lhs, rhs) pairs of the presentation, for map checks.

        Both sides are left unreduced: reduced, they would be one element,
        and a map would send them to the same image whatever it is.
        """
        domain = self.spec.domain

        def word(*cells, coeff=domain.one):
            w = tuple(self.spec.index[x_gen(*ij)] for ij in cells)
            return NCElement(self.spec, {w: domain.coerce(coeff)}, reduce=False)

        pairs = []
        cells = sorted(self.cells)
        for u in cells:
            for v in cells:
                if u >= v:
                    continue
                swap, corr = pair_relation(v, u)  # straighten x_v x_u
                rhs = word(u, v, coeff=swap)
                if corr is not None:
                    (a, b), s = corr
                    if a in self.cells and b in self.cells:
                        rhs = rhs + word(a, b, coeff=Q_MINUS_QINV * s)
                pairs.append((f"x{v} x{u}", word(v, u), rhs))
        diag = [(i, i) for i in range(1, self.n + 2)]
        pairs.append(("diag product = 1", word(*diag), word()))
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

    The relations keep row and column degrees, and det_q has degree one in
    each row and column, so each bihomogeneous part is divided on its own,
    smallest first.  One row per candidate word w of c: d*w under (0, -word)
    keys plus a (1, w) tag.  The part reduces to tags only exactly when it
    is d times a combination of candidates, and the tags then hold minus
    that combination.  Under negated letters each row leads with its
    lex-largest word, which differs from row to row, so echelon has no
    fill-in.
    """
    d, one, m = alg.detq(), alg.spec.domain.one, alg.n + 1

    def degrees(word, shift=0):
        """(row degrees, column degrees) of a word, each entry plus shift."""
        rows, cols = [shift] * m, [shift] * m
        for p in word:
            i, j = alg.cell_of(p)
            rows[i - 1] += 1
            cols[j - 1] += 1
        return tuple(rows), tuple(cols)

    def key(word):
        return (0, tuple(-p for p in word))

    parts = {}
    for w, c in body.terms.items():
        parts.setdefault(degrees(w, shift=-1), {})[key(w)] = c
    quotient = {}
    for deg in sorted(parts, key=lambda deg: sum(deg[0])):
        if min(deg[0] + deg[1]) < 0:
            return None
        rows = []
        for w in combinations_with_replacement(range(len(alg.spec.alphabet)), sum(deg[0])):
            if degrees(w) == deg:
                dw = d * NCElement(alg.spec, {w: one}, reduce=False)
                rows.append({**{key(v): c for v, c in dw.terms.items()}, (1, w): one})
        rest = reduce_row(parts[deg], echelon(rows))
        if any(tag == 0 for tag, _ in rest):
            return None
        quotient.update((w, -c) for (_, w), c in rest.items())
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


def gl_inverse_det(a, k):
    """Multiply a GLElement by det_q^{-k}."""
    return GLElement(a.alg, a.body, a.detpow - k)
