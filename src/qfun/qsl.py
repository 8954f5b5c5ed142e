"""Hopf algebra structure on the quantum SL and GL function algebras.

The SL algebra is the quantum matrix algebra with the quantum-determinant
relation installed as a canonical-form reduction: every monomial is rewritten
until the minimal diagonal exponent (strategy "diagonal74") or the minimal
antidiagonal exponent (strategy "antidiag73") is zero.  Antipode, Borel
quotients, and the determinant-localized GL algebra live here too.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations

from .freealg import GenSym, NCElement, PostReducer
from .laurent import RATFUNC, neg_q_power
from .lincomb import accumulate, apply_word_map
from .qmatrix import (
    MatrixAlgebra,
    TensorElement,
    build_matrix_spec,
    x_gen,
)


class NotInBorel(Exception):
    pass


def _perm_inversions(perm):
    return sum(
        1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b]
    )


def _det_substitution(n, strategy):
    """Substitution terms for the extracted determinant product.

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
            inv = _perm_inversions(perm)
            cells = tuple((t + 1, perm[t]) for t in range(n + 1))
            terms.append((-1 * neg_q_power(inv), cells))
    else:
        scale = neg_q_power(-N)
        terms.append((scale, ()))
        for perm in permutations(range(1, n + 2)):
            if all(perm[t] == n + 1 - t for t in range(n + 1)):
                continue
            inv = _perm_inversions(perm)
            cells = tuple((t + 1, perm[t]) for t in range(n + 1))
            terms.append((-1 * neg_q_power(inv) * scale, cells))
    return terms


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
        self.block_pos = frozenset(spec.index[x_gen(*ij)] for ij in self.block_cells)
        self.det_word = tuple(spec.index[x_gen(*ij)] for ij in self.block_cells)
        self.subst = [
            (spec.domain.coerce(c), tuple(spec.index[x_gen(*ij)] for ij in cells))
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


class SLAlgebra:
    """Quantum SL(n+1) function algebra with a canonical-form strategy."""

    def __init__(self, n, strategy="diagonal74", domain=RATFUNC, check_confluence=True):
        self.n = n
        self.strategy = strategy
        order = "triangular" if strategy == "diagonal74" else "antidiag"
        self.order_name = order
        self.spec = build_matrix_spec(
            n, order=order, domain=domain, name=f"SL({n + 1})/{strategy}"
        )
        self.domain = domain
        if check_confluence:
            from .freealg import confluence_check

            rep = confluence_check(self.spec)
            if not rep["ok"]:
                raise RuntimeError(f"SL spec not confluent: {rep['failures'][:3]}")
        self.reducer = DetReducer(n, strategy, self.spec)
        self.spec.post_reducers.append(self.reducer)
        # matrix context sharing the same spec for coproduct/minor machinery
        self._mat = MatrixAlgebra.__new__(MatrixAlgebra)
        self._mat.n = n
        self._mat.order_name = order
        self._mat.spec = self.spec
        self._mat.domain = domain
        self._mat._detq = None
        self._antipode_sign = None

    # -- generic context API -----------------------------------------------

    def gen(self, i, j):
        return NCElement.gen(self.spec, x_gen(i, j))

    def one(self):
        return NCElement.one(self.spec)

    def zero(self):
        return NCElement.zero(self.spec)

    def element(self, terms):
        return NCElement(self.spec, terms)

    def cell_of(self, position):
        return self.spec.alphabet[position].indices

    def coproduct(self, a):
        return self._mat.coproduct(a, left=self, right=self)

    def counit(self, a):
        return self._mat.counit(a)

    def quantum_minor(self, rows, cols):
        return self._mat.quantum_minor(rows, cols)

    # -- antipode ------------------------------------------------------------

    def antipode_sign(self):
        """+1 for exponent (j - i), -1 for (i - j); fixed by the axiom oracle."""
        if self._antipode_sign is None:
            self._antipode_sign = _select_antipode_sign()
        return self._antipode_sign

    def _antipode_gen(self, i, j, sign=None):
        sign = self.antipode_sign() if sign is None else sign
        rows = [h for h in range(1, self.n + 2) if h != j]
        cols = [k for k in range(1, self.n + 2) if k != i]
        minor = self.quantum_minor(rows, cols)
        return minor.scale(neg_q_power(sign * (j - i)))

    def antipode(self, a, sign=None):
        """Algebra anti-map extended from the minor formula on generators."""
        images = {}

        def image(p):
            ij = self.cell_of(p)
            img = images.get(ij)
            if img is None:
                img = images[ij] = self._antipode_gen(*ij, sign=sign)
            return img

        return apply_word_map(a.terms, image, NCElement.one(self.spec), reverse=True)

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


_ANTIPODE_CACHE = {}


def _select_antipode_sign():
    """Try both exponent conventions on SL(2); keep the one satisfying the
    two-sided antipode axiom on every generator."""
    if "sign" in _ANTIPODE_CACHE:
        return _ANTIPODE_CACHE["sign"]
    alg = SLAlgebra(1, strategy="diagonal74", check_confluence=False)
    chosen = None
    results = {}
    for sign in (1, -1):
        ok = True
        for i in range(1, 3):
            for j in range(1, 3):
                g = alg.gen(i, j)
                if not _antipode_axiom_holds(alg, g, sign):
                    ok = False
        results[sign] = ok
        if ok and chosen is None:
            chosen = sign
    if chosen is None:
        raise RuntimeError("no antipode exponent convention satisfies the axiom")
    _ANTIPODE_CACHE["sign"] = chosen
    _ANTIPODE_CACHE["results"] = results
    return chosen


def antipode_convention_report():
    _select_antipode_sign()
    sign = _ANTIPODE_CACHE["sign"]
    return {
        "selected_exponent": "(j-i)" if sign == 1 else "(i-j)",
        "printed_exponent": "(j-i)",
        "printed_verifies": _ANTIPODE_CACHE["results"][1],
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
        sites = [w for w in raw if red.reduce_word(spec, w) is not None]
        if not sites:
            break
        w = sites[rng.randrange(len(sites))]
        c = raw.pop(w)
        for rw, rc in red.reduce_word(spec, w).items():
            accumulate(raw, spec.normal_form_word(rw).items(), rc * c)
    return NCElement(spec, raw, reduce=False)


def pi_project(source, target, a):
    """x_ij -> rho_ij followed by the SL canonical reduction."""
    if isinstance(a, GLElement):
        return pi_project(source, target, a.body)
    terms = {}
    for w, c in a.terms.items():
        cells = tuple(source.cell_of(p) for p in w)
        tw = tuple(target.spec.index[x_gen(*ij)] for ij in cells)
        terms[tw] = terms.get(tw, target.spec.domain.zero) + c
    return NCElement(target.spec, terms)


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


class BorelAlgebra:
    """Quantum Borel: the upper (+) or lower (-) triangular quotient."""

    def __init__(self, n, sign, domain=RATFUNC):
        self.n = n
        self.sign = sign
        if sign == "+":
            cells = [(i, j) for i in range(1, n + 2) for j in range(i, n + 2)]
            offdiag = sorted(ij for ij in cells if ij[0] != ij[1])
        elif sign == "-":
            cells = [(i, j) for i in range(1, n + 2) for j in range(1, i + 1)]
            offdiag = sorted(ij for ij in cells if ij[0] != ij[1])
        else:
            raise ValueError("sign must be '+' or '-'")
        diag = [(i, i) for i in range(1, n + 2)]
        order = offdiag + diag  # diagonal letters last: exact det reduction
        self.spec = build_matrix_spec(
            n, order=order, cells=cells, domain=domain, name=f"B{sign}({n + 1})"
        )
        self.domain = domain
        from .freealg import confluence_check

        rep = confluence_check(self.spec)
        if not rep["ok"]:
            raise RuntimeError(f"Borel spec not confluent: {rep['failures'][:3]}")
        self.spec.post_reducers.append(DiagProductReducer(n, self.spec))
        self.cells = set(cells)

    def gen(self, i, j):
        if (i, j) not in self.cells:
            raise NotInBorel(f"x[{i},{j}] is not a generator of B{self.sign}")
        return NCElement.gen(self.spec, x_gen(i, j))

    def one(self):
        return NCElement.one(self.spec)

    def zero(self):
        return NCElement.zero(self.spec)

    def cell_of(self, position):
        return self.spec.alphabet[position].indices

    def coproduct(self, a):
        """Truncated comultiplication: the image of the SL one."""
        out = {}
        for w, c in a.terms.items():
            pieces = [((), ())]
            for p in w:
                i, j = self.cell_of(p)
                nxt = []
                for wl, wr in pieces:
                    for k in range(1, self.n + 2):
                        if (i, k) in self.cells and (k, j) in self.cells:
                            nxt.append((wl + ((i, k),), wr + ((k, j),)))
                pieces = nxt
            for wl, wr in pieces:
                lw = tuple(self.spec.index[x_gen(*ij)] for ij in wl)
                rw = tuple(self.spec.index[x_gen(*ij)] for ij in wr)
                key = (lw, rw)
                out[key] = out.get(key, self.spec.domain.zero) + c
        return TensorElement(self, self, out)

    def counit(self, a):
        tot = self.spec.domain.zero
        for w, c in a.terms.items():
            if all(self.cell_of(p)[0] == self.cell_of(p)[1] for p in w):
                tot = tot + c
        return tot

    def defining_relation_pairs(self):
        """All (lhs, rhs) pairs of the presentation, for map checks."""
        pairs = []
        cells = sorted(self.cells)
        for u in cells:
            for v in cells:
                if u >= v:
                    continue
                from .qmatrix import pair_relation

                swap, corr = pair_relation(v, u)  # straighten x_v x_u
                lhs = self.gen(*v) * self.gen(*u)
                rhs = (self.gen(*u) * self.gen(*v)).scale(swap)
                if corr is not None:
                    (a, b), s = corr
                    if a in self.cells and b in self.cells:
                        from .laurent import Q_MINUS_QINV

                        rhs = rhs + (self.gen(*a) * self.gen(*b)).scale(
                            Q_MINUS_QINV * s
                        )
                pairs.append((f"x{v} x{u}", lhs, rhs))
        diag_word = tuple(
            self.spec.index[x_gen(i, i)] for i in range(1, self.n + 2)
        )
        pairs.append(
            (
                "diag product = 1",
                NCElement(self.spec, {diag_word: self.spec.domain.one}),
                self.one(),
            )
        )
        return pairs


def borel_quotient(sl, borel, a):
    """Kill the complementary triangle and reduce in the Borel."""
    out = {}
    for w, c in a.terms.items():
        cells = [sl.cell_of(p) for p in w]
        if any(ij not in borel.cells for ij in cells):
            continue
        tw = tuple(borel.spec.index[x_gen(*ij)] for ij in cells)
        out[tw] = out.get(tw, borel.spec.domain.zero) + c
    return NCElement(borel.spec, out)


def borel_antipode(borel, a, sign=None):
    """Antipode on the Borel: the minor formula with the complementary
    triangle set to zero."""
    n = borel.n
    if sign is None:
        sign = _select_antipode_sign()
    images = {}

    def gen_image(i, j):
        img = images.get((i, j))
        if img is not None:
            return img
        rows = [h for h in range(1, n + 2) if h != j]
        cols = [k for k in range(1, n + 2) if k != i]
        terms = {}
        for perm in permutations(range(n)):
            cells = [(rows[t], cols[perm[t]]) for t in range(n)]
            if any(c not in borel.cells for c in cells):
                continue
            inv = _perm_inversions(perm)
            word = tuple(borel.spec.index[x_gen(*c)] for c in cells)
            coeff = borel.spec.domain.coerce(neg_q_power(inv + sign * (j - i)))
            terms[word] = terms.get(word, borel.spec.domain.zero) + coeff
        img = NCElement(borel.spec, terms)
        images[(i, j)] = img
        return img

    return apply_word_map(
        a.terms, lambda p: gen_image(*borel.cell_of(p)), NCElement.one(borel.spec), reverse=True
    )


# -- GL: localization at det_q ------------------------------------------------------


class GLElement:
    """Element of the quantum GL algebra: matrix-algebra body times an
    integer power of the central det_q^{-1}."""

    __slots__ = ("alg", "body", "detpow")

    def __init__(self, alg, body, detpow=0):
        self.alg = alg
        self.body = body
        self.detpow = detpow

    @staticmethod
    def of(alg, body, detpow=0):
        return GLElement(alg, body, detpow)

    def _aligned(self, other):
        k = min(self.detpow, other.detpow)
        d = self.alg.detq()
        a = self.body
        for _ in range(self.detpow - k):
            a = a * d
        b = other.body
        for _ in range(other.detpow - k):
            b = b * d
        return a, b, k

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
        """Multiply by det_q^k (k of either sign)."""
        if k >= 0:
            d = self.alg.detq()
            body = self.body
            for _ in range(k):
                body = body * d
            return GLElement(self.alg, body, self.detpow)
        return GLElement(self.alg, self.body, self.detpow + k)

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
    """Solve body = det_q * c by linear algebra on each graded piece."""
    d = alg.detq()
    zero = alg.spec.domain.zero
    # candidate words: for each word of body, all subwords obtained by
    # removing one full row-set {1..n+1}? Simpler: solve on the span of
    # pbw words of matching degree via row reduction.
    degs = {len(w) for w in body.terms}
    if len(degs) != 1:
        # handle each homogeneous component separately
        comps = {}
        for w, c in body.terms.items():
            comps.setdefault(len(w), {})[w] = c
        parts = []
        for deg, terms in comps.items():
            part = _divide_by_detq(alg, NCElement(alg.spec, terms, reduce=False))
            if part is None:
                return None
            parts.append(part)
        out = NCElement.zero(alg.spec)
        for p in parts:
            out = out + p
        return out
    (deg,) = degs
    if deg < alg.n + 1:
        return None
    k = len(alg.spec.alphabet)
    cands = list(combinations_with_replacement(range(k), deg - (alg.n + 1)))
    cols = []
    for w in cands:
        el = d * NCElement(alg.spec, {w: alg.spec.domain.one}, reduce=False)
        cols.append(el.terms)
    # gaussian solve: express body in the span of cols
    target = dict(body.terms)
    pivots = {}
    colmap = []
    for w, col in zip(cands, cols):
        col = dict(col)
        combo = {w: alg.spec.domain.one}
        for pw, (pcol, pcombo) in list(pivots.items()):
            c = col.get(pw)
            if c:
                for kk, vv in pcol.items():
                    s = col.get(kk, zero) - c * vv
                    if s:
                        col[kk] = s
                    else:
                        col.pop(kk, None)
                for kk, vv in pcombo.items():
                    s = combo.get(kk, zero) - c * vv
                    if s:
                        combo[kk] = s
                    else:
                        combo.pop(kk, None)
        if col:
            lead = min(col)
            inv = col[lead].inverse() if hasattr(col[lead], "inverse") else None
            if inv is None:
                return None
            col = {kk: vv * inv for kk, vv in col.items()}
            combo = {kk: vv * inv for kk, vv in combo.items()}
            pivots[lead] = (col, combo)
        colmap.append(w)
    sol = {}
    for pw, (pcol, pcombo) in sorted(pivots.items()):
        c = target.get(pw)
        if c:
            for kk, vv in pcol.items():
                s = target.get(kk, zero) - c * vv
                if s:
                    target[kk] = s
                else:
                    target.pop(kk, None)
            for kk, vv in pcombo.items():
                sol[kk] = sol.get(kk, zero) + c * vv
    if target:
        return None
    return NCElement(alg.spec, sol)


def gl_antipode(alg, a, sign=None):
    """Antipode on GL: S(x_ij) = (-q)^{sign (j-i)} minor * det^{-1}."""
    if sign is None:
        sign = _select_antipode_sign()
    n = alg.n

    def gen_image(i, j):
        rows = [h for h in range(1, n + 2) if h != j]
        cols = [k for k in range(1, n + 2) if k != i]
        minor = alg.quantum_minor(rows, cols).scale(neg_q_power(sign * (j - i)))
        return GLElement(alg, minor, -1)

    out = GLElement(alg, alg.zero(), 0)
    for w, c in a.body.terms.items():
        acc = GLElement(alg, alg.one(), 0)
        for p in reversed(w):
            acc = acc * gen_image(*alg.cell_of(p))
        out = out + acc.scale(c)
    # S(det^k) = det^{-k}, det_q being group-like and central
    return out.shift_det(-a.detpow)


def gl_inverse_det(a, k):
    """Multiply a GLElement by det_q^{-k}."""
    return GLElement(a.alg, a.body, a.detpow - k)
