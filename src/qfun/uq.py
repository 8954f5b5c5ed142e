"""The quantized enveloping algebra of gl(n+1) in triangular form.

Elements are sums of terms (F-word, G-exponent vector, E-word) with k(q)
coefficients.  Straightening moves E past F through the cross relation and
normalizes each F/E block against the Serre ideal by graded linear algebra:
the far commutations merge the words of a multidegree into classes, and only
the cubic Serre rows are row-reduced over k(q), on those classes.
Braid operators, the two quantum root vector constructions, the convex
order on positive roots, the Borel isomorphisms, and the q->1 collapse of
the composite embedding all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .freealg import CACHE_LIMIT, AlgebraMismatch, NCElement, certified, graded_component_basis, rule_table_key
from .laurent import (
    LaurentPoly,
    RATFUNC,
    RF_ONE,
    RF_Q,
    RF_Q_MINUS_QINV,
    RatFunc,
)
from .lincomb import (LinComb, accumulate, add_outer, apply_pair_map, apply_word_map, extend_prefix,
                      format_terms, pair_product)
from .qmatrix import perm_inversions
from .qsl import BorelAlgebra, pi_project


class NotInSlForm(Exception):
    pass


RF_QINV = RatFunc.from_laurent(LaurentPoly({-1: 1}))
RF_Q_PLUS_QINV = RatFunc.from_laurent(LaurentPoly({1: 1, -1: 1}))


def qpow(k):
    return RatFunc.from_laurent(LaurentPoly({k: 1}))


def _serre_relations(n):
    """The quantum Serre relations of sl(n+1) as {word: coeff} dicts, on the
    0-based letters that graded_component_basis takes."""
    rels = []
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                if i < j:
                    rels.append({(i, j): RF_ONE, (j, i): -RF_ONE})
            elif abs(i - j) == 1:
                rels.append({(i, i, j): RF_ONE, (i, j, i): -RF_Q_PLUS_QINV, (j, i, i): RF_ONE})
    return rels


class UqAlgebra:
    """U_q(gl(n+1)); with sl_quotient=True the central G_1...G_{n+1} is 1."""

    def __init__(self, n, sl_quotient=False):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.sl_quotient = sl_quotient
        self.serre_relations = _serre_relations(n)
        # F- or E-word -> its normal form; E and F satisfy the same relations
        self._serre_nf = {}
        # (E-word, F-word) -> their straightened product
        self._cross_cache = {}
        # (i,) + a prefix of a letter word (_letter_words) -> T_i of it
        self._braid_memo = {}

    def clear_caches(self):
        """Forget the Serre normal-form memo, the E-F straightening memo and
        the braid operator memo."""
        self._serre_nf.clear()
        self._cross_cache.clear()
        self._braid_memo.clear()

    # -- block normalization -------------------------------------------------

    def _serre_nf_word(self, word):
        """Expansion of an F/E word in the graded Serre-complement basis; a
        miss builds the word's whole multidegree component (its cubic Serre
        rows row-reduced over the commutation classes of its words) and
        caches every word of it, up to CACHE_LIMIT entries."""
        if not word:
            return {(): RF_ONE}
        memo = self._serre_nf
        hit = memo.get(word)
        if hit is not None:
            return hit
        deg = [0] * self.n
        for letter in word:
            deg[letter - 1] += 1
        # letters are 0-based inside graded_component_basis
        _, _, proj = graded_component_basis(self.n, self.serre_relations, tuple(deg))
        for w, expansion in proj.items():
            nf = {tuple(l + 1 for l in bw): c for bw, c in expansion.items()}
            w = tuple(l + 1 for l in w)
            if w == word:
                hit = nf
            if len(memo) < CACHE_LIMIT:
                memo[w] = nf
        return hit

    def _norm_g(self, g):
        if not self.sl_quotient:
            return tuple(g)
        shift = g[-1]
        return tuple(x - shift for x in g)

    # -- elements ----------------------------------------------------------------

    def zero(self):
        return UqElement(self, {})

    def one(self):
        return UqElement(self, {((), (0,) * (self.n + 1), ()): RF_ONE})

    def F(self, i):
        return UqElement(self, {((i,), (0,) * (self.n + 1), ()): RF_ONE})

    def E(self, i):
        return UqElement(self, {((), (0,) * (self.n + 1), (i,)): RF_ONE})

    def G(self, i, power=1):
        g = [0] * (self.n + 1)
        g[i - 1] = power
        return UqElement(self, {((), self._norm_g(g), ()): RF_ONE})

    def K(self, i, power=1):
        g = [0] * (self.n + 1)
        g[i - 1] = power
        g[i] = -power
        return UqElement(self, {((), self._norm_g(g), ()): RF_ONE})

    def toral(self, g):
        return UqElement(self, {((), self._norm_g(list(g)), ()): RF_ONE})

    # -- straightening --------------------------------------------------------------

    def _cross(self, eword, fword):
        """E-word times F-word as {(F, g, E): coeff}."""
        if not eword or not fword:
            return {(tuple(fword), (0,) * (self.n + 1), tuple(eword)): RF_ONE}
        key = (tuple(eword), tuple(fword))
        hit = self._cross_cache.get(key)
        if hit is not None:
            return hit
        a = eword[-1]
        prefix = eword[:-1]
        b = fword[0]
        rest = fword[1:]

        def terms():
            # E_a F_b = F_b E_a + delta_ab (K_a - K_a^{-1})/(q - q^{-1})
            # prefix * F_b * E_a * rest
            for t1, c1 in self._cross(prefix, (b,)).items():
                f1, g1, e1 = t1
                for t2, c2 in self._cross(e1 + (a,), rest).items():
                    f2, g2, e2 = t2
                    # move g1 right past f2
                    s = sum(g1[j] - g1[j - 1] for j in f2)
                    g = tuple(x + y for x, y in zip(g1, g2))
                    c = c1 if c2 is RF_ONE else (c2 if c1 is RF_ONE else c1 * c2)
                    yield (f1 + f2, g, e2), (qpow(s) * c if s else c)
            if a == b:
                for sign, pw in ((1, 1), (-1, -1)):
                    gk = [0] * (self.n + 1)
                    gk[a - 1] = pw
                    gk[a] = -pw
                    # prefix * K_a^{pw} * rest: commute the toral factor out to
                    # the left of the prefix, then right past the F-part of the
                    # straightened prefix*rest
                    s_e = sum(gk[j] - gk[j - 1] for j in prefix)
                    coeff = RF_Q_MINUS_QINV.inverse() * sign * qpow(s_e)
                    for t2, c2 in self._cross(prefix, rest).items():
                        f2, g2, e2 = t2
                        s = sum(gk[j] - gk[j - 1] for j in f2)
                        g = tuple(x + y for x, y in zip(gk, g2))
                        c = coeff if c2 is RF_ONE else coeff * c2
                        yield (f2, g, e2), (qpow(s) * c if s else c)

        out = accumulate({}, terms())
        if len(self._cross_cache) < CACHE_LIMIT:
            self._cross_cache[key] = out
        return out

    def mul_terms(self, t1, c1, t2, c2, out=None):
        """Product of two triangular terms, added into the raw term dict out
        (a new one when out is None), which is returned."""
        f1, g1, e1 = t1
        f2, g2, e2 = t2

        def terms():
            for (fm, gm, em), cc in self._cross(e1, f2).items():
                # assemble F1 G^{g1} (Fm G^{gm} Em) G^{g2} E2
                s1 = sum(g1[j] - g1[j - 1] for j in fm)
                s2 = sum(g2[j] - g2[j - 1] for j in em)
                g = tuple(a + b + c for a, b, c in zip(g1, gm, g2))
                yield (f1 + fm, g, em + e2), (cc * qpow(s1 + s2) if s1 + s2 else cc)

        c = c1 if c2 is RF_ONE else (c2 if c1 is RF_ONE else c1 * c2)
        return accumulate({} if out is None else out, terms(), None if c is RF_ONE else c, RF_ONE)

    def normalize(self, raw):
        """Serre-normalize blocks and reduce G-exponents; returns term dict."""

        def terms():
            for (fw, g, ew), c in raw.items():
                if not c:
                    continue
                g = self._norm_g(g)
                fexp = self._serre_nf_word(fw)
                eexp = self._serre_nf_word(ew)
                for fb, fc in fexp.items():
                    k = c if fc is RF_ONE else c * fc
                    for eb, ec in eexp.items():
                        yield (fb, g, eb), (k if ec is RF_ONE else ec * k)

        return accumulate({}, terms())


class UqElement(LinComb):
    __slots__ = ("alg",)

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    def _same(self, terms):
        return UqElement(self.alg, terms)

    def _coerce(self, c):
        return RATFUNC.coerce(c)

    def _unit_key(self):
        return ((), (0,) * (self.alg.n + 1), ())

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly, RatFunc)):
            return self.scale(other)
        if not isinstance(other, UqElement):
            return NotImplemented
        raw = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                self.alg.mul_terms(t1, c1, t2, c2, raw)
        return UqElement(self.alg, self.alg.normalize(raw))

    __rmul__ = __mul__

    def in_sl_form(self):
        """G exponents lie in the root lattice (sum zero; mod n+1 in the
        quotient presentation)."""
        for (_, g, _) in self.terms:
            tot = sum(g)
            if self.alg.sl_quotient:
                if tot % (self.alg.n + 1) != 0:
                    return False
            elif tot != 0:
                return False
        return True

    def __str__(self):
        return format_terms(
            self.terms, lambda k: (len(k[0]) + len(k[2]), k), _triangular_mono
        )

    __repr__ = __str__


def _triangular_mono(term):
    fw, g, ew = term
    bits = [f"F[{j}]" for j in fw]
    bits += [f"G[{i+1}]" if e == 1 else f"G[{i+1}]^{e}" for i, e in enumerate(g) if e]
    bits += [f"E[{j}]" for j in ew]
    return " ".join(bits) if bits else "1"


def q_bracket(x, y, p):
    """[x, y]_{q^p} = x y - q^p y x."""
    return x * y - (y * x).scale(qpow(p))


def root_vector_iterated(alg, i, j, side):
    """Iterated quantum root vectors:
    E_{i,i+1} = E_i,   E_{i,j} = -[E_{i,j-1}, E_{j-1,j}]_{q^-1}
    F_{j+1,j} = F_j,   F_{j,i} = q [F_{j-1,i}, F_{j,j-1}]_{q^-1}
    """
    if not (1 <= i < j <= alg.n + 1):
        raise ValueError("need 1 <= i < j <= n+1")
    if side == "E":
        if j == i + 1:
            return alg.E(i)
        return q_bracket(
            root_vector_iterated(alg, i, j - 1, "E"), alg.E(j - 1), -1
        ).scale(-1)
    if side == "F":
        if j == i + 1:
            return alg.F(i)
        return q_bracket(
            root_vector_iterated(alg, i, j - 1, "F"), alg.F(j - 1), -1
        ).scale(RF_Q)
    raise ValueError("side must be 'E' or 'F'")


# -- the convex order and the braid construction ------------------------------------


def _sk_action(k, root):
    i, j = root
    swap = {k: k + 1, k + 1: k}
    return (swap.get(i, i), swap.get(j, j))


def _word_action(word, root):
    for k in reversed(word):
        root = _sk_action(k, root)
    return root


def _perm_of_word(word, n):
    """The permutation of {1..n+1} given by the reflection word."""
    perm = list(range(n + 2))  # 1-based
    for k in word:
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
    return perm[1:]


@dataclass
class ConvexOrder:
    n: int
    reduced_word: tuple
    roots: list  # ordered list of (i, j) pairs, i < j

    def position(self, i, j):
        """1-based position of alpha(i,j) in the order."""
        return self.roots.index((i, j)) + 1

    def is_convex(self):
        pos = {r: t for t, r in enumerate(self.roots)}
        for a in self.roots:
            for b in self.roots:
                if pos[a] >= pos[b]:
                    continue
                s = (a[0], b[1]) if a[1] == b[0] else ((b[0], a[1]) if b[1] == a[0] else None)
                if s in pos:
                    if not (pos[a] <= pos[s] <= pos[b]):
                        return False
        return True


def convex_order(n):
    """The order from the reduced word (s1..sn)(s1..s_{n-1})...(s1).

    Verified reduced (length = number of inversions of the resulting
    permutation) and longest (the order-reversing permutation).
    """
    word = []
    for block in range(n, 0, -1):
        word.extend(range(1, block + 1))
    word = tuple(word)
    N = n * (n + 1) // 2
    perm = _perm_of_word(word, n)
    if len(word) != N or perm_inversions(perm) != N:
        raise RuntimeError("constructed word is not reduced of maximal length")
    if perm != list(range(n + 1, 0, -1)):
        raise RuntimeError("constructed word does not represent w0")
    roots = []
    for k in range(1, N + 1):
        alpha = (word[k - 1], word[k - 1] + 1)
        root = _word_action(word[: k - 1], alpha)
        if root[0] >= root[1]:
            raise RuntimeError("non-positive root in the convex enumeration")
        roots.append(root)
    if len(set(roots)) != N:
        raise RuntimeError("convex enumeration is not a bijection onto R+")
    return ConvexOrder(n, word, roots)


def printed_position_formula(n, i, j):
    """The printed closed form n(i,j) = i - j + sum_{h=0}^{i-1} (n-h)."""
    return i - j + sum(n - h for h in range(0, i))


def corrected_position_formula(n, i, j):
    """(j - i) + sum_{h=0}^{i-2} (n-h): the position in the block order."""
    return (j - i) + sum(n - h for h in range(0, i - 1))


def braid_T(alg, i, el):
    """Lusztig braid operator on the sl-subalgebra (F's, K's, E's).

    T_i is an algebra map, so T_i(w) = T_i(w[:-1]) T_i(w[-1]) on the letter
    word w of a term, and alg memoizes T_i of every prefix (extend_prefix).
    """
    if not el.in_sl_form():
        raise NotInSlForm("element has G-exponents outside the root lattice")
    memo = alg._braid_memo

    def extend(acc, letter):
        # T_i of a letter is T_i of the one-letter word, memoized at (i, letter)
        img = memo.get((i, letter))
        if img is None:
            img = _braid_image(alg, i, letter)
            if len(memo) < CACHE_LIMIT:
                memo[(i, letter)] = img
        return img if acc is None else acc * img

    out = {}
    for w, c in _letter_words(el).items():
        image = extend_prefix(memo, (i,) + w, None, extend, CACHE_LIMIT, start=1)
        accumulate(out, image.terms.items(), c)
    return UqElement(alg, out)


def _braid_image(alg, i, letter):
    """T_i of one letter ("F", j), ("G", g) or ("E", j) of a letter word."""
    kind, j = letter
    n = alg.n
    if kind == "F":
        if j == i:
            # -K_i^{-1} E_i
            return UqElement(alg, alg.normalize({((), _gvec(n, {i: -1, i + 1: 1}), (i,)): -RF_ONE}))
        if abs(i - j) == 1:
            return (alg.F(j) * alg.F(i)).scale(-1) + (alg.F(i) * alg.F(j)).scale(RF_Q)
        return alg.F(j)
    if kind == "E":
        if j == i:
            # -F_i K_i
            return UqElement(alg, alg.normalize({((i,), _gvec(n, {i: 1, i + 1: -1}), ()): -RF_ONE}))
        if abs(i - j) == 1:
            return (alg.E(i) * alg.E(j)).scale(-1) + (alg.E(j) * alg.E(i)).scale(RF_QINV)
        return alg.E(j)
    g = j
    if alg.sl_quotient:
        shift = sum(g) // (n + 1)
        g = tuple(x - shift for x in g)
    # T_i: K_i -> K_i^{-1}; K_j -> K_i K_j for |i-j| = 1; else fixed
    kimg = [0] * n
    for t in range(1, n + 1):
        v = sum(g[:t])
        if not v:
            continue
        if t == i:
            kimg[i - 1] -= v
        elif abs(i - t) == 1:
            kimg[i - 1] += v
            kimg[t - 1] += v
        else:
            kimg[t - 1] += v
    gimg = [0] * (n + 1)
    for t, v in enumerate(kimg, start=1):
        gimg[t - 1] += v
        gimg[t] -= v
    return UqElement(alg, alg.normalize({((), tuple(gimg), ()): RF_ONE}))


def _letter_words(el):
    """The terms of a U_q element keyed by letter words: a term
    (F-word, g, E-word) becomes ("F", j)... ("G", g) ("E", j)..., which a
    multiplicative map sends letter by letter."""
    return {
        tuple(("F", j) for j in fw) + (("G", g),) + tuple(("E", j) for j in ew): c
        for (fw, g, ew), c in el.terms.items()
    }


def root_vector_lusztig(alg, co, k, side):
    """T_{i_1}...T_{i_{k-1}} applied to the k-th simple generator."""
    if not (1 <= k <= len(co.reduced_word)):
        raise ValueError("index out of range")
    j = co.reduced_word[k - 1]
    el = alg.E(j) if side == "E" else alg.F(j)
    for i in reversed(co.reduced_word[: k - 1]):
        el = braid_T(alg, i, el)
    return el


# -- Borel isomorphisms and the composite embedding -----------------------------------


class ThetaMap:
    """theta_+ : B_+ -> U_q(b_-)_op or theta_- : B_- -> U_q(b_+)_op.

    Images of the non-adjacent generators are produced by the two-step
    recursion through the Borel relations; the Borel presentation is
    verified to map to zero at construction, once per process for each
    sign, Borel rule table and set of generator images (certified).
    """

    def __init__(self, sign, borel, uq):
        if not uq.sl_quotient:
            raise ValueError("theta maps land in the sl quotient")
        self.sign = sign
        self.borel = borel
        self.uq = uq
        self.n = borel.n
        self._images = {}
        images = tuple((ij, frozenset(self.image(*ij).terms.items())) for ij in sorted(borel.cells))
        certified(("theta", sign, rule_table_key(borel.spec), images), self._relations_hold)

    def _relations_hold(self):
        rep = self.verify_relations()
        if not rep["ok"]:
            raise RuntimeError(f"theta{self.sign} fails Borel relations: {rep}")
        return True

    def image(self, i, j):
        key = (i, j)
        img = self._images.get(key)
        if img is not None:
            return img
        uq, n = self.uq, self.n
        if self.sign == "+":
            if i == j:
                img = uq.G(i, -1)
            elif j == i + 1:
                img = UqElement(
                    uq,
                    uq.normalize(
                        {((i,), _gvec(n, {i + 1: -1}), ()): -RF_Q_MINUS_QINV}
                    ),
                )
            elif j > i + 1:
                a = self.image(i, j - 1)
                b = self.image(j - 1, j)
                img = (a * b - b * a).scale(RF_Q_MINUS_QINV.inverse()) * uq.G(j - 1)
            else:
                raise ValueError("not an upper-triangular cell")
        else:
            if i == j:
                img = uq.G(i)
            elif i == j + 1:
                img = UqElement(
                    uq,
                    uq.normalize(
                        {((), _gvec(n, {i: 1}), (j,)): RF_Q_MINUS_QINV}
                    ),
                )
            elif i > j + 1:
                a = self.image(i - 1, j)
                b = self.image(i, i - 1)
                img = uq.G(i - 1, -1) * (a * b - b * a).scale(
                    RF_Q_MINUS_QINV.inverse()
                )
            else:
                raise ValueError("not a lower-triangular cell")
        self._images[key] = img
        return img

    def apply(self, el):
        return apply_word_map(el.terms, lambda p: self.image(*self.borel.cell_of(p)), self.uq.one())

    def verify_relations(self):
        failures = []
        for name, lhs, rhs in self.borel.defining_relation_pairs():
            if not (self.apply(lhs) - self.apply(rhs)).is_zero():
                failures.append(name)
        return {"ok": not failures, "failures": failures}

    def verify_coalgebra(self):
        """Delta^op(theta(g)) == (theta (x) theta)(Delta_B(g)) on generators."""
        def word_image(w):
            return self.apply(NCElement(self.borel.spec, {w: RF_ONE}, reduce=False)).terms

        failures = []
        for (i, j) in sorted(self.borel.cells):
            lhs = uq_coproduct(self.image(i, j)).swap()
            delta = self.borel.coproduct(self.borel.gen(i, j))
            rhs = apply_pair_map(delta.terms, word_image, word_image)
            if not (lhs - UqTensor(self.uq, rhs)).is_zero():
                failures.append(f"x[{i},{j}]")
        return {"ok": not failures, "failures": failures}


def _gvec(n, entries):
    g = [0] * (n + 1)
    for i, v in entries.items():
        g[i - 1] = v
    return tuple(g)


class UqTensor(LinComb):
    """Sum of pairs of triangular terms over one UqAlgebra."""

    __slots__ = ("alg",)

    def __init__(self, alg, terms=None):
        self.alg = alg
        self.terms = terms or {}

    def _same(self, terms):
        return UqTensor(self.alg, terms)

    def _coerce(self, c):
        return RATFUNC.coerce(c)

    def _check(self, other):
        if self.alg is not other.alg:
            raise AlgebraMismatch("U_q tensors over two different UqAlgebra objects")

    def _unit_key(self):
        return None

    def __mul__(self, other):
        if not isinstance(other, UqTensor):
            return NotImplemented
        self._check(other)
        alg = self.alg

        def product(u, v):
            return alg.normalize(alg.mul_terms(u, RF_ONE, v, RF_ONE))

        return UqTensor(alg, pair_product(self.terms, other.terms, product, RF_ONE))

    def swap(self):
        return UqTensor(self.alg, {(b, a): c for (a, b), c in self.terms.items()})

    def __str__(self):
        return format_terms(
            self.terms,
            str,
            lambda k: f"{_triangular_mono(k[0])} (x) {_triangular_mono(k[1])}",
            coeff=lambda c: f"({c})",
            style="full",
        )

    __repr__ = __str__


def uq_coproduct(el):
    """Delta on U_q: F -> F (x) K^{-1}... extended multiplicatively.

    Delta(F_i) = F_i (x) G_i^{-1} G_{i+1} + 1 (x) F_i
    Delta(G^g)  = G^g (x) G^g
    Delta(E_i) = E_i (x) 1 + G_i G_{i+1}^{-1} (x) E_i
    """
    alg = el.alg
    n = alg.n

    def delta(*pairs):
        out = {}
        for a, b in pairs:
            add_outer(out, a.terms, b.terms, RF_ONE)
        return UqTensor(alg, out)

    def image(letter):
        kind, j = letter
        if kind == "F":
            return delta(
                (alg.F(j), alg.toral(_gvec(n, {j: -1, j + 1: 1}))), (alg.one(), alg.F(j))
            )
        if kind == "E":
            return delta(
                (alg.E(j), alg.one()), (alg.toral(_gvec(n, {j: 1, j + 1: -1})), alg.E(j))
            )
        gg = alg.toral(j)
        return delta((gg, gg))

    unit = ((), (0,) * (n + 1), ())
    return apply_word_map(_letter_words(el), image, UqTensor(alg, {(unit, unit): RF_ONE}))


class MuMap:
    """mu_P = (theta_+ (x) theta_-) o (rho_+ (x) rho_-) o Delta."""

    def __init__(self, sl, uq=None):
        self.sl = sl
        self.n = sl.n
        self.uq = uq or UqAlgebra(sl.n, sl_quotient=True)
        self.bplus = BorelAlgebra(sl.n, "+")
        self.bminus = BorelAlgebra(sl.n, "-")
        self.theta_plus = ThetaMap("+", self.bplus, self.uq)
        self.theta_minus = ThetaMap("-", self.bminus, self.uq)

    def apply(self, el):
        def side(borel, theta):
            def word_image(w):
                word = NCElement(self.sl.spec, {w: RF_ONE}, reduce=False)
                return theta.apply(pi_project(self.sl, borel, word)).terms

            return word_image

        delta = self.sl.coproduct(el)
        out = apply_pair_map(
            delta.terms, side(self.bplus, self.theta_plus), side(self.bminus, self.theta_minus)
        )
        return UqTensor(self.uq, out)


class PoleAtOneError(Exception):
    def __init__(self, skeleton):
        self.skeleton = skeleton
        super().__init__(f"pole at q=1 on skeleton {skeleton}")


def _collapse(terms, skeleton):
    """Sum coefficients over the keys with one skeleton and evaluate at q=1."""
    sums = {}
    for key, c in terms.items():
        k = skeleton(key)
        s = sums.get(k)
        sums[k] = c if s is None else s + c
    out = {}
    for key, c in sums.items():
        v = c.regular_at_one()
        if not isinstance(v, Fraction):
            raise PoleAtOneError(key)
        if v:
            out[key] = v
    return out


def collapse_at_one(t):
    """Sum coefficients over the toral parts of both factors and evaluate at
    q=1; keyed by the ((F-word, E-word), (F-word, E-word)) skeletons."""
    return _collapse(t.terms, lambda k: ((k[0][0], k[0][2]), (k[1][0], k[1][2])))


def collapse_element_at_one(el):
    """The same toral-collapse on a single factor: {(F-word, E-word): value}."""
    return _collapse(el.terms, lambda k: (k[0], k[2]))
