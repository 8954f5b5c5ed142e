"""The quantized enveloping algebra of gl(n+1) in triangular form.

Elements are sums of terms (F-word, G-exponent vector, E-word) with k(q)
coefficients.  Straightening moves E past F through the cross relation and
normalizes each F/E block against the Serre ideal by graded linear algebra:
the far commutations merge the words of a multidegree into classes, and only
the cubic Serre rows are row-reduced over k(q), on those classes.  The Serre
expansions are taken into Z[q,q^-1] as they are cached, and only the cross
relation brings in 1/(q-q^-1), once per E letter it removes, so
straightening runs over Z[q,q^-1] and reads that power off the E-words: a
product divides each of its coefficients once, with no gcd.
Braid operators, the two quantum root vector constructions, the convex
order on positive roots, the Borel isomorphisms, and the q->1 collapse of
the composite embedding all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .freealg import (CACHE_LIMIT, AlgebraMismatch, NCElement, certified, graded_component_basis,
                      intern_key, remember, rule_table_key)
from .laurent import (
    LP_ONE,
    LaurentPoly,
    RATFUNC,
    RF_ONE,
    RF_Q,
    RF_Q_MINUS_QINV,
    RatFunc,
    over_common_denominator,
)
from .lincomb import (LinComb, add_outer, apply_pair_map, apply_word_map, extend_prefix,
                      format_terms, pair_product)
from .qmatrix import perm_inversions
from .qsl import BorelAlgebra


class NotInSlForm(Exception):
    pass


RF_QINV = RatFunc.from_laurent(LaurentPoly({-1: 1}))
RF_Q_PLUS_QINV = RatFunc.from_laurent(LaurentPoly({1: 1, -1: 1}))
# the expansion of the empty F/E word
_UNIT_EXPANSION = {(): LP_ONE}


def qpow(k):
    return RatFunc.from_laurent(LaurentPoly({k: 1}))


def _q_power(k, sign=1):
    """sign q^k as a LaurentPoly."""
    return LaurentPoly.monomial(sign, k)


def _index(i, top):
    """i, when it is in 1..top; ValueError otherwise."""
    if not 1 <= i <= top:
        raise ValueError(f"index {i} is not in 1..{top}")
    return i


def _serre_relations(n):
    """The quantum Serre relations of sl(n+1) as {word: coeff} dicts, on the
    letters 1..n of the F- and E-words.  graded_component_basis takes them
    over n + 1 letters, letter 0 of degree 0."""
    rels = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
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
        """Expansion {basis word: N} of an F/E word in the graded
        Serre-complement basis, N over Z[q,q^-1] (LP_ONE for 1).  A miss
        builds the word's whole multidegree component (its cubic Serre rows
        row-reduced over the commutation classes of its words) and caches
        the expansion of every word of it, up to CACHE_LIMIT entries.  An
        expansion off Z[q,q^-1] raises NotDivisible naming its den."""
        if not word:
            return _UNIT_EXPANSION
        memo = self._serre_nf
        hit = memo.get(word)
        if hit is not None:
            return hit
        deg = [0] * (self.n + 1)
        for letter in word:
            deg[letter] += 1
        _, _, proj = graded_component_basis(self.n + 1, self.serre_relations, tuple(deg))
        # the words of a commutation class share one expansion, converted once
        converted = {}
        for w, expansion in proj.items():
            entry = converted.get(id(expansion))
            if entry is None:
                entry = converted[id(expansion)] = {b: _laurent(c) for b, c in expansion.items()}
            if w == word:
                hit = entry
            if len(memo) < CACHE_LIMIT:
                memo[w] = entry
        return hit

    # -- elements ----------------------------------------------------------------

    # Only these constructors build a triangular key; every other monomial
    # is a product of them.

    def zero(self):
        return UqElement(self, {})

    def one(self):
        return self.toral((0,) * (self.n + 1))

    def F(self, i):
        return UqElement(self, {((_index(i, self.n),), (0,) * (self.n + 1), ()): RF_ONE})

    def E(self, i):
        return UqElement(self, {((), (0,) * (self.n + 1), (_index(i, self.n),)): RF_ONE})

    def G(self, i, power=1):
        g = [0] * (self.n + 1)
        g[_index(i, self.n + 1) - 1] = power
        return self.toral(g)

    def K(self, i, power=1):
        g = [0] * (self.n + 1)
        g[_index(i, self.n) - 1] = power
        g[i] = -power
        return self.toral(g)

    def toral(self, g):
        if len(g) != self.n + 1:
            raise ValueError(f"a toral exponent vector has {self.n + 1} entries")
        if self.sl_quotient:
            g = [x - g[-1] for x in g]
        return UqElement(self, {((), tuple(g), ()): RF_ONE})

    # -- straightening --------------------------------------------------------------
    #
    # Straightening runs over Z[q,q^-1].  A raw dict is {den: {(d, 0): {key:
    # N}}}, the sum of N / (den (q-q^-1)^d) over Laurent numerators N: den is
    # the product of the dens of the coefficients that went in, and d the
    # number of cross relations applied, each of which removes one E letter
    # and brings in 1/(q-q^-1).  normalize divides each output coefficient
    # once (over_common_denominator), so only elements hold k(q)
    # coefficients.

    def _cross(self, eword, fword):
        """E-word times F-word (tuples) as {(F, g, E): N}, N over
        Z[q,q^-1]: the coefficient of a key is N / (q-q^-1)^d, d =
        len(eword) - len(E)."""
        if not eword or not fword:
            return {(fword, (0,) * (self.n + 1), eword): LP_ONE}
        key = (eword, fword)
        hit = self._cross_cache.get(key)
        if hit is not None:
            return hit
        a = eword[-1]
        prefix = eword[:-1]
        b = fword[0]
        rest = fword[1:]
        out = {}
        # E_a F_b = F_b E_a + delta_ab (K_a - K_a^{-1})/(q - q^{-1})
        # prefix * F_b * E_a * rest
        for (f1, g1, e1), c1 in self._cross(prefix, (b,)).items():
            for (f2, g2, e2), c2 in self._cross(e1 + (a,), rest).items():
                # move g1 right past f2
                s = sum(g1[j] - g1[j - 1] for j in f2)
                g = tuple(x + y for x, y in zip(g1, g2))
                c = c1 if c2 is LP_ONE else (c2 if c1 is LP_ONE else c1 * c2)
                _add_to(out, (f1 + f2, g, e2), _q_power(s) * c if s else c)
        if a == b:
            for sign, pw in ((1, 1), (-1, -1)):
                gk = [0] * (self.n + 1)
                gk[a - 1] = pw
                gk[a] = -pw
                # prefix * K_a^{pw} * rest: commute the toral factor out to
                # the left of the prefix, then right past the F-part of the
                # straightened prefix*rest
                s_e = sum(gk[j] - gk[j - 1] for j in prefix)
                for (f2, g2, e2), c2 in self._cross(prefix, rest).items():
                    s = sum(gk[j] - gk[j - 1] for j in f2)
                    g = tuple(x + y for x, y in zip(gk, g2))
                    _add_to(out, (f2, g, e2), _q_power(s_e + s, sign) * c2)
        if len(self._cross_cache) < CACHE_LIMIT:
            self._cross_cache[key] = out
        return out

    def mul_terms(self, t1, c1, t2, c2, out):
        """Product of two triangular terms with k(q) coefficients c1, c2,
        added into the raw dict out, which is returned."""
        f1, g1, e1 = t1
        _, g2, e2 = t2
        n1, n2 = c1.num, c2.num
        c = n1 if n2 is LP_ONE else (n2 if n1 is LP_ONE else n1 * n2)
        den1, den2 = c1.den, c2.den
        den = den1 if den2 is LP_ONE else (den2 if den1 is LP_ONE else den1 * den2)
        groups = out.setdefault(den, {})
        top = len(e1)
        for (fm, gm, em), v in self._cross(e1, t2[0]).items():
            power = (top - len(em), 0)
            group = groups.get(power)
            if group is None:
                group = groups[power] = {}
            # assemble F1 G^{g1} (Fm G^{gm} Em) G^{g2} E2: G^{g1} moves
            # right past Fm, G^{g2} left past Em
            s = sum(g1[j] - g1[j - 1] for j in fm) if fm else 0
            if em:
                s += sum(g2[j] - g2[j - 1] for j in em)
            if s:
                v = v * _q_power(s)
            if c is not LP_ONE:
                v = c * v
            _add_to(group, (f1 + fm, tuple(x + y + z for x, y, z in zip(g1, gm, g2)), em + e2), v)
        return out

    def normalize(self, raw):
        """The k(q) term dict of a raw dict (mul_terms): F/E blocks
        Serre-normalized, G-exponents reduced, and each coefficient divided
        once.  A coefficient equal to 1 is RF_ONE."""
        serre = self._serre_nf_word
        sl = self.sl_quotient
        by_den = {}
        for den, groups in raw.items():
            dst_groups = by_den[den] = {}
            for power, group in groups.items():
                dst = dst_groups[power] = {}
                for (fw, g, ew), c in group.items():
                    if sl and g[-1]:
                        g = tuple(x - g[-1] for x in g)
                    eexp = serre(ew)
                    for fb, fc in serre(fw).items():
                        k = c if fc is LP_ONE else c * fc
                        for eb, ec in eexp.items():
                            _add_to(dst, (fb, g, eb), k if ec is LP_ONE else ec * k)
        return over_common_denominator(by_den)


def _add_to(dst, key, v):
    """dst[key] += v for a nonzero LaurentPoly v, dropping a zero sum."""
    s = dst.get(key)
    if s is None:
        dst[key] = v
    else:
        s = s + v
        if s.terms:
            dst[key] = s
        else:
            del dst[key]


def _laurent(c):
    """A RatFunc c as a LaurentPoly, LP_ONE for 1; NotDivisible names the
    den of a c off Z[q,q^-1]."""
    num = c.to_laurent()
    return LP_ONE if num.terms == LP_ONE.terms else num


class UqElement(LinComb):
    __slots__ = ("alg",)

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    def _same(self, terms):
        return UqElement(self.alg, terms)

    def _coerce(self, c):
        return RATFUNC.coerce(c)

    def _check(self, other):
        if self.alg is not other.alg:
            raise AlgebraMismatch("U_q elements of two different UqAlgebra objects")

    def _unit_key(self):
        return ((), (0,) * (self.alg.n + 1), ())

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly, RatFunc)):
            return self.scale(other)
        if not isinstance(other, UqElement):
            return NotImplemented
        self._check(other)
        alg = self.alg
        mul_terms = alg.mul_terms
        raw = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                mul_terms(t1, c1, t2, c2, raw)
        return UqElement(alg, alg.normalize(raw))

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

    T_i is an algebra map, applied to the letter words of el's terms by
    apply_word_map: T_i(w) = T_i(w[:-1]) T_i(w[-1]), in Horner form by last
    letters.  alg memoizes T_i of every prefix of a word it maps alone
    (extend_prefix), and T_i of a letter as its one-letter prefix.
    """
    _index(i, alg.n)
    if not el.in_sl_form():
        raise NotInSlForm("element has G-exponents outside the root lattice")
    memo = alg._braid_memo

    def image(letter):
        img = memo.get((i, letter))
        if img is None:
            img = _braid_image(alg, i, letter)
            if len(memo) < CACHE_LIMIT:
                memo[(i, letter)] = img
        return img

    def extend(acc, letter):
        return image(letter) if acc is None else acc * image(letter)

    def word_value(w):
        return extend_prefix(memo, (i,) + w, None, extend, CACHE_LIMIT, start=1).terms

    return apply_word_map(_letter_words(el), image, alg.one(), word_value=word_value)


def _braid_image(alg, i, letter):
    """T_i of one letter ("F", j), ("G", g) or ("E", j) of a letter word."""
    kind, j = letter
    if kind == "F":
        if j == i:
            return (alg.K(i, -1) * alg.E(i)).scale(-1)
        if abs(i - j) == 1:
            return (alg.F(j) * alg.F(i)).scale(-1) + (alg.F(i) * alg.F(j)).scale(RF_Q)
        return alg.F(j)
    if kind == "E":
        if j == i:
            return (alg.F(i) * alg.K(i)).scale(-1)
        if abs(i - j) == 1:
            return (alg.E(i) * alg.E(j)).scale(-1) + (alg.E(j) * alg.E(i)).scale(RF_QINV)
        return alg.E(j)
    # T_i(G^g) = G^{s_i g}: the simple reflection swaps g_i and g_{i+1}
    g = list(j)
    g[i - 1], g[i] = g[i], g[i - 1]
    return alg.toral(g)


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


class ThetaRelationsFailed(RuntimeError):
    """A theta map sends a Borel relation to a nonzero element."""


# (sign, n, i, j) -> the term dict of theta_sign(x_ij) in U_q(sl(n+1))
_theta_images = {}
# (sign, n) -> ((cell, image terms) of every cell, their interned key)
_theta_keys = {}


def _theta_terms(sign, uq, i, j):
    """The term dict of theta_sign(x_ij) in uq, built once per (sign, n,
    cell) in a process, up to CACHE_LIMIT entries, and shared by the maps
    of every UqAlgebra with that n.

    Images of the non-adjacent generators are produced by the two-step
    recursion through the Borel relations, on these term dicts.
    """
    return remember(_theta_images, (sign, uq.n, i, j), lambda: _theta_build(sign, uq, i, j))


def _theta_build(sign, uq, i, j):
    def image(a, b):
        return UqElement(uq, _theta_terms(sign, uq, a, b))

    if sign == "+":
        if i == j:
            img = uq.G(i, -1)
        elif j == i + 1:
            img = (uq.F(i) * uq.G(i + 1, -1)).scale(-RF_Q_MINUS_QINV)
        elif j > i + 1:
            a, b = image(i, j - 1), image(j - 1, j)
            img = (a * b - b * a).scale(RF_Q_MINUS_QINV.inverse()) * uq.G(j - 1)
        else:
            raise ValueError("not an upper-triangular cell")
    else:
        if i == j:
            img = uq.G(i)
        elif i == j + 1:
            img = (uq.G(i) * uq.E(j)).scale(RF_Q_MINUS_QINV)
        elif i > j + 1:
            a, b = image(i - 1, j), image(i, i - 1)
            img = uq.G(i - 1, -1) * (a * b - b * a).scale(RF_Q_MINUS_QINV.inverse())
        else:
            raise ValueError("not a lower-triangular cell")
    return img.terms


def _images_key(sign, n, images):
    """The interned key of a map's (cell, image terms) pairs: the one held
    for (sign, n) when they equal the pairs it was made from (a tuple
    compare, by identity for the shared image dicts), and one made from
    their own data otherwise.  A key is held only for the shared images."""
    held = _theta_keys.get((sign, n))
    if held is not None and held[0] == images:
        return held[1]
    key = intern_key(tuple((ij, frozenset(terms.items())) for ij, terms in images))
    if all(terms is _theta_images.get((sign, n) + ij) for ij, terms in images):
        remember(_theta_keys, (sign, n), lambda: (images, key))
    return key


class ThetaMap:
    """theta_+ : B_+ -> U_q(b_-)_op or theta_- : B_- -> U_q(b_+)_op.

    The image term dicts belong to the U_q presentation: they are built
    once per (sign, n, cell) in a process (_theta_terms) and wrapped as
    elements of this map's own uq.  The Borel presentation is verified to
    map to zero at construction, once per process for each sign, Borel rule
    table and set of generator images (certified): the images this map
    returns are keyed on every build, by the key held for the shared ones
    and from their own data otherwise, so a wrong image is checked, and
    refused with ThetaRelationsFailed, on every build.
    """

    def __init__(self, sign, borel, uq):
        if not uq.sl_quotient:
            raise ValueError("theta maps land in the sl quotient")
        self.sign = sign
        self.borel = borel
        self.uq = uq
        self.n = borel.n
        self._images = {}
        images = tuple((ij, self.image(*ij).terms) for ij in sorted(borel.cells))
        # True: the certificate that the Borel presentation maps to zero
        self.relations_hold = certified(
            ("theta", sign, rule_table_key(borel.spec), _images_key(sign, uq.n, images)),
            self._check_relations)

    def _check_relations(self):
        rep = self.verify_relations()
        if not rep["ok"]:
            raise ThetaRelationsFailed(f"theta{self.sign} fails Borel relations: {rep}")
        return True

    def image(self, i, j):
        img = self._images.get((i, j))
        if img is None:
            img = self._images[(i, j)] = UqElement(self.uq, _theta_terms(self.sign, self.uq, i, j))
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
            rhs = apply_pair_map(delta.terms, word_image, word_image, RF_ONE)
            if not (lhs - UqTensor(self.uq, rhs)).is_zero():
                failures.append(f"x[{i},{j}]")
        return {"ok": not failures, "failures": failures}


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
            return alg.normalize(alg.mul_terms(u, RF_ONE, v, RF_ONE, {}))

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
    one = alg.one()

    def image(letter):
        kind, j = letter
        if kind == "F":
            return _tensor(alg, (alg.F(j), alg.K(j, -1)), (one, alg.F(j)))
        if kind == "E":
            return _tensor(alg, (alg.E(j), one), (alg.K(j), alg.E(j)))
        gg = alg.toral(j)
        return _tensor(alg, (gg, gg))

    return apply_word_map(_letter_words(el), image, _tensor(alg, (one, one)))


def _tensor(alg, *pairs):
    """sum a (x) b over the pairs (a, b) of U_q elements."""
    out = {}
    for a, b in pairs:
        add_outer(out, a.terms, b.terms, RF_ONE, RF_ONE)
    return UqTensor(alg, out)


class MuMap:
    """mu_P = (theta_+ (x) theta_-) o (rho_+ (x) rho_-) o Delta.

    A composite of algebra maps, so one algebra map on the SL words: the
    image of x_ij is sum_k theta_+(x_ik) (x) theta_-(x_kj) over the terms
    of Delta(x_ij) that rho_+ (x) rho_- keep, k >= max(i, j).
    """

    def __init__(self, sl, uq=None):
        self.sl = sl
        self.n = sl.n
        self.uq = uq or UqAlgebra(sl.n, sl_quotient=True)
        self.bplus = BorelAlgebra(sl.n, "+")
        self.bminus = BorelAlgebra(sl.n, "-")
        self.theta_plus = ThetaMap("+", self.bplus, self.uq)
        self.theta_minus = ThetaMap("-", self.bminus, self.uq)

    def apply(self, el):
        plus, minus = self.theta_plus.image, self.theta_minus.image

        def image(p):
            i, j = self.sl.cell_of(p)
            return _tensor(self.uq, *((plus(i, k), minus(k, j)) for k in range(max(i, j), self.n + 2)))

        one = self.uq.one()
        return apply_word_map(el.terms, image, _tensor(self.uq, (one, one)))


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
