"""Sparse linear combinations: the one owner of {key: coeff} arithmetic.

Every element type in qfun (words in a free algebra, word pairs in a tensor
square, triangular U_q terms, PBW words, formal integer-form expressions)
stores a dict from keys to nonzero coefficients.  The rules for that dict
live here: zero coefficients are never stored, and a public operation never
mutates its operands, because elements sit in caches and are shared.  The
sparse row reduction over a field (echelon, reduce_row, back_substitute)
lives here too.

So do the products and maps built from letters: concat_product multiplies
word-keyed dicts, apply_word_map extends letter images to words and
apply_pair_map extends two key maps to pair keys.  The map helpers call each
image once per distinct letter or key in one call, so callers keep no memo.
A map that is memoized across calls extends the longest memoized prefix of
a word one letter at a time (extend_prefix).
Pair-keyed (tensor) dicts are summed by add_pair_products alone: add_outer,
pair_product and apply_pair_map call it.
"""

from __future__ import annotations


def accumulate(dst, items, coeff=None, one=None):
    """dst[key] += c for each (key, c) in items, in place, each c first
    multiplied by coeff when one is given; zero sums are dropped.  A c that
    `is` one becomes coeff without a multiply."""
    get = dst.get
    for key, c in items:
        if coeff is not None:
            c = coeff if c is one else c * coeff
        s = get(key)
        s = c if s is None else s + c
        if s:
            dst[key] = s
        else:
            dst.pop(key, None)
    return dst


def echelon(rows):
    """Row echelon form of sparse rows over a field, as pivots
    {leading key: row scaled to leading coefficient 1}.

    The leading key of a row is its smallest key.  Each row is reduced at
    its leading key until that key is not yet a pivot; a row that vanishes
    adds nothing, so len(pivots) is the rank.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = 1 / row[lead]
                pivots[lead] = {k: c * inv for k, c in row.items()}
                break
            c = row.pop(lead)
            accumulate(row, ((k, v) for k, v in piv.items() if k != lead), -c)
    return pivots


def reduce_row(row, pivots):
    """The remainder of a row modulo the span of echelon pivots: the unique
    row with no pivot key that differs from row by a combination of pivots.

    Pops the smallest key and subtracts its pivot row; a pivot row holds only
    keys larger than its own, so the loop ends.
    """
    row = dict(row)
    out = {}
    while row:
        key = min(row)
        c = row.pop(key)
        piv = pivots.get(key)
        if piv is None:
            out[key] = c
        else:
            accumulate(row, ((k, v) for k, v in piv.items() if k != key), -c)
    return out


def back_substitute(pivots):
    """The reduced echelon form of echelon pivots, as {lead: tail}: each
    pivot row is lead + tail, and no tail holds a pivot key.

    The pivots are cleared from the largest lead down.  A pivot row holds
    only keys larger than its lead, whose tails are then already reduced, so
    each row is reduced in one pass.  The negated tail of a lead is the
    remainder of {lead: 1} modulo the pivots' span, what reduce_row returns.
    """
    tails = {}
    for lead in sorted(pivots, reverse=True):
        tail = {}
        for k, c in pivots[lead].items():
            if k == lead:
                continue
            sub = tails.get(k)
            if sub is None:
                accumulate(tail, ((k, c),))
            else:
                accumulate(tail, sub.items(), -c)
        tails[lead] = tail
    return tails


def add_pair_products(dst, triples, one=None):
    """dst += sum c * (left (x) right) over the (c, left, right) of triples,
    in place, with left and right term dicts and c nonzero.

    The one pair-product loop of qfun: every tensor product, tensor
    reduction and pair map sums into dst here.  A factor that `is` one is
    not multiplied.
    """
    get = dst.get
    for c, left, right in triples:
        for kl, cl in left.items():
            if cl is one:
                cl = c
            elif c is not one:
                cl = c * cl
            for kr, cr in right.items():
                v = cl if cr is one else (cr if cl is one else cl * cr)
                key = (kl, kr)
                s = get(key)
                if s is None:
                    dst[key] = v
                else:
                    s = s + v
                    if s:
                        dst[key] = s
                    else:
                        del dst[key]
    return dst


def add_outer(dst, a, b, coeff):
    """dst += coeff * (a tensor b) over pair keys, in place; a, b are term dicts."""
    return add_pair_products(dst, ((coeff, a, b),)) if coeff else dst


def pair_product(x, y, left, right, one=None):
    """The pair-keyed term dict of x * y, where the first factors of two keys
    (a1, b1), (a2, b2) multiply to the term dict left(a1, a2) and the second
    to right(b1, b2)."""
    return add_pair_products(
        {},
        (
            (c1 if c2 is one else (c2 if c1 is one else c1 * c2), left(a1, a2), right(b1, b2))
            for (a1, b1), c1 in x.items()
            for (a2, b2), c2 in y.items()
        ),
        one,
    )


def concat_product(a, b):
    """The term dict of sum c1 c2 (w1 + w2) over the words w1 of a and w2 of
    b, before any reduction."""
    out = {}
    for w1, c1 in a.items():
        accumulate(out, ((w1 + w2, c1 * c2) for w2, c2 in b.items()))
    return out


def apply_word_map(terms, image, one, reverse=False):
    """sum_w c_w image(w_1) ... image(w_k) over a {word: c_w} dict.

    image maps a letter to an element and is called once per distinct
    letter; one is the unit of the target, which starts every product.
    reverse=True multiplies the letters right to left, as an
    anti-homomorphism does.
    """
    images = {}
    out = {}
    for w, c in terms.items():
        acc = one
        for letter in reversed(w) if reverse else w:
            img = images.get(letter)
            if img is None:
                img = images[letter] = image(letter)
            acc = acc * img
        accumulate(out, acc.terms.items(), c)
    return one._same(out)


def extend_prefix(memo, word, unit, extend, limit, start=0):
    """The value of word under a map with value(word[:start]) = unit and
    value(w) = extend(value(w[:-1]), w[-1]) on longer prefixes w, such as an
    algebra map applied to a word.

    memo maps words to values.  The longest memoized prefix of word longer
    than start is extended one letter at a time, and every prefix on the way
    is memoized while memo holds fewer than limit entries.  A leading letter
    that names the map lets one memo serve several maps.
    """
    k = len(word)
    while k > start and word[:k] not in memo:
        k -= 1
    value = memo[word[:k]] if k > start else unit
    for t in range(k, len(word)):
        value = extend(value, word[t])
        if len(memo) < limit:
            memo[word[: t + 1]] = value
    return value


def apply_pair_map(terms, left, right):
    """sum c left(a) (x) right(b) over a {(a, b): c} dict, as a new pair-keyed
    term dict.

    left and right map a key to a term dict.  Each is called once per
    distinct key, and right is not called for a pair whose left image is
    empty.
    """
    lefts, rights = {}, {}

    def images():
        for (a, b), c in terms.items():
            la = lefts.get(a)
            if la is None:
                la = lefts[a] = left(a)
            if la:
                rb = rights.get(b)
                if rb is None:
                    rb = rights[b] = right(b)
                yield c, la, rb

    return add_pair_products({}, images())


def coeff_text(c):
    """A coefficient as printed before a monomial: in parentheses when it is
    a sum or a fraction."""
    s = str(c)
    if ("+" in s[1:]) or ("-" in s[1:]) or ("/" in s):
        return f"({s})"
    return s


def format_terms(terms, order, mono, coeff=coeff_text, style="compact"):
    """Text of a term dict, one term per key in sorted(key=order) order.

    style "compact" drops a coefficient printed "1"; "signed" also prints a
    constant term as its bare coefficient, writes "-1 m" as "-m" and
    "+ -" as "- "; "full" always prints the coefficient.
    """
    if not terms:
        return "0"
    parts = []
    signed = style == "signed"
    for k in sorted(terms, key=order):
        cs, ms = coeff(terms[k]), mono(k)
        if signed and ms == "1":
            parts.append(cs)
        elif style != "full" and cs == "1":
            parts.append(ms)
        elif signed and cs == "-1":
            parts.append(f"-{ms}")
        else:
            parts.append(f"{cs} {ms}")
    text = " + ".join(parts)
    return text.replace("+ -", "- ") if signed else text


class LinComb:
    """Base of the element types: a context plus `terms`, a {key: coeff}
    dict without zero coefficients.

    Subclasses provide `_same(terms)`, which wraps an already reduced term
    dict in a new element of the same context, and may override
    `_coerce` (scalars into the coefficient ring), `_check` (refuse an
    operand from another context) and `_unit_key` (the key of 1, or None
    when integers do not embed, as in tensor squares).
    """

    __slots__ = ("terms",)

    def _same(self, terms):
        raise NotImplementedError

    def _coerce(self, c):
        return c

    def _check(self, other):
        pass

    def _unit_key(self):
        return ()

    def _operand(self, other):
        if isinstance(other, int) and self._unit_key() is not None:
            c = self._coerce(other)
            return self._same({self._unit_key(): c} if c else {})
        self._check(other)
        return other

    # -- structure -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            key = self._unit_key()
            if key is None:
                return NotImplemented
            c = self._coerce(other)
            return self.terms == ({key: c} if c else {})
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        return self._same(accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._same({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def scale(self, coeff):
        coeff = self._coerce(coeff)
        if not coeff:
            return self._same({})
        return self._same({k: c * coeff for k, c in self.terms.items()})

    def __pow__(self, k):
        """self ** k for an integer k >= 0, multiplied out from 1; a negative
        k raises ValueError.  A type without a unit key has no powers."""
        if self._unit_key() is None:
            return NotImplemented
        if k < 0:
            raise ValueError(f"negative power {k} of a non-invertible element")
        out = self._operand(1)
        for _ in range(k):
            out = out * self
        return out
