"""Sparse linear combinations: the one owner of {key: coeff} arithmetic.

Every element type in qfun (words in a free algebra, word pairs in a tensor
square, triangular U_q terms, PBW words, formal integer-form expressions)
stores a dict from keys to nonzero coefficients.  The rules for that dict
live here: zero coefficients are never stored, and a public operation never
mutates its operands, because elements sit in caches and are shared.  The
sparse row reduction over a field (echelon, reduce_row, back_substitute)
lives here too.

So do the products and maps built from letters: concat_product multiplies
word-keyed dicts, apply_word_map extends letter images to sums of words (the
one algebra or anti-map of a sum in qfun, taken in Horner form) and
apply_pair_map extends two key maps to pair keys.  The map helpers call each
image once per distinct letter or key in one call, so callers keep no memo.
A map memoized across calls passes apply_word_map its value of one word,
which extends the longest memoized prefix one letter at a time
(extend_prefix).
Pair-keyed (tensor) dicts are summed by two loops: pair_product multiplies
two of them in one fused loop with one product of keys, and
add_pair_products sums (c, left, right) triples for the rest.
"""

from __future__ import annotations


def accumulate(dst, items, coeff=None, one=None):
    """dst[key] += c for each (key, c) in items, in place, each c first
    multiplied by coeff when one is given; zero sums are dropped.  A c that
    `is` one becomes coeff without a multiply.  coeff is the left operand,
    so a RatFunc coeff times a LaurentPoly c is one RatFunc product."""
    get = dst.get
    for key, c in items:
        if coeff is not None:
            c = coeff if c is one else coeff * c
        s = get(key)
        s = c if s is None else s + c
        if s:
            dst[key] = s
        else:
            dst.pop(key, None)
    return dst


def echelon(rows, one=None):
    """Row echelon form of sparse rows over a field, as pivots
    {leading key: row scaled to leading coefficient 1}.

    The leading key of a row is its smallest key.  Each row is reduced at
    its leading key until that key is not yet a pivot; a row that vanishes
    adds nothing, so len(pivots) is the rank.  A row whose leading
    coefficient == 1 is kept as it is, and a multiplier == 1 is not
    multiplied, for any coefficient type; nor is a coefficient that `is`
    one.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                c = row[lead]
                if c != 1:
                    inv = 1 / c
                    row = {k: inv if v is one else v * inv for k, v in row.items()}
                pivots[lead] = row
                break
            c = row.pop(lead)
            accumulate(row, ((k, v) for k, v in piv.items() if k != lead),
                       None if c == -1 else -c, one)
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


def back_substitute(pivots, one=None):
    """The reduced echelon form of echelon pivots, as {lead: tail}: each
    pivot row is lead + tail, and no tail holds a pivot key.  A multiplier
    == -1 multiplies nothing, and a coefficient that `is` one is not
    multiplied.

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
                accumulate(tail, sub.items(), None if c == -1 else -c, one)
        tails[lead] = tail
    return tails


def add_pair_products(dst, triples, one=None):
    """dst += sum c * (left (x) right) over the (c, left, right) of triples,
    in place, with left and right term dicts and c nonzero.

    Every outer product and pair map sums into dst here; products of two
    tensors take pair_product's fused copy of this loop.  A factor that `is`
    one is not multiplied.
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


def add_outer(dst, a, b, coeff, one=None):
    """dst += coeff * (a tensor b) over pair keys, in place; a, b are term
    dicts.  A factor that `is` one is not multiplied."""
    return add_pair_products(dst, ((coeff, a, b),), one) if coeff else dst


def pair_product(x, y, product, one=None, concat=False):
    """The pair-keyed term dict of x * y in a tensor square, where two keys
    (a1, b1), (a2, b2) multiply to product(a1, a2) (x) product(b1, b2), and
    product maps two keys of the algebra to the term dict of their product.
    With concat, the keys are words and product maps their concatenation
    a1 + a2, so a memoized normal form of words is passed as it is.

    The sum of c1 c2 cl cr over the terms of x, y and both products runs in
    one loop, with the skips and zero-dropping of add_pair_products; product
    is called twice per pair of terms, first factors first.  Each pair of
    coefficient objects c1, c2 is multiplied once: the terms of a scaled
    coproduct share one coefficient object.  Every operand stays alive for
    the call, so their ids key the products."""
    dst = {}
    get = dst.get
    rows = {}
    for (a1, b1), c1 in x.items():
        row = rows.get(id(c1))
        if row is None:
            row = rows[id(c1)] = {}
        for (a2, b2), c2 in y.items():
            if c2 is one:
                c = c1
            elif c1 is one:
                c = c2
            else:
                c = row.get(id(c2))
                if c is None:
                    c = row[id(c2)] = c1 * c2
            if concat:
                lt = product(a1 + a2)
                rt = product(b1 + b2)
            else:
                lt = product(a1, a2)
                rt = product(b1, b2)
            for kl, cl in lt.items():
                if cl is one:
                    cl = c
                elif c is not one:
                    cl = c * cl
                for kr, cr in rt.items():
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


def concat_product(a, b):
    """The term dict of sum c1 c2 (w1 + w2) over the words w1 of a and w2 of
    b, before any reduction."""
    out = {}
    for w1, c1 in a.items():
        accumulate(out, ((w1 + w2, c1 * c2) for w2, c2 in b.items()))
    return out


def apply_word_map(terms, image, one, reverse=False, word_value=None):
    """sum_w c_w image(w_1) ... image(w_k) over a {word: c_w} dict, or with
    reverse=True the anti-map's sum of image(w_k) ... image(w_1).  image
    maps a letter to an element and is called once per distinct letter; one
    is the unit of the target.

    The sum is taken in Horner form: the words are grouped by the letter
    multiplied last, and a group of two or more maps the sum of its words'
    rests first, so they cancel before its one product by that letter's
    image (none when they cancel to 0).  A word alone in its group takes
    word_value(w), the caller's memoized term dict of one word, when given,
    and is multiplied out from one otherwise.  A coefficient that `is` the
    unit coefficient of one is not multiplied.
    """
    unit = next(iter(one.terms.values()))
    return one._same(_horner(terms, image, {}, one, unit, reverse, word_value))


def _horner(terms, image, images, one, unit, reverse, word_value):
    """The term dict of apply_word_map's sum; images memoizes image by
    letter for one call."""
    out = {}
    groups = {}
    for w, c in terms.items():
        if w:
            groups.setdefault(w[0] if reverse else w[-1], []).append((w, c))
        else:
            accumulate(out, one.terms.items(), None if c is unit else c, unit)
    for letter, group in groups.items():
        if len(group) == 1:
            [(w, c)] = group
            if word_value is None:
                value = one
                for p in reversed(w) if reverse else w:
                    value = value * _letter_image(images, image, p)
                value = value.terms
            else:
                value = word_value(w)
            accumulate(out, value.items(), None if c is unit else c, unit)
            continue
        rest = _horner({w[1:] if reverse else w[:-1]: c for w, c in group}, image, images, one,
                       unit, reverse, word_value)
        if rest:
            product = (one._same(rest) * _letter_image(images, image, letter)).terms
            out = accumulate(out, product.items()) if out else dict(product)
    return out


def _letter_image(images, image, letter):
    img = images.get(letter)
    if img is None:
        img = images[letter] = image(letter)
    return img


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


def apply_pair_map(terms, left, right, one=None):
    """sum c left(a) (x) right(b) over a {(a, b): c} dict, as a new pair-keyed
    term dict.

    left and right map a key to a term dict.  Each is called once per
    distinct key, and right is not called for a pair whose left image is
    empty.  A coefficient that `is` one is not multiplied
    (add_pair_products).
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

    return add_pair_products({}, images(), one)


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
        """other as an element of self's type (an int as a multiple of 1), or
        NotImplemented."""
        if isinstance(other, type(self)):
            self._check(other)
            return other
        if isinstance(other, int) and self._unit_key() is not None:
            c = self._coerce(other)
            return self._same({self._unit_key(): c} if c else {})
        return NotImplemented

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
        if other is NotImplemented:
            return other
        return self._same(accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._same({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def scale(self, coeff):
        """coeff times self.  A coefficient that `is` the unit coefficient,
        self._coerce(1), becomes coeff without a multiply, and a coeff that
        is it multiplies nothing."""
        coeff = self._coerce(coeff)
        if not coeff:
            return self._same({})
        one = self._coerce(1)
        if coeff is one:
            return self._same(dict(self.terms))
        return self._same({k: coeff if c is one else c * coeff for k, c in self.terms.items()})

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
