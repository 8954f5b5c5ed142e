"""Free associative algebra over Z[q,q^-1] or k(q) with quadratic rewriting.

Words are tuples of alphabet positions; the generator order is the order of
the alphabet list.  Rules rewrite descending adjacent pairs and must carry a
degree-lexicographic termination witness.  Non-quadratic reductions (quantum
determinant substitution, Borel diagonal products) plug in as post-reducers
with an explicit decreasing measure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from math import factorial

from .laurent import LAURENT, LP_ONE, RATFUNC, LaurentPoly, RatFunc
from .lincomb import LinComb, accumulate, back_substitute, concat_product, echelon, format_terms


# entries a memo keeps at most; past it, new results are computed but not kept
CACHE_LIMIT = 300_000

# key of a check -> its result; one entry per distinct presentation checked
_certificates = {}


def certified(key, check):
    """The result of check(), run once per key in this process.

    key must be the exact data the check reads, so that an equal key gives
    an equal result.  Results are kept up to CACHE_LIMIT keys; a check that
    raises keeps nothing, so it raises again on the next call.
    """
    try:
        return _certificates[key]
    except KeyError:
        pass
    result = check()
    if len(_certificates) < CACHE_LIMIT:
        _certificates[key] = result
    return result


class AlgebraMismatch(Exception):
    pass


class NonTerminating(Exception):
    pass


class DimensionOverflow(Exception):
    pass


class TermBudgetExceeded(Exception):
    pass


def _term_budget():
    """QFUN_MAX_TERMS, or 10**6 when it is unset or not an integer."""
    try:
        return int(os.environ.get("QFUN_MAX_TERMS", "1000000"))
    except ValueError:
        return 10**6


@dataclass(frozen=True, order=True)
class GenSym:
    """A named generator: family tag plus one or two 1-based indices."""

    family: str
    indices: tuple

    def __str__(self):
        return f"{self.family}[{','.join(str(i) for i in self.indices)}]"


class PostReducer:
    """A pattern reduction applied after quadratic normalization.

    reduce_word returns None (irreducible) or a dict {word: coeff} replacing
    the word; measure(word) must strictly decrease on every replacement word
    after renormalization, which normal_form enforces.
    """

    name = "post"

    def reduce_word(self, spec, word):
        raise NotImplementedError

    def measure(self, spec, word):
        raise NotImplementedError


class AlgebraSpec:
    """Alphabet, generator order, rewrite rules, coefficient domain.

    The term budget of normal_form_word is QFUN_MAX_TERMS as it reads when
    the spec is built.
    """

    def __init__(self, alphabet, domain=LAURENT, name=""):
        self.alphabet = list(alphabet)
        self.domain = domain
        self.name = name
        self.index = {g: i for i, g in enumerate(self.alphabet)}
        if len(self.index) != len(self.alphabet):
            raise ValueError("duplicate generators in alphabet")
        self.rules = {}
        self.post_reducers = []
        self.term_budget = _term_budget()
        self._nf_cache = {}

    def clear_caches(self):
        """Forget the normal-form memo, as after a change to the rules."""
        self._nf_cache.clear()

    # -- rules ---------------------------------------------------------------

    def add_rule(self, a, b, rhs_terms):
        """Install a rule for the descending pair (a, b), positions a > b.

        rhs_terms: iterable of (coeff, word).  Every rhs word must be strictly
        smaller than (a, b) in deglex order; this is the termination witness.
        """
        if a <= b:
            raise ValueError(f"rule lhs {(a, b)} is not descending")
        lhs = (a, b)
        cleaned = []
        for coeff, word in rhs_terms:
            coeff = self.domain.coerce(coeff)
            if not coeff:
                continue
            if not self._deglex_less(word, lhs):
                raise ValueError(
                    f"termination witness fails: {self.word_str(word)} "
                    f">= {self.word_str(lhs)}"
                )
            cleaned.append((coeff, tuple(word)))
        if lhs in self.rules:
            raise ValueError(f"duplicate rule for {lhs}")
        self.rules[lhs] = tuple(cleaned)

    @staticmethod
    def _deglex_less(w1, w2):
        if len(w1) != len(w2):
            return len(w1) < len(w2)
        return w1 < w2

    def rules_total_on_descending_pairs(self):
        missing = []
        for a in range(len(self.alphabet)):
            for b in range(a):
                if (a, b) not in self.rules:
                    missing.append((a, b))
        return missing

    # -- normalization ---------------------------------------------------

    def normal_form_word(self, word):
        """Normal form of a single word as {word: coeff}; memoized."""
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        budget = self.term_budget
        one = self.domain.one
        rules = self.rules
        out = {}
        # (word, coeff, position where its scan for a redex starts)
        stack = [(word, one, 0)]
        while stack:
            w, c, start = stack.pop()
            for t in range(start, len(w) - 1):
                # rules exist only for descending pairs
                if w[t] > w[t + 1] and (rhs := rules.get((w[t], w[t + 1]))) is not None:
                    # the pairs inside w[:t] hold no redex, so the scan of a
                    # rewritten word starts at the pair that reaches into rw
                    pre = w[:t]
                    suf = w[t + 2 :]
                    back = t - 1 if t else 0
                    for rc, rw in rhs:
                        rc = rc if c is one else (c if rc is one else c * rc)
                        stack.append((pre + rw + suf, rc, back))
                    break
            else:
                acc = out.get(w)
                out[w] = c if acc is None else acc + c
            if len(stack) + len(out) > budget:
                raise TermBudgetExceeded(f"term budget {budget} exceeded")
        out = {w: c for w, c in out.items() if c}
        if len(self._nf_cache) < CACHE_LIMIT:
            self._nf_cache[word] = out
        return out

    def reduce_terms(self, terms):
        """Full normal form of a {word: coeff} dict, post-reducers included."""
        out = {}
        for w, c in terms.items():
            if c:
                accumulate(out, self.normal_form_word(w).items(), c)
        if self.post_reducers:
            out = self._apply_post_reducers(out)
        return out

    def _apply_post_reducers(self, terms):
        changed = True
        while changed:
            changed = False
            for red in self.post_reducers:
                # the first word in terms' order that has a redex is rewritten
                for target in terms:
                    repl = red.reduce_word(self, target)
                    if repl is not None:
                        break
                else:
                    continue
                changed = True
                c = terms.pop(target)
                bound = red.measure(self, target)
                expanded = {}
                for rw, rc in repl.items():
                    accumulate(expanded, self.normal_form_word(rw).items(), rc)
                for nw in expanded:
                    if red.measure(self, nw) >= bound:
                        raise NonTerminating(
                            f"{red.name}: measure did not decrease on "
                            f"{self.word_str(nw)}"
                        )
                accumulate(terms, expanded.items(), c)
        return terms

    # -- display -----------------------------------------------------------

    def word_str(self, word):
        if not word:
            return "1"
        return " ".join(str(self.alphabet[i]) for i in word)

    def __repr__(self):
        return f"AlgebraSpec({self.name!r}, {len(self.alphabet)} gens)"


class NCElement(LinComb):
    """Finite coefficient-weighted sum of words in an AlgebraSpec."""

    __slots__ = ("spec",)

    def __init__(self, spec, terms=None, reduce=True):
        self.spec = spec
        if terms is None:
            terms = {}
        if reduce:
            terms = spec.reduce_terms(terms)
        self.terms = terms

    def _same(self, terms):
        return NCElement(self.spec, terms, reduce=False)

    def _coerce(self, c):
        return self.spec.domain.coerce(c)

    def _check(self, other):
        if self.spec is not other.spec:
            raise AlgebraMismatch(
                f"{self.spec.name!r} vs {other.spec.name!r}"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(spec):
        return NCElement(spec, {}, reduce=False)

    @staticmethod
    def one(spec):
        return NCElement(spec, {(): spec.domain.one}, reduce=False)

    @staticmethod
    def gen(spec, g):
        if isinstance(g, GenSym):
            g = spec.index[g]
        return NCElement(spec, {(g,): spec.domain.one}, reduce=False)

    # -- arithmetic ----------------------------------------------------------

    __radd__ = LinComb.__add__

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly, RatFunc)):
            return self.scale(other)
        self._check(other)
        return NCElement(self.spec, concat_product(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly, RatFunc)):
            return self.scale(other)
        return NotImplemented

    # -- inspection ------------------------------------------------------------

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def __str__(self):
        return format_terms(
            self.terms, lambda w: (len(w), w), self.spec.word_str, style="signed"
        )

    def __repr__(self):
        return f"<NCElement {self}>"

    def to_json(self):
        return {
            "algebra": self.spec.name,
            "terms": [
                {
                    "coeff": c.to_json(),
                    "word": [
                        [self.spec.alphabet[i].family, *self.spec.alphabet[i].indices]
                        for i in w
                    ],
                }
                for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
            ],
        }


# -- confluence ---------------------------------------------------------------


def rule_table_key(spec):
    """The data confluence_check reads: the alphabet and the rules.

    A k(q) coefficient with unit den is read as its Laurent numerator, so a
    table over Z[q,q^-1] and the same table over k(q) have one key.  The
    post-reducers are not part of it.
    """
    return (
        tuple(spec.alphabet),
        tuple(
            (lhs, tuple((c.num if c.__class__ is RatFunc and c.den is LP_ONE else c, w)
                        for c, w in rhs))
            for lhs, rhs in sorted(spec.rules.items())
        ),
    )


def confluence_check(spec):
    """Check local confluence on all strictly descending length-3 words.

    Both reduction strategies (left pair first / right pair first) must give
    the same full normal form.  Returns a fresh report dict; failures are
    listed, not raised.  The report depends only on rule_table_key(spec), so
    the overlaps are rewritten once per rule table in a process (certified).
    """
    report = certified(("confluence", rule_table_key(spec)), lambda: _overlap_report(spec))
    return {**report, "failures": [dict(f) for f in report["failures"]]}


def _overlap_report(spec):
    """confluence_check's report, computed.

    An overlap abc (a > b > c) whose three rules (a, b), (b, c) and (a, c)
    are each a single-term swap xy -> s_xy yx is counted but not rewritten.
    Left first it reduces abc -> s_ab bac -> s_ab s_ac bca -> s_ab s_ac s_bc
    cba, right first abc -> s_bc acb -> s_bc s_ac cab -> s_bc s_ac s_ab cba,
    and cba is normal since rules act only on descending pairs.  The
    coefficients commute, so both ends are the same term.
    """
    k = len(spec.alphabet)
    failures = []
    checked = 0
    swaps = {lhs for lhs, rhs in spec.rules.items()
             if len(rhs) == 1 and rhs[0][1] == lhs[::-1]}
    for c, b, a in combinations(range(k), 3):
        # word (a, b, c) with a > b > c in order positions
        lhs_hi = spec.rules.get((a, b))
        lhs_lo = spec.rules.get((b, c))
        if lhs_hi is None or lhs_lo is None:
            continue
        checked += 1
        if (a, b) in swaps and (b, c) in swaps and (a, c) in swaps:
            continue
        left = {}
        for rc, rw in lhs_hi:
            accumulate(left, spec.normal_form_word(rw + (c,)).items(), rc)
        right = {}
        for rc, rw in lhs_lo:
            accumulate(right, spec.normal_form_word((a,) + rw).items(), rc)
        if left != right:
            failures.append(
                {
                    "word": spec.word_str((a, b, c)),
                    "left": str(NCElement(spec, left, reduce=False)),
                    "right": str(NCElement(spec, right, reduce=False)),
                }
            )
    return {"checked": checked, "failures": failures, "ok": not failures}


# -- graded linear algebra ------------------------------------------------------


def words_of_multidegree(n_letters, multidegree):
    """All words over letters 0..n_letters-1 with the given letter counts,
    in lex order: the distinct permutations of the letter multiset, each
    made from the last by the next-permutation step (Knuth, TAOCP 7.2.1.2,
    Algorithm L)."""
    w = [i for i, m in enumerate(multidegree) for _ in range(m)]
    words = [tuple(w)]
    while True:
        j = len(w) - 2
        while j >= 0 and w[j] >= w[j + 1]:
            j -= 1
        if j < 0:
            return words
        k = len(w) - 1
        while w[k] <= w[j]:
            k -= 1
        w[j], w[k] = w[k], w[j]
        w[j + 1 :] = reversed(w[j + 1 :])
        words.append(tuple(w))


def graded_component_basis(n_letters, relations, multidegree, cap=20000):
    """Basis and reduction map for a graded piece of a free algebra mod ideal.

    relations: list of {word: RatFunc} dicts, each homogeneous in the letter
    multidegree.  Spans the two-sided ideal piece by u*rel*v, row reduces over
    k(q), and returns (all_words, basis_words, proj) where proj maps every
    word to its expansion {basis_word: coeff} modulo the ideal.
    """
    # the multinomial count of the words, checked before enumerating them
    count = factorial(sum(multidegree))
    for m in multidegree:
        count //= factorial(m)
    if count > cap:
        raise DimensionOverflow(f"graded component has {count} words (cap {cap})")
    words = words_of_multidegree(n_letters, multidegree)
    # the lex-first word of each row leads; proj[w] is w modulo the ideal,
    # written in the words that lead no pivot row: a basis word is itself,
    # and a pivot word is minus the tail of its reduced row
    tails = back_substitute(echelon(ideal_rows(n_letters, relations, multidegree, words)))
    basis = [w for i, w in enumerate(words) if i not in tails]
    proj = {}
    for i, w in enumerate(words):
        tail = tails.get(i)
        proj[w] = {w: RATFUNC.one} if tail is None else {words[j]: -c for j, c in tail.items()}
    return words, basis, proj


def ideal_rows(n_letters, relations, multidegree, words):
    """The rows u*rel*v of the ideal's piece in a multidegree, as sparse rows
    over the positions of words, which lists every word of it."""
    word_ix = {w: i for i, w in enumerate(words)}
    rows = []
    for rel in relations:
        if not rel:
            continue
        rel_deg = [0] * n_letters
        some_word = next(iter(rel))
        for letter in some_word:
            rel_deg[letter] += 1
        rem = [m - r for m, r in zip(multidegree, rel_deg)]
        if any(x < 0 for x in rem):
            continue
        for left_deg in _split_multidegrees(rem):
            for u in words_of_multidegree(n_letters, left_deg):
                right = [r - l for r, l in zip(rem, left_deg)]
                for v in words_of_multidegree(n_letters, right):
                    row = accumulate({}, ((word_ix[u + rw + v], rc) for rw, rc in rel.items()))
                    if row:
                        rows.append(row)
    return rows


def _split_multidegrees(rem):
    """All componentwise splittings left <= rem."""
    if not rem:
        yield ()
        return
    head = rem[0]
    for rest in _split_multidegrees(rem[1:]):
        for h in range(head + 1):
            yield (h,) + rest
