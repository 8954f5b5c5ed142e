"""Free associative algebra over Z[q,q^-1] or k(q) with quadratic rewriting.

Rule tables normalize the quantum matrix algebras (M, SL, GL, the Borels)
and, at q = 1, the enveloping algebra U(h) (classical.LieStructure).  Words
are tuples of alphabet positions; the generator order is the order of the
alphabet list.  Rules rewrite descending adjacent pairs and must carry a
degree-lexicographic termination witness.  The one non-quadratic relation,
det_q = 1 in SL and the Borels (det_q t = 1 in GL), plugs in as a reducer,
held to the same witness: each replacement goes down in deg-lex.

Rewriting runs over Z[q,q^-1] whatever the coefficients of the elements:
every rule, normal form and reducer holds LaurentPoly coefficients, and
an element's coefficients (RatFunc over k(q)) meet them only where a normal
form is multiplied by them, with the element's coefficient on the left.

Algebras without a rule table, such as U_q(n+-) under the Serre relations,
are normalized by graded linear algebra (graded_component_basis): one
multidegree component at a time, the relations that identify two words
(c*a - c*b, like the far commutations) merge its words into classes, and
only the other relations' rows are row-reduced over k(q), on one
representative word per class.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple
from heapq import heappop, heappush
from itertools import combinations
from math import factorial

from .laurent import LAURENT, LP_ONE, RATFUNC, LaurentPoly, RatFunc
from .lincomb import LinComb, accumulate, back_substitute, concat_product, echelon, format_terms


# entries a memo keeps at most; past it, new results are computed but not kept
CACHE_LIMIT = 300_000

# key of a check -> its result; one entry per distinct presentation checked
_certificates = {}


def remember(memo, key, build):
    """memo[key], or build() kept there while memo holds fewer than
    CACHE_LIMIT entries (read now); a build that raises keeps nothing."""
    try:
        return memo[key]
    except KeyError:
        pass
    value = build()
    if len(memo) < CACHE_LIMIT:
        memo[key] = value
    return value


def certified(key, check):
    """The result of check(), run once per key in this process.

    key must be the exact data the check reads, so that an equal key gives
    an equal result.  Results are kept up to CACHE_LIMIT keys; a check that
    raises keeps nothing, so it raises again on the next call.  A
    presentation computes the key of its data once and interns it
    (intern_key), so a build of it finds its certificate by identity.
    """
    return remember(_certificates, key, check)


class TableKey:
    """Key data with its hash computed once.  Equal data are interned to one
    object (intern_key), so a memo that holds it finds it by identity."""

    __slots__ = ("data", "_hash")

    def __init__(self, data):
        self.data = data
        self._hash = hash(data)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, TableKey):
            return NotImplemented
        return self._hash == other._hash and self.data == other.data


# TableKey -> itself: one object per distinct key data
_interned = {}


def intern_key(data):
    """The one TableKey of data in this process, kept up to CACHE_LIMIT
    keys."""
    key = TableKey(data)
    return remember(_interned, key, lambda: key)


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


def deglex_key(word):
    """Sort key of the degree-lexicographic order: length, then letters."""
    return len(word), word


@dataclass(frozen=True, order=True)
class GenSym:
    """A named generator: family tag plus 1-based indices; one with no
    indices prints as its family alone."""

    family: str
    indices: tuple

    def __str__(self):
        if not self.indices:
            return self.family
        return f"{self.family}[{','.join(str(i) for i in self.indices)}]"


class AlgebraSpec:
    """Alphabet, generator order, rewrite rules, coefficient domain, and an
    optional reducer applied after the rules.

    reducer is None or an object with a name and reduce_word(spec, word),
    which returns None (no redex) or a dict {word: coeff} replacing a
    normal word.  Every word of the replacement's normal form must be
    deg-lex smaller than the word replaced, the witness the rules carry
    too; reduce_terms raises NonTerminating on a replacement that is not.

    The rules, the normal-form memo and the reducer's replacements are
    over Z[q,q^-1] whatever the domain; the domain types the coefficients of
    the elements, and reduce_terms returns coefficients of the type it is
    given.  So one spec serves a k(q) algebra and Laurent numerators alike.
    The term budget of normal_form_word is QFUN_MAX_TERMS as it reads when
    the spec is built.

    table is the RuleTable the spec was copied from (RuleTable.new_spec),
    or None; rule_table_key trusts its key while the spec's letters and
    rules still equal the table's.
    """

    def __init__(self, alphabet, domain=LAURENT, name=""):
        self.alphabet = list(alphabet)
        self.domain = domain
        self.name = name
        self.index = {g: i for i, g in enumerate(self.alphabet)}
        if len(self.index) != len(self.alphabet):
            raise ValueError("duplicate generators in alphabet")
        self.rules = {}
        self.reducer = None
        self.term_budget = _term_budget()
        self._nf_cache = {}
        self.table = None

    def clear_caches(self):
        """Forget the normal-form memo, as after a change to the rules."""
        self._nf_cache.clear()

    # -- rules ---------------------------------------------------------------

    def add_rule(self, a, b, rhs_terms):
        """Install a rule for the descending pair (a, b), positions a > b.

        rhs_terms: iterable of (coeff, word), each coeff in Z[q,q^-1].  Every
        rhs word must be strictly smaller than (a, b) in deglex order; this is
        the termination witness.
        """
        if a <= b:
            raise ValueError(f"rule lhs {(a, b)} is not descending")
        lhs = (a, b)
        cleaned = []
        for coeff, word in rhs_terms:
            coeff = LAURENT.coerce(coeff)
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
        return deglex_key(w1) < deglex_key(w2)

    def rules_total_on_descending_pairs(self):
        missing = []
        for a in range(len(self.alphabet)):
            for b in range(a):
                if (a, b) not in self.rules:
                    missing.append((a, b))
        return missing

    # -- normalization ---------------------------------------------------

    def normal_form_word(self, word):
        """Normal form of a single word as {word: LaurentPoly}; memoized."""
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        budget = self.term_budget
        one = LP_ONE
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
        """Full normal form of a {word: coeff} dict, the reducer included.

        The coefficients come out of the type they go in: RatFunc for a k(q)
        element, LaurentPoly for a numerator over Z[q,q^-1].
        """
        out = {}
        for w, c in terms.items():
            if c:
                accumulate(out, self.normal_form_word(w).items(), None if c is LP_ONE else c, LP_ONE)
        if self.reducer is not None:
            out = self._apply_reducer(out)
        return out

    def _apply_reducer(self, terms):
        """Rewrite terms in place until no word has a redex of the reducer.

        Each replacement must go down in deg-lex (NonTerminating if not),
        a well-order on words of bounded length, so the rewriting stops
        whatever the order of the targets.  Targets are taken deg-lex
        largest first from a heap of the words with a redex, in terms or
        brought in by a replacement: those a replacement brings in are
        smaller than every target taken so far, so no word is replaced
        twice, and only they are searched for a new redex.
        """
        reduce_word = self.reducer.reduce_word
        redexes = {}
        heap = []

        def find(words):
            for w in words:
                repl = reduce_word(self, w)
                if repl is not None:
                    redexes[w] = repl
                    heappush(heap, (-len(w), tuple(-p for p in w), w))

        find(terms)
        while heap:
            target = heappop(heap)[2]
            repl = redexes.pop(target)
            c = terms.pop(target, None)
            if c is None:
                continue
            expanded = {}
            for rw, rc in repl.items():
                accumulate(expanded, self.normal_form_word(rw).items(), rc)
            for nw in expanded:
                if not self._deglex_less(nw, target):
                    raise NonTerminating(
                        f"{self.reducer.name}: {self.word_str(nw)} is not deg-lex "
                        f"below {self.word_str(target)}"
                    )
            new = [nw for nw in expanded if nw not in terms and nw not in redexes]
            accumulate(terms, expanded.items(), c, LP_ONE)
            find(new)
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
        if not isinstance(other, NCElement):
            return NotImplemented
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


class RuleTable(NamedTuple):
    """A presentation's letters and rules, frozen once (rule_table) and
    shared by every spec copied from it; never mutated.

    alphabet: the letters in order; index: letter -> position; rules: the
    rule table over Z[q,q^-1]; key: its rule_table_key, computed and
    interned when the table is frozen.
    """

    alphabet: tuple
    index: dict
    rules: dict
    key: TableKey

    def new_spec(self, domain=LAURENT, name=""):
        """A spec with its own copy of the index and the rules, a cold
        normal-form memo, no reducer, and the term budget read now; no
        letter is hashed again."""
        spec = AlgebraSpec((), domain=domain, name=name)
        spec.alphabet = list(self.alphabet)
        spec.index = self.index.copy()
        spec.rules.update(self.rules)
        spec.table = self
        return spec


def rule_table(spec):
    """spec's letters and rules as a RuleTable, with their key."""
    alphabet = tuple(spec.alphabet)
    rules = dict(spec.rules)
    return RuleTable(alphabet, dict(spec.index), rules, _table_key(alphabet, rules))


def _table_key(alphabet, rules):
    return intern_key((alphabet, tuple(sorted(rules.items()))))


def rule_table_key(spec):
    """The data confluence_check reads, the alphabet and the rules, as an
    interned TableKey.

    Rules are over Z[q,q^-1] whatever the spec's domain, so a table has one
    key over either domain.  The reducer is not part of it.  The key of a
    spec copied from a RuleTable is the table's, computed once for the
    presentation, while the spec's rules and letters equal the table's: a
    dict compare, by identity for every rule it copied.  A spec with
    changed rules, or with no table, is keyed from its own data.
    """
    table = spec.table
    if table is not None and spec.rules == table.rules and tuple(spec.alphabet) == table.alphabet:
        return table.key
    return _table_key(tuple(spec.alphabet), spec.rules)


def confluence_check(spec):
    """Check local confluence on all strictly descending length-3 words.

    Both reduction strategies (left pair first / right pair first) must give
    the same full normal form.  Returns a fresh report dict; failures are
    listed, not raised.  The report depends only on rule_table_key(spec), so
    the overlaps are rewritten once per rule table in a process (certified),
    and each build of a presentation looks its report up by the key its
    table holds.
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
    multidegree.  Returns (all_words, basis_words, proj), where proj maps
    every word to its expansion {basis_word: coeff} modulo the ideal: the
    reduced echelon form over k(q) of the rows u*rel*v (ideal_rows), led by
    their lex-first words, with the basis words the words that lead no row.

    A relation c*a - c*b of two words is an identification: its rows only
    identify u*a*v with u*b*v, as the commutations of a partially
    commutative monoid do (Cartier-Foata, LNM 85, 1969).  So the words are
    first split into the classes these rows link (union-find), and only the
    other relations' rows are row-reduced, each word replaced by the
    representative of its class, its lex-last word.  The basis and proj are
    those of the full reduction: every other word x of a class leads the row
    x - rep(x) of the ideal, so x is not a basis word and proj[x] =
    proj[rep(x)]; and a vector of the ideal led by a representative r maps,
    word to representative, to a reduced row led by r again, since its
    words are >= r and r is the only one of them in r's class.  A
    representative is therefore a basis word exactly when no reduced row
    leads with it.  The words of a class share one expansion dict, which a
    caller must not change.
    """
    # the multinomial count of the words, checked before enumerating them
    count = factorial(sum(multidegree))
    for m in multidegree:
        count //= factorial(m)
    if count > cap:
        raise DimensionOverflow(f"graded component has {count} words (cap {cap})")
    words = words_of_multidegree(n_letters, multidegree)
    word_ix = {w: i for i, w in enumerate(words)}
    identifications, others = [], []
    for rel in relations:
        if len(rel) == 2:
            c, d = rel.values()
            if c and not c + d:  # c*a - c*b, c nonzero
                identifications.append(rel)
                continue
        if rel:
            others.append(rel)
    # union-find over word positions; a root is linked under the larger
    # root, so each root is the lex-last word of its class
    rep = list(range(len(words)))

    def find(i):
        while rep[i] != i:
            rep[i] = rep[rep[i]]
            i = rep[i]
        return i

    for i, u, v, rel in _occurrences(words, identifications):
        _, b = rel  # words[i] is u*a*v, a the first word of rel
        r, s = find(i), find(word_ix[u + b + v])
        if r != s:
            rep[min(r, s)] = max(r, s)
    # a parent's position is above its child's, so a pass from the top
    # down points every position at its root
    for i in reversed(range(len(words))):
        rep[i] = rep[rep[i]]
    # the other rows over the representatives; equal rows are reduced once
    rows = {}
    for _, u, v, rel in _occurrences(words, others):
        row = accumulate({}, ((rep[word_ix[u + w + v]], c) for w, c in rel.items()))
        if row:
            rows.setdefault(frozenset(row.items()), row)
    # proj[w] is w's representative modulo the reduced rows: a basis
    # representative is itself, and one that leads a row is minus its tail
    tails = back_substitute(echelon(rows.values(), RATFUNC.one), RATFUNC.one)
    basis = [w for i, w in enumerate(words) if rep[i] == i and i not in tails]
    expansions = {}
    for r in rep:
        if r not in expansions:
            tail = tails.get(r)
            expansions[r] = ({words[r]: RATFUNC.one} if tail is None
                             else {words[j]: -c for j, c in tail.items()})
    proj = {w: expansions[r] for w, r in zip(words, rep)}
    return words, basis, proj


def _occurrences(words, relations):
    """(i, u, v, rel) for each word words[i] = u*a*v and each relation rel
    whose first word is a.  When words lists a whole component, these are the
    (u, v) of the rows u*rel*v of ideal_rows, each once: a homogeneous rel
    fits between u and v exactly when u*a*v is a word of the component."""
    by_first = {}
    for rel in relations:
        by_first.setdefault(next(iter(rel)), []).append(rel)
    lengths = sorted({len(a) for a in by_first})
    for i, w in enumerate(words):
        for k in lengths:
            for t in range(len(w) - k + 1):
                for rel in by_first.get(w[t : t + k], ()):
                    yield i, w[:t], w[t + k :], rel


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
