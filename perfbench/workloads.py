"""Seeded job lists for the four qfun workloads and the code that runs them.

A job is one call into qfun's public API that ends in an exact verdict.  Job
lists are plain JSON data made from the seed alone, so the same seed gives
the same list byte for byte on any commit.  catalog and rootvec check a
fixed set of identities in a fixed order, so their lists do not depend on
the seed: a shuffled order would only move the cost of filling caches from
job to job, which changes the latency quantiles and the peak memory.

Each timed pass replays the list against fresh algebra objects, so every
pass starts from the same cold per-algebra caches; only module-level lazy
state (the antipode convention) is warmed once in set-up.

Every workload class has:
    make_jobs(seed) -> list of JSON-able jobs
    prepare(jobs)   -> set-up data built with qfun (catalog entries, expected
                       strings), reused by every pass
    new_pass(prep)  -> per-pass state (fresh algebras), built inside the pass
    run(state, job) -> True when the identity holds; False or an exception
                       counts as a failed job
"""

from __future__ import annotations

import random
from itertools import permutations, product

GEN_INDEX = "x[{},{}]"


# -- catalog -----------------------------------------------------------------------


class Catalog:
    """Integer-form relation and Hopf-formula catalogs, the GL variant, and
    the n=3 relation catalogs entry by entry.  The list ignores the seed."""

    name = "catalog"
    SUITES = ("intform_suite", "hopf_closure_suite", "gl_central_suite")
    FORMS = ("Q", "P", "plain")
    # entries per form of relation_catalog(form, 3); fixed by the catalog
    N3_SIZES = {"Q": 175, "P": 196, "plain": 200}

    def make_jobs(self, seed):
        jobs = [["suite", s, n] for n in (1, 2) for s in self.SUITES]
        return jobs + [
            ["relation", form, 3, k]
            for form in self.FORMS
            for k in range(self.N3_SIZES[form])
        ]

    def prepare(self, jobs):
        from qfun.intform import relation_catalog

        entries = {form: relation_catalog(form, 3) for form in self.FORMS}
        for form, got in entries.items():
            if len(got) != self.N3_SIZES[form]:
                raise RuntimeError(
                    f"relation_catalog({form!r}, 3) has {len(got)} entries, "
                    f"the job list expects {self.N3_SIZES[form]}"
                )
        return entries

    def new_pass(self, prep):
        from qfun import IntContext

        return {"ctx3": IntContext(3), "entries": prep}

    def run(self, state, job):
        import qfun
        from qfun import suites

        if job[0] == "suite":
            return getattr(suites, job[1])(ns=(job[2],))["ok"]
        _, form, n, k = job
        ctx = state["ctx3"]
        _rid, _inst, variants = state["entries"][form][k]
        # the printed formula first, then the declared variants, as
        # verify_relation_catalog does
        for _vname, lhs, rhs in variants:
            if (qfun.lift(lhs, ctx) - qfun.lift(rhs, ctx)).is_zero():
                return True
        return False


# -- coproduct -----------------------------------------------------------------------


class Coproduct:
    """Delta(ab) == Delta(a)Delta(b) and eps(ab) == eps(a)eps(b) on seeded
    elements of M_q(3) and M_q(4) over Z[q,q^-1], plus the det_q checks."""

    name = "coproduct"
    # Strata of products a*b, (n, length of a, length of b).  Every word of
    # length a is the first factor once, every word of length b the second
    # factor equally often, and the seed picks the Laurent-monomial
    # coefficients; so each pass covers the same words and its work hardly
    # depends on the seed.  The order is fixed too: the peak memory depends
    # on which jobs run once the normal-form memo is full.
    STRATA = ((3, 1, 1), (3, 2, 1), (2, 2, 2))
    PAIRING_SEED = 0
    # a fixed heavy tail: two-term elements of degree 2 at n=3, drawn once
    # from HEAVY_SEED, so their cost is the same on every seed
    HEAVY_JOBS = 3
    HEAVY_SEED = 0

    def make_jobs(self, seed):
        rng = random.Random(seed)
        jobs = [["detq", n] for n in (1, 2, 3)]
        for n, la, lb in self.STRATA:
            letters = (n + 1) ** 2
            firsts = list(product(range(letters), repeat=la))
            # every word of length lb is a second factor equally often, in
            # pairs fixed once by PAIRING_SEED: a product's cost depends on
            # its pair of words, and seeded pairs put the p90 up to 10 %
            # apart between seeds
            seconds = list(product(range(letters), repeat=lb))
            seconds *= len(firsts) // len(seconds)
            random.Random(self.PAIRING_SEED).shuffle(seconds)
            for a, b in zip(firsts, seconds):
                jobs.append(["product", n, self._element(rng, [list(a)]),
                             self._element(rng, [list(b)])])
        heavy = random.Random(self.HEAVY_SEED)
        for _ in range(self.HEAVY_JOBS):
            a, b = ([[heavy.randrange(16) for _ in range(2)] for _ in range(2)]
                    for _ in range(2))
            jobs.append(["product", 3, self._element(rng, a), self._element(rng, b)])
        return jobs

    @staticmethod
    def _element(rng, words):
        """[[word, exponent, coefficient], ...] with seeded Laurent monomials;
        letters are alphabet positions."""
        return [[w, rng.randrange(-2, 3), rng.choice((-2, -1, 1, 2))] for w in words]

    def prepare(self, jobs):
        return None

    def new_pass(self, prep):
        from qfun import MatrixAlgebra

        return {n: MatrixAlgebra(n, order="lex") for n in (2, 3)}

    @staticmethod
    def _build(alg, spec):
        from qfun import LaurentPoly

        terms = {}
        for word, exp, coeff in spec:
            w = tuple(word)
            terms[w] = terms.get(w, LaurentPoly()) + LaurentPoly({exp: coeff})
        return alg.element(terms)

    def run(self, state, job):
        if job[0] == "detq":
            from qfun import MatrixAlgebra

            return MatrixAlgebra(job[1], order="lex").verify_detq_central_grouplike()["ok"]
        _, n, sa, sb = job
        alg = state[n]
        a = self._build(alg, sa)
        b = self._build(alg, sb)
        ab = a * b
        if alg.coproduct(ab) != alg.coproduct(a) * alg.coproduct(b):
            return False
        return alg.counit(ab) == alg.counit(a) * alg.counit(b)


# -- rootvec -------------------------------------------------------------------------


class Rootvec:
    """Lusztig braid root vectors against iterated q-brackets for n=2..5,
    and the MuMap collapse leading-term checks for n=1..3.  The list ignores
    the seed."""

    name = "rootvec"
    NS = (2, 3, 4, 5)
    MU_NS = (1, 2, 3)

    def make_jobs(self, seed):
        jobs = [
            ["root", n, i, j, side]
            for n in self.NS
            for i in range(1, n + 1)
            for j in range(i + 1, n + 2)
            for side in ("E", "F")
        ]
        return jobs + [["mu_suite", n] for n in self.MU_NS]

    def prepare(self, jobs):
        from qfun import convex_order

        return {n: convex_order(n) for n in self.NS}

    def new_pass(self, prep):
        from qfun import UqAlgebra

        return {"orders": prep, "algs": {n: UqAlgebra(n) for n in self.NS}}

    def run(self, state, job):
        from qfun import root_vector_iterated, root_vector_lusztig, suites

        if job[0] == "mu_suite":
            return suites.mu_suite(ns=(job[1],))["ok"]
        _, n, i, j, side = job
        alg = state["algs"][n]
        co = state["orders"][n]
        lu = root_vector_lusztig(alg, co, co.position(i, j), side)
        return (lu - root_vector_iterated(alg, i, j, side)).is_zero()


# -- queries -------------------------------------------------------------------------

# Each query constructs its algebra from scratch inside run_command, as an
# interactive user's would.  Paired queries state one identity two ways and
# must print the same text; the second of a pair carries the verdict.

# The default SL strategy (diagonal74) raises NonTerminating at n=3 on some
# antipode products (ROADMAP item 3).  The timed draw must not fail, so its
# n=3 antipode identities use antidiag73, which terminates there; the defect
# itself is run untimed, after the passes, as this fixed corpus.
KNOWN_DEFECT_CORPUS = [
    ["nf", "--n", "3", "--algebra", "SL", "S(x[1,2])S(x[4,3])"],
    ["nf", "--n", "3", "--algebra", "SL", "S(x[4,3])S(x[1,2])"],
]


def _gen(rng, n):
    return GEN_INDEX.format(rng.randint(1, n + 1), rng.randint(1, n + 1))


def _detq_expansion(n):
    """The quantum determinant written out by permutations, as nf input."""
    parts = []
    for perm in permutations(range(1, n + 2)):
        inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                  if perm[a] > perm[b])
        word = "".join(GEN_INDEX.format(r, c) for r, c in zip(range(1, n + 2), perm))
        sign = "-" if inv % 2 else "+"
        parts.append(f"{sign} q^{inv} {word}" if inv else f"{sign} {word}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _specialize_pair(rng, n):
    """A word in r[i,j] (i != j) and phi[i] and its image at q=1 in U(h),
    under r[i,j] -> (-1)^(j-i) f[j,i] (i<j), (-1)^(i-j-1) e[j,i] (i>j),
    phi[i] -> h[i]."""
    src, dst, sign = [], [], 1
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            i = rng.randint(1, n)
            src.append(f"phi[{i}]")
            dst.append(f"h[{i}]")
            continue
        i, j = rng.sample(range(1, n + 2), 2)
        src.append(f"r[{i},{j}]")
        if i < j:
            dst.append(f"f[{j},{i}]")
            sign *= (-1) ** (j - i)
        else:
            dst.append(f"e[{j},{i}]")
            sign *= (-1) ** (i - j - 1)
    # a leading space keeps argparse from reading "-..." as an option
    return "".join(src), (" -" if sign < 0 else "") + "".join(dst)


def _cobracket_pair(rng, n):
    """A simple integer-form generator and the classical cobracket it must
    specialize to (the identities of cobracket_suite)."""
    i = rng.randint(1, n)
    kind = rng.choice(("phi", "rup", "rdown"))
    if kind == "phi":
        return f"phi:{i}", f"delta(h[{i}])"
    if kind == "rup":
        return f"r:{i},{i + 1}", f" -delta(f[{i + 1},{i}])"
    return f"r:{i + 1},{i}", f"delta(e[{i},{i + 1}])"


class Queries:
    """A seeded mix of CLI queries through qfun.cli.run_command, each cold."""

    name = "queries"
    # kind -> identities drawn at n = 1, 2, 3.  At n=3 the latencies cluster
    # by kind; with these counts the 90th percentile falls inside the n=3
    # antipode cluster, not in the gap below it, where it jumped from seed
    # to seed (with 3 antipode identities at n=3 it read 50 or 75 ms).
    MIX ={"antipode": (10, 10, 5), "coproduct": (6, 6, 6), "detq": (2, 2, 2),
           "rootvec": (4, 4, 4), "mu": (3, 3, 3), "cobracket": (4, 4, 4),
           "specialize": (4, 4, 4)}

    def make_jobs(self, seed):
        rng = random.Random(seed)
        groups = []
        for kind, counts in self.MIX.items():
            for n, count in zip((1, 2, 3), counts):
                for _ in range(count):
                    groups.append(self._draw(rng, kind, n))
        rng.shuffle(groups)
        return [job for g in groups for job in g]

    @staticmethod
    def _draw(rng, kind, n):
        """One identity as a list of jobs: ["first", argv] then ["second",
        argv] (must print what "first" printed), or one ["mu", argv, ...]."""
        N = ["--n", str(n)]
        if kind == "antipode":
            a, b = _gen(rng, n), _gen(rng, n)
            if n == 3:
                N += ["--sl-strategy", "antidiag73"]
            pair = (["nf", *N, "--algebra", "SL", f"S({a}{b})"],
                    ["nf", *N, "--algebra", "SL", f"S({b})S({a})"])
        elif kind == "coproduct":
            a, b = _gen(rng, n), _gen(rng, n)
            pair = (["nf", *N, "--algebra", "SL", f"Delta({a}{b})"],
                    ["nf", *N, "--algebra", "SL", f"Delta({a})Delta({b})"])
        elif kind == "detq":
            pair = (["detq", *N, "--algebra", "M"],
                    ["nf", *N, "--algebra", "M", _detq_expansion(n)])
        elif kind == "rootvec":
            i = rng.randint(1, n)
            root = f"{i},{rng.randint(i + 1, n + 1)}"
            pair = (["rootvec", *N, "--root", root, "--method", "braid"],
                    ["rootvec", *N, "--root", root, "--method", "iterated"])
        elif kind == "mu":
            i, j = rng.randint(1, n + 1), rng.randint(1, n + 1)
            return [["mu", ["mu", *N, "--gen", f"r:{i},{j}", "--collapse"], n, i, j]]
        elif kind == "cobracket":
            gen, ref = _cobracket_pair(rng, n)
            pair = (["cobracket", *N, "--gen", gen], ["nf", *N, "--algebra", "Uh", ref])
        elif kind == "specialize":
            src, ref = _specialize_pair(rng, n)
            pair = (["specialize", *N, src], ["nf", *N, "--algebra", "Uh", ref])
        else:
            raise ValueError(kind)
        return [["first", pair[0]], ["second", pair[1]]]

    def prepare(self, jobs):
        """Expected `mu --collapse` text, from the iterated root vectors as
        mu_suite states the leading terms."""
        expected = {}
        for job in jobs:
            if job[0] == "mu":
                _, _, n, i, j = job
                expected[(n, i, j)] = _mu_collapse_text(n, i, j)
        return expected

    def new_pass(self, prep):
        return {"expected": prep, "last": None}

    def run(self, state, job):
        from qfun.cli import run_command

        kind, argv = job[0], job[1]
        code, out = run_command(list(argv))
        if kind == "first":
            state["last"] = (code, out)
            return code == 0 and bool(out)
        last, state["last"] = state["last"], None
        if kind == "second":
            return code == 0 and last is not None and last[0] == 0 and out == last[1]
        return code == 0 and out == state["expected"][tuple(job[2:])]


def _mu_collapse_text(n, i, j):
    from fractions import Fraction

    from qfun import UqAlgebra, root_vector_iterated
    from qfun.uq import collapse_element_at_one

    if i == j:
        col = {(((), ()), ((), ())): Fraction(1)}
    elif i < j:
        f = collapse_element_at_one(root_vector_iterated(UqAlgebra(n, sl_quotient=True), i, j, "F"))
        col = {((fw, ew), ((), ())): v * (-1) ** (j - i) for (fw, ew), v in f.items()}
    else:
        e = collapse_element_at_one(root_vector_iterated(UqAlgebra(n, sl_quotient=True), j, i, "E"))
        col = {(((), ()), (fw, ew)): v * (-1) ** (i - j - 1) for (fw, ew), v in e.items()}

    def skel(fw, ew):
        bits = [f"F[{x}]" for x in fw] + [f"E[{x}]" for x in ew]
        return " ".join(bits) if bits else "1"

    lines = [f"{v} * {skel(*a)} (x) {skel(*b)}"
             for (a, b), v in sorted(col.items(), key=lambda kv: str(kv[0]))]
    return "\n".join(lines) if lines else "0"


WORKLOADS = {w.name: w for w in (Catalog(), Coproduct(), Rootvec(), Queries())}
