"""Packaged verification suites.

Each suite returns a report dict {"suite", "ok", "results", "errata",
"seconds"}, seconds being the suite's wall time; the CLI serializes these
and the acceptance tests assert on them.  Results are
one line per check; errata collect every printed formula that needed a
declared variant, with the variant that verified.
"""

from __future__ import annotations

import functools
import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from .classical import (
    C_SYM,
    cocycle_defect,
    e_sym,
    f_sym,
    h_sym,
    reference_cobracket,
    simple_generators,
)
from .freealg import NCElement, confluence_check, graded_component_basis
from .intform import (
    IntContext,
    IntExpr,
    chigen,
    phigen,
    poisson_cobracket,
    rgen,
    specialize_phi,
    check_span_identities,
    verify_hopf_catalog,
    verify_relation_catalog,
)
from .laurent import RF_ONE, RF_Q_MINUS_QINV, RATFUNC
from .lincomb import accumulate, apply_pair_map, echelon
from .qmatrix import MatrixAlgebra, perm_inversions
from .qsl import (
    SLAlgebra,
    _antipode_axiom_holds,
    _select_antipode_sign,
    antipode_convention_report,
    pi_project,
    sl_reduce,
)
from .uq import (
    MuMap,
    ThetaRelationsFailed,
    UqAlgebra,
    collapse_at_one,
    collapse_element_at_one,
    convex_order,
    corrected_position_formula,
    printed_position_formula,
    root_vector_iterated,
    root_vector_lusztig,
)


def _result(results, name, ok, detail=None):
    entry = {"check": name, "ok": bool(ok)}
    if detail is not None:
        entry["detail"] = detail
    results.append(entry)
    return ok


def _timed(suite):
    """The suite, with its wall time in seconds added to its report."""

    @functools.wraps(suite)
    def run(*args, **kwargs):
        t0 = time.perf_counter()
        report = suite(*args, **kwargs)
        report["seconds"] = time.perf_counter() - t0
        return report

    return run


def _report(suite, results, errata=None):
    return {
        "suite": suite,
        "ok": all(r["ok"] for r in results),
        "results": results,
        "errata": errata or [],
    }


# -- criterion 1: Hopf axioms for the SL algebra -------------------------------------


def _tensor3_of_delta(alg, t, side):
    """(Delta ox id) or (id ox Delta) applied to a TensorElement, as a
    {(w1, w2, w3): coeff} dict."""
    one = alg.spec.domain.one

    def word(w):
        return {w: one}

    if side == "left":
        pairs = apply_pair_map(t.terms, alg.coproduct_word, word)
        return {(a, b, c): v for ((a, b), c), v in pairs.items()}
    pairs = apply_pair_map(t.terms, word, alg.coproduct_word)
    return {(a, b, c): v for (a, (b, c)), v in pairs.items()}


@_timed
def hopf_axioms_suite(ns=(1, 2)):
    results = []
    sign = _select_antipode_sign()
    for n in ns:
        alg = SLAlgebra(n, strategy="diagonal74")
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                g = alg.gen(i, j)
                d = alg.coproduct(g)
                co = _tensor3_of_delta(alg, d, "left") == _tensor3_of_delta(
                    alg, d, "right"
                )
                _result(results, f"n={n} coassoc x[{i},{j}]", co)
                left = alg.zero()
                right = alg.zero()
                for (wl, wr), c in d.terms.items():
                    el = NCElement(alg.spec, {wl: RF_ONE}, reduce=False)
                    er = NCElement(alg.spec, {wr: RF_ONE}, reduce=False)
                    left = left + er.scale(c * alg.counit(el))
                    right = right + el.scale(c * alg.counit(er))
                _result(
                    results,
                    f"n={n} counit laws x[{i},{j}]",
                    left == g and right == g,
                )
                _result(
                    results,
                    f"n={n} antipode axioms x[{i},{j}]",
                    _antipode_axiom_holds(alg, g, sign),
                )
    conv = antipode_convention_report()
    errata = []
    if not conv["printed_verifies"]:
        errata.append(
            {
                "id": "antipode-exponent",
                "printed": "S(rho_ij) with exponent (j-i)",
                "used": f"exponent {conv['selected_exponent']}",
                "evidence": "two-sided antipode axiom oracle on the n=1 generators",
            }
        )
    return _report("hopf", results, errata)


# -- criterion 2: det_q central and group-like; pi kills det - 1 ---------------------


@_timed
def detq_suite(ns=(1, 2, 3)):
    results = []
    for n in ns:
        alg = MatrixAlgebra(n, order="lex")
        rep = alg.verify_detq_central_grouplike()
        _result(results, f"n={n} detq central", all(r["ok"] for r in rep["central"]))
        _result(results, f"n={n} detq group-like", rep["grouplike"])
        _result(results, f"n={n} eps(detq)=1", rep["counit"])
        sl = SLAlgebra(n, strategy="diagonal74")
        malg = MatrixAlgebra(n, order="triangular", domain=RATFUNC)
        img = pi_project(malg, sl, malg.detq() - malg.one())
        _result(results, f"n={n} pi(detq - 1) = 0", img.is_zero())
    return _report("detq", results)


# -- criterion 3: PBW counts and confluence ------------------------------------------


def _comm_monomial_count(nvars, degree):
    return sum(math.comb(nvars + d - 1, d) for d in range(degree + 1))


@_timed
def pbw_matrix_suite():
    results = []
    for n in (1, 2):
        alg = MatrixAlgebra(n, order="lex")
        k = (n + 1) ** 2
        for d in range(5):
            words = [w for w in alg.pbw_basis(d)]
            _result(
                results,
                f"M({n+1}) ordered monomials deg<={d}",
                len(words) == _comm_monomial_count(k, d),
                detail=f"{len(words)}",
            )
    for n in (1, 2, 3):
        alg = MatrixAlgebra(n, order="lex")
        rep = confluence_check(alg.spec)
        _result(
            results,
            f"confluence lex n={n}",
            rep["ok"],
            detail=f"{rep['checked']} overlaps",
        )
    # negative control: corrupt one rule and watch confluence fail
    from .qmatrix import build_matrix_spec
    from .laurent import Q

    spec = build_matrix_spec(1, order="lex")
    key = next(iter(spec.rules))
    bad = list(spec.rules[key])
    coeff, word = bad[0]
    bad[0] = (coeff * Q, word)
    spec.rules[key] = tuple(bad)
    spec.clear_caches()
    rep = confluence_check(spec)
    _result(results, "corrupted rule table fails confluence", not rep["ok"])
    return _report("pbw", results)


# -- criterion 4: the SL monomial bases ------------------------------------------------


def _commutative_hilbert(n, dmax):
    """dim_k of the degree-<=d filtration of k[z_ij]/(det - 1), brute force."""
    nvars = (n + 1) ** 2
    cells = [(i, j) for i in range(1, n + 2) for j in range(1, n + 2)]
    cell_ix = {c: t for t, c in enumerate(cells)}

    def monomials(deg):
        for combo in combinations_with_replacement(range(nvars), deg):
            m = [0] * nvars
            for t in combo:
                m[t] += 1
            yield tuple(m)

    def perm_monomial(perm):
        m = [0] * nvars
        for t in range(n + 1):
            m[cell_ix[(t + 1, perm[t])]] += 1
        return tuple(m)

    # det - 1 as {exponent vector: coeff}
    det = accumulate(
        {(0,) * nvars: Fraction(-1)},
        ((perm_monomial(p), Fraction((-1) ** perm_inversions(p)))
         for p in permutations(range(1, n + 2))),
    )

    out = []
    for d in range(dmax + 1):
        all_monos = []
        for deg in range(d + 1):
            all_monos.extend(monomials(deg))
        ix = {m: t for t, m in enumerate(all_monos)}
        rows = [
            accumulate({}, ((ix[tuple(a + b for a, b in zip(m, dm))], c) for dm, c in det.items()))
            for deg in range(max(0, d - n))
            for m in monomials(deg)
        ]
        # rank over Q
        rank = len(echelon(rows))
        out.append(len(all_monos) - rank)
    return out


def _sl_reduce_trials(alg, rng, trials, max_terms, replay_seeds):
    """Whether sl_reduce is path-independent and idempotent on `trials`
    random elements of alg, each a sum of 1..max_terms words of length < 5
    with coefficients in -3..3 drawn from rng.  Each element is replayed at
    random substitution sites once per seed in replay_seeds(trial)."""
    k = len(alg.spec.alphabet)
    ok = True
    for trial in range(trials):
        terms = {}
        for _ in range(rng.randrange(1, max_terms + 1)):
            w = tuple(rng.randrange(k) for _ in range(rng.randrange(5)))
            terms[w] = RATFUNC.coerce(rng.randrange(-3, 4))
        raw = NCElement(alg.spec, {}, reduce=False)
        raw.terms = {w: c for w, c in terms.items() if c}
        base = sl_reduce(alg, raw)
        for s in replay_seeds(trial):
            if not (sl_reduce(alg, raw, rng=random.Random(s)) - base).is_zero():
                ok = False
        if not (sl_reduce(alg, base) - base).is_zero():
            ok = False
    return ok


@_timed
def sl_pbw_suite(seed=0):
    results = []
    # canonical monomial counts vs the commutative coordinate-ring oracle
    oracle = _commutative_hilbert(1, 5)
    for strategy in ("diagonal74", "antidiag73"):
        alg = SLAlgebra(1, strategy=strategy)
        counts = [len(alg.pbw_basis(d)) for d in range(6)]
        _result(
            results,
            f"n=1 {strategy} counts = Hilbert(k[a,b,c,d]/(ad-bc-1))",
            counts == oracle,
            detail=f"{counts} vs {oracle}",
        )
    # the two canonical monomial sets are equinumerous in every degree
    for n in (1, 2):
        a74 = SLAlgebra(n, strategy="diagonal74")
        a73 = SLAlgebra(n, strategy="antidiag73")
        eq = all(
            len(a74.pbw_basis(r)) == len(a73.pbw_basis(r)) for r in range(5)
        )
        _result(results, f"n={n} the two canonical monomial sets equinumerous, r<=4", eq)
    # sl_reduce: termination and path independence on random elements
    rng = random.Random(seed)
    ok = _sl_reduce_trials(SLAlgebra(1, strategy="diagonal74"), rng, 500, 3,
                           lambda trial: (seed * 1000 + trial * 10, seed * 1000 + trial * 10 + 1))
    _result(results, "sl_reduce path-independent + idempotent on 500 random elements", ok)
    ok2 = _sl_reduce_trials(SLAlgebra(2, strategy="diagonal74"), rng, 50, 2,
                            lambda trial: (seed * 77 + trial,))
    _result(results, "sl_reduce path-independent on random n=2 elements", ok2)
    errata = [
        {
            "id": "antidiagonal-index",
            "printed": "the first PBW theorem's statement writes n+1-j / n+1-k bounds",
            "used": "the antidiagonal i+j = n+2, matching the triangular split",
        },
        {
            "id": "det-substitution-exponent",
            "printed": "substitution coefficient (-q)^(binom - l(sigma))",
            "used": "(-q)^(l(sigma) - binom), as derived from det_q = 1",
        },
    ]
    return _report("slpbw", results, errata)


# -- criterion 5 + 13: catalogs, specialization, and the GL rerun ----------------------


def _catalog_result(results, errata, check, records):
    """One result line for a list of catalog records, plus an erratum for
    each entry that verified only through a declared variant."""
    corrected = [r for r in records if r.status == "corrected"]
    errata.extend({"id": r.id, "instance": r.instance, "used": r.variant} for r in corrected)
    _result(
        results,
        check,
        all(r.status != "failed" for r in records),
        detail=f"{len(records)} checked, {len(corrected)} via variants",
    )


@_timed
def intform_suite(ns=(1, 2), gl=False):
    results = []
    errata = []
    for n in ns:
        ctx = IntContext(n, gl=gl)
        lie = ctx.lie()
        forms = ("P", "plain") if gl else ("Q", "P", "plain")
        for form in forms:
            prefix = f"{'GL ' if gl else ''}n={n} form {form}"
            recs = verify_relation_catalog(form, n, gl=gl, ctx=ctx)
            _catalog_result(results, errata, f"{prefix}: relation catalog", recs)
            # specialization: verified relations map to U(h) identities
            _result(
                results,
                f"{prefix}: q=1 images hold in U(h" + ("')" if gl else ")"),
                all(
                    specialize_phi(r.difference, lie, n, gl=gl).is_zero()
                    for r in recs
                    if r.difference is not None
                ),
            )
        if not gl:
            recs = check_span_identities(n, ctx=ctx)
            _result(
                results,
                f"n={n} span identities (psi-in-chi, phi=chi-chi, sum chi)",
                all(r.status == "verified" for r in recs),
            )
    return _report("intform-gl" if gl else "intform", results, _dedup_errata(errata))


@_timed
def hopf_closure_suite(ns=(1, 2)):
    """Criteria 11 + 12: Hopf formulas re-expand integrally; S(psi_i) + psi_i
    is (q-1)-divisible with the constructive witness."""
    results = []
    errata = []
    for n in ns:
        ctx = IntContext(n, gl=False)
        records = {form: verify_hopf_catalog(form, n, ctx=ctx) for form in ("Q", "P", "plain")}
        for form, recs in records.items():
            _catalog_result(
                results, errata, f"n={n} form {form}: Hopf catalog integral re-expansion", recs
            )
        _result(
            results,
            f"n={n} S(psi_i) + psi_i in (q-1)-lattice, explicit witness",
            all(r.status == "verified" for r in records["P"] if r.id == "hopf.S-psi"),
        )
    return _report("hopf-closure", results, _dedup_errata(errata))


def _dedup_errata(errata):
    seen = {}
    for e in errata:
        key = (e["id"], e.get("used"))
        if key in seen:
            seen[key]["instances"] = seen[key].get("instances", 1) + 1
        else:
            e = dict(e)
            e.pop("instance", None)
            seen[key] = e
    return list(seen.values())


# -- criterion 6: the Poisson cobracket ------------------------------------------------


@_timed
def cobracket_suite(ns=(1, 2)):
    results = []
    for n in ns:
        ctx = IntContext(n)
        lie = ctx.lie()
        for i in range(1, n + 1):
            d = poisson_cobracket(ctx, IntExpr.gen(rgen(i, i + 1)))
            ref = reference_cobracket(lie, f_sym(i + 1, i), n).scale(-1)
            _result(results, f"n={n} delta(r[{i},{i+1}]) = delta(-f_{i})", (d - ref).is_zero())
            d = poisson_cobracket(ctx, IntExpr.gen(phigen(i)))
            ref = reference_cobracket(lie, h_sym(i), n)
            _result(results, f"n={n} delta(phi[{i}]) = delta(h_{i})", (d - ref).is_zero())
            d = poisson_cobracket(ctx, IntExpr.gen(rgen(i + 1, i)))
            ref = reference_cobracket(lie, e_sym(i, i + 1), n)
            _result(results, f"n={n} delta(r[{i+1},{i}]) = delta(e_{i})", (d - ref).is_zero())
    return _report("cobracket", results)


@_timed
def gl_central_suite(ns=(1, 2)):
    """Criterion 13: the GL forms with the central element c."""
    results = []
    errata = []
    for n in ns:
        gtx = IntContext(n, gl=True)
        glie = gtx.lie()
        # c is central in the constructed h'
        ok = True
        for sym in simple_generators(glie, n):
            if sym == C_SYM:
                continue
            if glie.bracket(glie.index[C_SYM], glie.index[sym]):
                ok = False
        _result(results, f"n={n} [c, x] = 0 in U(h')", ok)
        d = poisson_cobracket(gtx, IntExpr.gen(chigen(n + 1)))
        ref = reference_cobracket(glie, C_SYM, n)
        _result(results, f"n={n} delta(chi_{n+1}) matches the printed delta(c)", (d - ref).is_zero())
        for i in range(1, n + 1):
            d = poisson_cobracket(gtx, IntExpr.gen(phigen(i)))
            ref = reference_cobracket(glie, h_sym(i), n)
            _result(results, f"GL n={n} delta(phi[{i}]) = delta(h_{i})", (d - ref).is_zero())
        # the 1-cocycle condition on pairs involving c fails for "c central
        # with nonzero printed delta(c)"; record the outcome, do not hide it
        defects = []
        for sym in simple_generators(glie, n):
            if sym == C_SYM:
                continue
            if not cocycle_defect(glie, n, sym, C_SYM).is_zero():
                defects.append(str(sym))
        if defects:
            errata.append(
                {
                    "id": "central-element-cobracket",
                    "printed": "c is central and delta(c) = 4 sum f_{n+1,k} ^ e_{k,n+1}",
                    "used": "delta(chi_{n+1}) matches the printed formula; the "
                    "1-cocycle condition fails on pairs (x, c) for x in "
                    + ",".join(defects)
                    + ", so the printed c cannot be the central generator; the "
                    "honest central element is the image of sum_i chi_i",
                }
            )
        rep = intform_suite(ns=(n,), gl=True)
        for r in rep["results"]:
            results.append(r)
        errata.extend(rep["errata"])
    return _report("gl-central", results, errata)


# -- criteria 7 + 8: root-vector constructions and the convex order -------------------


@_timed
def thm53_suite(ns=(2, 3)):
    results = []
    for n in ns:
        alg = UqAlgebra(n)
        co = convex_order(n)
        for (i, j) in co.roots:
            k = co.position(i, j)
            for side in ("E", "F"):
                lu = root_vector_lusztig(alg, co, k, side)
                it = root_vector_iterated(alg, i, j, side)
                _result(
                    results,
                    f"n={n} {side}-root ({i},{j}) braid = iterated",
                    (lu - it).is_zero(),
                )
    return _report("thm53", results)


@_timed
def convex_suite(ns=(2, 3, 4, 5, 6)):
    results = []
    errata = []
    printed_ok = True
    corrected_ok = True
    for n in ns:
        co = convex_order(n)
        _result(results, f"n={n} order on R+ is convex", co.is_convex())
        _result(
            results,
            f"n={n} reduced word has length binom(n+1,2)",
            len(co.reduced_word) == n * (n + 1) // 2,
        )
        for t, (i, j) in enumerate(co.roots, start=1):
            if printed_position_formula(n, i, j) != t:
                printed_ok = False
            if corrected_position_formula(n, i, j) != t:
                corrected_ok = False
                _result(results, f"n={n} corrected position formula at ({i},{j})", False)
    _result(results, "corrected closed form matches the constructed order", corrected_ok)
    if not printed_ok:
        errata.append(
            {
                "id": "root-position-closed-form",
                "printed": "n(i,j) = i - j + sum_{h=0}^{i-1} (n-h)",
                "used": "n(i,j) = (j-i) + sum_{h=0}^{i-2} (n-h), validated "
                "against the reduced-word enumeration",
            }
        )
    errata.append(
        {
            "id": "longest-word-expression",
            "printed": "w0 = s1..sn s1..s_{n-1} s1..s_{n-3} ... (a block is missing)",
            "used": "descending blocks (s1..sn)(s1..s_{n-1})...(s1), verified "
            "reduced and longest",
        }
    )
    errata.append(
        {
            "id": "F-root-vector-base-case",
            "printed": "F_{j+1,j} := F_i",
            "used": "F_{j+1,j} := F_j",
        }
    )
    return _report("convex", results, errata)


# -- criteria 9 + 10: Borel isomorphisms and collapse ----------------------------------


@_timed
def mu_suite(ns=(1, 2)):
    results = []
    for n in ns:
        sl = SLAlgebra(n, strategy="diagonal74")
        try:
            mu = MuMap(sl)
        except ThetaRelationsFailed as exc:
            # a theta map that fails its relations has no checks to offer
            for sign in "+-":
                _result(results, f"n={n} theta{sign} satisfies all Borel relations", False, str(exc))
            continue
        _result(results, f"n={n} theta+ satisfies all Borel relations", mu.theta_plus.relations_hold)
        _result(results, f"n={n} theta- satisfies all Borel relations", mu.theta_minus.relations_hold)
        _result(
            results,
            f"n={n} Delta-op compatibility of theta+",
            mu.theta_plus.verify_coalgebra()["ok"],
        )
        _result(
            results,
            f"n={n} Delta-op compatibility of theta-",
            mu.theta_minus.verify_coalgebra()["ok"],
        )
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                el = sl.gen(i, j)
                if i != j:
                    el = el.scale(RF_Q_MINUS_QINV.inverse())
                c = collapse_at_one(mu.apply(el))
                if i == j:
                    expect = {(((), ()), ((), ())): Fraction(1)}
                elif i < j:
                    f = collapse_element_at_one(root_vector_iterated(mu.uq, i, j, "F"))
                    expect = {
                        ((fw, ew), ((), ())): v * (-1) ** (j - i)
                        for (fw, ew), v in f.items()
                    }
                else:
                    e = collapse_element_at_one(root_vector_iterated(mu.uq, j, i, "E"))
                    expect = {
                        (((), ()), (fw, ew)): v * (-1) ** (i - j - 1)
                        for (fw, ew), v in e.items()
                    }
                _result(results, f"n={n} collapse(mu(r[{i},{j}])) leading term", c == expect)
    return _report("mu", results)


# -- graded dimensions vs the Kostant partition oracle ---------------------------------


def kostant_count(n, multidegree):
    """Number of ways to write the multidegree as an N-combination of the
    positive roots of sl(n+1) (each root alpha(i,j) contributes 1 to each
    simple-root slot i..j-1)."""
    roots = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            v = [0] * n
            for t in range(i, j):
                v[t - 1] = 1
            roots.append(tuple(v))

    target = tuple(multidegree)

    def count(idx, remaining):
        if all(x == 0 for x in remaining):
            return 1
        if idx == len(roots):
            return 0
        total = 0
        r = roots[idx]
        cap = min(
            (remaining[t] // r[t]) if r[t] else 10**9 for t in range(n)
        )
        for m in range(cap + 1):
            rem = tuple(remaining[t] - m * r[t] for t in range(n))
            if min(rem) < 0:
                continue
            total += count(idx + 1, rem)
        return total

    return count(0, target)


@_timed
def graded_dimension_suite():
    results = []
    for n in (2, 3):
        alg = UqAlgebra(n)
        degs = []
        for total in range(1, 5):
            for combo in combinations_with_replacement(range(n), total):
                d = [0] * n
                for t in combo:
                    d[t] += 1
                degs.append(tuple(d))
        for d in sorted(set(degs)):
            words, basis, proj = graded_component_basis(n + 1, alg.serre_relations, (0, *d))
            expect = kostant_count(n, d)
            _result(
                results,
                f"sl{n+1} multidegree {d}: dim = Kostant count",
                len(basis) == expect,
                detail=f"{len(basis)} vs {expect}",
            )
    return _report("graded-dims", results)


def all_suites(seed=0, extended=False):
    reports = [
        hopf_axioms_suite(),
        detq_suite(),
        pbw_matrix_suite(),
        sl_pbw_suite(seed=seed),
        intform_suite(),
        hopf_closure_suite(),
        cobracket_suite(),
        gl_central_suite(),
        thm53_suite(ns=(2, 3, 4) if extended else (2, 3)),
        convex_suite(),
        mu_suite(),
        graded_dimension_suite(),
    ]
    return reports
