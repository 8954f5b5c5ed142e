import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfun import intform
from qfun.classical import f_sym, h_sym, reference_cobracket
from qfun.intform import (
    IntContext,
    IntExpr,
    chigen,
    expand_lattice,
    phigen,
    poisson_cobracket,
    psigen,
    q_minus_1_divisibility,
    relation_catalog,
    rgen,
    s_psi_witness,
    specialize_phi,
    check_span_identities,
    verify_hopf_catalog,
    verify_relation_catalog,
)
from qfun.freealg import NCElement
from qfun.laurent import (Q_MINUS_1, Q_MINUS_QINV, RF_ONE, RF_Q_MINUS_1, RF_Q_MINUS_QINV,
                          LaurentPoly, RatFunc)
from qfun.lincomb import accumulate, apply_pair_map, apply_word_map


@pytest.fixture(scope="module")
def ctx1():
    return IntContext(1)


@pytest.fixture(scope="module")
def ctx2():
    return IntContext(2)


def test_lift_examples(ctx1):
    from qfun.laurent import Q_MINUS_QINV

    r12 = ctx1.lift_gen(rgen(1, 2))
    assert r12.scale(RatFunc.from_laurent(Q_MINUS_QINV)) == ctx1.alg.gen(1, 2)
    chi1 = ctx1.lift_gen(chigen(1))
    assert chi1.scale(RatFunc.from_laurent(Q_MINUS_1)) == ctx1.alg.gen(1, 1) - ctx1.alg.one()
    phi1 = ctx1.lift_gen(phigen(1))
    assert phi1 == ctx1.lift_gen(chigen(1)) - ctx1.lift_gen(chigen(2))
    assert ctx1.lift_gen(psigen(1)) == ctx1.lift_gen(chigen(1))


def test_divisibility_operation(ctx1):
    res = q_minus_1_divisibility(ctx1, ctx1.alg.gen(1, 2).scale(RatFunc.from_laurent(Q_MINUS_1)))
    assert res.ok and res.quotient == ctx1.alg.gen(1, 2)
    res = q_minus_1_divisibility(ctx1, ctx1.alg.gen(1, 1) - ctx1.alg.one())
    assert res.ok and res.quotient == ctx1.lift_gen(chigen(1))
    res = q_minus_1_divisibility(ctx1, ctx1.alg.gen(1, 2))
    assert not res.ok
    assert res.witness[1] == RF_ONE
    res = q_minus_1_divisibility(ctx1, ctx1.alg.zero())
    assert res.ok and res.quotient.is_zero()


def test_relation_catalogs_never_fail(ctx1, ctx2):
    for ctx, n in ((ctx1, 1), (ctx2, 2)):
        for form in ("Q", "P", "plain"):
            recs = verify_relation_catalog(form, n, ctx=ctx)
            assert all(r.status != "failed" for r in recs), [
                (r.id, r.instance) for r in recs if r.status == "failed"
            ]


def test_phi_rii_relation_status(ctx1):
    # the printed phi_i r_ii commutator with the (q-1)^2 (1+q^-1)^3
    # coefficient verifies exactly as printed
    recs = [r for r in verify_relation_catalog("Q", 1, ctx=ctx1) if r.id == "Q.phi-rii"]
    assert recs and all(r.status == "verified" for r in recs)


def test_psi_r_needs_derived_variant(ctx1):
    recs = [r for r in verify_relation_catalog("P", 1, ctx=ctx1) if r.id == "P.psi-r"]
    assert any(r.status == "corrected" and r.variant == "derived" for r in recs)


def test_hopf_catalogs_never_fail(ctx1, ctx2):
    for ctx, n in ((ctx1, 1), (ctx2, 2)):
        for form in ("Q", "P", "plain"):
            recs = verify_hopf_catalog(form, n, ctx=ctx)
            assert all(r.status != "failed" for r in recs), [
                (r.id, r.instance, r.residual) for r in recs if r.status == "failed"
            ]


def test_eps_phi(ctx1):
    assert ctx1.alg.counit(ctx1.lift_gen(phigen(1))).is_zero()
    assert ctx1.alg.counit(ctx1.lift_gen(rgen(1, 2))).is_zero()
    assert ctx1.alg.counit(ctx1.lift_gen(rgen(1, 1))).is_one()


def test_s_psi_witness_is_integral(ctx1, ctx2):
    for ctx, n in ((ctx1, 1), (ctx2, 2)):
        for i in range(1, n + 2):
            w = s_psi_witness(n, i)
            assert w.all_coeffs_laurent()
            lhs = ctx.alg.antipode(ctx.lift_gen(psigen(i))) + ctx.lift_gen(psigen(i))
            rhs = ctx.lift(w).scale(RatFunc.from_laurent(Q_MINUS_1))
            assert (lhs - rhs).is_zero()


def test_span_identities(ctx1, ctx2):
    for ctx, n in ((ctx1, 1), (ctx2, 2)):
        recs = check_span_identities(n, ctx=ctx)
        assert all(r.status == "verified" for r in recs)


def test_integer_form_closed_under_products():
    # products of lifted generators re-expand with Laurent coefficients over
    # the r/chi lattice monomials; checked in the matrix-algebra context,
    # where no determinant rewriting disturbs the coordinates (in the SL
    # quotient the same closure is certified by the relation catalogs)
    gtx = IntContext(1, gl=True)
    gens = [rgen(1, 2), rgen(2, 1), rgen(1, 1), chigen(1), chigen(2), phigen(1), psigen(2)]
    for g1 in gens:
        for g2 in gens:
            el = gtx.lift_gen(g1) * gtx.lift_gen(g2)
            coords = expand_lattice(gtx, el, scaling="r")
            assert all(c.is_laurent() for c in coords.values()), (g1, g2)


def test_delta_of_generators_integral(ctx1):
    # tensor coordinates of Delta(gen) are Laurent in the r/chi lattice
    for g in (rgen(1, 2), rgen(1, 1), chigen(1), phigen(1), psigen(2)):
        t = ctx1.alg.coproduct(ctx1.lift_gen(g))
        from qfun.intform import expand_lattice_word

        coords = {}
        for (wl, wr), c in t.terms.items():
            for kl, cl in expand_lattice_word(ctx1, wl, "r").items():
                for kr, cr in expand_lattice_word(ctx1, wr, "r").items():
                    key = (kl, kr)
                    coords[key] = coords.get(key, RF_ONE - RF_ONE) + c * cl * cr
        assert all(c.is_laurent() for c in coords.values() if c), g


def test_specialize_images(ctx2):
    lie = ctx2.lie()
    n = 2
    img = specialize_phi(IntExpr.gen(rgen(1, 2)), lie, n)
    assert img == -1 * __import__("qfun.classical", fromlist=["PBWElement"]).PBWElement.gen(
        lie, f_sym(2, 1)
    )
    img = specialize_phi(IntExpr.gen(rgen(1, 3)), lie, n)
    from qfun.classical import PBWElement

    assert img == PBWElement.gen(lie, f_sym(3, 1))
    assert specialize_phi(IntExpr.gen(rgen(1, 1)), lie, n) == PBWElement.one(lie)
    assert specialize_phi(IntExpr.gen(phigen(1)), lie, n) == PBWElement.gen(
        lie, h_sym(1)
    )


def test_specialization_of_verified_relations(ctx1):
    lie = ctx1.lie()
    for form in ("Q", "P", "plain"):
        for rid, inst, variants in relation_catalog(form, 1):
            for vname, lhs, rhs in variants:
                if (ctx1.lift(lhs) - ctx1.lift(rhs)).is_zero():
                    assert specialize_phi(lhs - rhs, lie, 1).is_zero(), (rid, inst)
                    break


def test_cobracket_antisymmetric(ctx1):
    for g in (rgen(1, 2), phigen(1), rgen(2, 1), chigen(1)):
        d = poisson_cobracket(ctx1, IntExpr.gen(g))
        assert (d + d.swap()).is_zero()


def test_cobracket_matches_reference(ctx1):
    lie = ctx1.lie()
    d = poisson_cobracket(ctx1, IntExpr.gen(rgen(1, 2)))
    assert (d - reference_cobracket(lie, f_sym(2, 1), 1).scale(-1)).is_zero()
    d = poisson_cobracket(ctx1, IntExpr.one())
    assert d.is_zero()


def test_gl_catalogs(ctx1):
    gtx = IntContext(1, gl=True)
    for form in ("P", "plain"):
        recs = verify_relation_catalog(form, 1, gl=True, ctx=gtx)
        assert all(r.status != "failed" for r in recs)
    # no det-derived entries in the GL catalogs
    ids = {rid for rid, _, _ in relation_catalog("plain", 1, gl=True)}
    assert "X.sum" not in ids and "det.tilde" not in ids


def test_catalog_suites_check_each_entry_once(monkeypatch):
    """intform_suite lifts nothing beyond what the catalog verification and
    the span identities lift, and hopf_closure_suite verifies each Hopf
    catalog once per form."""
    from qfun import suites

    lifts = []
    real_lift = IntContext.lift

    def counting_lift(self, expr):
        lifts.append(expr)
        return real_lift(self, expr)

    monkeypatch.setattr(IntContext, "lift", counting_lift)
    ctx = IntContext(1)
    for form in ("Q", "P", "plain"):
        verify_relation_catalog(form, 1, ctx=ctx)
    check_span_identities(1, ctx=ctx)
    direct = len(lifts)
    lifts.clear()
    assert suites.intform_suite(ns=(1,))["ok"]
    assert len(lifts) == direct

    calls = []
    real_verify = suites.verify_hopf_catalog

    def counting_verify(form, n, ctx=None):
        calls.append((form, n))
        return real_verify(form, n, ctx=ctx)

    monkeypatch.setattr(suites, "verify_hopf_catalog", counting_verify)
    assert suites.hopf_closure_suite(ns=(1,))["ok"]
    assert sorted(calls) == [("P", 1), ("Q", 1), ("plain", 1)]


# -- the fraction-free lift against the per-letter scaled product -----------------

_CONTEXTS = {}


def _context(n, kind):
    """One shared context per (n, kind): SL with each strategy, or GL."""
    if (n, kind) not in _CONTEXTS:
        _CONTEXTS[n, kind] = (IntContext(n, gl=True) if kind == "GL"
                              else IntContext(n, strategy=kind))
    return _CONTEXTS[n, kind]


def _letters(n):
    idx = range(1, n + 2)
    return ([rgen(i, j) for i in idx for j in idx] + [phigen(i) for i in range(1, n + 1)]
            + [psigen(i) for i in idx] + [chigen(i) for i in idx])


def _scaled_gen(ctx, g):
    """The lift of one generator, built as the generator scaled by the
    inverse of its denominator."""
    alg = ctx.alg
    if g.family == "r":
        i, j = g.indices
        el = alg.gen(i, j)
        return el.scale(RatFunc(1, Q_MINUS_QINV)) if i != j else el
    (i,) = g.indices
    if g.family == "phi":
        num = alg.gen(i, i) - alg.gen(i + 1, i + 1)
    elif g.family == "chi":
        num = alg.gen(i, i) - alg.one()
    else:
        prod = alg.one()
        for s in range(1, i + 1):
            prod = prod * alg.gen(s, s)
        num = prod - alg.one()
    return num.scale(RatFunc(1, Q_MINUS_1))


_small = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), min_size=1, max_size=3).map(
    LaurentPoly).filter(bool)
_laurent_coeffs = _small.map(RatFunc.from_laurent)
# k(q) coefficients with the lift's own denominator factors among others
_dens = st.sampled_from([Q_MINUS_1, Q_MINUS_QINV, LaurentPoly({1: 1, 0: 1}),
                         LaurentPoly({2: 1, 0: 1}), LaurentPoly({1: 2, 0: -3})])
_field_coeffs = st.tuples(_small, _dens).map(lambda t: RatFunc(*t))


@st.composite
def _lift_cases(draw):
    n = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["diagonal74", "antidiag73", "GL"]))
    coeffs = draw(st.sampled_from([_laurent_coeffs, _field_coeffs]))
    words = st.lists(st.sampled_from(_letters(n)), max_size=4).map(tuple)
    terms = draw(st.dictionaries(words, coeffs, min_size=1, max_size=3))
    return n, kind, IntExpr(terms)


@given(_lift_cases())
@settings(max_examples=60, deadline=None)
def test_lift_equals_the_per_letter_product(case):
    n, kind, expr = case
    ctx = _context(n, kind)
    got = ctx.lift(expr)
    expected = apply_word_map(expr.terms, ctx.lift_gen, NCElement.one(ctx.spec))
    assert got.terms == expected.terms
    assert str(got) == str(expected)
    scaled = apply_word_map(expr.terms, lambda g: _scaled_gen(ctx, g), NCElement.one(ctx.spec))
    assert got.terms == scaled.terms


def test_lift_gen_is_the_scaled_generator():
    for n in (1, 2):
        for kind in ("diagonal74", "antidiag73", "GL"):
            ctx = _context(n, kind)
            for g in _letters(n):
                lifted = ctx.lift_gen(g)
                assert lifted.terms == _scaled_gen(ctx, g).terms, (n, kind, g)
                assert all(c.den.min_exp() == 0 for c in lifted.terms.values())


def _counting_products(monkeypatch):
    products = []
    real = intform.concat_product

    def counting(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(intform, "concat_product", counting)
    return products


def test_lift_multiplies_once_per_distinct_prefix(monkeypatch):
    a, b, c, d = rgen(1, 2), phigen(1), chigen(2), psigen(1)
    expr = IntExpr({(a, b, c): 1, (a, b, d): 2, (a, d): 3, (c,): 1, (b, b, a, c): -1})
    # (a, b), (a, b, c), (a, b, d), (a, d), (b, b), (b, b, a), (b, b, a, c)
    prefixes = 7
    ctx = IntContext(1)
    expected = apply_word_map(expr.terms, ctx.lift_gen, NCElement.one(ctx.spec))
    products = _counting_products(monkeypatch)
    assert ctx.lift(expr) == expected
    assert len(products) == prefixes
    products.clear()
    assert ctx.lift(expr) == expected
    assert ctx.lift_tensor(intform.TensorIntExpr({((a, b), (a, d)): 1})).terms
    assert not products


def test_numerator_memo_bounds_and_clears(monkeypatch):
    expr = IntExpr({(rgen(1, 2), phigen(1), chigen(2)): 1, (psigen(1), rgen(2, 1)): 2})
    ctx = IntContext(1)
    expected = ctx.lift(expr)
    assert ctx._num_memo
    ctx.clear_caches()
    assert not ctx._num_memo and not ctx.spec._nf_cache
    monkeypatch.setattr(intform, "CACHE_LIMIT", 0)
    assert ctx.lift(expr) == expected
    assert ctx.lift_gen(phigen(1)).terms == _scaled_gen(ctx, phigen(1)).terms
    assert not ctx._num_memo


# -- numerators over Z[q,q^-1], one division at the boundary ----------------------


def _word_lift(ctx, w):
    return apply_word_map({w: RF_ONE}, ctx.lift_gen, NCElement.one(ctx.spec)).terms


def test_numerators_are_laurent_and_a_laurent_lift_multiplies_no_ratfunc(monkeypatch):
    a, b, c, d = rgen(1, 2), phigen(1), chigen(2), psigen(2)
    expr = IntExpr({(a, b, c): 1, (d, a): RatFunc(LaurentPoly({1: 2, -1: -1})), (b, b): -3})
    for kind in ("diagonal74", "antidiag73", "GL"):
        ctx = _context(1, kind)
        expected = apply_word_map(expr.terms, ctx.lift_gen, NCElement.one(ctx.spec))
        ctx.clear_caches()
        products = []
        real = RatFunc.__mul__

        def counting(x, y):
            products.append(1)
            return real(x, y)

        monkeypatch.setattr(RatFunc, "__mul__", counting)
        got = ctx.lift(expr)
        monkeypatch.undo()
        assert got.terms == expected.terms and got.spec is ctx.spec
        assert not products, kind
        assert ctx._num_memo
        for num, _, _ in ctx._num_memo.values():
            assert num and all(type(v) is LaurentPoly for v in num.values())
        assert all(type(v) is RatFunc for v in got.terms.values())


def test_lift_with_a_field_coefficient_is_the_per_letter_product():
    a, b, c = rgen(2, 1), phigen(1), chigen(1)
    inv_q_plus_1 = RatFunc(1, LaurentPoly({1: 1, 0: 1}))
    over_q_minus_1 = RatFunc(LaurentPoly({1: 2}), Q_MINUS_1)
    expr = IntExpr({(a, b): inv_q_plus_1, (b,): 2, (a, c): over_q_minus_1, (c,): inv_q_plus_1})
    for kind in ("diagonal74", "antidiag73", "GL"):
        ctx = _context(2, kind)
        got = ctx.lift(expr)
        expected = apply_word_map(expr.terms, ctx.lift_gen, NCElement.one(ctx.spec))
        assert got.terms == expected.terms and str(got) == str(expected), kind
        # the field coefficient alone: its den is folded in after the division
        single = ctx.lift(IntExpr({(a, b): inv_q_plus_1}))
        assert single.terms == {w: v * inv_q_plus_1 for w, v in _word_lift(ctx, (a, b)).items()}


def test_lift_tensor_with_laurent_and_field_coefficients():
    a, b, c = rgen(1, 2), phigen(1), chigen(2)
    texpr = intform.TensorIntExpr({
        ((a, b), (c,)): RatFunc(LaurentPoly({2: 1, 0: -1})),
        ((b,), (a, c)): RatFunc(LaurentPoly({0: 3}), LaurentPoly({2: 1, 0: 1})),
        ((), (b,)): RatFunc(1, Q_MINUS_QINV),
        ((c,), ()): -1,
    })
    for kind in ("diagonal74", "GL"):
        ctx = _context(1, kind)
        got = ctx.lift_tensor(texpr)
        lifted = {}

        def lift_word(w):
            return lifted.setdefault(w, _word_lift(ctx, w))

        expected = apply_pair_map(texpr.terms, lift_word, lift_word)
        assert got.terms == expected, kind
        assert got.alg is ctx.alg


# -- the catalogs pinned by a digest of their text -----------------------------------


def _payload_text(p):
    """A catalog payload as text: the sorted terms of a formal expression or
    tensor, or the payload itself (a counit value, or None)."""
    if isinstance(p, intform.TensorIntExpr):
        terms = (("|".join(" ".join(map(str, w)) for w in k), c) for k, c in p.terms.items())
    elif isinstance(p, IntExpr):
        terms = ((" ".join(map(str, w)), c) for w, c in p.terms.items())
    else:
        return repr(p)
    return "; ".join(sorted(f"[{k}] {c}" for k, c in terms))


def _catalog_text(entries):
    """One line per entry: its id, instance (and, for Hopf entries, mode and
    generator), then each variant's name and payloads, in catalog order."""
    lines = []
    for *head, variants in entries:
        lines.append(" / ".join(map(str, head)))
        for vname, *payloads in variants:
            lines.append("  " + vname + "".join("\n    " + _payload_text(p) for p in payloads))
    return "\n".join(lines)


# SHA-256 of _catalog_text over every catalog below, in this order
CATALOG_SHA256 = "fe635840a43aeaab16f657c8542929ec96a0d31dd427b1b7f7ba2efaa3ef9188"


def test_catalog_digest():
    parts = []
    for n in (1, 2, 3):
        for form in ("Q", "P", "plain"):
            parts.append(f"relation {form} n={n}\n" + _catalog_text(relation_catalog(form, n)))
    for n in (1, 2):
        for form in ("P", "plain"):
            parts.append(f"relation GL {form} n={n}\n"
                         + _catalog_text(relation_catalog(form, n, gl=True)))
    for n in (1, 2, 3):
        for form in ("Q", "P", "plain"):
            parts.append(f"hopf {form} n={n}\n" + _catalog_text(intform.hopf_catalog(form, n)))
    text = "\n".join(parts)
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256, len(text)


# -- the lattice substitution map against the stack expansion ------------------------


def _stack_lattice_word(ctx, word, scaling):
    """The oracle for the substitution map: the stack expansion of one
    canonical word into {(lower cells, chi exponents, upper cells): RatFunc},
    over the binomial expansion of each power of a diagonal letter."""
    n = ctx.n
    lower, diag, upper = [], [0] * (n + 1), []
    for p in word:
        i, j = ctx.alg.cell_of(p)
        if i > j:
            lower.append((i, j))
        elif i < j:
            upper.append((i, j))
        else:
            diag[i - 1] += 1
    base = RF_ONE
    if scaling == "r":
        d = len(lower) + len(upper)
        if d:
            base = RF_Q_MINUS_QINV ** d
    leaves = []
    stack = [(0, [], base)]
    while stack:
        pos, kexps, coeff = stack.pop()
        if pos == n + 1:
            leaves.append(((tuple(lower), tuple(kexps), tuple(upper)), coeff))
            continue
        N = diag[pos]
        for K in range(N + 1):
            c = coeff * math.comb(N, K)
            if K:
                c = c * (RF_Q_MINUS_1 ** K)
            stack.append((pos + 1, kexps + [K], c))
    return accumulate({}, leaves)


def _stack_key_word(key):
    """The generator word r_lower chi^K r_upper of an oracle key."""
    lower, kexps, upper = key
    return (
        tuple(rgen(i, j) for i, j in lower)
        + tuple(chigen(i) for i, K in enumerate(kexps, start=1) for _ in range(K))
        + tuple(rgen(i, j) for i, j in upper)
    )


def _delta_words(ctx, exprs):
    """Every canonical word on either side of Delta of the lifted exprs: the
    words of Delta of each of their words, a superset of theirs (the same
    set here), without the k(q) sums."""
    words = set()
    for ambient in {w for expr in exprs for w in ctx.lift(expr).terms}:
        for wl, wr in ctx.alg.coproduct_word(ambient):
            words.update((wl, wr))
    return words


def test_lattice_map_matches_the_stack_expansion(ctx1, ctx2):
    cases = [(ctx1, True), (ctx2, True), (_context(1, "GL"), True), (IntContext(3), False)]
    compared = 0
    for ctx, pairs in cases:
        gens = _letters(ctx.n)
        exprs = [IntExpr.gen(g) for g in gens]
        if pairs:
            exprs += [IntExpr.word((g, h)) for g in gens for h in gens]
        for w in sorted(_delta_words(ctx, exprs)):
            for scaling in ("r", "rho"):
                expected = {_stack_key_word(k): c
                            for k, c in _stack_lattice_word(ctx, w, scaling).items()}
                assert intform.expand_lattice_word(ctx, w, scaling) == expected, (ctx.n, w)
                compared += 1
    assert compared > 1000


def test_det_inverse_is_out_of_the_lattice():
    ctx = IntContext(1, gl=True)
    with pytest.raises(intform.OutOfForm, match=r"detq\^-1"):
        q_minus_1_divisibility(ctx, ctx.alg.det_inverse())
    with pytest.raises(intform.OutOfForm, match=r"detq\^-1"):
        expand_lattice(ctx, ctx.alg.antipode(ctx.alg.gen(1, 2)))
