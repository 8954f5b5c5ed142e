"""The process-wide certificate memo: confluence, Jacobi and theta-relation
checks run once per distinct presentation, keyed by the data they check."""

import pytest

from qfun import freealg, suites
from qfun.classical import JacobiFailure, LieStructure, build_h, e_sym, h_sym
from qfun.freealg import confluence_check
from qfun.intform import IntExpr, phigen, psigen, rgen
from qfun.laurent import LAURENT, Q, RATFUNC
from qfun.qmatrix import InadmissibleOrder, MatrixAlgebra, build_matrix_spec
from qfun.qsl import BorelAlgebra, SLAlgebra
from qfun.uq import MuMap, ThetaMap, UqAlgebra


@pytest.fixture
def runs(monkeypatch):
    """An empty memo, and the specs the raw confluence check rewrites."""
    monkeypatch.setattr(freealg, "_certificates", {})
    seen = []
    real = freealg._overlap_report

    def spy(spec):
        seen.append(spec.name)
        return real(spec)

    monkeypatch.setattr(freealg, "_overlap_report", spy)
    return seen


def _corrupt(spec):
    """Multiply the first coefficient of the first rule by q."""
    key = next(iter(spec.rules))
    coeff, word = spec.rules[key][0]
    spec.rules[key] = ((coeff * Q, word),) + spec.rules[key][1:]
    spec.clear_caches()
    return spec


def test_one_confluence_run_per_rule_table(runs):
    SLAlgebra(3)
    SLAlgebra(3)
    MatrixAlgebra(3, order="triangular", domain=LAURENT)
    MatrixAlgebra(3, order="triangular", domain=RATFUNC)
    assert runs == ["SL(4)/diagonal74"]
    # the other strategy orders its letters differently: a second table
    SLAlgebra(3, strategy="antidiag73")
    assert runs == ["SL(4)/diagonal74", "SL(4)/antidiag73"]


def test_each_call_returns_a_fresh_report(runs):
    spec = _corrupt(build_matrix_spec(1, order="lex"))
    first = confluence_check(spec)
    first["failures"][0]["word"] = "changed"
    first["failures"].clear()
    first["ok"] = True
    second = confluence_check(spec)
    assert not second["ok"] and second["failures"]
    assert second["failures"][0]["word"] != "changed"
    assert len(runs) == 1


def test_a_mutated_rule_is_checked_again_and_fails(runs, monkeypatch):
    import qfun.qmatrix as qmatrix

    assert confluence_check(build_matrix_spec(1, order="lex"))["ok"]
    assert len(runs) == 1
    report = confluence_check(_corrupt(build_matrix_spec(1, order="lex")))
    assert not report["ok"] and len(runs) == 2
    MatrixAlgebra(1, order="lex")
    real = qmatrix.build_matrix_spec
    monkeypatch.setattr(qmatrix, "build_matrix_spec",
                        lambda *args, **kwargs: _corrupt(real(*args, **kwargs)))
    for _ in range(2):
        with pytest.raises(InadmissibleOrder, match="not confluent"):
            MatrixAlgebra(1, order="lex")
    monkeypatch.setattr(qmatrix, "build_matrix_spec", real)
    MatrixAlgebra(1, order="lex")
    assert len(runs) == 2


def test_corrupted_brackets_raise_on_every_build(monkeypatch):
    monkeypatch.setattr(freealg, "_certificates", {})
    lie = build_h(2)
    ih, ie = lie.index[h_sym(1)], lie.index[e_sym(1, 2)]
    key = (max(ih, ie), min(ih, ie))
    bad = dict(lie.brackets)
    bad[key] = {k: 3 * v / 2 for k, v in bad[key].items()}
    for _ in range(2):
        with pytest.raises(JacobiFailure):
            LieStructure(lie.basis, bad)
    LieStructure(lie.basis, lie.brackets)
    # the U(h) rule table, held once Jacobi holds, and its confluence report
    assert len(freealg._certificates) == 2


def test_a_wrong_theta_image_raises_on_every_build(monkeypatch):
    uq = UqAlgebra(1, sl_quotient=True)
    borel = BorelAlgebra(1, "+")
    ThetaMap("+", borel, uq)
    real = ThetaMap.image

    def wrong(self, i, j):
        img = real(self, i, j)
        return img + self.uq.one() if (i, j) == (1, 2) else img

    monkeypatch.setattr(ThetaMap, "image", wrong)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="fails Borel relations"):
            ThetaMap("+", borel, uq)
    monkeypatch.setattr(ThetaMap, "image", real)
    ThetaMap("+", borel, uq)


def test_mu_suite_reports_the_theta_certificates_without_checking_again(monkeypatch):
    monkeypatch.setattr(freealg, "_certificates", {})
    calls = []

    def refuted(self):
        calls.append(self.sign)
        return False

    monkeypatch.setattr(ThetaMap, "_check_relations", refuted)
    rep = suites.mu_suite(ns=(1,))
    names = ["n=1 theta+ satisfies all Borel relations", "n=1 theta- satisfies all Borel relations"]
    assert [r["ok"] for r in rep["results"] if r["check"] in names] == [False, False]
    assert sorted(calls) == ["+", "-"]
    suites.mu_suite(ns=(1,))
    assert len(calls) == 2


def test_cache_limit_zero_keeps_nothing_and_changes_nothing(runs, monkeypatch):
    expect = {n: confluence_check(SLAlgebra(n).spec) for n in (1, 2)}
    uq = UqAlgebra(1, sl_quotient=True)
    mu = MuMap(SLAlgebra(1), uq)
    expect_mu = mu.apply(mu.sl.gen(1, 2))
    assert runs == ["SL(2)/diagonal74", "SL(3)/diagonal74", "B+(2)", "B-(2)"]
    monkeypatch.setattr(freealg, "_certificates", {})
    monkeypatch.setattr(freealg, "CACHE_LIMIT", 0)
    for _ in range(2):
        runs.clear()
        assert {n: confluence_check(SLAlgebra(n).spec) for n in (1, 2)} == expect
        mu = MuMap(SLAlgebra(1), uq)
        assert mu.apply(mu.sl.gen(1, 2)) == expect_mu
        build_h(2)
        # every build and every call checks again
        assert sorted(runs) == sorted(["SL(2)/diagonal74"] * 3 + ["SL(3)/diagonal74"] * 2
                                      + ["B+(2)", "B-(2)", "h(2)"])
    assert freealg._certificates == {}


# -- the presentation memo: one build per (n, order, cells, name) ---------------


@pytest.fixture
def builds(monkeypatch):
    """An empty presentation memo, and the keys its builder is called with."""
    import qfun.qmatrix as qmatrix

    monkeypatch.setattr(qmatrix, "_presentations", {})
    seen = []
    real = qmatrix._build_presentation

    def spy(n, order, cells, name):
        seen.append((n, order if isinstance(order, str) else "custom", name))
        return real(n, order, cells, name)

    monkeypatch.setattr(qmatrix, "_build_presentation", spy)
    return seen


def test_one_presentation_build_per_key(builds):
    for _ in range(2):
        SLAlgebra(2)
        SLAlgebra(2, domain=LAURENT)
        MatrixAlgebra(2, order="triangular", domain=RATFUNC)
        BorelAlgebra(2, "+")
        build_matrix_spec(2, order="lex")
    # the rules are over Z[q,q^-1] for either domain: SL(3) over k(q) and
    # over Z[q,q^-1] share one build
    assert builds == [
        (2, "triangular", "SL(3)/diagonal74"),
        (2, "triangular", None),
        (2, "custom", "B+(3)"),
        (2, "lex", None),
    ]


def test_each_build_gets_its_own_rule_table(builds, runs):
    first = build_matrix_spec(1, order="lex")
    reference = dict(first.rules)
    _corrupt(first)
    second = build_matrix_spec(1, order="lex")
    assert second.rules == reference and second.rules is not first.rules
    assert not confluence_check(first)["ok"] and confluence_check(second)["ok"]
    a, b = SLAlgebra(1), SLAlgebra(1)
    assert a.spec.rules is not b.spec.rules
    assert a.spec.reducer is not b.spec.reducer
    assert a.spec.reducer.subst == b.spec.reducer.subst
    assert len(builds) == 2


def test_term_budget_is_read_at_each_build(builds, monkeypatch):
    monkeypatch.setenv("QFUN_MAX_TERMS", "123")
    assert SLAlgebra(1).spec.term_budget == 123
    monkeypatch.setenv("QFUN_MAX_TERMS", "456")
    assert SLAlgebra(1).spec.term_budget == 456
    assert len(builds) == 1


def test_presentation_cache_limit_zero_keeps_nothing(builds, monkeypatch):
    import qfun.qmatrix as qmatrix

    alg = SLAlgebra(2)
    x = alg.gen(1, 2) * alg.gen(2, 1)
    expected = (str(x), x.terms)
    monkeypatch.setattr(qmatrix, "_presentations", {})
    monkeypatch.setattr(qmatrix, "CACHE_LIMIT", 0)
    builds.clear()
    for _ in range(2):
        alg = SLAlgebra(2)
        y = alg.gen(1, 2) * alg.gen(2, 1)
        assert (str(y), y.terms) == expected
    # an algebra looks its presentation up twice, for its spec and for its
    # letter coproducts, and with nothing kept each lookup builds
    assert len(builds) == 4 and qmatrix._presentations == {}


def test_an_integer_form_context_runs_one_confluence_check(monkeypatch):
    import qfun.qmatrix as qmatrix
    from qfun.intform import IntContext

    checked = []
    real = qmatrix.confluence_check

    def counting(spec):
        checked.append(spec.name)
        return real(spec)

    monkeypatch.setattr(qmatrix, "confluence_check", counting)
    IntContext(2)
    IntContext(2, gl=True)
    assert checked == ["SL(3)/diagonal74", "GL(3)"]


@pytest.mark.parametrize("gl", [False, True])
def test_an_integer_form_context_builds_one_spec(monkeypatch, gl):
    """Lifts reduce their Laurent numerators in the ambient algebra's own
    spec: no second spec of the same presentation."""
    from qfun.intform import IntContext

    IntContext(2, gl=gl)  # the presentation, built once per process
    built = []
    real = freealg.AlgebraSpec.__init__

    def spy(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self.name)

    monkeypatch.setattr(freealg.AlgebraSpec, "__init__", spy)
    ctx = IntContext(2, gl=gl)
    ctx.lift(IntExpr({(phigen(1), rgen(1, 2), psigen(2)): 1}))
    assert built == [ctx.spec.name] and ctx.alg.spec is ctx.spec
