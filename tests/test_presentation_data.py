"""Data that depends only on a presentation is built once per process: the
rule-table key, the det_q reducer's substitution, U(h)'s brackets and key,
and the theta images.  A second build copies and wraps it, while every
check still reads the data of the build in hand."""

import pytest

from qfun import freealg, qsl, suites, uq
from qfun.classical import build_h, build_h_prime
from qfun.freealg import confluence_check, rule_table_key
from qfun.laurent import Q
from qfun.qsl import BorelAlgebra, GLAlgebra, SLAlgebra
from qfun.uq import MuMap, ThetaMap, ThetaRelationsFailed, UqAlgebra, UqElement


def _corrupt(spec):
    """Multiply the first coefficient of the first rule by q."""
    key = next(iter(spec.rules))
    coeff, word = spec.rules[key][0]
    spec.rules[key] = ((coeff * Q, word),) + spec.rules[key][1:]
    spec.clear_caches()


@pytest.fixture
def work(monkeypatch):
    """Counts of the work a build would repeat without the presentation's
    data: sorting a rule table into its key, the det_q reducer's data, the
    structure constants of h, U(h) keys, and products behind theta images."""
    import qfun.classical as classical

    counts = {}

    def spy(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    spy(freealg, "_table_key")
    spy(qsl, "_det_reducer_data")
    spy(classical, "_h_presentation")
    spy(classical, "_uh_key")
    spy(uq, "_theta_build")
    spy(UqElement, "__mul__")
    return counts


BUILDS = {
    "SL(4)": lambda: SLAlgebra(3),
    "GL(3)": lambda: GLAlgebra(2),
    "B+(3)": lambda: BorelAlgebra(2, "+"),
    "h(3)": lambda: build_h(3),
    "h'(2)": lambda: build_h_prime(2),
    "mu(2)": lambda: MuMap(SLAlgebra(2)),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_a_second_build_repeats_no_presentation_work(name, work):
    first = BUILDS[name]()
    work.clear()
    second = BUILDS[name]()
    assert work == {}
    assert second is not first
    if name == "mu(2)":
        assert second.theta_plus.relations_hold and second.theta_minus.relations_hold
        assert second.uq is not first.uq
        img = second.theta_plus.image(1, 3)
        assert img.alg is second.uq and img.terms == first.theta_plus.image(1, 3).terms
    else:
        spec, other = second.spec, first.spec
        assert spec is not other and spec.rules is not other.rules and spec.rules == other.rules
        assert spec._nf_cache == {} and rule_table_key(spec) is rule_table_key(other)
        assert spec.reducer is None or spec.reducer is not other.reducer


def _theta_and_mu(n):
    mu = MuMap(SLAlgebra(n))
    images = {(s, ij): theta.image(*ij).terms
              for s, theta in (("+", mu.theta_plus), ("-", mu.theta_minus))
              for ij in sorted(theta.borel.cells)}
    applied = {ij: mu.apply(mu.sl.gen(*ij)).terms
               for ij in ((i, j) for i in range(1, n + 2) for j in range(1, n + 2))}
    return images, applied


@pytest.mark.parametrize("n", [1, 2, 3])
def test_warm_theta_images_and_mu_equal_those_computed_with_nothing_kept(n, monkeypatch):
    import qfun.qmatrix as qmatrix

    _theta_and_mu(n)
    warm = _theta_and_mu(n)
    for module in (freealg, qmatrix, uq):
        monkeypatch.setattr(module, "CACHE_LIMIT", 0)
    for module, memo in ((freealg, "_certificates"), (freealg, "_interned"), (qmatrix, "_presentations"),
                         (qsl, "_det_data"), (uq, "_theta_images"), (uq, "_theta_keys")):
        monkeypatch.setattr(module, memo, {})
    assert _theta_and_mu(n) == warm
    assert uq._theta_images == {} and freealg._certificates == {}


def test_a_mutated_algebra_leaves_the_next_build_untouched():
    a = SLAlgebra(2)
    reference = dict(a.spec.rules)
    product = (a.gen(1, 2) * a.gen(2, 1)).terms
    _corrupt(a.spec)
    b = SLAlgebra(2)
    assert b.spec.rules == reference and a.spec.rules != reference
    assert rule_table_key(a.spec) != rule_table_key(b.spec)
    assert not confluence_check(a.spec)["ok"] and confluence_check(b.spec)["ok"]
    assert (b.gen(1, 2) * b.gen(2, 1)).terms == product


def test_a_mutated_lie_structure_leaves_the_next_build_untouched():
    a = build_h(2)
    reference = dict(a.spec.rules)
    _corrupt(a.spec)
    b = build_h(2)
    assert b.spec.rules == reference and a.spec.rules != reference
    assert not confluence_check(a.spec)["ok"] and confluence_check(b.spec)["ok"]
    # the brackets build_h shares are read-only
    ab = next(iter(b.brackets))
    with pytest.raises(TypeError):
        b.brackets[ab] = {}
    with pytest.raises(TypeError):
        b.brackets[ab][0] = 1


def test_mu_suite_reports_a_wrong_theta_image_as_failed_checks(monkeypatch):
    monkeypatch.setattr(freealg, "_certificates", {})
    real = ThetaMap.image

    def wrong(self, i, j):
        img = real(self, i, j)
        return img + self.uq.one() if (i, j) == (1, 2) else img

    monkeypatch.setattr(ThetaMap, "image", wrong)
    with pytest.raises(ThetaRelationsFailed, match="fails Borel relations"):
        ThetaMap("+", BorelAlgebra(1, "+"), UqAlgebra(1, sl_quotient=True))
    rep = suites.mu_suite(ns=(1,))
    assert not rep["ok"]
    assert [r["check"] for r in rep["results"]] == [
        "n=1 theta+ satisfies all Borel relations", "n=1 theta- satisfies all Borel relations"]
    assert all(not r["ok"] and "fails Borel relations" in r["detail"] for r in rep["results"])
    # the shared images are the right ones: the wrong one was never kept
    monkeypatch.setattr(ThetaMap, "image", real)
    assert suites.mu_suite(ns=(1,))["ok"]
