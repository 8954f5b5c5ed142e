"""Acceptance suite: one test per criterion, exact (tolerance zero).

Run with  pytest tests/test_acceptance.py -v  to get one pass/fail line per
criterion; each test also prints its own PASS line.  Criterion 7 includes
its n=4 extension unconditionally.
"""

import json
import re
import runpy
import sys
from pathlib import Path

import pytest

from qfun import suites


def _assert_report(rep, label):
    bad = [r["check"] for r in rep["results"] if not r["ok"]]
    print(f"[{'PASS' if not bad else 'FAIL'}] {label}")
    assert not bad, f"{label}: failing checks {bad}"


def test_criterion_01_hopf_axioms():
    rep = suites.hopf_axioms_suite(ns=(1, 2))
    _assert_report(rep, "criterion 1: Hopf axiom suite, n = 1, 2")
    conv = [e for e in rep["errata"] if e["id"] == "antipode-exponent"]
    assert conv, "the selected antipode convention must be reported"
    print(f"       antipode convention: {conv[0]['used']}")


def test_criterion_02_detq_central_grouplike():
    rep = suites.detq_suite(ns=(1, 2, 3))
    _assert_report(rep, "criterion 2: det_q central/group-like n = 1..3, pi kills det_q - 1")


def test_criterion_02_detq_frontier_n4():
    """The n=4 frontier of criterion 2: Delta(det_q) of 120 words of degree 5."""
    rep = suites.detq_suite(ns=(4,))
    _assert_report(rep, "criterion 2 frontier: det_q central/group-like n = 4")
    assert rep["ok"]


def test_criterion_03_pbw_counts_and_confluence():
    rep = suites.pbw_matrix_suite()
    _assert_report(rep, "criterion 3: ordered-monomial counts and confluence, n <= 3")


def test_criterion_04_sl_pbw_theorems():
    rep = suites.sl_pbw_suite(seed=0)
    _assert_report(rep, "criterion 4: SL monomial bases vs commutative oracle; count equality; sl_reduce")


def test_criterion_05_specialization():
    rep = suites.intform_suite(ns=(1, 2))
    _assert_report(rep, "criterion 5: relation catalogs verify and specialize, n = 1, 2")


def test_criterion_06_poisson_cobracket():
    rep = suites.cobracket_suite(ns=(1, 2))
    _assert_report(rep, "criterion 6: Poisson cobracket matches the classical formulas")


def test_criterion_07_root_vector_constructions():
    # n = 4 is the extended suite; n = 2..6 take about 0.6 s together, as
    # the Serre components row-reduce only over commutation classes
    ns = (2, 3, 4, 5, 6)
    rep = suites.thm53_suite(ns=ns)
    _assert_report(rep, f"criterion 7: braid = iterated root vectors, n = {ns}")


def test_criterion_08_convexity():
    rep = suites.convex_suite(ns=(2, 3, 4, 5, 6))
    _assert_report(rep, "criterion 8: convexity of the root order, n = 2..6")


def test_criterion_09_borel_isomorphisms():
    rep = suites.mu_suite(ns=(1, 2))
    ok = [r for r in rep["results"] if "theta" in r["check"] or "compat" in r["check"]]
    _assert_report(
        {"results": ok, "errata": []},
        "criterion 9: theta maps satisfy Borel relations + Delta-op compatibility",
    )


def test_criterion_10_leading_terms():
    rep = suites.mu_suite(ns=(1, 2))
    ok = [r for r in rep["results"] if "collapse" in r["check"]]
    _assert_report(
        {"results": ok, "errata": []},
        "criterion 10: q->1 collapse of the composite embedding, n = 2",
    )


def test_criterion_11_s_psi_divisibility():
    rep = suites.hopf_closure_suite(ns=(1, 2))
    ok = [r for r in rep["results"] if "S(psi" in r["check"]]
    _assert_report(
        {"results": ok, "errata": []},
        "criterion 11: S(psi_i) + psi_i is (q-1)-divisible with explicit witness",
    )


def test_criterion_12_hopf_closure():
    rep = suites.hopf_closure_suite(ns=(1, 2))
    _assert_report(rep, "criterion 12: Hopf operations re-expand integrally, n = 1, 2")


def test_criterion_13_gl_forms():
    rep = suites.gl_central_suite(ns=(1, 2))
    _assert_report(rep, "criterion 13: GL forms with the central element, n = 1, 2")


def test_supporting_graded_dimensions():
    rep = suites.graded_dimension_suite()
    _assert_report(rep, "supporting: graded dimensions match Kostant partition counts")


def test_suite_reports_carry_their_wall_time(monkeypatch, capsys, tmp_path):
    """Every suite report has "seconds", verify_all prints it on the suite's
    line, and the report schema stays qfun/1."""
    rep = suites.convex_suite(ns=(2,))
    assert isinstance(rep["seconds"], float) and rep["seconds"] >= 0
    script = Path(__file__).resolve().parent.parent / "scripts" / "verify_all.py"
    out = tmp_path / "report.json"
    monkeypatch.setattr(sys, "argv", [str(script), "-o", str(out)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "qfun/1"
    seconds = [r["seconds"] for r in payload["reports"]]
    assert len(seconds) == 12 and all(isinstance(s, float) and s >= 0 for s in seconds)
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[PASS]")]
    assert len(lines) == 12 and all(re.search(r" checks in \d+\.\d\ds$", line) for line in lines)
