import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfun.cli import Context, ExprSyntaxError, parse, run_command
from qfun.freealg import NCElement
from qfun.laurent import RF_ONE
from qfun.lincomb import add_outer
from qfun.qmatrix import TensorElement


def test_parse_product_node():
    ast = parse("x[1,2]*x[1,1]")
    assert ast[0] == "mul"


def test_parse_juxtaposition_and_power():
    ast = parse("q^-1 x[1,1] x[1,2]")
    assert ast[0] == "mul"
    ctx = Context("M", 1)
    el = ctx.eval(ast)
    expect = ctx.eval(parse("x[1,2] x[1,1]"))
    assert el == expect


def test_parse_call():
    ast = parse("Delta(phi[1])")
    assert ast == ("call", "Delta", ("gen", "phi", (1,)))


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x[1,2] +")
    assert exc.value.line == 1


def test_index_error():
    from qfun.cli import ExprIndexError

    ctx = Context("M", 1)
    with pytest.raises(ExprIndexError):
        ctx.eval(parse("x[3,1]"))


def test_nf_command():
    code, out = run_command(["--n", "1", "--algebra", "M", "nf", "x[2,1]x[1,2]"])
    assert code == 0
    assert out == "x[1,2] x[2,1]"


def test_detq_command():
    code, out = run_command(["--n", "2", "--algebra", "M", "detq"])
    assert code == 0
    assert out.count("+") + out.count("-") == 5  # six terms


def test_verify_exit_codes():
    code, out = run_command(["--n", "1", "verify", "hopf"])
    assert code == 0
    assert "[PASS]" in out


def test_usage_error_exit_code():
    code, _ = run_command(["--n", "1", "--algebra", "M", "nf", "x[1,2"])
    assert code == 2


def test_json_format():
    code, out = run_command(
        ["--n", "1", "--algebra", "M", "--format", "json", "nf", "x[1,2]x[1,1]"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "qfun/1"
    assert payload["terms"][0]["word"] == [["x", 1, 1], ["x", 1, 2]]


def test_parse_format_parse_roundtrip():
    cases = [
        ("M", ["x[1,2]x[2,1] + q x[3,3]", "x[2,2]x[1,1]x[3,1]", "(q - q^-1) x[1,3] - 3"]),
        ("Uq", ["E[1]F[1] - F[1]E[1]", "G[1]^2 E[2] + q F[1]"]),
        ("Uh", ["e[1,2] f[2,1] h[1] - 1/2 h[2]", "h[1] e[1,3]"]),
    ]
    for algebra, exprs in cases:
        ctx = Context(algebra, 2)
        for src in exprs:
            el = ctx.eval(parse(src))
            printed = str(el)
            again = ctx.eval(parse(printed))
            assert again == el, (algebra, printed)


def test_rootvec_methods_agree():
    code1, out1 = run_command(["--n", "2", "rootvec", "--root", "1,3", "--method", "braid"])
    code2, out2 = run_command(["--n", "2", "rootvec", "--root", "1,3", "--method", "iterated"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_mu_collapse_command():
    code, out = run_command(["--n", "1", "mu", "--gen", "r:1,2", "--collapse"])
    assert code == 0
    assert out == "-1 * F[1] (x) 1"


def test_specialize_command():
    code, out = run_command(["--n", "1", "specialize", "r[2,1]"])
    assert code == 0
    assert out == "e[1,2]"


def test_uh_context():
    ctx = Context("Uh", 1)
    el = ctx.eval(parse("h[1] e[1,2] - e[1,2] h[1]"))
    expect = ctx.eval(parse("2 e[1,2]"))
    assert el == expect


def test_uq_context():
    ctx = Context("Uq", 1)
    el = ctx.eval(parse("G[1] E[1]"))
    expect = ctx.eval(parse("q E[1] G[1]"))
    assert el == expect


# generators in and out of range, of every family, for the robustness sweep
SWEEP_EXPRS = ["x[1,2]", "x[2,1] x[1,1]", "x[3,3]", "x[0,1]", "E[1]", "F[2]", "h[1]",
               "e[1,3]", "phi[1]",
               # scalars and nested calls
               "1", "q - 1", "S(x[1,2]) x[2,1]", "S(x[1,2]) + x[1,1]", "S(S(x[1,2]))",
               "eps(S(x[1,2]))", "Delta(S(x[1,2]))", "S(1)", "Delta(1)", "eps(q)"]


@pytest.mark.parametrize("command", ["nf", "antipode", "coproduct", "counit"])
@pytest.mark.parametrize("n", [-1, 0, 1, 2])
@pytest.mark.parametrize("algebra", ["M", "SL", "GL", "B+", "B-", "Uq", "Uh"])
def test_generator_sweep_exits_cleanly(algebra, n, command):
    for expr in SWEEP_EXPRS:
        argv = [command, "--n", str(n), "--algebra", algebra, expr]
        code, out = run_command(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out.startswith("error:"), (argv, out)


def test_cli_refusals():
    # a generator outside the Borel triangle
    for algebra, gen in (("B-", "x[1,2]"), ("B+", "x[2,1]")):
        code, out = run_command(["--algebra", algebra, "nf", gen])
        assert code == 2 and "not a generator" in out
    # n < 1 for every algebra (SL n=0 used to print x[1,1] for x[1,1] = 1)
    for algebra in ("M", "SL", "GL", "B+", "B-", "Uq"):
        code, out = run_command(["--n", "0", "--algebra", algebra, "nf", "1"])
        assert (code, out) == (2, "error: --n must be >= 1"), algebra
    code, out = run_command(["--n", "1", "--algebra", "M", "basis", "--max-degree", "-3"])
    assert code == 2 and out.startswith("error:")
    # E_{n+1} and eps outside the matrix algebras
    assert run_command(["--n", "2", "--algebra", "Uq", "coproduct", "E[3]"])[0] == 2
    assert run_command(["--n", "1", "--algebra", "Uq", "counit", "E[1]"])[0] == 2


def test_gl_scalars_and_nested_calls():
    def gl(command, expr):
        return run_command(["--n", "1", "--algebra", "GL", command, expr])

    assert gl("antipode", "q - 1") == (0, "(q - 1)")
    assert gl("coproduct", "1") == (0, "1 (x) 1")
    assert gl("counit", "eps(q)") == (0, "q")
    # eps(det_q) = 1, so eps(S(x11)) = eps(x22 det_q^-1) = 1
    assert gl("counit", "S(x[1,1])") == (0, "1")
    assert gl("counit", "S(x[1,2]) + x[1,1]") == (0, "1")
    # S(S(x12)) has no det_q^-1 left, as in SL
    sl = run_command(["--n", "1", "--algebra", "SL", "nf", "S(S(x[1,2]))"])
    assert gl("nf", "S(S(x[1,2]))") == sl == (0, "(q^-2) x[1,2]")
    assert gl("nf", "x[2,1] S(x[1,2])") == (0, "(-q^-1) x[2,1] x[1,2] detq^-1")
    # Delta(S(x12)) = (S ox S)(Delta^op(x12)), t = det_q^-1 being group-like
    ctx = Context("GL", 1)
    alg = ctx.alg
    expect = {}
    for (wl, wr), c in alg.coproduct(alg.gen(1, 2)).terms.items():
        left = alg.antipode(NCElement(alg.spec, {wr: RF_ONE}, reduce=False))
        right = alg.antipode(NCElement(alg.spec, {wl: RF_ONE}, reduce=False))
        add_outer(expect, left.terms, right.terms, c)
    assert ctx.eval(parse("Delta(S(x[1,2]))")) == TensorElement(alg, expect)
    assert gl("coproduct", "S(x[1,2])") == (0, str(TensorElement(alg, expect)))


@pytest.mark.parametrize("n, expr", [(1, "x[1,2]"), (1, "S(x[1,1]) x[2,1]"), (2, "x[1,3] x[2,1]")])
def test_printed_gl_values_read_back(n, expr):
    args = ["--n", str(n), "--algebra", "GL"]
    code, printed = run_command(args + ["antipode", expr])
    assert code == 0 and "detq^-1" in printed
    assert run_command(args + ["nf", printed]) == (0, printed)


def test_detq_negative_powers_are_gl_letters():
    def nf(algebra, expr):
        return run_command(["--n", "1", "--algebra", algebra, "nf", expr])

    assert nf("GL", "detq^-2 detq^2") == nf("GL", "detq detq^-1") == (0, "1")
    assert nf("GL", "detq^-2") == nf("GL", "detq^-1 detq^-1") == (0, "detq^-1 detq^-1")
    # det_q has no inverse in the matrix algebra
    assert nf("M", "detq^-1")[0] == 2


@pytest.mark.parametrize(
    "algebra, expr",
    [
        ("M", "Delta(x[1,2]) + x[1,1]"),
        ("SL", "Delta(x[1,2]) x[1,1]"),
        ("GL", "Delta(x[1,2]) + 1"),
        ("B+", "Delta(x[1,2])^2"),
        ("Uq", "Delta(E[1]) E[1]"),
        ("SL", "delta(r[1,2]) + r[1,1]"),
        ("SL", "S(delta(r[1,2]))"),
        ("Uh", "h[1] / (q - 1)"),
        ("M", "x[1,1] / 0"),
        ("SL", "1/0"),
    ],
)
def test_mixed_and_singular_values_refused(algebra, expr):
    code, out = run_command(["--n", "1", "--algebra", algebra, "nf", expr])
    assert code == 2 and out.startswith("error:"), out


@pytest.mark.parametrize(
    "argv",
    [
        ["mu", "--gen", "r:1"],
        ["mu", "--gen", "r:3,3", "--n", "1"],
        ["mu", "--gen", "r:a,b"],
        ["cobracket", "--gen", "x:1,2"],
        ["cobracket", "--gen", "phi:5"],
        ["rootvec", "--root", "2,1"],
        ["rootvec", "--root", "1"],
    ],
)
def test_index_flag_refusals(argv):
    code, out = run_command(argv)
    assert code == 2 and out.startswith("error:"), (argv, out)


def test_delta_builds_one_lattice_context(monkeypatch):
    import qfun.cli as cli

    built = []
    real = cli.IntContext

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "IntContext", counting)
    ctx = Context("SL", 1, sl_strategy="antidiag73")
    a = ctx.eval(parse("delta(r[1,2]) + delta(phi[1])"))
    b = ctx.eval(parse("delta(phi[1]) + delta(r[1,2])"))
    assert a == b
    assert len(built) == 2  # the antidiag73 ambient context and one lattice context


def test_huge_powers_refused_before_any_work():
    import time

    budget_text = "(raise QFUN_MAX_TERMS to allow more)"
    for argv in (["nf", "--algebra", "M", "x[1,2]^99999999999"],
                 ["nf", "--algebra", "Uq", "G[1]^-99999999999"],
                 ["nf", "--algebra", "M", "2^99999999999"],
                 ["specialize", "r[1,2]^99999999999"]):
        start = time.perf_counter()
        code, out = run_command(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out.startswith("error:") and out.endswith(budget_text), (argv, out)
    # +-q^e stays one term with coefficient +-1 under any power
    assert run_command(["nf", "--algebra", "M", "(-q)^-99999999999"]) == (0, "-q^-99999999999")


def test_negative_powers_under_delta_and_specialize():
    # r[1,2]^-1 used to read as r[1,2]^0 = 1, and a scalar's inverse power as 1
    code, out = run_command(["specialize", "r[1,2]^-1"])
    assert code == 2 and out.startswith("error:")
    assert run_command(["specialize", "(q+1)^-2 r[1,2]"]) == run_command(
        ["specialize", "1/4 r[1,2]"])
    # a coefficient with a pole at q = 1 has no specialization
    for algebra in ("SL", "B+"):
        assert run_command(["specialize", "--algebra", algebra, "(q - 1)^-1"]) == (
            2, "error: coefficient (1)/(q - 1) has a pole at q=1")


@pytest.mark.parametrize(
    "argv, hint",
    [
        (["nf", "--algebra", "M", "-x[1,1]"], True),
        (["nf", "--algebra", "M", "--bogus", "x[1,1]"], True),
        (["nf", "--algebra", "M", "--n", "two", "x[1,1]"], False),
        (["frobnicate"], False),
        ([], False),
    ],
)
def test_argparse_refusals_have_error_text(argv, hint):
    code, out = run_command(argv)
    assert code == 2 and out.startswith("error: "), (argv, out)
    assert ("'--'" in out) == hint, out
    if hint:
        assert run_command(["nf", "--algebra", "M", "--", "-x[1,1]"]) == (0, "-x[1,1]")


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["nf", "x[1,2] x[2,1]"], 1),
        (["antipode", "x[1,2]"], 1),
        (["coproduct", "x[1,2]"], 1),
        (["counit", "x[1,2]"], 1),
        (["detq", "--algebra", "M"], 1),
        (["rootvec", "--root", "1,3"], 0),
        (["specialize", "r[1,2] phi[1]"], 0),
        (["cobracket", "--gen", "r:1,2"], 1),
        (["mu", "--gen", "r:1,3", "--collapse"], 3),  # SL, B+ and B-
    ],
)
def test_each_command_builds_only_its_algebra(monkeypatch, argv, builds):
    import qfun.qmatrix as qmatrix
    from qfun.qsl import _select_antipode_sign

    # the antipode convention is chosen on an SL(2) built once per process
    _select_antipode_sign()
    checked = []
    real = qmatrix.confluence_check

    def counting(spec, *args, **kwargs):
        checked.append(spec.name)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(qmatrix, "confluence_check", counting)
    code, out = run_command([*argv, "--n", "2"])
    assert code == 0 and out
    assert len(checked) == builds, checked


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--algebra", "Uq"],
        ["basis", "--algebra", "B+"],
        ["basis", "--max-degree", "-1"],
    ],
)
def test_refused_basis_builds_no_algebra(monkeypatch, argv):
    import qfun.cli as cli

    def no_context(*args, **kwargs):
        raise AssertionError("basis built a Context before refusing")

    monkeypatch.setattr(cli, "Context", no_context)
    code, out = run_command([*argv, "--n", "2"])
    assert code == 2 and out.startswith("error: "), out


def test_power_refusal_uses_the_budget_of_the_algebra(monkeypatch):
    from qfun.freealg import TermBudgetExceeded

    monkeypatch.setenv("QFUN_MAX_TERMS", "5")
    ctx = Context("M", 1)
    monkeypatch.delenv("QFUN_MAX_TERMS")
    # x[1,2]^6 is one word, so only the exponent check can refuse it
    with pytest.raises(TermBudgetExceeded, match="exponent 6 exceeds the term budget 5"):
        ctx.eval(parse("x[1,2]^6"))
    fresh = Context("M", 1)
    assert fresh.eval(parse("x[1,2]^6")) == fresh.eval(parse("x[1,2]^5 x[1,2]"))


def test_term_budget_is_read_when_the_algebra_is_built(monkeypatch):
    word = "x[3,3] x[3,2] x[3,1] x[2,3] x[2,2] x[2,1] x[1,3] x[1,2] x[1,1]"
    assert run_command(["nf", "--n", "2", "--algebra", "M", word])[0] == 0
    monkeypatch.setenv("QFUN_MAX_TERMS", "5")
    assert run_command(["nf", "--n", "2", "--algebra", "M", "x[1,1]"]) == (0, "x[1,1]")
    code, out = run_command(["nf", "--n", "2", "--algebra", "M", word])
    assert code == 2 and "term budget 5 exceeded" in out


def test_run_command_builds_the_parser_once(monkeypatch):
    import qfun.cli as cli

    builds = []
    parent = cli._global_flags_parent
    monkeypatch.setattr(cli, "_global_flags_parent", lambda: builds.append(1) or parent())
    cli.build_argparser.cache_clear()
    try:
        assert run_command(["nf", "--n", "1", "x[1,2] x[2,1]"])[0] == 0
        assert run_command(["nf", "--bogus", "x[1,2]"])[0] == 2
        assert run_command(["detq", "--n", "2"]) == run_command(["detq", "--n", "2"])
    finally:
        cli.build_argparser.cache_clear()
    assert builds == [1]


def test_powers_refused_by_total_degree():
    import time

    # the bound is the square root of the default budget, 10**6
    code, out = run_command(["nf", "--algebra", "M", "x[1,2]^1001"])
    assert code == 2 and out.startswith("error: power of degree 1001 exceeds 1000"), out
    start = time.perf_counter()
    code, out = run_command(["nf", "--algebra", "M", "x[1,2]^999999"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out.startswith("error:") and "degree 999999" in out, out
    code, out = run_command(["nf", "--algebra", "M", "x[1,2]^50"])
    assert code == 0 and out == " ".join(["x[1,2]"] * 50)
    # the degree counts the base's letters, in every algebra that has powers
    for argv in (["nf", "--algebra", "M", "(x[1,2] x[2,1])^501"],
                 ["nf", "--algebra", "GL", "(x[1,1] + x[1,2])^1001"],
                 ["nf", "--algebra", "Uq", "(E[1] F[1])^501"],
                 ["nf", "--algebra", "Uh", "f[2,1]^1001"],
                 ["specialize", "(r[1,2] phi[1])^501"]):
        code, out = run_command(argv)
        assert code == 2 and out.startswith("error: power of degree"), (argv, out)
    # scalars stay exempt
    assert run_command(["nf", "--algebra", "M", "2^1001"])[0] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        # a degree-0 base still multiplies k times, and a scalar's powers
        # multiply the span of its q-exponents
        (["nf", "--algebra", "Uq", "G[1]^999999"], "power of degree 999999 exceeds 1000"),
        (["nf", "--algebra", "Uq", "G[1]^-999999"], "power of degree 999999 exceeds 1000"),
        (["nf", "--algebra", "B-", "S(2)^999999"], "power of degree 999999 exceeds 1000"),
        (["nf", "--algebra", "M", "(q + 1)^1001"], "power of degree 1001 exceeds 1000"),
        (["nf", "--algebra", "M", "(q^2 - q^-1)^334"], "power of degree 1002 exceeds 1000"),
        # integers past Python's limit for str(), read or printed
        (["nf", "--algebra", "M", "2^99999"], "integer of more than"),
        (["nf", "--algebra", "M", "--format", "json", "2^99999 x[1,1]"], "integer of more than"),
        (["nf", "--algebra", "M", "1" + "0" * 5000], "number of 5001 digits is too long"),
        # a symbol outside h(n), and products of cobracket values
        (["nf", "--algebra", "Uh", "delta(f[3,1])"], "f[3,1] is not a basis symbol for n=1"),
        (["nf", "--algebra", "Uh", "--n", "2", "delta(f[3,1]) delta(f[3,1])"],
         "cobracket values do not multiply"),
        (["nf", "--algebra", "SL", "delta(r[1,2]) delta(r[1,2])"],
         "cobracket values do not multiply"),
        # a coproduct value with a cobracket value, either side first
        (["mul", "--algebra", "GL", "--", "Delta(x[1,1])", "delta(q)"],
         "a coproduct value and a cobracket value do not combine"),
        (["nf", "--algebra", "SL", "Delta(x[1,1]) + delta(q)"],
         "a coproduct value and a cobracket value do not combine"),
        (["nf", "--algebra", "SL", "delta(q) - Delta(x[1,1])"],
         "a coproduct value and a cobracket value do not combine"),
        (["nf", "--algebra", "GL", "delta(q) + Delta(x[1,1])"],
         "a coproduct value and a cobracket value do not combine"),
    ],
)
def test_inputs_found_by_fuzzing_exit_2_at_once(argv, message):
    import time

    start = time.perf_counter()
    code, out = run_command(argv)
    assert time.perf_counter() - start < 1.0, argv
    assert code == 2 and out.startswith("error: ") and message in out, (argv, out)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("expr, family", [
    ("delta(r[1,2])", "r"), ("delta(x[1,1])", "x"), ("delta(phi[1])", "phi"),
    ("delta(E[1])", "E"), ("delta(G[1])", "G"),
])
def test_uh_delta_refuses_a_family_outside_uh(n, expr, family):
    # only f, e, h and the central c are generators of U(h)
    code, out = run_command(["nf", "--algebra", "Uh", "--n", str(n), expr])
    assert (code, out) == (2, f"error: generator {family} not available in Uh")


def test_uh_delta_of_the_central_element_still_prints():
    assert run_command(["nf", "--algebra", "Uh", "delta(c)"]) == (
        0, "4 f[2,1] (x) e[1,2] + -4 e[1,2] (x) f[2,1]")
    code, out = run_command(["nf", "--algebra", "Uh", "delta(h[1])"])
    assert code == 0 and out == "-8 f[2,1] (x) e[1,2] + 8 e[1,2] (x) f[2,1]"


def test_powers_below_the_bounds_still_print():
    assert run_command(["nf", "--algebra", "Uq", "G[1]^1000"]) == (0, "G[1]^1000")
    code, out = run_command(["nf", "--algebra", "M", "(q + 1)^1000"])
    assert code == 0 and out.startswith("q^1000 + 1000*q^999 + ")
    code, out = run_command(["nf", "--algebra", "M", "2^14000"])
    assert code == 0 and len(out) == 4215


# -- fuzz: every command line ends with exit 0, 1 or 2 and no traceback -------------

_FUZZ_GENS = {
    "M": ["x[1,1]", "x[1,2]", "x[2,1]", "x[2,2]", "x[1,3]", "detq"],
    "SL": ["x[1,1]", "x[1,2]", "x[2,1]", "x[3,3]", "r[1,2]", "r[2,1]", "phi[1]", "psi[1]",
           "chi[2]", "detqt"],
    "GL": ["x[1,1]", "x[1,2]", "x[2,1]", "r[1,2]", "phi[1]", "chi[2]", "detq"],
    "B+": ["x[1,1]", "x[1,2]", "x[2,2]", "x[2,3]"],
    "B-": ["x[1,1]", "x[2,1]", "x[2,2]", "x[3,2]"],
    "Uq": ["F[1]", "E[1]", "E[2]", "G[1]", "Ginv[2]", "G[3]"],
    "Uh": ["f[2,1]", "f[3,1]", "h[1]", "e[1,2]", "e[2,3]", "c"],
}
_FUZZ_SCALARS = ["q", "2", "0", "1/2", "1/0", "(q - 1)", "(q^2 - 1)/(q - 1)"]
# generators out of range or of no family, and tokens that break the grammar
_FUZZ_FOREIGN = sorted({g for gens in _FUZZ_GENS.values() for g in gens}
                       | {"x[0,1]", "x[9,9]", "r[1,1]", "f[1,2]", "e[2,1]", "phi[3]"})
_FUZZ_JUNK = ["", "x[", "x[1]", "x[1,2,3]", "S()", "(", ")", "^", "q^", "y[1]", "@", "--", "-",
              "+", "*", "/", "[1,2]", "^999999", "^-1", ",", "S", "Delta", "1/", "delta"]


def _fuzz_expressions(algebra):
    atoms = st.one_of(st.sampled_from(_FUZZ_GENS[algebra]), st.sampled_from(_FUZZ_SCALARS),
                      st.sampled_from(_FUZZ_FOREIGN))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, inner).map(" ".join),
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(" ".join),
            st.tuples(st.sampled_from(["S", "Delta", "eps", "delta", ""]), inner)
            .map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, st.integers(-2, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        )

    expr = st.recursive(atoms, extend, max_leaves=4)
    return st.one_of(expr, st.tuples(expr, st.sampled_from(_FUZZ_JUNK), expr).map("".join))


@st.composite
def _fuzz_argv(draw):
    # n = 3 stays out: some draws there run for tens of seconds or more, such as
    # `antipode S((x[1,2])^3)` in SL (over 20 s), and `antipode S(x[1,1])` in
    # GL takes about 3.4 s; tests/test_qsl.py covers the SL canonical form at
    # n = 3
    command = draw(st.sampled_from(
        ["nf", "antipode", "coproduct", "counit", "specialize", "mul", "detq", "basis"]))
    algebra = draw(st.sampled_from(sorted(_FUZZ_GENS)))
    argv = [command, "--algebra", algebra, "--n", draw(st.sampled_from(["1", "2"])),
            "--format", draw(st.sampled_from(["text", "json"]))]
    if command == "basis":
        return argv + ["--max-degree", "1"]
    if command == "detq":
        return argv
    count = 2 if command == "mul" else 1
    return argv + ["--", *(draw(_fuzz_expressions(algebra)) for _ in range(count))]


@given(_fuzz_argv())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_command_lines_exit_cleanly(argv):
    code, out = run_command(argv)
    assert code in (0, 1, 2), (argv, code, out)
    assert "Traceback" not in out, argv
    if code == 2:
        assert out.startswith("error: "), (argv, out)
