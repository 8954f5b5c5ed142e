#!/usr/bin/env python3
"""Run a fixed grid of CLI commands through qfun.cli.run_command and write
(argv, exit code, output) for each as JSON, so two commits can be diffed.

Usage:  python scripts/cli_grid.py [-o grid.json]

The grid:
  - M/SL/GL/B+/B-/Uq/Uh x n in {1, 2} x nf/antipode/coproduct/counit x
    text/json, over EXPRS (generators of every family, k(q) scalars and
    nested calls; many exit 2 in some algebra, which is recorded too);
  - B+/B- x n in {1, 2} x nf/antipode/coproduct over BOREL_EXPRS, words
    that hold the whole diagonal (some twice), which det_q = 1 rewrites;
  - rootvec (both methods), mu, cobracket and specialize up to n = 3;
  - the classical paths: U(h) cobracket values of composite root vectors
    (the adjoint action) at n = 2, 3, a U(h) product that reorders with a
    fractional coefficient, and a GL specialization at n = 3;
  - the queries corpus of perfbench/workloads.py for seeds 1-3, text and
    json, and its known-defect corpus.

qfun is imported from src/ of the checkout that holds this script.  A
command that raises instead of returning is recorded with exit code null
and the exception's type and message as its output.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from qfun.cli import run_command  # noqa: E402

ALGEBRAS = ("M", "SL", "GL", "B+", "B-", "Uq", "Uh")
COMMANDS = ("nf", "antipode", "coproduct", "counit")
EXPRS = (
    "x[1,2]", "x[2,1] x[1,2]", "x[1,1] x[2,2] - q x[1,2] x[2,1]", "x[3,3]",
    "E[1] F[1]", "G[1] E[1]", "h[1] f[2,1]", "e[1,2] c", "phi[1] r[1,2]",
    "1", "(q^2 - 1)/(q - 1)", "1/(q^4 - 1) x[1,1]", "x[1,2] / (2q - 3)",
    "S(x[1,2]) x[2,1]", "S(S(x[1,2]))", "Delta(x[1,2])", "eps(S(x[1,1]))",
    "delta(r[1,2])", "detq", "x[1,2]^3",
)
# per Borel, words in its generators that hold the whole diagonal (some twice)
BOREL_EXPRS = {
    "B+": ("x[1,1] x[2,2] x[1,2]", "x[2,2] x[1,1]", "(x[2,2] x[1,1])^2 x[1,2]",
           "x[3,3] x[1,1] x[2,2] x[2,3]", "x[2,2] x[1,1] x[3,3] x[2,2] x[1,3]",
           "x[1,3] (x[1,1] x[2,2] x[3,3])^2 x[1,2]"),
    "B-": ("x[1,1] x[2,2] x[2,1]", "x[2,2] x[1,1]", "(x[2,2] x[1,1])^2 x[2,1]",
           "x[3,3] x[1,1] x[2,2] x[3,2]", "x[2,2] x[1,1] x[3,3] x[2,2] x[3,1]",
           "x[3,1] (x[1,1] x[2,2] x[3,3])^2 x[2,1]"),
}


def grid():
    """Every argv of the grid, in a fixed order."""
    for algebra in ALGEBRAS:
        for n in (1, 2):
            for command in COMMANDS:
                for fmt in ("text", "json"):
                    for expr in EXPRS:
                        yield [command, "--n", str(n), "--algebra", algebra,
                               "--format", fmt, expr]
    for algebra, exprs in BOREL_EXPRS.items():
        for n in (1, 2):
            for command in ("nf", "antipode", "coproduct"):
                for expr in exprs:
                    yield [command, "--n", str(n), "--algebra", algebra, expr]
    for n in (1, 2, 3):
        N = ["--n", str(n)]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                for method in ("braid", "iterated"):
                    yield ["rootvec", *N, "--root", f"{i},{j}", "--method", method]
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                yield ["mu", *N, "--gen", f"r:{i},{j}", "--collapse"]
                if n < 3:
                    yield ["mu", *N, "--gen", f"x:{i},{j}"]
        for algebra in ("SL", "GL"):
            A = [*N, "--algebra", algebra]
            for i in range(1, n + 1):
                for fam in ("phi", "psi", "chi"):
                    yield ["cobracket", *A, "--gen", f"{fam}:{i}"]
            for i in range(1, n + 2):
                for j in range(1, n + 2):
                    yield ["cobracket", *A, "--gen", f"r:{i},{j}"]
            for expr in ("r[2,1]", "phi[1] r[1,2]", "r[1,2] r[2,1] - q^2 r[2,1] r[1,2]",
                         "(q+1)^-2 r[1,2]", "chi[1] + psi[1]", "r[1,2]^-1"):
                yield ["specialize", *A, expr]
    for n in (2, 3):
        for expr in ("delta(e[1,3])", "delta(f[3,1])"):
            yield ["nf", "--n", str(n), "--algebra", "Uh", expr]
    for fmt in ("text", "json"):
        yield ["nf", "--n", "2", "--algebra", "Uh", "--format", fmt,
               "1/2 e[2,3] e[1,2] h[2] f[3,1] c - 3/4 e[1,3] h[1] f[3,2]"]
    yield ["specialize", "--n", "3", "--algebra", "GL", "chi[1] psi[2]"]
    from workloads import KNOWN_DEFECT_CORPUS, WORKLOADS

    for seed in (1, 2, 3):
        for job in WORKLOADS["queries"].make_jobs(seed):
            yield list(job[1])
            yield [*job[1], "--format", "json"]
    yield from KNOWN_DEFECT_CORPUS


def run(argv):
    try:
        code, out = run_command(list(argv))
    except Exception as exc:  # recorded, so that a diff shows it
        return [argv, None, f"{type(exc).__name__}: {exc}"]
    return [argv, code, out]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-o", "--output", default=None, help="write the JSON here, not to stdout")
    args = ap.parse_args()
    records = [run(argv) for argv in grid()]
    text = json.dumps(records, indent=1)
    if args.output:
        Path(args.output).write_text(text + "\n")
        codes = {}
        for _, code, _ in records:
            codes[code] = codes.get(code, 0) + 1
        print(f"{len(records)} commands; exit codes "
              + ", ".join(f"{k}: {v}" for k, v in sorted(codes.items(), key=str)))
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
