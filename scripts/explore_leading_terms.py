#!/usr/bin/env python3
"""Print the composite-embedding images of every r_ij and their q->1
collapse, next to the matching quantum root vector.

Usage:  python scripts/explore_leading_terms.py [--n 2]
"""

import argparse

from qfun.laurent import RF_Q_MINUS_QINV
from qfun.qsl import SLAlgebra
from qfun.uq import MuMap, collapse_at_one, root_vector_iterated


def skel(fw, ew):
    bits = [f"F[{x}]" for x in fw] + [f"E[{x}]" for x in ew]
    return " ".join(bits) if bits else "1"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2)
    args = ap.parse_args()
    n = args.n

    sl = SLAlgebra(n, strategy="diagonal74", check_confluence=(n <= 2))
    mu = MuMap(sl)

    for i in range(1, n + 2):
        for j in range(1, n + 2):
            el = sl.gen(i, j)
            if i != j:
                el = el.scale(RF_Q_MINUS_QINV.inverse())
            col = collapse_at_one(mu.apply(el))
            parts = " + ".join(
                f"{v} {skel(*a)} (x) {skel(*b)}" for (a, b), v in sorted(col.items(), key=str)
            )
            print(f"collapse(mu(r[{i},{j}])) = {parts}")
            if i < j:
                rv = root_vector_iterated(mu.uq, i, j, "F")
                print(f"    F[{j},{i}] = {rv}")
            elif i > j:
                rv = root_vector_iterated(mu.uq, j, i, "E")
                print(f"    E[{j},{i}] = {rv}")


if __name__ == "__main__":
    main()
