#!/usr/bin/env python3
"""Run every verification suite and write one JSON report.

Usage:  python scripts/verify_all.py [--seed N] [--extended] [-o report.json]
Exit status is 0 when every suite passes, 1 otherwise.  qfun is imported
from src/ of the checkout that holds this script.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qfun import suites  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--extended", action="store_true", help="include the n=4 braid suite")
    ap.add_argument("-o", "--output", default=None)
    args = ap.parse_args()

    t0 = time.time()
    reports = suites.all_suites(seed=args.seed, extended=args.extended)
    elapsed = time.time() - t0

    ok = all(r["ok"] for r in reports)
    payload = {
        "schema": "qfun/1",
        "ok": ok,
        "elapsed_seconds": round(elapsed, 2),
        "reports": reports,
        "errata": [e for r in reports for e in r["errata"]],
    }
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    for r in reports:
        n_checks = len(r["results"])
        print(f"[{'PASS' if r['ok'] else 'FAIL'}] {r['suite']:<14} {n_checks} checks"
              f" in {r['seconds']:.2f}s")
        for res in r["results"]:
            if not res["ok"]:
                print(f"    FAIL {res['check']}")
    print(f"\ntotal: {'PASS' if ok else 'FAIL'} in {elapsed:.1f}s")
    if payload["errata"]:
        print("\nprinted formulas that needed a declared variant:")
        seen = set()
        for e in payload["errata"]:
            if e["id"] in seen:
                continue
            seen.add(e["id"])
            print(f"  - {e['id']}: {e.get('used', '')}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
