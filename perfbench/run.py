#!/usr/bin/env python3
"""The qfun benchmark.

One workload per process, tracing off (end-to-end metrics):
    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0
The same with per-layer spans (per-layer metrics):
    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 1
Every workload in turn, each in a fresh interpreter, tracing off:
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

qfun is imported from src/ of the checkout that holds this file, whatever
the working directory.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Times are normalized
to host speed (calib.py); the meta line also gives them raw.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-ups made in child interpreters; with the run's own, setup_s is the
# median of SETUP_PROBES + 1 samples
SETUP_PROBES = 4
# job_p90_ms needs at least 10 samples beyond it
MIN_JOBS = 100
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result; exit without printing one."""


def setup(name, seed):
    """Import qfun, warm its module-level lazy state and make the inputs.

    Returns (workload, jobs, prepared data, raw seconds, normalized
    seconds)."""
    if not (SRC / "qfun" / "__init__.py").is_file():
        raise BenchError(f"no qfun sources under {SRC}")
    with calib.HostSpeed() as speed:
        start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import qfun
        import qfun.cli  # noqa: F401  (the queries workload's entry point)

        if Path(qfun.__file__).resolve().parent != SRC / "qfun":
            raise BenchError(f"imported qfun from {qfun.__file__}, not from {SRC}")
        qfun.antipode_convention_report()
        from workloads import WORKLOADS

        wl = WORKLOADS[name]
        jobs = wl.make_jobs(seed)
        prep = wl.prepare(jobs)
        end = time.perf_counter()
    (raw,), (normalized,) = speed.normalize([(start, end)])
    return wl, jobs, prep, raw, normalized


def pin_cpu():
    """Keep this process and its children on one CPU, where the host allows
    it.  The vCPUs of a shared host run at different speeds, and calib.py
    must time the reference on the CPU that runs qfun."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def digest(jobs):
    text = json.dumps(jobs, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(wl, jobs, prep, tracer=None):
    """One timed replay of the job list on fresh algebras.

    Returns (raw wall seconds, normalized wall seconds, raw job latencies,
    normalized job latencies, {job index: reason}).  Normalized times are
    in reference seconds (calib.py)."""
    gc.collect()
    stamps = []
    failures = {}
    with calib.HostSpeed() as speed:
        t0 = time.perf_counter()
        state = wl.new_pass(prep)
        stamps.append((t0, time.perf_counter()))
        for k, job in enumerate(jobs):
            speed.between()
            token = tracer.begin_job(k) if tracer else None
            t0 = time.perf_counter()
            try:
                if not wl.run(state, job):
                    failures[k] = "identity is false"
            except Exception as exc:  # a job's failure is a result, not a crash
                failures[k] = f"{type(exc).__name__}: {str(exc)[:200]}"
            finally:
                stamps.append((t0, time.perf_counter()))
                if tracer:
                    tracer.end_job(token)
    raws, normed = speed.normalize(stamps)
    return sum(raws), sum(normed), raws[1:], normed[1:], failures


class Passes:
    """The passes of one run: per-pass wall times and all job latencies,
    raw and normalized, and the failures by job index."""

    def __init__(self):
        self.walls, self.norm_walls, self.lats, self.norm_lats = [], [], [], []
        self.failures = {}


def run_passes(wl, jobs, prep, until_s, min_jobs, tracer=None):
    out = Passes()
    start = time.perf_counter()
    while True:
        wall, norm_wall, lat, norm_lat, fail = run_pass(wl, jobs, prep, tracer)
        out.walls.append(wall)
        out.norm_walls.append(norm_wall)
        out.lats += lat
        out.norm_lats += norm_lat
        for k, why in fail.items():
            out.failures.setdefault(k, [why, 0])[1] += 1
        # stop when half a pass more would overrun the time asked for
        if (time.perf_counter() - start + wall / 2 >= until_s
                and len(out.lats) >= min_jobs):
            return out


def quantile(values, q):
    """statistics.quantiles' inclusive q-quantile, q in (0, 1)."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def probe_setups(name, seed, count):
    times, digests = [], set()
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((got["setup_s"], got["setup_norm_s"]))
        digests.add(got["digest"])
    return times, digests


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, cwd=str(ROOT))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def known_defects():
    """Run the known-defect corpus once, untimed; {query: outcome}."""
    from qfun.cli import run_command
    from workloads import KNOWN_DEFECT_CORPUS

    out = {}
    for argv in KNOWN_DEFECT_CORPUS:
        try:
            code, _ = run_command(list(argv))
            outcome = f"exit {code}"
        except Exception as exc:
            outcome = type(exc).__name__
        out[" ".join(argv)] = outcome
    return out


def run_workload(args):
    probe_times, probe_digests = probe_setups(args.workload, args.seed, SETUP_PROBES)
    wl, jobs, prep, *own_setup = setup(args.workload, args.seed)
    job_digest = digest(jobs)
    if probe_digests != {job_digest}:
        raise BenchError("the same seed gave different job lists")
    setup_samples = probe_times + [tuple(own_setup)]

    meta = {
        "workload": args.workload, "seed": args.seed, "jobs_per_pass": len(jobs),
        "job_digest": job_digest, "git_commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "QFUN_MAX_TERMS": os.environ.get("QFUN_MAX_TERMS", "unset (default 1000000)"),
        "trace": args.trace, "seconds": args.seconds,
        "cpu": sorted(os.sched_getaffinity(0)),
    }

    if args.trace:
        import spans

        plain = run_passes(wl, jobs, prep, args.seconds / 3, 1)
        tracer = spans.Tracer()
        tracer.install()
        traced = run_passes(wl, jobs, prep, args.seconds * 2 / 3, 1, tracer)
        failures = plain.failures
        for k, (why, count) in traced.failures.items():
            failures.setdefault(k, [why, 0])[1] += count
        attempted = len(plain.lats) + len(traced.lats)
        metrics = tracer.metrics(len(traced.walls), args.workload)
        metrics["trace.overhead"] = (statistics.median(traced.norm_walls)
                                     / statistics.median(plain.norm_walls), "ratio")
        meta["passes"] = {"untraced": len(plain.walls), "traced": len(traced.walls)}
        meta["whole_spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped}
        write_spans(args, tracer)
        notes = spans.split_report(args.workload, tracer, len(traced.walls))
        mismatch = set(spans.per_layer_names()) ^ set(metrics)
        if mismatch:
            raise BenchError(f"per-layer metric set mismatch: {sorted(mismatch)}")
    else:
        run = run_passes(wl, jobs, prep, args.seconds, MIN_JOBS)
        failures = run.failures
        attempted = len(run.lats)
        metrics = {
            "wall_s": (statistics.median(run.norm_walls), "s", len(run.walls)),
            "job_p50_ms": (1000 * statistics.median(run.norm_lats), "ms", attempted),
            "job_p90_ms": (1000 * quantile(run.norm_lats, 0.9), "ms", attempted),
            "setup_s": (statistics.median(n for _, n in setup_samples), "s",
                        len(setup_samples)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }
        # the same figures in host seconds, for reading only: they move
        # with the host's speed (calib.py)
        meta["raw"] = {
            "wall_s": statistics.median(run.walls),
            "job_p50_ms": 1000 * statistics.median(run.lats),
            "job_p90_ms": 1000 * quantile(run.lats, 0.9),
            "setup_s": statistics.median(r for r, _ in setup_samples),
        }
        meta["passes"] = len(run.walls)
        notes = []
    failed = sum(count for _, count in failures.values())
    if args.workload == "queries":
        meta["known_defects"] = known_defects()

    print("meta " + json.dumps(meta, sort_keys=True))
    for line in notes:
        print(line)
    for name, value in metrics.items():
        samples = f" (n={value[2]})" if len(value) > 2 else ""
        print(f"  {name:40s} {value[0]:14.6f} {value[1]}{samples}")
    print(f"  {'failed_ratio':40s} {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted} jobs)")
    for k, (why, count) in sorted(failures.items()):
        print(f"  FAILED job {k} x{count}: {json.dumps(jobs[k])[:300]} -> {why}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_spans(args, tracer):
    """Write the whole spans and the aggregates of the traced passes."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"],
                   "spans": tracer.spans,
                   "calls": tracer.calls, "self_s": tracer.self_s,
                   "errors": tracer.errors, "namespaces": tracer.namespaces}, fh)


def run_all(args):
    """Every workload in its own interpreter, tracing off; a summary table."""
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, cwd=str(ROOT),
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr.strip())
            code = 1
    return code


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pin_cpu()
    try:
        if args.setup_probe:
            _, jobs, _, raw, normalized = setup(args.workload, args.seed)
            print(json.dumps({"setup_s": raw, "setup_norm_s": normalized,
                              "digest": digest(jobs)}))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (BenchError, RuntimeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
