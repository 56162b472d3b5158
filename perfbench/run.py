"""Benchmark of bcpair's verify, construct and kn workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the package is imported from ./src and
nowhere else.  The run is one process with no threads.

Set-up (import the package, build L1 and L2, expand chi, lambda and mu to
order 24) is repeated, nine times before the first round and, in a timed
run, once after every round; its median is reported.  With ``--trace 0`` at
least three whole rounds of the workload run, and more while the median
round still fits into ``--seconds``; the end-to-end metrics are printed.
With ``--trace 1`` round 0 runs once untraced and once traced; the
per-layer metrics come from the traced pass, the layer micro-benchmarks and
the set-up, and ``tracing_overhead`` is the traced pass's time over the
untraced one's.  Every time is scaled to a fixed host speed (``speed.py``).

Every result is checked exactly.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment, each round's inputs,
every command's median time with its sample count and the failed checks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import mpmath

from speed import Scaled, own_clock
from tracing import Tracer, micro_benchmarks
from workloads import (COMMANDS, SERIES_ORDER, WORKLOADS, Checks, Lib, check_round,
                       round_inputs, run_round)

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9   # before the first round; a timed run adds one after every round
MIN_ROUNDS = 3


def _fresh_import():
    for name in [n for n in sys.modules if n == "bcpair" or n.startswith("bcpair.")]:
        del sys.modules[name]
    package = importlib.import_module("bcpair")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"bcpair was imported from {package.__file__}, not from {SRC}")
    return package


def set_up() -> tuple[Lib, dict]:
    """Import the package and build the operators and series; scaled seconds of each part."""
    with Scaled() as clock:
        b = _fresh_import()
        t1 = own_clock()
        l1, l2 = b.make_l1(), b.make_l2()
        t2 = own_clock()
        chis = b.chi_series_triple(SERIES_ORDER)
        lam = b.curve_series(b.lambda_fn(), SERIES_ORDER)
        mu = b.curve_series(b.mu_fn(), SERIES_ORDER)
        t3 = own_clock()
    return Lib(b, l1, l2, chis, lam, mu), {
        "setup_s": clock.seconds, "opdata.make_ops_s": (t2 - t1) * clock.speed,
        "curve.curve_series_s": (t3 - t2) * clock.speed}


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "git_sha": git_sha()}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(workload: str, seed: int, seconds: float, lib: Lib, checks: Checks,
              between_rounds) -> float:
    """At least ``MIN_ROUNDS`` whole rounds; the median round's scaled seconds.

    After that, a round is started only while the median round's wall time
    still fits into ``seconds``.  A round whose results fail a check is left
    out of the timings, unless every round failed.  ``between_rounds()`` is
    called after every round, outside the timing.
    """
    rounds, walls = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
            time.perf_counter() - start + statistics.median(walls) <= seconds):
        inputs = round_inputs(workload, seed, len(rounds))
        print(json.dumps({"round": len(rounds), "inputs": inputs}))
        failed_before = len(checks.failures)
        t0 = time.perf_counter()
        times, results = run_round(workload, lib, inputs)
        walls.append(time.perf_counter() - t0)
        check_round(workload, lib, inputs, results, checks)
        rounds.append((times, len(checks.failures) == failed_before))
        print(json.dumps({"round": len(rounds) - 1, "wall_s": walls[-1], "scaled_s": times}))
        between_rounds()
    rounds = [t for t, ok in rounds if ok] or [t for t, _ in rounds]
    commands = {name: [r[name] for r in rounds] for name in COMMANDS[workload]}
    print(json.dumps({"commands": {name: {"median_s": statistics.median(v), "samples": len(v)}
                                   for name, v in commands.items()}}))
    return statistics.median(sum(r.values()) for r in rounds)


def traced_run(workload: str, seed: int, lib: Lib, checks: Checks) -> dict:
    """Round 0 untraced, then traced; per-layer figures.

    The results of both passes are checked after the tracer is taken out,
    so the checks do not count towards any span or counter.  Span times are
    scaled by the traced pass's mean speed.
    """
    inputs = round_inputs(workload, seed, 0)
    print(json.dumps({"round": 0, "inputs": inputs}))
    times, results = run_round(workload, lib, inputs)
    check_round(workload, lib, inputs, results, checks)

    tracer = Tracer(lib.bcpair).install()
    try:
        t0 = own_clock()
        traced, results = run_round(workload, lib, inputs, span=tracer.command)
        speed = sum(traced.values()) / (own_clock() - t0)
    finally:
        tracer.restore()
    check_round(workload, lib, inputs, results, checks)

    metrics = {name: (value * speed if unit == "s" else value, unit)
               for name, (value, unit) in tracer.metrics().items()}
    metrics["tracing_overhead"] = (sum(traced.values()) / sum(times.values()), "ratio")
    for names in COMMANDS.values():
        for name in names:
            metrics[f"command.{name}_s"] = (times.get(name, 0.0), "s")
    metrics.update(micro_benchmarks(lib))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    samples: dict[str, list] = {}

    def sample_set_up() -> Lib:
        lib, times = set_up()
        for key, value in times.items():
            samples.setdefault(key, []).append(value)
        return lib

    # the rounds use the objects of the last set-up before them
    for _ in range(SETUP_REPEATS):
        lib = sample_set_up()
    print(json.dumps({"environment": environment()}))

    checks = Checks()

    def setup(key: str) -> float:
        return statistics.median(samples[key])

    if args.trace:
        metrics = traced_run(args.workload, args.seed, lib, checks)
        metrics["opdata.make_ops_s"] = (setup("opdata.make_ops_s"), "s")
        metrics["curve.curve_series_s"] = (setup("curve.curve_series_s"), "s")
    else:
        round_s = timed_run(args.workload, args.seed, args.seconds, lib, checks,
                            between_rounds=sample_set_up)
        print(json.dumps({"setup_samples": len(samples["setup_s"])}))
        metrics = {"round_s": (round_s, "s"), "setup_s": (setup("setup_s"), "s"),
                   "peak_rss_mib": (peak_rss_mib(), "MiB")}

    print(json.dumps({"fail_ratio": checks.fail_ratio, "failed_checks": checks.failures}))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
