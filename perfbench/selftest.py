"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that the input generator is
deterministic for a fixed seed, that a run emits exactly the metrics named in
BENCHMARK.json (end-to-end with --trace 0, per-layer with --trace 1), and
that deliberately wrong results are counted as failed checks.  Metric
emission does not depend on the workload, so it is checked on ``kn``, the
shortest one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import run
from workloads import (COMMUTANT_ORDER, WORKLOADS, Checks, check_round, round_inputs,
                       verify_specialised)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def check_generator() -> None:
    for workload in WORKLOADS:
        def rounds(seed):
            return [round_inputs(workload, seed, k) for k in range(4)]
        for seed in (1, 2, 77):
            expect(rounds(seed) == rounds(seed), f"{workload} inputs differ for seed {seed}")
        expect(rounds(1) != rounds(2), f"{workload} inputs do not depend on the seed")
    for seed in range(50):
        v = round_inputs("verify", seed, 0)
        expect(Fraction(v["eps"]) != 0, "verify eps must be nonzero")
        k = round_inputs("kn", seed, 0)
        expect(Fraction(k["eps"]) < 0, "kn eps must be negative")
        pts = [Fraction(x) for x in k["points"]]
        expect(len(set(pts)) == 5 and min(pts) > 0, "kn needs five distinct positive points")


def _result(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    expect(code == 0, f"run {argv} exited with {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_emission() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = _result(["--workload", "kn", "--seed", "3", "--seconds", "1",
                       "--trace", str(trace)])
        expect(set(res) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"kn run reported failures: {res}")
        named = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {name: m["unit"] for name, m in res["metrics"].items()}
        expect(emitted == named, f"--trace {trace} metrics differ from BENCHMARK.json: "
                                 f"missing {sorted(set(named) - set(emitted))}, "
                                 f"extra {sorted(set(emitted) - set(named))}, "
                                 f"or a unit differs")


def check_wrong_results_fail() -> None:
    lib, _ = run.set_up()
    b = lib.bcpair

    # L2 + L1 still commutes with L1 but breaks the rank-3 reduction
    bad = SimpleNamespace(**vars(lib))
    bad.l2 = lib.l2 + lib.l1
    eps = Fraction(-3, 2)
    checks = Checks()
    check_round("verify", bad, {"eps": str(eps)},
                {"verify_symbolic": {}, "verify_specialised": verify_specialised(bad, eps)},
                checks)
    expect(checks.fail_ratio > 0, "a wrong operator passed the verify checks")

    # a wrong coefficient and the eps-dependent relation at eps = 0; the commutant is right
    inputs = round_inputs("construct", 1, 0)
    coeffs = [lib.l1.coefficient(n) for n in range(8)]
    coeffs[0] = coeffs[0] + b.XLaurent.one()
    checks = Checks()
    check_round("construct", lib, inputs,
                {"construct_l1": coeffs,
                 "construct_l2": b.solve_commuting(b.make_limit_op(), COMMUTANT_ORDER),
                 "construct_bc": b.bc_poly()}, checks)
    expect(len(checks.failures) == 2 and checks.attempted == 6,
           f"construct checks: {checks.attempted} attempted, failed {checks.failures}")

    from mpmath import mpf
    report = SimpleNamespace(passed=False, max_residual=mpf(1), max_gamma_residual=mpf(1))
    checks = Checks()
    check_round("kn", lib, round_inputs("kn", 1, 0),
                {"kn_check": {p: report for p in (60, 120, 240)}}, checks)
    expect(len(checks.failures) == checks.attempted - 1,
           f"kn residuals of 1 passed some thresholds: failed {checks.failures}")


def main() -> int:
    sys.path.insert(0, run.SRC)
    check_generator()
    check_wrong_results_fail()
    check_emission()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
