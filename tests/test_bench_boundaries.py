"""Every package boundary the benchmark wraps or times must exist.

``perfbench/tracing.py`` skips a boundary the package no longer has and
leaves its metrics out, which breaks the benchmark's fixed metric set; this
test names the missing boundary instead.
"""

import pathlib
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import bcpair

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

BOUNDARIES = tracing.SPANS + tracing.COUNTS + tracing.YIELDS
# attributes of the package that tracing.micro_benchmarks reaches
MICRO_HOOKS = ("linsolve.FractionEchelon", "kncheck.Jet", "reduction_frame")


@pytest.mark.parametrize("module, path, metric", BOUNDARIES,
                         ids=[m for _, _, m in BOUNDARIES])
def test_traced_boundary_resolves(module, path, metric):
    assert tracing._resolve(bcpair, module, path) is not None, f"{module}.{path}"


@pytest.mark.parametrize("path", MICRO_HOOKS)
def test_micro_benchmark_hook_resolves(path):
    owner = bcpair
    for name in path.split("."):
        assert hasattr(owner, name), path
        owner = getattr(owner, name)


def test_coefficient_views_have_the_shape_the_benchmark_reads():
    # tracing.micro_benchmarks reads XLaurent.c as {x_exp: EpsPoly} and
    # EpsPoly.c as {eps_exp: Fraction}
    for c in bcpair.make_l1().coeffs:
        for xe, epoly in c.c.items():
            assert type(xe) is int and isinstance(epoly, bcpair.EpsPoly)
            assert epoly.c and all(type(ee) is int and type(v) is Fraction
                                   for ee, v in epoly.c.items())


def test_micro_benchmarks_run_on_l1():
    l1 = bcpair.make_l1()
    lib = SimpleNamespace(bcpair=bcpair, l1=l1, l2=l1, chis=bcpair.chi_series_triple(8))
    metrics = tracing.micro_benchmarks(lib)
    assert {"exact.epspoly_mul_us", "exact.xlaurent_mul_us",
            "linsolve.echelon_insert_us"} <= set(metrics)


@pytest.mark.parametrize("workload", ["verify", "construct", "kn"])
def test_workload_round_passes_its_checks(workload, l1, l2, chis24, lam24, mu24):
    # the curve, operator and solver API a benchmark round calls, checked the
    # way the benchmark checks it
    lib = workloads.Lib(bcpair, l1, l2, chis24, lam24, mu24)
    inputs = workloads.round_inputs(workload, 1, 0)
    _, results = workloads.run_round(workload, lib, inputs)
    checks = workloads.Checks()
    workloads.check_round(workload, lib, inputs, results, checks)
    assert checks.attempted and not checks.failures
