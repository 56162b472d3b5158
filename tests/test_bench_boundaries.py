"""Every package boundary the benchmark wraps or times must exist.

``perfbench/tracing.py`` skips a boundary the package no longer has and
leaves its metrics out, which breaks the benchmark's fixed metric set; this
test names the missing boundary instead.
"""

import pathlib
import sys

import pytest

import bcpair

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

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
