"""The test run's own configuration: every warning is an error, and a failing
test is reported as one failure, not as an internal error that ends the run."""

import subprocess
import sys

import pytest

from conftest import ROOT, child_env

FAILING = {
    # the hypothesis plugin reports a failure through a hook that imports a
    # module whose import warns; as an error, that warning ended the whole run
    # in INTERNALERROR (exit 3) and no later test ran
    "hypothesis failure": (
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n != n\n"),
    # any other warning still fails the test that raises it
    "other deprecation warning": (
        "import warnings\n"
        "def test_fails():\n"
        "    warnings.warn('some API is deprecated', DeprecationWarning)\n"),
}


@pytest.mark.parametrize("case", FAILING)
def test_a_failing_test_is_one_failure_under_the_repo_config(case, tmp_path):
    (tmp_path / "test_case.py").write_text(FAILING[case], encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-q", "-p", "no:cacheprovider", "test_case.py"],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1 and "1 failed" in out and "INTERNALERROR" not in out, out
