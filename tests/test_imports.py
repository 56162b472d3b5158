"""What ``import bcpair`` loads: the exact layers at once, the command line and
the numeric check (``kncheck``, mpmath) on first use of one of their names."""

import subprocess
import sys

import pytest

import bcpair
from conftest import child_env

KN_NAMES = ("BranchAssignment", "KNData", "KNReport", "gamma_eval", "gamma_equation_residual",
            "kn_check", "kn_residuals", "pole_data_from_chi")


def _run_python(code: str, *args: str) -> None:
    """Run ``code`` in a fresh interpreter with this checkout's ``src`` first on the path."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_exact_work_and_exact_commands_leave_the_numeric_layer_unloaded(tmp_path):
    _run_python(
        "import os, sys\n"
        "import bcpair\n"
        "numeric = ('mpmath', 'bcpair.kncheck')\n"
        "bcpair.make_l1()\n"
        "bcpair.chi_series_triple(8)\n"
        "assert not [m for m in numeric if m in sys.modules]\n"
        "assert bcpair.main(['construct', 'l1', '--out', os.path.join(sys.argv[1], 'l1.txt')]) == 0\n"
        "assert bcpair.main(['verify', 'commute']) == 0\n"
        "assert not [m for m in numeric if m in sys.modules], sys.modules.keys()\n",
        str(tmp_path))


def test_lazy_names_are_the_numeric_modules_own():
    from bcpair import kn_check, kncheck
    assert kn_check is kncheck.kn_check
    for name in KN_NAMES:
        assert getattr(bcpair, name) is getattr(kncheck, name), name


def test_dir_lists_the_lazy_names_before_they_load_and_unknown_names_still_fail():
    _run_python(
        "import sys, bcpair\n"
        "listed = dir(bcpair)\n"
        "assert 'bcpair.kncheck' not in sys.modules and 'bcpair.cli' not in sys.modules\n"
        f"missing = set({('kncheck', *KN_NAMES, 'main', 'parse_op', 'print_op', 'make_l1')!r})"
        " - set(listed)\n"
        "assert not missing, missing\n")
    with pytest.raises(AttributeError, match=r"^module 'bcpair' has no attribute 'no_such_name'$"):
        bcpair.no_such_name


def test_lazy_names_survive_a_fresh_import_of_the_package():
    # a benchmark set-up drops every bcpair module and imports the package
    # again; a package object taken before that keeps the names it has loaded
    _run_python(
        "import importlib, sys\n"
        "from fractions import Fraction\n"
        "def fresh():\n"
        "    for name in [n for n in sys.modules if n == 'bcpair' or n.startswith('bcpair.')]:\n"
        "        del sys.modules[name]\n"
        "    return importlib.import_module('bcpair')\n"
        "a = fresh()\n"
        "kn = a.kn_check\n"
        "b = fresh()\n"
        "assert b is not a and 'bcpair.kncheck' not in sys.modules\n"
        "assert a.kn_check is kn and a.kncheck.kn_check is kn\n"
        "assert a.gamma_eval is a.kncheck.gamma_eval\n"
        "assert a.kn_check(points=[Fraction(1)], eps=Fraction(-1), precision=30).passed\n"
        "assert b.kn_check is not kn and b.kn_check is b.kncheck.kn_check\n")
