"""What ``import bcpair`` loads: the exact layers at once, the command line,
the solver layer (``linsolve``) and the numeric check (``kncheck``, mpmath)
on first use of one of their names."""

import dataclasses
import inspect
import subprocess
import sys
from fractions import Fraction

import pytest

import bcpair
from bcpair import AffineSolutionSet, CurveDef, DiffOp, Rank3Report
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
    names = ("kncheck", *KN_NAMES, "linsolve", "main", "parse_op", "print_op", "make_l1")
    _run_python(
        "import sys, bcpair\n"
        "listed = dir(bcpair)\n"
        "assert not {'bcpair.kncheck', 'bcpair.cli', 'bcpair.linsolve'} & set(sys.modules)\n"
        f"missing = set({names!r}) - set(listed)\n"
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


def test_checks_and_set_up_leave_the_solver_unloaded_and_a_solve_loads_it(tmp_path):
    _run_python(
        "import os, sys\n"
        "import bcpair\n"
        "from bcpair import cli\n"
        "def loaded():\n"
        "    return 'bcpair.linsolve' in sys.modules\n"
        "bcpair.make_l1(), bcpair.make_l2()\n"
        "bcpair.chi_series_triple(8)\n"
        "assert not loaded()\n"
        "cheap = {'all': ['--precision', '30', '--points', '2'],\n"
        "         'kn': ['--precision', '30', '--points', '2']}\n"
        "for suite in cli._COMMANDS['verify'][2]:\n"
        "    assert bcpair.main(['verify', suite, *cheap.get(suite, [])]) == 0, suite\n"
        "    assert not loaded(), suite\n"
        "out = sys.argv[1]\n"
        "assert bcpair.main(['construct', 'l1', '--out', os.path.join(out, 'l1.txt')]) == 0\n"
        "assert not loaded()\n"
        "assert bcpair.main(['construct', 'l2', '--out', os.path.join(out, 'l2.txt')]) == 0\n"
        "assert loaded() and bcpair.linsolve is sys.modules['bcpair.linsolve']\n",
        str(tmp_path))


def test_a_package_keeps_the_solver_it_loaded_across_a_fresh_import():
    # pipeline reaches linsolve through its own package object, so package A
    # goes on solving with A's linsolve (over A's exact types) after B loads
    _run_python(
        "import importlib, sys\n"
        "def fresh():\n"
        "    for name in [n for n in sys.modules if n == 'bcpair' or n.startswith('bcpair.')]:\n"
        "        del sys.modules[name]\n"
        "    return importlib.import_module('bcpair')\n"
        "a = fresh()\n"
        "assert a.solve_commuting(a.make_limit_op(), 3).dimension == 1\n"
        "solver = a.linsolve\n"
        "b = fresh()\n"
        "assert b is not a and 'bcpair.linsolve' not in sys.modules\n"
        "assert a.solve_commuting(a.make_limit_op(), 3).dimension == 1\n"
        "assert a.linsolve is solver and a.linsolve.EpsPoly is a.EpsPoly\n"
        "assert b.solve_commuting(b.make_limit_op(), 3).dimension == 1\n"
        "assert b.linsolve is not solver and b.linsolve.EpsPoly is b.EpsPoly\n")


def test_a_stale_package_refuses_to_load_what_it_has_not_loaded():
    # after a fresh import of the package, A has no generation of its own to
    # load a lazy module into: it fails by name instead of binding B's module
    # to A's exact types, and B loads and solves as usual
    _run_python(
        "import importlib, sys\n"
        "def fresh():\n"
        "    for name in [n for n in sys.modules if n == 'bcpair' or n.startswith('bcpair.')]:\n"
        "        del sys.modules[name]\n"
        "    return importlib.import_module('bcpair')\n"
        "a = fresh()\n"
        "b = fresh()\n"
        "def refused(load, module):\n"
        "    try:\n"
        "        load()\n"
        "    except ImportError as exc:\n"
        "        assert f'bcpair.{module}' in str(exc) and 'imported afresh' in str(exc), exc\n"
        "    else:\n"
        "        raise AssertionError(f'{module} loaded into a stale package')\n"
        "refused(lambda: a.solve_commuting(a.make_limit_op(), 3), 'linsolve')\n"
        "refused(lambda: a.kncheck, 'kncheck')\n"
        "refused(lambda: a.kn_check, 'kncheck')\n"
        "refused(lambda: a.main, 'cli')\n"
        "assert not {'bcpair.linsolve', 'bcpair.kncheck', 'bcpair.cli'} & set(sys.modules)\n"
        "assert sys.modules['bcpair'] is b\n"
        "assert b.solve_commuting(b.make_limit_op(), 3).dimension == 1\n"
        "assert b.linsolve.EpsPoly is b.EpsPoly and b.kncheck.ZSeries is b.ZSeries\n")


@pytest.mark.parametrize("record, args, other, defaults, text", [
    (CurveDef, (2,), (4,), {"w_eps_power": 4}, "CurveDef(w_eps_power=2)"),
    (Rank3Report, (False, 4, (1, 5)), (False, 4, None), {},
     "Rank3Report(passed=False, max_verified_order=4, first_failure=(1, 5))"),
    (AffineSolutionSet, (DiffOp.d(1), [DiffOp.identity()], 3, 2),
     (DiffOp.d(1), [DiffOp.identity()], 3, 3), {"constraints": 0, "rank": 0},
     "AffineSolutionSet(particular=DiffOp((1)*D^1), homogeneous_basis=[DiffOp((1))], "
     "constraints=3, rank=2)"),
])
def test_records_keep_their_signature_equality_immutability_and_repr(
        record, args, other, defaults, text):
    # the records are built on every import of the package, so they are
    # typing.NamedTuple classes: no dataclass code generation
    assert not dataclasses.is_dataclass(record)
    assert [(p.name, p.default) for p in inspect.signature(record).parameters.values()] == [
        (name, defaults.get(name, inspect.Parameter.empty)) for name in record._fields]
    obj = record(*args)
    assert repr(obj) == text
    assert record(**dict(zip(record._fields, args))) == obj and record(*other) != obj
    short = args[:len(args) - len(defaults)]
    assert record(*short) == record(*short, *defaults.values())
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))


def test_record_methods_and_properties_survive():
    assert CurveDef().w_eps_power == 4 and CurveDef() == bcpair.DEFAULT_CURVE
    assert CurveDef(2).w_squared() != CurveDef().w_squared()
    assert hash(CurveDef()) == hash(CurveDef(4))
    failed, passed = Rank3Report(False, 4, (1, 5)), Rank3Report(True, -3, None)
    assert str(failed) == "rank-3 reduction FAILED at component Q_1, z-order 5"
    assert passed.verified_nonneg_orders == 0
    assert Rank3Report(True, 7, None).verified_nonneg_orders == 8
    assert str(passed) == "rank-3 reduction verified through z^-3 (0 non-negative orders)"
    fam = AffineSolutionSet(DiffOp.d(2), [DiffOp.identity()])
    assert fam.dimension == 1 and (fam.constraints, fam.rank) == (0, 0)
    assert fam.sample([Fraction(3)]) == DiffOp.d(2) + DiffOp.identity().scale(3)
