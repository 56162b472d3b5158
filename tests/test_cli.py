"""Parser/printer round trips, report schema, exit-code contract."""

import argparse
import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from bcpair import DiffOp, cli, make_l1, make_l2, make_limit_op, xl
from bcpair.cli import (OpSyntaxError, build_parser, main, parse_op, print_op,
                        read_op_file)
from conftest import child_env, random_xlaurent, rng

F = Fraction


CORPUS = [
    "D",
    "D^3",
    "0",
    "42",
    "-7/3",
    "x",
    "eps",
    "x^2*eps^4",
    "x^-2",
    "1/x",
    "26/x^2",
    "(x + 1)*(x - 1)",
    "D^3 - (26/x^2)*D - 28/x^3 + x^6/5832",
    "D*x",
    "x*D",
    "D*x - x*D",
    "(1/2)*D^2 + (3/4)*x*D",
    "eps^2*x^3/1944",
    "-(x^2 - 2)*D^5",
    "D^9 + (-78*x^-2)*D^7",
    "2*x^4*eps^2*D^3 - 5/7",
    "((D))",
    "x^6/5832 + x^3*eps^2/5832",
    "(x^-1 + x^-2)*D",
    "3*(x + 2*eps)*D^2",
    "D^2*D^3",
    "D - D",
    "1/2*x",
    "x/2",
    "(x^3 - 1/4)*(x^2 + 1/9)*D",
]


def test_parse_limit_operator():
    assert parse_op("D^3 - (26/x^2)*D - 28/x^3 + x^6/5832") == make_limit_op()


def test_parse_single_d():
    op = parse_op("D")
    assert op.order == 1 and op.is_monic() and op.coefficient(0).is_zero()


def test_noncommutative_semantics():
    assert parse_op("D*x - x*D") == DiffOp.identity()


def test_corpus_round_trips():
    for text in CORPUS:
        op = parse_op(text)
        printed = print_op(op)
        assert parse_op(printed) == op, text
        assert print_op(parse_op(printed)) == printed, text


def test_random_operator_round_trips():
    r = rng(50)
    for _ in range(1000):
        op = DiffOp([random_xlaurent(r, xspan=4, terms=3)
                     for _ in range(r.randint(1, 5))])
        printed = print_op(op)
        assert parse_op(printed) == op


def test_l1_l2_round_trip():
    for op in (make_l1(), make_l2()):
        assert parse_op(print_op(op)) == op


def test_syntax_error_reports_position():
    with pytest.raises(OpSyntaxError) as err:
        parse_op("D^3 + @")
    assert err.value.line == 1 and err.value.column == 7
    with pytest.raises(OpSyntaxError):
        parse_op("2 x")          # implicit multiplication
    with pytest.raises(OpSyntaxError):
        parse_op("(D")
    with pytest.raises(OpSyntaxError):
        parse_op("D^x")


def test_division_restrictions():
    with pytest.raises(OpSyntaxError):
        parse_op("1/(D + x)")
    with pytest.raises(OpSyntaxError):
        parse_op("1/(x + 1)")
    with pytest.raises(OpSyntaxError):
        parse_op("x/eps")
    assert parse_op("x^2/4") == parse_op("(1/4)*x^2")


def test_op_file_io(tmp_path):
    path = tmp_path / "op.txt"
    path.write_text(f"# limit operator\n{print_op(make_limit_op())}  # trailing note\n")
    assert read_op_file(str(path)) == make_limit_op()


def test_json_format():
    payload = json.loads(print_op(make_limit_op(), "json"))
    assert payload["order"] == 3
    assert payload["coefficients"]["1"] == [{"eps": 0, "value": "-26", "x": -2}]


def test_tex_format_mentions_derivatives():
    tex = print_op(make_limit_op(), "tex")
    assert r"\frac{d^{3}}{dx^{3}}" in tex and r"\frac{26}{x^{2}}" in tex


# sha256 of print_op output: a change in how coefficients are stored must leave
# the printed text byte-identical
PRINTED_SHA256 = {
    ("l1", "text"): "773913d74769356204c2253358cbc0aa16d033f29e4c68c91a3988e76b79cc51",
    ("l1", "json"): "88cab5379f1097449ab8e75775fda807deba719562b49b90316fcb6504a772d5",
    ("l1", "tex"): "90ad7e5b95bd4d4e58e13ba3592b5d1c6e5d33d16ca566bc430fb85e13298cb4",
    ("l2", "text"): "f4904b9a903515a0f9a47f72a3a0eec615193640c38f4ec32f550e8936e23751",
    ("l2", "json"): "813d4e5760fb5902bdbf03c82105b8b7ab08f8782b354c439141e114aa5b2c83",
    ("l2", "tex"): "10b9088e5fc7ff352dc0aa153337fa4ed17ebb6b1cc5543df6685d5ceae25635",
    ("limit", "text"): "aa29931f312454012d3684fcbf9d5b8fef9d10e8ea3cb3c08b261bf5d9950972",
    ("limit", "json"): "263c01a195881c162e7fce6e80ad24ec96290df5cf5e1efc855f8f79f10b71b5",
    ("limit", "tex"): "13b43736ffad2311e2aa3d9ee0643971c620876d40ce10bb05ec7015f78f98c5",
}


@pytest.mark.parametrize("name, fmt", sorted(PRINTED_SHA256))
def test_printer_output_is_pinned(name, fmt):
    op = {"l1": make_l1, "l2": make_l2, "limit": make_limit_op}[name]()
    digest = hashlib.sha256(print_op(op, fmt).encode()).hexdigest()
    assert digest == PRINTED_SHA256[(name, fmt)]


def printed_l2() -> DiffOp:
    """L2 as its published table prints it, without the x^0 constant of D^0."""
    return make_l2() - DiffOp.monomial(xl({0: {4: F(1541, 11337408)}}), 0)


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["verify", "limit"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    # a failed check is exit 1: the printed L2 still commutes with L1 (a
    # constant shift always does) but breaks the relation; the row names the
    # leading term, -3 delta at D^24 (the 3 L2^2 of dQ/dw times the missing
    # constant delta = 1541 eps^4/11337408)
    monkeypatch.setattr(cli, "make_l2", printed_l2)
    assert main(["verify", "bc"]) == 1
    assert ("  [FAIL] algebraic relation Q(L1, L2) = 0  "
            "(Q(L1, L2) != 0: leading term (-1541/3779136*eps^4)*D^24)\n"
            in capsys.readouterr().out)
    assert main(["verify", "commute"]) == 0
    capsys.readouterr()


def test_cli_non_commuting_pair_fails_named_rows(tmp_path, capsys, monkeypatch):
    # L2 + D does not commute with L1 ([L1, D] has a nonzero D^0 coefficient):
    # a failing row naming W_0, never an error exit
    monkeypatch.setattr(cli, "make_l2", lambda: make_l2() + DiffOp.d(1))
    named = "(operators do not commute: W_0 != 0)"
    assert main(["verify", "commute"]) == 1
    out = capsys.readouterr().out
    assert f"  [FAIL] commutator [L1, L2] vanishes identically  {named}\n" in out
    assert "19 of them" not in out
    assert main(["verify", "bc"]) == 1
    out = capsys.readouterr().out
    assert f"  [FAIL] algebraic relation Q(L1, L2) = 0  {named}\n" in out
    assert "[PASS] function-field shadow Q(lambda, mu) = 0 on the curve" in out
    assert "[PASS] the eps^2-variant curve breaks the function-field relation" in out
    report = tmp_path / "all.json"
    assert main(["verify", "all", "--json", str(report)]) == 1
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert payload["outcome"] == "fail"
    rows = {c["name"]: c for c in payload["checks"]}
    # every suite's rows: commute, bc (3), limit (2), rank (5), kn (2)
    assert len(rows) == 13
    for name in ("commutator [L1, L2] vanishes identically", "algebraic relation Q(L1, L2) = 0"):
        assert rows[name] == {"name": name, "status": "fail",
                              "detail": "operators do not commute: W_0 != 0"}
    assert rows["compatibility residuals below tolerance at all points"]["status"] == "pass"


def test_cli_failed_branch_search_is_a_failing_row(tmp_path, capsys, monkeypatch):
    # the displayed closed forms solve the system on no branch: the search's
    # error becomes the run's failing row, naming the worst equation and the
    # best assignment, and the report is still written
    from bcpair import kncheck
    resolved = kncheck._point_quantities
    monkeypatch.setattr(kncheck, "_point_quantities",
                        lambda x, eps, precision, branch, variant="resolved":
                        resolved(x, eps, precision, branch, "displayed"))
    report = tmp_path / "kn.json"
    assert main(["verify", "kn", "--precision", "40", "--points", "2",
                 "--json", str(report)]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert "[FAIL] verify kn runs to completion  (no branch assignment" in out.out
    (row,) = json.loads(report.read_text())["checks"]
    assert row["name"] == "verify kn runs to completion" and row["status"] == "fail"
    assert row["detail"].startswith("no branch assignment reaches tolerance 1.0e-20; ")
    assert row["detail"].endswith(
        "at BranchAssignment(phase=1, sqrt_3c4=1, w_signs=(0, 0, 0)), in Eq[3, 0] (pole 3)")


@pytest.mark.parametrize("target, solver, error", [
    ("l1", "derive_L1_coeffs", "PipelineError"),
    ("l2", "solve_commuting", "EmptyCommutant"),
    ("bc", "find_bc_relation", "PipelineError"),
])
def test_cli_construct_solver_failure_is_a_failing_row(
        tmp_path, capsys, monkeypatch, target, solver, error):
    from bcpair import pipeline
    message = f"{solver} fails exact re-verification at D^3"

    def fails(*args, **kwargs):
        raise getattr(pipeline, error)(message)
    monkeypatch.setattr(pipeline, solver, fails)
    out, report = tmp_path / "artifact.txt", tmp_path / "r.json"
    assert main(["construct", target, "--out", str(out), "--json", str(report)]) == 1
    printed = capsys.readouterr()
    assert printed.err == ""
    assert f"  [FAIL] construct {target} runs to completion  ({message})\n" in printed.out
    payload = json.loads(report.read_text())
    assert payload["outcome"] == "fail" and payload["findings"] == []
    assert payload["checks"] == [{"name": f"construct {target} runs to completion",
                                  "status": "fail", "detail": message}]
    assert not out.exists()


def test_one_commutator_per_relation_check(capsys, monkeypatch):
    # the relation search and the bc suite each decide commutation once and
    # evaluate Q through the unchecked body: a second commutator would be waste
    from bcpair import find_bc_relation, make_l1, pipeline
    calls = []
    commutator = DiffOp.commutator
    monkeypatch.setattr(DiffOp, "commutator",
                        lambda self, other: calls.append(1) or commutator(self, other))
    l1, l2 = make_l1().substitute_eps(0), make_l2().substitute_eps(0)
    assert find_bc_relation(l1, l2, 36) is not None
    assert len(calls) == 1
    calls.clear()
    assert main(["verify", "bc"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_passing_relation_check_builds_no_order_36_product(capsys, monkeypatch):
    # Q(L1, L2) = 0 is decided on x^0 parts: one commutator, and full products
    # only up to the squares L1^2 and L2^2 (order 24), never one of order 36
    from bcpair import bc_poly, eval_poly_at_pair
    calls, orders = [], []
    commutator, compose = DiffOp.commutator, DiffOp.compose

    def counted_compose(self, other):
        product = compose(self, other)
        orders.append(product.order)
        return product
    monkeypatch.setattr(DiffOp, "commutator",
                        lambda self, other: calls.append(1) or commutator(self, other))
    monkeypatch.setattr(DiffOp, "compose", counted_compose)
    assert eval_poly_at_pair(bc_poly(), make_l1(), make_l2()).is_zero()
    assert (len(calls), max(orders)) == (1, 24)
    calls.clear()
    orders.clear()
    assert main(["verify", "bc"]) == 0
    capsys.readouterr()
    assert (len(calls), max(orders)) == (1, 24)


def test_relation_search_builds_no_order_36_product(monkeypatch):
    # the search solves the x^0 rows of the weight-36 monomials: full products only
    # up to L1^2 and L2^2 (order 24), and each x^0 product, its lower-order factor
    # on the left, by direct Leibniz pairing with no D^i . B recurrence run
    from bcpair import diffop, exact, find_bc_relation
    orders, runs, x0_runs = [], [], []
    compose, rows, x0 = DiffOp.compose, exact._d_power_rows, diffop.compose_x0_coefficients

    def counted_compose(self, other):
        product = compose(self, other)
        orders.append(product.order)
        return product

    def counted_x0(a, b):
        before = len(runs)
        out = x0(a, b)
        x0_runs.append((len(a) - 1, len(b) - 1, len(runs) - before))
        return out
    monkeypatch.setattr(DiffOp, "compose", counted_compose)
    monkeypatch.setattr(exact, "_d_power_rows", lambda *args: runs.append(1) or rows(*args))
    monkeypatch.setattr(diffop, "compose_x0_coefficients", counted_x0)
    assert find_bc_relation(make_l1(), make_l2(), 36) is not None
    assert max(orders) == 24
    assert sorted(x0_runs) == [
        (9, 12, 0), (9, 18, 0), (9, 24, 0), (12, 18, 0), (12, 24, 0), (18, 18, 0)]


SUITES =("all", "commute", "bc", "limit", "rank", "kn")


@pytest.mark.parametrize("eps", ["symbolic", "-1", "0", "1", "2", "-3/2"])
def test_cli_no_suite_fails_on_the_shipped_data(capsys, eps):
    # exit 2 only where no check applies (limit) or the input is refused (kn)
    for suite in SUITES:
        usage = ((suite == "limit" and eps != "symbolic")
                 or (suite == "kn" and eps != "symbolic" and F(eps) >= 0))
        assert main(["verify", suite, "--eps", eps]) == (2 if usage else 0), suite
        assert "[FAIL]" not in capsys.readouterr().out


def test_cli_bc_checks_the_eps2_erratum(capsys, monkeypatch):
    variant_row = "[PASS] the eps^2-variant curve breaks the function-field relation"
    for eps in ("symbolic", "2", "-3/2"):
        assert main(["verify", "bc", "--eps", eps]) == 0
        out = capsys.readouterr().out
        assert variant_row in out and "[note]" not in out
    # where eps^2 = eps^4 the two curves coincide: a note, never a pass
    for eps in ("1", "-1", "0"):
        assert main(["verify", "bc", "--eps", eps]) == 0
        out = capsys.readouterr().out
        assert "breaks the function-field relation" not in out
        assert f"[note] at eps = {eps} the eps^2-variant curve is the standard curve" in out
        assert "verify bc: pass (2 checks" in out
    assert main(["verify", "all", "--eps", "1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] algebraic relation Q(L1, L2) = 0" in out and variant_row not in out
    # the identity decides the row: a variant curve that satisfied it would fail
    monkeypatch.setattr(cli, "bc_function_identity", lambda curve, eps: True)
    assert main(["verify", "bc"]) == 1
    assert "[FAIL] the eps^2-variant curve breaks" in capsys.readouterr().out


def test_cli_json_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "commute", "--json", str(p1)]) == 0
    assert main(["verify", "commute", "--json", str(p2)]) == 0
    capsys.readouterr()
    strip = lambda s: re.sub(r'"wall_time_s":[0-9.e-]+', '"wall_time_s":0', s)
    assert strip(p1.read_text()) == strip(p2.read_text())


def test_cli_report_schema(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["verify", "limit", "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["schema"] == "bcpair-report/1"
    assert set(payload) == {"schema", "command", "inputs", "outcome", "checks",
                            "findings", "wall_time_s"}
    assert payload["outcome"] in ("pass", "fail", "skipped")
    for check in payload["checks"]:
        assert set(check) == {"name", "status", "detail"}
        assert check["status"] in ("pass", "fail")
    # the limit suite reads eps alone
    assert set(payload["inputs"]) == {"eps"}


def test_cli_verify_reports_only_inputs_its_suites_read(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["verify", "bc", "--eps", "2", "--json", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["inputs"] == {"eps": "2"}
    assert main(["verify", "rank", "--eps", "2", "--json", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["inputs"] == {"eps": "2"}


def test_cli_print_command(tmp_path, capsys):
    path = tmp_path / "op.txt"
    path.write_text("# comment line\nD^2 - x  # trailing comment\n")
    assert main(["print", str(path)]) == 0
    out = capsys.readouterr().out.strip()
    assert parse_op(out) == parse_op("D^2 - x")
    assert main(["print", str(tmp_path / "missing.txt")]) == 2


def test_cli_construct_l1(tmp_path, capsys):
    out = tmp_path / "l1.txt"
    assert main(["construct", "l1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert read_op_file(str(out)) == make_l1()


def test_cli_verify_commute_numeric_eps(capsys):
    # the --eps=value spelling works as well as --eps value
    assert main(["verify", "commute", "--eps=-3/2"]) == 0
    capsys.readouterr()


def test_cli_construct_l1_reports_no_window(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["construct", "l1", "--out", str(tmp_path / "l1.txt"),
                 "--json", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert "window" not in payload["inputs"]
    assert payload["outcome"] == "pass"


def test_cli_construct_l2(tmp_path, capsys):
    out, report = tmp_path / "l2.txt", tmp_path / "r.json"
    assert main(["construct", "l2", "--out", str(out), "--json", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert payload["outcome"] == "pass"
    assert payload["inputs"] == {"out": str(out)}
    derived = read_op_file(str(out))
    assert derived.order == 12 and make_l1().commutator(derived).is_zero()
    with pytest.raises(SystemExit):
        main(["construct", "l2", "--window=-12..18"])
    capsys.readouterr()


def test_cli_unwritable_out_or_json_path_is_usage_error(tmp_path, capsys):
    # a directory, or a file in a missing directory, cannot be written: exit 2
    # with the path named, not a traceback with the exit code of a failed check
    for argv, path in ((["construct", "l1", "--out", str(tmp_path)], tmp_path),
                       (["construct", "l1", "--out", str(tmp_path / "no" / "l1.txt")],
                        tmp_path / "no" / "l1.txt"),
                       (["verify", "commute", "--json", str(tmp_path)], tmp_path)):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
    assert list(tmp_path.iterdir()) == []


# the options each sub-command reads; every other one is a usage error
READS = {
    ("verify", "all"): {"eps", "precision", "points"},
    ("verify", "commute"): {"eps"},
    ("verify", "bc"): {"eps"},
    ("verify", "limit"): {"eps"},
    ("verify", "rank"): {"eps"},
    ("verify", "kn"): {"eps", "precision", "points"},
    ("construct", "l1"): {"out"},
    ("construct", "l2"): {"out"},
    ("construct", "bc"): {"out"},
}
# order, variant and seed were options once; every sub-command now rejects them
OPTION_VALUES = {"eps": "-1", "order": "12", "precision": "60", "points": "1,2",
                 "variant": "eps2", "seed": "3", "out": "artifact.txt"}


@pytest.mark.parametrize("command, target, option", [
    (command, target, option) for (command, target), reads in READS.items()
    for option in sorted(OPTION_VALUES) if option not in reads])
def test_cli_every_subcommand_rejects_each_option_it_does_not_read(
        tmp_path, capsys, monkeypatch, command, target, option):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, target, f"--{option}", OPTION_VALUES[option], "--json", "r.json"])
    assert exc.value.code == 2
    assert f"{command} {target} does not read --{option}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []      # rejected before any work: no report


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# a cheap run of every verify suite, and construct l1
CHEAP_RUNS = {
    ("verify", "all"): ["--eps", "2", "--precision", "30", "--points", "2"],
    ("verify", "commute"): ["--eps", "2"],
    ("verify", "bc"): ["--eps", "2"],
    ("verify", "limit"): [],
    ("verify", "rank"): ["--eps", "2"],
    ("verify", "kn"): ["--precision", "30", "--points", "2"],
    ("construct", "l1"): ["--out", "l1.txt"],
}


@pytest.mark.parametrize("command, target", sorted(CHEAP_RUNS))
def test_cli_report_inputs_are_the_options_the_parser_accepts(
        tmp_path, capsys, monkeypatch, command, target):
    parser = _subcommands(_subcommands(build_parser())[command])[target]
    accepted = {s[2:] for a in parser._actions for s in a.option_strings
                if s.startswith("--") and s not in ("--help", "--json")}
    assert accepted == READS[(command, target)]
    monkeypatch.chdir(tmp_path)
    assert main([command, target, *CHEAP_RUNS[(command, target)], "--json", "r.json"]) == 0
    capsys.readouterr()
    assert set(json.loads((tmp_path / "r.json").read_text())["inputs"]) == accepted


def test_cli_zero_checks_is_skipped_not_pass(tmp_path, capsys):
    # the limit suite runs only at symbolic eps: nothing applies at eps = 1
    path = tmp_path / "r.json"
    assert main(["verify", "limit", "--eps", "1", "--json", str(path)]) == 2
    out = capsys.readouterr()
    assert "skipped" in out.out and "pass" not in out.out
    assert "error:" in out.err
    payload = json.loads(path.read_text())
    assert payload["outcome"] == "skipped" and payload["checks"] == []


def test_cli_verify_kn_rejects_nonnegative_eps(capsys):
    assert main(["verify", "kn", "--eps", "2"]) == 2
    assert "negative eps" in capsys.readouterr().err


def test_cli_verify_all_kn_detail_states_eps(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["verify", "all", "--eps", "1", "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["inputs"]["eps"] == "1"
    kn_checks = [c for c in payload["checks"] if "residual" in c["name"]]
    assert len(kn_checks) == 2
    assert all(c["detail"].startswith("eps = -1:") for c in kn_checks)


def test_cli_negative_eps_as_separate_argument(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["verify", "commute", "--eps", "-1/2", "--json", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["inputs"]["eps"] == "-1/2"
    # a --points list may start with a negative point too (x = -1 is in the
    # domain at eps = -2: x^3 + eps^2 = 3)
    assert main(["verify", "kn", "--eps", "-2", "--points", "-1,2", "--precision", "30",
                 "--json", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["inputs"]["points"] == ["-1", "2"]


def test_cli_kn_point_zero_is_usage_error(capsys):
    assert main(["verify", "kn", "--points", "1,0"]) == 2
    out = capsys.readouterr()
    assert "error: x = 0 is excluded" in out.err and "PASS" not in out.out


def test_cli_kn_repeated_point_is_usage_error(capsys):
    # 2/2 is the point x = 1 again: one evaluation must not count twice
    for points in ("1,1", "1,2,2/2"):
        assert main(["verify", "kn", "--eps", "-1", "--points", points]) == 2
        out = capsys.readouterr()
        assert "error: x = 1 repeats an earlier point" in out.err and "PASS" not in out.out


@pytest.mark.parametrize("args, message", [
    (["--points", "1,0"], "x = 0 is excluded"),
    (["--eps", "-1", "--points", "1,-2"], "x = -2 is outside the domain"),
    (["--eps", "1", "--points", "1,-1"], "x = -1 is outside the domain"),
    (["--eps", "1/0"], "--eps: '1/0' is not a rational number"),
    (["--eps", "1/x"], "--eps: '1/x' is not a rational number"),
])
def test_cli_all_checks_points_before_any_suite(capsys, monkeypatch, args, message):
    # verify all checks the kn points with the eps its kn suite will use
    def no_suite(*_):
        raise AssertionError("a suite ran")
    monkeypatch.setattr(cli, "_suite_commute", no_suite)
    assert main(["verify", "all"] + args) == 2
    out = capsys.readouterr()
    assert f"error: {message}" in out.err and "PASS" not in out.out


def test_cli_points_that_are_not_rational_are_usage_errors():
    # the type error names the bad entry; argparse names the option before it
    # (test_cli_refuses_malformed_input_by_name)
    with pytest.raises(argparse.ArgumentTypeError, match="'1/0' is not a rational number"):
        cli._rationals("1,1/0")


def _run_module(args, **kwargs) -> subprocess.Popen:
    """``python -m bcpair args`` with this checkout's ``src`` first on the path."""
    return subprocess.Popen([sys.executable, "-m", "bcpair", *args], env=child_env(), **kwargs)


@pytest.mark.parametrize("args", [["print", "{op}", "--format", "tex"]] + [
    [command, target] + (["--out", "{out}"] if "out" in reads else [])
    for command, (_, _, targets) in cli._COMMANDS.items()
    for target, (_, reads) in targets.items()])
def test_cli_closed_stdout_ends_quietly(tmp_path, args):
    # the reader closes the pipe before the child writes: no traceback, and the
    # exit code says so (1 would mean a failed check)
    op, out = tmp_path / "op.txt", tmp_path / "out.txt"
    op.write_text("D^3 + x*D + 26/x^2\n", encoding="utf-8")
    proc = _run_module([a.format(op=op, out=out) for a in args],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    try:
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == cli.EXIT_CLOSED_STDOUT == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "Exception ignored" not in err


def test_cli_interrupt_during_a_solve_ends_quietly():
    # SIGINT raises KeyboardInterrupt wherever the solve is; here it comes from
    # the solve itself: one line on stderr, no traceback, 128 + SIGINT
    code = ("import sys\n"
            "from bcpair import cli, pipeline\n"
            "def interrupted(*args):\n"
            "    raise KeyboardInterrupt\n"
            "pipeline.solve_commuting = interrupted\n"
            "sys.exit(cli.main(['construct', 'l2']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == cli.EXIT_INTERRUPTED == 130
    assert proc.stderr.splitlines() == ["interrupted"]
    assert "PASS" not in proc.stdout


# a malformed value of each rational or int option, and what stderr must say
MALFORMED = {
    "eps": ("1/0", "error: --eps: '1/0' is not a rational number"),
    "points": ("1,x", "argument --points: 'x' is not a rational number"),
    "precision": ("x", "argument --precision: invalid int value: 'x'"),
}


@pytest.mark.parametrize("args, message", [
    pytest.param([command, target, f"--{name}", MALFORMED[name][0]], MALFORMED[name][1],
                 id=f"{command}-{target}-{name}")
    for command, (_, _, targets) in cli._COMMANDS.items()
    for target, (_, reads) in targets.items()
    for name in reads if name != "out"] + [
    pytest.param(["print", "{binary}"], "error: {binary} is not UTF-8 text",
                 id="print-binary")])
def test_cli_refuses_malformed_input_by_name(tmp_path, args, message):
    # exit 2, the option or path named on stderr, and no traceback
    binary = tmp_path / "op.txt"
    binary.write_bytes(b"D^2 - \xff\n")
    proc = _run_module([a.format(binary=binary) for a in args],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert message.format(binary=binary) in err
    assert "Traceback" not in err and "PASS" not in out


def test_cli_kn_precision_below_minimum_is_usage_error(capsys):
    # 5 digits would mean a tolerance of 1e15, a vacuous pass
    assert main(["verify", "kn", "--eps", "-1", "--precision", "5"]) == 2
    out = capsys.readouterr()
    assert "precision >= 30" in out.err and "PASS" not in out.out


def test_package_import_leaves_cli_unloaded():
    # bcpair.main, parse_op and print_op load the command-line module on first use
    code = ("import sys, bcpair\n"
            "assert 'bcpair.cli' not in sys.modules\n"
            "assert bcpair.print_op is bcpair.cli.print_op\n"
            "assert bcpair.main is bcpair.cli.main and bcpair.parse_op is bcpair.cli.parse_op\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
