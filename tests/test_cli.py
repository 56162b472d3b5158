"""Parser/printer round trips, report schema, exit-code contract."""

import json
import re
from fractions import Fraction

import pytest

from bcpair import DiffOp, XLAURENT_RING, make_l1, make_l2, make_limit_op
from bcpair.cli import (OpSyntaxError, main, parse_op, print_op, read_op_file,
                        write_op_file)
from conftest import random_xlaurent, rng

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
    assert parse_op("D*x - x*D") == DiffOp.identity(XLAURENT_RING)


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
                     for _ in range(r.randint(1, 5))], XLAURENT_RING)
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
    write_op_file(str(path), make_limit_op(), "limit operator")
    assert read_op_file(str(path)) == make_limit_op()
    raw = path.read_text()
    assert raw.startswith("# limit operator")


def test_json_format():
    payload = json.loads(print_op(make_limit_op(), "json"))
    assert payload["order"] == 3
    assert payload["coefficients"]["1"] == [{"eps": 0, "value": "-26", "x": -2}]


def test_tex_format_mentions_derivatives():
    tex = print_op(make_limit_op(), "tex")
    assert r"\frac{d^{3}}{dx^{3}}" in tex and r"\frac{26}{x^{2}}" in tex


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["verify", "limit"]) == 0
    capsys.readouterr()
    assert main(["verify", "bc", "--variant", "eps2"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


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
    assert payload["outcome"] in ("pass", "fail", "finding")
    for check in payload["checks"]:
        assert set(check) == {"name", "status", "detail"}
        assert check["status"] in ("pass", "fail")
    # the limit suite reads eps alone
    assert set(payload["inputs"]) == {"eps"}


def test_cli_verify_reports_only_inputs_its_suites_read(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["verify", "bc", "--eps", "2", "--json", str(path)]) == 0
    capsys.readouterr()
    assert set(json.loads(path.read_text())["inputs"]) == {"eps", "variant"}
    assert main(["verify", "rank", "--eps", "2", "--order", "12", "--json", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["inputs"] == {"eps": "2", "order": 12}


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
    assert set(payload["inputs"]) == {"seed", "out"}
    derived = read_op_file(str(out))
    assert derived.order == 12 and make_l1().commutator(derived).is_zero()
    with pytest.raises(SystemExit):
        main(["construct", "l2", "--window=-12..18"])
    capsys.readouterr()


def test_cli_rejects_options_the_command_does_not_read(capsys):
    # construct reads no eps or precision, verify no seed: they are usage errors
    for argv in (["construct", "l1", "--eps", "-1"],
                 ["construct", "l1", "--precision", "30"],
                 ["verify", "commute", "--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    # only l1 reads --order and only l2 reads --seed; rejected before any work
    for argv, option in ((["construct", "l1", "--seed", "3"], "--seed"),
                         (["construct", "l2", "--order", "5"], "--order"),
                         (["construct", "bc", "--order", "5"], "--order")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"construct {argv[1]} does not read {option}" in capsys.readouterr().err


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
