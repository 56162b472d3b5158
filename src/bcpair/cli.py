"""Command-line workbench: parse and print operators, run the verification
suites, run the construction pipelines, emit human- and machine-readable
reports.

Expression grammar (operator files use the same syntax, '#' starts a
comment):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-'|'+') factor | power
    power  := atom ('^' ('-')? INT)?
    atom   := INT | 'x' | 'eps' | 'D' | '(' expr ')'

Multiplication is operator composition ('x*D' and 'D*x' differ); implicit
multiplication is a syntax error.  Division and negative powers are allowed
only for order-0 single-monomial operands without eps content, so '26/x^2'
and 'x^-2' both work but '1/(D+x)' does not.

Exit codes: 0 all checks passed, 1 a check failed, 2 refused input (an
unread option, a bad --eps, --points or --precision, an unwritable path) or
no check applied to the given inputs, 130 interrupted by SIGINT (Ctrl-C)
once the package has loaded, with one ``interrupted`` line on stderr and no
traceback, 141 stdout closed early by its reader.  A failed check is a
named failing row, and the report is still printed and written: a
non-commuting pair names its first nonzero ``W_k``, and a solver result that
fails re-verification or a failed branch search is the row ``<command> runs
to completion`` with the error's text.
No command fails by design: on the shipped data every check passes, and a
published erratum is a check that the erratum's form fails (the eps^2 curve
in ``verify bc``).  Every option changes an input that a check reads.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import EpsPoly, XLaurent
from .diffop import DiffOp, _commutation_failure, _leading_term, _relation_failure
from .curve import CurveDef, bc_function_identity, curve_series, lambda_fn, mu_fn
from .opdata import bc_poly, make_l1, make_l2, make_limit_op, zeta1, zeta2
from . import pipeline

SCHEMA = "bcpair-report/1"
#: the exit code when the reader closes stdout early: 128 + SIGPIPE, as a shell reports it
EXIT_CLOSED_STDOUT = 141
#: the exit code of a run interrupted by SIGINT (Ctrl-C): 128 + SIGINT, as a shell reports it
EXIT_INTERRUPTED = 130


class OpSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
            continue
        if ch in " \t\r":
            pos += 1
            continue
        col = pos - line_start + 1
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise OpSyntaxError(f"unexpected character {ch!r}", line, col)
        if m.group(1):
            tokens.append(("int", int(m.group(1)), line, col))
        elif m.group(2):
            tokens.append(("name", m.group(2), line, col))
        else:
            tokens.append(("op", m.group(3), line, col))
        pos = m.end()
    tokens.append(("end", None, line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise OpSyntaxError(message, tok[2], tok[3])

    def parse(self) -> DiffOp:
        op = self.expr()
        if self.peek()[0] != "end":
            self.error("trailing input after expression")
        return op

    def expr(self) -> DiffOp:
        left = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            sign = self.next()[1]
            right = self.term()
            left = left + right if sign == "+" else left - right
        return left

    def term(self) -> DiffOp:
        left = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            tok = self.next()
            right = self.factor()
            if tok[1] == "*":
                left = left.compose(right)
            else:
                left = left.compose(_inverse_unit_op(right, self, tok))
        return left

    def factor(self) -> DiffOp:
        if self.peek()[:2] in (("op", "-"), ("op", "+")):
            sign = self.next()[1]
            inner = self.factor()
            return -inner if sign == "-" else inner
        return self.power()

    def power(self) -> DiffOp:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            tok = self.next()
            negative = False
            if self.peek()[:2] == ("op", "-"):
                self.next()
                negative = True
            etok = self.next()
            if etok[0] != "int":
                self.error("exponent must be an integer", etok)
            k = etok[1]
            if negative:
                base = _inverse_unit_op(base, self, tok)
            return base.op_power(k)
        return base

    def atom(self) -> DiffOp:
        tok = self.next()
        if tok[0] == "int":
            return DiffOp.monomial(XLaurent.monomial(0, tok[1]), 0)
        if tok[0] == "name":
            if tok[1] == "x":
                return DiffOp.monomial(XLaurent.var(), 0)
            if tok[1] == "eps":
                return DiffOp.monomial(XLaurent({0: EpsPoly.eps_power(1)}), 0)
            if tok[1] == "D":
                return DiffOp.d(1)
            self.error(f"unknown symbol {tok[1]!r}", tok)
        if tok[:2] == ("op", "("):
            inner = self.expr()
            closing = self.next()
            if closing[:2] != ("op", ")"):
                self.error("expected ')'", closing)
            return inner
        self.error("expected a number, symbol or '('", tok)


def _inverse_unit_op(op: DiffOp, parser: _Parser, tok) -> DiffOp:
    if op.order != 0:
        parser.error("division/negative powers need an order-0 operand", tok)
    c = op.coeffs[0]
    if not c.is_monomial():
        parser.error("division only by x-monomials and rational constants", tok)
    (xe, ee, v), = c.terms()
    if ee != 0:
        parser.error("division by eps powers is not representable", tok)
    return DiffOp.monomial(XLaurent.monomial(-xe, Fraction(c.den, v)), 0)


def parse_op(text: str) -> DiffOp:
    """Parse an operator expression (comments already stripped)."""
    return _Parser(text).parse()


def read_op_file(path: str) -> DiffOp:
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            lines.append(raw.split("#", 1)[0])
    return parse_op("\n".join(lines))


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

def _monomials(op: DiffOp):
    """The one walk every print format reads: each nonzero D^k coefficient,
    k descending, as (k, whether it is 1, its monomials (x-exponent,
    eps-exponent, value) by descending x- then ascending eps-exponent)."""
    for k in range(int(op.order), -1, -1) if not op.is_zero() else ():
        c = op.coefficient(k)
        if not c.is_zero():
            yield k, c.is_one(), [(xe, ee, Fraction(v, c.den)) for xe, ee, v
                                  in sorted(c.terms(), key=lambda t: (-t[0], t[1]))]


def _join_signed(pieces) -> str:
    """'a + b - c' from (negative, text) pieces; a leading minus is attached."""
    out = ""
    for i, (negative, text) in enumerate(pieces):
        out += (" - " if negative else " + ") if i else ("-" if negative else "")
        out += text
    return out


def _text_monomial(xe: int, ee: int, v: Fraction) -> str:
    parts = []
    if v != 1 or (xe == 0 and ee == 0):
        parts.append(str(v))
    if xe != 0:
        parts.append("x" if xe == 1 else f"x^{xe}")
    if ee != 0:
        parts.append("eps" if ee == 1 else f"eps^{ee}")
    return "*".join(parts)


def _tex_monomial(xe: int, ee: int, v: Fraction) -> str:
    mono = (f"x^{{{xe}}}" if xe > 0 else "") + (rf"\epsilon^{{{ee}}}" if ee > 0 else "")
    core = f"{v.numerator}{mono}" if v.numerator != 1 or not mono else mono
    if xe < 0:
        den = f"x^{{{-xe}}}" if v.denominator == 1 else rf"{v.denominator}\,x^{{{-xe}}}"
        return rf"\frac{{{core}}}{{{den}}}"
    return rf"\frac{{{core}}}{{{v.denominator}}}" if v.denominator != 1 else core


def print_op(op: DiffOp, fmt: str = "text") -> str:
    """Render an operator; 'text' output re-parses to an equal operator."""
    walk = list(_monomials(op))
    if fmt == "text":
        terms = []
        for k, one, monos in walk:
            dpart = "D" if k == 1 else (f"D^{k}" if k else "")
            if one and k:
                terms.append(dpart)
                continue
            coeff = _join_signed((v < 0, _text_monomial(xe, ee, abs(v))) for xe, ee, v in monos)
            terms.append(f"({coeff})*{dpart}" if k else f"({coeff})")
        return " + ".join(terms) or "0"
    if fmt == "json":
        coeffs = {str(k): [{"x": xe, "eps": ee, "value": str(v)} for xe, ee, v in sorted(monos)]
                  for k, _, monos in walk}
        return json.dumps({"order": None if op.is_zero() else int(op.order),
                           "coefficients": coeffs}, sort_keys=True)
    if fmt == "tex":
        chunks = []
        for k, one, monos in walk:
            dtex = rf"\frac{{d^{{{k}}}}}{{dx^{{{k}}}}}" if k else ""
            if one and k:
                chunks.append((False, dtex))
            else:
                chunks.extend((v < 0, _tex_monomial(xe, ee, abs(v)) + dtex)
                              for xe, ee, v in monos)
        return _join_signed(chunks) or "0"
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    status: str          # pass | fail
    detail: str = ""


@dataclass
class Report:
    command: str
    inputs: dict
    checks: list[Check] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, "pass" if ok else "fail", detail))
        return ok

    @property
    def outcome(self) -> str:
        if any(c.status == "fail" for c in self.checks):
            return "fail"
        return "pass" if self.checks else "skipped"

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "outcome": self.outcome,
            "checks": [{"name": c.name, "status": c.status, "detail": c.detail}
                       for c in self.checks],
            "findings": self.findings,
            "wall_time_s": self.wall_time_s,
        }
        # rationals (the kn points) are written as text
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


_COLOR = sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _status_text(status: str) -> str:
    if _COLOR:
        code = "32" if status == "pass" else "31"
        return f"\x1b[{code}m{status.upper()}\x1b[0m"
    return status.upper()


def _emit(report: Report) -> None:
    for c in report.checks:
        line = f"  [{_status_text(c.status)}] {c.name}"
        if c.detail:
            line += f"  ({c.detail})"
        print(line)
    for f in report.findings:
        print(f"  [note] {f}")
    print(f"{report.command}: {report.outcome} "
          f"({len(report.checks)} checks, {report.wall_time_s:.2f}s)")


# ---------------------------------------------------------------------------
# the verification suites; eps is None (symbolic) or a Fraction
# ---------------------------------------------------------------------------

def _maybe_eps(op_or_val, eps):
    return op_or_val if eps is None else op_or_val.substitute_eps(eps)


def _suite_commute(report: Report, eps) -> None:
    why = _commutation_failure(_maybe_eps(make_l1(), eps), _maybe_eps(make_l2(), eps))
    report.add("commutator [L1, L2] vanishes identically", why is None,
               why or "coefficients of D^0..D^18 all zero (19 of them)")


def _suite_bc(report: Report, eps) -> None:
    l1, l2 = _maybe_eps(make_l1(), eps), _maybe_eps(make_l2(), eps)
    why = (_commutation_failure(l1, l2)
           or _relation_failure("Q(L1, L2)", _leading_term(_maybe_eps(bc_poly(), eps), l1, l2)))
    report.add("algebraic relation Q(L1, L2) = 0", why is None,
               why or "w^3 - 1/15552*eps^4*w^2 - z^4 - z^3 at (z, w) = (L1, L2)")
    report.add("function-field shadow Q(lambda, mu) = 0 on the curve",
               bc_function_identity(CurveDef(), eps))
    # a published display of the curve has eps^2 where eps^4 belongs
    if eps is not None and eps**2 == eps**4:
        report.findings.append(f"at eps = {eps} the eps^2-variant curve is the standard "
                               "curve (eps^2 = eps^4), so the erratum is not tested")
        return
    report.add("the eps^2-variant curve breaks the function-field relation",
               not bc_function_identity(CurveDef(w_eps_power=2), eps),
               "w^2 = 1 - 2z^3 - (eps^2/3888)z^4 + z^6, as one display prints it")


def _suite_limit(report: Report, eps) -> None:
    if eps is not None:
        return          # the eps -> 0 limits are statements at symbolic eps
    l1, l2 = make_l1(), make_l2()
    gen = make_limit_op()
    ident = DiffOp.identity()
    report.add("eps->0 of L1 equals (limit op)^3 - 1",
               l1.substitute_eps(0) == gen.op_power(3) - ident)
    report.add("eps->0 of L2 equals (limit op)^4 - limit op",
               l2.substitute_eps(0) == gen.op_power(4) - gen)


def _suite_rank(report: Report, eps) -> None:
    chis = pipeline.ChiTriple(_maybe_eps(s, eps) for s in pipeline.chi_series_triple())
    lam, mu = (_maybe_eps(curve_series(f()), eps) for f in (lambda_fn, mu_fn))
    l1, l2 = _maybe_eps(make_l1(), eps), _maybe_eps(make_l2(), eps)
    rep1 = pipeline.verify_rank3(l1, chis, lam)
    report.add("reduction of L1 equals (lambda, 0, 0)",
               rep1.passed and rep1.verified_nonneg_orders >= 8, str(rep1))
    rep2 = pipeline.verify_rank3(l2, chis, mu)
    report.add("reduction of L2 equals (mu, 0, 0)",
               rep2.passed and rep2.verified_nonneg_orders >= 8, str(rep2))
    rep3 = pipeline.verify_rank3(l1 + DiffOp.d(1), chis, lam)
    report.add("perturbed operator L1 + D is rejected", not rep3.passed, str(rep3))
    if eps is None:
        # the z^0 coefficients do not depend on the window
        c0, c1, _ = chis
        report.add("chi_1 constant term is 26/x^2", c1.coefficient(0) == zeta2())
        report.add("chi_0 z^0 term matches the corrected expansion constant",
                   c0.coefficient(0) == zeta1(),
                   "28/x^3 - (eps^2 x^3 + x^6)/5832; a published display says "
                   "28/x^2, which the reduction refutes")


def _suite_kn(report: Report, eps, precision: int, points) -> None:
    if eps is not None and eps >= 0:
        raise ValueError(f"the kn suite needs a negative eps, got {eps}")
    from . import kncheck       # mpmath loads only for the numeric suite
    eps = Fraction(-1) if eps is None else eps
    rep = kncheck.kn_check(points=points, eps=eps, precision=precision)
    from mpmath import nstr
    report.add("compatibility residuals below tolerance at all points", rep.passed,
               f"eps = {eps}: max residual {nstr(rep.max_residual, 5)} < "
               f"{nstr(rep.tolerance, 3)} at {len(rep.points)} points")
    report.add("gamma-equation residual at full precision",
               rep.max_gamma_residual < kncheck.mpf(10) ** (-(precision - 10)),
               f"eps = {eps}: max {nstr(rep.max_gamma_residual, 5)}")
    report.findings.append(
        "branch assignment: " + json.dumps(rep.branch.describe(), sort_keys=True))


def _suite_all(report: Report, eps, precision: int, points) -> None:
    # the numeric suite needs eps < 0; under "all" it falls back to eps = -1
    from . import kncheck
    kn_eps = eps if eps is not None and eps < 0 else Fraction(-1)
    kncheck.default_tolerance(precision)     # both before any suite runs
    kncheck.check_points(points, kn_eps)
    _suite_commute(report, eps)
    _suite_bc(report, eps)
    _suite_limit(report, eps)
    _suite_rank(report, eps)
    _suite_kn(report, kn_eps, precision, points)


# ---------------------------------------------------------------------------
# the construction targets
# ---------------------------------------------------------------------------

def _write_artifact(report: Report, path: str, header: str, body: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n{body}\n")
    report.findings.append(f"wrote {path}")


def _construct_l1(report: Report, out: str) -> None:
    coeffs = pipeline.derive_L1_coeffs(*pipeline.chi_series_triple())
    derived = DiffOp(coeffs + [XLaurent.zero(), XLaurent.one()])
    report.add("derived coefficients match the catalogued operator", derived == make_l1())
    _write_artifact(report, out or "l1_derived.txt",
                    "order-9 operator re-derived from the chi expansions", print_op(derived))


def _construct_l2(report: Report, out: str) -> None:
    l1 = make_l1()
    sol = pipeline.solve_commuting(l1, 12)
    report.add("affine solution set has dimension 2", sol.dimension == 2,
               f"dimension {sol.dimension}: rank {sol.rank} of {sol.constraints} "
               "constraints on 12 integration constants")
    report.add("solution set contains the catalogued order-12 operator",
               sol.contains(make_l2()))
    ident = DiffOp.identity()
    report.add("homogeneous basis spans {identity, L1}",
               sol.contains(sol.particular + ident) and
               sol.contains(sol.particular + l1))
    import random
    rng = random.Random(20120715)
    params = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in sol.homogeneous_basis]
    member = sol.sample(params)
    report.add("random member of the family commutes exactly",
               l1.commutator(member).is_zero(), f"parameters {params}")
    _write_artifact(report, out or "l2_derived.txt",
                    "order-12 commuting operator (particular solution; "
                    "add rational multiples of 1 and of the order-9 operator)",
                    print_op(sol.particular))


def _construct_bc(report: Report, out: str) -> None:
    q = pipeline.find_bc_relation(make_l1(), make_l2(), 36)
    if q is None:
        report.add("algebraic relation found within weight 36", False,
                   "no relation within bound")
        return
    report.add("discovered relation matches w^3 - 1/15552*eps^4*w^2 - z^4 - z^3",
               q == bc_poly(), str(q))
    _write_artifact(report, out or "bc_derived.txt",
                    "minimal algebraic relation of the commuting pair", str(q))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


def _eps(text: str) -> Fraction | None:
    try:
        return None if text == "symbolic" else _rational(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"--eps: {exc}") from None


def _rationals(text: str) -> list[Fraction]:
    return [_rational(p) for p in text.split(",")]


#: the argparse settings of every option a sub-command may read
_OPTIONS = {
    "eps": dict(default="symbolic",
                help="'symbolic' or a rational value like -1 or -3/2"),
    "precision": dict(type=int, default=60, help="decimal digits for the numeric suite"),
    "points": dict(type=_rationals, default="1,3/2,2,3,5",
                   help="comma-separated rational sample points for the numeric suite"),
    "out": dict(default="", help="artifact output path"),
}

#: Every verify suite and construct target, declared once: the function that
#: runs it and the options that function reads (its keyword parameters).  The
#: sub-command's parser accepts just these options (and --json), and its
#: report lists just these inputs.
_COMMANDS = {
    "verify": ("suite", "run a verification suite", {
        "all": (_suite_all, ("eps", "precision", "points")),
        "commute": (_suite_commute, ("eps",)),
        "bc": (_suite_bc, ("eps",)),
        "limit": (_suite_limit, ("eps",)),
        "rank": (_suite_rank, ("eps",)),
        "kn": (_suite_kn, ("eps", "precision", "points")),
    }),
    "construct": ("target", "run a construction pipeline", {
        "l1": (_construct_l1, ("out",)),
        "l2": (_construct_l2, ("out",)),
        "bc": (_construct_bc, ("out",)),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bcpair",
        description="Exact workbench for a rank-3 commuting pair of "
                    "differential operators on a genus-2 spectral curve.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (positional, help_text, targets) in _COMMANDS.items():
        group = sub.add_parser(command, help=help_text).add_subparsers(
            dest=positional, required=True)
        for target, (run, reads) in targets.items():
            p = group.add_parser(target)
            for name in reads:
                p.add_argument(f"--{name}", **_OPTIONS[name])
            p.add_argument("--json", dest="json_path", default=None,
                           help="write the machine-readable report to this path")
            p.set_defaults(parser=p, run=run, reads=reads)
    pp = sub.add_parser("print", help="parse an operator file and re-print it")
    pp.add_argument("path")
    pp.add_argument("--format", choices=("text", "json", "tex"), default="text")
    pp.set_defaults(parser=pp)
    return ap


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--eps -1/2`` as ``--eps=-1/2`` and ``--points -1,2`` as
    ``--points=-1,2``: argparse reads a dash-led value that is not a plain
    number as an option.  No option name starts with a dash and a digit."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--eps", "--points") and re.match(r"-\d", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _error(message) -> int:
    """Print ``error: message`` to stderr; the exit code of a refused input (2)."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # as the Python signal docs show: devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = EXIT_INTERRUPTED
    return code


def _main(argv) -> int:
    args, unread = build_parser().parse_known_args(
        _join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    name = args.parser.prog.removeprefix("bcpair ")      # "verify commute", "print"
    if unread:
        args.parser.error(f"{name} does not read {' '.join(unread)}")
    if args.command == "print":
        try:
            op = read_op_file(args.path)
        except (OpSyntaxError, OSError) as exc:
            return _error(exc)
        except UnicodeDecodeError as exc:
            return _error(f"{args.path} is not UTF-8 text: {exc}")
        print(print_op(op, args.format))
        return 0
    report = Report(command=name, inputs={k: getattr(args, k) for k in args.reads})
    t0 = time.perf_counter()
    try:
        # the report keeps eps as given; the suites read None (symbolic) or its
        # value
        args.run(report, **{k: _eps(v) if k == "eps" else v for k, v in report.inputs.items()})
    except (pipeline.PipelineError, ArithmeticError) as exc:
        # a check the library decided by raising: this run's failing row
        report.add(f"{name} runs to completion", False, str(exc))
    except (ValueError, OSError) as exc:
        # refused input; OSError: a construct target's --out path cannot be written
        return _error(exc)
    report.wall_time_s = round(time.perf_counter() - t0, 3)
    _emit(report)
    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
        except OSError as exc:
            return _error(exc)
    if report.outcome == "skipped":
        return _error(f"no check of '{report.command}' applies to these inputs")
    return 1 if report.outcome == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
