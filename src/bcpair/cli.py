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

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error or no
check applied to the given inputs.
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

from .exact import DEFAULT_SERIES_ORDER, EpsPoly, XLaurent
from .diffop import DiffOp, XLAURENT_RING, eval_poly_at_pair
from .curve import CurveDef, bc_function_identity, curve_series, lambda_fn, mu_fn
from .opdata import bc_poly, make_l1, make_l2, make_limit_op, zeta1, zeta2
from . import kncheck, pipeline

SCHEMA = "bcpair-report/1"


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
            return DiffOp.from_coeff(XLaurent.monomial(0, tok[1]), XLAURENT_RING)
        if tok[0] == "name":
            if tok[1] == "x":
                return DiffOp.from_coeff(XLaurent.var(), XLAURENT_RING)
            if tok[1] == "eps":
                return DiffOp.from_coeff(
                    XLaurent({0: EpsPoly.eps_power(1)}), XLAURENT_RING)
            if tok[1] == "D":
                return DiffOp.d(1, XLAURENT_RING)
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
    if not c.is_unit():
        parser.error("division only by x-monomials and rational constants", tok)
    (xe, epoly), = c.c.items()
    (ee, val), = epoly.c.items()
    if ee != 0:
        parser.error("division by eps powers is not representable", tok)
    return DiffOp.from_coeff(XLaurent.monomial(-xe, Fraction(1) / val), XLAURENT_RING)


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

def _monomial_pieces(c: XLaurent):
    """Yield (sign, text) canonical monomial renderings of a coefficient."""
    for xe in sorted(c.c, reverse=True):
        epoly = c.c[xe]
        for ee in sorted(epoly.c):
            v = epoly.c[ee]
            sign = "-" if v < 0 else "+"
            v = abs(v)
            parts = []
            if v != 1 or (xe == 0 and ee == 0):
                parts.append(str(v))
            if xe != 0:
                parts.append("x" if xe == 1 else f"x^{xe}")
            if ee != 0:
                parts.append("eps" if ee == 1 else f"eps^{ee}")
            yield sign, "*".join(parts)


def _coeff_text(c: XLaurent) -> str:
    out = []
    for sign, body in _monomial_pieces(c):
        if not out:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f" {sign} {body}")
    return "".join(out) or "0"


def print_op(op: DiffOp, fmt: str = "text") -> str:
    """Render an operator; 'text' output re-parses to an equal operator."""
    if fmt == "text":
        if op.is_zero():
            return "0"
        terms = []
        for k in range(int(op.order), -1, -1):
            c = op.coefficient(k)
            if c.is_zero():
                continue
            dpart = "D" if k == 1 else (f"D^{k}" if k else "")
            if c.is_one() and k:
                body = dpart
            elif k:
                body = f"({_coeff_text(c)})*{dpart}"
            else:
                body = f"({_coeff_text(c)})"
            terms.append(body)
        return " + ".join(terms)
    if fmt == "json":
        coeffs = {}
        for k in range(int(op.order) + 1 if not op.is_zero() else 0):
            c = op.coefficient(k)
            if c.is_zero():
                continue
            coeffs[str(k)] = [
                {"x": xe, "eps": ee, "value": str(c.c[xe].c[ee])}
                for xe in sorted(c.c) for ee in sorted(c.c[xe].c)]
        return json.dumps({"order": None if op.is_zero() else int(op.order),
                           "coefficients": coeffs}, sort_keys=True)
    if fmt == "tex":
        if op.is_zero():
            return "0"
        chunks = []
        for k in range(int(op.order), -1, -1):
            c = op.coefficient(k)
            if c.is_zero():
                continue
            dtex = rf"\frac{{d^{{{k}}}}}{{dx^{{{k}}}}}" if k else ""
            body = []
            for xe in sorted(c.c, reverse=True):
                for ee in sorted(c.c[xe].c):
                    v = c.c[xe].c[ee]
                    s = "-" if v < 0 else "+"
                    v = abs(v)
                    num = f"{v.numerator}"
                    mono = ""
                    if xe > 0:
                        mono += f"x^{{{xe}}}"
                    if ee > 0:
                        mono += rf"\epsilon^{{{ee}}}"
                    core = num + mono if v.numerator != 1 or not mono else mono
                    if xe < 0:
                        frac = rf"\frac{{{core}}}{{x^{{{-xe}}}}}" if v.denominator == 1 \
                            else rf"\frac{{{core}}}{{{v.denominator}\,x^{{{-xe}}}}}"
                    elif v.denominator != 1:
                        frac = rf"\frac{{{core}}}{{{v.denominator}}}"
                    else:
                        frac = core
                    body.append((s, frac))
            if c.is_one() and k:
                chunks.append(("+", dtex))
            else:
                for s, frac in body:
                    chunks.append((s, frac + dtex))
        out = ""
        for i, (s, frag) in enumerate(chunks):
            out += frag if i == 0 and s == "+" else (f" {s} " if i else "-") + frag
        return out
    raise ValueError(f"unknown format {fmt!r}")


def write_op_file(path: str, op: DiffOp, header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for ln in header.splitlines():
                fh.write(f"# {ln}\n")
        fh.write(print_op(op, "text") + "\n")


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
        if not self.checks:
            return "finding" if self.findings else "skipped"
        return "pass"

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
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


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
# the verification suites
# ---------------------------------------------------------------------------

def _maybe_eps(op_or_val, eps):
    return op_or_val if eps is None else op_or_val.substitute_eps(eps)


def _suite_commute(report: Report, eps) -> None:
    l1, l2 = _maybe_eps(make_l1(), eps), _maybe_eps(make_l2(), eps)
    comm = l1.commutator(l2)
    report.add("commutator [L1, L2] vanishes identically", comm.is_zero(),
               "coefficients of D^0..D^18 all zero (19 of them)")


def _suite_bc(report: Report, eps, variant: str) -> None:
    curve = CurveDef(w_eps_power=2) if variant == "eps2" else CurveDef()
    if variant == "eps2":
        report.add("function-field relation on the eps^2-variant curve",
                   bc_function_identity(curve, eps),
                   "expected to fail: the variant curve breaks the relation")
        return
    l1, l2 = _maybe_eps(make_l1(), eps), _maybe_eps(make_l2(), eps)
    q = bc_poly() if eps is None else bc_poly().substitute_eps(eps)
    res = eval_poly_at_pair(q, l1, l2)
    report.add("algebraic relation Q(L1, L2) = 0", res.is_zero(),
               "w^3 - 1/15552*eps^4*w^2 - z^4 - z^3 at (z, w) = (L1, L2)")
    report.add("function-field shadow Q(lambda, mu) = 0 on the curve",
               bc_function_identity(CurveDef(), eps))


def _suite_limit(report: Report) -> None:
    l1, l2 = make_l1(), make_l2()
    gen = make_limit_op()
    ident = DiffOp.identity(XLAURENT_RING)
    report.add("eps->0 of L1 equals (limit op)^3 - 1",
               l1.substitute_eps(0) == gen.op_power(3) - ident)
    report.add("eps->0 of L2 equals (limit op)^4 - limit op",
               l2.substitute_eps(0) == gen.op_power(4) - gen)


#: the rank suite asks for 8 verified non-negative z-orders; the mu window
#: (pole order 4) reaches that from a series order of 12
MIN_RANK_ORDER = 12


def _suite_rank(report: Report, eps, order: int) -> None:
    chis = pipeline.chi_series_triple(order)
    lam = curve_series(lambda_fn(), order)
    mu = curve_series(mu_fn(), order)
    l1, l2 = make_l1(), make_l2()
    if eps is not None:
        chis = tuple(s.substitute_eps(eps) for s in chis)
        lam, mu = lam.substitute_eps(eps), mu.substitute_eps(eps)
        l1, l2 = l1.substitute_eps(eps), l2.substitute_eps(eps)
    rep1 = pipeline.verify_rank3(l1, chis, lam)
    report.add("reduction of L1 equals (lambda, 0, 0)",
               rep1.passed and rep1.verified_nonneg_orders >= 8, str(rep1))
    rep2 = pipeline.verify_rank3(l2, chis, mu)
    report.add("reduction of L2 equals (mu, 0, 0)",
               rep2.passed and rep2.verified_nonneg_orders >= 8, str(rep2))
    rep3 = pipeline.verify_rank3(l1 + DiffOp.d(1, XLAURENT_RING), chis, lam)
    report.add("perturbed operator L1 + D is rejected", not rep3.passed, str(rep3))
    if eps is None:
        c0, c1, c2 = pipeline.chi_series_triple(8)
        report.add("chi_1 constant term is 26/x^2", c1.coefficient(0) == zeta2())
        report.add("chi_0 z^0 term matches the corrected expansion constant",
                   c0.coefficient(0) == zeta1(),
                   "28/x^3 - (eps^2 x^3 + x^6)/5832; a published display says "
                   "28/x^2, which the reduction refutes")


def _suite_kn(report: Report, eps: Fraction, precision: int, points) -> None:
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


SUITES = ("all", "commute", "bc", "limit", "rank", "kn")


def cmd_verify(args) -> Report:
    eps = None if args.eps == "symbolic" else Fraction(args.eps)
    if args.suite == "kn" and eps is not None and eps >= 0:
        raise ValueError(f"the kn suite needs a negative eps, got {args.eps}")
    if args.suite in ("rank", "all") and args.order < MIN_RANK_ORDER:
        raise ValueError(f"the rank suite needs --order >= {MIN_RANK_ORDER}, got {args.order}")
    if args.suite in ("kn", "all"):
        kncheck.default_tolerance(args.precision)   # rejects too few digits up front
    points = [Fraction(p) for p in args.points.split(",")] if args.points else \
        [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)]
    # list only the inputs that the selected suites read
    inputs = {"eps": args.eps}
    if args.suite in ("rank", "all"):
        inputs["order"] = args.order
    if args.suite in ("kn", "all"):
        inputs.update(precision=args.precision, points=[str(p) for p in points])
    if args.suite in ("bc", "all"):
        inputs["variant"] = args.variant
    report = Report(command=f"verify {args.suite}", inputs=inputs)
    t0 = time.perf_counter()
    if args.suite in ("commute", "all"):
        _suite_commute(report, eps)
    if args.suite in ("bc", "all"):
        _suite_bc(report, eps, args.variant)
    if args.suite in ("limit", "all") and eps is None:
        _suite_limit(report)
    if args.suite in ("rank", "all"):
        _suite_rank(report, eps, args.order)
    if args.suite in ("kn", "all"):
        # the numeric suite needs eps < 0; under "all" it falls back to eps = -1
        kn_eps = eps if (eps is not None and eps < 0) else Fraction(-1)
        _suite_kn(report, kn_eps, args.precision, points)
    report.wall_time_s = round(time.perf_counter() - t0, 3)
    return report


# ---------------------------------------------------------------------------
# the construction commands
# ---------------------------------------------------------------------------

_CONSTRUCT_INPUTS = {"l1": ("order", "out"), "l2": ("seed", "out"), "bc": ("out",)}
_CONSTRUCT_DEFAULTS = {"order": DEFAULT_SERIES_ORDER, "seed": 20120715}


def _construct_defaults(ap: argparse.ArgumentParser, args) -> None:
    """Reject an option given to a construct target that does not read it;
    give the options left out their defaults."""
    for name, default in _CONSTRUCT_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name not in _CONSTRUCT_INPUTS[args.target]:
            ap.error(f"construct {args.target} does not read --{name}")


def cmd_construct(args) -> Report:
    used = {"order": args.order, "seed": args.seed, "out": args.out or ""}
    report = Report(
        command=f"construct {args.target}",
        inputs={k: used[k] for k in _CONSTRUCT_INPUTS[args.target]})
    t0 = time.perf_counter()
    out_path = args.out or f"{args.target}_derived.txt"
    if args.target == "l1":
        chis = pipeline.chi_series_triple(args.order)
        try:
            coeffs = pipeline.derive_L1_coeffs(*chis)
        except pipeline.PipelineError as exc:
            report.add("derivation of the order-9 coefficients", False, str(exc))
            report.wall_time_s = round(time.perf_counter() - t0, 3)
            return report
        derived = DiffOp(coeffs + [XLaurent.zero(), XLaurent.one()], XLAURENT_RING)
        report.add("derived coefficients match the catalogued operator",
                   derived == make_l1())
        write_op_file(out_path, derived, "order-9 operator re-derived from the chi expansions")
        report.findings.append(f"wrote {out_path}")
    elif args.target == "l2":
        l1 = make_l1()
        sol = pipeline.solve_commuting(l1, 12)
        report.add("affine solution set has dimension 2", sol.dimension == 2,
                   f"dimension {sol.dimension}: rank {sol.rank} of {sol.constraints} "
                   "constraints on 12 integration constants")
        report.add("solution set contains the catalogued order-12 operator",
                   sol.contains(make_l2()))
        ident = DiffOp.identity(XLAURENT_RING)
        report.add("homogeneous basis spans {identity, L1}",
                   sol.contains(sol.particular + ident) and
                   sol.contains(sol.particular + l1))
        import random
        rng = random.Random(args.seed)
        params = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in sol.homogeneous_basis]
        member = sol.sample(params)
        report.add("random member of the family commutes exactly",
                   l1.commutator(member).is_zero(), f"parameters {params}")
        write_op_file(out_path, sol.particular,
                      "order-12 commuting operator (particular solution; "
                      "add rational multiples of 1 and of the order-9 operator)")
        report.findings.append(f"wrote {out_path}")
    elif args.target == "bc":
        q = pipeline.find_bc_relation(make_l1(), make_l2(), 36)
        if q is None:
            report.add("algebraic relation found within weight 36", False,
                       "no relation within bound")
        else:
            report.add("discovered relation matches w^3 - 1/15552*eps^4*w^2 - z^4 - z^3",
                       q == bc_poly(), str(q))
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(f"# minimal algebraic relation of the commuting pair\n{q}\n")
            report.findings.append(f"wrote {out_path}")
    report.wall_time_s = round(time.perf_counter() - t0, 3)
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bcpair",
        description="Exact workbench for a rank-3 commuting pair of "
                    "differential operators on a genus-2 spectral curve.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--order", type=int, default=DEFAULT_SERIES_ORDER,
                       help="series truncation (terms beyond the lowest exponent)")
        p.add_argument("--json", dest="json_path", default=None,
                       help="write the machine-readable report to this path")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    common(pv)
    pv.add_argument("--eps", default="symbolic",
                    help="'symbolic' or a rational value like -1 or -3/2")
    pv.add_argument("--precision", type=int, default=60,
                    help="decimal digits for the numeric suite")
    pv.add_argument("--points", default=None,
                    help="comma-separated rational sample points for the numeric suite")
    pv.add_argument("--variant", choices=("default", "eps2"), default="default",
                    help="eps2 selects the variant curve (expected to fail the bc suite)")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("construct", help="run a construction pipeline")
    pc.add_argument("target", choices=("l1", "l2", "bc"))
    common(pc)
    pc.add_argument("--seed", type=int, default=None,
                    help="seed for the randomized spot checks")
    pc.add_argument("--out", default=None, help="artifact output path")
    pc.set_defaults(func=cmd_construct, order=None)

    pp = sub.add_parser("print", help="parse an operator file and re-print it")
    pp.add_argument("path")
    pp.add_argument("--format", choices=("text", "json", "tex"), default="text")
    pp.set_defaults(func=None)
    return ap


def _join_negative_eps(argv: list[str]) -> list[str]:
    """Rewrite ``--eps -1/2`` as ``--eps=-1/2``: argparse reads a dash-led
    value that is not a plain number as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--eps" and re.fullmatch(r"-\d+(/\d+)?", arg):
            out[-1] = f"--eps={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_join_negative_eps(sys.argv[1:] if argv is None else list(argv)))
    if args.command == "print":
        try:
            op = read_op_file(args.path)
        except (OpSyntaxError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(print_op(op, args.format))
        return 0
    if args.command == "construct":
        _construct_defaults(ap, args)
    try:
        report = args.func(args)
    except (pipeline.PipelineError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    if report.outcome == "skipped":
        print(f"error: no check of '{report.command}' applies to these inputs",
              file=sys.stderr)
        return 2
    return 1 if report.outcome == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
