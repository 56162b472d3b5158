"""Seeded inputs, commands and correctness checks of the three workloads.

A workload is a sequence of rounds; round ``k`` of a run with seed ``s`` is
built from ``random.Random(f"{workload}/{s}/{k}")`` alone, so the same seed
always yields the same inputs.  ``run_round`` times each command as a user
would wait for it and returns its results; ``check_round`` checks them
exactly afterwards, outside the timing (and outside a traced pass).
Command times are scaled to a fixed host speed (``speed.py``).

A round is kept to a few seconds so that a run measures several of them:

* ``verify``: at symbolic eps, [L1, L2] = 0, Q(L1, L2) = 0, the eps -> 0
  limits, the chi constants, the function-field identity and the rank-3
  reduction of L1; at the round's seeded nonzero rational eps, [L1, L2] = 0,
  the function-field identity, the rank-3 reduction of L2 and the rejected
  reduction of L1 + D.
* ``construct``: re-derive L1 from the chi series; solve for the order-12
  commutant of the eps = 0 generator G (G^3 - 1 and G^4 - G are the eps -> 0
  limits of L1 and L2); rediscover the relation of the eps -> 0 limits of
  L1 and L2.  The commutant of L1 itself and the relation of L1 and L2 at
  symbolic eps take over a minute and 5 s, too long for a round.
* ``kn``: ``kn_check`` on a seeded (negative eps, five positive points) set
  at 60, 120 and 240 digits.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from fractions import Fraction

from speed import Scaled

WORKLOADS = ("verify", "construct", "kn")

# Each workload's commands, in the order a round runs them.
COMMANDS = {
    "verify": ("verify_symbolic", "verify_specialised"),
    "construct": ("construct_l1", "construct_l2", "construct_bc"),
    "kn": ("kn_check",),
}

SERIES_ORDER = 24
COMMUTANT_ORDER = 12
COMMUTANT_DIMENSION = 4   # G^3, G^2, G and 1 added to a monic order-12 member
KN_PRECISIONS = (60, 120, 240)


@dataclass
class Lib:
    """The imported package and the objects set-up builds from it."""

    bcpair: object
    l1: object
    l2: object
    chis: tuple
    lam: object
    mu: object


class Checks:
    """Correctness checks attempted so far and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _rational(rng: random.Random, num_max: int, den_max: int) -> Fraction:
    return Fraction(rng.randint(1, num_max), rng.randint(1, den_max))


def round_inputs(workload: str, seed: int, k: int) -> dict:
    """The inputs of round ``k``; JSON-ready (rationals as strings)."""
    rng = random.Random(f"{workload}/{seed}/{k}")
    if workload == "verify":
        eps = _rational(rng, 12, 6) * rng.choice((-1, 1))
        return {"eps": str(eps)}
    if workload == "construct":
        params = [_rational(rng, 99, 9) * rng.choice((-1, 1))
                  for _ in range(COMMUTANT_DIMENSION)]
        return {"family_params": [str(p) for p in params]}
    if workload == "kn":
        eps = -_rational(rng, 9, 4)
        points: list[Fraction] = []
        while len(points) < 5:
            x = _rational(rng, 12, 4)
            if x not in points:
                points.append(x)
        return {"eps": str(eps), "points": [str(x) for x in points]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def verify_symbolic(lib) -> dict:
    """The suites of ``verify all`` at symbolic eps, L1's rank-3 reduction."""
    b = lib.bcpair
    l1, l2 = lib.l1, lib.l2
    ident = b.DiffOp.identity(b.XLAURENT_RING)
    gen = b.make_limit_op()
    c0, c1, _ = b.chi_series_triple(8)
    rep = b.verify_rank3(l1, lib.chis, lib.lam)
    return {
        "[L1, L2] = 0": l1.commutator(l2).is_zero(),
        "Q(L1, L2) = 0": b.eval_poly_at_pair(b.bc_poly(), l1, l2).is_zero(),
        "function-field shadow": b.bc_function_identity(),
        "eps->0 of L1": l1.substitute_eps(0) == gen.op_power(3) - ident,
        "eps->0 of L2": l2.substitute_eps(0) == gen.op_power(4) - gen,
        "chi_1 constant term": c1.coefficient(0) == b.zeta2(),
        "chi_0 z^0 term": c0.coefficient(0) == b.zeta1(),
        "rank3 L1 -> (lambda, 0, 0)": rep.passed and rep.verified_nonneg_orders >= 8,
    }


def verify_specialised(lib, eps: Fraction) -> dict:
    """Exact suites of ``verify all`` at one rational eps."""
    b = lib.bcpair
    l1, l2 = lib.l1.substitute_eps(eps), lib.l2.substitute_eps(eps)
    chis = tuple(s.substitute_eps(eps) for s in lib.chis)
    lam, mu = lib.lam.substitute_eps(eps), lib.mu.substitute_eps(eps)
    rep2 = b.verify_rank3(l2, chis, mu)
    rep3 = b.verify_rank3(l1 + b.DiffOp.d(1, b.XLAURENT_RING), chis, lam)
    return {
        "[L1, L2] = 0": l1.commutator(l2).is_zero(),
        "function-field shadow": b.bc_function_identity(b.DEFAULT_CURVE, eps),
        "rank3 L2 -> (mu, 0, 0)": rep2.passed and rep2.verified_nonneg_orders >= 8,
        "rank3 rejects L1 + D": not rep3.passed,
    }


def limit_pair(lib) -> tuple:
    """The eps -> 0 limits of L1 and L2."""
    return lib.l1.substitute_eps(0), lib.l2.substitute_eps(0)


def run_round(workload: str, lib, inputs: dict,
              span=lambda name: contextlib.nullcontext()) -> tuple[dict, dict]:
    """Run one round; return ({command: scaled seconds}, {command: result}).

    ``span(command)`` gives a context manager entered around each command.
    """
    b = lib.bcpair
    times: dict[str, float] = {}
    results: dict[str, object] = {}

    def timed(name, fn):
        with span(name), Scaled() as clock:
            results[name] = fn()
        times[name] = clock.seconds

    if workload == "verify":
        eps = Fraction(inputs["eps"])
        timed("verify_symbolic", lambda: verify_symbolic(lib))
        timed("verify_specialised", lambda: verify_specialised(lib, eps))
    elif workload == "construct":
        a0, b0 = limit_pair(lib)
        timed("construct_l1", lambda: b.derive_L1_coeffs(*b.chi_series_triple(16)))
        timed("construct_l2", lambda: b.solve_commuting(b.make_limit_op(), COMMUTANT_ORDER))
        timed("construct_bc", lambda: b.find_bc_relation(a0, b0, 36))
    elif workload == "kn":
        eps = Fraction(inputs["eps"])
        points = [Fraction(x) for x in inputs["points"]]
        timed("kn_check", lambda: {p: b.kn_check(points=points, eps=eps, precision=p)
                                   for p in KN_PRECISIONS})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return times, results


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_round(workload: str, lib, inputs: dict, results: dict, checks: Checks) -> None:
    """Check every result of one round exactly."""
    b = lib.bcpair
    if workload == "verify":
        for command, label in (("verify_symbolic", "verify symbolic"),
                               ("verify_specialised", f"verify eps={inputs['eps']}")):
            for name, ok in results[command].items():
                checks.add(f"{label}: {name}", bool(ok))
    elif workload == "construct":
        derived = b.DiffOp(results["construct_l1"] + [b.XLaurent.zero(), b.XLaurent.one()],
                           b.XLAURENT_RING)
        checks.add("construct l1: derived coefficients equal make_l1()", derived == lib.l1)
        check_commutant(lib, results["construct_l2"], inputs["family_params"], checks)
        checks.add("construct bc: relation equals bc_poly() at eps = 0",
                   results["construct_bc"] == b.bc_poly().substitute_eps(0))
    elif workload == "kn":
        check_kn(lib, results["kn_check"], inputs, checks)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def check_commutant(lib, sol, family_params, checks: Checks) -> None:
    """Dimension 4, contains L2's limit, spans 1 and L1's limit, a seeded member commutes."""
    b = lib.bcpair
    a0, b0 = limit_pair(lib)
    ident = b.DiffOp.identity(b.XLAURENT_RING)
    checks.add(f"construct l2: dimension {COMMUTANT_DIMENSION}",
               sol.dimension == COMMUTANT_DIMENSION)
    checks.add("construct l2: contains the eps->0 limit of make_l2()", sol.contains(b0))
    checks.add("construct l2: spans 1 and the eps->0 limit of L1",
               sol.contains(sol.particular + ident) and sol.contains(sol.particular + a0))
    params = [Fraction(p) for p in family_params[:sol.dimension]]
    checks.add("construct l2: seeded member commutes with the eps->0 limit of L1",
               a0.commutator(sol.sample(params)).is_zero())


def check_kn(lib, reports: dict, inputs: dict, checks: Checks) -> None:
    """Criterion 10's thresholds, scaled to each precision p.

    Residual < 10^-(p-20), gamma residual < 10^-(p-10), and the residual
    shrinks by 10^10 from each precision to the next.  The published
    ("displayed") pole-data forms must miss the tolerance on the principal
    branch at the first point: that is the expected outcome.  (The full
    branch search for the displayed forms takes about a minute, more than a
    run may last.)
    """
    from mpmath import mpf
    for p, rep in reports.items():
        checks.add(f"kn@{p}: passed", bool(rep.passed))
        checks.add(f"kn@{p}: residual < 1e-{p - 20}", rep.max_residual < mpf(10) ** -(p - 20))
        checks.add(f"kn@{p}: gamma residual < 1e-{p - 10}",
                   rep.max_gamma_residual < mpf(10) ** -(p - 10))
    for lo, hi in zip(KN_PRECISIONS, KN_PRECISIONS[1:]):
        small = reports[hi].max_residual
        shrink_ok = small == 0 or reports[lo].max_residual / small >= mpf(10) ** 10
        checks.add(f"kn@{lo}->{hi}: residual shrinks by >= 1e10", bool(shrink_ok))

    kncheck = lib.bcpair.kncheck
    data = kncheck.kn_residuals(Fraction(inputs["points"][0]), Fraction(inputs["eps"]), 60,
                                branch=kncheck.BranchAssignment(), variant="displayed")
    checks.add("kn displayed variant misses the tolerance (expected)",
               bool(data.max_residual >= kncheck.default_tolerance(60)))
