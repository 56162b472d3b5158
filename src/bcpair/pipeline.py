"""Constructive algorithms: re-derive the operator pair and its algebraic
relation from scratch.

* ``derive_L1_coeffs`` recovers the order-9 operator's coefficients from the
  chi series alone (reduce D^9 + sum f_n D^n modulo the third-order relation,
  equate the remainder to (lambda, 0, 0), and back-substitute through the
  triangular system over Q[eps]).
* ``solve_commuting`` computes the full affine family of monic operators of a
  given order commuting with a given monic operator: the Burchnall-Chaundy
  recursion integrates the coefficients top-down, one constant each, and the
  remaining linear constraints are eliminated fraction-free over Q[eps].  No
  ansatz window bounds the result, and an empty family is named by the
  constraint that cannot hold.
* ``find_bc_relation`` discovers the minimal-weight algebraic relation
  annihilating a commuting pair.
* ``verify_rank3`` checks the reduction remainder of an operator against its
  expected eigenvalue series.

Every solver's output is re-verified by exact substitution before it is
returned; elimination results are never trusted on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (DEFAULT_SERIES_ORDER, BivarPoly, EpsPoly, ExactError,
                    XLaurent, ZSeries, ep)
from .diffop import DiffOp, XLAURENT_RING, binom
from .curve import DEFAULT_CURVE, chi, curve_series, lambda_fn
from . import linsolve

_INF = float("inf")


class PipelineError(RuntimeError):
    pass


class TruncationTooShort(PipelineError):
    pass


# ---------------------------------------------------------------------------
# the rank-3 reduction frame
# ---------------------------------------------------------------------------

def chi_series_triple(order: int = DEFAULT_SERIES_ORDER, curve=DEFAULT_CURVE):
    """The three chi expansions at the marked point, ready for reduction."""
    return tuple(curve_series(chi(j, curve), order) for j in range(3))


def reduction_frame(chi0: ZSeries, chi1: ZSeries, chi2: ZSeries, n_max: int):
    """Remainders of D^k modulo T = D^3 - chi2 D^2 - chi1 D - chi0, k <= n_max.

    Returns a list of triples (a0, a1, a2) of ZSeries with
    D^k = a0 + a1 D + a2 D^2 (mod T).
    """
    one, zero = ZSeries.one(), ZSeries.zero()
    frame = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    for _ in range(3, n_max + 1):
        a0, a1, a2 = frame[-1]
        frame.append((a0.derive() + a2 * chi0,
                      a0 + a1.derive() + a2 * chi1,
                      a1 + a2.derive() + a2 * chi2))
    return frame


def reduce_with_frame(op: DiffOp, frame):
    """Remainder (Q0, Q1, Q2) of an XLaurent-coefficient operator mod T."""
    if op.order >= len(frame):
        raise PipelineError("frame too short for this operator order")
    q = [ZSeries.zero(), ZSeries.zero(), ZSeries.zero()]
    for n, c in enumerate(op.coeffs):
        if c.is_zero():
            continue
        rn = frame[n]
        q = [q[j] + rn[j] * c for j in range(3)]
    return tuple(q)


@dataclass(frozen=True)
class Rank3Report:
    """Outcome of the reduction check of one operator against an eigenvalue."""

    passed: bool
    max_verified_order: int                 # highest z-exponent confirmed zero
    verified_nonneg_orders: int             # count of confirmed orders >= 0
    first_failure: tuple[int, int] | None   # (component j, z-order), if any

    def __str__(self):
        if self.passed:
            return (f"rank-3 reduction verified through z^{self.max_verified_order} "
                    f"({self.verified_nonneg_orders} non-negative orders)")
        j, s = self.first_failure
        return f"rank-3 reduction FAILED at component Q_{j}, z-order {s}"


def verify_rank3(op: DiffOp, chis, eigen: ZSeries,
                 check_order: int | None = None) -> Rank3Report:
    """Check remainder(op mod T) = (eigen, 0, 0) through the series window."""
    chi0, chi1, chi2 = chis
    frame = reduction_frame(chi0, chi1, chi2, max(op.order, 3))
    q0, q1, q2 = reduce_with_frame(op, frame)
    residuals = [q0 - eigen, q1, q2]
    failures = []
    uppers = []
    for j, res in enumerate(residuals):
        upper = res.upper if res.upper != _INF else res.lowest + len(res.coeffs)
        if check_order is not None:
            upper = min(upper, check_order + 1)
        uppers.append(int(upper))
        for e in range(res.lowest, int(upper)):
            if not res.coefficient(e).is_zero():
                failures.append((e, j))
                break
    if failures:
        e, j = min(failures)
        return Rank3Report(False, e - 1, max(0, e), (j, e))
    max_ok = min(uppers) - 1
    return Rank3Report(True, max_ok, max(0, max_ok + 1), None)


# ---------------------------------------------------------------------------
# deriving the order-9 coefficients from the chi data
# ---------------------------------------------------------------------------

def derive_L1_coeffs(chi0: ZSeries, chi1: ZSeries, chi2: ZSeries,
                     order: int = 9, *, eigen: ZSeries | None = None,
                     verify: bool = True) -> list[XLaurent]:
    """Recover f_0..f_{order-2} of the monic operator D^order + sum f_n D^n.

    The remainder of the operator modulo T must equal (eigen, 0, 0); the
    unknowns enter linearly, and the z-orders -2..0 of the three remainder
    components give nine equations for the eight coefficient functions.  The
    system is triangular with unit pivots (the Burchnall-Chaundy recursion),
    so it is solved exactly over Q[eps] by back-substitution: a row with one
    unsolved unknown whose coefficient is a unit fixes that unknown, and a
    row with none left must reduce to zero.  The result is re-verified
    symbolically against the reduction remainder over the full series window.
    """
    for name, s in (("chi0", chi0), ("chi1", chi1), ("chi2", chi2)):
        if s.upper != _INF and s.upper - s.lowest < 8:
            raise TruncationTooShort(
                f"{name} carries fewer than 8 terms beyond its lowest exponent")
    if eigen is None:
        span = int(chi0.upper - chi0.lowest) if chi0.upper != _INF else DEFAULT_SERIES_ORDER
        eigen = curve_series(lambda_fn(), span)

    n_unknowns = order - 1
    frame = reduction_frame(chi0, chi1, chi2, order)
    top = frame[order]
    rows = []
    for s in (-2, -1, 0):
        for j in range(3):
            try:
                coeffs = {n: c for n in range(n_unknowns)
                          if not (c := frame[n][j].coefficient(s)).is_zero()}
                rhs = (eigen.coefficient(s) if j == 0 else XLaurent.zero()) \
                    - top[j].coefficient(s)
            except ExactError as exc:
                raise TruncationTooShort(
                    f"series window does not cover z^{s} of component {j}") from exc
            rows.append(((j, s), coeffs, rhs))

    solved: dict[int, XLaurent] = {}
    while rows:
        for i, ((j, s), coeffs, rhs) in enumerate(rows):
            unsolved = [n for n in coeffs if n not in solved]
            if len(unsolved) > 1 or (unsolved and not coeffs[unsolved[0]].is_unit()):
                continue
            del rows[i]
            value = rhs
            for n in coeffs:
                if n in solved:
                    value = value - coeffs[n] * solved[n]
            if not unsolved:
                if not value.is_zero():
                    raise PipelineError(
                        f"reduction system inconsistent at component Q_{j}, z-order {s}")
            else:
                try:
                    solved[unsolved[0]] = value.divide_unit(coeffs[unsolved[0]])
                except ExactError as exc:
                    raise PipelineError(
                        f"pivot of component Q_{j}, z-order {s} does not divide "
                        f"its right-hand side over Q[eps]") from exc
            break
        else:
            raise PipelineError("reduction system has no unit pivot left; unsolved rows: "
                                + "; ".join(f"Q_{j}, z-order {s}" for (j, s), _, _ in rows))
    missing = [n for n in range(n_unknowns) if n not in solved]
    if missing:
        raise PipelineError(f"reduction rows at z-orders -2..0 do not determine "
                            f"f_{', f_'.join(map(str, missing))}")
    coeffs_out = [solved[n] for n in range(n_unknowns)]

    if verify:
        op = DiffOp(coeffs_out + [XLaurent.zero(), XLaurent.one()], XLAURENT_RING)
        report = verify_rank3(op, (chi0, chi1, chi2), eigen)
        if not report.passed:
            raise PipelineError(f"derived coefficients fail re-verification: {report}")
    return coeffs_out


# ---------------------------------------------------------------------------
# the commutant by the Burchnall-Chaundy recursion
# ---------------------------------------------------------------------------

class EmptyCommutant(PipelineError):
    """No monic operator of the requested order commutes with the given one."""


def _op_vector(op: DiffOp) -> dict[tuple[int, int, int], Fraction]:
    out = {}
    for k, c in enumerate(op.coeffs):
        for xe, epoly in c.c.items():
            for ee, v in epoly.c.items():
                out[(k, xe, ee)] = v
    return out


def _eps_shifts(ops: list[DiffOp], max_eps: int) -> list[DiffOp]:
    """All eps^{2j}-multiples of the given operators with eps-degree <= max_eps."""
    out = []
    for op in ops:
        top = max((ee for _, _, ee in op.support()), default=0)
        j = 0
        while top + 2 * j <= max_eps:
            out.append(op if j == 0 else op.scale(EpsPoly.eps_power(2 * j)))
            j += 1
    return out


def _in_span(target: DiffOp, ops: list[DiffOp]) -> bool:
    ech = linsolve.FractionEchelon()
    for op in ops:
        ech.insert(_op_vector(op))
    return not ech.reduce_vector(_op_vector(target))


@dataclass
class AffineSolutionSet:
    """Affine family particular + Q[eps]-span of homogeneous_basis.

    ``homogeneous_basis`` holds one primitive (content-free) generator over
    Q[eps] per free integration constant; it is zero at the other free
    constants and monic at its own.  Where that entry is 1 (as for every
    operator in the catalogue), the solutions with Q[eps] coefficients are
    exactly particular + sum t_i(eps) * basis_i with polynomial t_i.
    ``constraints`` and ``rank`` describe the linear system that was solved.
    """

    particular: DiffOp
    homogeneous_basis: list[DiffOp]
    constraints: int = 0
    rank: int = 0

    @property
    def dimension(self) -> int:
        return len(self.homogeneous_basis)

    def sample(self, params) -> DiffOp:
        out = self.particular
        for t, h in zip(params, self.homogeneous_basis):
            out = out + h.scale(ep(t))
        return out

    def contains(self, op: DiffOp) -> bool:
        """Exact affine-membership test (eps-polynomial combinations allowed)."""
        delta = op - self.particular
        if delta.is_zero():
            return True
        if not self.homogeneous_basis:
            return False
        max_eps = max((ee for _, _, ee in delta.support()), default=0)
        for h in self.homogeneous_basis:
            max_eps = max(max_eps, max((ee for _, _, ee in h.support()), default=0))
        return _in_span(delta, _eps_shifts(self.homogeneous_basis, max_eps + 8))


def _integrate_level(integrands: dict[int, XLaurent], n: int, j: int):
    """Components of b_j from the D^(n+j-1) coefficients of [A, B] so far.

    Each component's equation reads ``n*b_j' + integrand = 0``, so b_j is
    ``-1/n`` times an antiderivative.  An x^-1 term has no Laurent
    antiderivative: its coefficients form the obstruction row of b_j, which
    must vanish, and the antiderivatives leave it out.  Returns (components
    of b_j, the labelled obstruction row if there is one).
    """
    parts, obstruction = {}, {}
    for comp, f in integrands.items():
        if -1 in f.c:
            obstruction[comp] = f.c[-1]
        g = XLaurent({e + 1: v.scale(Fraction(-1, n * (e + 1)))
                      for e, v in f.c.items() if e != -1})
        if not g.is_zero():
            parts[comp] = g
    return parts, [(f"the x^-1 obstruction of b_{j}", obstruction)] if obstruction else []


def _eliminate(rows, m: int) -> linsolve.BareissEchelon:
    """Echelon of the constraints on c_0..c_(m-1); column m is the particular part."""
    ech = linsolve.BareissEchelon(rows, m)
    if ech.inconsistent is not None:
        raise EmptyCommutant(f"no monic operator of order {m} commutes with the given "
                             f"operator: {ech.inconsistent} cannot vanish")
    return ech


def solve_commuting(a: DiffOp, target_order: int) -> AffineSolutionSet:
    """All monic operators of ``target_order`` commuting with ``a``.

    Burchnall-Chaundy recursion (Burchnall & Chaundy 1923): for monic A of
    order n and B = D^m + sum b_j D^j, the D^(n+j-1) coefficient of [A, B] is
    ``n*b_j'`` plus terms in b_(j+1..m) alone.  So b_(m-1), ..., b_0 follow
    by exact x-integration, each adding one integration constant c_j.  Every
    b_j is kept linear in c_0..c_(m-1): one XLaurent per constant plus the
    particular part.  The constraints are linear in the c_j over Q[eps]:

    * the x^-1 term of each integrand (the obstruction of b_j);
    * every x-monomial of the remaining coefficients D^(n-2)..D^0 of [A, B].

    They are eliminated fraction-free over Q(eps) (``linsolve.BareissEchelon``).
    The particular solution (free constants 0) and one primitive Q[eps]
    generator per free constant are rebuilt as operators, and each is
    re-verified by exact commutation with ``a``.  There is no ansatz window:
    the b_j carry whatever x- and eps-exponents the recursion produces.

    For monic A with Laurent-polynomial coefficients the obstructions are
    identically zero: the b_j are those of sum c_k (A^(k/n))_+, differential
    polynomials in A's coefficients (Schur 1905).  They are kept as a guard.

    Raises ``EmptyCommutant``, naming the commutator coefficient D^k or the
    b_j whose obstruction cannot vanish, when no monic operator of
    ``target_order`` commutes with ``a``.
    """
    n, m = int(a.order), target_order
    if n < 1 or not a.is_monic():
        raise PipelineError("solve_commuting needs a monic operator of positive order")
    if m < 0:
        raise ValueError("target_order must be non-negative")
    # b[j][comp]: component comp < m multiplies the constant c_comp; comp m is
    # the particular part.  comm[comp] holds that component's [A, B] so far.
    b: list[dict[int, XLaurent]] = [{} for _ in range(m + 1)]
    comm: dict[int, list[XLaurent]] = {}

    def put(j: int, comp: int, g: XLaurent) -> None:
        b[j][comp] = g
        acc = comm.setdefault(comp, [XLaurent.zero()] * (n + m))
        for k, c in enumerate(a.commutator(DiffOp.monomial(g, j)).coeffs):
            acc[k] = acc[k] + c

    rows = []
    put(m, m, XLaurent.one())
    for j in range(m - 1, -1, -1):
        parts, obstruction = _integrate_level(
            {comp: acc[n + j - 1] for comp, acc in comm.items()
             if not acc[n + j - 1].is_zero()}, n, j)
        rows += obstruction
        for comp, g in parts.items():
            put(j, comp, g)
        put(j, j, XLaurent.one())
    for d in range(n - 2, -1, -1):
        by_x: dict[int, dict[int, EpsPoly]] = {}
        for comp, acc in comm.items():
            for xe, v in acc[d].c.items():
                by_x.setdefault(xe, {})[comp] = v
        rows.extend((f"commutator coefficient D^{d} (x^{xe} term)", row)
                    for xe, row in sorted(by_x.items()))

    ech = _eliminate(rows, m)

    def build(vec: dict[int, EpsPoly]) -> DiffOp:
        coeffs = []
        for parts in b:
            c = XLaurent.zero()
            for comp, g in parts.items():
                if comp in vec:
                    c = c + g.scale(vec[comp])
            coeffs.append(c)
        return DiffOp(coeffs, XLAURENT_RING)

    part_vec = ech.primitive_solution(m)
    if part_vec[m] != EpsPoly.one():
        raise PipelineError(f"the particular solution of order {m} needs "
                            f"{part_vec[m]} as an eps denominator")
    particular = build(part_vec)
    basis = [build(ech.primitive_solution(f)) for f in ech.free_columns()]
    for name, op in [("particular solution", particular)] + [
            (f"homogeneous generator {i}", h) for i, h in enumerate(basis)]:
        if not a.commutator(op).is_zero():
            raise PipelineError(f"{name} of order {m} fails exact re-verification")
    return AffineSolutionSet(particular, basis, len(rows), ech.rank())


# ---------------------------------------------------------------------------
# discovery of the algebraic relation
# ---------------------------------------------------------------------------

def find_bc_relation(a: DiffOp, b: DiffOp, weight_bound: int,
                     eps_degree: int = 8) -> BivarPoly | None:
    """Minimal-weight polynomial Q with Q(a, b) = 0, or None within the bound.

    z stands for ``a`` (weight = its order), w for ``b`` (weight = its
    order).  Among the kernel at the minimal weight, the returned element is
    the echelon basis row whose leading monomial (by weight, then w-degree,
    then z-degree, then ascending eps power) carries the lowest eps power,
    normalized to a unit leading slot; eps-multiples of a relation are kernel
    vectors too, and monomial count cannot separate them.
    """
    wa, wb = int(a.order), int(b.order)
    if wa <= 0 or wb <= 0:
        raise ValueError("operators must have positive order")
    comm = a.commutator(b)
    if not comm.is_zero():
        k = next(k for k, c in enumerate(comm.coeffs) if not c.is_zero())
        raise PipelineError(f"operators do not commute: W_{k} != 0")

    cands = sorted((za, zb) for za in range(weight_bound // wa + 1)
                   for zb in range(weight_bound // wb + 1)
                   if wa * za + wb * zb <= weight_bound)
    pow_a: dict[int, DiffOp] = {0: DiffOp.identity(a.ring)}
    pow_b: dict[int, DiffOp] = {0: DiffOp.identity(b.ring)}
    products: dict[tuple[int, int], DiffOp] = {}

    def product(za: int, zb: int) -> DiffOp:
        if (za, zb) not in products:
            for n, (cache, base) in ((za, (pow_a, a)), (zb, (pow_b, b))):
                while n not in cache:
                    k = max(cache)
                    cache[k + 1] = cache[k].compose(base)
            products[(za, zb)] = pow_a[za].compose(pow_b[zb])
        return products[(za, zb)]

    weights = sorted({wa * za + wb * zb for za, zb in cands if (za, zb) != (0, 0)})
    e_values = list(range(0, eps_degree + 1, 2))

    for bound in weights:
        cset = [c for c in cands if wa * c[0] + wb * c[1] <= bound]
        if len(cset) < 2:
            continue
        cols = [(za, zb, e) for (za, zb) in cset for e in e_values]
        order_key = sorted(range(len(cols)),
                           key=lambda i: (-(wa * cols[i][0] + wb * cols[i][1]),
                                          -cols[i][1], -cols[i][0], cols[i][2]))
        rank_of = {ci: r for r, ci in enumerate(order_key)}
        rows: dict[tuple[int, int, int], dict[int, Fraction]] = {}
        for ci, (za, zb, e) in enumerate(cols):
            for k, c in enumerate(product(za, zb).coeffs):
                for xe, epoly in c.c.items():
                    for ee, v in epoly.c.items():
                        rows.setdefault((k, xe, ee + e), {})[rank_of[ci]] = v
        ech = linsolve.FractionEchelon()
        for key in sorted(rows):
            ech.insert(rows[key])
        kernel = ech.kernel_basis(list(range(len(cols))))
        if not kernel:
            continue
        kech = linsolve.FractionEchelon()
        for vec in kernel:
            kech.insert(vec)
        lead = min(kech.rows)
        vec = kech.rows[lead]
        poly: dict[tuple[int, int], EpsPoly] = {}
        for r, v in vec.items():
            za, zb, e = cols[order_key[r]]
            poly[(za, zb)] = poly.get((za, zb), EpsPoly.zero()) + EpsPoly.eps_power(e, v)
        q = BivarPoly(poly)
        residual = DiffOp.zero(a.ring)
        for (za, zb), coeff in sorted(q.c.items()):
            residual = residual + product(za, zb).scale(coeff)
        if not residual.is_zero():
            raise PipelineError("kernel candidate failed exact re-verification")
        return q
    return None
