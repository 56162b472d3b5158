"""Constructive algorithms: re-derive the operator pair and its algebraic
relation from scratch.

* ``derive_L1_coeffs`` recovers the order-9 operator's coefficients from the
  chi series alone (reduce D^9 + sum f_n D^n modulo the third-order relation,
  equate the remainder to (lambda, 0, 0), and back-substitute through the
  triangular system over Q[eps]).
* ``solve_commuting`` computes the full affine family of monic operators of a
  given order commuting with a given monic operator: the Burchnall-Chaundy
  recursion integrates the coefficients top-down, one constant each, reading
  each commutator coefficient once, by ``[A, g D^j] = [A, g] D^j - g [D^j, A]``
  with one ``[D^j, A]`` per level; the remaining linear constraints are
  eliminated fraction-free over Q[eps].  No ansatz window bounds the result,
  and an empty family is named by the constraint that cannot hold.
* ``find_bc_relation`` discovers the minimal-weight algebraic relation
  annihilating a commuting pair by fraction-free elimination over Q[eps] on
  the ``x^0`` parts of the monomials' D^k coefficients, the columns on which
  the relation check decides (``diffop.relation_columns``).
* ``verify_rank3`` checks the reduction remainder of an operator against its
  expected eigenvalue series, on the frame that its ``ChiTriple`` keeps, so
  ``verify rank`` (L1, L2, then L1 + D on one triple) builds two frames, not
  three.  The module holds no mutable state: a frame lives on its triple.

Every solver's output is re-verified exactly before it is returned: the L1
coefficients by ``verify_rank3``, the commutant by commutation and the relation
by substitution, each failure naming its z-order, its ``W_k`` or the leading
term ``(c)*D^r`` of ``Q(a, b)``.

The fraction-free solver (``linsolve``) is a lazy module of the package: the
constructive steps reach it as ``_PACKAGE.linsolve`` at call time, through
the package object this module was imported with, so the checks (the
rank-3 reduction, ``derive_L1_coeffs``) never load it and a package keeps
the solver it loaded when the package is imported afresh.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .exact import (DEFAULT_SERIES_ORDER, BivarPoly, EpsPoly, ExactError, XLaurent,
                    ZSeries, d_power_commutators, series_sum, sum_of_products)
from .diffop import (DiffOp, _relation_failure, _require_commuting, combination,
                     relation_columns, top_term)
from .curve import chi, curve_series, lambda_fn

if TYPE_CHECKING:
    from .linsolve import BareissEchelon


_PACKAGE = sys.modules[__package__]
_ONE = XLaurent.one()


class PipelineError(RuntimeError):
    pass


class TruncationTooShort(PipelineError):
    pass


# ---------------------------------------------------------------------------
# the rank-3 reduction frame
# ---------------------------------------------------------------------------

class ChiTriple(tuple):
    """The chi expansions ``(chi0, chi1, chi2)``, keeping the reduction frame built on them.

    ``frame(n_max)`` builds ``reduction_frame(*self, n_max)`` once and keeps
    it on the triple, rebuilding only when a longer frame is asked for.  The
    frame is set by one assignment, so concurrent callers at worst build it
    twice; equal triples that are distinct objects each build their own.
    """

    _frame = ()

    def frame(self, n_max: int):
        frame = self._frame
        if len(frame) <= n_max:
            frame = self._frame = reduction_frame(*self, n_max)
        return frame


def chi_series_triple(order: int = DEFAULT_SERIES_ORDER) -> ChiTriple:
    """The three chi expansions at the marked point, ready for reduction."""
    return ChiTriple(curve_series(chi(j), order) for j in range(3))


def reduction_frame(chi0: ZSeries, chi1: ZSeries, chi2: ZSeries, n_max: int):
    """Remainders of D^k modulo T = D^3 - chi2 D^2 - chi1 D - chi0, k <= n_max.

    Returns a list of triples (a0, a1, a2) of ZSeries with
    D^k = a0 + a1 D + a2 D^2 (mod T).  A step
    ``D^(k+1) = (a0' + a2 chi0) + (a0 + a1' + a2 chi1) D + (a1 + a2' + a2 chi2) D^2``
    is three ``exact.series_sum`` calls, each z-coefficient of each component
    one integer accumulation, with the windows of the fold of ``+``,
    ``.derive()`` and ``*``.
    """
    one, zero = ZSeries.one(), ZSeries.zero()
    frame = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    for _ in range(3, n_max + 1):
        a0, a1, a2 = frame[-1]
        frame.append((series_sum((), (a0,), ((a2, chi0),)),
                      series_sum((a0,), (a1,), ((a2, chi1),)),
                      series_sum((a1,), (a2,), ((a2, chi2),))))
    return frame


def reduce_with_frame(op: DiffOp, frame):
    """Remainder (Q0, Q1, Q2) of an XLaurent-coefficient operator mod T.

    ``Q_j = sum_n frame[n][j] * c_n`` over the operator's nonzero
    coefficients ``c_n``: one ``exact.series_sum`` of products with the
    exact one-term series ``c_n``.
    """
    if op.order >= len(frame):
        raise PipelineError("frame too short for this operator order")
    used = [(frame[n], ZSeries(0, [c])) for n, c in enumerate(op.coeffs) if not c.is_zero()]
    return tuple(series_sum(products=[(rn[j], c) for rn, c in used]) for j in range(3))


class Rank3Report(NamedTuple):
    """Outcome of the reduction check of one operator against an eigenvalue."""

    passed: bool
    max_verified_order: int                 # highest z-exponent confirmed zero
    first_failure: tuple[int, int] | None   # (component j, z-order), if any

    @property
    def verified_nonneg_orders(self) -> int:
        """Count of confirmed orders >= 0."""
        return max(0, self.max_verified_order + 1)

    def __str__(self):
        if self.passed:
            return (f"rank-3 reduction verified through z^{self.max_verified_order} "
                    f"({self.verified_nonneg_orders} non-negative orders)")
        j, s = self.first_failure
        return f"rank-3 reduction FAILED at component Q_{j}, z-order {s}"


def verify_rank3(op: DiffOp, chis, eigen: ZSeries) -> Rank3Report:
    """Check remainder(op mod T) = (eigen, 0, 0) through the series window.

    The frame is the one ``chis`` keeps (``ChiTriple.frame``); any other
    sequence (chi0, chi1, chi2) is wrapped in a ``ChiTriple`` that lives for
    this call alone.
    """
    if not isinstance(chis, ChiTriple):
        chis = ChiTriple(chis)
    q0, q1, q2 = reduce_with_frame(op, chis.frame(max(op.order, 3)))
    residuals = [q0 - eigen, q1, q2]
    failures = [(first[0], j) for j, res in enumerate(residuals)
                if (first := res.first_nonzero()) is not None]
    if failures:
        e, j = min(failures)
        return Rank3Report(False, e - 1, (j, e))
    return Rank3Report(True, min(res.end for res in residuals) - 1, None)


# ---------------------------------------------------------------------------
# deriving the order-9 coefficients from the chi data
# ---------------------------------------------------------------------------

def derive_L1_coeffs(chi0: ZSeries, chi1: ZSeries, chi2: ZSeries,
                     order: int = 9, *, eigen: ZSeries | None = None) -> list[XLaurent]:
    """Recover f_0..f_{order-2} of the monic operator D^order + sum f_n D^n.

    The remainder of the operator modulo T must equal (eigen, 0, 0); the
    unknowns enter linearly, and the z-orders 1 - order//3 .. 0 of the three
    remainder components give the equations for the order - 1 coefficient
    functions (nine for eight at order 9).  The system is triangular with
    unit pivots (the Burchnall-Chaundy recursion), so it is solved exactly
    over Q[eps] by back-substitution: a row with one unsolved unknown whose
    coefficient is a unit fixes that unknown, and a row with none left must
    reduce to zero.  Every result is re-verified symbolically against the
    reduction remainder over the full series window (``verify_rank3``, on the
    frame that set up the system); a ``PipelineError`` names where it fails.  ``eigen``
    defaults to lambda expanded to as many terms as ``chi0`` stores.
    """
    for name, s in (("chi0", chi0), ("chi1", chi1), ("chi2", chi2)):
        if s.known_len() < order - 1:
            raise TruncationTooShort(
                f"{name} carries fewer than {order - 1} terms beyond its lowest exponent")
    if eigen is None:
        eigen = curve_series(lambda_fn(), len(chi0.coeffs))

    n_unknowns = order - 1
    z_orders = range(1 - order // 3, 1)
    chis = ChiTriple((chi0, chi1, chi2))
    frame = chis.frame(order)
    top = frame[order]
    rows = []
    for s in z_orders:
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
            if len(unsolved) > 1 or (unsolved and not coeffs[unsolved[0]].is_monomial()):
                continue
            del rows[i]
            value = sum_of_products([(1, rhs, _ONE)] + [
                (-1, c, solved[n]) for n, c in coeffs.items() if n in solved])
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
        raise PipelineError(f"reduction rows at z-orders {z_orders[0]}..0 do not determine "
                            f"f_{', f_'.join(map(str, missing))}")
    coeffs_out = [solved[n] for n in range(n_unknowns)]

    op = DiffOp(coeffs_out + [XLaurent.zero(), XLaurent.one()])
    report = verify_rank3(op, chis, eigen)
    if not report.passed:
        raise PipelineError(f"derived coefficients fail re-verification: {report}")
    return coeffs_out


# ---------------------------------------------------------------------------
# the commutant by the Burchnall-Chaundy recursion
# ---------------------------------------------------------------------------

class EmptyCommutant(PipelineError):
    """No monic operator of the requested order commutes with the given one."""


def _coefficient_rows(columns: dict[int, Sequence[XLaurent]], orders):
    """Linear forms over Q[eps], one per monomial D^k x^e with k in ``orders``.

    ``columns[c]`` lists the D^0, D^1, ... coefficients of the operator in
    column c; the row labelled ``D^k (x^e term)`` holds each column's
    x^e coefficient of D^k.  Rows follow ``orders``, then ascending e.
    """
    for k in orders:
        by_x: dict[int, dict[int, EpsPoly]] = {}
        for col, coeffs in columns.items():
            if k < len(coeffs):
                for xe, v in coeffs[k].c.items():
                    by_x.setdefault(xe, {})[col] = v
        yield from ((f"D^{k} (x^{xe} term)", row) for xe, row in sorted(by_x.items()))


class AffineSolutionSet(NamedTuple):
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
        return combination([(self.particular, _ONE)] + [
            (h, XLaurent({0: t})) for t, h in zip(params, self.homogeneous_basis)])

    def contains(self, op: DiffOp) -> bool:
        """Whether op = particular + sum t_i(eps) * basis_i with t_i in Q[eps].

        Solves ``basis . t = op - particular`` fraction-free over Q[eps]
        (``linsolve.BareissEchelon``), one row per monomial D^k x^e.  The
        generators are independent, so a consistent system has one solution
        over Q(eps); it lies in Q[eps] exactly when the primitive solution at
        the right-hand side has the entry 1 there.  No eps-degree bounds t.
        """
        d = self.dimension
        columns = {i: h.coeffs for i, h in enumerate(self.homogeneous_basis)}
        columns[d] = (self.particular - op).coeffs
        top = max(len(c) for c in columns.values())
        ech = _PACKAGE.linsolve.BareissEchelon(
            _coefficient_rows(columns, range(top - 1, -1, -1)), d)
        return ech.inconsistent is None and ech.primitive_solution(d)[d] == EpsPoly.one()


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
        g, r = f.antiderivative(-n)
        if not r.is_zero():
            obstruction[comp] = r
        if not g.is_zero():
            parts[comp] = g
    return parts, [(f"the x^-1 obstruction of b_{j}", obstruction)] if obstruction else []


def _eliminate(rows, m: int) -> BareissEchelon:
    """Echelon of the constraints on c_0..c_(m-1); column m is the particular part."""
    ech = _PACKAGE.linsolve.BareissEchelon(rows, m)
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
    particular part.  Each coefficient of [A, B] is one ``sum_of_products``,
    read once, by ``[A, g D^j] = [A, g] D^j - g [D^j, A]`` over the parts g of
    the b_j: one ``[D^j, A]`` per level (``exact.d_power_commutators``), and
    ``[A, g] = sum C(i, k) a_i g^(k) D^(i-k)`` over k >= 1 from g, ..., g^(n).
    The constraints are linear in the c_j over Q[eps]:

    * the x^-1 term of each integrand (the obstruction of b_j);
    * every x-monomial of the remaining coefficients D^(n-2)..D^0 of [A, B].

    They are eliminated fraction-free over Q(eps) (``linsolve.BareissEchelon``).
    The particular solution (free constants 0) and one primitive Q[eps]
    generator per free constant are rebuilt as operators, and each is
    re-verified by exact commutation with ``a`` (a failure names its ``W_k``).
    No ansatz window: the b_j carry whatever x- and eps-exponents the recursion produces.

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
    # b[j][comp]: g, g', ..., g^(n) for the part g of b_j at the constant c_comp (comp < m)
    # or the particular part (comp m); lev[r]: (C(i, k), a_i, k) for [A, g] at D^r
    b: list[dict[int, list[XLaurent]]] = [{} for _ in range(m + 1)]
    t = d_power_commutators(a.coeffs, m + 1)
    lev = {r: [(comb(i, i - r), a.coeffs[i], i - r) for i in range(r + 1, n + 1)]
           for r in range(n)}

    def read(comp: int, s: int) -> XLaurent:
        terms = []
        for j, level in enumerate(b):
            if ders := level.get(comp):
                terms.append((-1, ders[0], t[j][s]))
                terms += [(c, ai, ders[k]) for c, ai, k in lev.get(s - j, ())]
        return sum_of_products(terms)

    rows = []
    for j in range(m, -1, -1):
        parts, obstruction = _integrate_level(
            {comp: read(comp, n + j - 1) for comp in range(m, j, -1)}, n, j)
        rows += obstruction
        for comp, g in [*parts.items(), (j, _ONE)]:
            b[j][comp] = ders = [g]
            for _ in range(n):
                ders.append(ders[-1].derive())
    comm = {comp: [read(comp, s) for s in range(n - 1)] for comp in range(m, -1, -1)}
    rows.extend((f"commutator coefficient {label}", row)
                for label, row in _coefficient_rows(comm, range(n - 2, -1, -1)))

    ech = _eliminate(rows, m)

    def build(vec: dict[int, EpsPoly]) -> DiffOp:
        scalars = {comp: XLaurent({0: v}) for comp, v in vec.items()}
        return DiffOp([sum_of_products([(1, ders[0], scalars[comp]) for comp, ders in
                                        parts.items() if comp in scalars]) for parts in b])

    part_vec = ech.primitive_solution(m)
    if part_vec[m] != EpsPoly.one():
        raise PipelineError(f"the particular solution of order {m} needs "
                            f"{part_vec[m]} as an eps denominator")
    particular = build(part_vec)
    basis = [build(ech.primitive_solution(f)) for f in ech.free_columns()]
    for name, op in [("particular solution", particular)] + [
            (f"homogeneous generator {i}", h) for i, h in enumerate(basis)]:
        _require_commuting(a, op, lambda why: PipelineError(
            f"{name} of order {m} fails exact re-verification: {why}"))
    return AffineSolutionSet(particular, basis, len(rows), ech.rank())


# ---------------------------------------------------------------------------
# discovery of the algebraic relation
# ---------------------------------------------------------------------------

def find_bc_relation(a: DiffOp, b: DiffOp, weight_bound: int) -> BivarPoly | None:
    """Minimal-weight polynomial Q with Q(a, b) = 0, or None within the bound.

    z stands for ``a`` and w for ``b``, each weighted by its order.  The
    products z^i w^j of weight <= ``weight_bound``, sorted by weight, then
    w-degree, then z-degree, are the columns (``diffop.relation_columns``: only
    their ``x^0`` parts under the centralizer lemma, whose kernel is the full
    one) of a linear system over Q[eps], eliminated fraction-free
    (``linsolve.BareissEchelon``).  The relation is the primitive solution at
    the first free column (content-free over Q[eps], monic in eps there),
    re-verified exactly on the same columns (``diffop.top_term``; a failure
    names the leading term of ``Q(a, b)``).  No eps-degree bounds the relation.
    """
    wa, wb = int(a.order), int(b.order)
    if wa <= 0 or wb <= 0:
        raise ValueError("operators must have positive order")
    _require_commuting(a, b, PipelineError)

    monomials = sorted(((i, j) for i in range(weight_bound // wa + 1)
                        for j in range(weight_bound // wb + 1)
                        if wa * i + wb * j <= weight_bound),
                       key=lambda ij: (wa * ij[0] + wb * ij[1], ij[1], ij[0]))
    columns = relation_columns(a, b, monomials)
    top = max(map(len, columns.values()), default=0)
    ech = _PACKAGE.linsolve.BareissEchelon(
        _coefficient_rows(dict(enumerate(columns.values())), range(top)), len(monomials))
    free = ech.free_columns()
    if not free:
        return None
    q = BivarPoly({monomials[c]: v for c, v in ech.primitive_solution(free[0]).items()})
    if (why := _relation_failure("Q(a, b)", top_term(q.c, columns))) is not None:
        raise PipelineError(f"kernel candidate failed exact re-verification: {why}")
    return q
