"""Constructive algorithms: re-derive the operator pair and its algebraic
relation from scratch.

* ``derive_L1_coeffs`` recovers the order-9 operator's coefficients from the
  chi series alone (reduce D^9 + sum f_n D^n modulo the third-order relation,
  equate the remainder to (lambda, 0, 0), and back-substitute through the
  triangular system over Q[eps]).
* ``solve_commuting`` computes the full affine family of monic operators of a
  given order commuting with a given operator, under a Laurent-window ansatz.
* ``find_bc_relation`` discovers the minimal-weight algebraic relation
  annihilating a commuting pair.
* ``verify_rank3`` checks the reduction remainder of an operator against its
  expected eigenvalue series.

Every solver's output is re-verified by exact substitution before it is
returned; elimination results are never trusted on their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (DEFAULT_SERIES_ORDER, BivarPoly, EpsPoly, ExactError,
                    XLaurent, ZSeries, ep)
from .diffop import DiffOp, XLAURENT_RING, binom
from .curve import DEFAULT_CURVE, chi, curve_series, lambda_fn
from . import linsolve

_F0 = Fraction(0)
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
# the commutant ansatz solver
# ---------------------------------------------------------------------------

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
    """Affine family particular + eps-polynomial span of homogeneous_basis.

    ``homogeneous_basis`` holds module generators over Q[eps]: every solution
    of the ansatz is particular + sum t_i(eps) * basis_i with polynomial
    scalars t_i.  ``rational_basis`` is the underlying certified Q-basis of
    the kernel (one vector per free unknown of the linear system).
    """

    particular: DiffOp
    homogeneous_basis: list[DiffOp]
    rational_basis: list[DiffOp] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

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


def _module_generators(ops: list[DiffOp], max_eps: int) -> list[DiffOp]:
    """Minimal generating set of span(ops) as a Q[eps]-module."""

    def min_eps(op):
        return min((ee for _, _, ee in op.support()), default=0)

    gens: list[DiffOp] = []
    for v in sorted(ops, key=lambda o: (min_eps(o), o.order, len(o.support()))):
        if gens and _in_span(v, _eps_shifts(gens, max_eps)):
            continue
        gens.append(v)
    return gens


def _monomial_commutator(a_coeffs, da, a_order, xexp, eexp, m):
    """Support map of [A, x^xexp eps^eexp D^m] as {(k, xe, ee): Fraction}.

    ``da[j][k]`` holds the k-th x-derivative of A's coefficient a_j.
    """
    out: dict[tuple[int, int, int], Fraction] = {}
    for i in range(a_order + 1):                     # A . (x^a eps^b D^m)
        ai = a_coeffs[i]
        if ai.is_zero():
            continue
        fall = 1
        for k in range(i + 1):
            if k:
                fall *= (xexp - k + 1)
            if fall == 0:
                break
            c = binom(i, k) * fall
            dk = i + m - k
            for xe, epoly in ai.c.items():
                for ee, v in epoly.c.items():
                    key = (dk, xe + xexp - k, ee + eexp)
                    s = out.get(key, _F0) + c * v
                    if s:
                        out[key] = s
                    else:
                        del out[key]
    for j in range(a_order + 1):                     # minus (x^a eps^b D^m) . A
        for k in range(m + 1):
            ajk = da[j][k]
            if ajk.is_zero():
                continue
            c = binom(m, k)
            dk = m + j - k
            for xe, epoly in ajk.c.items():
                for ee, v in epoly.c.items():
                    key = (dk, xe + xexp, ee + eexp)
                    s = out.get(key, _F0) - c * v
                    if s:
                        out[key] = s
                    else:
                        del out[key]
    return out


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def solve_commuting(a: DiffOp, target_order: int,
                    window: tuple[int, int] = (-16, 28), eps_degree: int = 8,
                    *, max_bad_primes: int = 4,
                    max_total_primes: int = 8) -> AffineSolutionSet:
    """All monic operators of ``target_order`` commuting with ``a``.

    Ansatz: B = D^target + sum over (m < target, x-exponent in window, even
    eps-exponent <= eps_degree) of unknown rational multiples of
    x^xe eps^ee D^m.  The commutator's monomials give a sparse exact linear
    system over Q, split into connected components, solved modulo large
    primes with CRT and rational reconstruction under deterministic
    first-nonzero-column pivoting, and finally re-verified by exact symbolic
    commutation.  The modular rank bounds the affine dimension from above and
    the exactly verified basis realizes it from below, so the returned
    dimension is certified, not assumed.
    """
    lo, hi = window
    t_max = eps_degree // 2
    columns = [(m, xe, t) for m in range(target_order)
               for xe in range(lo, hi + 1) for t in range(t_max + 1)]

    a_order = int(a.order)
    a_coeffs = [a.coefficient(i) for i in range(a_order + 1)]
    da = []
    for c in a_coeffs:
        drow = [c]
        for _ in range(target_order):
            drow.append(drow[-1].derive())
        da.append(drow)

    rows: dict[tuple[int, int, int], dict[int, Fraction]] = {}
    for ci, (m, xe, t) in enumerate(columns):
        for key, v in _monomial_commutator(a_coeffs, da, a_order, xe, 2 * t, m).items():
            rows.setdefault(key, {})[ci] = v
    rhs0 = _monomial_commutator(a_coeffs, da, a_order, 0, 0, target_order)

    infeasible = sorted(key for key in rhs0 if key not in rows)
    if infeasible:
        raise PipelineError(
            f"window {window} cannot absorb commutator monomials at {infeasible[:3]}; "
            "empty solution set under this ansatz")

    uf = _UnionFind(len(columns))
    for cols in rows.values():
        it = iter(cols)
        first = next(it)
        for c in it:
            uf.union(first, c)
    comp_cols: dict[int, list[int]] = {}
    for ci in range(len(columns)):
        comp_cols.setdefault(uf.find(ci), []).append(ci)
    comp_keys: dict[int, list] = {root: [] for root in comp_cols}
    for key in sorted(rows):
        comp_keys[uf.find(next(iter(rows[key])))].append(key)

    def solve_one_prime(p: int):
        """(particular, kernels, rank) mod p, or None on breakdown."""
        part: dict[int, int] = {}
        kernels: dict[int, dict[int, int]] = {}
        rank = 0
        for root in sorted(comp_cols):
            ech = linsolve.ModEchelon(p)
            for key in comp_keys[root]:
                row = {ci: linsolve.fraction_mod(v, p) for ci, v in rows[key].items()}
                ech.insert(row, linsolve.fraction_mod(-rhs0.get(key, _F0), p))
            if ech.inconsistent:
                return None
            cc = comp_cols[root]
            part.update(ech.solve_particular(cc))
            rank += len(ech.rows)
            for fc in cc:
                if fc not in ech.rows:
                    kernels[fc] = ech.kernel_vector(cc, fc)
        return part, kernels, rank

    primes_iter = linsolve.prime_stream()
    good: list[tuple[int, dict, dict, int]] = []
    bad = 0
    warnings: list[str] = []

    while True:
        if len(good) < 2:
            if bad > max_bad_primes or bad + len(good) > max_total_primes:
                raise PipelineError("modular solve failed to stabilize")
            p = next(primes_iter)
            try:
                res = solve_one_prime(p)
            except ZeroDivisionError:
                bad += 1
                continue
            if res is None:
                bad += 1
                continue
            good.append((p, *res))
            # keep only maximal-rank results: a rank drop means an unlucky prime
            top_rank = max(g[3] for g in good)
            dropped = [g for g in good if g[3] < top_rank]
            bad += len(dropped)
            good = [g for g in good if g[3] == top_rank]
            continue

        if any(set(g[2]) != set(good[0][2]) for g in good[1:]):
            # same rank but different free columns: discard all but the first
            bad += len(good) - 1
            good = good[:1]
            continue

        modulus = 1
        part_acc: dict[int, int] = {}
        kern_acc: dict[int, dict[int, int]] = {fc: {} for fc in good[0][2]}
        for idx, (p, part, kernels, _) in enumerate(good):
            if idx == 0:
                modulus = p
                part_acc = dict(part)
                kern_acc = {fc: dict(v) for fc, v in kernels.items()}
            else:
                for ci in set(part_acc) | set(part):
                    r, _ = linsolve.crt_pair(part_acc.get(ci, 0), modulus,
                                             part.get(ci, 0), p)
                    part_acc[ci] = r
                for fc in kern_acc:
                    cur, new = kern_acc[fc], kernels[fc]
                    for ci in set(cur) | set(new):
                        r, _ = linsolve.crt_pair(cur.get(ci, 0), modulus,
                                                 new.get(ci, 0), p)
                        cur[ci] = r
                modulus *= p

        def reconstruct(vec: dict[int, int]):
            out = {}
            for ci, v in vec.items():
                if v % modulus == 0:
                    continue
                f = linsolve.rational_reconstruct(v % modulus, modulus)
                if f is None:
                    return None
                out[ci] = f
            return out

        part_q = reconstruct(part_acc)
        kerns_q = None
        if part_q is not None:
            kerns_q = {}
            for fc in sorted(kern_acc):
                rq = reconstruct(kern_acc[fc])
                if rq is None:
                    kerns_q = None
                    break
                kerns_q[fc] = rq

        if kerns_q is not None:
            def build_op(vec: dict[int, Fraction], monic: bool) -> DiffOp:
                per_m: dict[int, dict[int, dict[int, Fraction]]] = {}
                for ci, v in vec.items():
                    m, xe, t = columns[ci]
                    per_m.setdefault(m, {}).setdefault(xe, {})[2 * t] = v
                cs = [XLaurent({xe: EpsPoly(emap) for xe, emap in per_m.get(m, {}).items()})
                      for m in range(target_order)]
                if monic:
                    cs.append(XLaurent.one())
                return DiffOp(cs, XLAURENT_RING)

            particular = build_op(part_q, monic=True)
            basis = [build_op(kerns_q[fc], monic=False) for fc in sorted(kerns_q)]
            if a.commutator(particular).is_zero() and all(
                    a.commutator(h).is_zero() for h in basis):
                edge = set()
                for op in [particular] + basis:
                    for _, xe, _ in op.support():
                        if xe in (lo, hi):
                            edge.add(xe)
                if edge:
                    warnings.append(
                        f"solution support touches the window edge at x-exponents {sorted(edge)}")
                gens = _module_generators(basis, eps_degree)
                return AffineSolutionSet(particular, gens, basis, warnings)

        # reconstruction or verification failed: widen the modulus
        if len(good) + bad > max_total_primes:
            raise PipelineError("modular solve failed to stabilize")
        p = next(primes_iter)
        try:
            res = solve_one_prime(p)
        except ZeroDivisionError:
            bad += 1
            continue
        if res is None or res[2] != good[0][3] or set(res[1]) != set(good[0][2]):
            bad += 1
            continue
        good.append((p, *res))


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
