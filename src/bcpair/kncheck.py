"""High-precision numeric verification of the deformation-parameter system.

The twelve compatibility equations on the pole data (gamma_i, alpha_ij, d_ij)
are evaluated at rational sample points with mpmath arbitrary-precision
complex arithmetic.  All x-derivatives come from exact jet propagation
through the closed forms of gamma and its derivatives (finite differences
exist only as a cross-check); the fractional-power constants carry explicit
branch choices, searched over a finite set when the principal ones fail.

The formulas read (-3)^(3/4), c4^(1/4) and sqrt(gamma') only through
(-3)^(3/4) / (c4^(1/4) sqrt(gamma')), so rotating them by i^a, i^b and
(-1)^c rotates every term by the same i^(a - b + 2c): one phase in Z/4.
With the sign of sqrt(3 c4) that makes eight global choices, searched with
one evaluation each.  The sheet of w at a pole pair is a pole labelling:
taking the other sheet at pole s gives exactly the equations of pole s + 3,
so the search keeps w principal.  The residuals read the alphas to order 1
and the ds to order 0, so the jets are truncated to order 1 once the higher
derivatives of gamma are taken.

Each jet product and quotient has one body, which starts each Leibniz sum
from its first term and skips binomial factors equal to 1; both steps are
exact, so the bits are those of the plain convolution.  An evaluation
computes each quantity a pole pair shares once, and pole s + 3 takes the
terms linear in w from pole s with their signs flipped, which is exact
under round-to-nearest.

`check_points` rejects eps >= 0, x = 0, x^3 + eps^2 <= 0 and a repeated
point, exactly over the rationals, before any evaluation.

Only eps < 0 is supported; the closed-form solution of the gamma equation
assumes it, and positive eps is untested territory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf, mpmathify

from .curve import DEFAULT_CURVE, chi
from .exact import XLaurent, ZSeries

GUARD_DIGITS = 10


class Jet:
    """Truncated derivative table: d[k] is the k-th x-derivative's value."""

    __slots__ = ("d",)

    def __init__(self, values):
        self.d = tuple(values)

    @classmethod
    def const(cls, value, order: int) -> "Jet":
        return cls((mpmathify(value),) + (mpf(0),) * order)

    @property
    def order(self) -> int:
        return len(self.d) - 1

    def value(self):
        return self.d[0]

    def derivative(self) -> "Jet":
        if len(self.d) < 2:
            raise ValueError("jet order too low for a derivative")
        return Jet(self.d[1:])

    def truncate(self, order: int) -> "Jet":
        """The same jet without the derivatives above ``order``."""
        return Jet(self.d[:order + 1])

    # A scalar operand acts on the entries directly.  That is bit-identical to
    # promoting it through ``Jet.const``: the padded zeros only add exact zeros.

    def _pair(self, other):
        n = min(len(self.d), len(other.d))
        return self.d[:n], other.d[:n], n

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet((self.d[0] + other,) + self.d[1:])
        a, b, n = self._pair(other)
        return Jet(tuple(a[k] + b[k] for k in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return Jet((self.d[0] - other,) + self.d[1:])
        a, b, n = self._pair(other)
        return Jet(tuple(a[k] - b[k] for k in range(n)))

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Jet(tuple(-v for v in self.d))

    # The Leibniz sums start from their first term and skip the binomial
    # factor where it is 1.  Both are exact at the working precision (0 + v
    # and 1 * v round nothing), so the entries keep the bits of the plain
    # convolution summed from 0.

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(tuple(v * other for v in self.d))
        a, b, n = self._pair(other)
        out = []
        for k in range(n):
            acc = a[0] * b[k]
            for i in range(1, k + 1):
                c = math.comb(k, i)
                acc += a[i] * b[k - i] if c == 1 else c * a[i] * b[k - i]
            out.append(acc)
        return Jet(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(tuple(v / other for v in self.d))
        a, b, n = self._pair(other)
        out = []
        for k in range(n):
            acc = a[k]
            for i in range(k):
                c = math.comb(k, i)
                acc -= out[i] * b[k - i] if c == 1 else c * out[i] * b[k - i]
            out.append(acc / b[0])
        return Jet(tuple(out))

    def __rtruediv__(self, other):
        return Jet.const(other, self.order) / self

    def __pow__(self, n: int):
        if n == 0:
            return Jet.const(1, self.order)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def sqrt_with_value(self, root0) -> "Jet":
        """Square-root jet whose value is the caller-chosen branch ``root0``."""
        out = [mpmathify(root0)]
        for k in range(1, len(self.d)):
            acc = self.d[k]
            for i in range(1, k):
                acc -= math.comb(k, i) * out[i] * out[k - i]
            out.append(acc / (2 * out[0]))
        return Jet(tuple(out))


# ---------------------------------------------------------------------------
# gamma and its exact derivatives
# ---------------------------------------------------------------------------

def _check_domain(eps):
    eps = Fraction(eps) if not isinstance(eps, Fraction) else eps
    if eps >= 0:
        raise ValueError("eps must be negative")
    return eps


def gamma_eval(x, eps, derivatives: int = 4, precision: int = 60):
    """gamma = x/(x^3 + eps^2)^(1/3) and derivatives, real cube-root branch.

    ``x`` must be real with x^3 + eps^2 > 0; returns derivative values
    0..``derivatives`` at the requested decimal precision.
    """
    eps = _check_domain(eps)
    if derivatives < 0 or derivatives > 4:
        raise ValueError("0 to 4 derivatives are available")
    with mp.workdps(precision + GUARD_DIGITS):
        xv = mpmathify(x)
        e2 = mpmathify(eps) ** 2
        u = xv**3 + e2
        if u <= 0:
            raise ValueError("outside the domain: x^3 + eps^2 must be positive")
        powers: dict[int, mpf] = {}

        def ur(p):
            # u^(-p/3), each distinct power computed once
            if p not in powers:
                powers[p] = u ** (mpf(-p) / 3)
            return powers[p]

        terms = (
            lambda: xv * ur(1),
            lambda: e2 * ur(4),
            lambda: -4 * e2 * xv**2 * ur(7),
            lambda: e2 * (-8 * xv * ur(7) + 28 * xv**4 * ur(10)),
            lambda: e2 * (-8 * ur(7) + 168 * xv**3 * ur(10) - 280 * xv**6 * ur(13)),
        )
        return [term() for term in terms[:derivatives + 1]]


def gamma_equation_residual(x, eps, precision: int = 60):
    """|1 - 2 gamma^3 + gamma^6 + eps * gamma'^(3/2)| on the real branch."""
    with mp.workdps(precision + GUARD_DIGITS):
        g, gp = gamma_eval(x, eps, 1, precision + GUARD_DIGITS)
        return abs(1 - 2 * g**3 + g**6 + mpmathify(eps) * gp ** mpf(1.5))


# ---------------------------------------------------------------------------
# branch bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchAssignment:
    """The independent root choices; zero is the principal root.

    ``phase`` is the i^k on (-3)^(3/4) / (c4^(1/4) sqrt(gamma')): rotating the
    three roots by i^a, i^b and (-1)^c gives k = a - b + 2c mod 4.
    """

    phase: int = 0              # Z/4
    sqrt_3c4: int = 0           # sqrt(3 c4) times (-1)^k
    w_signs: tuple = (0, 0, 0)  # sheet of w at the three finite poles

    def describe(self) -> dict:
        """The choices as text; the phase key is the one factor it rotates."""
        return {
            "(-3)^(3/4)/(c4^(1/4)*sqrt(gamma'))": f"principal * i^{self.phase}",
            "sqrt(3*c4)": f"principal * (-1)^{self.sqrt_3c4}",
            "w at poles": [f"principal * (-1)^{s}" for s in self.w_signs],
        }


@dataclass
class KNData:
    """One sample-point evaluation: parameters, pole data and residuals."""

    x: object
    eps: object
    precision: int
    branch: BranchAssignment
    alphas: list          # alphas[i][j], i = 0..5, j = 0..2
    ds: list              # ds[i][j]
    residuals: list       # 12 values: Eq[i,0], Eq[i,1] for i = 1..6
    max_residual: object


def _point_quantities(x, eps, precision, branch: BranchAssignment,
                      variant: str = "resolved"):
    """All pole-data quantities at one x, as jets; returns KNData.

    ``variant="resolved"`` uses the H_s and tau_0 closed forms forced by the
    verified chi_0 (the published display of those two is inconsistent with
    chi_0 and never satisfies the system); ``variant="displayed"`` keeps the
    published forms, for demonstrating that failure.  Any other ``variant``
    is a ``ValueError``.
    """
    if variant not in ("resolved", "displayed"):
        raise ValueError(f"unknown kn variant {variant!r}: 'resolved' or 'displayed'")
    eps = _check_domain(eps)
    with mp.workdps(precision + GUARD_DIGITS):
        I = mpc(0, 1)
        g = Jet(gamma_eval(x, eps, 4, precision))    # gamma, order 4
        gp = g.derivative()            # gamma', order 3
        gpp = gp.derivative()
        gppp = gpp.derivative()        # order 1
        ev = mpmathify(eps)
        e4 = ev**4
        e4_3888 = e4 / 3888
        c4 = -e4_3888

        # (-3)^(3/4) / (c4^(1/4) sqrt(gamma')), principal roots times i^phase
        rho = (I**branch.phase * mpc(-3) ** (mpf(3) / 4) / mpc(c4) ** (mpf(1) / 4)
               / gp.sqrt_with_value(mp.sqrt(gp.value())))
        sc = mp.sqrt(mpc(3 * c4)) * (-1) ** branch.sqrt_3c4

        a = (-1 + mp.sqrt(mpf(3)) * I) / 2
        aa = [mpc(1), a, a.conjugate()]
        aa2 = [a_s**2 for a_s in aa]

        h1 = I * rho * g * gp
        h0 = I * rho * (g * gpp - 4 * gp * gp) / 2
        h1p = h1.derivative()
        h0p = h0.derivative()          # order 1

        # The residuals read the alphas to order 1 and the ds to order 0, and
        # jet arithmetic is triangular, so order 1 suffices from here on.  Two
        # derivatives are still taken: of gppp in the displayed tau_0, and of
        # the alphas in the residuals.
        g, gp, gpp, h1, h0, h1p = (j.truncate(1) for j in (g, gp, gpp, h1, h0, h1p))
        xjet = Jet((mpmathify(x), mpf(1)))
        ujet = xjet**3 + ev**2
        u13 = xjet / g                 # (x^3 + eps^2)^(1/3), real branch
        u23 = u13 * u13

        # Each quantity below is computed once and read at several poles.
        # Every expression keeps the operand order of the formula it serves,
        # so sharing it changes no bit.
        two_g, three_g, two_h1 = 2 * g, 3 * g, 2 * h1
        ag = [a_s * g for a_s in aa]   # the finite poles z = a_s gamma
        ag2 = [z * z for z in ag]
        P = [h0 + z2 for z2 in ag2]
        gp_2g, gpp_2gp = gp / two_g, gpp / (2 * gp)
        G = [(h1p - h0 - z2) / two_h1 + gp_2g - gpp_2gp for z2 in ag2]
        if variant == "displayed":
            H = [(P[s] * h1p - 2 * h0p - 7 * aa2[s] * g * gp) / two_h1
                 - P[s] * P[s] / (two_h1 * h1) - h0 * gp / (two_h1 * g)
                 + P[s] * gpp / (two_h1 * gp) for s in range(3)]
        else:
            m2_xx = -2 / (xjet * xjet)
            H = [m2_xx + aa2[s] * u13 / 18 - aa[s] * xjet * xjet * u23 / 648
                 for s in range(3)]

        g3 = g**3
        tau1 = ((4 * gp * gp - 9 * g * gpp) / (2 * g * g)
                + (4 * gp * gppp - 3 * gpp * gpp) / (4 * gp * gp)
                + I * (g3 - 1) * (g3 - 1) / (4 * sc * g * g * gp))
        if variant == "displayed":
            tau0 = (I * (g3 - 1) * (g3 - 1) / (sc * g3) - 1 / g
                    - I * (g3 - 1) * (g3 - 1) * gpp / (4 * sc * g * g * gp * gp)
                    - 2 * I * rho * c4 * g3 / (27 * gp)
                    - I * rho * (g3 - 1) * (g3 - 1) / (18 * g * gp)
                    - 3 * gppp / g + 10 * gp * gpp / (g * g) - 4 * gp**3 / g3
                    + gppp.derivative() / gp - 5 * gpp * gppp / (2 * gp * gp)
                    + 3 * gpp**3 / (2 * gp**3) - 3 * gpp * gpp / (g * gp))
        else:
            x3 = xjet**3
            tau0 = 20 / ujet + 32 * ev**2 / (ujet * x3) - ujet * x3 / 2916
        half_tau0 = tau0 / 2
        six_ggg_p, six_gp, six_g3 = 6 * g * g * gp, 6 * gp, 6 * g3
        e4_972 = e4 / 972
        one = Jet.const(1, g.order)
        d2 = -2 * gp / g

        alphas = [None] * 6
        ds = [None] * 6
        for s in range(3):
            s1, s2 = (s + 1) % 3, (s + 2) % 3
            # w and dw/dz at z = a_s gamma, from one chain of powers of z
            z, z2 = ag[s], ag2[s]
            z3 = z2 * z
            z4 = z3 * z
            z5 = z4 * z
            wsq = 1 - 2 * z3 - e4_3888 * z4 + z5 * z
            root0 = mp.sqrt(wsq.value()) * (-1) ** branch.w_signs[s]
            w = wsq.sqrt_with_value(root0)
            wz = (-6 * z * z - e4_972 * z3 + 6 * z5) / (2 * w)

            hsum = (1 - aa2[s] * aa[s1]) * H[s1] + (1 - aa2[s] * aa[s2]) * H[s2]
            d0 = half_tau0 + aa2[s] / two_g + gp * hsum / three_g
            if variant == "displayed":
                d1 = (tau1 - G[s1] * gp / ((aa[s] - aa[s1]) * g)
                      - G[s2] * gp / ((aa[s] - aa[s2]) * g))
            else:
                # the gamma'_m = a_m gamma' factors of the pole expansion
                d1 = (tau1 - aa[s1] * G[s1] * gp / ((aa[s] - aa[s1]) * g)
                      - aa[s2] * G[s2] * gp / ((aa[s] - aa[s2]) * g))
            # The terms linear in w.  Pole s + 3 has w on the other sheet,
            # which negates each of them exactly: round-to-nearest is
            # symmetric under a change of sign.
            wt = (w * h0 / six_ggg_p, aa2[s] * w / six_gp, w * h1 / six_ggg_p,
                  ((h0 + 2 * z2) * w - P[s] * z * wz) / six_g3,
                  (z * wz - w) * h1 / six_g3)
            for i, t in ((s, wt), (s + 3, [-term for term in wt])):
                alphas[i] = [H[s] + t[0] + t[1], G[s] - t[2], one]
                ds[i] = [d0 + t[3], d1 + t[4], d2]

        residuals = []
        for i in range(6):
            a0, a1 = alphas[i][0], alphas[i][1]
            eq0 = a0 * a1 + a0 * ds[i][2] - a0.derivative() - ds[i][0]
            eq1 = a1 * a1 - a0 + a1 * ds[i][2] - a1.derivative() - ds[i][1]
            residuals.append(eq0.value())
            residuals.append(eq1.value())
        max_res = max(abs(r) for r in residuals)
        return KNData(x, eps, precision, branch, alphas, ds, residuals, max_res)


def _zpoly_eval(coeffs, z: Jet) -> Jet:
    out = Jet.const(0, z.order)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _zpoly_dz(coeffs):
    return [k * coeffs[k] for k in range(1, len(coeffs))]


def _xlaurent_jet(c: XLaurent, xj: Jet, ev) -> Jet:
    """The Laurent polynomial ``c`` at the jet ``xj`` of x and at eps = ``ev``."""
    out = Jet.const(0, xj.order)
    for xe, ee, n in c.terms():
        out = out + (n * ev**ee / c.den) * (xj**xe if xe >= 0 else (1 / xj) ** -xe)
    return out


def _zpoly_jets(p: ZSeries, xj: Jet, ev) -> list:
    """The z-coefficients of the exact z-polynomial ``p``, lowest power first, as jets.

    Raises ``ValueError`` for a negative ``lowest``: a pole at z = 0 has no
    place in the list, so multiply by a power of z first.
    """
    if p.lowest < 0:
        raise ValueError(f"_zpoly_jets needs a z-polynomial, got lowest = {p.lowest}")
    return ([Jet.const(0, xj.order)] * p.lowest
            + [_xlaurent_jet(c, xj, ev) for c in p.coeffs])


def pole_data_from_chi(x, eps, precision: int = 60):
    """alpha_ij and d_ij extracted from the chi functions at their poles.

    This is the defining property of the pole data (residue and constant term
    of each chi at each of the six poles) computed straight from the exact
    ``curve.chi`` fractions and ``W(z)``, with none of the intermediate
    parameter formulas.  It serves as the independent cross-check of the
    formula path.  Returns (alphas, ds) with the same indexing as KNData,
    with w on its principal sheet (the other sheet at the pole pair s only
    relabels pole ``s`` as pole ``s + 3``).
    """
    eps = _check_domain(eps)
    with mp.workdps(precision + GUARD_DIGITS):
        I = mpc(0, 1)
        ev = mpmathify(eps)
        # gamma' is the only derivative read, so order 1 suffices
        g = Jet(gamma_eval(x, eps, 1, precision))
        gp = g.derivative()
        xj = Jet((mpmathify(x), mpf(1)))
        a = (-1 + mp.sqrt(mpf(3)) * I) / 2
        aa = [mpc(1), a, a.conjugate()]

        # chi_j = (Na + Nb w)/D, each a polynomial in z with jet coefficients: (a, b,
        # kappa^m) times one z^s, which clears the poles at q (z = a_s gamma != 0)
        chis = []
        for c in (chi(j) for j in range(3)):
            zs = ZSeries(-min(c.a.lowest, c.b.lowest, 0), [XLaurent.one()])
            chis.append([_zpoly_jets(p * zs, xj, ev) for p in (c.a, c.b, c.den)])
        wcoeffs = _zpoly_jets(DEFAULT_CURVE.w_squared(), xj, ev)
        wprime = _zpoly_dz(wcoeffs)

        alphas = [[None] * 3 for _ in range(6)]
        ds = [[None] * 3 for _ in range(6)]
        for i in range(6):
            s = i % 3
            sigma = -1 if i >= 3 else 1
            z0 = aa[s] * g
            wsq = _zpoly_eval(wcoeffs, z0)
            w = wsq.sqrt_with_value(mp.sqrt(wsq.value())) * sigma
            wz = _zpoly_eval(wprime, z0) / (2 * w)
            for j, (na, nb, dd) in enumerate(chis):
                dp, dpp = _zpoly_dz(dd), _zpoly_dz(_zpoly_dz(dd))
                dpv = _zpoly_eval(dp, z0)
                nav, nbv = _zpoly_eval(na, z0), _zpoly_eval(nb, z0)
                res = (nav + nbv * w) / dpv          # residue at the simple pole
                const = ((_zpoly_eval(_zpoly_dz(na), z0)
                          + _zpoly_eval(_zpoly_dz(nb), z0) * w
                          + nbv * wz
                          - res * (_zpoly_eval(dpp, z0) * mpf("0.5"))) / dpv)
                alphas[i][j] = -res / (aa[s] * gp)
                ds[i][j] = const
        return alphas, ds


#: below this many digits the default tolerance (10^-10 at 30) proves nothing
MIN_PRECISION = 30


def default_tolerance(precision: int):
    """10^-(precision - 20); ``precision`` must be at least ``MIN_PRECISION``."""
    if precision < MIN_PRECISION:
        raise ValueError(f"the kn check needs precision >= {MIN_PRECISION} digits "
                         f"(tolerance 1e-10), got {precision}")
    return mpf(10) ** (-(precision - 20))


def find_branch(x, eps, precision: int = 60, variant: str = "resolved") -> KNData:
    """Search the eight global branch choices for one solving the system.

    Principal choices are tried first, one evaluation each, and the accepted
    evaluation is returned (its ``branch`` is the assignment).  Flipping
    ``w_signs[s]`` only relabels pole ``s`` as pole ``s + 3``, which permutes
    the same twelve residuals, so the search keeps the principal sheets.  A
    choice is accepted when every residual is below
    ``default_tolerance(precision)``.  On failure the error names the equation
    with the largest residual at the best assignment found.
    """
    tolerance = default_tolerance(precision)
    best = None
    for phase, s3 in sorted(itertools.product(range(4), range(2)),
                            key=lambda t: (sum(t), t)):
        data = _point_quantities(x, eps, precision, BranchAssignment(phase, s3), variant)
        if data.max_residual < tolerance:
            return data
        if best is None or data.max_residual < best.max_residual:
            best = data
    r = max(range(12), key=lambda k: abs(best.residuals[k]))
    pole, j = r // 2 + 1, r % 2   # KNData.residuals order
    raise ArithmeticError(
        f"no branch assignment reaches tolerance {tolerance}; "
        f"smallest max-residual achieved was {mp.nstr(best.max_residual, 5)} at "
        f"{best.branch}, in Eq[{pole}, {j}] (pole {pole})")


def check_points(points, eps) -> None:
    """Reject inputs the kn check cannot evaluate, before any evaluation.

    ``eps`` must be negative, and every point x nonzero (gamma vanishes at
    0) with x^3 + eps^2 > 0 (the real cube root) and distinct from the points
    before it (``1``, ``2/2`` and ``1.0`` are one point); decided exactly over
    the rationals, so each x must be an ``int``, ``Fraction`` or finite
    ``float`` (anything else, an mpmath number too, is a ``ValueError``).
    """
    e2 = _check_domain(eps) ** 2
    seen = set()
    for x in points:
        try:
            q = Fraction(x)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"x = {x!r} is not a rational number") from None
        if q in seen:
            raise ValueError(f"x = {x} repeats an earlier point")
        seen.add(q)
        if q == 0:
            raise ValueError("x = 0 is excluded: gamma vanishes")
        if q**3 + e2 <= 0:
            raise ValueError(f"x = {x} is outside the domain: x^3 + eps^2 must be positive")


def kn_residuals(x, eps, precision: int = 60,
                 branch: BranchAssignment | None = None,
                 variant: str = "resolved") -> KNData:
    """The 12 compatibility residuals at one sample point.

    With ``branch=None`` the branch assignment is discovered at this point.
    ``x`` must be rational (``int``, ``Fraction`` or ``float``);
    ``check_points`` rejects x and eps with ``ValueError`` before any
    evaluation.
    """
    check_points([x], eps)
    if branch is None:
        return find_branch(x, eps, precision, variant=variant)
    return _point_quantities(x, eps, precision, branch, variant)


@dataclass
class KNReport:
    """Multi-point verification summary."""

    eps: object
    precision: int
    tolerance: object
    branch: BranchAssignment
    points: list
    max_residuals: list
    gamma_residuals: list
    passed: bool

    @property
    def max_residual(self):
        return max(self.max_residuals)

    @property
    def max_gamma_residual(self):
        return max(self.gamma_residuals)


def kn_check(points=(1, Fraction(3, 2), 2, 3, 5), eps=-1, precision: int = 60) -> KNReport:
    """Discover the branch at the first point, verify all points with it.

    The check evaluates the resolved closed forms; the displayed variant,
    which never satisfies the system, is reachable through ``find_branch``
    and ``kn_residuals``.  Every point must keep all twelve residuals below
    ``default_tolerance(precision)``, which the report records as
    ``tolerance``.  Each point must be rational (``int``, ``Fraction`` or
    ``float``).  Too few digits, no points or a point that ``check_points``
    rejects raise ``ValueError`` before any evaluation.
    """
    pts = list(points)
    tolerance = default_tolerance(precision)
    if not pts:
        raise ValueError("the kn check needs at least one sample point")
    check_points(pts, eps)
    first = find_branch(pts[0], eps, precision)
    evaluations = [first] + [_point_quantities(x, eps, precision, first.branch)
                             for x in pts[1:]]
    max_residuals = [data.max_residual for data in evaluations]
    gamma_residuals = [gamma_equation_residual(x, eps, precision) for x in pts]
    passed = all(r < tolerance for r in max_residuals)
    return KNReport(eps, precision, tolerance, first.branch, pts,
                    max_residuals, gamma_residuals, passed)
