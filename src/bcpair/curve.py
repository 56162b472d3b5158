"""The genus-2 spectral curve and the meromorphic data living on it.

The curve is w^2 = W(z) with W(z) = 1 - 2 z^3 - (eps^4/3888) z^4 + z^6 and
marked point q = (0, 1).  Elements of the quadratic extension of the rational
function field in (x, z) are ``(a + b*w)/kappa^m``, w^2 rewritten via W, over
the chis' one pole divisor kappa = (eps^2 + x^3) z^3 - x^3 = 0 (z = a_s gamma).
Since kappa(0) = -x^3 is a unit, expanding one at q is one series division.
The chi functions, the eigenvalue functions ``lambda`` (pole order 3 at q) and
``mu`` (pole order 4), and their z-expansions all live here.

A widely-copied display of w(z) carries eps^2 where the defining equation has
eps^4; the constructor keeps eps^4 by default and exposes the variant so the
algebraic-identity checks can arbitrate (they reject the eps^2 form).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import (DEFAULT_SERIES_ORDER, BivarPoly, EpsPoly, XLaurent, ZSeries,
                    series_divide, series_sqrt, xl)
from .opdata import bc_poly


class CurveDef(NamedTuple):
    """Defining data of the hyperelliptic model w^2 = W(z).

    ``w_eps_power`` is 4 for the standard curve and 2 for the variant; the
    marked point is q = (z, w) = (0, 1) either way.
    """

    w_eps_power: int = 4

    def w_squared(self) -> ZSeries:
        """W(z) as an exact z-series (x-degree zero)."""
        return ZSeries.from_z_coefficients({
            0: XLaurent.one(),
            3: XLaurent.monomial(0, -2),
            4: XLaurent.monomial(0, EpsPoly.eps_power(self.w_eps_power, Fraction(-1, 3888))),
            6: XLaurent.one(),
        })

    def w_series(self, order: int = DEFAULT_SERIES_ORDER) -> ZSeries:
        """The branch of w with w(0) = 1, expanded at the marked point."""
        return series_sqrt(self.w_squared().truncate(order))


DEFAULT_CURVE = CurveDef()


def _zpoly(zc: dict) -> ZSeries:
    """Laurent polynomial in z from ``{z_exp: {x_exp: rational or {eps_exp: rational}}}``."""
    return ZSeries.from_z_coefficients({e: xl(c) for e, c in zc.items()})


#: kappa = (eps^2 + x^3) z^3 - x^3, the one denominator of the function field
_KAPPA = _zpoly({0: {3: -1}, 3: {0: {2: 1}, 3: 1}})


def _kappa_power(m: int) -> ZSeries:
    return ZSeries.one() if m == 0 else _kappa_power(m - 1) * _KAPPA


class CurveElem:
    """Element (a + b*w)/kappa^m of the quadratic extension, over a fixed curve.

    ``a``, ``b``: exact ``ZSeries`` Laurent polynomials in z over ``XLaurent``,
    holding every monomial unit of a denominator; ``m >= 0``.  Sums lift to
    the larger m, so equality is a zero test with no cross-multiplication.
    """

    __slots__ = ("a", "b", "m", "curve")

    def __init__(self, a: ZSeries, b: ZSeries | None = None, m: int = 0,
                 curve: CurveDef = DEFAULT_CURVE):
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"the power of kappa must be an int >= 0, got {m!r}")
        self.a = a
        self.b = ZSeries.zero() if b is None else b
        self.m = m
        self.curve = curve

    @classmethod
    def one(cls, curve: CurveDef = DEFAULT_CURVE) -> "CurveElem":
        return cls(ZSeries.one(), curve=curve)

    @property
    def den(self) -> ZSeries:
        """kappa^m."""
        return _kappa_power(self.m)

    def _check(self, other: "CurveElem"):
        if self.curve != other.curve:
            raise ValueError("elements live on different curves")

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def _lift(self, m: int) -> tuple[ZSeries, ZSeries]:
        """The numerators of ``self`` over kappa^m, for m >= self.m."""
        k = _kappa_power(m - self.m)
        return (self.a, self.b) if m == self.m else (self.a * k, self.b * k)

    def _add(self, other: "CurveElem", sign: int = 1) -> "CurveElem":
        """``self + sign * other`` for ``sign`` in (1, -1)."""
        self._check(other)
        m = max(self.m, other.m)
        (a1, b1), (a2, b2) = self._lift(m), other._lift(m)
        return CurveElem(a1._add(a2, sign), b1._add(b2, sign), m, self.curve)

    __add__ = _add

    def __sub__(self, other: "CurveElem") -> "CurveElem":
        return self._add(other, -1)

    def __mul__(self, other) -> "CurveElem":
        if isinstance(other, (int, Fraction, EpsPoly)):
            return CurveElem(self.a.scale(other), self.b.scale(other), self.m, self.curve)
        self._check(other)
        a = self.a * other.a + self.b * other.b * self.curve.w_squared()
        b = self.a * other.b + self.b * other.a
        return CurveElem(a, b, self.m + other.m, self.curve)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, CurveElem) and self.curve == other.curve
                and (self - other).is_zero())

    def power(self, k: int) -> "CurveElem":
        """``self`` to the power k >= 0, by k - 1 products for k >= 1."""
        if k < 0:
            raise ValueError(f"the power must be an int >= 0, got {k!r}")
        out = self if k else CurveElem.one(self.curve)
        for _ in range(k - 1):
            out = out * self
        return out

    def derive(self) -> "CurveElem":
        """d/dx of N/kappa^m is (N' kappa - m N kappa')/kappa^(m+1), N = a + bw;
        z and w are constants of the derivation."""
        dk = _KAPPA.derive().scale(-self.m)
        return CurveElem(self.a.derive() * _KAPPA + self.a * dk,
                         self.b.derive() * _KAPPA + self.b * dk, self.m + 1, self.curve)

    def __repr__(self):
        return f"CurveElem(a={self.a!r}, b={self.b!r}, m={self.m})"


# ---------------------------------------------------------------------------
# the concrete meromorphic data, written as displayed
# ---------------------------------------------------------------------------

def chi(j: int, curve: CurveDef = DEFAULT_CURVE) -> CurveElem:
    """The three ratios chi_0, chi_1, chi_2 steering the rank-3 reduction.

    All three have the one simple pole divisor kappa = 0 (m = 1) away from q.
    chi_2 has no w-part (the sheet swap w -> -w fixes it); chi_0 has the
    simple pole in z at the marked point.
    """
    if j not in (0, 1, 2):
        raise ValueError("chi index must be 0, 1 or 2")
    if j == 2:
        # -3 eps^2 z^3 / (x kappa)
        return CurveElem(_zpoly({3: {-1: {2: -3}}}), m=1, curve=curve)
    if j == 1:
        # (11 eps^2 z^3/x^2 - x (17 - 17 z^3 + eps^2 z^2/12) - 9 x w) / kappa
        a = _zpoly({0: {1: -17}, 2: {1: {2: Fraction(-1, 12)}}, 3: {-2: {2: 11}, 1: 17}})
        return CurveElem(a, _zpoly({0: {1: -9}}), 1, curve)
    # 1/(2z) - x^3 (eps^2 + x^3)/5832 + (10 (z^3 - 1) + eps^2 x^3 z/216 - eps^2 z^2/6
    #   + 16 eps^2 z^3/x^3 - (18 + x^3/(2z)) w) / kappa
    a = (_zpoly({-1: {0: Fraction(1, 2)}, 0: {3: {2: Fraction(-1, 5832)}, 6: Fraction(-1, 5832)}})
         * _KAPPA
         + _zpoly({0: {0: -10}, 1: {3: {2: Fraction(1, 216)}}, 2: {0: {2: Fraction(-1, 6)}},
                   3: {0: 10, -3: {2: 16}}}))
    return CurveElem(a, _zpoly({-1: {3: Fraction(-1, 2)}, 0: {0: -18}}), 1, curve)


def lambda_fn(curve: CurveDef = DEFAULT_CURVE) -> CurveElem:
    """((z^-3 - 1) + z^-3 w)/2: pole of order 3 at the marked point."""
    half = Fraction(1, 2)
    return CurveElem(_zpoly({-3: {0: half}, 0: {0: -half}}), _zpoly({-3: {0: half}}), 0, curve)


def mu_fn(curve: CurveDef = DEFAULT_CURVE) -> CurveElem:
    """((z^-4 - z^-1) + z^-4 w)/2: pole of order 4; equals lambda/z."""
    half = Fraction(1, 2)
    return CurveElem(_zpoly({-4: {0: half}, -1: {0: -half}}), _zpoly({-4: {0: half}}), 0, curve)


def curve_series(e: CurveElem, order: int = DEFAULT_SERIES_ORDER) -> ZSeries:
    """Laurent expansion of ``(a + b*w)/kappa^m`` at the marked point q = (0, 1),
    one series division since kappa(0) = -x^3 is a unit."""
    num = e.a if e.b.is_zero() else e.a + e.b * e.curve.w_series(order)
    return series_divide(num, e.den, nterms=order)


def _eval_at(q: BivarPoly, z: CurveElem, w: CurveElem) -> CurveElem:
    """``Q(z, w)``, each power of ``z`` and ``w`` one product from the one below it;
    a coefficient of 1 or -1 is a sign, not a product."""
    zp, wp = powers = [[CurveElem.one(z.curve), e] for e in (z, w)]
    for row, top in zip(powers, map(max, zip(*q.c))):
        while len(row) <= top:
            row.append(row[-1] * row[1])
    total = CurveElem(ZSeries.zero(), curve=z.curve)
    for (i, j), coeff in q.c.items():
        term = zp[i] if not j else wp[j] if not i else zp[i] * wp[j]
        sign = 1 if coeff == 1 else -1 if coeff == -1 else 0
        total = total._add(term if sign else term * coeff, sign or 1)
    return total


def bc_function_identity(curve: CurveDef = DEFAULT_CURVE, eps=None) -> bool:
    """Whether the relation ``opdata.bc_poly()``, mu^3 - (eps^4/15552) mu^2 -
    lambda^4 - lambda^3, vanishes on the curve.

    True on the standard curve; false on the eps^2 variant for generic eps.
    This is the function-field shadow of the algebraic relation between the
    order-9 and order-12 operators.  Passing a rational ``eps`` specializes
    the parameter after the exact arithmetic (eps = 0 reduces the identity to
    mu^3 = lambda^4 + lambda^3).
    """
    q = _eval_at(bc_poly(), lambda_fn(curve), mu_fn(curve))
    parts = (q.a, q.b) if eps is None else (q.a.substitute_eps(eps), q.b.substitute_eps(eps))
    return all(p.is_zero() for p in parts)
