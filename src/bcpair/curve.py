"""The genus-2 spectral curve and the meromorphic data living on it.

The curve is w^2 = W(z) with W(z) = 1 - 2 z^3 - (eps^4/3888) z^4 + z^6 and
marked point q = (0, 1).  Elements of the quadratic extension of the rational
function field in (x, z) are single fractions ``(a + b*w)/den`` with w^2
rewritten via W; ``a``, ``b`` and ``den`` are exact ``ZSeries`` (polynomials
in z over ``XLaurent``), so expanding one at q is one series division.  The
sheet swap ``sigma`` negates the w-part.  The chi functions, the eigenvalue
functions ``lambda`` (pole order 3 at q) and ``mu`` (pole order 4), and their
z-expansions all live here.

A widely-copied display of w(z) carries eps^2 where the defining equation has
eps^4; the constructor keeps eps^4 by default and exposes the variant so the
algebraic-identity checks can arbitrate (they reject the eps^2 form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (DEFAULT_SERIES_ORDER, EpsPoly, XLaurent, ZSeries,
                    series_divide, series_sqrt, xl)


@dataclass(frozen=True)
class CurveDef:
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

# sanity of the fixed model: W(0) = 1 and deg_z W = 6
assert DEFAULT_CURVE.w_squared().coefficient(0) == XLaurent.one()
assert len(DEFAULT_CURVE.w_squared().coeffs) == 7


class CurveElem:
    """Element (a + b*w)/den of the quadratic extension, over a fixed curve.

    There is no canonical form: numerators and denominator are kept exactly as
    arithmetic produced them (no multivariate gcd), and equality is by cross
    multiplication.
    """

    __slots__ = ("a", "b", "den", "curve")

    def __init__(self, a: ZSeries, b: ZSeries | None = None, den: ZSeries | None = None,
                 curve: CurveDef = DEFAULT_CURVE):
        den = ZSeries.one() if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in CurveElem")
        self.a = a
        self.b = ZSeries.zero() if b is None else b
        self.den = den
        self.curve = curve

    @classmethod
    def one(cls, curve: CurveDef = DEFAULT_CURVE) -> "CurveElem":
        return cls(ZSeries.one(), curve=curve)

    def _check(self, other: "CurveElem"):
        if self.curve != other.curve:
            raise ValueError("elements live on different curves")

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def _add(self, other: "CurveElem", sign: int = 1) -> "CurveElem":
        """``self + sign * other`` for ``sign`` in (1, -1)."""
        self._check(other)
        if self.den == other.den:
            return CurveElem(self.a._add(other.a, sign), self.b._add(other.b, sign),
                             self.den, self.curve)
        return CurveElem((self.a * other.den)._add(other.a * self.den, sign),
                         (self.b * other.den)._add(other.b * self.den, sign),
                         self.den * other.den, self.curve)

    __add__ = _add

    def __sub__(self, other: "CurveElem") -> "CurveElem":
        return self._add(other, -1)

    def __neg__(self) -> "CurveElem":
        return CurveElem(-self.a, -self.b, self.den, self.curve)

    def __mul__(self, other) -> "CurveElem":
        if isinstance(other, (int, Fraction, EpsPoly)):
            return CurveElem(self.a.scale(other), self.b.scale(other), self.den, self.curve)
        self._check(other)
        a = self.a * other.a + self.b * other.b * self.curve.w_squared()
        b = self.a * other.b + self.b * other.a
        return CurveElem(a, b, self.den * other.den, self.curve)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, CurveElem) and self.curve == other.curve
                and (self.a * other.den - other.a * self.den).is_zero()
                and (self.b * other.den - other.b * self.den).is_zero())

    def power(self, k: int) -> "CurveElem":
        out = CurveElem.one(self.curve)
        for _ in range(k):
            out = out * self
        return out

    def sigma_conj(self) -> "CurveElem":
        """The hyperelliptic involution (z, w) -> (z, -w): negate the w-part."""
        return CurveElem(self.a, -self.b, self.den, self.curve)

    def norm(self) -> "CurveElem":
        """(a + bw)(a - bw)/den^2 = (a^2 - b^2 W)/den^2, a w-free function."""
        return CurveElem(self.a * self.a - self.b * self.b * self.curve.w_squared(),
                         den=self.den * self.den, curve=self.curve)

    def derive(self) -> "CurveElem":
        """d/dx by the quotient rule; z and w are constants of the derivation."""
        dd = self.den.derive()
        return CurveElem(self.a.derive() * self.den - self.a * dd,
                         self.b.derive() * self.den - self.b * dd,
                         self.den * self.den, self.curve)

    def substitute_eps(self, value) -> "CurveElem":
        den = self.den.substitute_eps(value)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes at this eps value")
        return CurveElem(self.a.substitute_eps(value), self.b.substitute_eps(value),
                         den, self.curve)

    def __repr__(self):
        return f"CurveElem(a={self.a!r}, b={self.b!r}, den={self.den!r})"


# ---------------------------------------------------------------------------
# the concrete meromorphic data
# ---------------------------------------------------------------------------

def _zpoly(zc: dict) -> ZSeries:
    """Polynomial in z from ``{z_exp: {x_exp: rational or {eps_exp: rational}}}``."""
    return ZSeries.from_z_coefficients({e: xl(c) for e, c in zc.items()})


def _kappa() -> ZSeries:
    """kappa = (eps^2 + x^3) z^3 - x^3, the common denominator of the chi's."""
    return _zpoly({0: {3: -1}, 3: {0: {2: 1}, 3: 1}})


def chi(j: int, curve: CurveDef = DEFAULT_CURVE) -> CurveElem:
    """The three ratios chi_0, chi_1, chi_2 steering the rank-3 reduction.

    Each is stored over its common denominator, a multiple of kappa.  chi_2 is
    sigma-invariant (w-part identically zero); chi_0 has the simple pole in z
    at the marked point.
    """
    if j not in (0, 1, 2):
        raise ValueError("chi index must be 0, 1 or 2")
    kappa = _kappa()
    if j == 2:
        # -3 eps^2 z^3 / (x kappa)
        return CurveElem(_zpoly({3: {0: {2: -3}}}), den=_zpoly({0: {1: 1}}) * kappa,
                         curve=curve)
    if j == 1:
        # (132 eps^2 z^3 - x^3 (204 - 204 z^3 + 108 w + eps^2 z^2)) / (12 x^2 kappa)
        a = _zpoly({0: {3: -204}, 2: {3: {2: -1}}, 3: {0: {2: 132}, 3: 204}})
        return CurveElem(a, _zpoly({0: {3: -108}}), _zpoly({0: {2: 12}}) * kappa, curve)
    # the displayed
    #   1/(2z) - x^3 (eps^2 + x^3)/5832 + 10 (z^3 - 1)/kappa + eps^2 x^3 z/(216 kappa)
    #   - eps^2 z^2/(6 kappa) + 16 eps^2 z^3/(x^3 kappa) - 18 w/kappa - x^3 w/(2 z kappa)
    # over 11664 x^3 z kappa
    a = _zpoly({0: {6: -5832},
                1: {12: 2, 9: {2: 2}, 3: -116640},
                2: {6: {2: 54}},
                3: {6: 5832, 3: {2: 3888}},
                4: {12: -2, 9: {2: -4}, 6: {4: -2}, 3: 116640, 0: {2: 186624}}})
    b = _zpoly({0: {6: -5832}, 1: {3: -209952}})
    return CurveElem(a, b, _zpoly({1: {3: 11664}}) * kappa, curve)


def lambda_fn(curve: CurveDef = DEFAULT_CURVE) -> CurveElem:
    """(1 - z^3 + w)/(2 z^3): pole of order 3 at the marked point."""
    return CurveElem(_zpoly({0: {0: 1}, 3: {0: -1}}), ZSeries.one(), _zpoly({3: {0: 2}}),
                     curve)


def mu_fn(curve: CurveDef = DEFAULT_CURVE) -> CurveElem:
    """(1 - z^3 + w)/(2 z^4): pole of order 4; equals lambda/z."""
    return CurveElem(_zpoly({0: {0: 1}, 3: {0: -1}}), ZSeries.one(), _zpoly({4: {0: 2}}),
                     curve)


def curve_series(e: CurveElem, order: int = DEFAULT_SERIES_ORDER) -> ZSeries:
    """Laurent expansion of ``(a + b*w)/den`` at the marked point q = (0, 1)."""
    num = e.a if e.b.is_zero() else e.a + e.b * e.curve.w_series(order)
    return series_divide(num, e.den, nterms=order)


def bc_function_identity(curve: CurveDef = DEFAULT_CURVE, eps=None) -> bool:
    """Whether mu^3 - (eps^4/15552) mu^2 - lambda^4 - lambda^3 vanishes on the curve.

    True on the standard curve; false on the eps^2 variant for generic eps.
    This is the function-field shadow of the algebraic relation between the
    order-9 and order-12 operators.  Passing a rational ``eps`` specializes
    the parameter after the exact arithmetic (eps = 0 reduces the identity to
    mu^3 = lambda^4 + lambda^3).
    """
    lam = lambda_fn(curve)
    mu = mu_fn(curve)
    coeff = EpsPoly.eps_power(4, Fraction(1, 15552))
    q = mu.power(3) - mu.power(2) * coeff - lam.power(4) - lam.power(3)
    if eps is not None:
        q = q.substitute_eps(eps)
    return q.is_zero()
