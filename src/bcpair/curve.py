"""The genus-2 spectral curve and the meromorphic data living on it.

The curve is w^2 = W(z) with W(z) = 1 - 2 z^3 - (eps^4/3888) z^4 + z^6 and
marked point q = (0, 1).  Elements of the quadratic extension of the rational
function field in (x, z) are ``a + b*w`` with w^2 rewritten via W; ``a`` and
``b`` are ``XZFraction``s, quotients of exact ``ZSeries`` (polynomials in z
over ``XLaurent``), so expanding them at q is one series division.  The sheet
swap ``sigma`` negates the w-part.  The chi functions, the eigenvalue
functions ``lambda`` (pole order 3 at q) and ``mu`` (pole order 4), and their
z-expansions all live here.

A widely-copied display of w(z) carries eps^2 where the defining equation has
eps^4; the constructor keeps eps^4 by default and exposes the variant so the
algebraic-identity checks can arbitrate (they reject the eps^2 form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (DEFAULT_SERIES_ORDER, EpsPoly, XLaurent, XZFraction, ZSeries,
                    fraction_equal, series_divide, series_sqrt)


@dataclass(frozen=True)
class CurveDef:
    """Defining data of the hyperelliptic model w^2 = W(z).

    ``w_eps_power`` is 4 for the standard curve and 2 for the variant; the
    marked point is q = (z, w) = (0, 1) either way.
    """

    w_eps_power: int = 4

    @property
    def tag(self) -> str:
        return f"eps{self.w_eps_power}"

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
    """Element a + b*w of the quadratic extension, over a fixed curve."""

    __slots__ = ("a", "b", "curve")

    def __init__(self, a: XZFraction, b: XZFraction | None = None,
                 curve: CurveDef = DEFAULT_CURVE):
        self.a = a
        self.b = b if b is not None else XZFraction.zero()
        self.curve = curve

    @classmethod
    def zero(cls, curve: CurveDef = DEFAULT_CURVE) -> "CurveElem":
        return cls(XZFraction.zero(), curve=curve)

    @classmethod
    def one(cls, curve: CurveDef = DEFAULT_CURVE) -> "CurveElem":
        return cls(XZFraction.one(), curve=curve)

    def _check(self, other: "CurveElem"):
        if self.curve != other.curve:
            raise ValueError("elements live on different curves")

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __add__(self, other: "CurveElem") -> "CurveElem":
        self._check(other)
        return CurveElem(self.a + other.a, self.b + other.b, self.curve)

    def __sub__(self, other: "CurveElem") -> "CurveElem":
        self._check(other)
        return CurveElem(self.a - other.a, self.b - other.b, self.curve)

    def __neg__(self) -> "CurveElem":
        return CurveElem(-self.a, -self.b, self.curve)

    def __mul__(self, other) -> "CurveElem":
        if isinstance(other, (int, Fraction, EpsPoly)):
            return CurveElem(self.a * other, self.b * other, self.curve)
        self._check(other)
        wsq = XZFraction(self.curve.w_squared())
        a = self.a * other.a + (self.b * other.b) * wsq
        b = self.a * other.b + self.b * other.a
        return CurveElem(a, b, self.curve)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, CurveElem) and self.curve == other.curve
                and fraction_equal(self.a, other.a) and fraction_equal(self.b, other.b))

    def power(self, k: int) -> "CurveElem":
        out = CurveElem.one(self.curve)
        for _ in range(k):
            out = out * self
        return out

    def sigma_conj(self) -> "CurveElem":
        """The hyperelliptic involution (z, w) -> (z, -w): negate the w-part."""
        return CurveElem(self.a, -self.b, self.curve)

    def norm(self) -> XZFraction:
        """(a + bw)(a - bw) = a^2 - b^2 W, a w-free function."""
        return self.a * self.a - (self.b * self.b) * XZFraction(self.curve.w_squared())

    def derive(self) -> "CurveElem":
        """d/dx; z and w are constants of the derivation."""
        return CurveElem(self.a.derive_x(), self.b.derive_x(), self.curve)

    def substitute_eps(self, value) -> "CurveElem":
        return CurveElem(self.a.substitute_eps(value), self.b.substitute_eps(value),
                         self.curve)

    def __repr__(self):
        return f"CurveElem(a={self.a!r}, b={self.b!r})"


# ---------------------------------------------------------------------------
# the concrete meromorphic data
# ---------------------------------------------------------------------------

def _kappa() -> ZSeries:
    """kappa = (eps^2 + x^3) z^3 - x^3, the common denominator of the chi's."""
    return _mono(0, 3, EpsPoly.eps_power(2)) + _mono(3, 3) - _mono(3, 0)


def _frac(num: ZSeries, den: ZSeries) -> XZFraction:
    return XZFraction(num, den)


def _mono(xe: int, ze: int, coeff=1) -> ZSeries:
    """coeff * x^xe * z^ze as an exact z-series."""
    return ZSeries.from_z_coefficients({ze: XLaurent.monomial(xe, coeff)})


def chi(j: int, curve: CurveDef = DEFAULT_CURVE) -> CurveElem:
    """The three ratios chi_0, chi_1, chi_2 steering the rank-3 reduction.

    chi_2 is sigma-invariant (w-part identically zero); chi_0 has the simple
    pole in z at the marked point.
    """
    if j not in (0, 1, 2):
        raise ValueError("chi index must be 0, 1 or 2")
    kappa = _kappa()
    if j == 2:
        # -3 eps^2 z^3 / (x kappa)
        num = _mono(0, 3, EpsPoly.eps_power(2, -3))
        return CurveElem(_frac(num, _mono(1, 0) * kappa), curve=curve)
    if j == 1:
        # (132 eps^2 z^3 - x^3 (204 - 204 z^3 + 108 w + eps^2 z^2)) / (12 x^2 kappa)
        den = _mono(2, 0, 12) * kappa
        a_num = (_mono(0, 3, EpsPoly.eps_power(2, 132))
                 - _mono(3, 0, 204) + _mono(3, 3, 204)
                 - _mono(3, 2, EpsPoly.eps_power(2)))
        b_num = _mono(3, 0, -108)
        return CurveElem(_frac(a_num, den), _frac(b_num, den), curve)
    # chi_0, assembled term by term exactly as displayed
    a = _frac(_mono(0, 0), _mono(0, 1, 2))                                   # 1/(2z)
    a = a - _frac(_mono(3, 0) * (_mono(0, 0, EpsPoly.eps_power(2)) + _mono(3, 0)),
                  _mono(0, 0, 5832))                                          # -x^3(eps^2+x^3)/5832
    a = a + _frac(_mono(0, 3, 10) - _mono(0, 0, 10), kappa)                   # 10(z^3-1)/kappa
    a = a + _frac(_mono(3, 1, EpsPoly.eps_power(2)), kappa * _mono(0, 0, 216))
    a = a - _frac(_mono(0, 2, EpsPoly.eps_power(2)), kappa * _mono(0, 0, 6))
    a = a + _frac(_mono(0, 3, EpsPoly.eps_power(2, 16)), kappa * _mono(3, 0))
    b = _frac(_mono(0, 0, -108), kappa * _mono(0, 0, 6))                      # -108 w/(6 kappa)
    b = b - _frac(_mono(3, 0), kappa * _mono(0, 1, 2))                        # -x^3 w/(2 kappa z)
    return CurveElem(a, b, curve)


def lambda_fn(curve: CurveDef = DEFAULT_CURVE) -> CurveElem:
    """(1 + w)/(2 z^3) - 1/2: pole of order 3 at the marked point."""
    den = _mono(0, 3, 2)
    return CurveElem(_frac(_mono(0, 0), den) - _frac(_mono(0, 0), _mono(0, 0, 2)),
                     _frac(_mono(0, 0), den), curve)


def mu_fn(curve: CurveDef = DEFAULT_CURVE) -> CurveElem:
    """(1 + w)/(2 z^4) - 1/(2 z): pole of order 4; equals lambda/z."""
    den = _mono(0, 4, 2)
    return CurveElem(_frac(_mono(0, 0), den) - _frac(_mono(0, 0), _mono(0, 1, 2)),
                     _frac(_mono(0, 0), den), curve)


def curve_series(e: CurveElem, order: int = DEFAULT_SERIES_ORDER) -> ZSeries:
    """Laurent expansion of ``a + b*w`` at the marked point q = (0, 1)."""
    a = series_divide(e.a.num, e.a.den, nterms=order) if not e.a.is_zero() else ZSeries.zero()
    if e.b.is_zero():
        return a
    b = series_divide(e.b.num, e.b.den, nterms=order)
    w = e.curve.w_series(order)
    return a + b * w


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
