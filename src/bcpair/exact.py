"""Exact arithmetic layer.

Everything downstream computes over these types:

* ``EpsPoly``      -- polynomials in the parameter ``eps`` over the rationals.
* ``XLaurent``     -- Laurent polynomials in ``x`` with polynomial-in-``eps``
  coefficients, stored as ``int`` numerators keyed by ``(x_exp, eps_exp)``
  over one positive ``int`` denominator in lowest terms; ``.c`` is a lazily
  built read-only ``{x_exp: EpsPoly}`` view.  A single ``+``, ``-`` or
  ``*`` reduces its result once.  ``sum_of_products`` (``ZSeries`` products,
  series division and square roots, the rank-3 reduction) and the operator
  products ``compose_coefficients`` and ``commutator_coefficients`` sum in
  one int dict per result over a common denominator, on packed keys
  ``x_exp * 2**20 + eps_exp`` from ``.packed`` (a view built on first use and
  kept, raising ``ExactError`` for an eps exponent of ``2**19`` or more, so
  that two packed keys add without a carry), and reduce each result once.
* ``ZSeries``      -- truncated Laurent series in ``z`` whose coefficients are
  ``XLaurent``.  Dense in ``z``, sparse in ``x``.  An exact one (no
  truncation) is a polynomial in ``z`` over ``XLaurent``.
* ``BivarPoly``    -- polynomials in two commuting placeholders ``(z, w)`` over
  ``EpsPoly``; used for algebraic relations between a pair of operators.

All values are immutable by convention: no method mutates ``self`` or its
arguments, so sharing across threads is safe and results do not depend on
evaluation order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

INF = float("inf")

#: default number of retained series terms beyond the lowest exponent
DEFAULT_SERIES_ORDER = 16

#: ``XLaurent.packed`` keys are ``x_exp * 2**_EPS_BITS + eps_exp`` with
#: ``eps_exp < _EPS_CAP``, so the sum of two keys unpacks exactly
_EPS_BITS = 20
_EPS_CAP = 1 << (_EPS_BITS - 1)
_EPS_MASK = (1 << _EPS_BITS) - 1
_X_UNIT = 1 << _EPS_BITS


def _fr(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


class ExactError(ArithmeticError):
    """Raised when an exact operation is impossible (bad unit, inexact division...)."""


# ---------------------------------------------------------------------------
# polynomials in eps over Q
# ---------------------------------------------------------------------------

class EpsPoly:
    """Polynomial in ``eps`` with rational coefficients, stored sparsely.

    The coefficient map never stores zeros.  Exponents are any non-negative
    integers: relation discovery admits odd eps powers, and derived operators
    reach eps-degrees above those of ``L1`` and ``L2``.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        c: dict[int, Fraction] = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _fr(v)
                if v:
                    if e < 0:
                        raise ValueError("negative eps exponent")
                    c[int(e)] = v
        self.c = c

    @classmethod
    def const(cls, value) -> "EpsPoly":
        return cls({0: _fr(value)})

    @classmethod
    def eps_power(cls, k: int, coeff=1) -> "EpsPoly":
        return cls({k: _fr(coeff)})

    @classmethod
    def zero(cls) -> "EpsPoly":
        return cls()

    @classmethod
    def one(cls) -> "EpsPoly":
        return cls({0: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.c

    def is_monomial(self) -> bool:
        return len(self.c) == 1

    def degree(self) -> int:
        return max(self.c) if self.c else -1

    def _add(self, other: "EpsPoly", sign: int = 1) -> "EpsPoly":
        """``self + sign * other`` for ``sign`` in (1, -1)."""
        c = dict(self.c)
        for e, v in other.c.items():
            s = c.get(e, _ZERO) + (v if sign == 1 else -v)
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        out = EpsPoly.__new__(EpsPoly)
        out.c = c
        return out

    __add__ = _add

    def __sub__(self, other: "EpsPoly") -> "EpsPoly":
        return self._add(other, -1)

    def __neg__(self) -> "EpsPoly":
        out = EpsPoly.__new__(EpsPoly)
        out.c = {e: -v for e, v in self.c.items()}
        return out

    def __mul__(self, other) -> "EpsPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, EpsPoly):
            return NotImplemented
        c: dict[int, Fraction] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                s = c.get(e, _ZERO) + v1 * v2
                if s:
                    c[e] = s
                else:
                    del c[e]
        out = EpsPoly.__new__(EpsPoly)
        out.c = c
        return out

    __rmul__ = __mul__

    def scale(self, value) -> "EpsPoly":
        value = _fr(value)
        out = EpsPoly.__new__(EpsPoly)
        out.c = {e: v * value for e, v in self.c.items()} if value else {}
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = EpsPoly.const(other)
        return isinstance(other, EpsPoly) and self.c == other.c

    def substitute(self, value) -> Fraction:
        """Evaluate at a rational value of eps."""
        value = _fr(value)
        return sum((v * value**e for e, v in self.c.items()), Fraction(0))

    def divide_monomial(self, coeff: Fraction, exp: int) -> "EpsPoly":
        """Exact division by ``coeff * eps**exp``; every term must be divisible."""
        if not coeff:
            raise ExactError("division by zero eps monomial")
        c = {}
        for e, v in self.c.items():
            if e < exp:
                raise ExactError(f"eps^{e} term not divisible by eps^{exp}")
            c[e - exp] = v / coeff
        out = EpsPoly.__new__(EpsPoly)
        out.c = c
        return out

    def __divmod__(self, other: "EpsPoly") -> tuple["EpsPoly", "EpsPoly"]:
        """Long division ``self = q * other + r`` with ``r.degree() < other.degree()``."""
        if other.is_zero():
            raise ExactError("division by zero eps polynomial")
        rem = dict(self.c)
        de = other.degree()
        dl = other.c[de]
        q: dict[int, Fraction] = {}
        while rem and (e := max(rem)) >= de:
            qe, qv = e - de, rem[e] / dl
            q[qe] = qv
            for oe, ov in other.c.items():
                t = oe + qe
                s = rem.get(t, _ZERO) - qv * ov
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        quo, r = EpsPoly.__new__(EpsPoly), EpsPoly.__new__(EpsPoly)
        quo.c, r.c = q, rem
        return quo, r

    def divexact(self, other: "EpsPoly") -> "EpsPoly":
        """Exact polynomial division; raises if the remainder is nonzero."""
        if other.is_monomial():
            (e, v), = other.c.items()
            return self.divide_monomial(v, e)
        q, r = divmod(self, other)
        if r.c:
            raise ExactError("inexact eps-polynomial division")
        return q

    def __repr__(self):
        return f"EpsPoly({self})"

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                parts.append(str(v))
            elif e == 1:
                parts.append(f"{v}*eps")
            else:
                parts.append(f"{v}*eps^{e}")
        return " + ".join(parts)


_ZERO = Fraction(0)
_EP_ZERO = EpsPoly()
_EP_ONE = EpsPoly({0: Fraction(1)})


def ep(value) -> EpsPoly:
    """Promote an int/Fraction (or pass an EpsPoly through) to ``EpsPoly``."""
    if isinstance(value, EpsPoly):
        return value
    return EpsPoly.const(value)


# ---------------------------------------------------------------------------
# Laurent polynomials in x over EpsPoly
# ---------------------------------------------------------------------------

def _reduced(num: dict[tuple[int, int], int], den: int) -> "XLaurent":
    """The XLaurent ``num / den`` (``den > 0``, no zero numerators), in lowest terms.

    One gcd sweep over the numerators, skipped when ``den`` is 1.
    """
    if den != 1:
        if not num:
            den = 1
        else:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: v // g for k, v in num.items()}
    out = XLaurent.__new__(XLaurent)
    out.num = num
    out.den = den
    out._c = None
    out._packed = None
    return out


class XLaurent:
    """Laurent polynomial in ``x`` whose coefficients are polynomials in ``eps``.

    Stored as integer numerators over one denominator: ``num`` maps
    ``(x_exp, eps_exp)`` to a nonzero ``int`` and ``den`` is a positive
    ``int`` coprime to the gcd of the numerators.  The form is canonical, so
    equality is structural.  Arithmetic runs on plain ints and reduces each
    result once.  ``c`` is the read-only view ``{x_exp: EpsPoly}``, built on
    first use and kept.

    Exponents may be negative; d/dx maps ``x**n`` to ``n*x**(n-1)`` for every
    integer ``n``.
    """

    __slots__ = ("num", "den", "_c", "_packed")

    def __init__(self, coeffs: dict[int, EpsPoly] | None = None):
        terms: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for e, v in coeffs.items():
                if isinstance(v, EpsPoly):
                    for ee, r in v.c.items():
                        terms[(int(e), ee)] = r
                else:
                    r = _fr(v)
                    if r:
                        terms[(int(e), 0)] = r
        den = math.lcm(*(r.denominator for r in terms.values()))
        self.num = {k: r.numerator * (den // r.denominator) for k, r in terms.items()}
        self.den = den
        self._c = None
        self._packed = None

    @property
    def c(self) -> MappingProxyType:
        """Read-only ``{x_exp: EpsPoly}`` view of the coefficients."""
        view = self._c
        if view is None:
            rows: dict[int, dict[int, Fraction]] = {}
            den = self.den
            for (xe, ee), v in self.num.items():
                rows.setdefault(xe, {})[ee] = Fraction(v, den)
            polys = {}
            for xe, row in rows.items():
                p = polys[xe] = EpsPoly.__new__(EpsPoly)
                p.c = row
            view = self._c = MappingProxyType(polys)
        return view

    @property
    def packed(self) -> tuple[tuple[int, int], ...]:
        """``(x_exp * 2**20 + eps_exp, numerator)`` pairs, built on first use and kept.

        Raises ``ExactError`` for an eps exponent of ``2**19`` or more, so
        that the eps parts of two packed keys always add without a carry.
        """
        view = self._packed
        if view is None:
            view = self._packed = tuple([((xe << _EPS_BITS) + ee, v) if ee < _EPS_CAP
                                         else _beyond_cap(ee)
                                         for (xe, ee), v in self.num.items()])
        return view

    @classmethod
    def zero(cls) -> "XLaurent":
        return cls()

    @classmethod
    def one(cls) -> "XLaurent":
        return cls({0: _EP_ONE})

    @classmethod
    def monomial(cls, xexp: int, coeff=1) -> "XLaurent":
        return cls({xexp: ep(coeff)})

    @classmethod
    def var(cls) -> "XLaurent":
        return cls({1: _EP_ONE})

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.den == 1 and self.num == {(0, 0): 1}

    def _add(self, other: "XLaurent", sign: int = 1) -> "XLaurent":
        """``self + sign * other`` for ``sign`` in (1, -1)."""
        an, bn = self.num, other.num
        if not bn:
            return self
        if not an:
            return other if sign == 1 else -other
        # over the lcm of the denominators: scale self by fa and other by fb
        da, db = self.den, other.den
        fa, fb = 1, sign
        if da != db:
            g = math.gcd(da, db)
            fa, fb = db // g, sign * (da // g)
        num = {k: v * fa for k, v in an.items()} if fa != 1 else dict(an)
        get = num.get
        for k, v in bn.items():
            s = get(k, 0) + v * fb
            if s:
                num[k] = s
            else:
                del num[k]
        return _reduced(num, da * fa)

    __add__ = _add

    def __sub__(self, other: "XLaurent") -> "XLaurent":
        return self._add(other, -1)

    def __neg__(self) -> "XLaurent":
        out = XLaurent.__new__(XLaurent)
        out.num = {k: -v for k, v in self.num.items()}
        out.den = self.den
        out._c = None
        out._packed = None
        return out

    def __mul__(self, other) -> "XLaurent":
        if not isinstance(other, XLaurent):
            if isinstance(other, (int, Fraction, EpsPoly)):
                return self.scale(other)
            return NotImplemented
        acc: dict[tuple[int, int], int] = {}
        get = acc.get
        bitems = list(other.num.items())
        for (x1, e1), v1 in self.num.items():
            for (x2, e2), v2 in bitems:
                k = (x1 + x2, e1 + e2)
                acc[k] = get(k, 0) + v1 * v2
        if 0 in acc.values():
            acc = {k: v for k, v in acc.items() if v}
        return _reduced(acc, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, value) -> "XLaurent":
        if isinstance(value, EpsPoly):
            return self * XLaurent({0: value})
        if isinstance(value, int):
            p, q = value, 1
        else:
            value = _fr(value)
            p, q = value.numerator, value.denominator
        if not p:
            return _XL_ZERO
        return _reduced({k: v * p for k, v in self.num.items()}, self.den * q)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, EpsPoly)):
            other = XLaurent({0: other})
        return isinstance(other, XLaurent) and self.den == other.den and self.num == other.num

    def derive(self) -> "XLaurent":
        return _reduced({(xe - 1, ee): v * xe for (xe, ee), v in self.num.items() if xe},
                        self.den)

    def coefficient(self, xexp: int) -> EpsPoly:
        return self.c.get(xexp, _EP_ZERO)

    def substitute_eps(self, value) -> "XLaurent":
        """Set eps to a rational p/q: sum v p^e q^(top-e) over q^top, top the eps-degree."""
        if not self.num:
            return self
        value = _fr(value)
        top = max(ee for _, ee in self.num)
        if not top:
            return self
        p, q = value.numerator, value.denominator
        pp = [p**e for e in range(top + 1)]
        qq = [q**e for e in range(top + 1)]
        acc: dict[tuple[int, int], int] = {}
        for (xe, ee), v in self.num.items():
            k = (xe, 0)
            acc[k] = acc.get(k, 0) + v * pp[ee] * qq[top - ee]
        return _reduced({k: v for k, v in acc.items() if v}, self.den * qq[top])

    def is_unit(self) -> bool:
        """A unit is a single monomial c * x^a * eps^b with c != 0."""
        return len(self.num) == 1

    def divide_unit(self, unit: "XLaurent") -> "XLaurent":
        """Exact division by a unit monomial; used by series inversion."""
        if not unit.is_unit():
            raise ExactError(f"not an invertible coefficient: {unit}")
        ((ux, ue), u), = unit.num.items()
        if u < 0:
            u, du = -u, -unit.den
        else:
            du = unit.den
        num = {}
        for (xe, ee), v in self.num.items():
            if ee < ue:
                raise ExactError(f"eps^{ee} term not divisible by eps^{ue}")
            num[(xe - ux, ee - ue)] = v * du
        return _reduced(num, self.den * u)

    def __repr__(self):
        return f"XLaurent({self})"

    def __str__(self):
        c = self.c
        if not c:
            return "0"
        parts = []
        for e in sorted(c, reverse=True):
            v = c[e]
            body = f"({v})" if len(v.c) > 1 else str(v)
            if e == 0:
                parts.append(body)
            else:
                parts.append(f"{body}*x^{e}")
        return " + ".join(parts)


_XL_ZERO = XLaurent()
_XL_ONE = XLaurent.one()


def _beyond_cap(ee: int):
    """Raise the ``ExactError`` of an eps exponent that ``XLaurent.packed`` cannot hold."""
    raise ExactError(f"eps^{ee} is beyond the packed-key cap eps^{_EPS_CAP - 1}")


def sum_of_products(terms) -> XLaurent:
    """``sum c * a * b`` over ``(int c, XLaurent a, XLaurent b)`` triples.

    Every product is brought onto one common denominator, the integer
    numerators accumulate in one dict keyed by packed ints (``.packed``), and
    the sum is unpacked and reduced once; no intermediate ``XLaurent`` is
    built.  The form is canonical, so the result equals the fold
    ``c1*a1*b1 + c2*a2*b2 + ...`` exactly.
    """
    # ``x._packed or x.packed`` reads a built view without a property call
    prods = [(c, a._packed or a.packed, b._packed or b.packed, a.den * b.den)
             for c, a, b in terms if c and a.num and b.num]
    den = math.lcm(*[p[3] for p in prods])
    acc: dict[int, int] = {}
    for c, aitems, bitems, d in prods:
        _add_products(acc, aitems, bitems, c * (den // d))
    return _unpacked(acc, den)


def _add_products(acc: dict[int, int], aitems, bitems, f: int) -> None:
    """``acc += f * a * b`` for ``a`` and ``b`` given as ``(packed key, numerator)`` pairs."""
    if len(aitems) > len(bitems):
        aitems, bitems = bitems, aitems
    get = acc.get
    for k1, v1 in aitems:
        v1 *= f
        for k2, v2 in bitems:
            k = k1 + k2
            acc[k] = get(k, 0) + v1 * v2


def _unpacked(acc: dict[int, int], den: int) -> XLaurent:
    """The XLaurent of the packed-key numerators ``acc`` over ``den``, reduced once."""
    return _reduced({(k >> _EPS_BITS, k & _EPS_MASK): v for k, v in acc.items() if v}, den)


def _packed_rows(values) -> tuple[list[dict[int, int]], int]:
    """``values`` over their lcm denominator: operator rows ``{packed key: numerator}``."""
    den = math.lcm(*[v.den for v in values])
    return [{k: n * (den // v.den) for k, n in v._packed or v.packed} for v in values], den


def _derive_row(row: dict[int, int]) -> dict[int, int]:
    """d/dx on packed keys: ``k`` becomes ``k - 2**20``, its numerator times ``k >> 20``."""
    return {k - _X_UNIT: v * x for k, v in row.items() if (x := k >> _EPS_BITS)}


def _d_power_sum(acc: list[dict[int, int]], left, lden: int, rows, lift, sign: int) -> None:
    """``acc[n] += sign * lden * sum_i left[i] * R_i[n]`` for XLaurents ``left``
    whose denominators divide ``lden``, with ``R_0 = rows`` and
    ``R_i = D . R_(i-1) + L' . D^(i-1)`` (``L'``: the rows ``lift``
    differentiated).  Row ``n`` of ``R_i`` is
    ``R_(i-1)[n]' + R_(i-1)[n - 1] + L'[n - i + 1]``; rows may hold zeros."""
    lift = [_derive_row(r) for r in lift] if len(left) > 1 else ()
    for i, a in enumerate(left):
        if i:
            step = [_derive_row(r) for r in rows]
            step.append({})
            for n, add in [*enumerate(rows, 1), *enumerate(lift, i - 1)]:
                out = step[n]
                get = out.get
                for k, v in add.items():
                    out[k] = get(k, 0) + v
            rows = step
        if a.num:
            items, f = a._packed or a.packed, sign * (lden // a.den)
            for acc_n, r in zip(acc, rows):
                _add_products(acc_n, items, r.items(), f)


def compose_coefficients(a, b) -> list[XLaurent]:
    """The coefficients of ``A . B`` (``DiffOp.compose``) for those of nonzero ``A`` and ``B``."""
    da = math.lcm(*[v.den for v in a])
    rb, db = _packed_rows(b)
    acc: list[dict[int, int]] = [{} for _ in range(len(a) + len(b) - 1)]
    _d_power_sum(acc, a, da, rb, (), 1)
    return [_unpacked(r, da * db) for r in acc]


def commutator_coefficients(a, b) -> list[XLaurent]:
    """The coefficients of ``[A, B]`` (``DiffOp.commutator``) for those of nonzero
    ``A`` and ``B``; ``T_0 = 0`` is ``len(b) - 1`` empty rows, so that ``T_i`` has
    ``len(b) + i - 1``."""
    (ra, da), (rb, db) = _packed_rows(a), _packed_rows(b)
    acc: list[dict[int, int]] = [{} for _ in range(len(a) + len(b) - 2)]
    _d_power_sum(acc, a, da, [{}] * (len(b) - 1), rb, 1)
    _d_power_sum(acc, b, db, [{}] * (len(a) - 1), ra, -1)
    return [_unpacked(r, da * db) for r in acc]


def xl(coeffs: dict[int, object]) -> XLaurent:
    """Shorthand constructor: ``{x_exp: rational or {eps_exp: rational}}``."""
    return XLaurent({e: EpsPoly(v) if isinstance(v, dict) else v for e, v in coeffs.items()})


# ---------------------------------------------------------------------------
# truncated Laurent series in z with XLaurent coefficients
# ---------------------------------------------------------------------------

class ZSeries:
    """Truncated Laurent series in ``z``.

    ``coeffs[i]`` is the ``XLaurent`` coefficient of ``z**(lowest+i)``.  The
    series is known exactly for all exponents below ``upper`` (and is zero
    below ``lowest``); ``upper == INF`` marks an exact finite expansion.
    Arithmetic propagates the smallest valid window of its inputs, so the
    reported window never overstates what is actually known.
    """

    __slots__ = ("lowest", "coeffs", "upper", "__weakref__")

    def __init__(self, lowest: int, coeffs: list[XLaurent], upper=INF):
        # trim known-zero leading terms; they stay implicitly known
        i = 0
        n = len(coeffs)
        while i < n and coeffs[i].is_zero():
            i += 1
        if i == n:
            # every known term vanishes: keep the window, even below z^0
            lowest, coeffs = min(0, upper), []
        else:
            lowest, coeffs = lowest + i, list(coeffs[i:])
        if not math.isinf(upper):
            want = upper - lowest
            if want < len(coeffs):
                coeffs = coeffs[:want]
            else:
                coeffs = coeffs + [_XL_ZERO] * (want - len(coeffs))
        self.lowest = lowest
        self.coeffs = coeffs
        self.upper = upper

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ZSeries":
        return cls(0, [], INF)

    @classmethod
    def one(cls) -> "ZSeries":
        return cls(0, [_XL_ONE], INF)

    @classmethod
    def from_z_coefficients(cls, zc: dict[int, XLaurent]) -> "ZSeries":
        """Exact series from a finite z-coefficient map (e.g. a polynomial)."""
        if not zc:
            return cls.zero()
        lo, hi = min(zc), max(zc)
        coeffs = [zc.get(e, _XL_ZERO) for e in range(lo, hi + 1)]
        return cls(lo, coeffs, INF)

    # -- structure ---------------------------------------------------------

    def known_len(self) -> float:
        return self.upper - self.lowest if not math.isinf(self.upper) else INF

    def coefficient(self, zexp: int) -> XLaurent:
        if not math.isinf(self.upper) and zexp >= self.upper:
            raise ExactError(f"z^{zexp} is beyond the truncation window (< {self.upper})")
        i = zexp - self.lowest
        if i < 0 or i >= len(self.coeffs):
            return _XL_ZERO
        return self.coeffs[i]

    def is_zero(self) -> bool:
        """True when every *known* coefficient vanishes."""
        return all(v.is_zero() for v in self.coeffs)

    def first_nonzero(self):
        for i, v in enumerate(self.coeffs):
            if not v.is_zero():
                return self.lowest + i, v
        return None

    def truncate(self, upper: int) -> "ZSeries":
        new_upper = upper if math.isinf(self.upper) else min(self.upper, upper)
        return ZSeries(self.lowest, self.coeffs, new_upper)

    # -- arithmetic --------------------------------------------------------

    def _add(self, other: "ZSeries", sign: int = 1) -> "ZSeries":
        """``self + sign * other`` for ``sign`` in (1, -1)."""
        upper = min(self.upper, other.upper)
        lo = min(self.lowest, other.lowest)
        if math.isinf(upper):
            hi = max(self.lowest + len(self.coeffs), other.lowest + len(other.coeffs))
        else:
            hi = upper
        coeffs = []
        for e in range(lo, hi):
            coeffs.append(self.coefficient(e)._add(other.coefficient(e), sign))
        return ZSeries(lo, coeffs, upper)

    __add__ = _add

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        return self._add(other, -1)

    def __neg__(self) -> "ZSeries":
        return ZSeries(self.lowest, [-v for v in self.coeffs], self.upper)

    def __mul__(self, other) -> "ZSeries":
        if isinstance(other, (int, Fraction, EpsPoly, XLaurent)):
            return self.scale(other)
        la, lb = self.lowest, other.lowest
        lo = la + lb
        upper = min(self.upper + lb, other.upper + la)
        if math.isinf(upper):
            hi = lo + len(self.coeffs) + len(other.coeffs) - 1 if self.coeffs and other.coeffs else lo
        else:
            hi = upper
        n = max(0, int(hi - lo))
        # the products of each output coefficient, summed in one pass apiece
        terms: list[list] = [[] for _ in range(n)]
        bnz = [(j, b) for j, b in enumerate(other.coeffs[:n]) if b.num]
        for i, a in enumerate(self.coeffs[:n]):
            if a.num:
                for j, b in bnz:
                    if i + j >= n:
                        break
                    terms[i + j].append((1, a, b))
        return ZSeries(lo, [sum_of_products(t) if t else _XL_ZERO for t in terms], upper)

    __rmul__ = __mul__

    def scale(self, value) -> "ZSeries":
        if isinstance(value, XLaurent):
            return ZSeries(self.lowest, [v * value for v in self.coeffs], self.upper)
        value = ep(value)
        return ZSeries(self.lowest, [v.scale(value) for v in self.coeffs], self.upper)

    def derive(self) -> "ZSeries":
        """d/dx, applied coefficient-wise (z is a spectral parameter)."""
        return ZSeries(self.lowest, [v.derive() for v in self.coeffs], self.upper)

    def substitute_eps(self, value) -> "ZSeries":
        return ZSeries(self.lowest, [v.substitute_eps(value) for v in self.coeffs], self.upper)

    def eq_known(self, other: "ZSeries") -> bool:
        """Equality of all coefficients on the intersection of known windows."""
        upper = min(self.upper, other.upper)
        lo = min(self.lowest, other.lowest)
        if math.isinf(upper):
            hi = max(self.lowest + len(self.coeffs), other.lowest + len(other.coeffs))
        else:
            hi = int(upper)
        return all(self.coefficient(e) == other.coefficient(e) for e in range(lo, hi))

    def __eq__(self, other) -> bool:
        return isinstance(other, ZSeries) and self.eq_known(other)

    def __repr__(self):
        inside = ", ".join(f"z^{self.lowest + i}: {v}" for i, v in enumerate(self.coeffs)
                           if not v.is_zero())
        tail = "exact" if math.isinf(self.upper) else f"O(z^{self.upper})"
        return f"ZSeries({inside or '0'}; {tail})"


def series_divide(num: ZSeries, den: ZSeries, nterms: int | None = None) -> ZSeries:
    """Series division; the leading z-coefficient of ``den`` must be a unit.

    The result ``s`` satisfies ``s * den == num`` through the returned window.
    """
    lead = den.first_nonzero()
    if lead is None:
        raise ZeroDivisionError("division by zero series")
    ld, d0 = lead
    if not d0.is_unit():
        raise ExactError(f"leading z-coefficient is not an invertible unit: {d0}")
    lo = num.lowest - ld
    win = min(num.upper - num.lowest, den.upper - den.lowest)
    if nterms is not None:
        win = min(win, nterms)
    if math.isinf(win):
        raise ExactError("series division needs a finite term count for exact inputs")
    win = int(win)
    dshift = [den.coefficient(ld + j) for j in range(win)]
    out: list[XLaurent] = []
    for k in range(win):
        # num_k - sum_j d_j out_{k-j}, over one denominator
        acc = sum_of_products([(1, num.coefficient(num.lowest + k), _XL_ONE)]
                              + [(-1, dshift[j], out[k - j]) for j in range(1, k + 1)])
        out.append(acc.divide_unit(d0))
    return ZSeries(lo, out, lo + win)


def series_sqrt(s: ZSeries) -> ZSeries:
    """Square root of a series with constant term 1 (the branch with value 1).

    Rejects anything whose lowest exponent is not 0 or whose constant term is
    not 1: there is no Puiseux support here.
    """
    if s.lowest != 0 or s.coefficient(0) != _XL_ONE:
        raise ExactError("series_sqrt needs lowest exponent 0 and constant term 1")
    win = s.known_len()
    if math.isinf(win):
        win = len(s.coeffs)
    win = int(win)
    half = Fraction(1, 2)
    out: list[XLaurent] = [_XL_ONE]
    for k in range(1, win):
        # s_k - sum_{0<j<k} out_j out_{k-j}: each pair j < k - j twice, the square once
        terms = [(1, s.coefficient(k), _XL_ONE)]
        terms += [(-2, out[j], out[k - j]) for j in range(1, (k + 1) // 2)]
        if k % 2 == 0:
            terms.append((-1, out[k // 2], out[k // 2]))
        out.append(sum_of_products(terms).scale(half))
    return ZSeries(0, out, s.upper if not math.isinf(s.upper) else win)


# ---------------------------------------------------------------------------
# bivariate polynomials in (z, w) over EpsPoly
# ---------------------------------------------------------------------------

class BivarPoly:
    """Polynomial in two commuting symbols (z, w) over ``EpsPoly``.

    Used for algebraic relations Q(z, w) evaluated at a commuting operator
    pair, with z standing for the lower-order operator.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[tuple[int, int], EpsPoly] | None = None):
        c: dict[tuple[int, int], EpsPoly] = {}
        if coeffs:
            for (ze, we), v in coeffs.items():
                v = ep(v) if not isinstance(v, EpsPoly) else v
                if not v.is_zero():
                    c[(ze, we)] = v
        self.c = c

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.c == other.c

    def substitute_eps(self, value) -> "BivarPoly":
        out: dict[tuple[int, int], EpsPoly] = {}
        for k, v in self.c.items():
            r = v.substitute(value)
            if r:
                out[k] = EpsPoly.const(r)
        return BivarPoly(out)

    def __str__(self):
        if not self.c:
            return "0"
        def key(item):
            (ze, we), _ = item
            return (-(we), -(ze))
        parts = []
        for (ze, we), v in sorted(self.c.items(), key=key):
            factors = []
            if not v == _EP_ONE or (ze == 0 and we == 0):
                factors.append(f"({v})" if len(v.c) > 1 else str(v))
            if we:
                factors.append("w" if we == 1 else f"w^{we}")
            if ze:
                factors.append("z" if ze == 1 else f"z^{ze}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"BivarPoly({self})"
