"""Exact arithmetic layer.

Everything downstream computes over these types:

* ``EpsPoly``      -- polynomials in the parameter ``eps`` over the rationals,
  stored as ``int`` numerators keyed by ``eps_exp`` over one positive ``int``
  denominator in lowest terms; ``.c`` builds a ``{eps_exp: Fraction}`` dict
  on each read.  Only it has a long division (``divmod``).
  ``ep`` is the one promotion of an int or ``Fraction`` to it.
* ``XLaurent``     -- Laurent polynomials in ``x`` with polynomial-in-``eps``
  coefficients, stored the same way in one form: numerators keyed by the int
  ``x_exp * 2**20 + eps_exp``, so an x-free one holds its ``EpsPoly``'s
  ``num``; ``.c`` builds an ``{x_exp: EpsPoly}`` dict on each read and
  ``terms()`` decodes the keys.  ``XLaurent(...)`` and every product result
  (``_xl_of``) raise ``ExactError`` for an eps exponent of ``2**19`` or
  more, so two keys add without a carry.  Both types share one base,
  ``_IntFraction``, with one body and one name for each of ``+``, ``-``,
  ``*``, ``==``, which share one operand rule (an int or ``Fraction`` is a
  constant, an ``EpsPoly`` is an ``XLaurent``'s x-free part), rational
  ``scale``, ``is_monomial``, ``divide_unit`` and ``substitute_eps``, and one
  product kernel, ``_add_products``.
  ``sum_of_products`` and ``series_sum`` (``ZSeries`` products, the rank-3
  reduction frame and its remainder) sum each result in one int dict over a
  common denominator (``_packed_sum``), as do ``compose_coefficients`` and
  ``commutator_coefficients``, and reduce each result once.
* ``ZSeries``      -- truncated Laurent series in ``z`` whose coefficients are
  ``XLaurent``.  Dense in ``z``, sparse in ``x``.  An exact one (no
  truncation) is a polynomial in ``z`` over ``XLaurent``.  A truncated one
  stores exactly its window, so its stored terms end (``end``) where its
  knowledge does (``upper``); an exact one stores no leading or trailing
  zero.  ``==`` compares the terms on the intersection of the two windows.
* ``BivarPoly``    -- polynomials in two commuting placeholders ``(z, w)`` over
  ``EpsPoly``; used for algebraic relations between a pair of operators.

All values are immutable by convention: no method mutates ``self`` or its
arguments, so sharing across threads is safe and results do not depend on
evaluation order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_

INF = float("inf")

#: default number of retained series terms beyond the lowest exponent
DEFAULT_SERIES_ORDER = 16

#: ``XLaurent.num``, its one storage form, keys ``x_exp * 2**_EPS_BITS + eps_exp`` with
#: ``eps_exp < _EPS_CAP`` (``XLaurent()`` and ``_xl_of`` raise), so two keys add exactly
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
# int numerators over one denominator
# ---------------------------------------------------------------------------

class _IntFraction:
    """Storage shared by ``EpsPoly`` and ``XLaurent``, their only form: ``num`` maps
    each int key to a nonzero ``int`` numerator over one positive ``int``
    denominator ``den``, in lowest terms, so equality is structural.  Every
    operation whose body is the same for both types lives here; a subclass
    names the operands that ``+``, ``-`` and ``*`` take besides its own type
    (``_SCALARS``), the mask that reads a key's eps exponent (``_MASK``) and
    may replace the hook that builds a product (``_of_acc``)."""

    __slots__ = ("num", "den")

    @classmethod
    def _of(cls, num: dict, den: int):
        """``num / den`` (``den > 0``, no zero numerators) in lowest terms: one gcd
        sweep over the numerators, skipped when ``den`` is 1."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num, den = {k: v // g for k, v in num.items()}, den // g
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

    def is_zero(self) -> bool:
        return not self.num

    def is_monomial(self) -> bool:
        """One term: ``c * eps^b``, or ``c * x^a * eps^b`` for an ``XLaurent``."""
        return len(self.num) == 1

    def _add(self, other, sign: int = 1):
        """``self + sign * other`` for ``sign`` in (1, -1), over the lcm of the
        denominators.  An int or ``Fraction`` is a constant; an ``XLaurent`` takes an
        ``EpsPoly`` as its x-free part, through the cap check."""
        if type(other) is not type(self):
            if isinstance(other, (int, Fraction)):
                other = self._of({0: other.numerator} if other else {}, other.denominator)
            elif isinstance(other, self._SCALARS):
                other = XLaurent({0: other})
            else:
                return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other if sign == 1 else -other
        da, db = self.den, other.den
        fa, fb = 1, sign
        if da != db:
            g = math.gcd(da, db)
            fa, fb = db // g, sign * (da // g)
        num = {k: v * fa for k, v in self.num.items()} if fa != 1 else dict(self.num)
        get = num.get
        for k, v in other.num.items():
            s = get(k, 0) + v * fb
            if s:
                num[k] = s
            else:
                del num[k]
        return self._of(num, da * fa)

    __add__ = __radd__ = _add

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other)

    def __neg__(self):
        # negation keeps lowest terms: no gcd sweep
        out = type(self).__new__(type(self))
        out.num, out.den = {k: -v for k, v in self.num.items()}, self.den
        return out

    def scale(self, value):
        """``self`` times an int or ``Fraction``."""
        if isinstance(value, int):
            p, q = value, 1
        else:
            value = _fr(value)
            p, q = value.numerator, value.denominator
        if not p:
            return self._of({}, 1)
        return self._of({k: v * p for k, v in self.num.items()}, self.den * q)

    def __mul__(self, other):
        if type(other) is not type(self):
            if isinstance(other, self._SCALARS):
                return self.scale(other)
            return NotImplemented
        acc: dict[int, int] = {}
        _add_products(acc, self.num.items(), other.num.items(), 1)
        return self._of_acc(acc, self.den * other.den)

    __rmul__ = __mul__

    @classmethod
    def _of_acc(cls, acc: dict[int, int], den: int):
        """The nonzero numerators of ``acc`` over ``den``, reduced once."""
        return cls._of({k: v for k, v in acc.items() if v}, den)

    def __eq__(self, other) -> bool:
        """An int or ``Fraction`` is a constant; an ``EpsPoly`` equals an x-free ``XLaurent``
        with its numerators (an ``EpsPoly`` key of ``2**19`` or more is no x-free key)."""
        if type(other) is type(self):
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return self.den == other.denominator and self.num == ({0: p} if p else {})
        return (isinstance(other, _IntFraction) and self.den == other.den
                and self.num == other.num and max(self.num, default=0) < _EPS_CAP)

    def divide_unit(self, unit):
        """Exact division by a one-term ``unit``; the eps part (``key & _MASK``) of
        every key must reach the unit's."""
        if not unit.is_monomial():
            raise ExactError(f"not an invertible coefficient: {unit}")
        (uk, u), = unit.num.items()
        mask = self._MASK
        ue = uk & mask
        # times 1/u, with the sign of u moved to the numerators
        u, du = abs(u), -unit.den if u < 0 else unit.den
        num = {}
        for k, v in self.num.items():
            if (ee := k & mask) < ue:
                raise ExactError(f"eps^{ee} term not divisible by eps^{ue}")
            num[k - uk] = v * du
        return self._of(num, self.den * u)

    def substitute_eps(self, value):
        """Set eps to a rational p/q: sum v p^e q^(top-e) over q^top, with e the eps
        part (``key & _MASK``) of each key and top the eps-degree.  The result has
        the type of ``self``: an ``EpsPoly`` constant, an x-only ``XLaurent``."""
        value = _fr(value)
        mask = self._MASK
        exps = {k & mask for k in self.num}
        top = max(exps, default=0)
        if not top:
            return self
        p, q = value.numerator, value.denominator
        # p^e q^(top-e) for the eps exponents present only
        f = {e: p**e * q**(top - e) for e in exps}
        acc: dict[int, int] = {}
        for k, v in self.num.items():
            rest = k & ~mask  # the key with its eps part cleared
            acc[rest] = acc.get(rest, 0) + v * f[k & mask]
        return self._of({k: v for k, v in acc.items() if v}, self.den * q**top)


# ---------------------------------------------------------------------------
# polynomials in eps over Q
# ---------------------------------------------------------------------------

class EpsPoly(_IntFraction):
    """Polynomial in ``eps`` with rational coefficients, stored sparsely.

    ``num`` maps each eps exponent to its numerator over ``den``
    (``_IntFraction``), as an x-free ``XLaurent``'s does.  Arithmetic runs on
    plain ints and reduces each result once; an int or ``Fraction`` operand is
    a constant.  ``c`` builds ``{eps_exp: Fraction}`` on each read.  Exponents
    are any non-negative integers: relation discovery admits odd eps powers,
    and derived operators reach eps-degrees above those of ``L1`` and ``L2``.
    """

    __slots__ = ()
    _SCALARS = (int, Fraction)
    _MASK = -1  # a key is its eps exponent

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        terms: dict[int, Fraction] = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _fr(v)
                if v:
                    if e < 0:
                        raise ValueError("negative eps exponent")
                    terms[int(e)] = v
        den = math.lcm(*(r.denominator for r in terms.values()))
        self.num = {e: r.numerator * (den // r.denominator) for e, r in terms.items()}
        self.den = den

    @property
    def c(self) -> dict[int, Fraction]:
        """The coefficients as a new ``{eps_exp: Fraction}`` dict."""
        den = self.den
        return {e: Fraction(v, den) for e, v in self.num.items()}

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
        return cls({0: 1})

    def degree(self) -> int:
        return max(self.num) if self.num else -1

    def leading_coefficient(self) -> Fraction:
        """The coefficient of the highest eps power; 0 for the zero polynomial."""
        return Fraction(self.num[max(self.num)], self.den) if self.num else Fraction(0)

    def __divmod__(self, other: "EpsPoly") -> tuple["EpsPoly", "EpsPoly"]:
        """Long division ``self = q * other + r`` with ``r.degree() < other.degree()``.

        With ``other = B / d``, ``B``'s leading numerator ``lc > 0``, the
        remainder ``rem / rden`` steps to ``(lc * rem - lead * eps^k * B) / (rden * lc)``
        on ints and is reduced once at the end.
        """
        if not other.num:
            raise ExactError("division by zero eps polynomial")
        de = other.degree()
        sign = 1 if other.num[de] > 0 else -1
        onum = {e: sign * v for e, v in other.num.items()}
        lc, d = onum[de], sign * other.den
        rem, rden = dict(self.num), self.den
        q: dict[int, Fraction] = {}
        while rem and (e := max(rem)) >= de:
            lead, k = rem[e], e - de
            q[k] = Fraction(lead * d, rden * lc)
            rem = {t: v * lc for t, v in rem.items()}
            get = rem.get
            for oe, ov in onum.items():
                t = oe + k
                s = get(t, 0) - lead * ov
                if s:
                    rem[t] = s
                else:
                    del rem[t]
            rden *= lc
        return EpsPoly(q), self._of(rem, rden)

    def divexact(self, other: "EpsPoly") -> "EpsPoly":
        """Exact polynomial division; raises if the remainder is nonzero."""
        if other.is_monomial():
            return self.divide_unit(other)
        q, r = divmod(self, other)
        if r.num:
            raise ExactError("inexact eps-polynomial division")
        return q

    def __repr__(self):
        return f"EpsPoly({self})"

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for e, v in sorted(self.c.items()):
            if e == 0:
                parts.append(str(v))
            elif e == 1:
                parts.append(f"{v}*eps")
            else:
                parts.append(f"{v}*eps^{e}")
        return " + ".join(parts)


_EP_ZERO = EpsPoly()
_EP_ONE = EpsPoly({0: 1})


def ep(value) -> EpsPoly:
    """Promote an int/Fraction (or pass an EpsPoly through) to ``EpsPoly``."""
    if isinstance(value, EpsPoly):
        return value
    return EpsPoly.const(value)


# ---------------------------------------------------------------------------
# Laurent polynomials in x over EpsPoly
# ---------------------------------------------------------------------------

class XLaurent(_IntFraction):
    """Laurent polynomial in ``x`` whose coefficients are polynomials in ``eps``.

    ``num`` maps the key ``x_exp * 2**20 + eps_exp`` to its numerator over
    ``den`` (``_IntFraction``).  Arithmetic runs on plain ints and reduces
    each result once; an int or ``Fraction`` operand is a constant and an
    ``EpsPoly`` the x-free part.  ``c`` builds ``{x_exp: EpsPoly}`` on each
    read; ``terms()`` decodes the keys.

    Exponents may be negative; d/dx maps ``x**n`` to ``n*x**(n-1)`` for every
    integer ``n``.
    """

    __slots__ = ()
    _SCALARS = (int, Fraction, EpsPoly)
    _MASK = _EPS_MASK

    def __init__(self, coeffs: dict[int, EpsPoly] | None = None):
        rows: list[tuple[int, EpsPoly]] = []
        if coeffs:
            for e, v in coeffs.items():
                v = ep(v)
                if v.num:
                    if (top := v.degree()) >= _EPS_CAP:
                        raise _cap_error(top)
                    rows.append((int(e) << _EPS_BITS, v))
        den = math.lcm(*(v.den for _, v in rows))
        self.num = {xk + ee: n * (den // v.den) for xk, v in rows for ee, n in v.num.items()}
        self.den = den

    @property
    def c(self) -> dict[int, EpsPoly]:
        """The coefficients as a new ``{x_exp: EpsPoly}`` dict."""
        rows: dict[int, dict[int, int]] = {}
        for xe, ee, v in self.terms():
            rows.setdefault(xe, {})[ee] = v
        return {xe: EpsPoly._of(row, self.den) for xe, row in rows.items()}

    def terms(self) -> list[tuple[int, int, int]]:
        """``(x_exp, eps_exp, numerator)`` of each stored term, over ``den``."""
        return [(k >> _EPS_BITS, k & _EPS_MASK, v) for k, v in self.num.items()]

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

    def is_one(self) -> bool:
        return self.den == 1 and self.num == {0: 1}

    @classmethod
    def _of_acc(cls, acc: dict[int, int], den: int) -> "XLaurent":
        """The nonzero numerators of ``acc`` over ``den``, reduced once.  The keys are
        sums of stored ones, so an eps part at the cap or beyond sets bit 19."""
        num = {k: v for k, v in acc.items() if v}
        if reduce(or_, num, 0) & _EPS_CAP:
            raise _cap_error(max(k & _EPS_MASK for k in num))
        return cls._of(num, den)

    def scale(self, value) -> "XLaurent":
        if isinstance(value, EpsPoly):
            return self * XLaurent({0: value})
        return super().scale(value)

    def derive(self) -> "XLaurent":
        return self._of(_derive_row(self.num.items()), self.den)

    def coefficient(self, xexp: int) -> EpsPoly:
        return self.c.get(xexp, _EP_ZERO)

    def __repr__(self):
        return f"XLaurent({self})"

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for e, v in sorted(self.c.items(), reverse=True):
            body = f"({v})" if len(v.num) > 1 else str(v)
            if e == 0:
                parts.append(body)
            else:
                parts.append(f"{body}*x^{e}")
        return " + ".join(parts)


_XL_ZERO = XLaurent()
_XL_ONE = XLaurent.one()
_xl_of = XLaurent._of_acc


def _cap_error(ee: int) -> ExactError:
    return ExactError(f"eps^{ee} is beyond the packed-key cap eps^{_EPS_CAP - 1}")


def sum_of_products(terms) -> XLaurent:
    """``sum c * a * b`` over ``(int c, XLaurent a, XLaurent b)`` triples, as one
    ``_packed_sum``: no intermediate ``XLaurent`` is built.  The form is
    canonical, so the result equals the fold ``c1*a1*b1 + c2*a2*b2 + ...``
    exactly.
    """
    return _packed_sum([(a.den * b.den, c, a.num.items(), b.num.items())
                        for c, a, b in terms if c and a.num and b.num])


def _packed_sum(terms) -> XLaurent:
    """``sum c * a`` and ``sum c * a * b`` over ``(den, c, a, b or None)`` terms,
    ``a`` and ``b`` given as ``(packed key, numerator)`` pairs whose values
    are over ``den``: one int dict over the lcm of the ``den``s, reduced
    once."""
    den = math.lcm(*[t[0] for t in terms])
    acc: dict[int, int] = {}
    get = acc.get
    for d, c, items, bitems in terms:
        f = c * (den // d)
        if bitems is None:
            for k, v in items:
                acc[k] = get(k, 0) + v * f
        else:
            _add_products(acc, items, bitems, f)
    return _xl_of(acc, den)


def _add_products(acc: dict[int, int], aitems, bitems, f: int) -> None:
    """``acc += f * a * b`` for ``a`` and ``b`` given as ``(key, numerator)`` pairs:
    the product of two ``EpsPoly`` or of two ``XLaurent``."""
    if len(aitems) > len(bitems):
        aitems, bitems = bitems, aitems
    get = acc.get
    for k1, v1 in aitems:
        v1 *= f
        for k2, v2 in bitems:
            k = k1 + k2
            acc[k] = get(k, 0) + v1 * v2


def _packed_rows(values) -> tuple[list[dict[int, int]], int]:
    """``values`` over their lcm denominator: operator rows ``{packed key: numerator}``."""
    den = math.lcm(*[v.den for v in values])
    return [{k: n * (den // v.den) for k, n in v.num.items()} for v in values], den


def _derive_row(items) -> dict[int, int]:
    """d/dx of ``(packed key, numerator)`` pairs: ``k`` becomes ``k - 2**20``, its
    numerator times ``k >> 20``."""
    return {k - _X_UNIT: v * x for k, v in items if (x := k >> _EPS_BITS)}


def _d_power_sum(acc: list[dict[int, int]], left, lden: int, rows, lift, sign: int) -> None:
    """``acc[n] += sign * lden * sum_i left[i] * R_i[n]`` for XLaurents ``left``
    whose denominators divide ``lden``, with ``R_0 = rows`` and
    ``R_i = D . R_(i-1) + L' . D^(i-1)`` (``L'``: the rows ``lift``
    differentiated).  Row ``n`` of ``R_i`` is
    ``R_(i-1)[n]' + R_(i-1)[n - 1] + L'[n - i + 1]``; rows may hold zeros."""
    lift = [_derive_row(r.items()) for r in lift] if len(left) > 1 else ()
    for i, a in enumerate(left):
        if i:
            step = [_derive_row(r.items()) for r in rows]
            step.append({})
            for n, add in [*enumerate(rows, 1), *enumerate(lift, i - 1)]:
                out = step[n]
                get = out.get
                for k, v in add.items():
                    out[k] = get(k, 0) + v
            rows = step
        if a.num:
            items, f = a.num.items(), sign * (lden // a.den)
            for acc_n, r in zip(acc, rows):
                _add_products(acc_n, items, r.items(), f)


def compose_coefficients(a, b) -> list[XLaurent]:
    """The coefficients of ``A . B`` (``DiffOp.compose``) for those of nonzero ``A`` and ``B``."""
    da = math.lcm(*[v.den for v in a])
    rb, db = _packed_rows(b)
    acc: list[dict[int, int]] = [{} for _ in range(len(a) + len(b) - 1)]
    _d_power_sum(acc, a, da, rb, (), 1)
    return [_xl_of(r, da * db) for r in acc]


def commutator_coefficients(a, b) -> list[XLaurent]:
    """The coefficients of ``[A, B]`` (``DiffOp.commutator``) for those of nonzero
    ``A`` and ``B``; ``T_0 = 0`` is ``len(b) - 1`` empty rows, so that ``T_i`` has
    ``len(b) + i - 1``."""
    (ra, da), (rb, db) = _packed_rows(a), _packed_rows(b)
    acc: list[dict[int, int]] = [{} for _ in range(len(a) + len(b) - 2)]
    _d_power_sum(acc, a, da, [{}] * (len(b) - 1), rb, 1)
    _d_power_sum(acc, b, db, [{}] * (len(a) - 1), ra, -1)
    return [_xl_of(r, da * db) for r in acc]


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
    One window rule: the stored terms run from ``lowest`` to ``end``, and a
    truncated series stores exactly its window, so ``end == upper`` (with
    ``lowest <= upper``); one whose known terms all vanish has ``lowest ==
    upper`` and stores none, however it was built.  An exact series stores
    its first to its last nonzero term, so it too has one form.  Arithmetic computes the
    terms below the smaller of its inputs' windows and its inputs' ``end``s,
    so the reported window never overstates what is actually known.
    """

    __slots__ = ("lowest", "coeffs", "upper")

    def __init__(self, lowest: int, coeffs: list[XLaurent], upper=INF):
        # trim known-zero leading terms; they stay implicitly known
        i = 0
        n = len(coeffs)
        while i < n and coeffs[i].is_zero():
            i += 1
        if i == n or lowest + i >= upper:
            # every known term vanishes: no stored terms, zero below the window
            lowest, coeffs = (0 if upper == INF else upper), []
        elif upper == INF:
            # an exact series stores no trailing zeros either: one form however built
            while coeffs[n - 1].is_zero():
                n -= 1
            lowest, coeffs = lowest + i, list(coeffs[i:n])
        else:
            # store exactly the window: nothing at or beyond upper, zeros up to it
            lowest, want = lowest + i, upper - lowest - i
            coeffs = list(coeffs[i:i + want]) + [_XL_ZERO] * (want - (n - i))
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

    @property
    def end(self) -> int:
        """One past the last stored exponent; ``upper`` for a truncated series."""
        return self.lowest + len(self.coeffs)

    def known_len(self) -> float:
        return self.upper - self.lowest

    def coefficient(self, zexp: int) -> XLaurent:
        if zexp >= self.upper:
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
        return ZSeries(self.lowest, self.coeffs, min(self.upper, upper))

    # -- arithmetic --------------------------------------------------------

    def _add(self, other: "ZSeries", sign: int = 1) -> "ZSeries":
        """``self + sign * other`` for ``sign`` in (1, -1)."""
        if not isinstance(other, ZSeries):
            return NotImplemented
        upper = min(self.upper, other.upper)
        lo = min(self.lowest, other.lowest)
        coeffs = [self.coefficient(e)._add(other.coefficient(e), sign)
                  for e in range(lo, min(upper, max(self.end, other.end)))]
        return ZSeries(lo, coeffs, upper)

    __add__ = _add

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        return self._add(other, -1)

    def __neg__(self) -> "ZSeries":
        return ZSeries(self.lowest, [-v for v in self.coeffs], self.upper)

    def __mul__(self, other) -> "ZSeries":
        if isinstance(other, ZSeries):
            return series_sum(products=((self, other),))
        if isinstance(other, (int, Fraction, EpsPoly, XLaurent)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, value) -> "ZSeries":
        if isinstance(value, EpsPoly):
            value = XLaurent({0: value})     # once, not once per coefficient
        return ZSeries(self.lowest, [v * value for v in self.coeffs], self.upper)

    def derive(self) -> "ZSeries":
        """d/dx, applied coefficient-wise (z is a spectral parameter)."""
        return ZSeries(self.lowest, [v.derive() for v in self.coeffs], self.upper)

    def substitute_eps(self, value) -> "ZSeries":
        return ZSeries(self.lowest, [v.substitute_eps(value) for v in self.coeffs], self.upper)

    def __eq__(self, other) -> bool:
        """Equality of all coefficients on the intersection of known windows."""
        if not isinstance(other, ZSeries):
            return False
        hi = min(self.upper, other.upper, max(self.end, other.end))
        return all(self.coefficient(e) == other.coefficient(e)
                   for e in range(min(self.lowest, other.lowest), hi))

    def __repr__(self):
        inside = ", ".join(f"z^{self.lowest + i}: {v}" for i, v in enumerate(self.coeffs)
                           if not v.is_zero())
        tail = f"O(z^{self.upper})" if self.upper == self.end else "exact"
        return f"ZSeries({inside or '0'}; {tail})"


def series_sum(plain=(), derived=(), products=()) -> ZSeries:
    """``sum s + sum d' + sum a * b`` over the series ``plain``, the x-derivatives
    of the series ``derived`` and the ``(a, b)`` pairs ``products``.

    The result equals the fold ``s1 + ... + d1.derive() + ... + a1 * b1 + ...``,
    window and stored terms alike.  Each z-coefficient sums its terms in one
    int dict (``_packed_sum``; a derivative by ``_derive_row``) and is
    reduced once; no intermediate series is built.
    """
    spans = [(s.lowest, s.end, s.upper) for s in (*plain, *derived)]
    spans += [(a.lowest + b.lowest, a.end + b.end - 1,
               min(a.upper + b.lowest, b.upper + a.lowest)) for a, b in products]
    upper = min([t[2] for t in spans], default=INF)
    lo = min([t[0] for t in spans], default=0)
    n = max(0, min(upper, max([t[1] for t in spans], default=0)) - lo)
    # the ``_packed_sum`` terms of each output coefficient
    rows: list[list] = [[] for _ in range(n)]
    for s, dx in [(s, False) for s in plain] + [(s, True) for s in derived]:
        off = s.lowest - lo
        for i, c in enumerate(s.coeffs[:max(0, n - off)], off):
            if c.num:
                items = c.num.items()
                rows[i].append((c.den, 1, _derive_row(items).items() if dx else items, None))
    for a, b in products:
        off = a.lowest + b.lowest - lo
        bnz = [(j, c.den, c.num.items())
               for j, c in enumerate(b.coeffs[:max(0, n - off)]) if c.num]
        for i, c in enumerate(a.coeffs[:max(0, n - off)], off):
            if c.num:
                items = c.num.items()
                for j, d, bitems in bnz:
                    if i + j >= n:
                        break
                    rows[i + j].append((c.den * d, 1, items, bitems))
    return ZSeries(lo, [_packed_sum(terms) for terms in rows], upper)


def series_divide(num: ZSeries, den: ZSeries, nterms: int | None = None) -> ZSeries:
    """Series division; the leading z-coefficient of ``den`` must be one term.

    The result ``s`` satisfies ``s * den == num`` through the returned window.
    """
    lead = den.first_nonzero()
    if lead is None:
        raise ZeroDivisionError("division by zero series")
    ld, d0 = lead
    if not d0.is_monomial():
        raise ExactError(f"leading z-coefficient is not one term: {d0}")
    lo = num.lowest - ld
    win = min(num.known_len(), den.known_len())
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
    win = s.end  # the window of a truncated series; the stored terms of an exact one
    half = Fraction(1, 2)
    out: list[XLaurent] = [_XL_ONE]
    for k in range(1, win):
        # s_k - sum_{0<j<k} out_j out_{k-j}: each pair j < k - j twice, the square once
        terms = [(1, s.coefficient(k), _XL_ONE)]
        terms += [(-2, out[j], out[k - j]) for j in range(1, (k + 1) // 2)]
        if k % 2 == 0:
            terms.append((-1, out[k // 2], out[k // 2]))
        out.append(sum_of_products(terms).scale(half))
    return ZSeries(0, out, win)


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
                v = ep(v)
                if not v.is_zero():
                    c[(ze, we)] = v
        self.c = c

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.c == other.c

    def substitute_eps(self, value) -> "BivarPoly":
        return BivarPoly({k: v.substitute_eps(value) for k, v in self.c.items()})

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
                factors.append(f"({v})" if len(v.num) > 1 else str(v))
            if we:
                factors.append("w" if we == 1 else f"w^{we}")
            if ze:
                factors.append("z" if ze == 1 else f"z^{ze}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"BivarPoly({self})"
