"""Ordinary differential operators with Laurent-polynomial coefficients.

An operator is a finite sum ``sum_k c_k D^k`` with ``D = d/dx`` and every
``c_k`` an ``XLaurent`` (a Laurent polynomial in x over Q[eps]): the
coefficients of ``L1``, ``L2``, the limit operator and every commutant member.
A product ``A . B = sum_i a_i D^i . B`` and a commutator are sums over the
recurrence ``D^i . B = D . (D^(i-1) . B)``, run in ``exact`` on integer
numerators over one denominator with no derivative table and no binomials,
one reduction per output coefficient.  Series in z never become operator
coefficients: they enter only through the rank-3 reduction frame, which
``pipeline.reduction_frame`` builds by its own recurrence.

``XLAURENT_RING`` names that one coefficient ring.  It remains importable, and
``DiffOp(coeffs, ring)``, ``DiffOp.identity(ring)`` and ``DiffOp.d(k, ring)``
accept it as an optional last argument, only because the benchmark workloads
(``perfbench/workloads.py``) still pass it; any other value raises
``TypeError``.
"""

from __future__ import annotations

from collections.abc import Callable

from .exact import (BivarPoly, XLaurent, commutator_coefficients, compose_coefficients,
                    sum_of_products)

NEG_INF = float("-inf")

XLAURENT_RING = "xlaurent"

_ZERO = XLaurent.zero()
_ONE = XLaurent.one()


class DiffOp:
    """Immutable differential operator; ``coeffs[k]`` multiplies ``D^k``.

    The zero operator has an empty coefficient tuple and order -inf, so order
    arithmetic (``ord(A.B) = ord A + ord B``) needs no special cases.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, ring=XLAURENT_RING):
        if ring is not XLAURENT_RING:
            raise TypeError(f"operator coefficients are XLaurent; the optional ring "
                            f"argument must be XLAURENT_RING, got {ring!r}")
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "DiffOp":
        return cls(())

    @classmethod
    def identity(cls, ring=XLAURENT_RING) -> "DiffOp":
        return cls.d(0, ring)

    @classmethod
    def d(cls, k: int = 1, ring=XLAURENT_RING) -> "DiffOp":
        """The pure derivative ``D^k``."""
        return cls([_ZERO] * k + [_ONE], ring)

    @classmethod
    def monomial(cls, c: XLaurent, k: int) -> "DiffOp":
        """``c D^k``; ``k = 0`` is multiplication by ``c``."""
        return cls([_ZERO] * k + [c])

    # -- structure ---------------------------------------------------------

    @property
    def order(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO

    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("zero operator has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == _ONE

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffOp) and self.coeffs == other.coeffs

    # -- linear operations --------------------------------------------------

    def _add(self, other: "DiffOp", sign: int = 1) -> "DiffOp":
        """``self + sign * other`` for ``sign`` in (1, -1)."""
        if not isinstance(other, DiffOp):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp([self.coefficient(k)._add(other.coefficient(k), sign) for k in range(n)])

    __add__ = _add

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self._add(other, -1)

    def __neg__(self) -> "DiffOp":
        return DiffOp([-c for c in self.coeffs])

    def scale(self, value) -> "DiffOp":
        return DiffOp([c * value for c in self.coeffs])

    # -- ring operations ----------------------------------------------------

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product self . other (apply ``other`` first): ``sum_i a_i S_i``
        with ``S_i = D^i . B``, whose ``D^n`` coefficient is
        ``S_(i-1)[n]' + S_(i-1)[n-1]`` (``exact.compose_coefficients``)."""
        if not self.coeffs or not other.coeffs:
            return DiffOp.zero()
        return DiffOp(compose_coefficients(self.coeffs, other.coeffs))

    def op_power(self, k: int) -> "DiffOp":
        if k < 0:
            raise ValueError("operator powers need k >= 0")
        return _pair_monomials(self, self, [(k, 0)])[0]

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """``[A, B] = sum_i a_i T^B_i - sum_j b_j T^A_j`` with ``T^B_0 = 0`` and
        ``T^B_i = D^i . B - B . D^i = D . T^B_(i-1) + B' . D^(i-1)`` (``B'``: B's
        coefficients differentiated): the Leibniz terms of ``A . B`` and
        ``B . A`` that do not cancel, with neither product built
        (``exact.commutator_coefficients``)."""
        if self.order + other.order < 1:  # a zero operand, or two functions
            return DiffOp.zero()
        return DiffOp(commutator_coefficients(self.coeffs, other.coeffs))

    def apply(self, f):
        """Apply to a function-like value with ``derive()`` (XLaurent, ZSeries)."""
        if not self.coeffs:
            return f - f  # zero of f's ring
        total = None
        d = f
        for k, c in enumerate(self.coeffs):
            if k:
                d = d.derive()
            if c.is_zero():
                continue
            term = c * d
            total = term if total is None else total + term
        return total if total is not None else f - f

    def substitute_eps(self, value) -> "DiffOp":
        return DiffOp([c.substitute_eps(value) for c in self.coeffs])

    def __repr__(self):
        if not self.coeffs:
            return "DiffOp(0)"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            parts.append(f"({c})*D^{k}" if k else f"({c})")
        return "DiffOp(" + " + ".join(parts) + ")"


class NonCommutingPair(ValueError):
    pass


def _require_commuting(a: DiffOp, b: DiffOp, error: Callable[[str], Exception]) -> None:
    """Raise ``error(message)`` naming the first nonzero coefficient W_k of [a, b], if any."""
    comm = a.commutator(b)
    if not comm.is_zero():
        k = next(k for k, c in enumerate(comm.coeffs) if not c.is_zero())
        raise error(f"operators do not commute: W_{k} != 0")


def _pair_monomials(a: DiffOp, b: DiffOp, exponents) -> list[DiffOp]:
    """The products a^i . b^j for the ``(i, j)`` in ``exponents``, in that order.

    The pair must commute (the callers check): each monomial is built from a
    smaller one with the lower-order factor on the left, where ``compose``
    takes fewer steps (``a^2 b = a . (a b)`` when ``ord a <= ord b``).
    """
    memo = {(0, 0): DiffOp.identity(), (1, 0): a, (0, 1): b}
    for key in exponents:
        chain = []
        while key not in memo:
            i, j = key
            left_a = i and (not j or a.order <= b.order)
            chain.append((key, a if left_a else b))
            key = (i - 1, j) if left_a else (i, j - 1)
        for bigger, left in reversed(chain):
            memo[bigger] = left.compose(memo[key])
            key = bigger
    return [memo[key] for key in exponents]


def combination(pairs) -> DiffOp:
    """``sum c * op`` over ``(DiffOp op, XLaurent c)`` pairs: each coefficient is
    one ``sum_of_products``."""
    n = max((len(op.coeffs) for op, _ in pairs), default=0)
    return DiffOp([sum_of_products([(1, op.coeffs[k], c) for op, c in pairs
                                    if k < len(op.coeffs)])
                   for k in range(n)])


def eval_poly_at_pair(q: BivarPoly, a: DiffOp, b: DiffOp) -> DiffOp:
    """Evaluate Q(z, w) at z -> a, w -> b for a commuting pair.

    The pair must commute (checked), so the monomial evaluation order is
    irrelevant; a non-commuting pair is rejected with the first nonzero
    commutator coefficient named.  The result is one ``combination`` of the
    monomials.
    """
    _require_commuting(a, b, NonCommutingPair)
    terms = sorted(q.c.items())
    return combination([(mono, XLaurent({0: coeff})) for mono, (_, coeff)
                        in zip(_pair_monomials(a, b, [ij for ij, _ in terms]), terms)])


class ReductionError(ArithmeticError):
    pass


def right_reduce(a: DiffOp, t: DiffOp) -> tuple[DiffOp, DiffOp]:
    """Division a = quotient . t + remainder with ord(remainder) < ord(t).

    ``t`` must be monic; the loop then needs no coefficient inversion at all,
    which XLaurent, having no general inverse, could not supply.
    """
    if t.is_zero() or t.order < 0:
        raise ReductionError("cannot reduce by the zero operator")
    if not t.is_monic():
        raise ReductionError("right_reduce requires a monic divisor")
    m = t.order
    quotient = DiffOp.zero()
    rem = a
    while not rem.is_zero() and rem.order >= m:
        k = rem.order - m
        lead = rem.leading_coefficient()
        mono = DiffOp.monomial(lead, k)
        quotient = quotient + mono
        rem = rem - mono.compose(t)
    return quotient, rem
