"""Ordinary differential operators with Laurent-polynomial coefficients.

An operator is a finite sum ``sum_k c_k D^k`` with ``D = d/dx`` and every
``c_k`` an ``XLaurent`` (a Laurent polynomial in x over Q[eps]): the
coefficients of ``L1``, ``L2``, the limit operator and every commutant member.
Composition uses the Leibniz rule ``D^n . a = sum_k binom(n, k) a^(k) D^(n-k)``
and sums each output coefficient once with ``exact.sum_of_products``.  Series
in z never become operator coefficients: they enter only through the rank-3
reduction frame, which ``pipeline.reduction_frame`` builds by its own
recurrence.

``XLAURENT_RING`` names that one coefficient ring.  It remains importable, and
``DiffOp(coeffs, ring)``, ``DiffOp.identity(ring)`` and ``DiffOp.d(k, ring)``
accept it as an optional last argument, only because the benchmark workloads
(``perfbench/workloads.py``) still pass it; any other value raises
``TypeError``.
"""

from __future__ import annotations

import math

from .exact import BivarPoly, XLaurent, sum_of_products

NEG_INF = float("-inf")

binom = math.comb

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
        return cls((_ONE,), ring)

    @classmethod
    def d(cls, k: int = 1, ring=XLAURENT_RING) -> "DiffOp":
        """The pure derivative ``D^k``."""
        return cls([_ZERO] * k + [_ONE], ring)

    @classmethod
    def from_coeff(cls, c: XLaurent) -> "DiffOp":
        """Multiplication operator by a coefficient."""
        return cls((c,))

    @classmethod
    def monomial(cls, c: XLaurent, k: int) -> "DiffOp":
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

    def __add__(self, other: "DiffOp") -> "DiffOp":
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp([self.coefficient(k) + other.coefficient(k) for k in range(n)])

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp([self.coefficient(k) - other.coefficient(k) for k in range(n)])

    def __neg__(self) -> "DiffOp":
        return DiffOp([-c for c in self.coeffs])

    def scale(self, value) -> "DiffOp":
        return DiffOp([c * value for c in self.coeffs])

    # -- ring operations ----------------------------------------------------

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product self . other (apply ``other`` first).

        The Leibniz terms ``binom(i, k) a_i b_j^(k)`` are listed one output
        coefficient ``D^(i+j-k)`` at a time, and each list is summed once by
        ``exact.sum_of_products`` (one common denominator, one reduction per
        coefficient).
        """
        if self.is_zero() or other.is_zero():
            return DiffOp.zero()
        na, nb = len(self.coeffs), len(other.coeffs)
        # derivative table for other's coefficients, up to the max Leibniz depth
        max_d = na - 1
        derivs: list[list] = []
        for b in other.coeffs:
            row = [b]
            for _ in range(max_d):
                row.append(row[-1].derive())
            derivs.append(row)
        out = []
        for idx in range(na + nb - 1):
            # the terms of D^idx: i + j - k = idx with 0 <= k <= i and 0 <= j < nb
            terms = []
            for i in range(max(0, idx - nb + 1), na):
                a = self.coeffs[i]
                if a.is_zero():
                    continue
                for k in range(max(0, i - idx), min(i, nb - 1 - idx + i) + 1):
                    bk = derivs[idx - i + k][k]
                    if not bk.is_zero():
                        terms.append((binom(i, k), a, bk))
            out.append(sum_of_products(terms) if terms else _ZERO)
        return DiffOp(out)

    def op_power(self, k: int) -> "DiffOp":
        if k < 0:
            raise ValueError("operator powers need k >= 0")
        return _powers(self, k)[k]

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

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

    def support(self):
        """Sorted (k, x_exp, eps_exp) triples of nonzero monomials."""
        out = []
        for k, c in enumerate(self.coeffs):
            for xe, epoly in c.c.items():
                for ee in epoly.c:
                    out.append((k, xe, ee))
        return sorted(out)

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


def _powers(op: DiffOp, n: int) -> list[DiffOp]:
    """[op^0, op^1, ..., op^n], at least up to op^1."""
    out = [DiffOp.identity(), op]
    while len(out) <= n:
        # op . op^(k-1): the Leibniz depth is op's order, not the power's
        out.append(op.compose(out[-1]))
    return out


def _require_commuting(a: DiffOp, b: DiffOp, error: type[Exception]) -> None:
    """Raise ``error`` naming the first nonzero coefficient W_k of [a, b], if any."""
    comm = a.commutator(b)
    if not comm.is_zero():
        k = next(k for k, c in enumerate(comm.coeffs) if not c.is_zero())
        raise error(f"operators do not commute: W_{k} != 0")


def _pair_monomials(a: DiffOp, b: DiffOp, exponents) -> list[DiffOp]:
    """The products a^i . b^j for the ``(i, j)`` in ``exponents``, in that order."""
    pa = _powers(a, max((i for i, _ in exponents), default=0))
    pb = _powers(b, max((j for _, j in exponents), default=0))
    return [pb[j] if not i else pa[i] if not j else pa[i].compose(pb[j])
            for i, j in exponents]


def eval_poly_at_pair(q: BivarPoly, a: DiffOp, b: DiffOp) -> DiffOp:
    """Evaluate Q(z, w) at z -> a, w -> b for a commuting pair.

    The pair must commute (checked), so the monomial evaluation order is
    irrelevant; a non-commuting pair is rejected with the first nonzero
    commutator coefficient named.
    """
    _require_commuting(a, b, NonCommutingPair)
    terms = sorted(q.c.items())
    total = DiffOp.zero()
    for mono, (_, coeff) in zip(_pair_monomials(a, b, [ij for ij, _ in terms]), terms):
        total = total + mono.scale(coeff)
    return total


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
