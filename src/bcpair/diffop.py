"""Ordinary differential operators over a differential coefficient ring.

An operator is a finite sum ``sum_k c_k D^k`` with ``D = d/dx``.  Composition
uses the Leibniz rule ``D^n . a = sum_k binom(n, k) a^(k) D^(n-k)``; the same
code runs over any coefficient type providing ``+``, ``-``, ``*``, unary
minus, ``derive()`` and ``is_zero()`` (XLaurent, ZSeries), given a ``RingSpec``
that names its 0, 1 and how it sums a list of products.
"""

from __future__ import annotations

import math

from .exact import BivarPoly, XLaurent, ZSeries, sum_of_products

NEG_INF = float("-inf")

binom = math.comb


def _fold_products(terms):
    """``sum c * a * b`` over a non-empty list of ``(int c, a, b)`` triples, one term at a time."""
    total = None
    for c, a, b in terms:
        term = a * b
        if c != 1:
            term = term * c
        total = term if total is None else total + term
    return total


class RingSpec:
    """Adapter naming a coefficient ring: its 0 and 1, and ``sum_of_products``,
    which sums a non-empty list of ``(int c, a, b)`` triples ``c * a * b``."""

    __slots__ = ("name", "zero", "one", "sum_of_products")

    def __init__(self, name: str, zero, one, sum_of_products):
        self.name = name
        self.zero = zero
        self.one = one
        self.sum_of_products = sum_of_products

    def __eq__(self, other):
        return isinstance(other, RingSpec) and self.name == other.name

    def __repr__(self):
        return f"RingSpec({self.name})"


XLAURENT_RING = RingSpec("xlaurent", XLaurent.zero(), XLaurent.one(), sum_of_products)
ZSERIES_RING = RingSpec("zseries", ZSeries.zero(), ZSeries.one(), _fold_products)


class CoefficientRingMismatch(TypeError):
    pass


class DiffOp:
    """Immutable differential operator; ``coeffs[k]`` multiplies ``D^k``.

    The zero operator has an empty coefficient tuple and order -inf, so order
    arithmetic (``ord(A.B) = ord A + ord B``) needs no special cases.
    """

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs, ring: RingSpec):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.ring = ring

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingSpec = XLAURENT_RING) -> "DiffOp":
        return cls((), ring)

    @classmethod
    def identity(cls, ring: RingSpec = XLAURENT_RING) -> "DiffOp":
        return cls((ring.one,), ring)

    @classmethod
    def d(cls, k: int = 1, ring: RingSpec = XLAURENT_RING) -> "DiffOp":
        """The pure derivative ``D^k``."""
        return cls([ring.zero] * k + [ring.one], ring)

    @classmethod
    def from_coeff(cls, c, ring: RingSpec = XLAURENT_RING) -> "DiffOp":
        """Multiplication operator by a ring element."""
        return cls((c,), ring)

    @classmethod
    def monomial(cls, c, k: int, ring: RingSpec = XLAURENT_RING) -> "DiffOp":
        return cls([ring.zero] * k + [c], ring)

    # -- structure ---------------------------------------------------------

    @property
    def order(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero

    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("zero operator has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiffOp) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def _check(self, other: "DiffOp"):
        if self.ring != other.ring:
            raise CoefficientRingMismatch(
                f"mixed coefficient rings: {self.ring.name} vs {other.ring.name}")

    # -- linear operations --------------------------------------------------

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp([self.coefficient(k) + other.coefficient(k) for k in range(n)],
                      self.ring)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp([self.coefficient(k) - other.coefficient(k) for k in range(n)],
                      self.ring)

    def __neg__(self) -> "DiffOp":
        return DiffOp([-c for c in self.coeffs], self.ring)

    def scale(self, value) -> "DiffOp":
        return DiffOp([c * value for c in self.coeffs], self.ring)

    # -- ring operations ----------------------------------------------------

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product self . other (apply ``other`` first).

        The Leibniz terms ``binom(i, k) a_i b_j^(k)`` are listed one output
        coefficient ``D^(i+j-k)`` at a time, and each list is summed once by the
        ring's ``sum_of_products`` (over XLaurent: one common denominator, one
        reduction per coefficient).
        """
        self._check(other)
        if self.is_zero() or other.is_zero():
            return DiffOp.zero(self.ring)
        na, nb = len(self.coeffs), len(other.coeffs)
        # derivative table for other's coefficients, up to the max Leibniz depth
        max_d = na - 1
        derivs: list[list] = []
        for b in other.coeffs:
            row = [b]
            for _ in range(max_d):
                row.append(row[-1].derive())
            derivs.append(row)
        ring = self.ring
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
            out.append(ring.sum_of_products(terms) if terms else ring.zero)
        return DiffOp(out, ring)

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other)

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
        return DiffOp([c.substitute_eps(value) for c in self.coeffs], self.ring)

    def support(self):
        """Sorted (k, x_exp, eps_exp) triples of nonzero monomials (XLaurent ring)."""
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
        return "DiffOp(" + " + ".join(parts) + f"; ring={self.ring.name})"


class NonCommutingPair(ValueError):
    pass


def _powers(op: DiffOp, n: int) -> list[DiffOp]:
    """[op^0, op^1, ..., op^n], at least up to op^1."""
    out = [DiffOp.identity(op.ring), op]
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
    total = DiffOp.zero(a.ring)
    for mono, (_, coeff) in zip(_pair_monomials(a, b, [ij for ij, _ in terms]), terms):
        total = total + mono.scale(coeff)
    return total


class ReductionError(ArithmeticError):
    pass


def right_reduce(a: DiffOp, t: DiffOp) -> tuple[DiffOp, DiffOp]:
    """Division a = quotient . t + remainder with ord(remainder) < ord(t).

    ``t`` must be monic; the loop then needs no coefficient inversion at all,
    so it runs over any coefficient ring.
    """
    a._check(t)
    if t.is_zero() or t.order < 0:
        raise ReductionError("cannot reduce by the zero operator")
    if not t.is_monic():
        raise ReductionError("right_reduce requires a monic divisor")
    m = t.order
    quotient = DiffOp.zero(a.ring)
    rem = a
    while not rem.is_zero() and rem.order >= m:
        k = rem.order - m
        lead = rem.leading_coefficient()
        mono = DiffOp.monomial(lead, k, a.ring)
        quotient = quotient + mono
        rem = rem - mono.compose(t)
    return quotient, rem
