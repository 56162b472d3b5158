"""Ordinary differential operators with Laurent-polynomial coefficients.

An operator is a finite sum ``sum_k c_k D^k`` with ``D = d/dx`` and every
``c_k`` an ``XLaurent`` (a Laurent polynomial in x over Q[eps]): the
coefficients of ``L1``, ``L2``, the limit operator and every commutant member.
A product ``A . B = sum_i a_i D^i . B`` and a commutator are sums over the
recurrence ``D^i . B = D . (D^(i-1) . B)``, run in ``exact`` on integer
numerators over one denominator with no derivative table and no binomials,
one reduction per output coefficient.  Series in z never become operator
coefficients: they enter only through the rank-3 reduction frame, which
``curve.reduction_frame`` builds by its own recurrence.

A relation ``Q(a, b)`` of a commuting pair is read by ``top_term`` on the
columns that ``relation_columns`` gives, the same for the relation check
(``_leading_term``) and the relation search (``find_bc_relation``): only the
``x^0`` parts of the monomials' ``D^k`` coefficients when the centralizer
lemma applies, each paired off directly by the Leibniz rule with no
``D^i . B`` recurrence (``exact.compose_x0_coefficients``).  The pair must
commute (``eval_poly_at_pair`` checks it; ``find_bc_relation`` and ``verify
bc`` check it once themselves).

``XLAURENT_RING`` names that one coefficient ring.  It remains importable, and
``DiffOp(coeffs, ring)``, ``DiffOp.identity(ring)`` and ``DiffOp.d(k, ring)``
accept it as an optional last argument, only because the benchmark workloads
(``perfbench/workloads.py``) still pass it; any other value raises
``TypeError``.
"""

from __future__ import annotations

from collections.abc import Callable

from .exact import (BivarPoly, XLaurent, commutator_coefficients, compose_coefficients,
                    compose_x0_coefficients, sum_of_products)

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


def _first_nonzero(op: DiffOp) -> int | None:
    """The lowest k of a nonzero D^k coefficient of ``op``; None for the zero operator."""
    return next((k for k, c in enumerate(op.coeffs) if not c.is_zero()), None)


def _commutation_failure(a: DiffOp, b: DiffOp) -> str | None:
    """The first nonzero coefficient W_k of [a, b], named; None when the pair commutes."""
    k = _first_nonzero(a.commutator(b))
    return None if k is None else f"operators do not commute: W_{k} != 0"


def _require_commuting(a: DiffOp, b: DiffOp, error: Callable[[str], Exception]) -> None:
    """Raise ``error(_commutation_failure(a, b))`` unless the pair commutes."""
    if (why := _commutation_failure(a, b)) is not None:
        raise error(why)


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
    """Evaluate Q(z, w) at z -> a, w -> b; a non-commuting pair raises
    ``NonCommutingPair`` naming its first nonzero commutator coefficient.  A
    zero ``Q(a, b)`` is decided by ``_leading_term``; the full operator is
    built only when it is not zero."""
    _require_commuting(a, b, NonCommutingPair)
    if _leading_term(q, a, b) is None:
        return DiffOp.zero()
    monos = _pair_monomials(a, b, list(q.c))
    return combination([(mono, XLaurent({0: v})) for mono, v in zip(monos, q.c.values())])


def _relation_failure(name: str, lead: tuple[int, XLaurent] | None) -> str | None:
    """``<name> != 0`` named by its leading term ``lead = (r, c)`` as ``(c)*D^r``, an
    x-free ``c`` by its eps polynomial (``_leading_term``, ``top_term``); None for None."""
    if lead is None:
        return None
    r, c = lead
    return f"{name} != 0: leading term ({c.c[0] if set(c.c) == {0} else c})*D^{r}"


def _leading_term(q: BivarPoly, a: DiffOp, b: DiffOp) -> tuple[int, XLaurent] | None:
    """``(r, c)``: the order and leading coefficient of ``Q(a, b) != 0``, None when
    ``Q(a, b) = 0``: ``top_term`` on ``relation_columns``; the pair commutes."""
    return top_term(q.c, relation_columns(a, b, q.c))


def relation_columns(a: DiffOp, b: DiffOp, exponents) -> dict[tuple[int, int], list[XLaurent]]:
    """The ``D^n`` coefficients of ``a^i b^j`` for the ``(i, j)`` in ``exponents``, in that
    order, of a commuting pair; only their ``x^0`` parts, as x-free ``XLaurent``s, when ``a``
    or ``b`` is a ``g`` of the centralizer lemma (order >= 1, an x-free lead).

    Centralizer lemma: if ``[g, P] = 0`` for a ``g`` of order ``m >= 1`` whose
    leading coefficient ``g_m`` is x-free, the top coefficient of ``[g, P]`` is
    ``m g_m p_r'``, so P's leading coefficient ``p_r`` is x-free too.  A
    combination of the monomials commutes with ``a`` and ``b``, so its order and
    leading coefficient are those of its ``x^0`` parts (``top_term``).  Without
    the x-free lead this is wrong: at ``a = b = x D``, ``w`` has no ``x^0`` part
    but is ``x D``.

    ``a^i b^j`` is ``a^i . b^j`` when ``i, j > 0`` and a power the product of its
    halves; the factors are built in full, a monomial that is one is read off
    it, and each other takes one ``exact.compose_x0_coefficients`` run with its
    lower-order factor on the left, as that kernel's cost grows with the left
    factor's order: ``L2 . L2^2`` takes 0.42 ms and ``L2^2 . L2`` 0.74 ms at
    eps = 0, 1.5 and 2.8 ms at symbolic eps (unscaled, min of 9, 2 vCPUs).
    """
    if not any(op.order >= 1 and set(op.leading_coefficient().c) == {0} for op in (a, b)):
        return {ij: list(m.coeffs) for ij, m in zip(exponents, _pair_monomials(a, b, exponents))}
    splits = {(i, j): ((i, 0), (0, j)) if i and j else
              ((i - i // 2, j - j // 2), (i // 2, j // 2)) for i, j in exponents}
    keys = sorted({f for pair in splits.values() for f in pair})
    factors = dict(zip(keys, _pair_monomials(a, b, keys)))
    columns = {}
    for ij, pair in splits.items():
        if ij in factors:
            columns[ij] = [c.x0_part() for c in factors[ij].coeffs]
        else:
            left, right = sorted((factors[f] for f in pair), key=lambda op: op.order)
            columns[ij] = compose_x0_coefficients(left.coeffs, right.coeffs)
    return {ij: columns[ij] for ij in exponents}


def top_term(vec, columns) -> tuple[int, XLaurent] | None:
    """``(r, c)`` for the top nonzero ``c = sum_k vec[k] * columns[k][r]`` (``EpsPoly``
    weights ``vec[k]``, ``D^n`` coefficients ``columns[k]``), None when all are zero."""
    terms = [(XLaurent({0: v}), columns[k]) for k, v in vec.items()]
    for r in range(max((len(col) for _, col in terms), default=0) - 1, -1, -1):
        c = sum_of_products([(1, v, col[r]) for v, col in terms if r < len(col)])
        if not c.is_zero():
            return r, c
    return None


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
