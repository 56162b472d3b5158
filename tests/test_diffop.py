"""Operator ring: composition, commutators, powers, application, reduction."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from bcpair import (BivarPoly, DiffOp, ExactError, NonCommutingPair, ReductionError,
                    XLAURENT_RING, XLaurent, ZSeries, ep, eval_poly_at_pair,
                    make_l1, make_l2, make_limit_op, right_reduce, xl)
from bcpair.diffop import _pair_monomials
from conftest import random_xlaurent, rng

F = Fraction
D = DiffOp.d(1)
I = DiffOp.identity()


def coeff_op(c: XLaurent) -> DiffOp:
    return DiffOp.monomial(c, 0)


def random_op(r, max_order=3) -> DiffOp:
    return DiffOp([random_xlaurent(r, xspan=2, terms=2)
                   for _ in range(r.randint(1, max_order + 1))])


def test_compose_first_order_leibniz():
    a = xl({2: 1, -1: F(1, 3)})
    lhs = D.compose(coeff_op(a))
    assert lhs == coeff_op(a).compose(D) + coeff_op(a.derive())


def test_compose_d2_x2():
    # D^2 . x^2 = x^2 D^2 + 4x D + 2, checked against applications to x^k
    lhs = DiffOp.d(2).compose(coeff_op(xl({2: 1})))
    rhs = DiffOp([xl({0: 2}), xl({1: 4}), xl({2: 1})])
    assert lhs == rhs
    for k in range(5):
        f = xl({k: 1})
        assert lhs.apply(f) == DiffOp.d(2).apply(coeff_op(xl({2: 1})).apply(f))


def test_compose_identity():
    r = rng(10)
    for _ in range(50):
        a = random_op(r)
        assert a.compose(I) == a
        assert I.compose(a) == a


def test_order_and_leading_coefficient_multiplicative():
    r = rng(11)
    for _ in range(200):
        a, b = random_op(r), random_op(r)
        if a.is_zero() or b.is_zero():
            continue
        prod = a.compose(b)
        assert prod.order == a.order + b.order
        assert prod.leading_coefficient() == \
            a.leading_coefficient() * b.leading_coefficient()


def fold_compose(a: DiffOp, b: DiffOp) -> DiffOp:
    """``a . b`` by the Leibniz rule, one XLaurent ``*`` and ``+`` per term."""
    out = [XLaurent.zero()] * max(0, len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            deriv = bj
            for k in range(i + 1):
                out[i + j - k] = out[i + j - k] + ai * deriv * math.comb(i, k)
                deriv = deriv.derive()
    return DiffOp(out)


def canonical(op: DiffOp) -> list:
    """Each coefficient's canonical form: its denominator and numerator map."""
    return [(c.den, c.num) for c in op.coeffs]


def edge_ops(r) -> list[DiffOp]:
    """Zero, identity, order 0, pure D^k, a monomial, then seeded operators;
    x-exponents reach below zero."""
    return [DiffOp.zero(), I, coeff_op(xl({-3: {0: 2, 1: F(1, 5)}, 2: F(-7, 3)})), D,
            DiffOp.d(4), DiffOp.monomial(xl({-2: F(3, 2), 1: {2: -1}}), 3)] + \
        [random_op(r, 4) for _ in range(8)]


def test_compose_kernel_matches_xlaurent_fold():
    # compose runs the D^i . B recurrence on packed integer rows
    r = rng(16)
    for _ in range(60):
        a, b = random_op(r), random_op(r)
        assert a.compose(b) == fold_compose(a, b)
    l1, l2 = make_l1(), make_l2()
    assert l1.compose(l2) == fold_compose(l1, l2)


def test_compose_builds_no_intermediate_xlaurent(monkeypatch):
    l1, l2 = make_l1(), make_l2()
    calls = Counter()

    def counted(name):
        original = getattr(XLaurent, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("__add__", "__sub__", "__mul__"):
        monkeypatch.setattr(XLaurent, name, counted(name))
    l1.compose(l2)
    l1.commutator(l2)
    assert not calls


def test_ring_argument_accepts_only_xlaurent():
    c = [xl({1: 1}), XLaurent.one()]
    assert DiffOp(c, XLAURENT_RING) == DiffOp(c)
    assert DiffOp.identity(XLAURENT_RING) == I
    assert DiffOp.d(2, XLAURENT_RING) == D.compose(D)
    for ring in ("zseries", None, ZSeries.one(), 0):
        with pytest.raises(TypeError, match="XLAURENT_RING"):
            DiffOp(c, ring)
        with pytest.raises(TypeError, match="XLAURENT_RING"):
            DiffOp.identity(ring)
        with pytest.raises(TypeError, match="XLAURENT_RING"):
            DiffOp.d(1, ring)


def test_commutator_weyl():
    x_op = coeff_op(XLaurent.var())
    assert D.commutator(x_op) == I


def test_commutator_matches_the_difference_of_products():
    # [a, b] runs the T_i = D^i . b - b . D^i recurrence on packed rows; the
    # reference folds both products term by term
    r = rng(20)
    ops = [DiffOp.zero(), I, coeff_op(random_xlaurent(r))] + \
        [random_op(r, 4) for _ in range(60)]
    for a in ops:
        for b in ops[:3] + [random_op(r, 4) for _ in range(3)]:
            assert a.commutator(b) == fold_compose(a, b) - fold_compose(b, a)
            assert b.commutator(a) == fold_compose(b, a) - fold_compose(a, b)
    # the monomials g D^j that solve_commuting commutes with its operator
    g_op = make_limit_op()
    for j in range(13):
        m = DiffOp.monomial(random_xlaurent(r), j)
        assert g_op.commutator(m) == fold_compose(g_op, m) - fold_compose(m, g_op)
    l1, l2 = make_l1(), make_l2()
    for eps in (None, F(7, 3)):
        a, b = (l1, l2) if eps is None else (l1.substitute_eps(eps), l2.substitute_eps(eps))
        assert a.commutator(b) == fold_compose(a, b) - fold_compose(b, a)
        assert a.commutator(b + D) == fold_compose(a, b + D) - fold_compose(b + D, a)
        assert not a.commutator(b + D).is_zero()


def test_products_match_the_leibniz_fold_on_edge_operands():
    # every pair of zero, identity, order-0, D^k and seeded operators, compared
    # by denominator and numerator map of each coefficient
    ops = edge_ops(rng(21))
    for a in ops:
        for b in ops:
            ab, ba = fold_compose(a, b), fold_compose(b, a)
            assert canonical(a.compose(b)) == canonical(ab)
            assert canonical(a.commutator(b)) == canonical(ab - ba)


def test_products_at_the_packed_eps_cap():
    # a stored eps exponent stays below 2**19: products of coefficients with
    # eps^(2**18 - 1) stay below it, and a result that reaches it raises
    top = 2**18 - 1
    a = DiffOp([xl({-1: {top: 1}}), xl({2: F(1, 3)}), xl({0: {top: F(-5, 2)}})])
    b = DiffOp([xl({1: {0: 2, top: 1}}), xl({-2: {top: F(-1, 2)}})])
    for x, y in ((a, b), (b, a), (a, a)):
        assert canonical(x.compose(y)) == canonical(fold_compose(x, y))
        assert canonical(x.commutator(y)) == \
            canonical(fold_compose(x, y) - fold_compose(y, x))
    # x + eps^(2**18) D and x + eps^(2**18) x^2 D: their product and their
    # commutator both hold an eps^(2**19) term
    over = DiffOp([xl({1: 1}), xl({0: {2**18: 1}})])
    other = DiffOp([xl({1: 1}), xl({2: {2**18: 1}})])
    for x, y in ((over, other), (other, over)):
        with pytest.raises(ExactError, match=r"eps\^524288 is beyond the packed-key cap"):
            x.compose(y)
        with pytest.raises(ExactError, match=r"eps\^524288 is beyond the packed-key cap"):
            x.commutator(y)
    with pytest.raises(ExactError, match=r"eps\^524288 is beyond the packed-key cap"):
        DiffOp([xl({1: 1}), xl({0: {2**19: 1}})])


def test_pair_monomials_match_left_to_right_products():
    # a commuting pair of orders 3 and 6; each monomial a^i b^j equals the plain
    # product a . a ... b . b folded from the left, whichever factor is lower
    g = make_limit_op()
    h = fold_compose(g, g) + g.scale(F(2, 3))
    exponents = [(2, 1), (0, 3), (1, 2), (3, 0), (0, 0), (1, 1), (0, 1), (1, 0)]
    for a, b in ((g, h), (h, g)):
        plain = []
        for i, j in exponents:
            out = I
            for factor in [a] * i + [b] * j:
                out = out.compose(factor)
            plain.append(canonical(out))
        assert [canonical(m) for m in _pair_monomials(a, b, exponents)] == plain


def test_commutator_antisymmetry_and_self():
    r = rng(12)
    for _ in range(300):
        a, b = random_op(r, 2), random_op(r, 2)
        assert a.commutator(a).is_zero()
        assert a.commutator(b) == -b.commutator(a)


def test_jacobi_identity():
    r = rng(13)
    for _ in range(60):
        a, b, c = (random_op(r, 2) for _ in range(3))
        total = (a.commutator(b.commutator(c))
                 + b.commutator(c.commutator(a))
                 + c.commutator(a.commutator(b)))
        assert total.is_zero()


def test_op_power_basics():
    r = rng(14)
    a = random_op(r, 2)
    assert a.op_power(0) == I
    assert a.op_power(1) == a
    d3 = D.op_power(3)
    assert d3.order == 3 and d3.is_monic()
    assert a.op_power(3) == a.compose(a).compose(a)


def test_apply_basics():
    assert D.apply(xl({3: 1})) == xl({2: 3})
    euler = coeff_op(XLaurent.var()).compose(D)
    for n in (-3, -1, 1, 2, 5):
        assert euler.apply(xl({n: 1})) == xl({n: n})


def test_apply_homomorphism_seeded():
    r = rng(15)
    for _ in range(200):
        a, b = random_op(r, 2), random_op(r, 2)
        f = random_xlaurent(r, xspan=3, terms=3)
        assert a.compose(b).apply(f) == a.apply(b.apply(f))


def test_apply_zseries():
    s = ZSeries(0, [xl({1: 1}), xl({2: 1})], 2)
    out = D.apply(s)
    assert out.coefficient(0) == xl({0: 1})
    assert out.coefficient(1) == xl({1: 2})


def test_eval_poly_trivial():
    r = rng(16)
    a = random_op(r, 2)
    q = BivarPoly({(1, 0): ep(1)})
    assert eval_poly_at_pair(q, a, a) == a


def test_eval_poly_d_pair():
    q = BivarPoly({(0, 1): ep(1), (2, 0): ep(-1)})  # w - z^2
    assert eval_poly_at_pair(q, D, DiffOp.d(2)).is_zero()


def test_eval_poly_monomial_order_independent():
    q = BivarPoly({(2, 1): ep(2), (0, 2): ep(-1), (1, 0): ep(3), (0, 0): ep(5)})
    a, b = DiffOp.d(2), DiffOp.d(3)
    total = DiffOp.zero()
    for ze, we in sorted(q.c, reverse=True):
        total = total + a.op_power(ze).compose(b.op_power(we)).scale(q.c[(ze, we)])
    assert eval_poly_at_pair(q, a, b) == total


def test_eval_poly_rejects_noncommuting():
    x_op = coeff_op(XLaurent.var())
    with pytest.raises(NonCommutingPair, match="W_0"):
        eval_poly_at_pair(BivarPoly({(1, 1): ep(1)}), D, x_op)


def test_right_reduce_by_self():
    r = rng(17)
    t = DiffOp([random_xlaurent(r), random_xlaurent(r), random_xlaurent(r),
                XLaurent.one()])
    q, rem = right_reduce(t, t)
    assert q == I and rem.is_zero()


def test_right_reduce_one_step():
    r = rng(18)
    c0, c1, c2 = (random_xlaurent(r) for _ in range(3))
    t = DiffOp([-c0, -c1, -c2, XLaurent.one()])
    q, rem = right_reduce(DiffOp.d(3), t)
    assert q == I
    assert rem == DiffOp([c0, c1, c2])


def test_right_reduce_round_trip_seeded():
    r = rng(19)
    for _ in range(200):
        a = random_op(r, 5)
        t = DiffOp([random_xlaurent(r, 2, 2) for _ in range(3)] + [XLaurent.one()])
        q, rem = right_reduce(a, t)
        assert q.compose(t) + rem == a
        assert rem.is_zero() or rem.order < t.order


def test_right_reduce_requires_monic():
    t = DiffOp([XLaurent.one(), xl({0: 2})])
    with pytest.raises(ReductionError):
        right_reduce(DiffOp.d(2), t)


def test_zero_operator_order_sentinel():
    z = DiffOp.zero()
    assert z.order == float("-inf")
    assert z.compose(D).is_zero()
    assert (z.order + D.order) == float("-inf")


def test_substitute_eps_on_operator():
    a = DiffOp([xl({0: {2: F(1, 3)}}), xl({1: {0: 1, 4: 2}})])
    at2 = a.substitute_eps(2)
    assert at2 == DiffOp([xl({0: F(4, 3)}), xl({1: 33})])
    assert a.substitute_eps(0) == DiffOp([XLaurent.zero(), xl({1: 1})])
