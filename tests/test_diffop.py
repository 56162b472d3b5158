"""Operator ring: composition, commutators, powers, application, reduction."""

import functools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bcpair import (BivarPoly, DiffOp, EpsPoly, ExactError, NonCommutingPair, PipelineError,
                    ReductionError, XLAURENT_RING, XLaurent, ZSeries, bc_poly, ep,
                    eval_poly_at_pair, find_bc_relation, make_l1, make_l2, make_limit_op,
                    right_reduce, solve_commuting, xl)
from bcpair.diffop import (_leading_term, _pair_monomials, _relation_failure, combination,
                           relation_columns)
from bcpair.exact import compose_coefficients, compose_x0_coefficients
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


def x0_parts(coeffs) -> list[XLaurent]:
    """The x^0 parts of ``coeffs``, as x-free XLaurents."""
    return [XLaurent({0: c.c.get(0, 0)}) for c in coeffs]


def test_x0_products_are_the_x0_parts_of_the_full_ones():
    # both orders of every pair: seeded operators with zero coefficients, a
    # commuting pair of orders 3 and 6, seeded operators of order 1 to 3 whose
    # lower coefficients may be zero, and terms down to x^-5 (against D^4 too)
    g = make_limit_op()
    h = fold_compose(g, g) + g.scale(F(2, 3))
    r = rng(24)

    def seeded(xspan: int) -> DiffOp:
        return DiffOp([random_xlaurent(r, xspan=xspan, terms=2) for _ in range(r.randint(1, 3))]
                      + [xl({r.randint(-xspan, xspan): r.randint(1, 5)})])
    ops = [op for op in edge_ops(rng(25)) if not op.is_zero()] + [
        DiffOp([XLaurent.zero(), xl({1: 2, -1: F(1, 3)}), XLaurent.zero(), XLaurent.one()]),
        DiffOp([xl({-5: {0: 1, 1: F(2, 3)}, 4: -1}), XLaurent.zero(), xl({-4: 3, -1: {2: 1}})]),
        g, h] + [seeded(2) for _ in range(3)] + [seeded(5) for _ in range(3)]
    for a in ops:
        for b in ops:
            assert compose_x0_coefficients(a.coeffs, b.coeffs) == \
                x0_parts(compose_coefficients(a.coeffs, b.coeffs))


def test_grouped_x0_products_are_the_x0_parts_of_the_full_ones():
    # the kernel pairs the x-exponent groups of each row: seeded operators with
    # zero coefficients, a commuting pair of orders 3 and 6, and seeded operators
    # of order 1 to 3 whose lower coefficients may be zero, in every pairing
    g = make_limit_op()
    h = fold_compose(g, g) + g.scale(F(2, 3))
    r = rng(24)

    def seeded() -> DiffOp:
        return DiffOp([random_xlaurent(r, xspan=2, terms=2) for _ in range(r.randint(1, 3))]
                      + [xl({r.randint(-2, 2): r.randint(1, 5)})])
    ops = [op for op in edge_ops(rng(23)) if not op.is_zero()] + [
        DiffOp([XLaurent.zero(), xl({1: 2}), XLaurent.zero(), XLaurent.one()]), g, h] + [
        seeded() for _ in range(4)]
    for a in ops:
        for b in ops:
            assert compose_x0_coefficients(a.coeffs, b.coeffs) == \
                x0_parts(compose_coefficients(a.coeffs, b.coeffs))


@pytest.mark.parametrize("a, b, x0", [
    # t < 0: the x^(2+k) term of (x^3 + x^4 + x^5) D^3 meets (x^-2)^(k) =
    # (-2)(-3)...(-1-k) x^(-2-k) in D^(3-k), times C(3, k)
    ([{}, {}, {}, {3: 1, 4: 1, 5: 1}], [{-2: 1}], [-24, 18, -6, 0]),
    # 0 <= k <= t: x^-1 D^2 . x^2 = x D^2 + 4 D + 2 x^-1
    ([{}, {}, {-1: 1}], [{2: 1}], [0, 4, 0]),
    # 0 <= t < k: x D^3 . x = x^2 D^3 + 3 x D^2, as (x)'' = 0
    ([{}, {}, {}, {1: 1}], [{1: 1}], [0, 0, 0, 0]),
    # k > i: x^3 D . x^-1 = x^2 D - x, as k = e + t = 2 exceeds D's order
    ([{}, {3: 1}], [{-1: 1}], [0, 0]),
    # eps parts: A = (1 + eps) x^-1 + (eps - eps^2) x D, B = (1 + eps) x^-1 + eps x D;
    # in D^1, a_1 b_0 = eps - eps^3 and a_0 b_1 = eps + eps^2, and no other pair meets x^0
    ([{-1: {0: 1, 1: 1}}, {1: {1: 1, 2: -1}}], [{-1: {0: 1, 1: 1}}, {1: {1: 1}}],
     [0, {1: 2, 2: 1, 3: -1}, 0]),
], ids=["t<0", "t>=k", "t<k", "k>i", "eps"])
def test_x0_pairing_rule_by_hand(a, b, x0):
    assert compose_x0_coefficients([xl(c) for c in a], [xl(c) for c in b]) == \
        [xl({0: v}) for v in x0]


@pytest.mark.parametrize("eps", [F(0), F(-5, 3)])
def test_relation_columns_are_the_x0_parts_of_the_full_monomials(l1, l2, eps):
    # every monomial of weight <= 36 in (L1, L2): products, powers split in halves,
    # and the factors L1, L2, L1^2, L2^2 and 1 read off directly
    a, b = l1.substitute_eps(eps), l2.substitute_eps(eps)
    monomials = [(i, j) for i in range(5) for j in range(4) if 9 * i + 12 * j <= 36]
    columns = relation_columns(a, b, monomials)
    assert list(columns) == monomials
    assert columns == {ij: x0_parts(m.coeffs)
                       for ij, m in zip(monomials, _pair_monomials(a, b, monomials))}


def test_relation_columns_without_an_x_free_lead_are_the_full_coefficients():
    # x D and (x D)^2 commute, and neither has an x-free leading coefficient
    xd = DiffOp([XLaurent.zero(), XLaurent.var()])
    a, b = xd, xd.compose(xd)
    monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 1)]
    assert relation_columns(a, b, monomials) == \
        {ij: list(m.coeffs) for ij, m in zip(monomials, _pair_monomials(a, b, monomials))}


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


def test_bivarpoly_rejects_a_negative_exponent():
    # the monomial builder walks (i, j) down to (0, 0), which z^-1 never reaches
    with pytest.raises(ValueError, match=r"negative exponent in the monomial z\^-1\*w\^0"):
        eval_poly_at_pair(BivarPoly({(-1, 0): 1}), D, DiffOp.d(2))
    with pytest.raises(ValueError, match=r"z\^2\*w\^-3"):
        BivarPoly({(0, 1): 1, (2, -3): ep(F(1, 2))})


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


def test_eval_poly_needs_an_x_free_leading_coefficient():
    # x D commutes with itself, and w at (x D, x D) is x D, whose coefficients
    # have no x^0 part: the x^0 shortcut must not apply without an x-free lead
    xd = DiffOp([XLaurent.zero(), XLaurent.var()])
    assert all(v.is_zero() for v in compose_x0_coefficients(I.coeffs, xd.coeffs))
    assert eval_poly_at_pair(BivarPoly({(0, 1): 1}), xd, xd) == xd
    assert _relation_failure("Q", _leading_term(BivarPoly({(0, 1): 1}), xd, xd)) == \
        "Q != 0: leading term (1*x^1)*D^1"
    # an x-free leading coefficient is named by its eps polynomial on either path:
    # w - z^2 + 1 + eps is 1 + eps at (D, D^2) and at (x D, (x D)^2)
    q = BivarPoly({(0, 1): 1, (2, 0): -1, (0, 0): EpsPoly({0: 1, 1: 1})})
    for a, b in ((D, DiffOp.d(2)), (xd, xd.compose(xd))):
        assert _relation_failure("Q", _leading_term(q, a, b)) == \
            "Q != 0: leading term (1 + 1*eps)*D^0"


def test_noncommuting_pair_with_vanishing_x0_parts_never_passes():
    # D is monic, and w at (D, x D) has no x^0 part: only the commutation check
    # ([D, x D] = D) stands between this pair and a passing relation
    xd = DiffOp([XLaurent.zero(), XLaurent.var()])
    assert all(v.is_zero() for v in compose_x0_coefficients(I.coeffs, xd.coeffs))
    with pytest.raises(NonCommutingPair, match="W_1"):
        eval_poly_at_pair(BivarPoly({(0, 1): 1}), D, xd)
    with pytest.raises(PipelineError, match="W_1"):
        find_bc_relation(D, xd, 2)


def full_fold(q: BivarPoly, a: DiffOp, b: DiffOp) -> DiffOp:
    """Q(a, b) as every full monomial product, summed."""
    terms = sorted(q.c.items())
    monos = _pair_monomials(a, b, [ij for ij, _ in terms])
    return combination([(m, XLaurent({0: v})) for m, (_, v) in zip(monos, terms)])


@pytest.mark.parametrize("eps", [F(0), F(-5, 3)])
def test_eval_poly_agrees_with_the_full_fold_on_the_pair(l1, l2, eps):
    # seeded Q of weight <= 36 in (L1, L2) with 0 to 3 terms, half of them plus a
    # multiple of the relation: the x^0 decision equals the full product's, and a
    # failure names the full product's order and (x-free) leading coefficient
    a, b, rel = l1.substitute_eps(eps), l2.substitute_eps(eps), bc_poly().substitute_eps(eps)
    r = rng(26 + eps.denominator)
    monomials = [(i, j) for i in range(5) for j in range(4) if 9 * i + 12 * j <= 36]
    zeros = 0
    for k in range(8):
        q = BivarPoly({ij: r.randint(-3, 3) for ij in r.sample(monomials, k // 2)})
        if k % 2:
            c = ep(r.choice((-2, -1, 1, 3)))
            q = BivarPoly({ij: q.c.get(ij, EpsPoly.zero()) + c * rel.c.get(ij, EpsPoly.zero())
                           for ij in set(q.c) | set(rel.c)})
        full = full_fold(q, a, b)
        assert eval_poly_at_pair(q, a, b) == full
        named = None if full.is_zero() else (f"Q != 0: leading term "
                                             f"({full.leading_coefficient()})*D^{full.order}")
        assert _relation_failure("Q", _leading_term(q, a, b)) == named
        zeros += full.is_zero()
    assert 0 < zeros < 8


@functools.cache
def centralizer() -> tuple[DiffOp, ...]:
    """Commuting elements of the centralizer of the eps = 0 generator G: 1,
    L1(0) = G^3 - 1, L1(0)^2 and two samples of the order-12 commutant of G."""
    l10 = make_l1().substitute_eps(0)
    family = solve_commuting(make_limit_op(), 12)
    return I, l10, l10.compose(l10), family.sample([1, 0, -2, 3]), family.sample([0, 5, 1, -1])


_weights = st.lists(st.integers(-2, 2), min_size=5, max_size=5)
_low_monomials = st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])


@settings(deadline=None, max_examples=25)
@given(_weights, _weights, st.dictionaries(_low_monomials, st.integers(-3, 3), min_size=1, max_size=3),
       st.none() | st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_leading_term_agrees_with_the_full_fold_on_the_centralizer(wa, wb, q, tie):
    # a and b are constant combinations of commuting operators, so a nonzero Q(a, b)
    # has an x-free lead; with a tie (k, m), b = k a + m and Q is a multiple of
    # w - k z - m, so Q(a, b) = 0
    a, b = (combination([(op, XLaurent({0: w})) for op, w in zip(centralizer(), ws)])
            for ws in (wa, wb))
    if tie:
        (k, m), c0, c1 = tie, q.get((0, 0), 1), q.get((1, 0), 0)
        b = a.scale(k) + I.scale(m)
        q = {(0, 1): c0, (1, 1): c1, (0, 0): -m * c0, (1, 0): -k * c0 - m * c1,
             (2, 0): -k * c1}
    q = BivarPoly(q)
    full = full_fold(q, a, b)
    assert full.is_zero() or not tie
    assert _leading_term(q, a, b) == (None if full.is_zero() else
                                      (full.order, full.leading_coefficient()))


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
