"""The exact arithmetic layer: scalars, Laurent polynomials, fractions, series."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bcpair import (CurveElem, DiffOp, EpsPoly, ExactError, XLaurent, ZSeries, ep,
                    lambda_fn, series_sqrt, xl)
from bcpair.exact import series_divide, series_sum, sum_of_products
from conftest import (assert_same_series, random_epspoly, random_xlaurent,
                      reference_product, rng)

F = Fraction


def mono(xexp: int, zexp: int, coeff=1) -> ZSeries:
    """coeff * x^xexp * z^zexp as an exact z-series."""
    return ZSeries.from_z_coefficients({zexp: XLaurent.monomial(xexp, coeff)})


def kappa_poly() -> ZSeries:
    return ZSeries.from_z_coefficients({0: xl({3: -1}), 3: xl({0: {2: 1}, 3: 1})})


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------

def test_derive_power_rule():
    assert xl({2: 1}).derive() == xl({1: 2})


def test_derive_negative_exponent():
    assert xl({-2: 26}).derive() == xl({-3: -52})


def test_derive_constant():
    assert xl({0: 7}).derive().is_zero()


def test_product_rule_seeded():
    r = rng(1)
    for _ in range(1000):
        p, q = random_xlaurent(r), random_xlaurent(r)
        lhs = (p * q).derive()
        rhs = p.derive() * q + p * q.derive()
        assert lhs == rhs


def test_ring_axioms_seeded():
    r = rng(2)
    for _ in range(1000):
        a, b, c = (random_xlaurent(r) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_rational_canonicalization_seeded():
    r = rng(3)
    for _ in range(1000):
        a, b = random_xlaurent(r), random_xlaurent(r)
        for value in (a * b + a - b).c.values():
            for coeff in value.c.values():
                assert coeff != 0
                assert coeff.denominator > 0
                from math import gcd
                assert gcd(coeff.numerator, coeff.denominator) == 1


# ---------------------------------------------------------------------------
# eps polynomials
# ---------------------------------------------------------------------------

def test_epspoly_divexact():
    a = EpsPoly({4: F(1), 2: F(2)})
    b = EpsPoly({2: F(1)})
    assert a.divexact(b) == EpsPoly({2: F(1), 0: F(2)})
    with pytest.raises(ExactError):
        EpsPoly({1: F(1)}).divexact(EpsPoly({2: F(1)}))
    r = rng(17)
    for _ in range(300):
        b = random_epspoly(r)
        if b.is_zero():
            continue
        for a in (random_epspoly(r), random_epspoly(r) * b,
                  random_epspoly(r) * b + random_epspoly(r)):
            q, rem = divmod(a, b)
            assert q * b + rem == a
            assert rem.degree() < b.degree()
            if rem.is_zero():
                assert a.divexact(b) == q
            else:
                with pytest.raises(ExactError):
                    a.divexact(b)


def test_epspoly_substitute():
    p = EpsPoly({0: F(1), 2: F(3)})
    assert p.substitute_eps(2) == F(13)
    assert p.substitute_eps(0) == F(1)


def test_epspoly_leading_coefficient():
    assert EpsPoly({0: F(3), 2: F(-5, 4)}).leading_coefficient() == F(-5, 4)
    assert EpsPoly.eps_power(3, F(2, 7)).leading_coefficient() == F(2, 7)
    assert EpsPoly.zero().leading_coefficient() == 0


def test_sums_and_negation_keep_the_type():
    # EpsPoly and XLaurent share +, - and negation; each result keeps its class
    for p, q in ((EpsPoly({0: F(1, 2), 3: 4}), EpsPoly({3: F(-2, 3)})),
                 (xl({-1: {0: F(1, 2)}, 2: {1: 4}}), xl({2: {1: F(-2, 3)}}))):
        for zero in (p - p, -(p - p)):
            assert type(zero) is type(p) and zero.is_zero() and zero.den == 1
        for r in (-p, p + q, p - q, q - p, p + (p - p), (p - p) - q):
            assert type(r) is type(p)
        assert -(-p) == p and (p + q) - q == p and -p + p == p - p


def test_sums_take_the_operands_that_products_and_equality_take():
    # an int or Fraction is a constant and an EpsPoly an XLaurent's x-free part,
    # on either side of + and -; the result has the wider type
    p, x, one_x = EpsPoly({0: F(1, 2), 3: 4}), XLaurent.var(), xl({0: 1, 1: 1})
    cases = [(EpsPoly.one() + x, one_x), (x + EpsPoly.one(), one_x),
             (x - p, xl({1: 1, 0: {0: F(-1, 2), 3: -4}})),
             (p - x, xl({1: -1, 0: {0: F(1, 2), 3: 4}})),
             (XLaurent.one() + 1, xl({0: 2})), (1 + XLaurent.one(), xl({0: 2})),
             (x - F(1, 3), xl({1: 1, 0: F(-1, 3)})), (F(1, 3) - x, xl({1: -1, 0: F(1, 3)})),
             (p + F(1, 2), EpsPoly({0: 1, 3: 4})), (1 - p, EpsPoly({0: F(1, 2), 3: -4})),
             (x - 0, x), (0 - x, -x), (sum([p, p, p]), p * 3)]
    for r, expect in cases:
        assert type(r) is type(expect) and r == expect, (r, expect)
    # an XLaurent takes an EpsPoly through its constructor's cap check
    cap = r"eps\^524288 is beyond the packed-key cap"
    with pytest.raises(ExactError, match=cap):
        XLaurent.one() + EpsPoly.eps_power(2**19)
    with pytest.raises(ExactError, match=cap):
        EpsPoly.eps_power(2**19) - XLaurent.one()


def test_equality_across_types_is_symmetric_and_never_raises():
    half = F(1, 2)
    # (left, right, equal): x-free and x-bearing values against each other and scalars
    cases = [
        (EpsPoly.one(), XLaurent.one(), True),
        (EpsPoly.one(), 1, True),
        (XLaurent.one(), F(1), True),
        (EpsPoly.zero(), XLaurent.zero(), True),
        (EpsPoly.zero(), 0, True),
        (XLaurent.zero(), F(0), True),
        (EpsPoly({0: half, 2: 3}), xl({0: {0: half, 2: 3}}), True),
        (EpsPoly.const(half), half, True),
        (xl({0: half}), half, True),
        (EpsPoly({0: half, 2: 3}), xl({0: {0: half}, 1: {2: 3}}), False),
        (EpsPoly.one(), XLaurent.var(), False),
        (XLaurent.var(), 1, False),
        (xl({-1: 1}), 1, False),
        (EpsPoly.eps_power(1), 1, False),
        (EpsPoly.const(half), 1, False),
        (xl({0: half}), 0, False),
        # keys at or above 2**19 in an EpsPoly match no XLaurent key
        (EpsPoly.eps_power(2**19), XLaurent.one(), False),
        (EpsPoly.eps_power(2**20), XLaurent.var(), False),
        (EpsPoly.eps_power(2**20 - 1), XLaurent.one(), False),
        (EpsPoly.eps_power(2**19 - 1), xl({0: {2**19 - 1: 1}}), True),
    ]
    for left, right, equal in cases:
        assert (left == right) is equal and (right == left) is equal, (left, right)
        assert (left != right) is not equal and (right != left) is not equal, (left, right)
    for value in (EpsPoly.one(), XLaurent.one()):
        assert value != "1" and value != 1.0 and value != ZSeries.one()


def test_foreign_operands_are_a_type_error():
    # +, - and * with a value of another kind raise TypeError, not an
    # AttributeError from inside the method
    lam, ident, one = lambda_fn(), DiffOp.identity(), ZSeries.one()
    add_sub = [(lam, 1.5), (lam, 1), (lam, XLaurent.var()), (lam, one),
               (ident, 1), (ident, XLaurent.one()), (one, 1), (one, XLaurent.one()),
               (EpsPoly.one(), 1.5), (XLaurent.var(), 1.5), (XLaurent.var(), lam),
               (EpsPoly.one(), one)]
    cases = [(op, a, b) for a, b in add_sub for op in (operator.add, operator.sub)]
    for b in (1.5, XLaurent.var(), one, ident):
        cases += [(operator.mul, lam, b), (operator.mul, b, lam)]
    for op, a, b in cases:
        with pytest.raises(TypeError):
            op(a, b)


def test_xlaurent_unit_division():
    u = xl({2: {2: F(3)}})
    assert u.is_monomial()
    p = xl({5: {4: F(6)}, 2: {2: F(-3)}})
    assert p.divide_unit(u) == xl({3: {2: F(2)}, 0: -1})
    with pytest.raises(ExactError):
        xl({0: 1}).divide_unit(u)  # eps^0 not divisible by eps^2
    assert not xl({0: 1, 1: 1}).is_monomial()


def test_xlaurent_view_is_a_new_dict_on_each_read():
    # one storage form: numerators keyed by x_exp * 2**20 + eps_exp
    p = xl({-2: 26, 3: {2: F(-1, 5832), 0: F(1, 3)}})
    assert (p.num, p.den) == ({-2 * 2**20: 151632, 3 * 2**20 + 2: -1, 3 * 2**20: 1944}, 5832)
    assert p.terms() == [(-2, 0, 151632), (3, 2, -1), (3, 0, 1944)]
    assert not hasattr(p, "packed")
    assert p.c[3] == EpsPoly({2: F(-1, 5832), 0: F(1, 3)}) and p.coefficient(-2) == ep(26)
    # mutating a returned view leaves the value as it was
    view = p.c
    view[0] = ep(1)
    del view[3]
    view[-2].c[0] = 5
    assert p.c == {-2: ep(26), 3: EpsPoly({2: F(-1, 5832), 0: F(1, 3)})}
    assert p.coefficient(0) == 0 and p == xl({-2: 26, 3: {2: F(-1, 5832), 0: F(1, 3)}})
    # an x-free XLaurent holds its EpsPoly's numerators, keys and all
    q = EpsPoly({0: F(2, 3), 5: F(-1, 4), 2**19 - 1: 7})
    assert XLaurent({0: q}).num == q.num and XLaurent({0: q}).den == q.den


# ---------------------------------------------------------------------------
# fractions (a + b*w)/kappa^m on the curve
# ---------------------------------------------------------------------------

ZERO, ONE = ZSeries.zero(), ZSeries.one()


def test_fraction_equal_monomials():
    # monomial units live in the numerators: z^3 * z^-4 == z^-1, in the rational
    # part and in the w-part alike, and the two parts are told apart
    assert CurveElem(mono(0, 3) * mono(0, -4)) == CurveElem(mono(0, -1))
    assert CurveElem(ZERO, mono(0, 3) * mono(0, -4), 1) == CurveElem(ZERO, mono(0, -1), 1)
    assert CurveElem(mono(0, -1)) != CurveElem(ZERO, mono(0, -1))
    assert CurveElem(mono(0, -1), m=1) != CurveElem(mono(0, -1))


def test_fraction_equal_kappa():
    # (kappa a + kappa b w)/kappa == a + b w: sums and == lift to the larger m
    k = kappa_poly()
    a, b = mono(2, -1, F(1, 3)) + mono(-1, 2), mono(0, 1, EpsPoly.eps_power(2, 5))
    assert CurveElem(k * a, k * b, 1) == CurveElem(a, b, 0)
    assert CurveElem(k * k * a, k * k * b, 2) == CurveElem(a, b, 0)
    assert CurveElem(k * a, k * b, 2) != CurveElem(a, b, 0)
    assert CurveElem(k, m=1) == CurveElem.one()
    assert CurveElem(k, k, 1) == CurveElem(ONE, ONE)       # (1 + w) kappa / kappa
    assert (CurveElem(k, m=1) - CurveElem.one()).is_zero()


def test_fraction_unequal_generic_eps():
    num = mono(-1, 3, EpsPoly.eps_power(2, 3))
    a = CurveElem(num, m=1)                                # 3 eps^2 z^3/(x kappa)
    b = CurveElem(num * mono(-3, -3))                      # 3 eps^2 z^3/(x x^3 z^3)
    assert a != b
    assert CurveElem(ZERO, num, 1) != CurveElem(ZERO, num * mono(-3, -3))


def test_fraction_arithmetic_and_derivative():
    # d/dx ((x + x^2 w)/kappa) = ((1 + 2x w) kappa - (x + x^2 w) kappa')/kappa^2
    # with kappa' = 3x^2 z^3 - 3x^2
    k, dk = kappa_poly(), mono(2, 3, 3) - mono(2, 0, 3)
    f = CurveElem(mono(1, 0), mono(2, 0), 1)
    expect = CurveElem(k - mono(1, 0) * dk, mono(1, 0, 2) * k - mono(2, 0) * dk, 2)
    assert f.derive() == expect and f.derive().m == 2
    assert f.derive() != CurveElem(ONE, mono(1, 0, 2), 1)
    # over kappa^0 the derivative is the numerators': d/dx (x^2 + x w)/z = (2x + w)/z
    assert CurveElem(mono(2, -1), mono(1, -1)).derive() == CurveElem(mono(1, -1, 2), mono(0, -1))
    assert f + f == f * 2 and (f - f).is_zero()
    # products add the powers of kappa
    assert (f * f).m == 2


def test_kappa_power_is_a_natural_number():
    for m in (-1, 1.0, F(1, 2)):
        with pytest.raises(ValueError):
            CurveElem(ONE, ONE, m)
    f = CurveElem(ONE, m=3)
    assert f.den == kappa_poly() * kappa_poly() * kappa_poly()
    with pytest.raises(AttributeError):
        f.den = ONE


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def test_fraction_expansion_geometric():
    s = series_divide(ZSeries.one(), ZSeries.one() - mono(0, 1), nterms=4)
    assert [s.coefficient(k) for k in range(4)] == [XLaurent.one()] * 4


def test_fraction_expansion_chi2_shape():
    num = mono(0, 3, EpsPoly.eps_power(2, -3))
    den = mono(1, 0) * kappa_poly()
    s = series_divide(num, den, nterms=8)
    assert s.coefficient(3) == xl({-4: {2: 3}})
    assert s.coefficient(4).is_zero() and s.coefficient(5).is_zero()
    assert s.coefficient(6) == xl({-7: {4: 3}, -4: {2: 3}})
    # re-multiplication oracle
    back = s * den
    assert back == num


def test_fraction_expansion_z3_over_kappa():
    s = series_divide(mono(0, 3), kappa_poly(), nterms=6)
    assert s.coefficient(3) == xl({-3: -1})
    back = s * kappa_poly()
    assert back == mono(0, 3)


def test_fraction_expansion_rejects_bad_leading():
    with pytest.raises(ExactError):
        series_divide(ZSeries.one(), ZSeries.one() + mono(1, 0), nterms=4)


def test_sum_of_products_signs_denominators_cancellation():
    a, b, c = xl({1: F(1, 2), 0: {1: F(2, 3)}}), xl({-1: F(3, 4)}), xl({2: {2: F(5, 9)}})
    assert sum_of_products([(-3, a, b), (2, c, b), (1, b, c)]) == \
        (a * b).scale(-3) + (c * b).scale(2) + b * c
    # a shared first factor, then a different one: a*(2b - 5c) + c*c
    assert sum_of_products([(2, a, b), (-5, a, c), (1, c, c)]) == \
        a * (b.scale(2) - c.scale(5)) + c * c
    zero = sum_of_products([(4, a, b), (-2, b, a), (-1, a, b.scale(2))])
    assert zero.is_zero() and zero.den == 1 and zero == XLaurent.zero()
    assert sum_of_products([]) == XLaurent.zero()
    assert sum_of_products([(0, a, b), (3, XLaurent.zero(), a)]).den == 1


def test_sum_of_products_rejects_an_eps_exponent_at_the_packed_cap():
    # a stored key holds an eps exponent below 2**19: the constructor refuses
    # one at the cap, and so does every product whose result reaches it
    cap = r"eps\^{} is beyond the packed-key cap eps\^524287"
    with pytest.raises(ExactError, match=cap.format(524288)):
        xl({1: {2**19: F(1, 2)}})
    with pytest.raises(ExactError, match=cap.format(524288)):
        xl({1: 1}).scale(EpsPoly({2**19: 1}))
    below, half = xl({-5: {2**18 - 1: 3}, 2: 1}), xl({-5: {2**18: 3}, 2: 1})
    square = xl({-10: {2**19 - 2: 9}, -3: {2**18 - 1: 6}, 4: 1})
    assert sum_of_products([(1, below, below)]) == below * below == square
    assert (below * half).c[-10] == EpsPoly({2**19 - 1: 9})
    with pytest.raises(ExactError, match=cap.format(524288)):
        sum_of_products([(1, half, half)])
    # ``*`` makes its keys the same way, so it refuses the same product
    with pytest.raises(ExactError, match=cap.format(524288)):
        half * half
    top = xl({-5: {2**19 - 1: 3}, 2: 1})
    with pytest.raises(ExactError, match=cap.format(2**20 - 2)):
        top * top
    # the cap holds for the result: terms that cancel leave nothing to refuse
    assert sum_of_products([(1, half, half), (-1, half, half)]).is_zero()
    # an EpsPoly has no cap
    assert EpsPoly({2**19: 1}) * EpsPoly({2**19: 1}) == EpsPoly({2**20: 1})


def test_series_divide_round_trip_seeded():
    r = rng(4)
    for _ in range(300):
        num = ZSeries(0, [random_xlaurent(r) for _ in range(5)], 5)
        den_coeffs = [XLaurent.monomial(r.randint(-2, 2), F(r.choice([1, 2, 3])))]
        den_coeffs += [random_xlaurent(r) for _ in range(3)]
        den = ZSeries(0, den_coeffs, 4)
        s = series_divide(num, den)
        assert s * den == num.truncate(int(s.upper))


def test_series_sqrt_perfect_square():
    s = ZSeries.from_z_coefficients({0: XLaurent.one(), 1: xl({0: 2}), 2: XLaurent.one()})
    r = series_sqrt(s.truncate(6))
    assert r.coefficient(0) == XLaurent.one()
    assert r.coefficient(1) == XLaurent.one()
    assert all(r.coefficient(k).is_zero() for k in range(2, 6))


def test_series_sqrt_of_one():
    s = ZSeries.one().truncate(5)
    r = series_sqrt(s)
    assert r.coefficient(0) == XLaurent.one()
    assert all(r.coefficient(k).is_zero() for k in range(1, 5))


def test_series_sqrt_curve_data():
    w2 = ZSeries.from_z_coefficients({
        0: XLaurent.one(), 3: xl({0: -2}),
        4: xl({0: {4: F(-1, 3888)}}), 6: XLaurent.one()})
    r = series_sqrt(w2.truncate(10))
    assert r.coefficient(3) == xl({0: -1})
    assert r.coefficient(4) == xl({0: {4: F(-1, 7776)}})
    assert r * r == w2.truncate(10)


def test_series_sqrt_rejects_non_unit_constant():
    s = ZSeries.from_z_coefficients({0: xl({0: 2})})
    with pytest.raises(ExactError):
        series_sqrt(s.truncate(4))
    s2 = ZSeries.from_z_coefficients({1: XLaurent.one()})
    with pytest.raises(ExactError):
        series_sqrt(s2.truncate(4))


def test_series_window_bookkeeping():
    a = ZSeries(0, [XLaurent.one()] * 4, 4)        # known through z^3
    b = ZSeries(-1, [XLaurent.one()] * 3, 2)       # known through z^1
    prod = a * b
    assert prod.upper == 2 + 0  # min(4 + (-1), 2 + 0)
    with pytest.raises(ExactError):
        prod.coefficient(5)
    assert (a + b).upper == 2


def test_zero_series_keeps_its_window():
    # a difference that cancels is known no further than its operands
    a = ZSeries(-10, [xl({0: 1})] * 5, -5)
    diff = a - a
    assert diff.upper == -5 and diff.is_zero()
    assert diff.coefficient(-6).is_zero()
    with pytest.raises(ExactError):
        diff.coefficient(-3)
    with pytest.raises(ExactError):
        (diff * ZSeries.one()).coefficient(-5)
    assert (a.truncate(-7) - a.truncate(-7)).upper == -7
    assert ZSeries(0, [], 3).upper == 3 and ZSeries.zero().upper == float("inf")


def test_window_ending_below_the_stored_terms_keeps_none_of_them():
    # a truncated series stores exactly its window, even one that ends below
    # its first stored term: nothing known there is nonzero
    one, x = XLaurent.one(), XLaurent.var()
    for s in (ZSeries(-3, [one, x, one, x, one]).truncate(-5),
              ZSeries(0, [one, x, one, x], upper=-2)):
        assert s.is_zero() and s.first_nonzero() is None
        assert s.end == s.upper and s.lowest <= s.upper
        with pytest.raises(ExactError):
            s.coefficient(s.upper)


def test_an_all_zero_truncated_series_has_one_form():
    # trimmed to nothing or built with no terms: the same window, no stored terms
    one = XLaurent.one()
    for upper in (-3, 0, 1, 4):
        forms = [ZSeries(upper + 2, [one]).truncate(upper), ZSeries(upper, [], upper),
                 ZSeries(upper - 3, [XLaurent.zero()] * 5, upper), ZSeries(0, [], upper)]
        for s in forms:
            assert_same_series(s, forms[0])
        assert (forms[0].lowest, forms[0].coeffs) == (upper, [])
    assert_same_series(ZSeries(3, [one]).truncate(1), ZSeries(1, [], 1))


def test_series_end_is_the_window_or_the_stored_terms():
    one, x = XLaurent.one(), XLaurent.var()
    exact = ZSeries(-2, [x, one, XLaurent.zero()])    # stores z^-2 .. z^-1
    assert exact.end == 0 and exact.known_len() == float("inf") and "exact" in repr(exact)
    assert exact.truncate(5).end == 5 and exact.truncate(5).coefficient(4).is_zero()
    assert exact.truncate(-1).end == -1 and exact.truncate(-1).coeffs == [x]
    assert "O(z^5)" in repr(exact.truncate(5))
    # arithmetic of a truncated and an exact series: the window of the truncated one
    t = ZSeries(0, [one] * 3, 3)
    for s in (t + exact, t - exact, t * exact, exact * t):
        assert s.end == s.upper
    assert (t + exact).upper == 3 and (t * exact).upper == 1
    # an exact product stores no trailing zero; the root of an exact series is
    # known as far as the series is stored
    square = exact * exact
    assert (square.lowest, square.end) == (-4, -1) and not square.coeffs[-1].is_zero()
    assert series_sqrt(ZSeries.one() + mono(0, 1)).end == 2


def test_an_exact_series_whose_top_terms_cancel_has_one_form():
    # sums, products and derivatives of exact series store no trailing zero,
    # so they equal the series built from their nonzero terms alone
    zero, one, x = XLaurent.zero(), XLaurent.one(), XLaurent.var()
    a, b = ZSeries(0, [one, x]), ZSeries(0, [one, -x])      # 1 + xz, 1 - xz
    xz = ZSeries(0, [zero, x])
    assert_same_series(ZSeries(-1, [x, one, zero, zero]), ZSeries(-1, [x, one]))
    assert_same_series(a + b, ZSeries(0, [one + one]))
    assert_same_series(a - xz, ZSeries.one())
    assert_same_series(series_sum((ZSeries(0, [zero, x, x * x]),), (), ((a, b),)), a)
    assert_same_series(series_sum(products=((a, a), (xz, -xz))), ZSeries(0, [one, x + x]))
    assert_same_series(series_sum((), (ZSeries(0, [x, one]),)), ZSeries.one())


def _random_series(r) -> ZSeries:
    """An exact or truncated series, often with a negative lowest exponent:
    the zero series, x-constant coefficients (so that the derivative
    vanishes), or a window that ends below the stored terms."""
    lowest, n = r.randint(-4, 2), r.randint(0, 5)
    if r.random() < 0.25:
        coeffs = [XLaurent({0: random_epspoly(r, 2)}) for _ in range(n)]
    else:
        coeffs = [random_xlaurent(r, xspan=2, terms=2) for _ in range(n)]
    kind = r.randrange(6)
    if kind == 0:
        return ZSeries.zero() if r.random() < 0.5 else ZSeries(0, [], r.randint(-2, 4))
    if kind == 1:
        return ZSeries(lowest, coeffs).truncate(lowest - r.randint(1, 2))
    if kind == 2:
        return ZSeries(lowest, coeffs, lowest + r.randint(0, 6))
    return ZSeries(lowest, coeffs)


def test_series_sum_matches_the_fold_of_add_derive_and_mul():
    r = rng(6)
    seen = {"exact": 0, "truncated": 0, "zero": 0, "nonzero": 0, "exact x truncated": 0}
    for _ in range(400):
        plain = tuple(_random_series(r) for _ in range(r.randint(0, 2)))
        derived = tuple(_random_series(r) for _ in range(r.randint(0, 2)))
        products = tuple((_random_series(r), _random_series(r)) for _ in range(r.randint(0, 2)))
        terms = [*plain, *(s.derive() for s in derived),
                 *(reference_product(a, b) for a, b in products)]
        got = series_sum(plain, derived, products)
        assert_same_series(got, sum(terms[1:], terms[0]) if terms else ZSeries.zero())
        for a, b in products:
            assert_same_series(a * b, reference_product(a, b))
        seen["exact" if got.upper == float("inf") else "truncated"] += 1
        seen["zero" if got.is_zero() else "nonzero"] += 1
        seen["exact x truncated"] += any((a.upper == float("inf")) != (b.upper == float("inf"))
                                         for a, b in products)
    assert min(seen.values()) >= 50, seen


def test_series_times_a_non_series_is_a_type_error():
    s = ZSeries.one()
    for other in ("z", 1.5, DiffOp.d(1)):
        with pytest.raises(TypeError):
            s * other
        with pytest.raises(TypeError):
            other * s


def test_series_equality_with_other_types_is_false():
    # like XLaurent and DiffOp, a series compares unequal to a non-series
    one = ZSeries.one()
    assert not one == 1 and one != 1
    assert not one == XLaurent.one() and one != XLaurent.one()
    assert one == ZSeries.from_z_coefficients({0: XLaurent.one()})
    # within the known windows, as before
    assert ZSeries(0, [XLaurent.one()], 1) == ZSeries(0, [XLaurent.one(), xl({1: 5})], 2)


def test_series_sqrt_round_trip_seeded():
    r = rng(5)
    for _ in range(200):
        coeffs = [XLaurent.one()] + [random_xlaurent(r, xspan=2, terms=2)
                                     for _ in range(5)]
        s = ZSeries(0, coeffs, 6)
        root = series_sqrt(s)
        assert root * root == s


@settings(deadline=None, max_examples=120)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.lists(st.integers(-5, 5), min_size=1, max_size=5))
def test_hypothesis_xlaurent_commutes(a_exps, b_exps):
    a = XLaurent({e: ep(i + 1) for i, e in enumerate(a_exps)})
    b = XLaurent({e: ep(i - 2) for i, e in enumerate(b_exps)})
    assert a * b == b * a
    assert a + b == b + a


@settings(deadline=None, max_examples=120)
@given(st.integers(-6, 6), st.integers(0, 6),
       st.fractions(min_value=-5, max_value=5))
def test_hypothesis_derive_linear(xe, ee, c):
    if c == 0:
        return
    p = XLaurent({xe: EpsPoly({ee: c})})
    assert (p + p).derive() == p.derive() + p.derive()
    assert p.scale(3).derive() == p.derive().scale(3)


# ---------------------------------------------------------------------------
# XLaurent against a plain {x_exp: {eps_exp: Fraction}} reference
# ---------------------------------------------------------------------------

def _ref_clean(a):
    return {x: {e: v for e, v in row.items() if v}
            for x, row in a.items() if any(row.values())}


def _ref_add(a, b, sign=1):
    out = {x: dict(row) for x, row in a.items()}
    for x, row in b.items():
        for e, v in row.items():
            out.setdefault(x, {})[e] = out.get(x, {}).get(e, F(0)) + sign * v
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for x1, r1 in a.items():
        for e1, v1 in r1.items():
            for x2, r2 in b.items():
                for e2, v2 in r2.items():
                    row = out.setdefault(x1 + x2, {})
                    row[e1 + e2] = row.get(e1 + e2, F(0)) + v1 * v2
    return _ref_clean(out)


def _ref_derive(a):
    return _ref_clean({x - 1: {e: v * x for e, v in row.items()} for x, row in a.items()})


def _ref_substitute(a, value):
    return _ref_clean({x: {0: sum((v * value**e for e, v in row.items()), F(0))}
                       for x, row in a.items()})


def _as_ref(p: XLaurent):
    """``p`` as ``{x_exp: {eps_exp: Fraction}}``, decoding each key ``x_exp * 2**20 + eps_exp``."""
    out = {}
    for k, v in p.num.items():
        out.setdefault(k >> 20, {})[k & (2**20 - 1)] = F(v, p.den)
    return out


def _assert_canonical(p: XLaurent):
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v != 0 for v in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    if not p.num:
        assert p.den == 1
    assert {x: dict(e.c) for x, e in p.c.items()} == _as_ref(p)
    assert p.terms() == [(k >> 20, k & (2**20 - 1), v) for k, v in p.num.items()]


_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)
_ref_laurent = st.dictionaries(
    st.integers(-3, 3), st.dictionaries(st.integers(0, 3), _fractions, max_size=3),
    max_size=4)


def _checked(p: XLaurent, ref):
    _assert_canonical(p)
    assert _as_ref(p) == _ref_clean(ref)
    return p


def _ref_sum_of_products(terms):
    out = {}
    for c, a, b in terms:
        out = _ref_add(out, _ref_mul({0: {0: F(c)}}, _ref_mul(a, b)))
    return out


@settings(deadline=None, max_examples=200)
@given(_ref_laurent, _ref_laurent, st.integers(-12, 12), _fractions,
       st.dictionaries(st.integers(0, 2), _fractions, max_size=2), _fractions,
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_hypothesis_xlaurent_matches_reference(ra, rb, k, q, rp, value, cs):
    a, b = _checked(xl(ra), ra), _checked(xl(rb), rb)
    ra, rb = _ref_clean(ra), _ref_clean(rb)
    # the first two triples share `a`, so the kernel multiplies it once
    _checked(sum_of_products([(cs[0], a, b), (cs[1], a, a), (cs[2], b, a)]),
             _ref_sum_of_products([(cs[0], ra, rb), (cs[1], ra, ra), (cs[2], rb, ra)]))
    _checked(sum_of_products([(k, a, b), (-k, b, a)]), {})
    _checked(a + b, _ref_add(ra, rb))
    _checked(a - b, _ref_add(ra, rb, -1))
    _checked(-a, _ref_add({}, ra, -1))
    _checked(a * b, _ref_mul(ra, rb))
    _checked(a.derive(), _ref_derive(ra))
    _checked(a.scale(k), _ref_mul(ra, {0: {0: F(k)}}))
    _checked(a.scale(q), _ref_mul(ra, {0: {0: q}}))
    _checked(a.scale(EpsPoly(rp)), _ref_mul(ra, {0: rp}))
    _checked(a.substitute_eps(value), _ref_substitute(ra, value))
    assert (a == b) == (ra == rb)


_CAP = 2**19
_wide_laurent = st.dictionaries(
    st.integers(-40, 5),
    st.dictionaries(st.integers(0, 3) | st.integers(_CAP // 2 - 3, _CAP // 2 + 1),
                    _fractions, max_size=3),
    max_size=4)


@settings(deadline=None, max_examples=200)
@given(_wide_laurent, _wide_laurent, st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_hypothesis_sum_of_products_packed_keys_match_reference(ra, rb, cs):
    # negative x exponents and eps exponents around half the cap, whose
    # products land on either side of it: a result below the cap matches the
    # reference, one that reaches it raises; a run of three triples shares
    # `a`, and `a` comes back after `b` as a group of its own
    a, b = xl(ra), xl(rb)
    ra, rb = _ref_clean(ra), _ref_clean(rb)
    pairs = [(a, b, ra, rb), (a, a, ra, ra), (a, b, ra, rb), (b, a, rb, ra), (a, a, ra, ra)]
    ref = _ref_sum_of_products([(c, ru, rv) for c, (_, _, ru, rv) in zip(cs, pairs)])
    terms = [(c, u, v) for c, (u, v, _, _) in zip(cs, pairs)]
    if any(e >= _CAP for row in ref.values() for e in row):
        top = max(e for row in ref.values() for e in row)
        with pytest.raises(ExactError, match=rf"eps\^{top} is beyond the packed-key cap"):
            sum_of_products(terms)
        return
    _checked(sum_of_products(terms), ref)


_layout_laurent = st.dictionaries(
    st.integers(-40, 40),
    st.dictionaries(st.integers(0, 3) | st.integers(_CAP - 3, _CAP - 1), _fractions, max_size=3),
    max_size=4)


@settings(deadline=None, max_examples=200)
@given(_layout_laurent, st.integers(-40, 40), st.integers(0, 3) | st.integers(_CAP - 3, _CAP - 1),
       _fractions.filter(bool), st.sampled_from([F(-1), F(0), F(1)]))
def test_hypothesis_packed_key_layout_round_trips(ra, ux, ue, u, value):
    # x exponents on both sides of zero and eps exponents up to the cap: the
    # keys decode through `.c`, and d/dx, unit division and eps substitution
    # move them as the reference moves its (x_exp, eps_exp) pairs
    a = _checked(xl(ra), ra)
    ra = _ref_clean(ra)
    for x, row in ra.items():
        assert XLaurent({x: EpsPoly(row)}).num == {x * 2**20 + e: v
                                                   for e, v in EpsPoly(row).num.items()}
    _checked(a.derive(), _ref_derive(ra))
    _checked(a.substitute_eps(value), _ref_substitute(ra, value))
    unit = xl({ux: {ue: u}})
    if any(e < ue for row in ra.values() for e in row):
        with pytest.raises(ExactError):
            a.divide_unit(unit)
    else:
        _checked(a.divide_unit(unit),
                 {x - ux: {e - ue: v / u for e, v in row.items()} for x, row in ra.items()})


@settings(deadline=None, max_examples=200)
@given(_ref_laurent, st.integers(-3, 3), st.integers(0, 2), _fractions)
def test_hypothesis_xlaurent_divide_unit_matches_reference(ra, ux, ue, u):
    if not u:
        return
    a, unit = xl(ra), xl({ux: {ue: u}})
    ra = _ref_clean(ra)
    if any(e < ue for row in ra.values() for e in row):
        with pytest.raises(ExactError):
            a.divide_unit(unit)
        return
    _checked(a.divide_unit(unit),
             {x - ux: {e - ue: v / u for e, v in row.items()} for x, row in ra.items()})


# ---------------------------------------------------------------------------
# EpsPoly against the {eps_exp: Fraction} arithmetic it replaced
# ---------------------------------------------------------------------------

def _fr_clean(a):
    return {e: v for e, v in a.items() if v}


def _fr_add(a, b, sign=1):
    c = dict(a)
    for e, v in b.items():
        c[e] = c.get(e, F(0)) + sign * v
    return _fr_clean(c)


def _fr_mul(a, b):
    c = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            c[e1 + e2] = c.get(e1 + e2, F(0)) + v1 * v2
    return _fr_clean(c)


def _fr_divide_monomial(a, coeff, exp):
    if any(e < exp for e in a):
        raise ExactError("not divisible")
    return {e - exp: v / coeff for e, v in a.items()}


def _fr_divmod(a, b):
    """Long division over Q, one leading term at a time."""
    rem, q = dict(a), {}
    de = max(b)
    while rem and (e := max(rem)) >= de:
        qe, qv = e - de, rem[e] / b[de]
        q[qe] = qv
        rem = _fr_add(rem, {oe + qe: qv * ov for oe, ov in b.items()}, -1)
    return q, rem


def _fr_substitute(a, value):
    return sum((v * value**e for e, v in a.items()), F(0))


def _fr_str(a):
    if not a:
        return "0"
    return " + ".join(str(a[e]) if e == 0 else f"{a[e]}*eps" if e == 1 else f"{a[e]}*eps^{e}"
                      for e in sorted(a))


def _ep_checked(p: EpsPoly, ref):
    """``p`` is canonical (``den > 0``, numerators nonzero and coprime to it) and equals ``ref``."""
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v != 0 for v in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert dict(p.c) == _fr_clean(ref)
    return p


# zero, negative and large-denominator coefficients, eps degrees up to 12
_ep_scalars = (st.sampled_from([F(0), F(1), F(-1), F(-1, 3888)])
               | st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**15))
_ep_refs = st.dictionaries(st.integers(0, 12), _ep_scalars, max_size=5)


@settings(deadline=None, max_examples=300)
@given(_ep_refs, _ep_refs, _ep_scalars, st.integers(0, 12), _ep_scalars)
def test_hypothesis_epspoly_matches_fraction_reference(ra, rb, k, exp, value):
    a, b = _ep_checked(EpsPoly(ra), ra), _ep_checked(EpsPoly(rb), rb)
    ra, rb = _fr_clean(ra), _fr_clean(rb)
    _ep_checked(a + b, _fr_add(ra, rb))
    _ep_checked(a - b, _fr_add(ra, rb, -1))
    _ep_checked(-a, _fr_add({}, ra, -1))
    _ep_checked(a * b, _fr_mul(ra, rb))
    _ep_checked(a.scale(k), _fr_mul(ra, {0: k}))
    _ep_checked(a * 3, _fr_mul(ra, {0: F(3)}))
    for divisor, ref in ((b, rb), (EpsPoly.eps_power(exp, k), _fr_clean({exp: k}))):
        if not ref:
            with pytest.raises(ExactError):
                divmod(a, divisor)
            continue
        q, r = divmod(a, divisor)
        rq, rr = _fr_divmod(ra, ref)
        _ep_checked(q, rq)
        _ep_checked(r, rr)
        _ep_checked((a * divisor).divexact(divisor), ra)
        if rr:
            with pytest.raises(ExactError):
                a.divexact(divisor)
        else:
            _ep_checked(a.divexact(divisor), rq)
    unit = EpsPoly.eps_power(exp, k)
    if k:
        try:
            ref = _fr_divide_monomial(ra, k, exp)
        except ExactError:
            with pytest.raises(ExactError):
                a.divide_unit(unit)
        else:
            _ep_checked(a.divide_unit(unit), ref)
    else:
        with pytest.raises(ExactError):
            a.divide_unit(unit)
    # the x-free XLaurent holds a's numerators, and the shared is_monomial and
    # substitute_eps read both alike; each result keeps its type
    x = XLaurent({0: a})
    assert x.num == a.num and x.den == a.den
    at = _fr_substitute(ra, value)
    assert a.is_monomial() == x.is_monomial() == (len(ra) == 1)
    assert type(_ep_checked(a.substitute_eps(value), {0: at})) is EpsPoly
    assert type(_checked(x.substitute_eps(value), {0: {0: at}})) is XLaurent
    assert a.substitute_eps(value) == x.substitute_eps(value) == at
    assert a.degree() == max(ra, default=-1)
    assert (a == b) == (ra == rb)
    assert (a == k) == (ra == _fr_clean({0: k}))
    assert str(a) == _fr_str(ra)
