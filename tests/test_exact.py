"""The exact arithmetic layer: scalars, Laurent polynomials, fractions, series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bcpair import (EpsPoly, ExactError, XLaurent, XZFraction, XZPoly, ZSeries,
                    ep, fraction_equal, fraction_to_series, series_sqrt, xl)
from bcpair.exact import series_divide
from conftest import random_xlaurent, rng

F = Fraction


def kappa_poly() -> XZPoly:
    return XZPoly({(0, 3): EpsPoly.eps_power(2), (3, 3): ep(1), (3, 0): ep(-1)})


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


def test_epspoly_substitute():
    p = EpsPoly({0: F(1), 2: F(3)})
    assert p.substitute(2) == F(13)
    assert p.substitute(0) == F(1)


def test_xlaurent_unit_division():
    u = xl({2: {2: F(3)}})
    assert u.is_unit()
    p = xl({5: {4: F(6)}, 2: {2: F(-3)}})
    assert p.divide_unit(u) == xl({3: {2: F(2)}, 0: -1})
    with pytest.raises(ExactError):
        xl({0: 1}).divide_unit(u)  # eps^0 not divisible by eps^2
    assert not xl({0: 1, 1: 1}).is_unit()


# ---------------------------------------------------------------------------
# fractions
# ---------------------------------------------------------------------------

def test_fraction_equal_monomials():
    z3 = XZFraction(XZPoly.monomial(0, 3), XZPoly.monomial(0, 4))
    inv_z = XZFraction(XZPoly.one(), XZPoly.monomial(0, 1))
    assert fraction_equal(z3, inv_z)


def test_fraction_equal_kappa():
    k = kappa_poly()
    assert fraction_equal(XZFraction(k, k), XZFraction(XZPoly.one(), XZPoly.one()))


def test_fraction_unequal_generic_eps():
    num = XZPoly({(0, 3): EpsPoly.eps_power(2, 3)})
    a = XZFraction(num, XZPoly.monomial(1, 0) * kappa_poly())
    b = XZFraction(num, XZPoly.monomial(1, 0) * XZPoly.monomial(3, 3))
    assert not fraction_equal(a, b)


def test_fraction_arithmetic_and_derivative():
    # d/dx (x / (x + x^2 z)) has the quotient-rule cross terms
    f = XZFraction(XZPoly.monomial(1, 0), XZPoly.monomial(1, 0) + XZPoly.monomial(2, 1))
    g = f.derive_x()
    # compare against hand-built result via cross multiplication
    num = XZPoly.monomial(1, 0)
    den = XZPoly.monomial(1, 0) + XZPoly.monomial(2, 1)
    expect = XZFraction(num.derive_x() * den - num * den.derive_x(), den * den)
    assert fraction_equal(g, expect)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        XZFraction(XZPoly.one(), XZPoly.zero())


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def test_fraction_to_series_geometric():
    f = XZFraction(XZPoly.one(), XZPoly.one() - XZPoly.monomial(0, 1))
    s = fraction_to_series(f, 4)
    assert [s.coefficient(k) for k in range(4)] == [XLaurent.one()] * 4


def test_fraction_to_series_chi2_shape():
    num = XZPoly({(0, 3): EpsPoly.eps_power(2, -3)})
    den = XZPoly.monomial(1, 0) * kappa_poly()
    s = fraction_to_series(XZFraction(num, den), 8)
    assert s.coefficient(3) == xl({-4: {2: 3}})
    assert s.coefficient(4).is_zero() and s.coefficient(5).is_zero()
    assert s.coefficient(6) == xl({-7: {4: 3}, -4: {2: 3}})
    # re-multiplication oracle
    back = s * ZSeries.from_xzpoly(den)
    assert back.eq_known(ZSeries.from_xzpoly(num))


def test_fraction_to_series_z3_over_kappa():
    f = XZFraction(XZPoly.monomial(0, 3), kappa_poly())
    s = fraction_to_series(f, 6)
    assert s.coefficient(3) == xl({-3: -1})
    back = s * ZSeries.from_xzpoly(kappa_poly())
    assert back.eq_known(ZSeries.from_xzpoly(XZPoly.monomial(0, 3)))


def test_fraction_to_series_rejects_bad_leading():
    f = XZFraction(XZPoly.one(), XZPoly.one() + XZPoly.monomial(1, 0))
    with pytest.raises(ExactError):
        fraction_to_series(f, 4)


def test_series_divide_round_trip_seeded():
    r = rng(4)
    for _ in range(300):
        num = ZSeries(0, [random_xlaurent(r) for _ in range(5)], 5)
        den_coeffs = [XLaurent.monomial(r.randint(-2, 2), F(r.choice([1, 2, 3])))]
        den_coeffs += [random_xlaurent(r) for _ in range(3)]
        den = ZSeries(0, den_coeffs, 4)
        s = series_divide(num, den)
        assert (s * den).eq_known(num.truncate(int(s.upper)))


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
    assert (r * r).eq_known(w2.truncate(10))


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


def test_series_sqrt_round_trip_seeded():
    r = rng(5)
    for _ in range(200):
        coeffs = [XLaurent.one()] + [random_xlaurent(r, xspan=2, terms=2)
                                     for _ in range(5)]
        s = ZSeries(0, coeffs, 6)
        root = series_sqrt(s)
        assert (root * root).eq_known(s)


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
