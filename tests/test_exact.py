"""The exact arithmetic layer: scalars, Laurent polynomials, fractions, series."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bcpair import (CurveElem, EpsPoly, ExactError, XLaurent, ZSeries, ep,
                    series_sqrt, xl)
from bcpair.exact import series_divide, sum_of_products
from conftest import random_epspoly, random_xlaurent, rng

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


def test_xlaurent_view_is_read_only_and_built_once():
    p = xl({-2: 26, 3: {2: F(-1, 5832), 0: F(1, 3)}})
    assert (p.num, p.den) == ({(-2, 0): 151632, (3, 2): -1, (3, 0): 1944}, 5832)
    assert p.c is p.c
    assert p.c[3] == EpsPoly({2: F(-1, 5832), 0: F(1, 3)}) and p.coefficient(-2) == ep(26)
    with pytest.raises(TypeError):
        p.c[0] = ep(1)


# ---------------------------------------------------------------------------
# fractions (a + b*w)/den on the curve
# ---------------------------------------------------------------------------

ZERO, ONE = ZSeries.zero(), ZSeries.one()


def test_fraction_equal_monomials():
    # z^3/z^4 == 1/z, in the rational part and in the w-part alike
    assert CurveElem(mono(0, 3), den=mono(0, 4)) == CurveElem(ONE, den=mono(0, 1))
    assert CurveElem(ZERO, mono(0, 3), mono(0, 4)) == CurveElem(ZERO, ONE, mono(0, 1))
    assert CurveElem(mono(0, 3), den=mono(0, 4)) != CurveElem(ZERO, ONE, mono(0, 1))


def test_fraction_equal_kappa():
    k = kappa_poly()
    assert CurveElem(k, den=k) == CurveElem.one()
    assert CurveElem(k, k, k) == CurveElem(ONE, ONE)       # (1 + w) kappa / kappa


def test_fraction_unequal_generic_eps():
    num = mono(0, 3, EpsPoly.eps_power(2, 3))
    a = CurveElem(num, den=mono(1, 0) * kappa_poly())
    b = CurveElem(num, den=mono(1, 0) * mono(3, 3))
    assert a != b
    assert CurveElem(ZERO, num, a.den) != CurveElem(ZERO, num, b.den)


def test_fraction_arithmetic_and_derivative():
    # d/dx ((x + x^2 w) / (x + x^2 z)) has the quotient-rule cross terms
    num_a, num_b = mono(1, 0), mono(2, 0)
    den = mono(1, 0) + mono(2, 1)
    f = CurveElem(num_a, num_b, den)
    expect = CurveElem(num_a.derive() * den - num_a * den.derive(),
                       num_b.derive() * den - num_b * den.derive(), den * den)
    assert f.derive() == expect
    assert f.derive() != CurveElem(num_a.derive(), num_b.derive(), den)
    # an x-free denominator leaves the numerators' derivative: d/dx (x^2 + x w)/z = (2x + w)/z
    assert CurveElem(mono(2, 0), mono(1, 0), mono(0, 1)).derive() == \
        CurveElem(mono(1, 0, 2), ONE, mono(0, 1))
    assert f + f == f * 2 and (f - f).is_zero()


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        CurveElem(ONE, den=ZERO)
    with pytest.raises(ZeroDivisionError):
        CurveElem(ONE, ONE, mono(1, 2, EpsPoly.eps_power(2))).substitute_eps(0)


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
    assert back.eq_known(num)


def test_fraction_expansion_z3_over_kappa():
    s = series_divide(mono(0, 3), kappa_poly(), nterms=6)
    assert s.coefficient(3) == xl({-3: -1})
    back = s * kappa_poly()
    assert back.eq_known(mono(0, 3))


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
    out = {}
    for (x, e), v in p.num.items():
        out.setdefault(x, {})[e] = F(v, p.den)
    return out


def _assert_canonical(p: XLaurent):
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v != 0 for v in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    if not p.num:
        assert p.den == 1
    assert {x: dict(e.c) for x, e in p.c.items()} == _as_ref(p)


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
