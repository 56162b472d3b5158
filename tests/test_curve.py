"""The curve, its quadratic extension, the chi/lambda/mu data and expansions."""

import hashlib
from fractions import Fraction

import pytest

from bcpair import (CurveDef, CurveElem, EpsPoly, XLaurent, ZSeries,
                    bc_function_identity, chi, curve_series, lambda_fn, mu_fn,
                    xl, zeta1, zeta2)

F = Fraction
ZERO, ONE = ZSeries.zero(), ZSeries.one()
E2 = EpsPoly.eps_power(2)


def mono(xe: int, ze: int, coeff=1) -> ZSeries:
    """coeff * x^xe * z^ze as an exact z-series."""
    return ZSeries.from_z_coefficients({ze: XLaurent.monomial(xe, coeff)})


def kappa() -> ZSeries:
    """(eps^2 + x^3) z^3 - x^3."""
    return mono(0, 3, E2) + mono(3, 3) - mono(3, 0)


def displayed_chi0(curve: CurveDef) -> CurveElem:
    """chi_0 summed term by term exactly as the paper displays it; the monomial
    factors of each displayed denominator are written into its numerator."""
    def term(num, m=1, w=False):
        return CurveElem(ZERO, num, m, curve) if w else CurveElem(num, m=m, curve=curve)
    return (term(mono(0, -1, F(1, 2)), m=0)                                     # 1/(2z)
            - term(mono(3, 0, F(1, 5832)) * (mono(0, 0, E2) + mono(3, 0)), m=0)
            + term(mono(0, 3, 10) - mono(0, 0, 10))                              # 10(z^3-1)/kappa
            + term(mono(3, 1, EpsPoly.eps_power(2, F(1, 216))))
            - term(mono(0, 2, EpsPoly.eps_power(2, F(1, 6))))
            + term(mono(-3, 3, EpsPoly.eps_power(2, 16)))
            + term(mono(0, 0, -18), w=True)                                      # -18 w/kappa
            - term(mono(3, -1, F(1, 2)), w=True))                                # -x^3 w/(2 z kappa)


def test_curve_model():
    c = CurveDef()
    w2 = c.w_squared()
    assert w2.coefficient(0) == XLaurent.one()        # W(0) = 1
    assert w2.lowest + len(w2.coeffs) - 1 == 6        # degree 6
    assert w2.coefficient(4) == xl({0: {4: F(-1, 3888)}})
    variant = CurveDef(w_eps_power=2)
    assert variant.w_squared().coefficient(4) == xl({0: {2: F(-1, 3888)}})


def test_w_series_squares_back():
    c = CurveDef()
    w = c.w_series(12)
    back = w * w
    assert back.eq_known(c.w_squared().truncate(12))


def test_chi2_is_w_free_and_chi0_is_not():
    assert not chi(0).b.is_zero()             # chi0 has a genuine w-part
    assert chi(2).b.is_zero()                 # chi2 is sigma-invariant


def test_chi2_closed_form():
    c2 = chi(2)
    assert c2.b.is_zero() and c2.m == 1
    assert c2 == CurveElem(mono(-1, 3, EpsPoly.eps_power(2, -3)), m=1)


def test_chi1_w_part():
    # -108 x^3 / (12 x^2 kappa) simplifies to -9x/kappa
    c1 = chi(1)
    assert c1.m == 1
    assert CurveElem(ZERO, c1.b, c1.m) == CurveElem(ZERO, mono(1, 0, -9), 1)


def test_chi0_equals_displayed_form():
    for curve in (CurveDef(), CurveDef(w_eps_power=2)):
        c0 = chi(0, curve)
        assert c0 == displayed_chi0(curve)
        assert c0.m == 1 and c0.den == kappa()


def test_chis_equal_their_multiplied_out_numerators():
    # the chis over their old common denominators 11664 x^3 z kappa, 12 x^2 kappa
    # and x kappa: the same functions, with the monomial unit moved into a and b
    k = kappa()
    a0 = (mono(6, 0, -5832) + mono(12, 1, 2) + mono(9, 1, EpsPoly.eps_power(2, 2))
          + mono(3, 1, -116640) + mono(6, 2, EpsPoly.eps_power(2, 54)) + mono(6, 3, 5832)
          + mono(3, 3, EpsPoly.eps_power(2, 3888)) + mono(12, 4, -2)
          + mono(9, 4, EpsPoly.eps_power(2, -4)) + mono(6, 4, EpsPoly.eps_power(4, -2))
          + mono(3, 4, 116640) + mono(0, 4, EpsPoly.eps_power(2, 186624)))
    b0 = mono(6, 0, -5832) + mono(3, 1, -209952)
    a1 = (mono(3, 0, -204) + mono(3, 2, EpsPoly.eps_power(2, -1))
          + mono(0, 3, EpsPoly.eps_power(2, 132)) + mono(3, 3, 204))
    for (a, b, unit), j in (((a0, b0, mono(3, 1, 11664)), 0),
                            ((a1, mono(3, 0, -108), mono(2, 0, 12)), 1),
                            ((mono(0, 3, EpsPoly.eps_power(2, -3)), ZERO, mono(1, 0)), 2)):
        c = chi(j)
        assert (c.a * unit).eq_known(a) and (c.b * unit).eq_known(b)
        assert c.den == k


def test_lambda_mu_relation():
    lam, mu = lambda_fn(), mu_fn()
    z = CurveElem(mono(0, 1))
    assert (mu * z - lam).is_zero()


def test_chi0_series_values():
    s = curve_series(chi(0), 8)
    assert s.coefficient(-1) == xl({0: 1})
    assert s.coefficient(0) == zeta1()
    assert s.coefficient(1) == xl({0: {2: F(-1, 216)}})
    assert s.coefficient(2) == xl({-3: {2: F(2, 3)}})


def test_chi0_expansion_erratum_documented():
    # the widely-printed constants carry x^2 where the reduction forces x^3
    s = curve_series(chi(0), 6)
    printed_zeta1 = xl({-2: 28, 3: {2: F(-1, 5832)}, 6: F(-1, 5832)})
    assert s.coefficient(0) != printed_zeta1
    printed_z2 = xl({-2: {2: F(2, 3)}})
    assert s.coefficient(2) != printed_z2


def test_chi1_series_values():
    s = curve_series(chi(1), 8)
    assert s.coefficient(0) == zeta2()
    assert s.coefficient(1).is_zero()
    assert s.coefficient(2) == xl({-2: {2: F(1, 12)}})


def test_chi2_series_values():
    s = curve_series(chi(2), 8)
    assert all(s.coefficient(k).is_zero() for k in range(-2, 3))
    assert s.coefficient(3) == xl({-4: {2: 3}})
    assert s.coefficient(4).is_zero() and s.coefficient(5).is_zero()


def test_lambda_series():
    s = curve_series(lambda_fn(), 8)
    assert s.coefficient(-3) == xl({0: 1})
    assert s.coefficient(-2).is_zero() and s.coefficient(-1).is_zero()
    assert s.coefficient(0) == xl({0: -1})
    assert s.coefficient(1) == xl({0: {4: F(-1, 15552)}})
    assert s.coefficient(2).is_zero()
    # eps is specialised in the expansion: -2^4/15552 at z^1
    assert s.substitute_eps(2).coefficient(1) == xl({0: F(-1, 972)})


def test_pole_orders():
    lam = curve_series(lambda_fn(), 6)
    mu = curve_series(mu_fn(), 6)
    assert lam.first_nonzero()[0] == -3
    assert mu.first_nonzero()[0] == -4


def test_bc_function_identity_cases():
    assert bc_function_identity() is True
    assert bc_function_identity(CurveDef(w_eps_power=2)) is False
    assert bc_function_identity(eps=0) is True
    assert bc_function_identity(CurveDef(w_eps_power=2), eps=0) is True


def test_bc_identity_denominator_stays_small():
    # lambda and mu have their poles at q only, so Q(lambda, mu) sits over kappa^0
    lam, mu = lambda_fn(), mu_fn()
    q = (mu.power(3) - mu.power(2) * EpsPoly.eps_power(4, F(1, 15552))
         - lam.power(4) - lam.power(3))
    assert q.is_zero() and q.m == 0


def test_curve_elem_power_starts_from_the_element():
    e = chi(1)
    assert e.power(0) == CurveElem.one() and e.power(1) is e
    assert e.power(3) == e * e * e and e.power(3).m == 3
    with pytest.raises(ValueError, match="the power must be an int >= 0"):
        e.power(-1)


def test_curve_elem_derive():
    # d/dx raises the power of kappa by one; expanding commutes with it
    elems = [chi(0), chi(1), chi(2), lambda_fn(), mu_fn(), chi(0) * chi(1)]
    assert [e.m for e in elems] == [1, 1, 1, 0, 0, 2]
    for e in elems:
        d = e.derive()
        assert d.m == e.m + 1
        for n in (8, 16):
            assert curve_series(d, n) == curve_series(e, n).derive()
    assert chi(2).derive().b.is_zero()


def test_mixed_curves_rejected():
    with pytest.raises(ValueError):
        chi(0) * chi(0, CurveDef(w_eps_power=2))
    with pytest.raises(ValueError):
        chi(5)


# sha256 of (lowest, upper, numerators, denominator) of every expansion below;
# a change to any of them, down to the storage of one coefficient, fails here.
CURVE_SERIES_SHA256 = "1bde7e21977ffc8d73063d10ed9e86d0fd35adee31e088b18e9ecd615e418f97"


def test_curve_expansions_are_pinned():
    def key(s):
        # a numerator key packs (x_exp, eps_exp); the digest reads the pair
        return (s.lowest, s.upper,
                [(sorted(((k >> 20, k & (2**20 - 1)), v) for k, v in c.num.items()), c.den)
                 for c in s.coeffs])

    keys = []
    for curve in (CurveDef(), CurveDef(w_eps_power=2)):
        elems = [chi(0, curve), chi(1, curve), chi(2, curve), lambda_fn(curve), mu_fn(curve)]
        for order in (8, 24):
            keys += [key(curve_series(e, order)) for e in elems]
        keys.append(key(curve.w_series(24)))
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == CURVE_SERIES_SHA256
