"""High-precision verification of the pole-data compatibility system."""

import hashlib
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf, workdps

from bcpair import (BranchAssignment, gamma_equation_residual, gamma_eval,
                    kn_check, kn_residuals, pole_data_from_chi)
from bcpair import XLaurent, ZSeries, kncheck, xl
from bcpair.kncheck import Jet, _point_quantities, default_tolerance, find_branch
from conftest import ROOT, child_env

F = Fraction


def test_jet_arithmetic():
    with workdps(30):
        x = Jet((mpf(2), mpf(1), mpf(0)))
        p = x * x + 3 * x - 1          # value 9, d1 = 2x+3 = 7, d2 = 2
        assert p.d[0] == 9 and p.d[1] == 7 and p.d[2] == 2
        q = 1 / x
        assert abs(q.d[1] + mpf(1) / 4) < mpf(10) ** -25
        s = x.sqrt_with_value(mp.sqrt(mpf(2)))
        assert abs((s * s).d[0] - 2) < mpf(10) ** -25
        assert abs((s * s).d[1] - 1) < mpf(10) ** -25


def _bits(jet):
    return [v._mpc_ if hasattr(v, "_mpc_") else v._mpf_ for v in jet.d]


def test_jet_scalar_paths_match_const_convolution():
    # acting on the entries directly is bit-identical to promoting the scalar
    with workdps(70):
        real = Jet(gamma_eval(F(3, 2), -1, 4, 60))
        cplx = real * (mpc(1, 2) / 3)
        for jet in (real, cplx):
            for c in (3, -7, F(2, 3), mpf(2) / 7, mp.sqrt(3), mpc(1, 3) / 7):
                const = Jet.const(c, jet.order)
                assert _bits(jet * c) == _bits(c * jet) == _bits(jet * const)
                assert _bits(jet + c) == _bits(c + jet) == _bits(jet + const)
                assert _bits(jet - c) == _bits(jet - const)
                assert _bits(c - jet) == _bits(const - jet)
                if jet is cplx or not isinstance(c, mpc):
                    # a real jet over a complex scalar is left out: there the
                    # convolution itself rounds entry 0 and the later entries
                    # by different mpmath routines; the kernel never divides so
                    assert _bits(jet / c) == _bits(jet / const)


def _ref_mul(a, b):
    # the binomial convolution summed from int 0, every term scaled by C(k, i)
    n = min(len(a.d), len(b.d))
    return Jet(tuple(sum(math.comb(k, i) * a.d[i] * b.d[k - i] for i in range(k + 1))
                     for k in range(n)))


def _ref_div(a, b):
    n = min(len(a.d), len(b.d))
    out = []
    for k in range(n):
        acc = a.d[k]
        for i in range(k):
            acc -= math.comb(k, i) * out[i] * b.d[k - i]
        out.append(acc / b.d[0])
    return Jet(tuple(out))


def test_jet_product_and_quotient_match_reference_convolution():
    rng = random.Random(16)
    with workdps(50):
        def jet(n, complex_):
            def entry():
                v = mpf(rng.randint(-10**6, 10**6)) / rng.randint(1, 10**4)
                return mpc(v, mpf(rng.randint(-10**6, 10**6)) / 7) if complex_ else v
            return Jet(tuple(entry() for _ in range(n)))
        for _ in range(40):
            for n, m in itertools.product(range(1, 6), repeat=2):
                a = jet(n, rng.random() < 0.5)
                b = jet(m, rng.random() < 0.5)
                while b.d[0] == 0:
                    b = jet(m, rng.random() < 0.5)
                assert _bits(a * b) == _bits(_ref_mul(a, b))
                assert _bits(a / b) == _bits(_ref_div(a, b))


def test_jet_powers_and_truncation():
    with workdps(40):
        x = Jet((mpf(3), mpf(1), mpf(0), mpf(0)))
        assert _bits(x**0) == _bits(Jet.const(1, 3))
        assert _bits(x**1) == _bits(x)
        assert _bits(x**3) == _bits(x * x * x)
        assert (x**3).d == (27, 27, 18, 6)
        t = x.truncate(1)
        assert t.order == 1 and t.d == x.d[:2]
        assert x.truncate(5).d == x.d
        # a product of mixed lengths keeps the shorter length and its entries
        y = Jet((mpf(2), mpf(5), mpf(7), mpf(11)))
        assert _bits(x * y.truncate(1)) == _bits(x * y)[:2]
        assert _bits((x / y).truncate(2)) == _bits(x.truncate(2) / y)


def test_jet_negative_power_is_an_error():
    # a negative power used to return the jet itself; 1 / x is the inverse
    x = Jet((2, 1, 0))
    for n in (-1, -3):
        with pytest.raises(ValueError, match="n >= 0"):
            x ** n
    with workdps(40):
        assert (1 / Jet((mpf(2), mpf(1), mpf(0)))).d == (mpf(1) / 2, -mpf(1) / 4, mpf(1) / 4)


def test_gamma_eval_derivative_count():
    full = gamma_eval(F(3, 2), -1, 4, 60)
    for n in range(5):
        assert gamma_eval(F(3, 2), -1, n, 60) == full[:n + 1]


def test_gamma_values():
    assert gamma_eval(0, -1, 0)[0] == 0
    g = gamma_eval(1, -1, 0, 40)[0]
    with workdps(50):
        assert abs(g - mpf(2) ** (mpf(-1) / 3)) < mpf(10) ** -39


def test_gamma_derivatives_against_finite_differences():
    with workdps(60):
        h = mpf(10) ** -15
        x = mpf(3) / 2
        vals = gamma_eval(x, -1, 4, 50)
        plus = gamma_eval(x + h, -1, 3, 50)
        minus = gamma_eval(x - h, -1, 3, 50)
        for k in range(4):
            fd = (plus[k] - minus[k]) / (2 * h)
            assert abs(fd - vals[k + 1]) < mpf(10) ** -25


def test_gamma_domain_and_sign_checks():
    with pytest.raises(ValueError):
        gamma_eval(1, 1, 0)             # eps must be negative
    with pytest.raises(ValueError):
        gamma_eval(-2, -1, 0)           # x^3 + eps^2 <= 0
    with pytest.raises(ValueError):
        kn_residuals(0, -1)             # gamma vanishes at x = 0


def test_gamma_equation_residual_tiny():
    assert gamma_equation_residual(2, -1, 60) < mpf(10) ** -50
    assert gamma_equation_residual(F(3, 2), F(-2), 60) < mpf(10) ** -50


def test_cube_roots_of_unity():
    with workdps(60):
        a = (-1 + mp.sqrt(mpf(3)) * mp.mpc(0, 1)) / 2
        assert abs(a**3 - 1) < mpf(10) ** -55
        assert abs(1 + a + a**2) < mpf(10) ** -55


def test_kn_residuals_at_x2():
    data = kn_residuals(2, -1, 60)
    assert data.max_residual < default_tolerance(60)
    assert len(data.residuals) == 12
    # alpha_{i2} = 1 exactly by construction, d_{i2} = -2 gamma'/gamma
    with workdps(70):
        g, gp = gamma_eval(2, -1, 1, 60)
        for i in range(6):
            assert data.alphas[i][2].value() == 1
            assert abs(data.ds[i][2].value() + 2 * gp / g) < mpf(10) ** -50


def test_sigma_pairing():
    data = kn_residuals(2, -1, 50)
    # the second pole triple carries the conjugate sheet: alpha and d for
    # i and i+3 agree once the sign of the w-dependent part flips, which
    # shows up as both rows solving the system with the same gamma data
    for s in range(3):
        for j in range(2):
            assert data.alphas[s][j].value() != data.alphas[s + 3][j].value()
    flipped = _point_quantities(2, -1, 50, BranchAssignment(w_signs=(1, 1, 1)))
    for s in range(3):
        for j in range(2):
            assert abs(flipped.alphas[s][j].value()
                       - data.alphas[s + 3][j].value()) < mpf(10) ** -40


def test_residue_extraction_cross_check():
    alphas, ds = pole_data_from_chi(2, -1, 60)
    data = kn_residuals(2, -1, 60)
    for i in range(6):
        for j in range(3):
            assert abs(alphas[i][j].value() - data.alphas[i][j].value()) < mpf(10) ** -45
            assert abs(ds[i][j].value() - data.ds[i][j].value()) < mpf(10) ** -45


def test_zpoly_jets_places_coefficients_and_refuses_a_pole_at_q():
    # 3 + x z^2 lands at z^0 and z^2; z^-1 + 1 has no place in a list from z^0
    xj = Jet((mpf(2), mpf(1)))
    p = ZSeries.from_z_coefficients({0: xl({0: 3}), 2: xl({1: 1})})
    jets = kncheck._zpoly_jets(p, xj, mpf(-1))
    assert [j.value() for j in jets] == [3, 0, 2]
    pole = ZSeries.from_z_coefficients({-1: XLaurent.one(), 0: XLaurent.one()})
    with pytest.raises(ValueError, match="lowest = -1"):
        kncheck._zpoly_jets(pole, xj, mpf(-1))
    z = ZSeries(1, [XLaurent.one()])
    assert [j.value() for j in kncheck._zpoly_jets(pole * z, xj, mpf(-1))] == [1, 1]


def test_displayed_variant_fails():
    with pytest.raises(ArithmeticError, match=r"Eq\[\d, [01]\] \(pole \d\)"):
        kn_residuals(2, -1, 40, variant="displayed")


def test_global_branch_choices_are_distinct():
    # no redundant axis: each of the eight global choices moves the residuals
    vectors = [_point_quantities(2, -1, 40, BranchAssignment(phase, s3),
                                 "displayed").residuals
               for phase, s3 in itertools.product(range(4), range(2))]
    for u, v in itertools.combinations(vectors, 2):
        assert max(abs(a - b) for a, b in zip(u, v)) > mpf(10) ** -5


RESIDUAL_SHA256 = {
    (2, -1, 60, "resolved"):
        "1fc4bd3f019c7fb847c14ad452f3de8ce07d689695886bb60e1a3e2c0ceb1bc7",
    (F(4, 3), F(-3, 2), 240, "resolved"):
        "6a08a06c744c06b5b4bf8029c65acd67b31e4bd1b9ff9811ebb7ea1924ad7c9f",
    (2, -1, 40, "displayed"):
        "e749a4df0d628c61285f6715bc6d3cccf3f56e67c60e3860465a46fad438f09b",
}


def _residual_digest(residuals):
    parts = [tuple(tuple(int(v) for v in c)
                   for c in (r._mpc_ if hasattr(r, "_mpc_") else (r._mpf_,)))
             for r in residuals]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("x, eps, precision, variant", list(RESIDUAL_SHA256))
def test_point_residuals_bit_identical(x, eps, precision, variant):
    # the exact mpmath bits of the twelve residuals on the principal branch
    data = _point_quantities(x, eps, precision, BranchAssignment(), variant)
    assert _residual_digest(data.residuals) == RESIDUAL_SHA256[x, eps, precision, variant]


POLE_DATA_SHA256 = {
    (2, -1, 60, "resolved"):
        "9b9df9d8dacfa7ddc96a3201ed74c2dbf4ee7a36880408ede0e72c4aa6975935",
    (F(4, 3), F(-3, 2), 240, "resolved"):
        "3760491f2070389b4e6c0819501e7d833987da3684ea5baa26f26cc32f5795f4",
    (2, -1, 40, "displayed"):
        "ad2c9000c32cdf9857c741f1e941ec8d407d09398e78e6be67d32f704cc8803b",
}


@pytest.mark.parametrize("x, eps, precision, variant", list(POLE_DATA_SHA256))
def test_pole_data_jets_bit_identical(x, eps, precision, variant):
    # every entry of every alphas and ds jet, not only the residuals read from them
    data = _point_quantities(x, eps, precision, BranchAssignment(), variant)
    entries = [v for rows in (data.alphas, data.ds) for row in rows for jet in row
               for v in jet.d]
    assert _residual_digest(entries) == POLE_DATA_SHA256[x, eps, precision, variant]


@pytest.mark.parametrize("variant", ["resolved", "displayed"])
def test_sheet_flip_is_pole_relabelling(variant):
    # w on the other sheet at every pole gives pole i the equations of pole i+3
    swap = [((r // 2 + 3) % 6) * 2 + r % 2 for r in range(12)]
    for x, eps in ((2, -1), (F(4, 3), F(-3, 2))):
        for phase, s3 in itertools.product(range(4), range(2)):
            principal = _point_quantities(x, eps, 30, BranchAssignment(phase, s3), variant)
            flipped = _point_quantities(x, eps, 30, BranchAssignment(phase, s3, (1, 1, 1)),
                                        variant)
            assert (_residual_digest([principal.residuals[r] for r in swap])
                    == _residual_digest(flipped.residuals))


def test_find_branch_evaluations(monkeypatch):
    calls = []
    inner = kncheck._point_quantities

    def counting(*args, **kwargs):
        calls.append(args[3])          # the branch assignment evaluated
        return inner(*args, **kwargs)
    monkeypatch.setattr(kncheck, "_point_quantities", counting)
    found = find_branch(2, -1, 60)
    assert found.branch == BranchAssignment()
    assert found.max_residual < default_tolerance(60)
    assert calls == [BranchAssignment()]
    calls.clear()
    with pytest.raises(ArithmeticError, match=r"Eq\[\d, [01]\]"):
        find_branch(2, -1, 40, variant="displayed")
    assert len(calls) <= 8 and len(set(calls)) == len(calls)
    calls.clear()
    # kn_check reuses the accepted evaluation for its first point
    assert kn_check(points=(2, 3), eps=-1, precision=60).passed
    assert len(calls) == 2


def test_kn_check_validates_points_before_evaluating(monkeypatch):
    calls = []
    inner = kncheck.gamma_eval

    def counting(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)
    monkeypatch.setattr(kncheck, "gamma_eval", counting)
    with pytest.raises(ValueError, match="x = 0 is excluded"):
        kn_check(points=[1, 0], eps=-1, precision=60)
    with pytest.raises(ValueError, match="at least one sample point"):
        kn_check(points=[], eps=-1, precision=60)
    # x^3 + eps^2 = -7 at the second point: rejected before x = 1 is evaluated
    with pytest.raises(ValueError, match="x = -2 is outside the domain"):
        kn_check(points=[1, -2], eps=-1, precision=60)
    with pytest.raises(ValueError, match="outside the domain"):
        kn_residuals(-2, -1, 60)
    # the domain is decided over the rationals: an mpmath point is refused
    with pytest.raises(ValueError, match="is not a rational number"):
        kn_residuals(mpf(2), -1, 60)
    with pytest.raises(ValueError, match="is not a rational number"):
        kn_check(points=[1, float("nan")], eps=-1, precision=60)
    # find_branch is public: it checks its point too
    with pytest.raises(ValueError, match="^x = 0 is excluded: gamma vanishes$"):
        find_branch(0, -1)
    with pytest.raises(ValueError, match="eps must be negative"):
        kn_check(points=[1, 2], eps=1, precision=60)
    # points are compared as rationals: 2/2 and 1.0 repeat x = 1
    for repeat in (1, Fraction(2, 2), 1.0):
        with pytest.raises(ValueError, match=rf"^x = {repeat} repeats an earlier point$"):
            kn_check(points=[1, 2, repeat], eps=-1, precision=60)
    assert calls == []


def test_unknown_variant_is_rejected_before_evaluating(monkeypatch):
    calls = []
    inner = kncheck.gamma_eval

    def counting(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)
    monkeypatch.setattr(kncheck, "gamma_eval", counting)
    for variant in ("displayd", "Resolved", "", None):
        with pytest.raises(ValueError, match="unknown kn variant"):
            kn_residuals(2, -1, 60, variant=variant)
        with pytest.raises(ValueError, match="unknown kn variant"):
            kn_residuals(2, -1, 60, branch=BranchAssignment(), variant=variant)
        with pytest.raises(ValueError, match="unknown kn variant"):
            find_branch(2, -1, 60, variant=variant)
    assert calls == []


def test_kn_check_multipoint():
    rep = kn_check(points=(1, F(3, 2), 2, 3, 5), eps=-1, precision=60)
    assert rep.passed
    assert rep.max_residual < mpf(10) ** -40
    assert rep.max_gamma_residual < mpf(10) ** -50


def test_default_tolerance_rejects_vacuous_precision():
    assert default_tolerance(30) == mpf(10) ** -10
    for precision in (29, 5, -1):
        with pytest.raises(ValueError, match="precision >= 30"):
            default_tolerance(precision)
    with pytest.raises(ValueError, match="precision >= 30"):
        kn_check(points=(2,), eps=-1, precision=5)


def test_kn_residuals_other_eps():
    data = kn_residuals(3, F(-1, 2), 60)
    assert data.max_residual < default_tolerance(60)


def test_residual_scan_script_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "residual_scan.py"),
         "--precisions", "30", "--points", "2"],
        capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[-1]
    assert row.split("|")[0].strip() == "30" and "principal" in row
