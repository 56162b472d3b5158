"""Constructive pipeline: reduction frame, derivation, commutant, relation."""

from fractions import Fraction

import pytest

from bcpair import (AffineSolutionSet, BivarPoly, DiffOp, EpsPoly, PipelineError,
                    TruncationTooShort, XLAURENT_RING, XLaurent, ZSeries,
                    chi_series_triple, curve_series, derive_L1_coeffs, ep,
                    find_bc_relation, lambda_fn, make_l1, make_l2,
                    make_limit_op, mu_fn, reduce_with_frame, reduction_frame,
                    solve_commuting, verify_rank3, xl)
from bcpair import pipeline
from bcpair.pipeline import EmptyCommutant, _eliminate, _integrate_level
from conftest import rng

F = Fraction


def test_reduction_frame_matches_right_reduce(chis24):
    # the frame must agree with generic operator division for a small case
    from bcpair import right_reduce, ZSERIES_RING
    chi0, chi1, chi2 = (s.truncate(8) for s in chis24)
    frame = reduction_frame(chi0, chi1, chi2, 5)
    t = DiffOp([-chi0, -chi1, -chi2, ZSeries.one()], ZSERIES_RING)
    d5 = DiffOp.d(5, ZSERIES_RING)
    _, rem = right_reduce(d5, t)
    for j in range(3):
        assert rem.coefficient(j).eq_known(frame[5][j])


def test_right_reduce_l1_by_rank3_divisor(chis24, lam24, l1):
    # generic division route: quotient order 6, remainder (lambda)*D^0
    from bcpair import right_reduce, ZSERIES_RING
    chi0, chi1, chi2 = (s.truncate(12) for s in chis24)
    t = DiffOp([-chi0, -chi1, -chi2, ZSeries.one()], ZSERIES_RING)
    l1s = DiffOp([ZSeries.constant(c) for c in l1.coeffs], ZSERIES_RING)
    q, rem = right_reduce(l1s, t)
    assert q.order == 6
    assert rem.coefficient(0).eq_known(lam24.truncate(int(rem.coefficient(0).upper)))
    assert rem.coefficient(1).is_zero() and rem.coefficient(2).is_zero()


def test_verify_rank3_l1(chis24, lam24, l1):
    rep = verify_rank3(l1, chis24, lam24)
    assert rep.passed
    assert rep.verified_nonneg_orders >= 8
    assert rep.first_failure is None


def test_verify_rank3_l2(chis24, mu24, l2):
    rep = verify_rank3(l2, chis24, mu24)
    assert rep.passed
    assert rep.verified_nonneg_orders >= 8


def test_verify_rank3_perturbation_fails(chis24, lam24, l1):
    rep = verify_rank3(l1 + DiffOp.d(1, XLAURENT_RING), chis24, lam24)
    assert not rep.passed
    assert rep.first_failure[0] == 1      # the Q_1 component breaks first


def test_verify_rank3_wrong_eigenvalue(chis24, l2, mu24):
    # the eigenvalue of L2 is mu exactly; shifting it must fail at z^0
    shifted = mu24 + ZSeries.constant(xl({0: {4: F(1, 9)}}))
    rep = verify_rank3(l2, chis24, shifted)
    assert not rep.passed and rep.first_failure == (0, 0)


def test_derive_l1_matches_catalog(chis24, l1):
    chis = tuple(s.truncate(16) for s in chis24)
    coeffs = derive_L1_coeffs(*chis)
    for n in range(8):
        assert coeffs[n] == l1.coefficient(n)


def test_derive_l1_truncation_independent(chis24):
    a = derive_L1_coeffs(*(s.truncate(14) for s in chis24))
    b = derive_L1_coeffs(*(s.truncate(18) for s in chis24))
    assert a == b


def test_derive_l1_eps_zero_specialization(chis24, limit_op):
    coeffs = derive_L1_coeffs(*(s.truncate(16) for s in chis24))
    ident = DiffOp.identity(XLAURENT_RING)
    expect = limit_op.op_power(3) - ident
    for n in range(8):
        assert coeffs[n].substitute_eps(0) == expect.coefficient(n)


def test_derive_order12_matches_l2():
    # the same triangular system at order 12 with eigen = mu gives L2
    coeffs = derive_L1_coeffs(*chi_series_triple(20), order=12,
                              eigen=curve_series(mu_fn(), 20))
    assert coeffs == [make_l2().coefficient(n) for n in range(11)]


def test_derive_l1_truncation_too_short(chis24):
    with pytest.raises(TruncationTooShort):
        derive_L1_coeffs(*(s.truncate(6) for s in chis24))


def test_solve_commuting_constant_coefficients():
    sol = solve_commuting(DiffOp.d(3), 4)
    assert sol.contains(DiffOp.d(4))
    assert sol.dimension == 4      # 1, D, D^2, D^3
    for h in sol.homogeneous_basis:
        assert DiffOp.d(3).commutator(h).is_zero()


@pytest.fixture(scope="module")
def sol9(l1):
    return solve_commuting(l1, 9)


def test_solve_commuting_order9(l1, sol9):
    assert sol9.dimension == 1
    assert sol9.contains(l1)
    assert sol9.contains(sol9.particular + DiffOp.identity(XLAURENT_RING))


@pytest.mark.parametrize("order", [3, 4, 5, 6])
def test_solve_commuting_empty_orders_named(l1, order):
    # 3 and 6 are the genus-2 gaps at the non-Weierstrass point q; 4 and 5
    # are not multiples of the rank 3
    with pytest.raises(EmptyCommutant,
                       match=rf"no monic operator of order {order} .*"
                             r"commutator coefficient D\^\d+ \(x\^-?\d+ term\) cannot vanish"):
        solve_commuting(l1, order)


def test_solve_commuting_x_inverse_obstruction_names_b_j():
    # For a monic operator with Laurent coefficients every integrand is an
    # exact derivative (Schur), so no such operator reaches an obstruction;
    # the level step is driven directly.  Level b_1 of an order-3 B against
    # an order-2 A: component 2 is the constant c_2, component 3 the
    # particular part.  c_2's x^-1 term absorbs the particular one ...
    parts, rows = _integrate_level({2: XLaurent.monomial(-1), 3: xl({-1: 3, 1: 4})}, 2, 1)
    assert parts == {3: xl({2: -1})}
    assert _eliminate(rows, 3).primitive_solution(3) == {2: ep(-3), 3: ep(1)}
    # ... and without c_2 the family is empty, named by b_1
    _, rows = _integrate_level({3: xl({-1: 3, 1: 4})}, 2, 1)
    with pytest.raises(EmptyCommutant, match=r"x\^-1 obstruction of b_1 cannot vanish"):
        _eliminate(rows, 3)


def test_solve_commuting_order15(l1, l2):
    # homogeneous part 1, L1, L2: the pole orders 0, 3, 4 below 5 at q
    sol = solve_commuting(l1, 15)
    assert sol.dimension == 3
    for op in (DiffOp.identity(XLAURENT_RING), l1, l2):
        assert sol.contains(sol.particular + op)
    assert sol.particular.order == 15 and sol.particular.is_monic()
    assert l1.commutator(sol.particular).is_zero()
    assert l2.commutator(sol.particular).is_zero()


def test_affine_set_sample_and_membership(l1, sol9):
    sol = sol9
    r = rng(40)
    params = [F(r.randint(-20, 20), r.randint(1, 7))
              for _ in sol.homogeneous_basis]
    member = sol.sample(params)
    assert l1.commutator(member).is_zero()
    assert sol.contains(member)
    assert not sol.contains(sol.particular + DiffOp.d(1, XLAURENT_RING))


@pytest.fixture(scope="module")
def sol12(l1):
    return solve_commuting(l1, 12)


def test_affine_set_contains_odd_eps_multiples(l1, sol12):
    # the family is a Q[eps]-module: odd eps powers of 1 and L1 belong to it
    ident = DiffOp.identity(XLAURENT_RING)
    assert sol12.contains(sol12.particular + ident.scale(EpsPoly.eps_power(1)))
    assert sol12.contains(sol12.particular + l1.scale(EpsPoly.eps_power(3)))


def test_affine_set_contains_needs_polynomial_coefficients():
    # D^2 + 1 = D^2 + (1/eps) * (eps*1): in the Q(eps)-span, not the Q[eps]-span
    eps = EpsPoly.eps_power(1)
    ident = DiffOp.identity(XLAURENT_RING)
    fam = AffineSolutionSet(DiffOp.d(2), [ident.scale(eps)])
    assert fam.contains(DiffOp.d(2) + ident.scale(eps * eps))
    assert not fam.contains(DiffOp.d(2) + ident)


def test_find_bc_relation_trivial():
    q = find_bc_relation(DiffOp.d(1), DiffOp.d(2), 4)
    assert q == BivarPoly({(0, 1): ep(1), (2, 0): ep(-1)})


def test_find_bc_relation_d3_d4():
    q = find_bc_relation(DiffOp.d(3), DiffOp.d(4), 12)
    assert q == BivarPoly({(0, 3): ep(1), (4, 0): ep(-1)})


def test_find_bc_relation_limit_pair(limit_op):
    ident = DiffOp.identity(XLAURENT_RING)
    a = limit_op.op_power(3) - ident
    b = limit_op.op_power(4) - limit_op
    q = find_bc_relation(a, b, 36)
    assert q == BivarPoly({(0, 3): ep(1), (4, 0): ep(-1), (3, 0): ep(-1)})


@pytest.mark.parametrize("k", [1, 6])
def test_find_bc_relation_eps_dependent_pair(k):
    # (D^3 + eps^k D)^2 = D^6 + 2 eps^k D^4 + eps^2k D^2: odd eps powers at
    # k = 1, eps^12 at k = 6; no eps-degree bounds the relation
    epsk = EpsPoly.eps_power(k)
    q = find_bc_relation(DiffOp.d(2), DiffOp.d(3) + DiffOp.d(1).scale(epsk), 6)
    assert q == BivarPoly({(0, 2): ep(1), (3, 0): ep(-1), (2, 0): epsk.scale(-2),
                           (1, 0): (epsk * epsk).scale(-1)})


def test_find_bc_relation_none_within_bound():
    assert find_bc_relation(DiffOp.d(2), DiffOp.d(3), 5) is None


def test_find_bc_relation_rejects_noncommuting():
    x_op = DiffOp.from_coeff(XLaurent.var(), XLAURENT_RING).compose(DiffOp.d(1))
    with pytest.raises(PipelineError):
        find_bc_relation(DiffOp.d(1) + x_op, DiffOp.d(2), 6)


def _plus_z_term(series, zexp, coeff):
    return series + ZSeries.from_z_coefficients({zexp: coeff})


def test_derive_l1_names_rows_without_unit_pivot(chis24):
    # a z^-1 term in chi2 fills the z^-2 rows, so no row has a single unit pivot
    chi0, chi1, chi2 = (s.truncate(16) for s in chis24)
    with pytest.raises(PipelineError) as err:
        derive_L1_coeffs(chi0, chi1, _plus_z_term(chi2, -1, XLaurent.one()))
    msg = str(err.value)
    assert "no unit pivot" in msg
    for j in range(3):
        for s in (-2, -1, 0):
            assert f"Q_{j}, z-order {s}" in msg


def test_derive_l1_names_inconsistent_row(chis24):
    # a z^0 term in chi2 leaves the pivots alone but breaks row (2, -2)
    chi0, chi1, chi2 = (s.truncate(16) for s in chis24)
    with pytest.raises(PipelineError, match=r"inconsistent at component Q_2, z-order -2"):
        derive_L1_coeffs(chi0, chi1, _plus_z_term(chi2, 0, XLaurent.var()))


def test_derive_l1_wrong_eigenvalue_fails_reverification(chis24):
    chis = tuple(s.truncate(16) for s in chis24)
    eigen = _plus_z_term(curve_series(lambda_fn(), 16), -1, XLaurent.var())
    with pytest.raises(PipelineError,
                       match=r"re-verification.*component Q_0, z-order 1"):
        derive_L1_coeffs(*chis, eigen=eigen)


def test_derive_l1_reverifies_on_its_own_frame(monkeypatch, chis24, l1):
    calls = []
    inner = pipeline.reduction_frame

    def counting(*args):
        calls.append(args[3])          # the frame's top order
        return inner(*args)
    monkeypatch.setattr(pipeline, "reduction_frame", counting)
    coeffs = derive_L1_coeffs(*(s.truncate(16) for s in chis24))
    assert list(l1.coeffs[:8]) == coeffs
    assert calls == [9]
