"""Transcription guards for the catalogued operators and scalar data.

One assertion per displayed monomial, so a typo in the tables shows up here
by name rather than as a distant commutator failure.
"""

from fractions import Fraction

from bcpair import (DiffOp, bc_poly,
                    chi_series_triple, curve_series, ep, make_l1, make_l2,
                    make_limit_op, xl, zeta1, zeta2)
from bcpair.exact import BivarPoly, EpsPoly

F = Fraction


def mono(op: DiffOp, k: int, xe: int, ee: int = 0) -> F:
    return op.coefficient(k).c.get(xe, EpsPoly.zero()).c.get(ee, F(0))


def test_l1_shape():
    l1 = make_l1()
    assert l1.order == 9
    assert l1.is_monic()
    assert l1.coefficient(8).is_zero()


def test_l1_f7_f6_f5_f4():
    l1 = make_l1()
    assert l1.coefficient(7) == xl({-2: -78})
    assert l1.coefficient(6) == xl({-3: 384, 3: {2: F(1, 1944)}, 6: F(1, 1944)})
    assert l1.coefficient(5) == xl({-4: -24, 2: {2: F(1, 216)}, 5: F(1, 108)})
    assert l1.coefficient(4) == xl({-5: -4800, 1: {2: F(-2, 243)}, 4: F(16, 243)})


def test_l1_f3_f2_f1():
    l1 = make_l1()
    assert l1.coefficient(3) == xl({
        0: {2: F(-143, 1944)}, -6: 19120, 3: F(79, 486),
        6: {4: F(1, 11337408)}, 9: {2: F(1, 5668704)}, 12: F(1, 11337408)})
    assert l1.coefficient(2) == xl({
        -7: -43200, -1: {2: F(26, 243)}, 2: F(-73, 243),
        5: {4: F(1, 1259712)}, 8: {2: F(1, 419904)}, 11: F(1, 629856)})
    assert l1.coefficient(1) == xl({
        -8: 58240, -2: {2: F(55, 243)}, 1: F(-152, 243),
        4: {4: F(5, 5668704)}, 7: {2: F(2, 177147)}, 10: F(17, 1417176)})


def test_l1_f0_monomials():
    l1 = make_l1()
    assert mono(l1, 0, 0) == F(152, 243)
    assert mono(l1, 0, -9) == -58240
    assert mono(l1, 0, -3, 2) == F(-55, 243)
    assert mono(l1, 0, 3, 4) == F(-37, 11337408)
    assert mono(l1, 0, 6, 2) == F(115, 11337408)
    assert mono(l1, 0, 9) == F(37, 1417176)
    assert mono(l1, 0, 9, 6) == F(1, 198359290368)
    assert mono(l1, 0, 12, 4) == F(1, 66119763456)
    assert mono(l1, 0, 15, 2) == F(1, 66119763456)
    assert mono(l1, 0, 18) == F(1, 198359290368)


def test_l2_shape():
    l2 = make_l2()
    assert l2.order == 12
    assert l2.is_monic()
    assert l2.coefficient(11).is_zero()


def test_l2_top_coefficients():
    l2 = make_l2()
    assert l2.coefficient(10) == xl({-2: -104})
    assert l2.coefficient(9) == xl({-3: 824, 3: {2: F(1, 1458)}, 6: F(1, 1458)})
    assert l2.coefficient(8) == xl({-4: -2856, 2: {2: F(1, 108)}, 5: F(1, 54)})
    assert l2.coefficient(7) == xl({-5: -672, 1: {2: F(1, 486)}, 4: F(109, 486)})


def test_l2_g6_g5_g4():
    l2 = make_l2()
    assert l2.coefficient(6) == xl({
        0: {2: F(-167, 972)}, -6: 86464, 3: F(316, 243),
        6: {4: F(1, 5668704)}, 9: {2: F(1, 2834352)}, 12: F(1, 5668704)})
    assert l2.coefficient(5) == xl({
        -7: -693504, -1: {2: F(-13, 243)}, 2: F(221, 243),
        5: {4: F(1, 314928)}, 8: {2: F(1, 104976)}, 11: F(1, 157464)})
    assert l2.coefficient(4) == xl({
        -8: 3395840, -2: {2: F(271, 243)}, 1: F(-2834, 243),
        4: {4: F(193, 11337408)}, 7: {2: F(317, 2834352)}, 10: F(307, 2834352)})


def test_l2_g3_g2_g1():
    l2 = make_l2()
    assert l2.coefficient(3) == xl({
        0: F(-5992, 729), -9: -11567360, -3: {2: F(1028, 729)},
        3: {4: F(25, 1417176)}, 6: {2: F(457, 708588)},
        9: {0: F(1393, 1417176), 6: F(1, 49589822592)},
        12: {4: F(1, 16529940864)}, 15: {2: F(1, 16529940864)},
        18: F(1, 49589822592)})
    assert l2.coefficient(2) == xl({
        -10: 27758080, -4: {2: F(-182, 27)}, -1: F(296, 9),
        2: {4: F(-413, 5668704)}, 5: {2: F(4339, 2834352)},
        8: {0: F(6595, 1417176), 6: F(1, 3673320192)},
        11: {4: F(1, 918330048)}, 14: {2: F(5, 3673320192)},
        17: F(1, 1836660096)})
    assert l2.coefficient(1) == xl({
        -11: -45660160, -5: {2: F(4928, 729)}, -2: F(20048, 729),
        1: {4: F(-203, 2834352)}, 4: {2: F(1691, 2834352)},
        7: {0: F(7111, 708588), 6: F(55, 49589822592)},
        10: {4: F(127, 16529940864)}, 13: {2: F(217, 16529940864)},
        16: F(325, 49589822592)})


def test_l2_g0_displayed_monomials():
    l2 = make_l2()
    assert mono(l2, 0, -12) == 45660160
    assert mono(l2, 0, -6, 2) == F(-4928, 729)
    assert mono(l2, 0, -3) == F(-20048, 729)
    assert mono(l2, 0, 3, 2) == F(-605, 708588)
    assert mono(l2, 0, 6) == F(4553, 708588)
    assert mono(l2, 0, 6, 6) == F(79, 99179645184)
    assert mono(l2, 0, 9, 4) == F(269, 16529940864)
    assert mono(l2, 0, 12, 2) == F(683, 16529940864)
    assert mono(l2, 0, 12, 8) == F(1, 1156831381426176)
    assert mono(l2, 0, 15) == F(661, 24794911296)
    assert mono(l2, 0, 15, 6) == F(1, 289207845356544)
    assert mono(l2, 0, 18, 4) == F(1, 192805230237696)
    assert mono(l2, 0, 21, 2) == F(1, 289207845356544)
    assert mono(l2, 0, 24) == F(1, 1156831381426176)


def test_l2_g0_pinned_constant():
    # absent from the published table, forced by the algebraic relation and
    # by the eigenvalue mu; see the rank-3 and relation tests
    assert mono(make_l2(), 0, 0, 4) == F(1541, 11337408)


def test_limit_op():
    gen = make_limit_op()
    assert gen.order == 3
    assert gen.coefficient(1) == xl({-2: -26})
    assert gen.coefficient(0) == xl({-3: -28, 6: F(1, 5832)})
    assert gen.coefficient(2).is_zero()
    assert all(set(epoly.c) == {0} for c in gen.coeffs for epoly in c.c.values())


def test_eps_zero_factorizations(l1, l2, limit_op):
    ident = DiffOp.identity()
    assert l1.substitute_eps(0) == limit_op.op_power(3) - ident
    assert l2.substitute_eps(0) == limit_op.op_power(4) - limit_op


def test_limit_op_apply_to_one(limit_op):
    assert limit_op.apply(xl({0: 1})) == xl({-3: -28, 6: F(1, 5832)})


def test_support_bounds(l1, l2):
    for op in (l1, l2):
        for c in op.coeffs:
            for xe, epoly in c.c.items():
                assert all(ee % 2 == 0 and ee <= 8 for ee in epoly.c)
                assert -12 <= xe <= 24


def test_zeta_values_and_cross_module():
    assert zeta2() == xl({-2: 26})
    assert zeta1() == xl({-3: 28, 3: {2: F(-1, 5832)}, 6: F(-1, 5832)})
    c0, c1, _ = chi_series_triple(6)
    assert c0.coefficient(0) == zeta1()
    assert c1.coefficient(0) == zeta2()


def test_bc_poly_shape():
    q = bc_poly()
    assert q.c[(0, 3)] == ep(1)
    assert q.c[(0, 2)] == EpsPoly.eps_power(4, F(-1, 15552))
    assert q.c[(4, 0)] == ep(-1)
    assert q.c[(3, 0)] == ep(-1)
    assert len(q.c) == 4


def test_commutation(l1, l2):
    assert l1.commutator(l2).is_zero()
