"""The concrete operator pair and its scalar companions.

``make_l1`` (order 9) and ``make_l2`` (order 12) are entered monomial by
monomial as exact rationals; ``[L1, L2] = 0`` is the oracle that guards the
transcription, so any typo here shows up as a nonzero commutator coefficient
rather than as a silently wrong constant.  ``make_limit_op`` is the order-3
operator generating both at eps = 0, and ``bc_poly`` the algebraic relation
satisfied by the pair.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import BivarPoly, EpsPoly, XLaurent, xl
from .diffop import DiffOp

F = Fraction


def make_l1() -> DiffOp:
    """The order-9 operator; monic, with no D^8 term."""
    f0 = xl({
        0: F(152, 243),
        -9: -58240,
        -3: {2: F(-55, 243)},
        3: {4: F(-37, 11337408)},
        6: {2: F(115, 11337408)},
        9: {0: F(37, 1417176), 6: F(1, 198359290368)},
        12: {4: F(1, 66119763456)},
        15: {2: F(1, 66119763456)},
        18: F(1, 198359290368),
    })
    f1 = xl({
        -8: 58240,
        -2: {2: F(55, 243)},
        1: F(-152, 243),
        4: {4: F(5, 5668704)},
        7: {2: F(2, 177147)},
        10: F(17, 1417176),
    })
    f2 = xl({
        -7: -43200,
        -1: {2: F(26, 243)},
        2: F(-73, 243),
        5: {4: F(1, 1259712)},
        8: {2: F(1, 419904)},
        11: F(1, 629856),
    })
    f3 = xl({
        0: {2: F(-143, 1944)},
        -6: 19120,
        3: F(79, 486),
        6: {4: F(1, 11337408)},
        9: {2: F(1, 5668704)},
        12: F(1, 11337408),
    })
    f4 = xl({
        -5: -4800,
        1: {2: F(-2, 243)},
        4: F(16, 243),
    })
    f5 = xl({
        -4: -24,
        2: {2: F(1, 216)},
        5: F(1, 108),
    })
    f6 = xl({
        -3: 384,
        3: {2: F(1, 1944)},
        6: F(1, 1944),
    })
    f7 = xl({-2: -78})
    f8 = XLaurent.zero()
    return DiffOp([f0, f1, f2, f3, f4, f5, f6, f7, f8, XLaurent.one()])


def make_l2() -> DiffOp:
    """The order-12 operator commuting with the order-9 one; no D^11 term.

    The constant term 1541*eps^4/11337408 in g0 is forced: it is the unique
    additive constant under which the operator's eigenvalue is exactly the
    order-4-pole function mu and the pair satisfies the cubic-quartic
    algebraic relation.  Dropping it still commutes (constants always do) but
    shifts the eigenvalue and breaks the relation by that same constant.
    """
    g0 = xl({
        0: {4: F(1541, 11337408)},
        -12: 45660160,
        -6: {2: F(-4928, 729)},
        -3: F(-20048, 729),
        3: {2: F(-605, 708588)},
        6: {0: F(4553, 708588), 6: F(79, 99179645184)},
        9: {4: F(269, 16529940864)},
        12: {2: F(683, 16529940864), 8: F(1, 1156831381426176)},
        15: {0: F(661, 24794911296), 6: F(1, 289207845356544)},
        18: {4: F(1, 192805230237696)},
        21: {2: F(1, 289207845356544)},
        24: F(1, 1156831381426176),
    })
    g1 = xl({
        -11: -45660160,
        -5: {2: F(4928, 729)},
        -2: F(20048, 729),
        1: {4: F(-203, 2834352)},
        4: {2: F(1691, 2834352)},
        7: {0: F(7111, 708588), 6: F(55, 49589822592)},
        10: {4: F(127, 16529940864)},
        13: {2: F(217, 16529940864)},
        16: F(325, 49589822592),
    })
    g2 = xl({
        -10: 27758080,
        -4: {2: F(-182, 27)},
        -1: F(296, 9),
        2: {4: F(-413, 5668704)},
        5: {2: F(4339, 2834352)},
        8: {0: F(6595, 1417176), 6: F(1, 3673320192)},
        11: {4: F(1, 918330048)},
        14: {2: F(5, 3673320192)},
        17: F(1, 1836660096),
    })
    g3 = xl({
        0: F(-5992, 729),
        -9: -11567360,
        -3: {2: F(1028, 729)},
        3: {4: F(25, 1417176)},
        6: {2: F(457, 708588)},
        9: {0: F(1393, 1417176), 6: F(1, 49589822592)},
        12: {4: F(1, 16529940864)},
        15: {2: F(1, 16529940864)},
        18: F(1, 49589822592),
    })
    g4 = xl({
        -8: 3395840,
        -2: {2: F(271, 243)},
        1: F(-2834, 243),
        4: {4: F(193, 11337408)},
        7: {2: F(317, 2834352)},
        10: F(307, 2834352),
    })
    g5 = xl({
        -7: -693504,
        -1: {2: F(-13, 243)},
        2: F(221, 243),
        5: {4: F(1, 314928)},
        8: {2: F(1, 104976)},
        11: F(1, 157464),
    })
    g6 = xl({
        0: {2: F(-167, 972)},
        -6: 86464,
        3: F(316, 243),
        6: {4: F(1, 5668704)},
        9: {2: F(1, 2834352)},
        12: F(1, 5668704),
    })
    g7 = xl({
        -5: -672,
        1: {2: F(1, 486)},
        4: F(109, 486),
    })
    g8 = xl({
        -4: -2856,
        2: {2: F(1, 108)},
        5: F(1, 54),
    })
    g9 = xl({
        -3: 824,
        3: {2: F(1, 1458)},
        6: F(1, 1458),
    })
    g10 = xl({-2: -104})
    g11 = XLaurent.zero()
    return DiffOp([g0, g1, g2, g3, g4, g5, g6, g7, g8, g9, g10, g11,
                   XLaurent.one()])


def make_limit_op() -> DiffOp:
    """The eps-free order-3 operator whose powers generate the eps = 0 limits."""
    return DiffOp([
        xl({-3: -28, 6: F(1, 5832)}),
        xl({-2: -26}),
        XLaurent.zero(),
        XLaurent.one(),
    ])


def zeta1() -> XLaurent:
    """z^0 coefficient of the chi_0 expansion: 28/x^3 - (eps^2 x^3 + x^6)/5832.

    A widely-copied display gives 28/x^2 here; the rank-3 reduction of the
    order-9 operator pins 28/x^3 (and with it, -3*zeta1 - 9*zeta2' reproduces
    that operator's D^6 coefficient exactly).
    """
    return xl({-3: 28, 3: {2: F(-1, 5832)}, 6: F(-1, 5832)})


def zeta2() -> XLaurent:
    """z^0 coefficient of the chi_1 expansion: 26/x^2."""
    return xl({-2: 26})


def bc_poly() -> BivarPoly:
    """The minimal algebraic relation: w^3 - (eps^4/15552) w^2 - z^4 - z^3.

    Convention: z stands for the order-9 operator, w for the order-12 one.
    """
    return BivarPoly({
        (0, 3): EpsPoly.const(1),
        (0, 2): EpsPoly.eps_power(4, F(-1, 15552)),
        (4, 0): EpsPoly.const(-1),
        (3, 0): EpsPoly.const(-1),
    })
