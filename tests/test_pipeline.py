"""Constructive pipeline: reduction frame, derivation, commutant, relation."""

import hashlib
from fractions import Fraction

import pytest

from bcpair import (AffineSolutionSet, BivarPoly, ChiTriple, DiffOp, EpsPoly,
                    PipelineError, TruncationTooShort, XLaurent, ZSeries, bc_poly,
                    chi_series_triple, curve_series, derive_L1_coeffs, ep, find_bc_relation,
                    lambda_fn, make_l1, make_l2, make_limit_op, mu_fn,
                    reduce_with_frame, reduction_frame, right_reduce,
                    solve_commuting, verify_rank3, xl)
from bcpair import cli, curve, pipeline
from bcpair.exact import d_power_commutators
from bcpair.pipeline import EmptyCommutant, _eliminate, _integrate_level
from conftest import assert_same_series, random_xlaurent, reference_product, rng

F = Fraction


#: rational values of z at which the frame is checked against operator division
Z_VALUES = (F(1, 2), F(-3), F(2, 7))


def chi_polynomials(chis24, below: int = 8):
    """The chi expansions cut to exact z-polynomials of the terms below z^below."""
    return tuple(ZSeries.from_z_coefficients({e: s.coefficient(e)
                                              for e in range(s.lowest, below)})
                 for s in chis24)


def at_z(s: ZSeries, r: Fraction) -> XLaurent:
    """The exact z-polynomial ``s`` at z = r."""
    assert s.upper == float("inf")
    total = XLaurent.zero()
    for i, c in enumerate(s.coeffs):
        total = total + c * r ** (s.lowest + i)
    return total


def divisor_at_z(chi_polys, r: Fraction) -> DiffOp:
    """T = D^3 - chi2 D^2 - chi1 D - chi0 with the chi polynomials at z = r."""
    return DiffOp([-at_z(p, r) for p in chi_polys] + [XLaurent.one()])


def test_reduction_frame_matches_right_reduce(chis24):
    # z is a constant for D, so evaluating at z = r commutes with the frame
    # recurrence; operator division over XLaurent must give frame[k] at r
    chi_polys = chi_polynomials(chis24)
    frame = reduction_frame(*chi_polys, 5)
    for r in Z_VALUES:
        q, rem = right_reduce(DiffOp.d(5), divisor_at_z(chi_polys, r))
        assert q.order == 2
        assert [rem.coefficient(j) for j in range(3)] == \
            [at_z(frame[5][j], r) for j in range(3)]


def reference_frame(chi0: ZSeries, chi1: ZSeries, chi2: ZSeries, n_max: int):
    """The reduction frame by its recurrence on single series operations:
    ``+``, ``.derive()`` and ``reference_product``."""
    one, zero = ZSeries.one(), ZSeries.zero()
    frame = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    for _ in range(3, n_max + 1):
        a0, a1, a2 = frame[-1]
        frame.append((a0.derive() + reference_product(a2, chi0),
                      a0 + a1.derive() + reference_product(a2, chi1),
                      a1 + a2.derive() + reference_product(a2, chi2)))
    return frame


@pytest.mark.parametrize("case", ["symbolic", "7/3", "-3/2", "order-16 chis", "chi polynomials"])
def test_reduction_frame_equals_the_reference_recurrence(case, chis24):
    chis, n_max = chis24, 12
    if case in ("7/3", "-3/2"):
        chis = tuple(s.substitute_eps(F(case)) for s in chis24)
    elif case == "order-16 chis":
        chis, n_max = chi_series_triple(16), 9
    elif case == "chi polynomials":
        chis, n_max = chi_polynomials(chis24), 9
    frame = reduction_frame(*chis, n_max)
    assert len(frame) == n_max + 1
    for got, want in zip(frame, reference_frame(*chis, n_max)):
        for s, t in zip(got, want):
            assert_same_series(s, t)


def test_right_reduce_l1_matches_frame_at_rational_z(chis24, l1):
    # division of L1 by T has quotient order 6 and the remainder that
    # reduce_with_frame reads off the frame (verify_rank3 checks that this
    # remainder is (lambda, 0, 0))
    chi_polys = chi_polynomials(chis24)
    remainder = reduce_with_frame(l1, reduction_frame(*chi_polys, 9))
    for r in Z_VALUES:
        q, rem = right_reduce(l1, divisor_at_z(chi_polys, r))
        assert q.order == 6
        assert [rem.coefficient(j) for j in range(3)] == \
            [at_z(qj, r) for qj in remainder]


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
    rep = verify_rank3(l1 + DiffOp.d(1), chis24, lam24)
    assert not rep.passed
    assert rep.first_failure[0] == 1      # the Q_1 component breaks first


def test_verify_rank3_short_window_claims_only_known_orders(l1):
    # at series order 2, Q_0 and lambda are known only below z^-1, so their
    # cancelling difference must not be reported beyond z^-2
    chis, lam = chi_series_triple(2), curve_series(lambda_fn(), 2)
    q0 = reduce_with_frame(l1, reduction_frame(*chis, 9))[0]
    assert q0.upper == lam.upper == -1
    rep = verify_rank3(l1, chis, lam)
    assert rep.passed and rep.max_verified_order == -2
    assert str(rep).startswith("rank-3 reduction verified through z^-2")


def test_verify_rank3_wrong_eigenvalue(chis24, l2, mu24):
    # the eigenvalue of L2 is mu exactly; shifting it must fail at z^0
    shifted = mu24 + ZSeries.from_z_coefficients({0: xl({0: {4: F(1, 9)}})})
    rep = verify_rank3(l2, chis24, shifted)
    assert not rep.passed and rep.first_failure == (0, 0)


def _fresh_chis(chis24, upper: int = 24):
    """New series objects equal to the chi expansions below z^upper."""
    return tuple(s.truncate(upper) for s in chis24)


@pytest.fixture
def frame_orders(monkeypatch):
    """The top order of every frame that ``reduction_frame`` builds during the test,
    patched where ``ChiTriple.frame`` reads it."""
    orders = []
    inner = curve.reduction_frame

    def counting(*args):
        orders.append(args[3])
        return inner(*args)
    monkeypatch.setattr(curve, "reduction_frame", counting)
    return orders


def test_verify_rank3_builds_one_frame_per_chi_triple(frame_orders, capsys, chis24, lam24,
                                                      mu24, l1, l2):
    # the order of `verify rank` on one triple: L1, then L2 needs a longer
    # frame, then L1 + D reads the order-12 one
    chis = ChiTriple(_fresh_chis(chis24, 10))
    assert verify_rank3(l1, chis, lam24).passed
    assert verify_rank3(l2, chis, mu24).passed
    assert not verify_rank3(l1 + DiffOp.d(1), chis, lam24).passed
    assert frame_orders == [9, 12]
    # a longer order builds again
    verify_rank3(DiffOp.d(13), chis, lam24)
    assert frame_orders == [9, 12, 13]
    # a plain tuple keeps nothing: one frame per call
    plain = tuple(chis)
    verify_rank3(l2, plain, mu24)
    verify_rank3(l1 + DiffOp.d(1), plain, lam24)
    assert frame_orders == [9, 12, 13, 12, 9]
    # `verify rank` specialises its triple as a ChiTriple: two frames again
    frame_orders.clear()
    assert cli.main(["verify", "rank", "--eps", "7/3"]) == 0
    capsys.readouterr()
    assert frame_orders == [9, 12]


def test_verify_rank3_keys_its_frame_by_identity(frame_orders, chis24, lam24, l1):
    a, b = _fresh_chis(chis24, 10), _fresh_chis(chis24, 10)
    assert a == b
    for chis in (a, b, (a[0], a[1], b[2]), a):
        assert verify_rank3(l1, chis, lam24).passed
    assert frame_orders == [9, 9, 9, 9]


def test_verify_rank3_leaves_no_state_in_pipeline(chis24, lam24, l1):
    before = dict(vars(pipeline))
    chis = _fresh_chis(chis24, 10)
    for triple in (chis, ChiTriple(chis)):
        assert verify_rank3(l1, triple, lam24).passed
    assert vars(pipeline) == before


def test_chi_triple_keeps_its_own_frame(frame_orders, chis24):
    triple = ChiTriple(_fresh_chis(chis24, 10))
    frame = triple.frame(9)
    assert triple.frame(9) is frame and triple.frame(5) is frame
    twin = ChiTriple(triple)
    assert twin == triple and twin is not triple
    assert twin.frame(9) is not frame
    assert frame_orders == [9, 9]


@pytest.mark.parametrize("eps", [None, F(7, 3)], ids=["symbolic", "7/3"])
def test_verify_rank3_reports_equal_those_of_a_fresh_frame(eps, chis24, lam24, mu24, l1, l2):
    chis, lam, mu = _fresh_chis(chis24), lam24, mu24
    if eps is not None:
        chis = tuple(s.substitute_eps(eps) for s in chis)
        l1, l2, lam, mu = (v.substitute_eps(eps) for v in (l1, l2, lam, mu))
    # the kept frame reaches order 12 before L1 + D reads it again
    kept = ChiTriple(chis)
    for op, eigen in ((l1, lam), (l2, mu), (l1 + DiffOp.d(1), lam)):
        assert verify_rank3(op, kept, eigen) == verify_rank3(op, ChiTriple(chis), eigen)


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
    ident = DiffOp.identity()
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


@pytest.mark.parametrize("order", [0, 10, -3])
def test_derive_l1_rejects_an_order_rank_3_cannot_have(frame_orders, chis24, order):
    # the rows 3*(order//3) assume rank 3: the order is refused before any frame
    with pytest.raises(ValueError, match=rf"positive multiple of 3, got {order}$"):
        derive_L1_coeffs(*chis24, order=order)
    assert frame_orders == []


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
    assert sol9.contains(sol9.particular + DiffOp.identity())


@pytest.mark.parametrize("name", ["G", "L1", "L1 at eps = 7/3"])
def test_commutator_with_g_d_j_splits_at_the_d_power(l1, limit_op, name):
    # the identity of solve_commuting: [A, g D^j] = [A, g] D^j - g [D^j, A], with
    # [D^j, A] from the recursion that commutator_coefficients runs on A
    a = {"G": limit_op, "L1": l1, "L1 at eps = 7/3": l1.substitute_eps(F(7, 3))}[name]
    t = d_power_commutators(a.coeffs, 13)
    r = rng(len(name))
    for j in range(13):
        assert DiffOp(t[j]) == DiffOp.d(j).commutator(a)
        g = DiffOp.monomial(random_xlaurent(r), 0)
        assert a.commutator(g.compose(DiffOp.d(j))) == \
            a.commutator(g).compose(DiffOp.d(j)) - g.compose(DiffOp(t[j]))


#: the first constraint row of solve_commuting(L1, order) that cannot hold
EMPTY_COMMUTANT_ROW = {3: "D^3 (x^-3 term)", 4: "D^7 (x^-6 term)",
                       5: "D^7 (x^-7 term)", 6: "D^6 (x^-3 term)"}


@pytest.mark.parametrize("order", [3, 4, 5, 6])
def test_solve_commuting_empty_orders_named(l1, order):
    # 3 and 6 are the genus-2 gaps at the non-Weierstrass point q; 4 and 5
    # are not multiples of the rank 3
    with pytest.raises(EmptyCommutant) as err:
        solve_commuting(l1, order)
    assert str(err.value) == (f"no monic operator of order {order} commutes with the given "
                              f"operator: commutator coefficient {EMPTY_COMMUTANT_ROW[order]} "
                              "cannot vanish")


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


def test_solve_commuting_reverification_names_w_k(monkeypatch):
    # a particular vector off by one at the first pivot column commutes no more:
    # the re-verification names the first nonzero commutator coefficient
    echelon = pipeline._PACKAGE.linsolve.BareissEchelon
    solve = echelon.primitive_solution

    def off_by_one(self, free_col):
        vec = solve(self, free_col)
        if free_col == self.rhs:
            col = self.pivots[0][0]
            vec[col] = vec.get(col, EpsPoly.zero()) + EpsPoly.one()
        return vec
    monkeypatch.setattr(echelon, "primitive_solution", off_by_one)
    with pytest.raises(PipelineError, match=r"particular solution of order 6 fails exact "
                                            r"re-verification: operators do not commute: "
                                            r"W_\d+ != 0"):
        solve_commuting(make_limit_op(), 6)


#: (constraints, rank, sha256 of print_op of the particular solution and of
#: each homogeneous generator) of solve_commuting(A, 12)
COMMUTANT12_SHA256 = {
    "L1": (260, 10, (
        "4c3c467f748d7b540b01169dd072aaa86975881d8d66131965c15df477858462",
        "fd0ad9026eee596b7072a762941f60bef57e760a230edd450b3a634825685c2a",
        "7b2d6510014a45c75b15fe2a89c7f953777e72b3bb29a92a993b8e36eb4a8d13")),
    "L1 at eps = 7/3": (260, 10, (
        "dc8ebc402ea78bbd4d12ce7cd412472d3121c26a37ae8bcbd8a1b593a9f57922",
        "fd0ad9026eee596b7072a762941f60bef57e760a230edd450b3a634825685c2a",
        "e9ae61750e26af587c72467a0729f0ce810b22d3634731fc89aecad1bbd10722")),
    "G": (43, 8, (
        "9c6e5d4d7a4bd7ba52fecc17fef938ad6b07bd6d9ce2aff46182b7bfab3a5b41",
        "fd0ad9026eee596b7072a762941f60bef57e760a230edd450b3a634825685c2a",
        "aa29931f312454012d3684fcbf9d5b8fef9d10e8ea3cb3c08b261bf5d9950972",
        "31edebc86b49273f060007ca2f3ad0050eb2fc1f64dbca089351b1d5b8c9a3b6",
        "0775d210d40d4d47dc8c58afe6d6ea2a88201f18c8190ac1d282635665cc9253")),
}


@pytest.mark.parametrize("name", sorted(COMMUTANT12_SHA256))
def test_solve_commuting_order12_is_pinned(l1, limit_op, name):
    a = {"L1": l1, "L1 at eps = 7/3": l1.substitute_eps(F(7, 3)), "G": limit_op}[name]
    sol = solve_commuting(a, 12)
    digests = tuple(hashlib.sha256(cli.print_op(op).encode()).hexdigest()
                    for op in [sol.particular, *sol.homogeneous_basis])
    assert (sol.constraints, sol.rank, digests) == COMMUTANT12_SHA256[name]


def test_solve_commuting_order15(l1, l2):
    # homogeneous part 1, L1, L2: the pole orders 0, 3, 4 below 5 at q
    sol = solve_commuting(l1, 15)
    assert sol.dimension == 3
    for op in (DiffOp.identity(), l1, l2):
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
    assert not sol.contains(sol.particular + DiffOp.d(1))


@pytest.fixture(scope="module")
def sol12(l1):
    return solve_commuting(l1, 12)


def test_affine_set_contains_odd_eps_multiples(l1, sol12):
    # the family is a Q[eps]-module: odd eps powers of 1 and L1 belong to it
    ident = DiffOp.identity()
    assert sol12.contains(sol12.particular + ident.scale(EpsPoly.eps_power(1)))
    assert sol12.contains(sol12.particular + l1.scale(EpsPoly.eps_power(3)))


def test_affine_set_contains_needs_polynomial_coefficients():
    # D^2 + 1 = D^2 + (1/eps) * (eps*1): in the Q(eps)-span, not the Q[eps]-span
    eps = EpsPoly.eps_power(1)
    ident = DiffOp.identity()
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
    ident = DiffOp.identity()
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


@pytest.fixture
def echelons(monkeypatch):
    """The row labels of each ``BareissEchelon`` built during the test, in order."""
    built = []
    echelon = pipeline._PACKAGE.linsolve.BareissEchelon

    class Counted(echelon):
        def __init__(self, rows, rhs):
            rows = list(rows)
            built.append([label for label, _ in rows])
            super().__init__(rows, rhs)
    monkeypatch.setattr(pipeline._PACKAGE.linsolve, "BareissEchelon", Counted)
    return built


def test_find_bc_relation_builds_one_echelon(echelons, l1, l2, limit_op):
    # one elimination on the x^0 rows of every D^k fixes the relation, and the
    # candidate passes its re-verification: the eps -> 0 limits, symbolic eps,
    # eps = 7/3 and -1/2, and (D, D^2), whose D^0 row alone has only the constant 1
    ident = DiffOp.identity()
    cases = [(l1.substitute_eps(0), l2.substitute_eps(0), bc_poly().substitute_eps(0)),
             (limit_op.op_power(3) - ident, limit_op.op_power(4) - limit_op,
              bc_poly().substitute_eps(0)),
             (l1, l2, bc_poly())] + [
        (l1.substitute_eps(r), l2.substitute_eps(r), bc_poly().substitute_eps(r))
        for r in (F(7, 3), F(-1, 2))]
    for a, b, rel in cases:
        echelons.clear()
        assert find_bc_relation(a, b, 36) == rel
        assert len(echelons) == 1
        assert {label.split()[1] for label in echelons[0]} == {"(x^0"}
        assert max(int(label.split()[0][2:]) for label in echelons[0]) == 36
    echelons.clear()
    assert find_bc_relation(DiffOp.d(1), DiffOp.d(2), 4) == \
        BivarPoly({(0, 1): ep(1), (2, 0): ep(-1)})
    assert echelons == [[f"D^{k} (x^0 term)" for k in range(5)]]


def test_find_bc_relation_edge_bounds():
    # below weight 2 no relation of (D, D^2) exists, and at -1 no monomial does
    for w in (-1, 0, 1):
        assert find_bc_relation(DiffOp.d(1), DiffOp.d(2), w) is None
    assert find_bc_relation(DiffOp.d(1), DiffOp.d(2), 2) == \
        BivarPoly({(0, 1): ep(1), (2, 0): ep(-1)})


def test_find_bc_relation_reverification_names_d_k(monkeypatch):
    # a kernel vector off by one at its leading monomial (2 w - z^2 at (D, D^2))
    # is no relation: the re-verification names the leading term of Q(a, b) = D^2
    echelon = pipeline._PACKAGE.linsolve.BareissEchelon
    solve = echelon.primitive_solution

    def off_by_one(self, free_col):
        vec = solve(self, free_col)
        vec[free_col] = vec[free_col] + EpsPoly.one()
        return vec
    monkeypatch.setattr(echelon, "primitive_solution", off_by_one)
    with pytest.raises(PipelineError, match=r"^kernel candidate failed exact re-verification: "
                                            r"Q\(a, b\) != 0: leading term \(1\)\*D\^2$"):
        find_bc_relation(DiffOp.d(1), DiffOp.d(2), 4)


def test_find_bc_relation_none_within_bound():
    assert find_bc_relation(DiffOp.d(2), DiffOp.d(3), 5) is None


def test_find_bc_relation_rejects_noncommuting():
    x_op = DiffOp.monomial(XLaurent.var(), 0).compose(DiffOp.d(1))
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


def test_derive_l1_reverifies_on_its_own_frame(frame_orders, chis24, l1):
    coeffs = derive_L1_coeffs(*(s.truncate(16) for s in chis24))
    assert list(l1.coeffs[:8]) == coeffs
    assert frame_orders == [9]
