"""Linear algebra helpers: exact solvers, modular plumbing, interpolation."""

from fractions import Fraction

from bcpair import EpsPoly, linsolve
from conftest import random_epspoly, rng

F = Fraction


def test_gauss_solve_unique():
    mat = [[F(2), F(1)], [F(1), F(-1)], [F(3), F(0)]]
    rhs = [F(5), F(1), F(6)]
    sol, err = linsolve.gauss_solve(mat, rhs)
    assert err is None and sol == [F(2), F(1)]


def test_gauss_solve_inconsistent():
    mat = [[F(1), F(1)], [F(1), F(1)]]
    rhs = [F(1), F(2)]
    sol, err = linsolve.gauss_solve(mat, rhs)
    assert sol is None and err[0] == "inconsistent"


def test_gauss_solve_underdetermined():
    mat = [[F(1), F(1)]]
    rhs = [F(1)]
    sol, err = linsolve.gauss_solve(mat, rhs)
    assert sol is None and err[0] == "underdetermined"


def test_gauss_solve_random_round_trip():
    r = rng(30)
    for _ in range(150):
        n = r.randint(1, 5)
        x = [F(r.randint(-9, 9), r.randint(1, 5)) for _ in range(n)]
        mat = [[F(r.randint(-5, 5)) for _ in range(n)] for _ in range(n + 1)]
        rhs = [sum(mat[i][j] * x[j] for j in range(n)) for i in range(n + 1)]
        sol, err = linsolve.gauss_solve(mat, rhs)
        if sol is not None:
            assert sol == x
        else:
            assert err[0] == "underdetermined"


def test_prime_stream_and_primality():
    it = linsolve.prime_stream()
    p1, p2 = next(it), next(it)
    assert p1 == (1 << 61) - 1
    assert p1 != p2
    assert linsolve._is_probable_prime(p2)
    assert not linsolve._is_probable_prime(p1 * p2)


def test_crt_and_reconstruction():
    r = rng(31)
    it = linsolve.prime_stream()
    p1, p2 = next(it), next(it)
    for _ in range(300):
        f = F(r.randint(-10**12, 10**12), r.randint(1, 10**6))
        r1 = linsolve.fraction_mod(f, p1)
        r2 = linsolve.fraction_mod(f, p2)
        combined, modulus = linsolve.crt_pair(r1, p1, r2, p2)
        assert linsolve.rational_reconstruct(combined, modulus) == f


def test_reconstruction_failure_is_detected():
    # a value too large for a single prime's bound comes back None or wrong;
    # with the paired modulus it must round-trip exactly
    p = next(linsolve.prime_stream())
    big = F(10**20, 7)
    r1 = linsolve.fraction_mod(big, p)
    rec = linsolve.rational_reconstruct(r1, p)
    assert rec != big


def test_mod_echelon_solve_and_kernel():
    p = 10**9 + 7
    ech = linsolve.ModEchelon(p)
    # x + y = 3, x - y = 1  -> x = 2, y = 1
    ech.insert({0: 1, 1: 1}, 3)
    ech.insert({0: 1, 1: p - 1}, 1)
    sol = ech.solve_particular([0, 1])
    assert sol[0] == 2 and sol[1] == 1
    # homogeneous system with a free column
    ech2 = linsolve.ModEchelon(p)
    ech2.insert({0: 1, 1: p - 2}, 0)     # x = 2y
    vec = ech2.kernel_vector([0, 1], 1)
    assert vec[1] == 1 and vec[0] == 2


def test_mod_echelon_inconsistency():
    p = 10**9 + 7
    ech = linsolve.ModEchelon(p)
    ech.insert({0: 1}, 1)
    ech.insert({0: 1}, 2)
    assert ech.inconsistent


def test_fraction_echelon_kernel():
    ech = linsolve.FractionEchelon()
    ech.insert({0: F(1), 1: F(1), 2: F(1)})
    ech.insert({0: F(1), 1: F(2), 2: F(3)})
    basis = ech.kernel_basis([0, 1, 2])
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] + vec[1] + vec[2] == 0
    assert vec[0] + 2 * vec[1] + 3 * vec[2] == 0
    assert ech.reduce_vector({0: F(2), 1: F(3), 2: F(4)}) == {}


def _eps(coeffs):
    return EpsPoly(coeffs)


def test_eps_gcd():
    a = _eps({0: -1, 1: 1}) * _eps({0: 2, 1: 1})          # (eps - 1)(eps + 2)
    b = _eps({0: -1, 1: 1}) * _eps({0: 1, 2: 1}).scale(3)  # 3(eps - 1)(eps^2 + 1)
    assert linsolve.eps_gcd(a, b) == _eps({0: -1, 1: 1})
    assert linsolve.eps_gcd(EpsPoly.zero(), b.scale(F(1, 3))) == b.scale(F(1, 3))
    assert linsolve.eps_gcd(_eps({2: 5}), _eps({0: 1, 2: 1})) == EpsPoly.one()


def _apply(row, vec):
    total = EpsPoly.zero()
    for c, v in row.items():
        if c in vec:
            total = total + v * vec[c]
    return total


def test_bareiss_unique_solution_round_trip():
    r = rng(33)
    for _ in range(60):
        n = r.randint(1, 4)
        x = [random_epspoly(r, 3) for _ in range(n)]
        rows = []
        for i in range(n + 2):
            m = {c: random_epspoly(r, 2) for c in range(n)}
            m[n] = -_apply(m, dict(enumerate(x)))
            rows.append((i, m))
        ech = linsolve.BareissEchelon(rows, n)
        assert ech.inconsistent is None
        if ech.rank() == n:
            sol = ech.primitive_solution(n)
            assert sol[n] == EpsPoly.one()
            assert all(sol.get(c, EpsPoly.zero()) == x[c] for c in range(n))
        for f in ech.free_columns():
            vec = ech.primitive_solution(f)
            assert all(_apply(row, vec).is_zero() for _, row in rows)


def test_bareiss_names_inconsistent_row():
    # x0 = 1 and eps*x0 = 2 have no common solution over Q(eps)
    rows = [("a", {0: _eps({0: 1}), 1: _eps({0: -1})}),
            ("b", {0: _eps({1: 1}), 1: _eps({0: -2})})]
    assert linsolve.BareissEchelon(rows, 1).inconsistent == "b"
    assert linsolve.BareissEchelon([("c", {1: _eps({0: 3})})], 1).inconsistent == "c"


def test_bareiss_primitive_generators():
    # (eps^2 + 1) x0 + 2 x1 = 0: over Q(eps) x0 = -2/(eps^2 + 1) at x1 = 1
    ech = linsolve.BareissEchelon([("r", {0: _eps({0: 1, 2: 1}), 1: _eps({0: 2})})], 2)
    assert ech.free_columns() == [1]
    assert ech.primitive_solution(1) == {0: _eps({0: -2}), 1: _eps({0: 1, 2: 1})}
    # eps^2 x0 + eps^3 x1 = 0: the content eps^2 cancels
    ech = linsolve.BareissEchelon([("r", {0: _eps({2: 1}), 1: _eps({3: 1})})], 2)
    assert ech.primitive_solution(1) == {0: _eps({1: -1}), 1: EpsPoly.one()}


def test_lagrange_interpolation():
    # p(t) = t^2 - 3/2 t + 2
    pts = [(F(0), F(2)), (F(1), F(3, 2)), (F(2), F(3))]
    assert linsolve.lagrange_coefficients(pts) == [F(2), F(-3, 2), F(1)]


def test_lagrange_round_trip_seeded():
    r = rng(32)
    for _ in range(100):
        deg = r.randint(0, 6)
        coeffs = [F(r.randint(-9, 9), r.randint(1, 4)) for _ in range(deg + 1)]
        xs = r.sample(range(1, 40), deg + 1)
        pts = [(F(x), sum(c * F(x) ** k for k, c in enumerate(coeffs)))
               for x in xs]
        got = linsolve.lagrange_coefficients(pts)
        assert got[:deg + 1] == coeffs
        assert all(v == 0 for v in got[deg + 1:])
