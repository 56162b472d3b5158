"""Linear algebra helpers: exact solvers, modular plumbing, interpolation."""

from fractions import Fraction

import pytest

from bcpair import EpsPoly, linsolve, solve_commuting
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


def reference_bareiss(rows, rhs):
    """(pivots, inconsistent label) of ``BareissEchelon`` computed by the
    generic Bareiss step alone: every updated entry is ``(p * r_c - f * q_c)
    / prev``, also where the pivot ``p`` equals ``prev``."""
    active = []
    for label, row in rows:
        row = {c: v for c, v in row.items() if not v.is_zero()}
        if row:
            active.append((label, row))

    def inconsistent():
        return next((label for label, row in active if set(row) == {rhs}), None)

    pivots, prev = [], EpsPoly.one()
    for col in range(rhs):
        if inconsistent() is not None:
            return pivots, inconsistent()
        hits = [i for i, (_, row) in enumerate(active) if col in row]
        if not hits:
            continue
        _, prow = active.pop(min(hits, key=lambda i: linsolve._entry_size(active[i][1][col])))
        p = prow[col]
        reduced = []
        for label, row in active:
            f = row.get(col)
            if f is None and p == prev:
                reduced.append((label, row))
                continue
            new = {}
            for c in sorted((row.keys() | prow.keys()) - {col}):
                v = p * row[c] if c in row else EpsPoly.zero()
                if f is not None and c in prow:
                    v = v - f * prow[c]
                if not v.is_zero():
                    new[c] = v.divexact(prev)
            if new:
                reduced.append((label, new))
        active = reduced
        pivots.append((col, prow))
        prev = p
    return pivots, inconsistent()


def _repeated_pivot_system(r, d):
    """Rows over n + 2 unknowns whose pivots in columns 0..n-1 all equal ``d``.

    Row i < n has ``d`` (row 0) or 1 (the others) in column i, zeros to its
    left and random entries to its right.  Bareiss multiplies rows 1.. by d
    in the first step, so every later pivot repeats it.  The random rows
    after them are multiples of d and stay so: none of their entries is
    smaller than d (eps-degree, then term count), and a tie goes to the
    earlier, triangular row.  They hold the pivots of the last two columns,
    or are left inconsistent.
    """
    n = r.randint(1, 4)
    m = n + 2
    rows = [(i, {i: d if i == 0 else EpsPoly.one(),
                 **{c: random_epspoly(r, 2) for c in range(i + 1, m + 1)}})
            for i in range(n)]
    rows += [(n + i, {c: random_epspoly(r, 2) * d for c in range(m + 1)})
             for i in range(r.randint(1, 3))]
    return n, m, rows


def _random_system(r):
    m = r.randint(1, 4)
    return 0, m, [(i, {c: random_epspoly(r, 2) for c in range(m + 1)})
                  for i in range(r.randint(1, m + 2))]


def _late_inconsistent_system(r):
    """Rows over n unknowns that turn inconsistent only at the n-th pivot.

    Rows 0..n-1 are triangular with pivot 1 and random entries to the right.
    Rows n and n + 1 are combinations of all of them, each with a nonzero
    monomial factor, plus a nonzero constant term, so both reduce to a lone
    constant term at the same step; the first of them is the label.
    """
    n = r.randint(2, 4)
    rows = [(i, {i: EpsPoly.one(), **{c: random_epspoly(r, 2) for c in range(i + 1, n + 1)}})
            for i in range(n)]
    for label in (n, n + 1):
        combo = {n: EpsPoly.const(r.choice((-2, -1, 1, 3)))}
        for _, row in rows[:n]:
            f = EpsPoly({r.randint(0, 2): r.randint(1, 5)})
            for c, v in row.items():
                combo[c] = combo.get(c, EpsPoly.zero()) + f * v
        rows.append((label, combo))
    return n, rows


def _assert_pivot_rows_match_up_to_units(pivots, reference):
    """Each pivot row is a rational multiple of the generic step's, and a
    monomial pivot ``c * eps^k`` has become ``eps^k``."""
    assert [col for col, _ in pivots] == [col for col, _ in reference]
    for (col, row), (_, ref) in zip(pivots, reference):
        p, rp = row[col], ref[col]
        unit = p.c[p.degree()] / rp.c[rp.degree()]
        assert list(row) == list(ref)
        assert all(row[c] == v.scale(unit) for c, v in ref.items())
        if rp.is_monomial():
            assert p == EpsPoly.eps_power(rp.degree())


def test_bareiss_matches_the_generic_step_on_every_kind_of_pivot():
    # unit pivots, repeated pivots 2, eps and 1 + eps (2 becomes 1 once its
    # row is divided by 2; eps and 1 + eps keep the step p == prev), and
    # changing pivots
    r = rng(34)
    for d in (EpsPoly.one(), _eps({0: 2}), _eps({1: 1}), _eps({0: 1, 1: 1}), None):
        repeated = changed = 0
        for _ in range(40):
            n, m, rows = _random_system(r) if d is None else _repeated_pivot_system(r, d)
            pivots, inconsistent = reference_bareiss(rows, m)
            values = [row[col] for col, row in pivots]
            assert values[:n] == [d] * len(values[:n])
            repeated += sum(a == b for a, b in zip(values[:n], values[1:n]))
            changed += sum(a != b for a, b in zip(values, values[1:]))
            ech = linsolve.BareissEchelon(rows, m)
            _assert_pivot_rows_match_up_to_units(ech.pivots, pivots)
            assert ech.inconsistent == inconsistent
            ref = linsolve.BareissEchelon([], m)
            ref.pivots = pivots
            assert ech.free_columns() == ref.free_columns()
            if inconsistent is None:
                for f in ech.free_columns() + [m]:
                    assert ech.primitive_solution(f) == ref.primitive_solution(f)
        assert (changed if d is None else repeated) >= 20
    # an inconsistency that appears only after several pivots, in two rows at once
    for _ in range(20):
        n, rows = _late_inconsistent_system(r)
        pivots, inconsistent = reference_bareiss(rows, n)
        assert len(pivots) == n and inconsistent == n
        ech = linsolve.BareissEchelon(rows, n)
        _assert_pivot_rows_match_up_to_units(ech.pivots, pivots)
        assert ech.inconsistent == n


@pytest.fixture
def echelons(monkeypatch):
    """Every ``BareissEchelon`` that the pipeline builds during the test."""
    made = []

    class Recorded(linsolve.BareissEchelon):
        def __init__(self, rows, rhs):
            super().__init__(rows, rhs)
            made.append(self)
    monkeypatch.setattr(linsolve, "BareissEchelon", Recorded)
    return made


def test_bareiss_pivots_of_the_commutant_solves_are_monic(echelons, limit_op, l1):
    # at eps = 0 every pivot is 1, so every step is a unit step
    solve_commuting(limit_op, 12)
    (ech,) = echelons
    assert ech.rank() == 8
    assert all(row[col] == EpsPoly.one() for col, row in ech.pivots)
    # at symbolic eps the pivots of L1's order-12 commutant are monic eps^k
    echelons.clear()
    solve_commuting(l1, 12)
    (ech,) = echelons
    values = [row[col] for col, row in ech.pivots]
    assert values == [EpsPoly.eps_power(k) for k in (0, 0, 2, 2, 2, 4, 4, 4, 4, 4)]


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
