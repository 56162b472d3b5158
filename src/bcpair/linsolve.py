"""Exact linear algebra for the constructive pipeline.

``BareissEchelon`` is the one solver the pipeline calls: fraction-free
echelon over Q[eps] (Bareiss 1968) with primitive solutions over Q[eps], for
the commutant constraints, commutant membership and algebraic-relation
discovery.  ``derive_L1_coeffs`` needs no solver: it back-substitutes
through its triangular system.

The rest has no caller in the pipeline.  It stays, with its own unit tests,
only because a benchmark metric wraps it, and goes when that metric is
retired:

* ``gauss_solve`` (dense elimination over Q) feeds
  ``linsolve.gauss_solve.calls`` and ``linsolve.gauss_solve.useful_ratio``;
* ``lagrange_coefficients`` feeds ``linsolve.lagrange_s``;
* ``ModEchelon.insert`` (forward echelon over GF(p)) feeds
  ``linsolve.mod_echelon_insert.calls``;
* ``prime_stream`` feeds ``linsolve.primes_drawn``, and
  ``rational_reconstruct`` feeds ``linsolve.rational_reconstruct.calls``;
* ``FractionEchelon`` (``insert``, ``reduce_vector``, ``kernel_basis``, an
  incremental echelon over Q) feeds ``linsolve.fraction_echelon_insert.calls``,
  ``linsolve.fraction_echelon_s`` and the micro-benchmark
  ``linsolve.echelon_insert_us``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import EpsPoly


# ---------------------------------------------------------------------------
# dense exact elimination
# ---------------------------------------------------------------------------

def gauss_solve(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Solve M x = b exactly over Q.

    Returns (solution, None) for a unique solution of the (possibly
    overdetermined) consistent system, (None, reason) otherwise; ``reason`` is
    ("underdetermined", rank) or ("inconsistent", row_index).
    """
    m = len(matrix)
    if m == 0:
        return [], None
    n = len(matrix[0])
    a = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    piv_rows: list[int] = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, m):
            if a[r][col]:
                sel = r
                break
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        pv = a[row][col]
        a[row] = [v / pv for v in a[row]]
        for r in range(m):
            if r != row and a[r][col]:
                f = a[r][col]
                ar, arow = a[r], a[row]
                a[r] = [ar[k] - f * arow[k] for k in range(n + 1)]
        piv_rows.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if a[r][n]:
            return None, ("inconsistent", r)
    if len(piv_rows) < n:
        return None, ("underdetermined", len(piv_rows))
    sol = [Fraction(0)] * n
    for r, col in enumerate(piv_rows):
        sol[col] = a[r][n]
    return sol, None


# ---------------------------------------------------------------------------
# primes / CRT / rational reconstruction
# ---------------------------------------------------------------------------

def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic for n < 3.3e24 with these bases
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_stream(start: int = (1 << 61) - 1):
    """Deterministic descending stream of primes below 2^61."""
    n = start
    while True:
        if _is_probable_prime(n):
            yield n
        n -= 2 if n % 2 else 1


def rational_reconstruct(r: int, m: int) -> Fraction | None:
    """Find num/den = r (mod m) with |num|, den <= sqrt(m/2), or None."""
    r %= m
    bound = math.isqrt(m // 2)
    r0, r1 = m, r
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    if math.gcd(r1, t1) != 1 or math.gcd(t1, m) != 1:
        return None
    return Fraction(r1, t1)


# ---------------------------------------------------------------------------
# sparse echelon over GF(p)
# ---------------------------------------------------------------------------

class ModEchelon:
    """Forward echelon over GF(p) with sparse dict rows.

    Rows carry an extra right-hand-side scalar.  Pivot columns follow a fixed
    total order (the integer column ids); the first row to claim a column
    keeps it, which is deterministic for a fixed insertion order.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, tuple[dict[int, int], int]] = {}  # pivot col -> (row, rhs)
        self.inconsistent = False

    def insert(self, row: dict[int, int], rhs: int) -> None:
        p = self.p
        row = {c: v % p for c, v in row.items() if v % p}
        rhs %= p
        while row:
            lead = min(row)
            hit = self.rows.get(lead)
            if hit is None:
                inv = pow(row[lead], -1, p)
                row = {c: v * inv % p for c, v in row.items()}
                self.rows[lead] = (row, rhs * inv % p)
                return
            prow, prhs = hit
            f = row[lead]
            for c, v in prow.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            rhs = (rhs - f * prhs) % p
        if rhs:
            self.inconsistent = True


# ---------------------------------------------------------------------------
# sparse echelon over Q (small column counts)
# ---------------------------------------------------------------------------

class FractionEchelon:
    """Incremental reduced echelon over Q with sparse dict rows (no RHS)."""

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}

    def insert(self, row: dict[int, Fraction]) -> None:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            prow = self.rows.get(lead)
            if prow is None:
                inv = 1 / row[lead]
                self.rows[lead] = {c: v * inv for c, v in row.items()}
                return
            f = row[lead]
            for c, v in prow.items():
                nv = row.get(c, Fraction(0)) - f * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)

    def reduce_vector(self, row: dict) -> dict:
        """Forward-reduce a vector against the echelon; residual is returned."""
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            prow = self.rows.get(lead)
            if prow is None:
                return row
            f = row[lead]
            for c, v in prow.items():
                nv = row.get(c, Fraction(0)) - f * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        return row

    def kernel_basis(self, columns: list[int]) -> list[dict[int, Fraction]]:
        """One kernel vector per free column (value 1 there), fully reduced."""
        piv = set(self.rows)
        free = [c for c in columns if c not in piv]
        basis = []
        for fcol in free:
            vec = {fcol: Fraction(1)}
            for lead in sorted(self.rows, reverse=True):
                row = self.rows[lead]
                acc = Fraction(0)
                for c, v in row.items():
                    if c == lead:
                        continue
                    s = vec.get(c)
                    if s:
                        acc -= v * s
                if acc:
                    vec[lead] = acc
            basis.append(vec)
        return basis


# ---------------------------------------------------------------------------
# fraction-free echelon over Q[eps]
# ---------------------------------------------------------------------------

def eps_gcd(a: EpsPoly, b: EpsPoly) -> EpsPoly:
    """Monic greatest common divisor over Q (zero only when both are zero)."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.scale(1 / a.leading_coefficient()) if not a.is_zero() else a


def _entry_size(p: EpsPoly) -> tuple[int, int]:
    return p.degree(), len(p.num)


class BareissEchelon:
    """Fraction-free row echelon over Q[eps] of labelled linear forms.

    A row ``{c: r_c}`` stands for the form ``sum_c r_c * x_c`` in the columns
    ``0..rhs``; column ``rhs`` carries the constant term, so a system
    ``M x = b`` enters as rows of ``[M | -b]`` and its solutions have
    ``x_rhs = 1``.  Each step takes as pivot the remaining row whose entry in
    the next column is smallest (eps-degree, then term count; input order on
    ties) and replaces every other remaining row r by
    ``(p * r - r[col] * pivot_row) / p_prev`` (Bareiss 1968).  Every entry is
    then a minor of the input, so the division by the previous pivot is exact
    (``EpsPoly.divexact``) and no polynomial gcd is taken during elimination.
    Where the pivot equals the previous one (as along a run of unit pivots), the step is
    ``r - r[col] * pivot_row / p``: ``p * r_c - f * q_c`` is divisible by
    ``p``, so ``f * q_c`` is too.  A row without an entry in the pivot column
    is then kept as it is, and for ``p == 1`` nothing is divided.

    A pivot that is a monomial ``c * eps^k`` with ``c != 1`` first has its
    row divided by ``c``, a unit of Q[eps], so that the pivot is ``eps^k``.
    That is Bareiss on the input with one row scaled by ``1/c``, so every
    entry is still a minor (of the scaled input) and every division stays
    exact.  The pivots of the commutant and relation solves are monomials,
    so they become ``1`` and ``eps^k`` and take the equal-pivot step more
    often: at eps = 0 every step is a unit step.

    ``inconsistent`` is the label of the first row reduced to a nonzero
    constant term alone (the system has no solution), else None.
    """

    def __init__(self, rows, rhs: int):
        self.rhs = rhs
        self.pivots: list[tuple[int, dict[int, EpsPoly]]] = []
        self.inconsistent = None
        active = []
        for label, row in rows:
            row = {c: v for c, v in row.items() if not v.is_zero()}
            if row:
                active.append((label, row))
        if self._find_inconsistent(active):
            return
        zero, one = EpsPoly.zero(), EpsPoly.one()
        prev = one
        for col in range(rhs):
            hits = [i for i, (_, row) in enumerate(active) if col in row]
            if not hits:
                continue
            _, prow = active.pop(min(hits, key=lambda i: _entry_size(active[i][1][col])))
            p = prow[col]
            if p.is_monomial() and (lc := p.leading_coefficient()) != 1:
                # c * eps^k with c != 1: the row over c, a unit of Q[eps], has pivot eps^k
                u = 1 / lc
                prow = {c: v.scale(u) for c, v in prow.items()}
                p = prow[col]
            same = p == prev
            unit = same and p == one
            reduced, rebuilt = [], []
            for label, row in active:
                f = row.get(col)
                if f is None and same:
                    reduced.append((label, row))    # (p * row) / prev is row itself
                    continue
                new = {}
                for c in sorted((row.keys() | prow.keys()) - {col}):
                    if same:
                        v = row.get(c, zero)
                        if c in prow:
                            fq = f * prow[c]
                            v = v - (fq if unit else fq.divexact(p))
                    else:
                        v = p * row[c] if c in row else zero
                        if f is not None and c in prow:
                            v = v - f * prow[c]
                    if not v.is_zero():
                        new[c] = v if same else v.divexact(prev)
                if new:
                    reduced.append((label, new))
                    rebuilt.append((label, new))
            active = reduced
            self.pivots.append((col, prow))
            prev = p
            if self._find_inconsistent(rebuilt):
                return

    def _find_inconsistent(self, rows) -> bool:
        """Label the first of ``rows`` that is a nonzero constant term alone.

        The input rows are checked once, then after each step only the rows
        it rebuilt: a row kept as it is was checked before, so the first
        such row in active order is among those.
        """
        for label, row in rows:
            if len(row) == 1 and self.rhs in row:
                self.inconsistent = label
                return True
        return False

    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> list[int]:
        """Unknown columns (``rhs`` excluded) that hold no pivot."""
        piv = {c for c, _ in self.pivots}
        return [c for c in range(self.rhs) if c not in piv]

    def primitive_solution(self, free_col: int) -> dict[int, EpsPoly]:
        """Solution over Q[eps] that is nonzero at ``free_col`` and zero at
        every other free column (and at ``rhs`` unless ``free_col == rhs``).

        Back-substitution runs projectively: the vector is rescaled instead
        of divided, then its content (the gcd of its entries) is removed and
        the entry at ``free_col`` is made monic.  Solving over Q(eps) means
        dividing by the ``free_col`` entry.
        """
        vec = {free_col: EpsPoly.one()}
        for col, row in reversed(self.pivots):
            s = EpsPoly.zero()
            for c, v in row.items():
                if c != col and c in vec:
                    s = s + v * vec[c]
            if s.is_zero():
                continue
            g = eps_gcd(s, row[col])
            scale = row[col].divexact(g)
            vec = {c: v * scale for c, v in vec.items()}
            vec[col] = -s.divexact(g)
        content = EpsPoly.zero()
        for v in vec.values():
            content = eps_gcd(content, v)
        lead = vec[free_col].divexact(content)
        content = content.scale(lead.leading_coefficient())
        return {c: v.divexact(content) for c, v in vec.items()}


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def lagrange_coefficients(points: list[tuple[Fraction, Fraction]]) -> list[Fraction]:
    """Exact coefficients (ascending degree) of the Lagrange interpolant."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    xs = [Fraction(x) for x, _ in points]
    for i, (xi, yi) in enumerate(points):
        # numerator polynomial prod_{j != i} (t - x_j), built incrementally
        num = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = [Fraction(0)] + num
            for k in range(len(num) - 1):
                num[k] -= xj * num[k + 1]
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for k in range(len(num)):
            coeffs[k] += scale * num[k]
    return coeffs
