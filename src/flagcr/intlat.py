"""Exact integer linear algebra: Smith normal form, Diophantine and modular
linear systems, echelon (Hermite-style) bases of lattices.

Matrices are plain lists of rows of Python ints (arbitrary precision).  All
functions are pure and total except where a ``None`` return is documented to
mean "no solution".  The package solves through SNFSolver; the one-shot
solve_diophantine and solve_congruence have no caller in it and stay only
because the benchmark tracer (perfbench/tracer.py) wraps them.
column_solver(columns, n) is the one builder of a matrix from its columns
and their height n, as gaussq's field solvers take one, and
lattice_coset_gcd(vectors) the gcd of the vectors' coordinate sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(r[k] * v[k] for k in range(len(v))) for r in a]


def smith_normal_form(
    m: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (S, U, V) with U*M*V = S, S diagonal with d1 | d2 | ..., U, V
    unimodular.

    Pivots are chosen by minimal absolute value to limit coefficient growth.
    Total on any rectangular matrix, including empty ones.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [list(row) for row in m]
    u = identity_matrix(nr)
    v = identity_matrix(nc)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    # the adds skip zero source entries: the same operations, fewer products
    def row_add(dst, src, f):
        for rows in (a, u):
            row = rows[dst]
            for k, x in enumerate(rows[src]):
                if x:
                    row[k] += f * x

    def col_add(dst, src, f):
        for rows in (a, v):
            for row in rows:
                if x := row[src]:
                    row[dst] += f * x

    t = 0
    while t < min(nr, nc):
        # the smallest nonzero entry of the trailing block, first in row order
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        if not nonzero:
            break
        _, bi, bj = min(nonzero)
        row_swap(t, bi)
        col_swap(t, bj)
        while True:
            # clear column t
            moved = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        moved = True
            if moved:
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        moved = True
            if not moved:
                break
        # enforce divisibility of the trailing block by the pivot (a unit
        # pivot divides every entry, so there is nothing to scan)
        piv = a[t][t]
        if piv not in (1, -1):
            offender = next((i for i in range(t + 1, nr) if any(a[i][j] % piv for j in range(t + 1, nc))), None)
            if offender is not None:
                row_add(t, offender, 1)
                continue  # redo elimination at the same t
        t += 1

    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return a, u, v


@dataclass(frozen=True)
class DiophantineSolution:
    """Integer solution set of A x = b: x = particular + Z-span(kernel_basis)."""

    particular: tuple[int, ...]
    kernel_basis: tuple[tuple[int, ...], ...]


class SNFSolver:
    """Factored form U A V = S of an integer matrix, for solving many systems
    A x = b over Z (solve) or mod m (lift_mod).

    Each right-hand side b is carried into the diagonal system S y = c by
    c = U b (transform) once; feasible, lift and lift_mod start from c, so a
    caller that needs several answers about one b forms c once."""

    def __init__(self, a: list[list[int]]):
        self.nr = len(a)
        self.nc = len(a[0]) if self.nr else 0
        self.s, self.u, self.v = smith_normal_form(a)
        # the nonzero invariant factors d_1 | d_2 | ... lead the diagonal of S
        self.d = [x for x in (self.s[i][i] for i in range(min(self.nr, self.nc))) if x]
        self.rank = len(self.d)
        self.kernel_basis = tuple(
            tuple(self.v[i][j] for i in range(self.nc)) for j in range(self.rank, self.nc)
        )

    def transform(self, b: list[int]) -> list[int]:
        """c = U b, for a right-hand side of the factored system."""
        if len(b) != self.nr:
            raise ValueError("dimension mismatch between matrix and right-hand side")
        return mat_vec(self.u, list(b))

    def feasible(self, c: list[int]) -> bool:
        """Whether A x = b has an integer solution, for c = U b: d_i | c_i up
        to the rank and c_i = 0 past it.  Forms no solution."""
        return all(ci % d == 0 for ci, d in zip(c, self.d)) and not any(c[self.rank :])

    def lift(self, c: list[int]) -> tuple[int, ...] | None:
        """The particular integer solution V y of A x = b, for c = U b, or None."""
        if not self.feasible(c):
            return None
        y = [ci // d for ci, d in zip(c, self.d)] + [0] * (self.nc - self.rank)
        return tuple(mat_vec(self.v, y))

    def lift_mod(self, c: list[int], m: int) -> list[int] | None:
        """A x = b (mod m), m >= 2, for c = U b: with y = V^-1 x it reads
        d_i y_i = c_i (mod m), d_i = 0 past the rank, solvable iff
        g_i = gcd(d_i, m) divides c_i (Newman, Integral Matrices, 1972,
        ch. II).  V y reduced mod m, or None."""
        if m < 2:
            raise ValueError("modulus must be >= 2")
        g = [gcd(d, m) for d in self.d] + [m] * (self.nr - self.rank)
        if any(ci % gi for ci, gi in zip(c, g)):
            return None
        y = [ci // gi * pow(d // gi, -1, m // gi) % (m // gi) for ci, gi, d in zip(c, g, self.d)]
        return [x % m for x in mat_vec(self.v, y + [0] * (self.nc - self.rank))]

    def solve(self, b: list[int]) -> DiophantineSolution | None:
        x = self.lift(self.transform(b))
        return None if x is None else DiophantineSolution(x, self.kernel_basis)


def solve_diophantine(a: list[list[int]], b: list[int]) -> DiophantineSolution | None:
    """Solve A x = b over the integers.

    Returns the particular solution and a basis of the full integer kernel
    lattice, or ``None`` when no integer solution exists.
    """
    return SNFSolver(a).solve(b)


def solve_congruence(a: list[list[int]], b: list[int], m: int) -> list[int] | None:
    """Solve A x = b (mod m) for m >= 2, valid for composite m, through the
    Smith normal form of A (SNFSolver.lift_mod).  The returned vector has
    entries in 0..m-1; ``None`` means no solution exists."""
    s = SNFSolver(a)
    return s.lift_mod(s.transform(b), m)


def lattice_coset_gcd(vectors: list[list[int]] | tuple) -> int:
    """gcd of the coordinate sums of ``vectors`` (0 if there are none): the
    coordinate sums over the lattice they span are exactly g*Z for the
    returned g."""
    return gcd(*map(sum, vectors))


def column_solver(columns: list[list[int]], n: int) -> SNFSolver:
    """SNFSolver for the n-row matrix whose columns are the given vectors,
    the n x 0 matrix when there are none."""
    return SNFSolver([[col[i] for col in columns] for i in range(n)])


def hermite_basis(vectors: list[list[int]]) -> list[list[int]]:
    """An echelon Z-basis, with positive pivots, of the lattice spanned by the
    given integer vectors; deterministic for a given generator list, but not
    canonical: the last pass reduces the entries above each pivot from the
    bottom row up, and a later reduction can undo an earlier one."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return []
    nc = len(rows[0])
    basis: list[list[int]] = []
    for c in range(nc):
        work = [r for r in rows if r[c] != 0]
        if not work:
            continue
        while True:
            work.sort(key=lambda r: abs(r[c]))
            piv = work[0]
            done = True
            for r in work[1:]:
                q = r[c] // piv[c]
                for k in range(nc):
                    r[k] -= q * piv[k]
                if r[c] != 0:
                    done = False
            work = [piv] + [r for r in work[1:] if r[c] != 0]
            if done:
                break
        # every other row is now 0 in column c
        if piv[c] < 0:
            piv[:] = [-x for x in piv]
        basis.append(piv)
        rows = [r for r in rows if r is not piv and any(r)]
    # reduce the entries above each pivot, from the bottom row up
    for i in reversed(range(len(basis))):
        c = next(k for k in range(nc) if basis[i][k] != 0)
        for j in range(i):
            q = basis[j][c] // basis[i][c]
            if q:
                for k in range(nc):
                    basis[j][k] -= q * basis[i][k]
    return basis
