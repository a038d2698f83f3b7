"""Exact integer linear algebra: Smith normal form, Diophantine and modular
linear systems, lattice membership.

Matrices are plain lists of rows of Python ints (arbitrary precision).  All
functions are pure and total except where a ``None`` return is documented to
mean "no solution".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not a:
        return []
    nb = len(b[0]) if b else 0
    return [[sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(nb)] for ra in a]


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

    def row_add(dst, src, f):
        arow, srow = a[dst], a[src]
        for k in range(nc):
            arow[k] += f * srow[k]
        urow, usrc = u[dst], u[src]
        for k in range(nr):
            urow[k] += f * usrc[k]

    def col_add(dst, src, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(nr, nc):
        # locate smallest nonzero entry in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
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
        # enforce divisibility of the trailing block by the pivot
        piv = a[t][t]
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % piv != 0:
                    offender = i
                    break
            if offender is not None:
                break
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
    """Factored form of an integer matrix for solving many systems A x = b."""

    def __init__(self, a: list[list[int]]):
        self.nr = len(a)
        self.nc = len(a[0]) if self.nr else 0
        self.s, self.u, self.v = smith_normal_form(a)
        self.rank = 0
        for i in range(min(self.nr, self.nc)):
            if self.s[i][i] != 0:
                self.rank += 1
        self.kernel_basis = tuple(
            tuple(self.v[i][j] for i in range(self.nc)) for j in range(self.rank, self.nc)
        )

    def solve(self, b: list[int]) -> DiophantineSolution | None:
        c = mat_vec(self.u, list(b))
        y = [0] * self.nc
        for i in range(self.rank):
            d = self.s[i][i]
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
        for i in range(self.rank, self.nr):
            if c[i] != 0:
                return None
        x = mat_vec(self.v, y)
        return DiophantineSolution(tuple(x), self.kernel_basis)


def solve_diophantine(a: list[list[int]], b: list[int]) -> DiophantineSolution | None:
    """Solve A x = b over the integers.

    Returns the particular solution and a basis of the full integer kernel
    lattice, or ``None`` when no integer solution exists.
    """
    if len(a) != len(b):
        raise ValueError("dimension mismatch between matrix and right-hand side")
    return SNFSolver(a).solve(b)


def solve_congruence(a: list[list[int]], b: list[int], m: int) -> list[int] | None:
    """Solve A x = b (mod m) for m >= 2, valid for composite m.

    The system is lifted to A x + m k = b over Z and solved through the Smith
    normal form; the returned vector is reduced mod m.  ``None`` means no
    solution exists.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    nr = len(a)
    nc = len(a[0]) if nr else 0
    aug = [list(a[i]) + [m if j == i else 0 for j in range(nr)] for i in range(nr)]
    sol = solve_diophantine(aug, list(b))
    if sol is None:
        return None
    return [x % m for x in sol.particular[:nc]]


def lattice_coset_gcd(vectors: list[list[int]] | tuple, weight: list[int] | tuple) -> int:
    """gcd of <weight, v> over the lattice spanned by ``vectors`` (0 if empty).

    The set of achievable weighted sums over the lattice is exactly g*Z for
    the returned g.
    """
    g = 0
    for v in vectors:
        g = gcd(g, sum(w * x for w, x in zip(weight, v)))
    return abs(g)


def lattice_contains(basis_columns: list[list[int]], target: list[int]) -> bool:
    """Whether ``target`` lies in the Z-span of the column vectors."""
    if not basis_columns:
        return all(x == 0 for x in target)
    n = len(basis_columns[0])
    a = [[col[i] for col in basis_columns] for i in range(n)]
    return solve_diophantine(a, list(target)) is not None


def column_solver(columns: list[list[int]]) -> SNFSolver:
    """SNFSolver for the matrix whose columns are the given vectors."""
    if not columns:
        return SNFSolver([])
    n = len(columns[0])
    return SNFSolver([[col[i] for col in columns] for i in range(n)])


def hermite_basis(vectors: list[list[int]]) -> list[list[int]]:
    """A canonical Z-basis (row-style Hermite form) of the lattice spanned by
    the given integer vectors."""
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
        if piv[c] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        rest = [r for r in rows if r is not piv and any(r)]
        for r in rest:
            if r[c] != 0:
                q = r[c] // piv[c]
                for k in range(nc):
                    r[k] -= q * piv[k]
        rows = [r for r in rest if any(r)]
    # reduce entries above each pivot for canonicity
    for i in reversed(range(len(basis))):
        c = next(k for k in range(nc) if basis[i][k] != 0)
        for j in range(i):
            q = basis[j][c] // basis[i][c]
            if q:
                for k in range(nc):
                    basis[j][k] -= q * basis[i][k]
    return basis
