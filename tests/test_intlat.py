import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambient_matrix import inverse

from flagcr.intlat import (
    DiophantineSolution,
    SNFSolver,
    column_solver,
    hermite_basis,
    identity_matrix,
    lattice_coset_gcd,
    mat_vec,
    smith_normal_form,
    solve_congruence,
    solve_diophantine,
)


def mat_mul(a, b):
    """Integer matrix product, the oracle for U M V = S."""
    if not a:
        return []
    nb = len(b[0]) if b else 0
    return [[sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(nb)] for ra in a]


def lattice_contains(basis_columns, target):
    """Whether ``target`` lies in the Z-span of the column vectors."""
    if not basis_columns:
        return all(x == 0 for x in target)
    n = len(basis_columns[0])
    a = [[col[i] for col in basis_columns] for i in range(n)]
    return solve_diophantine(a, list(target)) is not None


def _unimodular(m):
    # an integer matrix is unimodular exactly when its inverse is integral
    return all(x.denominator == 1 for row in inverse(m, Fraction) for x in row)


def check_snf(m):
    s, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == s
    assert _unimodular(u) and _unimodular(v)
    diag = [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]
    for i in range(len(s)):
        for j in range(len(s[0]) if s else 0):
            if i != j:
                assert s[i][j] == 0
    nz = [d for d in diag if d != 0]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert diag[len(nz):] == [0] * (len(diag) - len(nz))
    return diag


def test_snf_identity():
    s, u, v = smith_normal_form(identity_matrix(2))
    assert s == identity_matrix(2)
    assert u == identity_matrix(2)
    assert v == identity_matrix(2)


def test_snf_diag_2_3():
    # elementary-operation oracle: invariants d1 | d2 and determinant size
    diag = check_snf([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_snf_zero():
    s, u, v = smith_normal_form([[0, 0], [0, 0]])
    assert s == [[0, 0], [0, 0]]
    assert u == identity_matrix(2)
    assert v == identity_matrix(2)


def test_snf_random():
    rng = random.Random(20240211)
    for _ in range(120):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        check_snf(m)


def test_snf_rectangular_and_empty():
    check_snf([[2, 4, 6]])
    check_snf([[2], [4], [6]])
    s, u, v = smith_normal_form([])
    assert s == [] and u == [] and v == []


def enumerate_solutions(a, b, box):
    n = len(a[0])
    out = set()
    for x in itertools.product(range(-box, box + 1), repeat=n):
        if all(sum(r[k] * x[k] for k in range(n)) == bb for r, bb in zip(a, b)):
            out.add(x)
    return out


def test_diophantine_simple():
    sol = solve_diophantine([[2]], [4])
    assert sol.particular == (2,)
    assert sol.kernel_basis == ()
    assert solve_diophantine([[2]], [3]) is None


def test_diophantine_line():
    sol = solve_diophantine([[1, 1]], [1])
    assert sum(sol.particular) == 1
    assert len(sol.kernel_basis) == 1
    k = sol.kernel_basis[0]
    assert k in ((1, -1), (-1, 1))


def test_diophantine_vs_enumeration():
    # the solution set must match brute-force enumeration in a box
    rng = random.Random(7)
    for _ in range(60):
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        b = [rng.randint(-4, 4) for _ in range(nr)]
        box = 6
        brute = enumerate_solutions(a, b, box)
        sol = solve_diophantine(a, b)
        if sol is None:
            assert not brute
            continue
        for x in brute:
            diff = [xi - pi for xi, pi in zip(x, sol.particular)]
            assert lattice_contains([list(k) for k in sol.kernel_basis], diff)
        # and every kernel vector really solves the homogeneous system
        for k in sol.kernel_basis:
            assert all(sum(r[i] * k[i] for i in range(nc)) == 0 for r in a)
        assert all(
            sum(r[i] * sol.particular[i] for i in range(nc)) == bb for r, bb in zip(a, b)
        )


def lifted_congruence(a, b, m):
    """Independent oracle for A x = b (mod m): lift to A x + m k = b over Z,
    solve that Diophantine system and reduce the x part mod m (None when no
    solution exists)."""
    nr = len(a)
    nc = len(a[0]) if nr else 0
    sol = solve_diophantine([list(row) + [m if j == i else 0 for j in range(nr)] for i, row in enumerate(a)], list(b))
    return None if sol is None else [x % m for x in sol.particular[:nc]]


def test_congruence_basics():
    assert solve_congruence([[2]], [1], 2) is None
    assert solve_congruence([[1]], [3], 4) == [3]
    x = solve_congruence([[2, 0], [0, 2]], [2, 2], 4)
    assert x is not None
    assert [(2 * x[0]) % 4, (2 * x[1]) % 4] == [2, 2]


def exhaustive_congruence(a, b, m):
    n = len(a[0])
    for x in itertools.product(range(m), repeat=n):
        if all(sum(r[k] * x[k] for k in range(n)) % m == b[i] % m for i, r in enumerate(a)):
            return list(x)
    return None


def test_congruence_vs_exhaustive():
    rng = random.Random(11)
    for _ in range(150):
        m = rng.choice([2, 4])
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        b = [rng.randint(-4, 4) for _ in range(nr)]
        got = solve_congruence(a, b, m)
        want = exhaustive_congruence(a, b, m)
        assert (got is None) == (want is None)
        if got is not None:
            assert all(
                sum(r[k] * got[k] for k in range(nc)) % m == b[i] % m
                for i, r in enumerate(a)
            )


def test_coset_gcd():
    assert lattice_coset_gcd([[1, -1]]) == 0
    assert lattice_coset_gcd([[1, -1], [0, 2]]) == 2
    assert lattice_coset_gcd([]) == 0


def test_coset_gcd_vs_box_enumeration():
    basis = [[1, -1], [0, 2]]
    sums = set()
    for c1 in range(-4, 5):
        for c2 in range(-4, 5):
            v = [c1 * basis[0][k] + c2 * basis[1][k] for k in range(2)]
            sums.add(sum(v))
    nonzero = sorted(abs(s) for s in sums if s)
    g = nonzero[0]
    assert g == lattice_coset_gcd(basis)
    assert all(s % g == 0 for s in sums)


def test_hermite_basis():
    basis = hermite_basis([[2, 0], [0, 3], [2, 3]])
    assert len(basis) == 2
    for v in [[2, 0], [0, 3]]:
        assert lattice_contains([list(b) for b in basis], v)
    assert not lattice_contains([list(b) for b in basis], [1, 0])
    assert hermite_basis([[0, 0]]) == []


def _in_lattice(generators, v) -> bool:
    """v lies in the Z-span of the generators: one feasibility test on U v."""
    solver = column_solver(generators, len(v))
    return solver.feasible(solver.transform(v))


def test_hermite_basis_spans_the_lattice_in_echelon_form():
    rng = random.Random("hermite-basis")
    for _ in range(400):
        nr, nc, e = rng.randint(1, 6), rng.randint(1, 5), rng.choice((1, 3, 9))
        vecs = [[rng.randint(-e, e) for _ in range(nc)] for _ in range(nr)]
        basis = hermite_basis(vecs)
        # echelon: the leading columns strictly increase, each pivot positive
        leads = [next(k for k, x in enumerate(b) if x) for b in basis]
        assert all(a < b for a, b in zip(leads, leads[1:])), basis
        assert all(b[k] > 0 for b, k in zip(basis, leads)), basis
        # the same lattice: each side's vectors lie in the other's span
        assert all(_in_lattice(basis, v) for v in vecs), (vecs, basis)
        assert all(_in_lattice(vecs, b) for b in basis), (vecs, basis)


# inputs whose elimination meets a negative pivot, with the bases the Hermite
# reduction gave before the pivot row was negated in place
NEGATIVE_PIVOTS = [
    ([[-2, 1], [0, 3]], [[2, 2], [0, 3]]),
    ([[-1, 2, 0], [0, -1, 3], [0, 0, -2]], [[1, 0, 2], [0, 1, 1], [0, 0, 2]]),
    ([[-3, 5], [-6, 4]], [[3, 1], [0, 6]]),
    ([[0, -2, 4], [0, 3, -1]], [[0, 1, 3], [0, 0, 10]]),
    ([[-4, 6, 2], [6, -4, 0], [-2, 2, -2]], [[2, 0, 8], [0, 2, 6], [0, 0, 12]]),
    ([[0, 0, -5], [0, -3, 7]], [[0, 3, 3], [0, 0, 5]]),
]


@pytest.mark.parametrize("vectors,want", NEGATIVE_PIVOTS)
def test_hermite_basis_negative_pivots_are_pinned(vectors, want):
    assert hermite_basis(vectors) == want


# --- properties (Hypothesis) -------------------------------------------------


@st.composite
def systems(draw, max_rows=4, max_cols=5, entry=9):
    """(A, b): an integer matrix with entries in -entry..entry and a
    right-hand side."""
    nr = draw(st.integers(1, max_rows))
    nc = draw(st.integers(1, max_cols))
    a = draw(st.lists(st.lists(st.integers(-entry, entry), min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    b = draw(st.lists(st.integers(-20, 20), min_size=nr, max_size=nr))
    return a, b


def _diag(s):
    return [s[i][i] for i in range(min(len(s), len(s[0])))]


def _certified_unsolvable(a, b):
    """Some row u of the SNF transform U (U A V = S) with u A = 0 mod d and
    u b != 0 mod d for its invariant factor d (d = 0: u A = 0 and u b != 0);
    then A x = b has no integer solution, whatever V is."""
    s, u, _ = smith_normal_form(a)
    d = _diag(s) + [0] * (len(a) - min(len(a), len(a[0])))
    for ui, di in zip(u, d):
        ua = [sum(x * row[j] for x, row in zip(ui, a)) for j in range(len(a[0]))]
        ub = sum(x * y for x, y in zip(ui, b))
        if all((x % di if di else x) == 0 for x in ua) and (ub % di if di else ub) != 0:
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(systems())
def test_snf_property(system):
    check_snf(system[0])  # U M V = S, U and V unimodular, d_i | d_(i+1)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_diophantine_answers_substitute_back(system):
    a, b = system
    sol = solve_diophantine(a, b)
    if sol is None:
        assert _certified_unsolvable(a, b)
        return
    assert mat_vec(a, list(sol.particular)) == b
    for k in sol.kernel_basis:
        assert mat_vec(a, list(k)) == [0] * len(a)
    rank = sum(1 for d in _diag(smith_normal_form(a)[0]) if d)
    assert len(sol.kernel_basis) == len(a[0]) - rank


@settings(max_examples=200, deadline=None)
@given(systems(max_rows=3, max_cols=4), st.integers(2, 12))
def test_congruence_answers_substitute_back(system, m):
    a, b = system
    x = solve_congruence(a, b, m)
    if x is None:
        # certified on the lifted system A x + m k = b over Z
        assert _certified_unsolvable([row + [m if j == i else 0 for j in range(len(a))] for i, row in enumerate(a)], b)
        return
    assert all(0 <= t < m for t in x)
    assert all((y - c) % m == 0 for y, c in zip(mat_vec(a, x), b))


@settings(max_examples=300, deadline=None)
@given(systems(max_rows=6, max_cols=6, entry=4), st.integers(2, 12))
def test_solve_mod_matches_lifted_oracle(system, m):
    # one SNF of A against the SNF of the lifted [A | mI]: the same verdict,
    # and an answer that is a solution reduced into 0..m-1
    a, b = system
    x = solve_congruence(a, b, m)
    assert (x is None) == (lifted_congruence(a, b, m) is None)
    if x is not None:
        assert all(0 <= t < m for t in x)
        assert all((y - c) % m == 0 for y, c in zip(mat_vec(a, x), b))


def test_solvers_reject_bad_input():
    for m in (1, 0, -3):
        with pytest.raises(ValueError, match="modulus"):
            solve_congruence([[1]], [1], m)
    for b in ([1], [1, 2, 3]):
        for solve in (solve_diophantine, lambda a, b: solve_congruence(a, b, 4)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                solve([[1, 0], [0, 1]], b)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_invariant_factors_match_sympy(system):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    a = system[0]
    want = _diag(sympy_snf(sympy.Matrix(a), domain=sympy.ZZ).tolist())
    assert [abs(d) for d in _diag(smith_normal_form(a)[0])] == [abs(int(d)) for d in want]


# --- the unit-pivot skip and the feasibility test -------------------------


def _snf_full_scan(
    m: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """smith_normal_form with the trailing-block divisibility scan after
    every pivot, unit pivots included: the oracle for the unit-pivot skip."""
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
        # enforce divisibility of the trailing block by the pivot
        piv = a[t][t]
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


def _seeded_matrices():
    """Integer matrices from 0 rows up to 9 x 36, seeded: the empty matrix,
    zero matrices, rank-deficient ones (rows that are integer combinations
    of two others), dense ones, and ones with no entry +-1, whose pivots
    need the trailing-block divisibility scan."""
    rng = random.Random(20261019)
    out = [[]]
    for nr in range(1, 10):
        for nc in (1, 2, 3, 5, 8, 13, 21, 36):
            out.append([[0] * nc for _ in range(nr)])
            dense = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
            out.append(dense)
            out.append([[rng.choice((0, 2, -2, 3, -3, 4, 6, -9)) for _ in range(nc)] for _ in range(nr)])
            if nr > 2:
                deficient = [list(row) for row in dense[:2]]
                for _ in range(nr - 2):
                    f, g = rng.randint(-3, 3), rng.randint(-3, 3)
                    deficient.append([f * x + g * y for x, y in zip(*deficient[:2])])
                rng.shuffle(deficient)
                out.append(deficient)
    return out


def test_unit_pivot_skip_keeps_snf():
    for m in _seeded_matrices():
        assert smith_normal_form(m) == _snf_full_scan(m), m


def test_feasible_matches_solve():
    # feasible(U b) against solve(b) is not None, on right-hand sides in the
    # column lattice (A x), off it (A x plus a unit vector) and random ones;
    # each verdict is also checked on its own: a solution that substitutes
    # back, or a certificate that none exists
    rng = random.Random(36)
    outcomes = set()
    for a in _seeded_matrices():
        solver = SNFSolver(a)
        nc = len(a[0]) if a else 0
        for _ in range(4):
            ax = mat_vec(a, [rng.randint(-3, 3) for _ in range(nc)])
            bumped = [y + (i == 0) for i, y in enumerate(ax)]
            for b in (ax, bumped, [rng.randint(-20, 20) for _ in a]):
                got = solver.feasible(solver.transform(b))
                sol = solver.solve(b)
                assert got == (sol is not None), (a, b)
                if got:
                    assert mat_vec(a, list(sol.particular)) == b
                else:
                    assert b is not ax and _certified_unsolvable(a, b), (a, b)
                outcomes.add(got)
    assert outcomes == {True, False}
