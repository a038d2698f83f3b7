"""Exact linear algebra over the Gaussian rationals Q(i) and over Q.

CNum is an immutable Gaussian rational.  _insert is the one Gauss-Jordan
step over a field in the package: _rref applies it row by row, and cralg
grows every reduced basis with it, its closures, its Levi-form quotient basis
and its semidefiniteness test included.  The solvers take a matrix by its
columns and their height n, as intlat.column_solver does, and refuse a
column or right-hand side of another height: Factored keeps one
elimination of a matrix for repeated solves, each one _reduce; kernel is a
one-shot elimination of the matrix alone.  _apply is the one product of a
matrix, given by its columns, with a vector.
CMatrix / RMatrix represent subspaces by their rows, canonicalized through
reduced row echelon form, so equality of subspaces is equality of canonical
forms.  A subspace is built with its width, CMatrix(n, rows), the zero
subspace as CMatrix(n, []), and refuses a row or vector of another width.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class CNum:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "CNum":
        if isinstance(x, CNum):
            return x
        return CNum(Fraction(x), Fraction(0))

    @staticmethod
    def from_pair(pair, where) -> "CNum":
        """CNum from a JSON pair [re, im] of rationals; ValueError naming
        ``where`` for anything else."""
        try:
            if isinstance(pair, list) and len(pair) == 2:
                return CNum(Fraction(pair[0]), Fraction(pair[1]))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
        raise ValueError(f"{where}: {pair!r} is not a pair [re, im] of rationals")

    def __add__(self, o):
        o = CNum.of(o)
        return CNum(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = CNum.of(o)
        return CNum(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return CNum(-self.re, -self.im)

    def __mul__(self, o):
        o = CNum.of(o)
        return CNum(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, o):
        return CNum.of(o) - self

    def __truediv__(self, o):
        o = CNum.of(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return CNum((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def conj(self) -> "CNum":
        return CNum(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


C_ZERO = CNum()
C_ONE = CNum(Fraction(1))
C_I = CNum(Fraction(0), Fraction(1))


def _apply(cols, v, n):
    """sum_j v[j] cols[j] as a CNum n-vector, skipping the zero coordinates
    of v and of the columns."""
    out = [C_ZERO] * n
    for z, col in zip(v, cols):
        if z:
            z = CNum.of(z)
            for t, c in enumerate(col):
                if c:
                    out[t] = out[t] + z * c
    return tuple(out)


def _reduce(vec, rows, pivots):
    """vec minus its combination of the reduced rows (pivot columns
    pivots): zero exactly when vec lies in their span."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        if f := v[p]:
            v = [x - f * y if y else x for x, y in zip(v, row)]
    return v


def _insert(rows, pivots, vec):
    """One Gauss-Jordan step, in place: unless vec lies in the span of the
    reduced rows, add its residue, scaled to a leading 1, and clear that
    column from the other rows.  Returns the added row or None."""
    v = _reduce(vec, rows, pivots)
    p = next((c for c, x in enumerate(v) if x), None)
    if p is None:
        return None
    f = v[p]
    v = [x / f if x else x for x in v]
    for t, row in enumerate(rows):
        if g := row[p]:
            rows[t] = [x - g * y if y else x for x, y in zip(row, v)]
    rows.append(v)
    pivots.append(p)
    return v


def _rref(rows):
    """Reduced row echelon form over a field (CNum or Fraction entries):
    (nonzero rows, pivot columns), built row by row with _insert, the one
    Gauss-Jordan step of the package; intlat does the integer eliminations."""
    red, pivots = [], []
    for r in rows:
        _insert(red, pivots, r)
    order = sorted(range(len(red)), key=pivots.__getitem__)
    return [tuple(red[i]) for i in order], [pivots[i] for i in order]


def _vector(vec, n, coerce, name) -> tuple:
    """vec over the field of ``coerce``; ValueError naming it unless it has
    n coordinates, as the eliminations zip vectors and would cut it."""
    v = tuple(map(coerce, vec))
    if len(v) != n:
        raise ValueError(f"{name} has {len(v)} coordinates, not {n}")
    return v


class Factored:
    """The matrix A with the given columns a_j of height n, eliminated once
    over the field of ``coerce``: every row of the reduced form of the rows
    (a_j | e_j) is (A t | t) for some t, so solves against any number of
    right-hand sides need no further elimination."""

    def __init__(self, columns, n, coerce):
        self.n, self.coerce = n, coerce
        self._tags = (coerce(0),) * len(columns)
        rows = [list(_vector(c, n, coerce, f"column {j}") + self._tags) for j, c in enumerate(columns)]
        for j, row in enumerate(rows):
            row[n + j] = coerce(1)
        self._rows, self._pivots = _rref(rows)
        self.rank = sum(1 for p in self._pivots if p < n)

    def solve(self, b):
        """One x with A x = b, or None when there is none: (b | 0) reduces to
        (b - A t | -t), whose first n entries vanish exactly when A t = b."""
        v = _reduce(_vector(b, self.n, self.coerce, "right-hand side") + self._tags, self._rows, self._pivots)
        if any(v[: self.n]):
            return None
        return [-x for x in v[self.n :]]


def solve_linear(columns, rhs, coerce):
    """One solution x of A x = rhs over the field, for the matrix A with the
    given columns, or None."""
    return Factored(columns, len(rhs), coerce).solve(rhs)


def kernel(columns, n, coerce):
    """Basis of {x : A x = 0} over the field, for the matrix A with the given
    columns of height n: one basis vector per free column of the reduced
    rows of A.  The tag rows of Factored with a zero A-part span the same
    kernel in another basis; realform.adapted_simple_system picks its a1,
    and so the printed epsilon, from this one."""
    cols = [_vector(c, n, coerce, f"column {j}") for j, c in enumerate(columns)]
    red, pivots = _rref(zip(*cols))
    zero, one = coerce(0), coerce(1)
    basis = []
    for fc in sorted(set(range(len(cols))) - set(pivots)):
        v = [zero] * len(cols)
        v[fc] = one
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


class _SpaceBase:
    def __init__(self, ncols, rows):
        self.ncols = ncols
        self.rows, self.pivots = _rref(_vector(r, ncols, self.coerce, f"vector {t}") for t, r in enumerate(rows))

    def rank(self) -> int:
        return len(self.rows)

    def residue(self, vec) -> list:
        """vec reduced modulo the row space; zero exactly when vec lies in it."""
        return _reduce(_vector(vec, self.ncols, self.coerce, "vector"), self.rows, self.pivots)

    def contains(self, vec) -> bool:
        return not any(self.residue(vec))

    def contains_space(self, other) -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        return self.ncols == other.ncols and self.rows == other.rows

    def _same_width(self, other):
        if other.ncols != self.ncols:
            raise ValueError(f"space has {other.ncols} coordinates, not {self.ncols}")

    def sum(self, other):
        self._same_width(other)
        return type(self)(self.ncols, self.rows + other.rows)

    def intersect(self, other):
        """Intersection of row spaces (Zassenhaus): in the reduced form of the
        rows (u | u) and (w | 0), the rows whose first half vanishes span it."""
        self._same_width(other)
        n, zero = self.ncols, self.coerce(0)
        red, pivots = _rref([u + u for u in self.rows] + [w + (zero,) * n for w in other.rows])
        return type(self)(n, (r[n:] for r, p in zip(red, pivots) if p >= n))


class CMatrix(_SpaceBase):
    """Complex subspace as a row space over the Gaussian rationals."""

    @staticmethod
    def coerce(x):
        return CNum.of(x)


class RMatrix(_SpaceBase):
    """Rational subspace as a row space over Q."""

    @staticmethod
    def coerce(x):
        return Fraction(x)


def realify_vector(v) -> tuple[Fraction, ...]:
    """(z_1..z_n) -> (re_1, im_1, ..., re_n, im_n)."""
    out = []
    for z in v:
        z = CNum.of(z)
        out.extend((z.re, z.im))
    return tuple(out)


def complexify_vector(v) -> tuple[CNum, ...]:
    """Inverse of realify_vector."""
    assert len(v) % 2 == 0
    return tuple(CNum(Fraction(v[2 * k]), Fraction(v[2 * k + 1])) for k in range(len(v) // 2))
