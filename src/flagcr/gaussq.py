"""Exact linear algebra over the Gaussian rationals Q(i) and over Q.

CNum is an immutable Gaussian rational.  _insert is the one Gauss-Jordan
step over a field in the package: _rref applies it row by row, and cralg
grows every reduced basis with it, its closures, its Levi-form quotient basis
and its semidefiniteness test included.  Factored keeps one
elimination of a matrix for repeated solves; kernel is a one-shot
elimination of the matrix alone.
CMatrix / RMatrix represent subspaces by their rows, canonicalized through
reduced row echelon form, so equality of subspaces is equality of canonical
forms.
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


class Factored:
    """A matrix A (given by its rows) eliminated once over the field of
    ``coerce``: Gauss-Jordan on [A | I] gives [R | T], with R the reduced row
    echelon form of A and T the invertible row transform, T A = R.  Solves
    against any number of right-hand sides are read off R and T without
    eliminating again."""

    def __init__(self, rows, coerce):
        self.coerce = coerce
        a = [[coerce(x) for x in r] for r in rows]
        m = len(a)
        n = len(a[0]) if m else 0
        zero, one = coerce(0), coerce(1)
        red, pivots = _rref([r + [one if j == i else zero for j in range(m)] for i, r in enumerate(a)])
        self.ncols = n
        self.rank = sum(1 for p in pivots if p < n)
        self.pivots = pivots[: self.rank]
        self._t = [row[n:] for row in red]

    def solve(self, b):
        """One x with A x = b, free unknowns set to 0; None when the system
        is inconsistent (some row of T b beyond the rank is nonzero)."""
        b = [(j, v) for j, v in enumerate(map(self.coerce, b)) if v]
        zero = self.coerce(0)

        def t_dot_b(t):
            s = zero
            for j, v in b:
                if t[j]:
                    s = s + t[j] * v
            return s

        if any(t_dot_b(t) for t in self._t[self.rank :]):
            return None
        x = [zero] * self.ncols
        for p, t in zip(self.pivots, self._t):
            x[p] = t_dot_b(t)
        return x


def solve_linear(rows, rhs, coerce):
    """One solution x of rows * x = rhs over the field, or None."""
    return Factored(rows, coerce).solve(rhs)


def kernel(rows, coerce):
    """Basis of {x : rows * x = 0} over the field.  A one-shot kernel needs
    no row transform, so A alone is eliminated: on tall systems (many
    conditions, few unknowns) T would be square in the row count.  One basis
    vector per free column."""
    a = [[coerce(x) for x in r] for r in rows]
    red, pivots = _rref(a)
    ncols, zero, one = len(a[0]) if a else 0, coerce(0), coerce(1)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


class _SpaceBase:
    zero = None

    def __init__(self, rows):
        rows = [tuple(self.coerce(x) for x in r) for r in rows]
        self.ncols = len(rows[0]) if rows else 0
        reduced, pivots = _rref(rows)
        self.rows = reduced
        self.pivots = pivots

    @classmethod
    def empty(cls, ncols):
        out = cls([])
        out.ncols = ncols
        return out

    def rank(self) -> int:
        return len(self.rows)

    def residue(self, vec) -> list:
        """vec reduced modulo the row space; zero exactly when vec lies in it."""
        return _reduce(map(self.coerce, vec), self.rows, self.pivots)

    def contains(self, vec) -> bool:
        return not any(self.residue(vec))

    def contains_space(self, other) -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        return self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def sum(self, other):
        if not self.rows:
            return other
        if not other.rows:
            return self
        return type(self)(list(self.rows) + list(other.rows))

    def intersect(self, other):
        """Intersection of row spaces (Zassenhaus): in the reduced form of the
        rows (u | u) and (w | 0), the rows whose first half vanishes span it."""
        n, zero = self.ncols, self.coerce(0)
        if not self.rows or not other.rows:
            return type(self).empty(n)
        red, pivots = _rref([u + u for u in self.rows] + [w + (zero,) * n for w in other.rows])
        vecs = [r[n:] for r, p in zip(red, pivots) if p >= n]
        return type(self)(vecs) if vecs else type(self).empty(n)


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
